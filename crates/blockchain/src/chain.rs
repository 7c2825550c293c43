//! The proof-of-authority blockchain.
//!
//! Block production is clocked by the simulation: slot `k` opens at
//! `genesis + k × interval` and belongs to validator `k mod n` (round
//! robin). [`Blockchain::advance_to`] produces every due block; a crashed
//! proposer simply misses its slot, which is exactly the liveness behaviour
//! the robustness experiment (E8) measures.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use duc_crypto::{Digest, KeyPair};
use duc_intern::{Interner, Sym};
use duc_sim::{SimDuration, SimTime};
use duc_storage::{BlockStore, Checkpoint, FileArchive, PrunedRange, StateStore, StorageConfig};

use crate::block::{Block, BlockValidationError};
use crate::contract::{CallCtx, Contract, ContractError, Event};
use crate::gas::{GasMeter, GasSchedule};
use crate::state::{PagingStats, WorldState};
use crate::tx::{Receipt, SignedTransaction, Transaction, TxKind, TxStatus};
use crate::types::{Address, Amount, ContractId, TxId};

/// Why a transaction was rejected at submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Signature or sender-address check failed.
    InvalidSignature,
    /// The nonce is below the account's current nonce (stale/replay).
    NonceTooLow {
        /// Expected minimum.
        expected: u64,
        /// Provided nonce.
        got: u64,
    },
    /// The sender cannot cover the maximum gas fee.
    CannotPayGas,
    /// The maximum fee (`gas_limit × gas_price`, plus the amount for
    /// transfers) overflows the amount type. Unchecked, the fee arithmetic
    /// would wrap and under-charge — rejected typed instead.
    FeeOverflow,
    /// The mempool is at capacity.
    MempoolFull,
    /// A transaction with the same sender and nonce is already pending.
    DuplicateNonce,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::InvalidSignature => f.write_str("invalid signature"),
            SubmitError::NonceTooLow { expected, got } => {
                write!(f, "nonce too low: expected >= {expected}, got {got}")
            }
            SubmitError::CannotPayGas => f.write_str("cannot pay gas"),
            SubmitError::FeeOverflow => f.write_str("maximum fee overflows the amount type"),
            SubmitError::MempoolFull => f.write_str("mempool full"),
            SubmitError::DuplicateNonce => f.write_str("duplicate (sender, nonce) pending"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One row of the gas ledger (who spent what on which method) — the raw
/// data behind the affordability table (E7).
///
/// Labels are interned [`Sym`]s into the chain's label table (resolve via
/// [`Blockchain::gas_label`]); a record is three words instead of two
/// heap-owned strings, and aggregation compares `u32`s instead of URLs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GasRecord {
    /// The called contract (`None` for plain transfers).
    pub contract: Option<Sym>,
    /// The method label (`"transfer"` for transfers).
    pub method: Sym,
    /// Gas consumed.
    pub gas_used: u64,
    /// Whether execution succeeded.
    pub ok: bool,
    /// Block height.
    pub height: u64,
}

/// Configures and creates a [`Blockchain`].
#[derive(Debug)]
pub struct BlockchainBuilder {
    validator_count: usize,
    block_interval: SimDuration,
    gas_schedule: GasSchedule,
    max_block_gas: u64,
    gas_price: Amount,
    mempool_capacity: usize,
    storage: StorageConfig,
}

impl Default for BlockchainBuilder {
    fn default() -> Self {
        BlockchainBuilder {
            validator_count: 4,
            block_interval: SimDuration::from_secs(2),
            gas_schedule: GasSchedule::default(),
            max_block_gas: 30_000_000,
            gas_price: 1,
            mempool_capacity: 10_000,
            storage: StorageConfig::disabled(),
        }
    }
}

impl BlockchainBuilder {
    /// Number of PoA validators (keys derived deterministically).
    pub fn validators(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one validator required");
        self.validator_count = n;
        self
    }

    /// Target block interval.
    pub fn block_interval(mut self, interval: SimDuration) -> Self {
        self.block_interval = interval;
        self
    }

    /// Gas price list.
    pub fn gas_schedule(mut self, schedule: GasSchedule) -> Self {
        self.gas_schedule = schedule;
        self
    }

    /// Per-block gas ceiling.
    pub fn max_block_gas(mut self, gas: u64) -> Self {
        self.max_block_gas = gas;
        self
    }

    /// Native-token price per unit of gas.
    pub fn gas_price(mut self, price: Amount) -> Self {
        self.gas_price = price;
        self
    }

    /// Mempool capacity.
    pub fn mempool_capacity(mut self, cap: usize) -> Self {
        self.mempool_capacity = cap;
        self
    }

    /// Retention configuration (checkpoint interval, window, archive path).
    /// Defaults to [`StorageConfig::disabled`]: infinite retention.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Builds the chain (genesis at t = 0).
    ///
    /// # Panics
    /// If an archive path is configured and the archive file cannot be
    /// opened for appending.
    pub fn build(self) -> Blockchain {
        let validators: Vec<KeyPair> = (0..self.validator_count)
            .map(|i| KeyPair::from_seed(format!("duc/validator-{i}").as_bytes()))
            .collect();
        let archive = self.storage.archive_path.as_ref().map(|path| {
            FileArchive::open(path).unwrap_or_else(|e| panic!("open archive {path:?}: {e}"))
        });
        Blockchain {
            validators,
            down_validators: HashSet::new(),
            block_interval: self.block_interval,
            next_slot: 1,
            current_time: SimTime::ZERO,
            state: match &self.storage.paging {
                Some(paging) => WorldState::with_paging(paging),
                None => WorldState::new(),
            },
            blocks: BlockStore::new(archive),
            storage: self.storage,
            checkpoints: StateStore::new(),
            mempool: BTreeMap::new(),
            receipts: HashMap::new(),
            event_log: Vec::new(),
            contracts: HashMap::new(),
            gas_schedule: self.gas_schedule,
            gas_price: self.gas_price,
            max_block_gas: self.max_block_gas,
            mempool_capacity: self.mempool_capacity,
            gas_ledger: Vec::new(),
            labels: Interner::new(),
            slots_missed: 0,
        }
    }
}

/// The chain node (in this simulation, one logical replica of the PoA
/// network — consensus among honest replicas is deterministic replay).
pub struct Blockchain {
    validators: Vec<KeyPair>,
    down_validators: HashSet<usize>,
    block_interval: SimDuration,
    /// The next production slot (slot k opens at genesis + k × interval).
    next_slot: u64,
    /// The latest instant the chain has observed (view calls evaluate
    /// time-dependent logic against this).
    current_time: SimTime,
    state: WorldState,
    /// Windowed block storage: retained heights are
    /// `prune_horizon + 1 ..= height` once pruning has run.
    blocks: BlockStore<Block>,
    storage: StorageConfig,
    checkpoints: StateStore,
    mempool: BTreeMap<(Address, u64), SignedTransaction>,
    receipts: HashMap<TxId, Receipt>,
    event_log: Vec<(u64, Rc<Event>)>,
    contracts: HashMap<ContractId, Box<dyn Contract>>,
    gas_schedule: GasSchedule,
    gas_price: Amount,
    max_block_gas: u64,
    mempool_capacity: usize,
    gas_ledger: Vec<GasRecord>,
    /// Gas-ledger label table: contract ids and method names interned once
    /// per distinct label instead of cloned per record.
    labels: Interner,
    slots_missed: u64,
}

impl std::fmt::Debug for Blockchain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blockchain")
            .field("height", &self.height())
            .field("pending", &self.mempool.len())
            .field("validators", &self.validators.len())
            .field("contracts", &self.contracts.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl Blockchain {
    /// Starts a builder with defaults (4 validators, 2 s blocks).
    pub fn builder() -> BlockchainBuilder {
        BlockchainBuilder::default()
    }

    // ------------------------------------------------------------ accounts

    /// Creates a key pair from `seed` and funds its account.
    pub fn create_funded_account(&mut self, seed: &[u8], amount: Amount) -> KeyPair {
        let key = KeyPair::from_seed(seed);
        self.state
            .credit(Address::from_public_key(&key.public()), amount);
        key
    }

    /// Current balance of an address.
    pub fn balance(&self, addr: &Address) -> Amount {
        self.state.balance(addr)
    }

    /// The next nonce `addr` should use (accounts for pending txs).
    pub fn next_nonce(&self, addr: &Address) -> u64 {
        let pending_max = self
            .mempool
            .range((*addr, 0)..=(*addr, u64::MAX))
            .map(|((_, n), _)| *n + 1)
            .max();
        pending_max.unwrap_or(0).max(self.state.nonce(addr))
    }

    // ----------------------------------------------------------- contracts

    /// Deploys a contract at genesis (before or between blocks).
    pub fn deploy(&mut self, id: ContractId, contract: Box<dyn Contract>) {
        self.contracts.insert(id, contract);
    }

    /// Whether a contract is deployed.
    pub fn has_contract(&self, id: &ContractId) -> bool {
        self.contracts.contains_key(id)
    }

    // -------------------------------------------------------- tx building

    /// Builds a signed transfer using the account's next nonce.
    ///
    /// # Errors
    /// Returns [`SubmitError::CannotPayGas`] when the balance cannot cover
    /// amount + maximum fee.
    pub fn build_transfer(
        &self,
        key: &KeyPair,
        to: Address,
        amount: Amount,
    ) -> Result<SignedTransaction, SubmitError> {
        let from = Address::from_public_key(&key.public());
        // Intrinsic cost covers the base fee plus per-byte payload charges
        // (a signed transfer encodes to ~120 bytes).
        let gas_limit = self.gas_schedule.tx_base + 8_000;
        let needed = (gas_limit as Amount)
            .checked_mul(self.gas_price)
            .and_then(|fee| amount.checked_add(fee))
            .ok_or(SubmitError::FeeOverflow)?;
        if self.state.balance(&from) < needed {
            return Err(SubmitError::CannotPayGas);
        }
        Ok(Transaction {
            from,
            nonce: self.next_nonce(&from),
            kind: TxKind::Transfer { to, amount },
            gas_limit,
        }
        .sign(key))
    }

    /// Builds a signed contract call using the account's next nonce.
    pub fn build_call(
        &self,
        key: &KeyPair,
        contract: ContractId,
        method: impl Into<String>,
        args: Vec<u8>,
        gas_limit: u64,
    ) -> SignedTransaction {
        let from = Address::from_public_key(&key.public());
        Transaction {
            from,
            nonce: self.next_nonce(&from),
            kind: TxKind::Call {
                contract,
                method: method.into(),
                args,
            },
            gas_limit,
        }
        .sign(key)
    }

    // ----------------------------------------------------------- mempool

    /// Submits a signed transaction to the mempool.
    ///
    /// # Errors
    /// See [`SubmitError`] for the rejection conditions.
    pub fn submit(&mut self, tx: SignedTransaction) -> Result<TxId, SubmitError> {
        if !tx.verify() {
            return Err(SubmitError::InvalidSignature);
        }
        let expected = self.state.nonce(&tx.tx.from);
        if tx.tx.nonce < expected {
            return Err(SubmitError::NonceTooLow {
                expected,
                got: tx.tx.nonce,
            });
        }
        let max_fee = (tx.tx.gas_limit as Amount)
            .checked_mul(self.gas_price)
            .ok_or(SubmitError::FeeOverflow)?;
        if self.state.balance(&tx.tx.from) < max_fee {
            return Err(SubmitError::CannotPayGas);
        }
        if self.mempool.len() >= self.mempool_capacity {
            return Err(SubmitError::MempoolFull);
        }
        let keypair_key = (tx.tx.from, tx.tx.nonce);
        if self.mempool.contains_key(&keypair_key) {
            return Err(SubmitError::DuplicateNonce);
        }
        let id = tx.id();
        self.mempool.insert(keypair_key, tx);
        Ok(id)
    }

    /// Number of pending transactions.
    pub fn pending_count(&self) -> usize {
        self.mempool.len()
    }

    // ------------------------------------------------------ block making

    /// Produces every block whose slot opens at or before `now`.
    /// Returns the number of blocks produced.
    ///
    /// Blocks are produced *on demand*: a slot with an empty mempool is
    /// skipped without sealing an empty block (the behaviour of on-demand
    /// sequencers; it also keeps long idle simulated periods cheap). Slot
    /// accounting still advances, so proposer rotation and crash-fault
    /// liveness behave like a fixed-cadence PoA network whenever there is
    /// work to include.
    pub fn advance_to(&mut self, now: SimTime) -> usize {
        self.prune_due();
        let mut produced = 0;
        loop {
            let slot_time = SimTime::ZERO + self.block_interval.saturating_mul(self.next_slot);
            if slot_time > now {
                break;
            }
            if self.mempool.is_empty() {
                // Fast-forward the slot counter to the last empty slot
                // before `now` (or before more work could exist).
                let slots_until_now = now.as_nanos() / self.block_interval.as_nanos().max(1);
                self.next_slot = self.next_slot.max(slots_until_now).saturating_add(1);
                break;
            }
            let proposer_idx = (self.next_slot as usize) % self.validators.len();
            self.next_slot += 1;
            if self.down_validators.contains(&proposer_idx) {
                self.slots_missed += 1;
                continue;
            }
            self.produce_block(slot_time, proposer_idx);
            produced += 1;
        }
        if now > self.current_time {
            self.current_time = now;
        }
        produced
    }

    /// The latest instant the chain has observed.
    pub fn current_time(&self) -> SimTime {
        self.current_time
    }

    fn produce_block(&mut self, timestamp: SimTime, proposer_idx: usize) {
        let height = self.blocks.height() + 1;
        let included = self.fill_block(height, timestamp, proposer_idx);
        self.evict_superseded(height);
        let parent = self
            .blocks
            .last()
            .map(|b| b.hash())
            .unwrap_or_else(|| self.blocks.base_parent());
        let block = Block::seal(
            height,
            parent,
            self.state.commitment(),
            timestamp,
            included,
            &self.validators[proposer_idx],
        );
        self.blocks.push(block);
        self.maybe_checkpoint(height);
    }

    /// The block body: executable transactions in canonical (sorted
    /// mempool key) order, respecting per-account nonce sequencing and the
    /// block gas ceiling.
    fn fill_block(
        &mut self,
        height: u64,
        timestamp: SimTime,
        proposer_idx: usize,
    ) -> Vec<SignedTransaction> {
        let mut included = Vec::new();
        let mut block_gas: u64 = 0;
        // `BTreeMap` keys already iterate in canonical sorted order.
        let ready: Vec<(Address, u64)> = self.mempool.keys().cloned().collect();
        for key in ready {
            let expected = self.state.nonce(&key.0);
            if key.1 != expected {
                continue; // future nonce stays pending; stale handled later
            }
            let gas_limit = self
                .mempool
                .get(&key)
                .expect("key from mempool")
                .tx
                .gas_limit;
            if block_gas.saturating_add(gas_limit) > self.max_block_gas {
                continue;
            }
            // Execution consumes the mempool entry — no working clone.
            let tx = self.mempool.remove(&key).expect("key from mempool");
            // The ceiling reserves each transaction's full gas limit, as
            // real block builders must (gas_used is unknown pre-execution).
            block_gas += gas_limit;
            let receipt = self.execute(&tx, height, timestamp, proposer_idx);
            for ev in &receipt.events {
                // One Rc per event, shared between the receipt and the
                // event log: every downstream consumer (push-out fan-out,
                // pull-in polls, sharded merge) clones the pointer, not the
                // payload.
                self.event_log.push((height, Rc::clone(ev)));
            }
            self.receipts.insert(receipt.tx_id, receipt);
            included.push(tx);
        }
        included
    }

    /// Evicts mempool transactions whose nonce a sealed block made stale,
    /// recording a [`TxStatus::Superseded`] receipt for each so inclusion
    /// polls resolve immediately instead of exhausting their retry budget
    /// on a transaction that can never execute.
    fn evict_superseded(&mut self, height: u64) {
        let stale: Vec<(Address, u64)> = self
            .mempool
            .keys()
            .filter(|(addr, nonce)| *nonce < self.state.nonce(addr))
            .cloned()
            .collect();
        for key in stale {
            let tx = self.mempool.remove(&key).expect("stale key from mempool");
            let receipt = Receipt {
                tx_id: tx.id(),
                block_height: height,
                status: TxStatus::Superseded,
                gas_used: 0,
                events: Vec::new(),
                return_data: Vec::new(),
            };
            self.receipts.insert(receipt.tx_id, receipt);
        }
    }

    /// Seals a checkpoint when the configured interval has elapsed since
    /// the last one. Pruning itself is deferred to the *next*
    /// [`Blockchain::advance_to`] call (see [`Blockchain::prune_due`]).
    fn maybe_checkpoint(&mut self, height: u64) {
        if !self.storage.is_enabled() {
            return;
        }
        let last = self.checkpoints.last().map_or(0, |cp| cp.height);
        if height - last < self.storage.checkpoint_interval {
            return;
        }
        self.checkpoints.seal(Checkpoint {
            height,
            state_commitment: self.state.commitment(),
            accumulator: self.state.accumulator(),
            event_cursor_floor: self.storage.horizon_after_checkpoint(height, height),
        });
    }

    /// Applies the pruning implied by the last sealed checkpoint: evicts
    /// blocks, events and receipts at or below
    /// `min(checkpoint_height - 1, tip - window)`, so the checkpoint's own
    /// block and the most recent `window` blocks always stay resident.
    ///
    /// Runs at the *start* of `advance_to` — one call behind checkpoint
    /// sealing — so every event sealed in a burst of blocks is readable by
    /// consumers (the sharded merge, oracle polls between driver steps)
    /// before it is evicted.
    fn prune_due(&mut self) {
        if !self.storage.is_enabled() {
            return;
        }
        let Some(cp) = self.checkpoints.last() else {
            return;
        };
        let horizon = self
            .storage
            .horizon_after_checkpoint(cp.height, self.blocks.height());
        if horizon <= self.blocks.prune_horizon() {
            return;
        }
        let evicted = self
            .blocks
            .prune_below(horizon, Block::hash)
            .unwrap_or_else(|e| panic!("archive pruned blocks: {e}"));
        if evicted == 0 {
            return;
        }
        let horizon = self.blocks.prune_horizon();
        let cut = self.event_log.partition_point(|(h, _)| *h <= horizon);
        self.event_log.drain(..cut);
        self.receipts.retain(|_, r| r.block_height > horizon);
    }

    fn execute(
        &mut self,
        signed: &SignedTransaction,
        height: u64,
        timestamp: SimTime,
        proposer_idx: usize,
    ) -> Receipt {
        let tx_id = signed.id();
        let from = signed.tx.from;
        let gas_limit = signed.tx.gas_limit;
        // An overflowing max fee is unpayable by definition; checked so a
        // wrap cannot under-charge (submission rejects these, but the
        // execution layer must not trust the mempool).
        let Some(max_fee) = (gas_limit as Amount).checked_mul(self.gas_price) else {
            return fee_failure_receipt(tx_id, height);
        };
        // Reserve the maximum fee upfront (refund the unused part later).
        if self.state.debit(&from, max_fee).is_err() {
            return fee_failure_receipt(tx_id, height);
        }
        self.state.bump_nonce(&from);

        let mut meter = GasMeter::new(gas_limit, self.gas_schedule.clone());
        let intrinsic = self.gas_schedule.tx_base.saturating_add(
            self.gas_schedule
                .payload_byte
                .saturating_mul(signed.encoded_size() as u64),
        );
        let intrinsic_result = meter.charge(intrinsic);

        let (status, events, return_data, method_label, contract_label) =
            if intrinsic_result.is_err() {
                (
                    TxStatus::OutOfGas,
                    Vec::new(),
                    Vec::new(),
                    self.labels.intern("intrinsic"),
                    None,
                )
            } else {
                match &signed.tx.kind {
                    TxKind::Transfer { to, amount } => {
                        let status = match self.state.debit(&from, *amount) {
                            Ok(()) => {
                                self.state.credit(*to, *amount);
                                TxStatus::Ok
                            }
                            Err(e) => TxStatus::Reverted(e.to_string()),
                        };
                        (
                            status,
                            Vec::new(),
                            Vec::new(),
                            self.labels.intern("transfer"),
                            None,
                        )
                    }
                    TxKind::Call {
                        contract,
                        method,
                        args,
                    } => {
                        let method_sym = self.labels.intern(method);
                        let contract_sym = self.labels.intern(contract.as_str());
                        match self.contracts.get(contract) {
                            None => (
                                TxStatus::Reverted(format!("no contract {contract}")),
                                Vec::new(),
                                Vec::new(),
                                method_sym,
                                Some(contract_sym),
                            ),
                            Some(code) => {
                                // Execute against the canonical state through
                                // a write overlay; apply the buffered effects
                                // only on success. A revert drops them — no
                                // full-state scratch copy per call.
                                let mut ctx = CallCtx::new(
                                    from,
                                    height,
                                    timestamp,
                                    contract.clone(),
                                    &self.state,
                                    &mut meter,
                                );
                                match code.call(&mut ctx, method, args) {
                                    Ok(ret) => {
                                        let events = ctx.into_effects().apply(&mut self.state);
                                        (TxStatus::Ok, events, ret, method_sym, Some(contract_sym))
                                    }
                                    Err(ContractError::OutOfGas) => (
                                        TxStatus::OutOfGas,
                                        Vec::new(),
                                        Vec::new(),
                                        method_sym,
                                        Some(contract_sym),
                                    ),
                                    Err(e) => (
                                        TxStatus::Reverted(e.to_string()),
                                        Vec::new(),
                                        Vec::new(),
                                        method_sym,
                                        Some(contract_sym),
                                    ),
                                }
                            }
                        }
                    }
                }
            };

        // Clamped to the limit: a gas_limit below tx_base would otherwise
        // underflow the refund below (the meter never exceeds its limit,
        // but the tx_base floor can).
        let gas_used = meter.used().max(self.gas_schedule.tx_base).min(gas_limit);
        // Refund unused fee; pay the consumed fee to the proposer.
        let refund = (gas_limit - gas_used) as Amount * self.gas_price;
        self.state.credit(from, refund);
        let proposer_addr = Address::from_public_key(&self.validators[proposer_idx].public());
        self.state
            .credit(proposer_addr, gas_used as Amount * self.gas_price);

        self.gas_ledger.push(GasRecord {
            contract: contract_label,
            method: method_label,
            gas_used,
            ok: status.is_ok(),
            height,
        });

        Receipt {
            tx_id,
            block_height: height,
            status,
            gas_used,
            events: events.into_iter().map(Rc::new).collect(),
            return_data,
        }
    }

    // -------------------------------------------------------------- reads

    /// Chain height (number of blocks ever produced; pruning does not
    /// rewind it).
    pub fn height(&self) -> u64 {
        self.blocks.height()
    }

    /// A block by height (1-based). `None` for height 0, heights above the
    /// tip, and pruned heights — use [`Blockchain::prune_horizon`] to
    /// distinguish the last case.
    pub fn block(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height)
    }

    /// The prune horizon: highest pruned height (`0` = nothing pruned).
    /// Every block and event at or below it has been evicted.
    pub fn prune_horizon(&self) -> u64 {
        self.blocks.prune_horizon()
    }

    /// Number of blocks currently resident in memory.
    pub fn retained_blocks(&self) -> usize {
        self.blocks.retained()
    }

    /// Blocks streamed to the archive so far.
    pub fn archived_blocks(&self) -> u64 {
        self.blocks.archived()
    }

    /// The most recently sealed checkpoint.
    pub fn last_checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoints.last()
    }

    /// Every sealed checkpoint, oldest first.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        self.checkpoints.all()
    }

    /// The retention configuration this chain runs with.
    pub fn storage_config(&self) -> &StorageConfig {
        &self.storage
    }

    /// Verifies every checkpoint whose block is still resident against the
    /// block's sealed state root, and that the latest checkpoint's block is
    /// resident at all (the prune horizon never evicts it). This is the
    /// chaos invariant that a pruned-then-forged history cannot smuggle a
    /// different state past a checkpoint.
    ///
    /// # Errors
    /// A description of the first mismatching checkpoint.
    pub fn verify_checkpoints(&self) -> Result<(), String> {
        for cp in self.checkpoints.all() {
            match self.blocks.get(cp.height) {
                Some(block) => {
                    if block.header.state_root != cp.state_commitment {
                        return Err(format!(
                            "checkpoint at height {} commits {:?} but the sealed block \
                             carries state root {:?}",
                            cp.height, cp.state_commitment, block.header.state_root
                        ));
                    }
                }
                None => {
                    if Some(cp.height) == self.checkpoints.last().map(|c| c.height) {
                        return Err(format!(
                            "latest checkpoint block at height {} was pruned",
                            cp.height
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Mutable block access for tamper-detection tests.
    #[cfg(test)]
    fn block_mut(&mut self, height: u64) -> Option<&mut Block> {
        self.blocks.get_mut(height)
    }

    /// The receipt for a transaction, once included.
    pub fn receipt(&self, id: &TxId) -> Option<&Receipt> {
        self.receipts.get(id)
    }

    /// Events from blocks strictly above `height`, with their heights.
    ///
    /// The event log is appended block-by-block, so it is height-sorted;
    /// a binary search finds the cursor position and the scan starts there
    /// instead of filtering the whole log — oracle polls (pull-in,
    /// push-out) hit this on every round, and an idle poll is O(log n)
    /// instead of O(n).
    pub fn events_since(&self, height: u64) -> impl Iterator<Item = &(u64, Rc<Event>)> {
        self.events_slice_since(height).iter()
    }

    /// The height-sorted tail of the event log strictly above `height`
    /// (the zero-copy form behind [`Blockchain::events_since`] and the
    /// `Ledger` impl). Events are `Rc`-shared: consumers that keep one
    /// clone the pointer, not the payload.
    pub fn events_slice_since(&self, height: u64) -> &[(u64, Rc<Event>)] {
        let start = self.event_log.partition_point(|(h, _)| *h <= height);
        &self.event_log[start..]
    }

    /// Like [`Blockchain::events_slice_since`], but a cursor below the
    /// prune horizon is a typed [`PrunedRange`] error instead of a
    /// silently-incomplete slice: events in `(height, horizon]` are gone,
    /// so the caller must resync from the last checkpoint's
    /// `event_cursor_floor` rather than miss them. A cursor exactly at the
    /// horizon is fine — everything it has yet to read is still resident.
    ///
    /// # Errors
    /// [`PrunedRange`] when `height < prune_horizon`.
    pub fn try_events_slice_since(&self, height: u64) -> Result<&[(u64, Rc<Event>)], PrunedRange> {
        let horizon = self.blocks.prune_horizon();
        if height < horizon {
            return Err(PrunedRange {
                requested: height,
                horizon,
            });
        }
        Ok(self.events_slice_since(height))
    }

    /// Executes a read-only contract call against current state
    /// (free, not part of consensus).
    ///
    /// # Errors
    /// Propagates the contract's error.
    pub fn call_view(
        &self,
        contract: &ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError> {
        let code = self
            .contracts
            .get(contract)
            .ok_or_else(|| ContractError::Reverted(format!("no contract {contract}")))?;
        let mut meter = GasMeter::unmetered();
        let now = self.current_time.max(
            self.blocks
                .last()
                .map(|b| b.header.timestamp)
                .unwrap_or(SimTime::ZERO),
        );
        // Read-only: the context's write overlay is simply dropped, so the
        // canonical state is never copied or touched.
        let mut ctx = CallCtx::new(
            Address::from_seed(b"duc/view"),
            self.height(),
            now,
            contract.clone(),
            &self.state,
            &mut meter,
        );
        code.call(&mut ctx, method, args)
    }

    /// Validates the resident chain structure (signatures, roots, links).
    /// After pruning, validation starts from the store's `base_parent` —
    /// the hash of the last pruned block — so the link across the pruned
    /// boundary is still checked.
    ///
    /// # Errors
    /// The first [`BlockValidationError`] found.
    pub fn validate_chain(&self) -> Result<(), BlockValidationError> {
        let mut parent = self.blocks.base_parent();
        for (_, block) in self.blocks.iter() {
            block.validate()?;
            if block.header.parent != parent {
                return Err(BlockValidationError::BrokenParentLink(block.header.height));
            }
            parent = block.hash();
        }
        Ok(())
    }

    // ------------------------------------------------------- fault control

    /// Marks validator `idx` crashed (misses its slots) or recovered.
    pub fn set_validator_down(&mut self, idx: usize, down: bool) {
        if down {
            self.down_validators.insert(idx);
        } else {
            self.down_validators.remove(&idx);
        }
    }

    /// Number of validators.
    pub fn validator_count(&self) -> usize {
        self.validators.len()
    }

    /// The fee-collection addresses of every validator, in index order —
    /// the single source of truth for gas-conservation audits (gas paid
    /// out always lands on one of these).
    pub fn validator_addresses(&self) -> Vec<Address> {
        self.validators
            .iter()
            .map(|k| Address::from_public_key(&k.public()))
            .collect()
    }

    /// Slots skipped because their proposer was down.
    pub fn slots_missed(&self) -> u64 {
        self.slots_missed
    }

    // ----------------------------------------------------------- metrics

    /// The gas ledger (per-call records) for the affordability reports.
    pub fn gas_ledger(&self) -> &[GasRecord] {
        &self.gas_ledger
    }

    /// Resolves a gas-ledger label symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` did not come from this chain's gas ledger.
    pub fn gas_label(&self, sym: Sym) -> &str {
        self.labels.resolve(sym)
    }

    /// Aggregates the gas ledger by `(contract, method)`:
    /// `(calls, total gas, mean gas)`.
    ///
    /// Aggregation runs entirely on interned label ids (`u32` compares, no
    /// allocation per record); strings materialize once per distinct label
    /// at the report boundary.
    pub fn gas_by_method(&self) -> BTreeMap<(String, String), (u64, u64, u64)> {
        let mut agg: HashMap<(Option<Sym>, Sym), (u64, u64)> = HashMap::new();
        for rec in &self.gas_ledger {
            let entry = agg.entry((rec.contract, rec.method)).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += rec.gas_used;
        }
        agg.into_iter()
            .map(|((contract, method), (calls, total))| {
                let key = (
                    contract
                        .map(|c| self.labels.resolve(c).to_string())
                        .unwrap_or_else(|| "native".to_string()),
                    self.labels.resolve(method).to_string(),
                );
                (key, (calls, total, total.checked_div(calls).unwrap_or(0)))
            })
            .collect()
    }

    /// Storage growth metrics: `(slots, bytes)` (experiment E12).
    pub fn state_size(&self) -> (usize, usize) {
        (
            self.state.storage_slot_count(),
            self.state.storage_byte_size(),
        )
    }

    /// Residency counters of the paged world state (observability only;
    /// exported as `/metrics` gauges and E19 columns).
    pub fn paging_stats(&self) -> PagingStats {
        self.state.paging_stats()
    }

    /// Verifies paged-state integrity: every evicted page must read back
    /// under its digest-verified handle and the decoded whole must
    /// reproduce the commitment accumulator (chaos invariant).
    ///
    /// # Errors
    /// A description of the first violation found.
    pub fn verify_pages(&self) -> Result<(), String> {
        self.state.verify_pages()
    }

    /// The current world-state commitment (what the next sealed block's
    /// `state_root` would carry).
    pub fn state_commitment(&self) -> Digest {
        self.state.commitment()
    }

    /// The gas price.
    pub fn gas_price(&self) -> Amount {
        self.gas_price
    }

    /// The block interval.
    pub fn block_interval(&self) -> SimDuration {
        self.block_interval
    }
}

/// The early-return receipt for a sender that cannot
/// cover the maximum fee (also the overflow case: an overflowing fee is
/// unpayable by definition).
fn fee_failure_receipt(tx_id: TxId, height: u64) -> Receipt {
    Receipt {
        tx_id,
        block_height: height,
        status: TxStatus::Reverted("cannot pay gas".into()),
        gas_used: 0,
        events: Vec::new(),
        return_data: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_codec::{decode_from_slice, encode_to_vec};

    struct Counter;

    impl Contract for Counter {
        fn call(
            &self,
            ctx: &mut CallCtx<'_>,
            method: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "incr" => {
                    let (by,): (u64,) = decode_from_slice(args)?;
                    let current: u64 = ctx.get(b"count")?.unwrap_or(0);
                    ctx.set(b"count".to_vec(), &(current + by))?;
                    ctx.emit("Incr", encode_to_vec(&(current + by,)))?;
                    Ok(encode_to_vec(&(current + by,)))
                }
                "get" => {
                    let current: u64 = ctx.get(b"count")?.unwrap_or(0);
                    Ok(encode_to_vec(&(current,)))
                }
                "boom" => Err(ContractError::Reverted("boom".into())),
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    fn chain_with_counter() -> (Blockchain, KeyPair) {
        let mut chain = Blockchain::builder()
            .validators(3)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 10_000_000);
        (chain, alice)
    }

    #[test]
    fn transfer_moves_funds_and_charges_fees() {
        let (mut chain, alice) = chain_with_counter();
        let bob = Address::from_seed(b"bob");
        let tx = chain.build_transfer(&alice, bob, 1_000).unwrap();
        chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.balance(&bob), 1_000);
        let alice_addr = Address::from_public_key(&alice.public());
        assert!(
            chain.balance(&alice_addr) < 10_000_000 - 1_000,
            "fees charged"
        );
    }

    #[test]
    fn contract_call_executes_and_emits() {
        let (mut chain, alice) = chain_with_counter();
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(7u64,)),
            200_000,
        );
        let id = chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let receipt = chain.receipt(&id).expect("included");
        assert!(receipt.status.is_ok());
        assert_eq!(receipt.events.len(), 1);
        assert!(receipt.gas_used > 21_000);
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn revert_rolls_back_state_but_charges_gas() {
        let (mut chain, alice) = chain_with_counter();
        let tx1 = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx1).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let tx2 = chain.build_call(&alice, ContractId::new("counter"), "boom", vec![], 200_000);
        let id2 = chain.submit(tx2).unwrap();
        chain.advance_to(SimTime::from_secs(4));
        let receipt = chain.receipt(&id2).unwrap();
        assert!(matches!(receipt.status, TxStatus::Reverted(_)));
        assert!(receipt.gas_used > 0);
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 1, "boom did not mutate state");
    }

    #[test]
    fn out_of_gas_reverts() {
        let (mut chain, alice) = chain_with_counter();
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            22_000, // enough intrinsic, not enough for storage
        );
        let id = chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        assert_eq!(chain.receipt(&id).unwrap().status, TxStatus::OutOfGas);
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 0);
    }

    #[test]
    fn submit_rejects_bad_transactions() {
        let (mut chain, alice) = chain_with_counter();
        // Tampered signature.
        let mut tx = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 50_000);
        tx.tx.gas_limit += 1;
        assert_eq!(chain.submit(tx), Err(SubmitError::InvalidSignature));
        // Stale nonce.
        let t1 = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 50_000);
        chain.submit(t1.clone()).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        assert!(matches!(
            chain.submit(t1),
            Err(SubmitError::NonceTooLow { .. })
        ));
        // Unfunded sender.
        let poor = KeyPair::from_seed(b"poor");
        let tx = Transaction {
            from: Address::from_public_key(&poor.public()),
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"x"),
                amount: 1,
            },
            gas_limit: 50_000,
        }
        .sign(&poor);
        assert_eq!(chain.submit(tx), Err(SubmitError::CannotPayGas));
    }

    #[test]
    fn duplicate_nonce_rejected_in_mempool() {
        let (mut chain, alice) = chain_with_counter();
        let t1 = chain.build_call(&alice, ContractId::new("counter"), "get", vec![], 50_000);
        // Build a second tx with the same nonce by constructing manually.
        let t2 = Transaction {
            nonce: t1.tx.nonce,
            ..t1.tx.clone()
        }
        .sign(&alice);
        chain.submit(t1).unwrap();
        assert_eq!(chain.submit(t2), Err(SubmitError::DuplicateNonce));
    }

    #[test]
    fn nonce_sequencing_across_blocks() {
        let (mut chain, alice) = chain_with_counter();
        for _ in 0..5 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(1u64,)),
                200_000,
            );
            chain.submit(tx).unwrap();
        }
        chain.advance_to(SimTime::from_secs(2));
        let out = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 5, "all five sequential-nonce txs executed in one block");
    }

    #[test]
    fn blocks_produced_on_schedule() {
        let (mut chain, alice) = chain_with_counter();
        // No pending work → no blocks, but time advances.
        assert_eq!(chain.advance_to(SimTime::from_secs(10)), 0);
        assert_eq!(chain.current_time(), SimTime::from_secs(10));
        assert_eq!(chain.height(), 0);
        // Work arrives: it is included at the next slot boundary (t = 12 s).
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        assert_eq!(
            chain.advance_to(SimTime::from_secs(11)),
            0,
            "slot not due yet"
        );
        assert_eq!(chain.advance_to(SimTime::from_secs(12)), 1);
        assert_eq!(
            chain.block(1).unwrap().header.timestamp,
            SimTime::from_secs(12)
        );
    }

    #[test]
    fn long_idle_periods_are_cheap() {
        let (mut chain, _) = chain_with_counter();
        // A month of idle time must not seal a million empty blocks.
        chain.advance_to(SimTime::ZERO + SimDuration::from_days(31));
        assert_eq!(chain.height(), 0);
        assert_eq!(
            chain.current_time(),
            SimTime::ZERO + SimDuration::from_days(31)
        );
    }

    #[test]
    fn crashed_proposer_misses_slot() {
        let (mut chain, alice) = chain_with_counter();
        // Validators rotate 1,2,0,1,2,0... (slot k → k mod 3).
        chain.set_validator_down(1, true);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        // Slot 1 (t=2s) belongs to the crashed v1 → missed; slot 2 (t=4s)
        // belongs to v2 → block.
        chain.advance_to(SimTime::from_secs(4));
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.slots_missed(), 1);
        assert_eq!(
            chain.block(1).unwrap().header.timestamp,
            SimTime::from_secs(4)
        );
        chain.set_validator_down(1, false);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(6));
        assert_eq!(chain.height(), 2, "chain is live again");
    }

    #[test]
    fn chain_validates_and_detects_tampering() {
        let (mut chain, alice) = chain_with_counter();
        for i in 0..3 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * (i + 1)));
        }
        assert_eq!(chain.validate_chain(), Ok(()));
        // Tamper with an old block (height-addressed; no raw indexing).
        chain.block_mut(1).unwrap().header.timestamp = SimTime::from_secs(999);
        assert!(chain.validate_chain().is_err());
    }

    #[test]
    fn events_since_filters_by_height() {
        let (mut chain, alice) = chain_with_counter();
        for i in 1..=3u64 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * i));
        }
        assert_eq!(chain.events_since(0).count(), 3);
        assert_eq!(chain.events_since(2).count(), 1);
        assert_eq!(chain.events_since(3).count(), 0);
    }

    #[test]
    fn gas_ledger_aggregates_by_method() {
        let (mut chain, alice) = chain_with_counter();
        for i in 0..4u64 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
        }
        chain.advance_to(SimTime::from_secs(2));
        let agg = chain.gas_by_method();
        let (calls, total, mean) = agg[&("counter".to_string(), "incr".to_string())];
        assert_eq!(calls, 4);
        assert!(total > 0 && mean > 0 && mean <= total);
    }

    #[test]
    fn block_gas_ceiling_defers_transactions() {
        let mut chain = Blockchain::builder()
            .validators(1)
            .max_block_gas(150_000)
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 100_000_000);
        for i in 0..5u64 {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                60_000,
            );
            chain.submit(tx).unwrap();
        }
        chain.advance_to(SimTime::from_secs(2));
        // 150k ceiling / 60k limit → 2 per block.
        assert_eq!(chain.block(1).unwrap().transactions.len(), 2);
        assert_eq!(chain.pending_count(), 3);
        chain.advance_to(SimTime::from_secs(6));
        assert_eq!(chain.pending_count(), 0, "drained over later blocks");
    }

    /// Produces `n` one-tx blocks at 2 s cadence on a chain with the given
    /// storage config, returning the chain.
    fn chain_with_blocks(storage: StorageConfig, n: u64) -> Blockchain {
        let mut chain = Blockchain::builder()
            .validators(3)
            .block_interval(SimDuration::from_secs(2))
            .storage(storage)
            .build();
        chain.deploy(ContractId::new("counter"), Box::new(Counter));
        let alice = chain.create_funded_account(b"alice", 1_000_000_000);
        for i in 1..=n {
            let tx = chain.build_call(
                &alice,
                ContractId::new("counter"),
                "incr",
                encode_to_vec(&(i,)),
                200_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * i));
        }
        chain
    }

    #[test]
    fn checkpoints_seal_on_interval_and_prune_behind() {
        let chain = chain_with_blocks(StorageConfig::enabled(4, 2), 10);
        assert_eq!(chain.height(), 10);
        // Checkpoints seal at heights 4 and 8; pruning lags one advance by
        // design, so the last applied horizon (at the advance that sealed
        // block 10, tip 9 then) is min(8 - 1, 9 - 2) = 7.
        let heights: Vec<u64> = chain.checkpoints().iter().map(|cp| cp.height).collect();
        assert_eq!(heights, vec![4, 8]);
        assert_eq!(chain.prune_horizon(), 7);
        assert_eq!(chain.retained_blocks(), 3);
        // Height addressing survives pruning.
        assert!(chain.block(7).is_none());
        assert_eq!(chain.block(8).unwrap().header.height, 8);
        assert_eq!(chain.block(10).unwrap().header.height, 10);
        // The resident suffix still validates across the pruned boundary.
        assert_eq!(chain.validate_chain(), Ok(()));
        chain.verify_checkpoints().expect("checkpoints consistent");
        // The event log starts above the horizon, and stale cursors get a
        // typed error instead of silently missing pruned events.
        assert!(chain.events_since(0).count() < 10);
        assert!(chain
            .events_since(chain.prune_horizon())
            .all(|(h, _)| *h > 7));
        let err = chain.try_events_slice_since(3).unwrap_err();
        assert_eq!(
            err,
            PrunedRange {
                requested: 3,
                horizon: 7
            }
        );
        assert!(chain.try_events_slice_since(7).is_ok());
        // Receipts for resident blocks survive pruning.
        assert!(chain
            .block(8)
            .unwrap()
            .transactions
            .iter()
            .all(|tx| chain.receipt(&tx.id()).is_some()));
    }

    #[test]
    fn disabled_storage_retains_everything() {
        let chain = chain_with_blocks(StorageConfig::disabled(), 10);
        assert_eq!(chain.prune_horizon(), 0);
        assert_eq!(chain.retained_blocks(), 10);
        assert!(chain.checkpoints().is_empty());
        assert_eq!(chain.events_since(0).count(), 10);
    }

    #[test]
    fn pruned_blocks_stream_to_the_archive() {
        let path = std::env::temp_dir().join(format!(
            "duc-chain-archive-{}-{:p}.bin",
            std::process::id(),
            &SEAL_MARKER
        ));
        std::fs::remove_file(&path).ok();
        let chain = chain_with_blocks(StorageConfig::enabled(4, 2).with_archive(&path), 10);
        assert_eq!(chain.archived_blocks(), 7);
        let frames = duc_storage::FileArchive::read_frames(&path).expect("read archive");
        assert_eq!(frames.len(), 7);
        // Frames decode back to the sealed headers, in height order.
        use duc_codec::Decode as _;
        for (i, frame) in frames.iter().enumerate() {
            let mut r = duc_codec::Reader::new(frame);
            let header = crate::block::BlockHeader::decode(&mut r).expect("header");
            assert_eq!(header.height, i as u64 + 1);
        }
        std::fs::remove_file(&path).ok();
    }

    /// Address anchor for unique temp paths (one per test binary load).
    static SEAL_MARKER: u8 = 0;

    #[test]
    fn view_calls_do_not_mutate() {
        let (mut chain, alice) = chain_with_counter();
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let (s0, _) = chain.state_size();
        let _ = chain
            .call_view(&ContractId::new("counter"), "get", &[])
            .unwrap();
        assert_eq!(chain.state_size().0, s0);
        assert!(chain
            .call_view(&ContractId::new("missing"), "get", &[])
            .is_err());
    }

    #[test]
    fn overflowing_max_fee_is_rejected_not_wrapped() {
        // A gas price high enough that gas_limit × price exceeds u128: the
        // unchecked multiplication used to wrap and drastically under-charge.
        let mut chain = Blockchain::builder()
            .validators(1)
            .gas_price(Amount::MAX / 2)
            .build();
        let alice = chain.create_funded_account(b"alice", Amount::MAX);
        assert_eq!(
            chain
                .build_transfer(&alice, Address::from_seed(b"bob"), 1)
                .unwrap_err(),
            SubmitError::FeeOverflow
        );
        let tx = Transaction {
            from: Address::from_public_key(&alice.public()),
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"bob"),
                amount: 1,
            },
            gas_limit: u64::MAX,
        }
        .sign(&alice);
        assert_eq!(chain.submit(tx), Err(SubmitError::FeeOverflow));
    }

    #[test]
    fn gas_limit_below_tx_base_cannot_underflow_the_refund() {
        // gas_used is floored at tx_base; without the limit clamp the
        // refund `gas_limit - gas_used` would underflow for a tiny limit.
        let (mut chain, alice) = chain_with_counter();
        let addr = Address::from_public_key(&alice.public());
        let before = chain.balance(&addr);
        let tx = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            1_000, // far below the 21k intrinsic base
        );
        let id = chain.submit(tx).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        let receipt = chain.receipt(&id).unwrap();
        assert_eq!(receipt.status, TxStatus::OutOfGas);
        assert_eq!(receipt.gas_used, 1_000, "clamped to the limit");
        assert_eq!(
            chain.balance(&addr),
            before - 1_000 * chain.gas_price(),
            "charged exactly the limit, no refund underflow"
        );
    }

    #[test]
    fn superseded_transactions_get_receipts_on_eviction() {
        let (mut chain, alice) = chain_with_counter();
        let addr = Address::from_public_key(&alice.public());
        let t0 = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        chain.submit(t0).unwrap();
        chain.advance_to(SimTime::from_secs(2));
        // Forge the race a gossiping network produces: a tx whose nonce a
        // just-sealed block consumed reaches this node's mempool (the
        // submit path would reject it, so plant it directly).
        let stale = Transaction {
            from: addr,
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::from_seed(b"x"),
                amount: 5,
            },
            gas_limit: 60_000,
        }
        .sign(&alice);
        let stale_id = stale.id();
        chain.mempool.insert((addr, 0), stale);
        let live = chain.build_call(
            &alice,
            ContractId::new("counter"),
            "incr",
            encode_to_vec(&(1u64,)),
            200_000,
        );
        let live_id = chain.submit(live).unwrap();
        chain.advance_to(SimTime::from_secs(4));
        // The stale entry is evicted with a typed receipt instead of
        // lingering (and starving pollers) forever.
        let receipt = chain.receipt(&stale_id).expect("eviction left a receipt");
        assert_eq!(receipt.status, TxStatus::Superseded);
        assert_eq!(receipt.block_height, 2);
        assert_eq!(receipt.gas_used, 0);
        assert!(chain.receipt(&live_id).unwrap().status.is_ok());
        assert_eq!(chain.pending_count(), 0);
    }

    // ---------------------------------------------------- mixed blocks

    /// A mixed workload (calls on four counters, a same-sender pair on a
    /// shared counter, reverts, out-of-gas, transfers and a mid-block fee
    /// failure) over three blocks. Pins each outcome and the tip hash,
    /// which chains over every block's parent, state root and tx root.
    #[test]
    fn mixed_block_workload_is_pinned() {
        let mut chain = Blockchain::builder()
            .validators(3)
            .block_interval(SimDuration::from_secs(2))
            .gas_price(1)
            .max_block_gas(100_000_000)
            .build();
        for i in 0..4 {
            chain.deploy(ContractId::new(format!("ctr-{i}")), Box::new(Counter));
        }
        let keys: Vec<KeyPair> = (0..6)
            .map(|i| chain.create_funded_account(format!("sender-{i}").as_bytes(), 50_000_000))
            .collect();
        // A sender whose second tx passes admission against the pre-block
        // balance but cannot pay its fee after the first lands.
        let pauper = chain.create_funded_account(b"pauper", 100_000);
        let pauper_addr = Address::from_public_key(&pauper.public());
        let t = chain
            .build_transfer(&pauper, Address::from_seed(b"sink"), 70_000)
            .unwrap();
        let pauper_transfer = chain.submit(t).unwrap();
        let t = chain.build_call(&pauper, ContractId::new("ctr-3"), "get", vec![], 50_000);
        let pauper_call = chain.submit(t).unwrap();
        let (mut pairs, mut booms, mut starved) = (Vec::new(), Vec::new(), Vec::new());
        for round in 0..3u64 {
            let mut first_ctr0 = None;
            for (i, key) in keys.iter().enumerate() {
                let ctr = ContractId::new(format!("ctr-{}", i % 4));
                let tx = chain.build_call(
                    key,
                    ctr,
                    "incr",
                    encode_to_vec(&(i as u64 + round + 1,)),
                    200_000,
                );
                let id = chain.submit(tx).unwrap();
                if i == 0 {
                    first_ctr0 = Some(id);
                }
            }
            // Same-sender pair on a shared counter.
            let tx = chain.build_call(
                &keys[0],
                ContractId::new("ctr-0"),
                "incr",
                encode_to_vec(&(1u64,)),
                200_000,
            );
            pairs.push((first_ctr0.unwrap(), chain.submit(tx).unwrap()));
            // A revert and an out-of-gas, mid-block.
            let tx = chain.build_call(&keys[1], ContractId::new("ctr-1"), "boom", vec![], 200_000);
            booms.push(chain.submit(tx).unwrap());
            let tx = chain.build_call(
                &keys[2],
                ContractId::new("ctr-2"),
                "incr",
                encode_to_vec(&(1u64,)),
                22_000,
            );
            starved.push(chain.submit(tx).unwrap());
            let tx = chain
                .build_transfer(&keys[3], Address::from_seed(b"sink"), 1_000)
                .unwrap();
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * (round + 1)));
        }
        assert_eq!(chain.height(), 3);
        assert_eq!(chain.pending_count(), 0);

        assert!(chain.receipt(&pauper_transfer).unwrap().status.is_ok());
        let fee_fail = chain.receipt(&pauper_call).unwrap();
        assert_eq!(fee_fail.status, TxStatus::Reverted("cannot pay gas".into()));
        assert_eq!(fee_fail.gas_used, 0);
        assert_eq!(
            chain.state.nonce(&pauper_addr),
            1,
            "fee failure bumps no nonce"
        );
        let included: usize = (1..=3)
            .map(|h| chain.block(h).unwrap().transactions.len())
            .sum();
        assert_eq!(
            chain.gas_ledger().len(),
            included - 1,
            "every included tx but the fee failure has a gas row"
        );

        for id in &booms {
            let status = &chain.receipt(id).unwrap().status;
            assert_eq!(*status, TxStatus::Reverted("reverted: boom".into()));
        }
        for id in &starved {
            assert_eq!(chain.receipt(id).unwrap().status, TxStatus::OutOfGas);
        }
        for (h, (first, second)) in (1..=3).zip(&pairs) {
            let (r1, r2) = (
                chain.receipt(first).unwrap(),
                chain.receipt(second).unwrap(),
            );
            assert!(r1.status.is_ok() && r2.status.is_ok());
            assert_eq!((r1.block_height, r2.block_height), (h, h));
            let order = &chain.block(h).unwrap().transactions;
            let pos = |id: &TxId| order.iter().position(|tx| tx.id() == *id).unwrap();
            assert!(
                pos(first) < pos(second),
                "same-sender pair lands in nonce order"
            );
        }

        assert_eq!(
            chain.block(3).unwrap().hash().to_hex(),
            "3ce88398c01d61cf0edf71e740a2cf2d81ea946857e894f743f08fe147533a48"
        );
    }
}
