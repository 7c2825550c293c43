//! The contract runtime.
//!
//! Contracts are Rust types implementing [`Contract`], registered with the
//! chain under a [`ContractId`]. A call is dispatched by method name with
//! `duc-codec`-encoded arguments; the contract reads and writes state only
//! through the [`CallCtx`] (which meters gas), keeping execution
//! deterministic and replayable — the property the blockchain's consensus
//! relies on.

use std::collections::BTreeMap;

use duc_codec::{decode_from_slice, encode_to_vec, Decode, Encode};
use duc_sim::SimTime;

use crate::gas::{GasMeter, OutOfGas};
use crate::state::{InsufficientFunds, WorldState};
use crate::types::{Address, Amount, ContractId};

/// An event emitted during contract execution, recorded in the receipt and
/// the chain's event log (the on-chain half of push-out/pull-in oracles
/// subscribes to these).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The emitting contract.
    pub contract: ContractId,
    /// Topic for subscription filtering (e.g. `"PolicyUpdated"`).
    pub topic: String,
    /// `duc-codec`-encoded payload.
    pub data: Vec<u8>,
}

/// Contract-side failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractError {
    /// The method name is not part of the contract's ABI.
    UnknownMethod(String),
    /// Argument bytes failed to decode.
    BadArguments(String),
    /// The call violated a contract rule (permission, state precondition).
    Reverted(String),
    /// Execution ran out of gas.
    OutOfGas,
}

impl From<OutOfGas> for ContractError {
    fn from(_: OutOfGas) -> Self {
        ContractError::OutOfGas
    }
}

impl From<duc_codec::DecodeError> for ContractError {
    fn from(e: duc_codec::DecodeError) -> Self {
        ContractError::BadArguments(e.to_string())
    }
}

impl std::fmt::Display for ContractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContractError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            ContractError::BadArguments(e) => write!(f, "bad arguments: {e}"),
            ContractError::Reverted(why) => write!(f, "reverted: {why}"),
            ContractError::OutOfGas => f.write_str("out of gas"),
        }
    }
}

impl std::error::Error for ContractError {}

/// Execution context passed to a contract call.
///
/// All state access is gas-metered. Reads see the canonical [`WorldState`]
/// through a private write overlay; writes are buffered in that overlay and
/// only reach the canonical state when the chain applies the call's
/// [`CallEffects`] after a successful return. A revert simply drops the
/// context — nothing to undo, and nothing was copied up front (the previous
/// design cloned the entire state per call, which made execution cost scale
/// with total state size).
pub struct CallCtx<'a> {
    /// The calling account.
    pub caller: Address,
    /// Height of the block being built.
    pub block_height: u64,
    /// Timestamp of the block being built.
    pub block_time: SimTime,
    contract: ContractId,
    base: &'a WorldState,
    /// Buffered storage writes for this contract; `None` marks a deletion.
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Buffered native-token movements from [`CallCtx::transfer_from_caller`].
    balance_deltas: BTreeMap<Address, i128>,
    meter: &'a mut GasMeter,
    events: Vec<Event>,
}

impl<'a> CallCtx<'a> {
    /// Creates a context (used by the chain and by contract unit tests).
    pub fn new(
        caller: Address,
        block_height: u64,
        block_time: SimTime,
        contract: ContractId,
        state: &'a WorldState,
        meter: &'a mut GasMeter,
    ) -> Self {
        CallCtx {
            caller,
            block_height,
            block_time,
            contract,
            base: state,
            writes: BTreeMap::new(),
            balance_deltas: BTreeMap::new(),
            meter,
            events: Vec::new(),
        }
    }

    /// The contract being executed.
    pub fn contract_id(&self) -> &ContractId {
        &self.contract
    }

    /// Reads a raw storage slot (gas-metered).
    ///
    /// # Errors
    /// [`ContractError::OutOfGas`] when the read exhausts the budget.
    pub fn get_raw(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, ContractError> {
        let value = match self.writes.get(key) {
            Some(slot) => slot.clone(),
            None => self.base.storage_get(&self.contract, key),
        };
        self.meter
            .charge_storage_read(value.as_ref().map(Vec::len).unwrap_or(0) + key.len())?;
        Ok(value)
    }

    /// Writes a raw storage slot (gas-metered).
    pub fn set_raw(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<(), ContractError> {
        self.meter.charge_storage_write(key.len() + value.len())?;
        self.writes.insert(key, Some(value));
        Ok(())
    }

    /// Deletes a storage slot (gas-metered); returns whether it existed.
    pub fn remove_raw(&mut self, key: &[u8]) -> Result<bool, ContractError> {
        self.meter.charge_storage_write(key.len())?;
        let existed = match self.writes.insert(key.to_vec(), None) {
            Some(prior) => prior.is_some(),
            None => self.base.storage_contains(&self.contract, key),
        };
        Ok(existed)
    }

    /// Reads and decodes a typed value.
    pub fn get<T: Decode>(&mut self, key: &[u8]) -> Result<Option<T>, ContractError> {
        match self.get_raw(key)? {
            None => Ok(None),
            Some(bytes) => Ok(Some(decode_from_slice(&bytes).map_err(|e| {
                ContractError::Reverted(format!("corrupt storage at {key:?}: {e}"))
            })?)),
        }
    }

    /// Encodes and writes a typed value.
    pub fn set<T: Encode>(&mut self, key: Vec<u8>, value: &T) -> Result<(), ContractError> {
        self.set_raw(key, encode_to_vec(value))
    }

    /// Lists all keys under a prefix (gas: one access per key).
    pub fn keys_with_prefix(&mut self, prefix: &[u8]) -> Result<Vec<Vec<u8>>, ContractError> {
        // Base keys not shadowed by the overlay, plus live overlay keys;
        // sorting restores the order a direct scan of the merged state
        // would produce.
        let mut keys: Vec<Vec<u8>> = Vec::new();
        self.base
            .storage_for_each_prefix(&self.contract, prefix, |k, _| {
                if !self.writes.contains_key(k) {
                    keys.push(k.to_vec());
                }
            });
        for (k, slot) in self.writes.range(prefix.to_vec()..) {
            if !k.starts_with(prefix) {
                break;
            }
            if slot.is_some() {
                keys.push(k.clone());
            }
        }
        keys.sort();
        self.meter.charge_compute(keys.len() as u64 + 1)?;
        Ok(keys)
    }

    /// Emits an event (gas-metered).
    pub fn emit(&mut self, topic: impl Into<String>, data: Vec<u8>) -> Result<(), ContractError> {
        self.meter.charge_event(data.len())?;
        self.events.push(Event {
            contract: self.contract.clone(),
            topic: topic.into(),
            data,
        });
        Ok(())
    }

    /// Charges abstract compute units (contracts call this in loops).
    pub fn charge_compute(&mut self, units: u64) -> Result<(), ContractError> {
        Ok(self.meter.charge_compute(units)?)
    }

    /// The caller's native-token balance.
    pub fn caller_balance(&self) -> Amount {
        self.effective_balance(&self.caller)
    }

    /// An account balance as seen through the overlay.
    fn effective_balance(&self, addr: &Address) -> Amount {
        let base = self.base.balance(addr);
        match self.balance_deltas.get(addr) {
            Some(delta) => (base as i128 + delta) as Amount,
            None => base,
        }
    }

    /// Moves native tokens from the caller to `to` (market payments).
    ///
    /// # Errors
    /// Reverts with [`ContractError::Reverted`] on insufficient balance.
    pub fn transfer_from_caller(
        &mut self,
        to: Address,
        amount: Amount,
    ) -> Result<(), ContractError> {
        self.meter.charge_compute(10)?;
        let available = self.effective_balance(&self.caller);
        if available < amount {
            let err = InsufficientFunds {
                needed: amount,
                available,
            };
            return Err(ContractError::Reverted(err.to_string()));
        }
        *self.balance_deltas.entry(self.caller).or_insert(0) -= amount as i128;
        *self.balance_deltas.entry(to).or_insert(0) += amount as i128;
        Ok(())
    }

    /// The events emitted so far in this call.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the context, returning the buffered effects of the call
    /// (chain-internal; a revert drops the context instead).
    pub fn into_effects(self) -> CallEffects {
        CallEffects {
            contract: self.contract,
            writes: self.writes,
            balance_deltas: self.balance_deltas,
            events: self.events,
        }
    }
}

/// The buffered outcome of a successful contract call: storage writes,
/// balance movements, and emitted events. The chain applies it to the
/// canonical state on success; reverted calls never produce one.
pub struct CallEffects {
    contract: ContractId,
    writes: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    balance_deltas: BTreeMap<Address, i128>,
    events: Vec<Event>,
}

impl CallEffects {
    /// Applies the buffered writes to `state`, returning the emitted events.
    ///
    /// Balance deltas cannot fail here: every debit was checked against the
    /// overlay-effective balance when the transfer was buffered.
    pub fn apply(self, state: &mut WorldState) -> Vec<Event> {
        for (key, slot) in self.writes {
            match slot {
                Some(value) => state.storage_set(&self.contract, key, value),
                None => {
                    state.storage_remove(&self.contract, &key);
                }
            }
        }
        for (addr, delta) in self.balance_deltas {
            match delta.cmp(&0) {
                std::cmp::Ordering::Greater => state.credit(addr, delta as Amount),
                std::cmp::Ordering::Less => state
                    .debit(&addr, delta.unsigned_abs())
                    .expect("buffered debit was balance-checked"),
                std::cmp::Ordering::Equal => {}
            }
        }
        self.events
    }
}

/// A smart contract: deterministic state transitions dispatched by method
/// name.
///
/// Implementations must be pure over `(ctx state, args)` — no interior
/// state, no randomness, no wall-clock — so that every validator replays to
/// the same result.
pub trait Contract {
    /// Handles one call.
    ///
    /// # Errors
    /// Returning any [`ContractError`] reverts the transaction: state
    /// changes are discarded, gas remains charged.
    fn call(
        &self,
        ctx: &mut CallCtx<'_>,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, ContractError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gas::GasSchedule;

    /// A toy counter contract used to exercise the runtime.
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
                    ctx.emit("Incremented", encode_to_vec(&(current + by,)))?;
                    Ok(encode_to_vec(&(current + by,)))
                }
                "get" => {
                    let current: u64 = ctx.get(b"count")?.unwrap_or(0);
                    Ok(encode_to_vec(&(current,)))
                }
                "fail" => Err(ContractError::Reverted("always fails".into())),
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    fn ctx_on<'a>(state: &'a WorldState, meter: &'a mut GasMeter) -> CallCtx<'a> {
        CallCtx::new(
            Address::from_seed(b"caller"),
            1,
            SimTime::from_secs(10),
            ContractId::new("counter"),
            state,
            meter,
        )
    }

    #[test]
    fn call_reads_and_writes_storage() {
        let mut state = WorldState::new();
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        let out = Counter
            .call(&mut ctx, "incr", &encode_to_vec(&(5u64,)))
            .unwrap();
        let (value,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(value, 5);
        assert_eq!(ctx.events().len(), 1);
        assert_eq!(ctx.events()[0].topic, "Incremented");
        // Applying the effects persists the write.
        let events = ctx.into_effects().apply(&mut state);
        assert_eq!(events.len(), 1);
        let mut meter2 = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx2 = ctx_on(&state, &mut meter2);
        let out = Counter.call(&mut ctx2, "get", &[]).unwrap();
        let (value,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(value, 5);
    }

    #[test]
    fn reverted_calls_leave_no_trace_without_apply() {
        let state = WorldState::new();
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        // Write, then pretend the call reverted: dropping the context must
        // leave the canonical state untouched.
        ctx.set_raw(b"count".to_vec(), vec![9]).unwrap();
        assert_eq!(ctx.get_raw(b"count").unwrap(), Some(vec![9]));
        drop(ctx);
        assert!(state
            .storage_get(&ContractId::new("counter"), b"count")
            .is_none());
    }

    #[test]
    fn overlay_shadows_base_for_reads_removals_and_prefix_scans() {
        let mut state = WorldState::new();
        let cid = ContractId::new("counter");
        state.storage_set(&cid, b"idx/1".to_vec(), vec![1]);
        state.storage_set(&cid, b"idx/2".to_vec(), vec![2]);
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        // Overwrite one base key, delete the other, add a fresh one.
        ctx.set_raw(b"idx/1".to_vec(), vec![9]).unwrap();
        assert!(ctx.remove_raw(b"idx/2").unwrap());
        assert!(!ctx.remove_raw(b"idx/2").unwrap()); // already gone
        ctx.set_raw(b"idx/0".to_vec(), vec![0]).unwrap();
        assert_eq!(ctx.get_raw(b"idx/1").unwrap(), Some(vec![9]));
        assert_eq!(ctx.get_raw(b"idx/2").unwrap(), None);
        assert_eq!(
            ctx.keys_with_prefix(b"idx/").unwrap(),
            vec![b"idx/0".to_vec(), b"idx/1".to_vec()]
        );
        ctx.into_effects().apply(&mut state);
        assert_eq!(state.storage_get(&cid, b"idx/1"), Some(vec![9]));
        assert_eq!(state.storage_get(&cid, b"idx/2"), None);
        assert_eq!(state.storage_get(&cid, b"idx/0"), Some(vec![0]));
    }

    #[test]
    fn transfer_from_caller_buffers_and_applies_balance_moves() {
        let mut state = WorldState::new();
        let caller = Address::from_seed(b"caller");
        let payee = Address::from_seed(b"payee");
        state.credit(caller, 100);
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        ctx.transfer_from_caller(payee, 60).unwrap();
        assert_eq!(ctx.caller_balance(), 40);
        // A second transfer sees the buffered debit, not the base balance.
        let err = ctx.transfer_from_caller(payee, 50).unwrap_err();
        assert!(matches!(err, ContractError::Reverted(ref why)
            if why.contains("need 50, have 40")));
        ctx.into_effects().apply(&mut state);
        assert_eq!(state.balance(&caller), 40);
        assert_eq!(state.balance(&payee), 60);
    }

    #[test]
    fn unknown_method_and_bad_args() {
        let state = WorldState::new();
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        assert!(matches!(
            Counter.call(&mut ctx, "nope", &[]),
            Err(ContractError::UnknownMethod(_))
        ));
        assert!(matches!(
            Counter.call(&mut ctx, "incr", &[1, 2]),
            Err(ContractError::BadArguments(_))
        ));
    }

    #[test]
    fn gas_exhaustion_surfaces_as_out_of_gas() {
        let state = WorldState::new();
        let mut meter = GasMeter::new(10, GasSchedule::default()); // hopeless budget
        let mut ctx = ctx_on(&state, &mut meter);
        assert_eq!(
            Counter.call(&mut ctx, "incr", &encode_to_vec(&(1u64,))),
            Err(ContractError::OutOfGas)
        );
    }

    #[test]
    fn typed_storage_detects_corruption() {
        let mut state = WorldState::new();
        state.storage_set(
            &ContractId::new("counter"),
            b"count".to_vec(),
            vec![1, 2, 3],
        );
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        let res: Result<Option<u64>, _> = ctx.get(b"count");
        assert!(matches!(res, Err(ContractError::Reverted(_))));
    }

    #[test]
    fn keys_with_prefix_lists_in_order() {
        let mut state = WorldState::new();
        let cid = ContractId::new("counter");
        state.storage_set(&cid, b"idx/2".to_vec(), vec![]);
        state.storage_set(&cid, b"idx/1".to_vec(), vec![]);
        state.storage_set(&cid, b"other".to_vec(), vec![]);
        let mut meter = GasMeter::new(1_000_000, GasSchedule::default());
        let mut ctx = ctx_on(&state, &mut meter);
        let keys = ctx.keys_with_prefix(b"idx/").unwrap();
        assert_eq!(keys, vec![b"idx/1".to_vec(), b"idx/2".to_vec()]);
    }

    #[test]
    fn error_display() {
        assert!(ContractError::UnknownMethod("m".into())
            .to_string()
            .contains("m"));
        assert!(ContractError::Reverted("why".into())
            .to_string()
            .contains("why"));
        assert_eq!(
            ContractError::from(OutOfGas { limit: 1 }),
            ContractError::OutOfGas
        );
    }
}
