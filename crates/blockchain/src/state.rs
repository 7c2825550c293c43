//! The world state: accounts and a paged contract-slot store.
//!
//! Contract storage is organized as fixed-capacity *pages* — contiguous
//! key ranges per contract, in the style of B-tree leaves — so the
//! resident footprint is bounded by a page cache rather than growing
//! linearly with the population. Cold pages spill through a
//! [`duc_storage::PageStore`] (memory- or file-backed) and fault back in
//! transparently on read; the XOR-multiset commitment accumulator makes
//! this safe, because eviction never touches the commitment and every
//! fault-in re-verifies the page digest.

use std::borrow::Borrow;
use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Included, Unbounded};

use duc_crypto::{hash_parts, Digest};
use duc_storage::{decode_page, encode_page, PageRef, PageStore, PagingConfig};

use crate::types::{Address, Amount, ContractId};

/// One account's ledger entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccountState {
    /// Spendable balance.
    pub balance: Amount,
    /// Next expected transaction nonce.
    pub nonce: u64,
}

// --------------------------------------------------------------- inline key

/// Longest key stored without a heap allocation. DE App hot keys
/// (`pod/{webid}`, `sub/{webid}`, `cert/{digest}`) fit comfortably;
/// composite round/copy keys spill to a boxed slice.
const INLINE_KEY_CAP: usize = 55;

/// A storage key that keeps short keys inline (no per-key heap box).
///
/// Ordering, equality and hashing all delegate to the byte slice, so an
/// `InlineKey` map can be probed with a bare `&[u8]` through [`Borrow`].
#[derive(Clone)]
pub enum InlineKey {
    /// Keys up to [`INLINE_KEY_CAP`] bytes, stored in place.
    Inline {
        /// Number of meaningful bytes in `buf`.
        len: u8,
        /// The key bytes (tail is zero padding).
        buf: [u8; INLINE_KEY_CAP],
    },
    /// Longer keys, boxed.
    Heap(Box<[u8]>),
}

impl InlineKey {
    /// Builds a key from a byte slice.
    #[must_use]
    pub fn from_slice(key: &[u8]) -> InlineKey {
        if key.len() <= INLINE_KEY_CAP {
            let mut buf = [0u8; INLINE_KEY_CAP];
            buf[..key.len()].copy_from_slice(key);
            InlineKey::Inline {
                len: key.len() as u8,
                buf,
            }
        } else {
            InlineKey::Heap(key.into())
        }
    }

    /// The key bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            InlineKey::Inline { len, buf } => &buf[..*len as usize],
            InlineKey::Heap(b) => b,
        }
    }
}

impl Borrow<[u8]> for InlineKey {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for InlineKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for InlineKey {}

impl PartialOrd for InlineKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InlineKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for InlineKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for InlineKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InlineKey({:?})",
            String::from_utf8_lossy(self.as_slice())
        )
    }
}

// ------------------------------------------------------------ paging stats

/// Residency counters for the paged slot store.
///
/// These are *observability* numbers (exported as `/metrics` gauges and
/// E19 columns), never part of replay fingerprints: the fault/eviction
/// pattern depends on the residency budget while the state content — and
/// therefore the commitment — does not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagingStats {
    /// Pages currently decoded in memory.
    pub resident_pages: usize,
    /// Pages in existence (resident + evicted).
    pub total_pages: usize,
    /// Key + value bytes held by resident pages.
    pub resident_bytes: usize,
    /// Pages pushed out of the cache since genesis.
    pub evictions: u64,
    /// Pages decoded back in since genesis.
    pub fault_ins: u64,
    /// Pages spilled to the store (net of compaction rewrites).
    pub spilled_pages: u64,
    /// Live bytes in the spill log.
    pub spilled_live_bytes: u64,
    /// Retired bytes in the spill log awaiting compaction.
    pub spilled_dead_bytes: u64,
    /// Spill-log compaction passes.
    pub compactions: u64,
}

impl PagingStats {
    /// Accumulates another shard's stats into this one.
    pub fn merge(&mut self, other: &PagingStats) {
        self.resident_pages += other.resident_pages;
        self.total_pages += other.total_pages;
        self.resident_bytes += other.resident_bytes;
        self.evictions += other.evictions;
        self.fault_ins += other.fault_ins;
        self.spilled_pages += other.spilled_pages;
        self.spilled_live_bytes += other.spilled_live_bytes;
        self.spilled_dead_bytes += other.spilled_dead_bytes;
        self.compactions += other.compactions;
    }
}

// ------------------------------------------------------------- paged slots

type PageId = u64;

#[derive(Debug)]
enum PageData {
    /// Decoded slots, ordered by key.
    Resident(BTreeMap<InlineKey, Vec<u8>>),
    /// Dropped from memory; `Page::spill` holds the verified handle.
    Evicted,
}

#[derive(Debug)]
struct Page {
    contract: ContractId,
    /// Lowest key this page covers (its directory key). The page owns
    /// `[first, next page's first)` within its contract.
    first: InlineKey,
    data: PageData,
    /// LRU timestamp; `(last_used, id)` is the page's entry in the LRU
    /// index while resident.
    last_used: u64,
    /// A spill-log copy of the page, valid only while the resident data is
    /// clean. Dirtying a page retires the handle immediately, so
    /// `spill.is_some()` ⟺ the log holds the page's current content.
    spill: Option<PageRef>,
}

/// The paged contract-slot store. All mutation goes through
/// [`WorldState`], which keeps the commitment accumulator in sync.
#[derive(Debug)]
struct PagedSlots {
    /// Per-contract page directory: first key → page id.
    dir: BTreeMap<ContractId, BTreeMap<InlineKey, PageId>>,
    pages: HashMap<PageId, Page>,
    /// Resident pages ordered by last use — O(log n) victim selection.
    lru: BTreeSet<(u64, PageId)>,
    next_page: PageId,
    tick: u64,
    /// Maximum slots per page before a median split.
    capacity: usize,
    /// Maximum resident pages (`None` = unbounded).
    limit: Option<usize>,
    resident: usize,
    /// Total slots across all pages (commitment cardinality input).
    slot_count: usize,
    /// Total value bytes across all pages (state-growth metric).
    byte_size: usize,
    store: PageStore,
    evictions: u64,
    fault_ins: u64,
}

impl PagedSlots {
    fn new(capacity: usize, limit: Option<usize>, store: PageStore) -> PagedSlots {
        PagedSlots {
            dir: BTreeMap::new(),
            pages: HashMap::new(),
            lru: BTreeSet::new(),
            next_page: 0,
            tick: 0,
            capacity: capacity.max(1),
            limit,
            resident: 0,
            slot_count: 0,
            byte_size: 0,
            store,
            evictions: 0,
            fault_ins: 0,
        }
    }

    fn from_config(cfg: &PagingConfig) -> PagedSlots {
        let store = match &cfg.spill_dir {
            Some(dir) => PageStore::in_dir(dir).expect("open page spill file"),
            None => PageStore::in_memory(),
        };
        PagedSlots::new(cfg.page_capacity, cfg.resident_limit, store)
    }

    /// The page whose range covers `key`, if any page's range starts at or
    /// below it.
    fn owner_of(&self, contract: &ContractId, key: &[u8]) -> Option<PageId> {
        let dir = self.dir.get(contract)?;
        dir.range::<[u8], _>((Unbounded, Included(key)))
            .next_back()
            .map(|(_, &id)| id)
    }

    fn lru_touch(&mut self, id: PageId) {
        let page = self.pages.get_mut(&id).expect("page exists");
        if matches!(page.data, PageData::Evicted) {
            return;
        }
        self.lru.remove(&(page.last_used, id));
        self.tick += 1;
        page.last_used = self.tick;
        self.lru.insert((self.tick, id));
    }

    /// Decodes an evicted page back into memory, verifying its digest.
    ///
    /// # Panics
    /// A failed read is a state-integrity violation (corrupt page bytes or
    /// a stale handle below the compaction horizon) and deliberately fatal:
    /// silently continuing would fork the replicated state machine.
    fn fault_in(&mut self, id: PageId) {
        let page = self.pages.get_mut(&id).expect("page exists");
        if matches!(page.data, PageData::Resident(_)) {
            return;
        }
        let spill = page.spill.expect("evicted page keeps a spill handle");
        let bytes = self
            .store
            .read(&spill)
            .unwrap_or_else(|e| panic!("paged world state fault-in failed: {e}"));
        let slots = decode_page(&bytes).expect("spilled page decodes");
        let map: BTreeMap<InlineKey, Vec<u8>> = slots
            .into_iter()
            .map(|(k, v)| (InlineKey::from_slice(&k), v))
            .collect();
        let page = self.pages.get_mut(&id).expect("page exists");
        page.data = PageData::Resident(map);
        self.resident += 1;
        self.fault_ins += 1;
        self.lru_touch(id);
    }

    /// Marks a resident page as mutated: its spill-log copy (if any) no
    /// longer matches and is retired on the spot.
    fn dirty(&mut self, id: PageId) {
        let page = self.pages.get_mut(&id).expect("page exists");
        if let Some(spill) = page.spill.take() {
            self.store.retire(&spill);
        }
    }

    /// Spills (if needed) and drops one resident page.
    fn evict(&mut self, id: PageId) {
        let needs_spill = match self.pages.get(&id) {
            Some(page) if matches!(page.data, PageData::Resident(_)) => page.spill.is_none(),
            _ => return,
        };
        if needs_spill {
            let page = self.pages.get(&id).expect("page exists");
            let PageData::Resident(slots) = &page.data else {
                unreachable!("checked resident above")
            };
            let bytes = encode_page(slots.iter().map(|(k, v)| (k.as_slice(), v.as_slice())));
            let spill = self.store.append(&bytes).expect("page spill append");
            self.pages.get_mut(&id).expect("page exists").spill = Some(spill);
        }
        let page = self.pages.get_mut(&id).expect("page exists");
        page.data = PageData::Evicted;
        let last_used = page.last_used;
        self.lru.remove(&(last_used, id));
        self.resident -= 1;
        self.evictions += 1;
    }

    /// Evicts least-recently-used pages until the residency limit holds.
    fn enforce_limit(&mut self) {
        let Some(limit) = self.limit else { return };
        while self.resident > limit {
            let &(_, id) = self.lru.iter().next().expect("resident pages are indexed");
            self.evict(id);
        }
        self.maybe_compact();
    }

    /// Rewrites the spill log once dead weight dominates, refreshing every
    /// live handle. Deterministic directory order keeps file layout
    /// reproducible (not that anything hashes it).
    fn maybe_compact(&mut self) {
        if !self.store.should_compact() {
            return;
        }
        let mut ids = Vec::new();
        let mut refs = Vec::new();
        for dir in self.dir.values() {
            for &id in dir.values() {
                if let Some(spill) = self.pages.get(&id).and_then(|p| p.spill) {
                    ids.push(id);
                    refs.push(spill);
                }
            }
        }
        let fresh = self.store.compact(&refs).expect("page log compaction");
        for (id, spill) in ids.into_iter().zip(fresh) {
            self.pages.get_mut(&id).expect("page exists").spill = Some(spill);
        }
    }

    fn alloc_page(&mut self, contract: ContractId, first: InlineKey) -> PageId {
        let id = self.next_page;
        self.next_page += 1;
        self.tick += 1;
        self.pages.insert(
            id,
            Page {
                contract: contract.clone(),
                first: first.clone(),
                data: PageData::Resident(BTreeMap::new()),
                last_used: self.tick,
                spill: None,
            },
        );
        self.lru.insert((self.tick, id));
        self.resident += 1;
        self.dir.entry(contract).or_default().insert(first, id);
        id
    }

    /// The page that will own `key` after this call: the covering page, or
    /// the contract's lowest page extended downward, or a fresh page.
    fn page_for_insert(&mut self, contract: &ContractId, key: &[u8]) -> PageId {
        if let Some(id) = self.owner_of(contract, key) {
            return id;
        }
        let first_entry = self
            .dir
            .get(contract)
            .and_then(|d| d.iter().next().map(|(k, &id)| (k.clone(), id)));
        match first_entry {
            Some((old_first, id)) => {
                let dir = self.dir.get_mut(contract).expect("contract dir exists");
                dir.remove(&old_first);
                let new_first = InlineKey::from_slice(key);
                dir.insert(new_first.clone(), id);
                self.pages.get_mut(&id).expect("page exists").first = new_first;
                id
            }
            None => self.alloc_page(contract.clone(), InlineKey::from_slice(key)),
        }
    }

    /// Splits a page at its median key once it exceeds capacity.
    fn split_if_over(&mut self, id: PageId) {
        let (contract, mid, upper) = {
            let page = self.pages.get_mut(&id).expect("page exists");
            let PageData::Resident(slots) = &mut page.data else {
                return;
            };
            if slots.len() <= self.capacity {
                return;
            }
            let mid = slots
                .keys()
                .nth(slots.len() / 2)
                .cloned()
                .expect("over-capacity page is nonempty");
            let upper = slots.split_off(&mid);
            (page.contract.clone(), mid, upper)
        };
        let nid = self.next_page;
        self.next_page += 1;
        self.tick += 1;
        self.pages.insert(
            nid,
            Page {
                contract: contract.clone(),
                first: mid.clone(),
                data: PageData::Resident(upper),
                last_used: self.tick,
                spill: None,
            },
        );
        self.lru.insert((self.tick, nid));
        self.resident += 1;
        self.dir
            .get_mut(&contract)
            .expect("contract dir exists")
            .insert(mid, nid);
    }

    fn insert(&mut self, contract: &ContractId, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        let id = self.page_for_insert(contract, key);
        self.fault_in(id);
        self.dirty(id);
        let value_len = value.len();
        let page = self.pages.get_mut(&id).expect("page exists");
        let PageData::Resident(slots) = &mut page.data else {
            unreachable!("faulted in above")
        };
        let prev = slots.insert(InlineKey::from_slice(key), value);
        match &prev {
            Some(old) => self.byte_size = self.byte_size - old.len() + value_len,
            None => {
                self.slot_count += 1;
                self.byte_size += value_len;
            }
        }
        self.lru_touch(id);
        self.split_if_over(id);
        self.enforce_limit();
        prev
    }

    fn remove(&mut self, contract: &ContractId, key: &[u8]) -> Option<Vec<u8>> {
        let id = self.owner_of(contract, key)?;
        self.fault_in(id);
        let page = self.pages.get_mut(&id).expect("page exists");
        let PageData::Resident(slots) = &mut page.data else {
            unreachable!("faulted in above")
        };
        if !slots.contains_key(key) {
            self.lru_touch(id);
            return None;
        }
        self.dirty(id);
        let page = self.pages.get_mut(&id).expect("page exists");
        let PageData::Resident(slots) = &mut page.data else {
            unreachable!("faulted in above")
        };
        let prev = slots.remove(key).expect("checked present");
        self.slot_count -= 1;
        self.byte_size -= prev.len();
        if slots.is_empty() {
            let first = page.first.clone();
            let contract = page.contract.clone();
            let last_used = page.last_used;
            if let Some(spill) = page.spill.take() {
                self.store.retire(&spill);
            }
            self.pages.remove(&id);
            self.lru.remove(&(last_used, id));
            self.resident -= 1;
            let dir = self.dir.get_mut(&contract).expect("contract dir exists");
            dir.remove(&first);
            if dir.is_empty() {
                self.dir.remove(&contract);
            }
        } else {
            self.lru_touch(id);
        }
        self.maybe_compact();
        Some(prev)
    }

    fn get(&mut self, contract: &ContractId, key: &[u8]) -> Option<Vec<u8>> {
        let id = self.owner_of(contract, key)?;
        self.fault_in(id);
        let page = self.pages.get(&id).expect("page exists");
        let PageData::Resident(slots) = &page.data else {
            unreachable!("faulted in above")
        };
        let value = slots.get(key).cloned();
        self.lru_touch(id);
        self.enforce_limit();
        value
    }

    fn contains(&mut self, contract: &ContractId, key: &[u8]) -> bool {
        let Some(id) = self.owner_of(contract, key) else {
            return false;
        };
        self.fault_in(id);
        let page = self.pages.get(&id).expect("page exists");
        let PageData::Resident(slots) = &page.data else {
            unreachable!("faulted in above")
        };
        let hit = slots.contains_key(key);
        self.lru_touch(id);
        self.enforce_limit();
        hit
    }

    /// Visits `contract`'s slots whose keys start with `prefix`, in key
    /// order, faulting in only pages whose range can intersect the prefix.
    fn for_each_prefix(
        &mut self,
        contract: &ContractId,
        prefix: &[u8],
        f: &mut dyn FnMut(&[u8], &[u8]),
    ) {
        let Some(dir) = self.dir.get(contract) else {
            return;
        };
        let mut ids: Vec<PageId> = Vec::new();
        if let Some((_, &id)) = dir
            .range::<[u8], _>((Unbounded, Included(prefix)))
            .next_back()
        {
            ids.push(id);
        }
        for (first, &id) in dir.range::<[u8], _>((Excluded(prefix), Unbounded)) {
            // A page starting past the prefix range cannot hold matching
            // keys (they would sort below its first key) — stop without
            // faulting it in.
            if !first.as_slice().starts_with(prefix) {
                break;
            }
            ids.push(id);
        }
        for id in ids {
            self.fault_in(id);
            let page = self.pages.get(&id).expect("page exists");
            let PageData::Resident(slots) = &page.data else {
                unreachable!("faulted in above")
            };
            for (k, v) in slots.range::<[u8], _>((Included(prefix), Unbounded)) {
                if !k.as_slice().starts_with(prefix) {
                    break;
                }
                f(k.as_slice(), v.as_slice());
            }
            self.lru_touch(id);
            self.enforce_limit();
        }
    }

    fn stats(&self) -> PagingStats {
        let resident_bytes = self
            .pages
            .values()
            .filter_map(|p| match &p.data {
                PageData::Resident(slots) => Some(
                    slots
                        .iter()
                        .map(|(k, v)| k.as_slice().len() + v.len())
                        .sum::<usize>(),
                ),
                PageData::Evicted => None,
            })
            .sum();
        PagingStats {
            resident_pages: self.resident,
            total_pages: self.pages.len(),
            resident_bytes,
            evictions: self.evictions,
            fault_ins: self.fault_ins,
            spilled_pages: self.store.appended(),
            spilled_live_bytes: self.store.live_bytes(),
            spilled_dead_bytes: self.store.dead_bytes(),
            compactions: self.store.compactions(),
        }
    }

    /// Full integrity sweep: every evicted page must read back under its
    /// verified handle (no stale or compacted-away page is reachable), the
    /// directory must partition each contract's key space, and the decoded
    /// whole must reproduce the maintained counters and the caller's
    /// accumulator exactly.
    fn verify(
        &mut self,
        accounts: &BTreeMap<Address, AccountState>,
        acc: &[u8; 32],
    ) -> Result<(), String> {
        let mut recomputed = [0u8; 32];
        for (addr, account) in accounts {
            xor_row(&mut recomputed, &account_row(addr, account));
        }
        let mut slot_count = 0usize;
        let mut byte_size = 0usize;
        let PagedSlots {
            dir, pages, store, ..
        } = self;
        for (contract, cdir) in dir.iter() {
            let mut prev_last: Option<InlineKey> = None;
            for (first, id) in cdir.iter() {
                let page = pages
                    .get(id)
                    .ok_or_else(|| format!("directory references missing page {id}"))?;
                if page.first != *first {
                    return Err(format!("page {id} first-key desynced from directory"));
                }
                let decoded;
                let slots: Vec<(&[u8], &[u8])> = match &page.data {
                    PageData::Resident(slots) => slots
                        .iter()
                        .map(|(k, v)| (k.as_slice(), v.as_slice()))
                        .collect(),
                    PageData::Evicted => {
                        let spill = page
                            .spill
                            .ok_or_else(|| format!("evicted page {id} lost its spill handle"))?;
                        let bytes = store
                            .read(&spill)
                            .map_err(|e| format!("page {id} unreadable: {e}"))?;
                        decoded = decode_page(&bytes)
                            .map_err(|e| format!("page {id} undecodable: {e}"))?;
                        decoded.iter().map(|(k, v)| (&k[..], &v[..])).collect()
                    }
                };
                if let Some((lowest, _)) = slots.first() {
                    if *lowest < first.as_slice() {
                        return Err(format!("page {id} holds a key below its first key"));
                    }
                    if let Some(prev) = &prev_last {
                        if prev.as_slice() >= first.as_slice() {
                            return Err(format!("page {id} range overlaps its predecessor"));
                        }
                    }
                }
                for (k, v) in &slots {
                    xor_row(&mut recomputed, &storage_row(contract, k, v));
                    slot_count += 1;
                    byte_size += v.len();
                }
                if let Some((last, _)) = slots.last() {
                    prev_last = Some(InlineKey::from_slice(last));
                }
            }
        }
        if slot_count != self.slot_count {
            return Err(format!(
                "slot count desynced: maintained {} vs actual {slot_count}",
                self.slot_count
            ));
        }
        if byte_size != self.byte_size {
            return Err(format!(
                "byte size desynced: maintained {} vs actual {byte_size}",
                self.byte_size
            ));
        }
        if recomputed != *acc {
            return Err("commitment accumulator diverges from page contents".to_string());
        }
        Ok(())
    }

    /// A fully-resident deep copy with its own fresh spill log. Evicted
    /// pages are decoded read-through (the source's residency is
    /// untouched); the copy then enforces its own limit.
    fn clone_materialized(&mut self) -> PagedSlots {
        let store = self
            .store
            .fresh_like()
            .unwrap_or_else(|_| PageStore::in_memory());
        let mut out = PagedSlots::new(self.capacity, self.limit, store);
        out.next_page = self.next_page;
        let PagedSlots {
            dir, pages, store, ..
        } = self;
        for (contract, cdir) in dir.iter() {
            let mut out_dir = BTreeMap::new();
            for (first, id) in cdir.iter() {
                let page = pages.get(id).expect("directory references live pages");
                let slots: BTreeMap<InlineKey, Vec<u8>> = match &page.data {
                    PageData::Resident(slots) => slots.clone(),
                    PageData::Evicted => {
                        let spill = page.spill.expect("evicted page keeps a spill handle");
                        let bytes = store
                            .read(&spill)
                            .unwrap_or_else(|e| panic!("paged state clone failed: {e}"));
                        decode_page(&bytes)
                            .expect("spilled page decodes")
                            .into_iter()
                            .map(|(k, v)| (InlineKey::from_slice(&k), v))
                            .collect()
                    }
                };
                out.tick += 1;
                out.byte_size += slots.values().map(Vec::len).sum::<usize>();
                out.slot_count += slots.len();
                out.pages.insert(
                    *id,
                    Page {
                        contract: contract.clone(),
                        first: first.clone(),
                        data: PageData::Resident(slots),
                        last_used: out.tick,
                        spill: None,
                    },
                );
                out.lru.insert((out.tick, *id));
                out.resident += 1;
                out_dir.insert(first.clone(), *id);
            }
            out.dir.insert(contract.clone(), out_dir);
        }
        out.enforce_limit();
        out
    }
}

// -------------------------------------------------------------- world state

/// The replicated state machine's state: account balances/nonces plus a
/// paged key/value store per contract.
///
/// Ordered pages keep iteration deterministic, and every mutator keeps the
/// commitment accumulator in sync so [`WorldState::commitment`] — which
/// block state roots depend on — stays O(1) in the state size. Reads go
/// through a `RefCell` because a read may *fault in* an evicted page (and
/// evict another).
#[derive(Debug)]
pub struct WorldState {
    accounts: BTreeMap<Address, AccountState>,
    slots: RefCell<PagedSlots>,
    /// XOR multiset of per-row digests (one row per account, one per
    /// storage slot). XOR is commutative and self-inverse, so replacing a
    /// row is "XOR out the old, XOR in the new" and the accumulator always
    /// equals the XOR over the *current* rows, independent of history —
    /// which is exactly what a state commitment must hash. Maintaining it
    /// incrementally keeps block sealing from walking the full state, and
    /// makes paging invisible to commitments: eviction moves bytes, not
    /// rows.
    acc: [u8; 32],
}

/// Folds one row digest into (or out of) the accumulator.
fn xor_row(acc: &mut [u8; 32], row: &Digest) {
    for (a, b) in acc.iter_mut().zip(row.as_bytes()) {
        *a ^= b;
    }
}

/// The commitment row for one account (domain-separated from slot rows).
fn account_row(addr: &Address, acct: &AccountState) -> Digest {
    hash_parts(&[
        b"duc/state/acct",
        addr.0.as_bytes(),
        &acct.balance.to_le_bytes(),
        &acct.nonce.to_le_bytes(),
    ])
}

/// The commitment row for one storage slot.
fn storage_row(contract: &ContractId, key: &[u8], value: &[u8]) -> Digest {
    hash_parts(&[b"duc/state/slot", contract.0.as_bytes(), key, value])
}

impl WorldState {
    /// Empty state: always paged, unbounded residency, in-memory spill —
    /// behaviour (commitments, iteration order, gas) is byte-identical to
    /// any other cache size.
    pub fn new() -> WorldState {
        WorldState::with_paging(&PagingConfig::default())
    }

    /// Empty state with explicit paging knobs.
    pub fn with_paging(cfg: &PagingConfig) -> WorldState {
        WorldState {
            accounts: BTreeMap::new(),
            slots: RefCell::new(PagedSlots::from_config(cfg)),
            acc: [0u8; 32],
        }
    }

    fn slots_mut(&mut self) -> &mut PagedSlots {
        self.slots.get_mut()
    }

    fn slots_shared(&self) -> RefMut<'_, PagedSlots> {
        self.slots.borrow_mut()
    }

    /// The account entry (default zero for unknown addresses).
    pub fn account(&self, addr: &Address) -> AccountState {
        self.accounts.get(addr).copied().unwrap_or_default()
    }

    /// Current balance.
    pub fn balance(&self, addr: &Address) -> Amount {
        self.account(addr).balance
    }

    /// Current nonce.
    pub fn nonce(&self, addr: &Address) -> u64 {
        self.account(addr).nonce
    }

    /// Applies `mutate` to `addr`'s account entry (created on first touch),
    /// keeping the commitment accumulator in sync.
    fn with_account(&mut self, addr: &Address, mutate: impl FnOnce(&mut AccountState)) {
        if let Some(prev) = self.accounts.get(addr) {
            let old = account_row(addr, prev);
            xor_row(&mut self.acc, &old);
        }
        let entry = self.accounts.entry(*addr).or_default();
        mutate(entry);
        let new = account_row(addr, entry);
        xor_row(&mut self.acc, &new);
    }

    /// Credits an account (used by genesis funding and fee redistribution).
    pub fn credit(&mut self, addr: Address, amount: Amount) {
        self.with_account(&addr, |a| a.balance += amount);
    }

    /// Debits an account.
    ///
    /// # Errors
    /// Returns `Err(())` without mutating on insufficient balance.
    pub fn debit(&mut self, addr: &Address, amount: Amount) -> Result<(), InsufficientFunds> {
        let available = self.balance(addr);
        if available < amount {
            return Err(InsufficientFunds {
                needed: amount,
                available,
            });
        }
        self.with_account(addr, |a| a.balance -= amount);
        Ok(())
    }

    /// Increments an account's nonce.
    pub fn bump_nonce(&mut self, addr: &Address) {
        self.with_account(addr, |a| a.nonce += 1);
    }

    /// Reads a contract storage slot. Owned because the slot may live on
    /// an evicted page that is decoded (and possibly re-evicted) on the
    /// way — there is no stable buffer to borrow from.
    pub fn storage_get(&self, contract: &ContractId, key: &[u8]) -> Option<Vec<u8>> {
        self.slots_shared().get(contract, key)
    }

    /// Whether a contract storage slot exists (no value clone).
    pub fn storage_contains(&self, contract: &ContractId, key: &[u8]) -> bool {
        self.slots_shared().contains(contract, key)
    }

    /// Writes a contract storage slot.
    pub fn storage_set(&mut self, contract: &ContractId, key: Vec<u8>, value: Vec<u8>) {
        let new = storage_row(contract, &key, &value);
        let prev = self.slots_mut().insert(contract, &key, value);
        if let Some(prev) = prev {
            let old = storage_row(contract, &key, &prev);
            xor_row(&mut self.acc, &old);
        }
        xor_row(&mut self.acc, &new);
    }

    /// Deletes a contract storage slot; returns whether it existed.
    pub fn storage_remove(&mut self, contract: &ContractId, key: &[u8]) -> bool {
        match self.slots_mut().remove(contract, key) {
            Some(prev) => {
                let old = storage_row(contract, key, &prev);
                xor_row(&mut self.acc, &old);
                true
            }
            None => false,
        }
    }

    /// Visits a contract's slots whose keys start with `prefix`, in key
    /// order (contracts build indexes on ordered key prefixes). Callback
    /// style because pages may fault in and out during the walk; only
    /// pages whose range can intersect the prefix are touched.
    pub fn storage_for_each_prefix(
        &self,
        contract: &ContractId,
        prefix: &[u8],
        mut f: impl FnMut(&[u8], &[u8]),
    ) {
        self.slots_shared()
            .for_each_prefix(contract, prefix, &mut f);
    }

    /// Collects keys under a prefix (convenience over
    /// [`WorldState::storage_for_each_prefix`]).
    pub fn storage_keys_with_prefix(&self, contract: &ContractId, prefix: &[u8]) -> Vec<Vec<u8>> {
        let mut keys = Vec::new();
        self.storage_for_each_prefix(contract, prefix, |k, _| keys.push(k.to_vec()));
        keys
    }

    /// Number of storage slots across all contracts (state-growth metric,
    /// experiment E12). Maintained incrementally — O(1).
    pub fn storage_slot_count(&self) -> usize {
        self.slots_shared().slot_count
    }

    /// Total bytes held in storage values (state-growth metric). Maintained
    /// incrementally — O(1).
    pub fn storage_byte_size(&self) -> usize {
        self.slots_shared().byte_size
    }

    /// Residency counters for the paged slot store (observability only;
    /// never folded into replay fingerprints).
    pub fn paging_stats(&self) -> PagingStats {
        self.slots_shared().stats()
    }

    /// Verifies page-store integrity: every evicted page reads back under
    /// its digest-verified handle, page ranges partition the key space,
    /// and the decoded whole reproduces the commitment accumulator. Does
    /// not change residency.
    ///
    /// # Errors
    /// A human-readable description of the first violation found.
    pub fn verify_pages(&self) -> Result<(), String> {
        let accounts = &self.accounts;
        let acc = self.acc;
        self.slots_shared().verify(accounts, &acc)
    }

    /// A digest committing to the entire state (accounts + storage).
    ///
    /// Reads the incrementally-maintained accumulator, so sealing a block
    /// costs O(1) regardless of how many accounts and slots exist. The
    /// entry counts are folded in so states whose accumulators collide by
    /// row-set size manipulation still separate on cardinality.
    pub fn commitment(&self) -> Digest {
        hash_parts(&[
            b"duc/state",
            &self.acc,
            &(self.accounts.len() as u64).to_le_bytes(),
            &(self.storage_slot_count() as u64).to_le_bytes(),
        ])
    }

    /// The raw XOR-multiset accumulator behind [`WorldState::commitment`].
    ///
    /// Checkpoints persist this so a restored store can resume incremental
    /// maintenance without replaying history.
    pub fn accumulator(&self) -> [u8; 32] {
        self.acc
    }
}

impl Default for WorldState {
    fn default() -> Self {
        WorldState::new()
    }
}

impl Clone for WorldState {
    /// Deep copy: the clone materializes every page into its own fresh
    /// spill log (then re-applies its residency limit), so the two states
    /// evolve — and compact — fully independently.
    fn clone(&self) -> Self {
        WorldState {
            accounts: self.accounts.clone(),
            slots: RefCell::new(self.slots_shared().clone_materialized()),
            acc: self.acc,
        }
    }
}

/// Debit failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsufficientFunds {
    /// Amount requested.
    pub needed: Amount,
    /// Amount available.
    pub available: Amount,
}

impl std::fmt::Display for InsufficientFunds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "insufficient funds: need {}, have {}",
            self.needed, self.available
        )
    }
}

impl std::error::Error for InsufficientFunds {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid() -> ContractId {
        ContractId::new("dex")
    }

    fn collect_prefix(
        s: &WorldState,
        contract: &ContractId,
        prefix: &[u8],
    ) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        s.storage_for_each_prefix(contract, prefix, |k, v| out.push((k.to_vec(), v.to_vec())));
        out
    }

    #[test]
    fn unknown_accounts_are_zero() {
        let s = WorldState::new();
        let a = Address::from_seed(b"a");
        assert_eq!(s.balance(&a), 0);
        assert_eq!(s.nonce(&a), 0);
    }

    #[test]
    fn credit_debit_and_nonce() {
        let mut s = WorldState::new();
        let a = Address::from_seed(b"a");
        s.credit(a, 100);
        assert_eq!(s.balance(&a), 100);
        s.debit(&a, 40).unwrap();
        assert_eq!(s.balance(&a), 60);
        let err = s.debit(&a, 100).unwrap_err();
        assert_eq!(
            err,
            InsufficientFunds {
                needed: 100,
                available: 60
            }
        );
        assert_eq!(s.balance(&a), 60, "failed debit does not mutate");
        s.bump_nonce(&a);
        s.bump_nonce(&a);
        assert_eq!(s.nonce(&a), 2);
    }

    #[test]
    fn storage_crud() {
        let mut s = WorldState::new();
        assert!(s.storage_get(&cid(), b"k").is_none());
        assert!(!s.storage_contains(&cid(), b"k"));
        s.storage_set(&cid(), b"k".to_vec(), b"v1".to_vec());
        assert_eq!(s.storage_get(&cid(), b"k").unwrap(), b"v1");
        assert!(s.storage_contains(&cid(), b"k"));
        s.storage_set(&cid(), b"k".to_vec(), b"v2".to_vec());
        assert_eq!(s.storage_get(&cid(), b"k").unwrap(), b"v2");
        assert!(s.storage_remove(&cid(), b"k"));
        assert!(!s.storage_remove(&cid(), b"k"));
        assert!(s.storage_get(&cid(), b"k").is_none());
    }

    #[test]
    fn storage_is_namespaced_per_contract() {
        let mut s = WorldState::new();
        let other = ContractId::new("other");
        s.storage_set(&cid(), b"k".to_vec(), b"dex".to_vec());
        s.storage_set(&other, b"k".to_vec(), b"other".to_vec());
        assert_eq!(s.storage_get(&cid(), b"k").unwrap(), b"dex");
        assert_eq!(s.storage_get(&other, b"k").unwrap(), b"other");
    }

    #[test]
    fn prefix_iteration_is_ordered_and_bounded() {
        let mut s = WorldState::new();
        s.storage_set(&cid(), b"res/b".to_vec(), b"2".to_vec());
        s.storage_set(&cid(), b"res/a".to_vec(), b"1".to_vec());
        s.storage_set(&cid(), b"res/c".to_vec(), b"3".to_vec());
        s.storage_set(&cid(), b"pod/x".to_vec(), b"x".to_vec());
        s.storage_set(&ContractId::new("zz"), b"res/z".to_vec(), b"z".to_vec());
        assert_eq!(
            collect_prefix(&s, &cid(), b"res/"),
            vec![
                (b"res/a".to_vec(), b"1".to_vec()),
                (b"res/b".to_vec(), b"2".to_vec()),
                (b"res/c".to_vec(), b"3".to_vec()),
            ]
        );
        assert_eq!(
            s.storage_keys_with_prefix(&cid(), b"res/"),
            vec![b"res/a".to_vec(), b"res/b".to_vec(), b"res/c".to_vec()]
        );
    }

    #[test]
    fn size_metrics() {
        let mut s = WorldState::new();
        s.storage_set(&cid(), b"a".to_vec(), vec![0; 10]);
        s.storage_set(&cid(), b"b".to_vec(), vec![0; 20]);
        assert_eq!(s.storage_slot_count(), 2);
        assert_eq!(s.storage_byte_size(), 30);
        s.storage_set(&cid(), b"a".to_vec(), vec![0; 4]);
        assert_eq!(s.storage_byte_size(), 24);
        s.storage_remove(&cid(), b"b");
        assert_eq!(s.storage_slot_count(), 1);
        assert_eq!(s.storage_byte_size(), 4);
    }

    #[test]
    fn commitment_changes_with_state() {
        let mut s = WorldState::new();
        let c0 = s.commitment();
        s.credit(Address::from_seed(b"a"), 1);
        let c1 = s.commitment();
        assert_ne!(c0, c1);
        s.storage_set(&cid(), b"k".to_vec(), b"v".to_vec());
        let c2 = s.commitment();
        assert_ne!(c1, c2);
        // Identical state → identical commitment.
        let mut t = WorldState::new();
        t.credit(Address::from_seed(b"a"), 1);
        t.storage_set(&cid(), b"k".to_vec(), b"v".to_vec());
        assert_eq!(t.commitment(), c2);
    }

    #[test]
    fn commitment_is_content_addressed_not_history_addressed() {
        // The incremental accumulator must converge to the same digest as a
        // state built directly with the final content, whatever the
        // mutation order and however many overwrites/removals happened on
        // the way there.
        let a = Address::from_seed(b"a");
        let b = Address::from_seed(b"b");
        let mut s = WorldState::new();
        s.credit(a, 5);
        s.credit(b, 7);
        s.storage_set(&cid(), b"k".to_vec(), b"old".to_vec());
        s.storage_set(&cid(), b"k".to_vec(), b"new".to_vec());
        s.storage_set(&cid(), b"gone".to_vec(), b"x".to_vec());
        assert!(s.storage_remove(&cid(), b"gone"));

        let mut t = WorldState::new();
        t.storage_set(&cid(), b"k".to_vec(), b"new".to_vec());
        t.credit(b, 7);
        t.credit(a, 2);
        t.credit(a, 3);
        assert_eq!(s.commitment(), t.commitment());

        // A clone diverges once either side mutates.
        let u = s.clone();
        assert_eq!(u.commitment(), s.commitment());
        s.bump_nonce(&a);
        assert_ne!(u.commitment(), s.commitment());
    }

    #[test]
    fn inline_key_keeps_short_keys_inline_and_delegates_ordering() {
        let short = InlineKey::from_slice(b"pod/https://p1.id/me");
        assert!(matches!(short, InlineKey::Inline { .. }));
        let long = InlineKey::from_slice(&[b'x'; 80]);
        assert!(matches!(long, InlineKey::Heap(_)));
        assert_eq!(short.as_slice(), b"pod/https://p1.id/me");
        assert_eq!(long.as_slice(), &[b'x'; 80][..]);
        let a = InlineKey::from_slice(b"a");
        let b = InlineKey::from_slice(&[b'b'; 70]);
        assert!(a < b, "ordering crosses the inline/heap boundary");
        assert_eq!(a, InlineKey::from_slice(b"a"));
    }

    /// Interleaved writes/overwrites/removes/scans on paged states at
    /// several cache sizes (including 0) must match the unbounded store
    /// slot-for-slot and commitment-for-commitment.
    #[test]
    fn paged_state_is_byte_identical_across_cache_sizes() {
        let tiny = PagingConfig::in_memory(None).with_page_capacity(4);
        let apply = |s: &mut WorldState| {
            for i in 0..200u32 {
                let key = format!("pod/https://p{}.id/me", i % 60).into_bytes();
                s.storage_set(&cid(), key, i.to_le_bytes().to_vec());
                if i % 3 == 0 {
                    let gone = format!("pod/https://p{}.id/me", (i / 3) % 60).into_bytes();
                    s.storage_remove(&cid(), &gone);
                }
                if i % 7 == 0 {
                    s.storage_set(&ContractId::new("other"), vec![i as u8], vec![i as u8; 9]);
                }
            }
        };
        let mut baseline = WorldState::with_paging(&tiny);
        apply(&mut baseline);
        for limit in [0usize, 1, 2, 7] {
            let cfg = PagingConfig {
                resident_limit: Some(limit),
                ..tiny.clone()
            };
            let mut paged = WorldState::with_paging(&cfg);
            apply(&mut paged);
            assert_eq!(paged.commitment(), baseline.commitment(), "limit {limit}");
            assert_eq!(paged.storage_slot_count(), baseline.storage_slot_count());
            assert_eq!(paged.storage_byte_size(), baseline.storage_byte_size());
            assert_eq!(
                collect_prefix(&paged, &cid(), b"pod/"),
                collect_prefix(&baseline, &cid(), b"pod/"),
                "limit {limit}"
            );
            paged.verify_pages().expect("page integrity");
            let stats = paged.paging_stats();
            assert!(stats.resident_pages <= limit.max(1));
            assert!(stats.evictions > 0, "bounded cache evicts");
            assert!(stats.fault_ins > 0, "reads fault pages back in");
        }
        let stats = baseline.paging_stats();
        assert_eq!(stats.evictions, 0, "unbounded cache never evicts");
        assert_eq!(stats.resident_pages, stats.total_pages);
        baseline.verify_pages().expect("page integrity");
    }

    #[test]
    fn file_backed_paging_round_trips_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("duc-paged-state-{}", std::process::id()));
        let cfg = PagingConfig::in_memory(Some(1))
            .with_page_capacity(3)
            .with_spill_dir(&dir);
        let mut s = WorldState::with_paging(&cfg);
        for i in 0..40u8 {
            s.storage_set(&cid(), vec![b'k', i], vec![i; 16]);
        }
        for i in 0..40u8 {
            assert_eq!(s.storage_get(&cid(), &[b'k', i]).unwrap(), vec![i; 16]);
        }
        s.verify_pages().expect("page integrity");
        let stats = s.paging_stats();
        assert!(stats.spilled_live_bytes > 0, "cold pages hit the file");
        assert!(stats.resident_pages <= 1);
    }

    #[test]
    fn paged_clone_is_independent() {
        let cfg = PagingConfig::in_memory(Some(1)).with_page_capacity(2);
        let mut s = WorldState::with_paging(&cfg);
        for i in 0..20u8 {
            s.storage_set(&cid(), vec![i], vec![i]);
        }
        let t = s.clone();
        assert_eq!(t.commitment(), s.commitment());
        t.verify_pages().expect("clone integrity");
        s.storage_remove(&cid(), &[3]);
        assert_ne!(t.commitment(), s.commitment());
        assert_eq!(t.storage_get(&cid(), &[3]).unwrap(), vec![3]);
    }

    #[test]
    fn empty_pages_are_dropped_not_leaked() {
        let cfg = PagingConfig::in_memory(None).with_page_capacity(2);
        let mut s = WorldState::with_paging(&cfg);
        for i in 0..10u8 {
            s.storage_set(&cid(), vec![i], vec![i]);
        }
        let before = s.paging_stats().total_pages;
        assert!(before > 1, "splits happened");
        for i in 0..10u8 {
            assert!(s.storage_remove(&cid(), &[i]));
        }
        let stats = s.paging_stats();
        assert_eq!(stats.total_pages, 0, "empty pages are reclaimed");
        assert_eq!(s.storage_slot_count(), 0);
        s.verify_pages().expect("page integrity");
    }
}
