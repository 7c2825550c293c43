//! `chain-backlog`: block production alone.
//!
//! A chain built the way `World::new` builds it (4 validators, 2 s slots,
//! the default 30M block gas, DE App deployed, serial execution), with the
//! world state paged in memory under a resident limit well below its page
//! count. Distinct pre-funded senders each send one DE App onboarding
//! transaction (`register_pod`, `register_resource` or `subscribe`); the
//! signed transactions are submitted in deep backlogs and sealed slot by
//! slot until each backlog has drained. Closed loop, one client: the next
//! backlog is submitted when the previous one has drained.

use std::time::Instant;

use duc_blockchain::{Blockchain, PagingConfig, SignedTransaction, StorageConfig, TxId, TxStatus};
use duc_core::scenario::population_policy;
use duc_core::World;
use duc_crypto::KeyPair;
use duc_policy::UsagePolicy;
use duc_sim::Rng;

use crate::common::{self, Counters, Episode};
use crate::harness::{finish_episode, set_phase};
use crate::speed::{self, Interval};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct BacklogScale {
    /// Senders per onboarding kind (three kinds).
    pub senders_per_kind: usize,
    pub depth: usize,
    pub resident_pages: usize,
}

impl BacklogScale {
    pub const FULL: BacklogScale = BacklogScale {
        senders_per_kind: 5_461,
        depth: 4_096,
        resident_pages: 128,
    };
    pub const TINY: BacklogScale = BacklogScale {
        senders_per_kind: 96,
        depth: 64,
        resident_pages: 8,
    };
}

const PAGE_CAPACITY: usize = 64;
const BALANCE: u128 = 10_000_000_000;

/// Pre-funded identities. Owners in `with_pod` already have their pod
/// registered at set-up, so their one transaction registers a resource.
struct Senders {
    fresh_owners: Vec<(KeyPair, String)>,
    with_pod: Vec<(KeyPair, String)>,
    devices: Vec<(KeyPair, String)>,
}

struct Inputs {
    txs: Vec<SignedTransaction>,
    policies: Vec<UsagePolicy>,
}

pub struct Backlog {
    scale: BacklogScale,
    seed: u64,
    inputs: Option<Inputs>,
}

/// Identities embed the seed at a fixed width, so every seed's
/// transactions carry the same number of bytes (and gas).
fn pod_root(webid_index: usize, seed: u64) -> String {
    format!("https://s{seed:016x}-{webid_index}.pod/")
}

impl Backlog {
    pub fn new(scale: BacklogScale, seed: u64) -> Backlog {
        Backlog {
            scale,
            seed,
            inputs: None,
        }
    }

    fn storage(&self) -> StorageConfig {
        StorageConfig::disabled().with_paging(
            PagingConfig::in_memory(Some(self.scale.resident_pages))
                .with_page_capacity(PAGE_CAPACITY),
        )
    }

    /// Funds every sender and registers the pods of the resource
    /// registrants (sealed until the mempool drains), recording the set-up
    /// intervals in `ep` with speed probes between them.
    fn setup(&self, ep: &mut Episode) -> (World<Blockchain>, Senders) {
        speed::probe(common::SETUP_PROBES);
        let t0 = Instant::now();
        let mut world = World::new(common::world_config(self.seed, self.storage()));
        let n = self.scale.senders_per_kind;
        let mut make = |kind: &str, i: usize| {
            let webid = format!("https://{kind}{i}-s{:016x}.id/me", self.seed);
            let key = world.chain.create_funded_account(webid.as_bytes(), BALANCE);
            (key, webid)
        };
        let senders = Senders {
            fresh_owners: (0..n).map(|i| make("o", i)).collect(),
            with_pod: (0..n).map(|i| make("r", i)).collect(),
            devices: (0..n).map(|i| make("d", i)).collect(),
        };
        ep.setup.push(Interval::since(t0));
        for (c, chunk) in senders.with_pod.chunks(self.scale.depth).enumerate() {
            speed::probe(1);
            let t0 = Instant::now();
            for (j, (key, webid)) in chunk.iter().enumerate() {
                let root = pod_root(n + c * self.scale.depth + j, self.seed);
                let policy = UsagePolicy::default_for(root.clone(), webid);
                let env = world.envelope(&policy);
                let tx = world
                    .dex
                    .register_pod_tx(&world.chain, key, webid, &root, env);
                world.chain.submit(tx).expect("set-up pod tx is valid");
            }
            ep.setup.push(Interval::since(t0));
            let mut untraced = Tracer::new(false);
            drain(
                &mut world.chain,
                &mut untraced,
                |iv| ep.setup.push(iv),
                |_, _| {},
            );
        }
        speed::probe(common::SETUP_PROBES);
        (world, senders)
    }

    /// Signs one onboarding transaction per sender, in a seeded order.
    fn generate(&self, world: &World<Blockchain>, senders: &Senders) -> Inputs {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x6261_636b_6c6f);
        let n = self.scale.senders_per_kind;
        let mut txs = Vec::with_capacity(3 * n);
        let mut policies = Vec::with_capacity(2 * n);
        for (i, (key, webid)) in senders.fresh_owners.iter().enumerate() {
            let root = pod_root(i, self.seed);
            let policy = UsagePolicy::default_for(root.clone(), webid);
            txs.push(world.dex.register_pod_tx(
                &world.chain,
                key,
                webid,
                &root,
                world.envelope(&policy),
            ));
            policies.push(policy);
        }
        for (i, (key, webid)) in senders.with_pod.iter().enumerate() {
            let iri = format!("{}data/set.bin", pod_root(n + i, self.seed));
            let days = 1 + rng.gen_range(30);
            let policy = population_policy(&iri, webid, days);
            txs.push(world.dex.register_resource_tx(
                &world.chain,
                key,
                &iri,
                &iri,
                webid,
                vec![],
                world.envelope(&policy),
            ));
            policies.push(policy);
        }
        for (key, webid) in &senders.devices {
            txs.push(world.dex.subscribe_tx(&world.chain, key, webid));
        }
        rng.shuffle(&mut txs);
        Inputs { txs, policies }
    }

    pub fn episode(&mut self, tr: &mut Tracer) -> (Episode, World<Blockchain>) {
        let mut ep = Episode {
            traced: tr.is_on(),
            ..Episode::default()
        };
        set_phase("chain-backlog setup");
        let (mut world, senders) = self.setup(&mut ep);
        ep.rss_setup_mib = common::rss_mib();

        set_phase("chain-backlog inputs");
        if self.inputs.is_none() {
            self.inputs = Some(self.generate(&world, &senders));
        }
        let inputs = self.inputs.as_ref().expect("generated");
        let mut submitted: Vec<(TxId, u64)> = Vec::with_capacity(inputs.txs.len());

        set_phase("chain-backlog measure");
        ep.before = Counters::read(&world);
        for (b, backlog) in inputs.txs.chunks(self.scale.depth).enumerate() {
            speed::probe(1);
            let t0 = Instant::now();
            let span = tr.begin("bench.backlog");
            let height = world.chain.height();
            for tx in backlog {
                let tx = tx.clone();
                let s = tr.begin("blockchain.submit");
                let result = world.chain.submit(tx);
                tr.end(s);
                ep.attempted += 1;
                match result {
                    Ok(id) => submitted.push((id, height)),
                    Err(e) => ep.fail(&format!("submit: {e}")),
                }
            }
            ep.segments.push((Interval::since(t0), Some(b)));
            drain(
                &mut world.chain,
                tr,
                |iv| ep.segments.push((iv, Some(b))),
                |depth, ms| {
                    ep.mempool_depth.push(depth as f64);
                    ep.block_ms.push(ms);
                },
            );
            tr.end(span);
        }
        ep.after = Counters::read(&world);

        set_phase("chain-backlog epilogue");
        for (id, height) in &submitted {
            match world.chain.receipt(id) {
                Some(r) if r.status == TxStatus::Ok => {
                    ep.tx_wait_blocks.push((r.block_height - height) as f64);
                }
                Some(r) => ep.fail(&format!("receipt: {:?}", r.status)),
                None => ep.fail("transaction never included"),
            }
        }
        finish_episode(&world, &mut ep, &inputs.policies);
        (ep, world)
    }
}

/// Seals between two speed probes in the measured phase.
const SEALS_PER_SEGMENT: usize = 16;

/// Seals one slot at a time until the mempool is empty, as host-interval
/// segments of `SEALS_PER_SEGMENT` seals with a speed probe between them.
/// `seal` sees the mempool depth before and the host ms of every seal.
fn drain(
    chain: &mut Blockchain,
    tr: &mut Tracer,
    mut segment: impl FnMut(Interval),
    mut seal: impl FnMut(usize, f64),
) {
    let mut t0 = Instant::now();
    let mut seals = 0;
    while chain.pending_count() > 0 {
        if seals == SEALS_PER_SEGMENT {
            segment(Interval::since(t0));
            speed::probe(1);
            t0 = Instant::now();
            seals = 0;
        }
        let depth = chain.pending_count();
        let slot = chain.current_time() + chain.block_interval();
        let seal_t0 = Instant::now();
        let s = tr.begin("blockchain.seal");
        chain.advance_to(slot);
        tr.end(s);
        seals += 1;
        seal(depth, common::ms(seal_t0.elapsed()));
    }
    segment(Interval::since(t0));
}
