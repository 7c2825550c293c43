//! Pieces every workload shares: the pinned world configuration, the
//! seeded Zipf sampler, layer counters read from public getters, process
//! memory probes and the per-episode record.

use std::collections::BTreeMap;

use duc_blockchain::{Blockchain, ExecMode, Ledger, PagingStats, StorageConfig};
use duc_core::chaos;
use duc_core::{EnforcementMode, World, WorldConfig};
use duc_crypto::Digest;
use duc_sim::Rng;

use crate::speed::Interval;

/// The configuration every workload runs under. Everything the environment
/// could change is pinned: serial block execution (`WorldConfig` would
/// otherwise read `DUC_EXEC_MODE`), storage without checkpointing or paging
/// unless `storage` says otherwise, deadline enforcement, a fault-free
/// 10 ms deterministic link.
pub fn world_config(seed: u64, storage: StorageConfig) -> WorldConfig {
    WorldConfig {
        seed,
        link: chaos::fixed_link(10),
        exec_mode: ExecMode::Serial,
        storage,
        enforcement: EnforcementMode::Deadline,
        trace: false,
        shards: 1,
        ..WorldConfig::default()
    }
}

/// Zipf(s) over ranks `0..n`, with the cumulative distribution built once;
/// each draw is a binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

thread_local! {
    /// The largest resident set size sampled this run, in MiB.
    static PEAK_RSS_MIB: std::cell::Cell<f64> = const { std::cell::Cell::new(0.0) };
}

/// Resident set size in MiB, from `/proc/self/status` (zero where the
/// file is unavailable); every sample also raises the run's sampled peak.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let rss = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0);
    PEAK_RSS_MIB.with(|p| p.set(p.get().max(rss)));
    rss
}

/// The largest resident set size sampled since `reset_peak_rss`. Samples
/// are taken at every speed probe (around each set-up and between measured
/// segments) and at the end of each episode, so allocator transients
/// inside one call, which the kernel's high-water mark would keep, are not
/// counted.
pub fn peak_rss_mib() -> f64 {
    PEAK_RSS_MIB.with(std::cell::Cell::get)
}

pub fn reset_peak_rss() {
    PEAK_RSS_MIB.with(|p| p.set(0.0));
}

/// Quantile `q` of `samples`, interpolating linearly between the order
/// statistics around rank `q·(n−1)` (0 when empty): steadier than a
/// nearest-rank pick on the eight bursts of a chain-backlog run.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Probes taken right before and right after each set-up (about 50 ms of
/// them on each side), so its scale factor reflects the host's speed over
/// more than an instant on both sides.
pub const SETUP_PROBES: usize = 256;

/// DE App methods that run as transactions (per-method gas is reported for
/// each, zero when the workload never calls it).
pub const TX_METHODS: [&str; 9] = [
    "register_pod",
    "register_resource",
    "subscribe",
    "register_copy",
    "unregister_copy",
    "update_policy",
    "start_monitoring",
    "record_evidence",
    "reaffirm_evidence",
];

/// Layer counters read from the program's public getters.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub height: u64,
    pub txs: u64,
    pub gas: u64,
    pub net_sent: u64,
    pub net_bytes: u64,
    pub push_out_delivered: u64,
    pub hop_retries: u64,
    pub hop_gave_up: u64,
    pub tee_deletions: u64,
    pub paging: PagingStats,
    /// `(calls, gas)` per DE App method.
    pub gas_by_method: BTreeMap<String, (u64, u64)>,
}

impl Counters {
    pub fn read(world: &World<Blockchain>) -> Counters {
        let (net_sent, _, net_bytes) = world.net.stats();
        let mut gas_by_method = BTreeMap::new();
        for ((_, method), (calls, total, _)) in world.chain.gas_by_method() {
            let e: &mut (u64, u64) = gas_by_method.entry(method).or_default();
            e.0 += calls;
            e.1 += total;
        }
        Counters {
            height: world.chain.height(),
            txs: world.chain.gas_ledger().len() as u64,
            gas: world.chain.gas_used_total(),
            net_sent,
            net_bytes,
            push_out_delivered: world.push_out.stats().0,
            hop_retries: world.metrics.counter("driver.hop.drops"),
            hop_gave_up: world.metrics.counter("driver.hop.gave_up"),
            tee_deletions: world.metrics.counter("enforcement.deletions"),
            paging: world.chain.paging_stats(),
            gas_by_method,
        }
    }
}

/// The end-of-episode correctness checks every workload runs: the chaos
/// invariants (which include page-store and checkpoint integrity) and the
/// block chain's own validation.
pub fn check_world(world: &World<Blockchain>) -> Result<(), String> {
    chaos::check_invariants(world).map_err(|e| format!("invariants: {e}"))?;
    world
        .chain
        .validate_chains()
        .map_err(|e| format!("validate_chains: {e:?}"))?;
    Ok(())
}

/// Everything one episode measured: a fresh world built, then driven
/// through the workload's fixed input schedule.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// A warm-up episode: checked, not measured.
    pub warmup: bool,
    pub traced: bool,
    /// Host intervals of the set-up.
    pub setup: Vec<Interval>,
    /// The measured phase as host intervals, each tagged with the burst it
    /// belongs to (a burst runs from its first submit to its last
    /// completion; untagged intervals are think time and churn).
    pub segments: Vec<(Interval, Option<usize>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Failure messages by kind (first 80 characters), for the report.
    pub failures: BTreeMap<String, u64>,
    pub mod_ms: Vec<f64>,
    pub mon_ms: Vec<f64>,
    pub block_ms: Vec<f64>,
    /// Process-machine steps taken by `run_until_idle`.
    pub steps: u64,
    /// Push-out devices notified, summed over policy modifications.
    pub devices_notified: u64,
    /// Mempool depth sampled before each benchmark-driven seal.
    pub mempool_depth: Vec<f64>,
    /// Blocks each transaction waited between submission and inclusion.
    pub tx_wait_blocks: Vec<f64>,
    pub before: Counters,
    pub after: Counters,
    pub rss_setup_mib: f64,
    pub rss_end_mib: f64,
    pub symbols: u64,
    /// Seconds to replay the episode's signed transactions through
    /// signature verification, and its policies through compile/decide.
    pub verify_s: f64,
    pub compile_decide_s: f64,
    pub commitment: Option<Digest>,
    /// The first failed correctness check, if any.
    pub check: Option<String>,
    pub trace: Option<crate::trace::TraceSummary>,
}

impl Episode {
    /// Set-up seconds at the reference host speed.
    pub fn setup_s(&self) -> f64 {
        self.setup.iter().map(Interval::scaled_setup_secs).sum()
    }

    /// Raw host seconds of the measured phase.
    pub fn measured_s(&self) -> f64 {
        self.segments.iter().map(|(iv, _)| iv.secs()).sum()
    }

    /// Seconds of the measured phase at the reference host speed.
    pub fn measured_scaled_s(&self) -> f64 {
        self.segments.iter().map(|(iv, _)| iv.scaled_secs()).sum()
    }

    /// Milliseconds per burst at the reference host speed.
    pub fn wave_ms(&self) -> Vec<f64> {
        let mut waves: BTreeMap<usize, f64> = BTreeMap::new();
        for (iv, wave) in &self.segments {
            if let Some(w) = wave {
                *waves.entry(*w).or_default() += iv.scaled_secs() * 1e3;
            }
        }
        waves.into_values().collect()
    }

    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        let key: String = what.chars().take(80).collect();
        *self.failures.entry(key).or_default() += 1;
    }
}
