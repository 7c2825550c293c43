//! Runs a workload's episodes and turns them into the named metrics.

use crate::backlog::{Backlog, BacklogScale};
use crate::common::{median, peak_rss_mib, quantile, ratio, Counters, Episode, TX_METHODS};
use crate::governance::{Governance, GovernanceScale};
use crate::market::{Market, MarketScale};
use crate::trace::Tracer;
use duc_blockchain::Blockchain;
use duc_core::World;
use duc_runtime::MetricsHub;

pub const WORKLOADS: [&str; 3] = ["market", "governance", "chain-backlog"];

/// Workload size: the benchmark proper, or a tiny instance for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Built by the smoke tests only.
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("tx_per_s", "1/s"),
    ("wave_ms_p50", "ms"),
    ("wave_ms_p95", "ms"),
    ("gas_per_req", "gas"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units; `contracts.gas.<method>`
/// follows for every method in [`TX_METHODS`].
pub const PER_LAYER: [(&str, &str); 39] = [
    ("mod_ms_p50", "ms"),
    ("mod_ms_p95", "ms"),
    ("mon_ms_p50", "ms"),
    ("mon_ms_p95", "ms"),
    ("block_ms_p50", "ms"),
    ("block_ms_p95", "ms"),
    ("fail_ratio", "ratio"),
    ("core.submit_s", "s"),
    ("core.idle_loop_s", "s"),
    ("core.steps_per_req", "count"),
    ("core.index_burst_s", "s"),
    ("core.advance_s", "s"),
    ("core.advance_calls", "count"),
    ("core.hop_retries", "count"),
    ("core.hop_gave_up", "count"),
    ("sim.net.sent_per_req", "count"),
    ("sim.net.bytes_per_req", "B"),
    ("oracle.push_out.delivered", "count"),
    ("oracle.push_out.useful_ratio", "ratio"),
    ("blockchain.submit_s", "s"),
    ("blockchain.seal_s", "s"),
    ("blockchain.txs_per_block", "count"),
    ("blockchain.mempool_depth_mean", "count"),
    ("blockchain.tx_wait_blocks_p50", "blocks"),
    ("blockchain.state.fault_ins_per_tx", "count"),
    ("blockchain.state.evictions", "count"),
    ("blockchain.state.resident_bytes", "B"),
    ("blockchain.state.spilled_live_bytes", "B"),
    ("blockchain.state.compactions", "count"),
    ("tee.deletions", "count"),
    ("tee.decision_cache_hit_ratio", "ratio"),
    ("crypto.verify_s", "s"),
    ("policy.compile_decide_s", "s"),
    ("intern.symbols", "count"),
    ("mem.rss_setup_mib", "MiB"),
    ("mem.rss_run_growth_mib", "MiB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name with its unit, per-method gas included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .chain(
            TX_METHODS
                .iter()
                .map(|m| (format!("contracts.gas.{m}"), "gas")),
        )
        .collect()
}

/// A finished run: what the last stdout line reports, plus notes.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Plan {
    /// Untimed warm-up episodes before the measured ones.
    warmup: usize,
    /// The measured length of one episode in reference-speed seconds.
    episode_s: f64,
    /// How strongly the workload's host times follow the speed probe
    /// (see `speed::reset`).
    sensitivity: f64,
}

enum Workload {
    Market(Market),
    Governance(Governance),
    Backlog(Backlog),
}

impl Workload {
    fn new(name: &str, scale: Scale, seed: u64) -> Workload {
        let full = scale == Scale::Full;
        match name {
            "market" => Workload::Market(Market::new(
                if full {
                    MarketScale::FULL
                } else {
                    MarketScale::TINY
                },
                seed,
            )),
            "governance" => Workload::Governance(Governance::new(
                if full {
                    GovernanceScale::FULL
                } else {
                    GovernanceScale::TINY
                },
                seed,
            )),
            "chain-backlog" => Workload::Backlog(Backlog::new(
                if full {
                    BacklogScale::FULL
                } else {
                    BacklogScale::TINY
                },
                seed,
            )),
            other => unreachable!("workload names are validated: {other}"),
        }
    }

    /// How the workload's runs are laid out and scaled.
    fn plan(&self) -> Plan {
        match self {
            // The first market episode of a process runs about 15 % slower
            // than the rest (its heap is still growing), so it warms up
            // instead of being measured. Market works on a 1 GiB heap and
            // is memory-bound: across two host states whose probe times
            // differed by 28 %, its raw times moved by about half as much
            // in log terms, so it follows the probe at half strength.
            Workload::Market(_) => Plan {
                warmup: 1,
                episode_s: 2.4,
                sensitivity: 0.5,
            },
            Workload::Governance(_) => Plan {
                warmup: 0,
                episode_s: 6.8,
                sensitivity: 1.0,
            },
            Workload::Backlog(_) => Plan {
                warmup: 0,
                episode_s: 8.0,
                sensitivity: 1.0,
            },
        }
    }

    fn episode(&mut self, tr: &mut Tracer) -> (Episode, World<Blockchain>) {
        match self {
            Workload::Market(w) => w.episode(tr),
            Workload::Governance(w) => w.episode(tr),
            Workload::Backlog(w) => w.episode(tr),
        }
    }
}

/// The revert a monitoring round meets when a holder's copy was deleted
/// (and unregistered) between the round's start and its evidence.
const KNOWN_GOVERNANCE_DEFECT: &str = "copy no longer registered";

/// Runs the workload's warm-up episodes, then enough measured episodes for
/// `seconds` of measured phase at the reference host speed (at least two),
/// then reports. The episode count depends only on `seconds`, never on how
/// fast the host happens to be. With `trace`, measured episodes alternate
/// untraced and traced; the spans are written to `perfbench/out/` when the
/// run ends.
pub fn run(workload: &str, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut wl = Workload::new(workload, scale, seed);
    let Plan {
        warmup,
        episode_s,
        sensitivity,
    } = wl.plan();
    crate::speed::reset(sensitivity);
    crate::common::reset_peak_rss();
    let mut tr = Tracer::new(false);
    let mut episodes: Vec<Episode> = Vec::new();
    let measured_episodes = ((seconds / episode_s).ceil() as usize).max(2);
    let mut last_world = None;
    for i in 0..warmup + measured_episodes {
        // Free the previous episode's world before the next set-up.
        crate::harness::set_phase("teardown");
        drop(last_world.take());
        tr.set_on(trace && i >= warmup && (i - warmup) % 2 == 1);
        let from = tr.len();
        let (mut ep, world) = wl.episode(&mut tr);
        ep.warmup = i < warmup;
        if ep.traced {
            ep.trace = Some(tr.summarize(from));
        }
        episodes.push(ep);
        last_world = Some(world);
    }
    let measured: f64 = episodes
        .iter()
        .filter(|e| !e.warmup)
        .map(Episode::measured_scaled_s)
        .sum();

    let mut notes = Vec::new();
    let mut correct = true;
    // The full invariant sweep makes a view call per held copy, each
    // decoding the resource's whole copy list (17 s on the last market
    // world), so it runs once per run, on the last episode's world; every
    // episode's state commitment is compared below.
    crate::harness::set_phase("checks");
    let mut world = last_world.expect("at least two episodes ran");
    if let Err(e) = crate::common::check_world(&world) {
        correct = false;
        notes.push(format!("last episode: check failed: {e}"));
    }
    // Counters that only the metrics export carries are read once, at the
    // end of a traced run.
    let tee_cache = trace.then(|| {
        let hub = MetricsHub::new();
        world.export_metrics(&hub);
        let cache = |result| hub.counter("duc_tee_decision_cache_total", &[("result", result)]);
        (cache("hit"), cache("miss"))
    });
    crate::harness::set_phase("teardown");
    drop(world);
    for (i, ep) in episodes.iter().enumerate() {
        if let Some(err) = &ep.check {
            correct = false;
            notes.push(format!("episode {i}: check failed: {err}"));
        }
        if ep.commitment.is_none() || ep.commitment != episodes[0].commitment {
            correct = false;
            notes.push(format!(
                "episode {i}: state commitment {} differs from episode 0's {}",
                hex(ep.commitment),
                hex(episodes[0].commitment)
            ));
        }
        for (kind, n) in &ep.failures {
            notes.push(format!("episode {i}: {n} × {kind}"));
        }
    }
    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    // Governance exposes a known baseline defect as failed requests: a
    // monitoring round whose evidence races a deadline deletion reverts.
    // Those are reported, not treated as a broken run; any other failure,
    // and any failure elsewhere, is.
    let unexpected: u64 = episodes
        .iter()
        .flat_map(|e| &e.failures)
        .filter(|(kind, _)| workload != "governance" || !kind.ends_with(KNOWN_GOVERNANCE_DEFECT))
        .map(|(_, n)| n)
        .sum();
    if unexpected > 0 {
        correct = false;
        notes.push(format!("{unexpected} unexpected failures"));
    }
    notes.push(format!(
        "{} episodes ({warmup} warm-up), {measured:.3} s measured at reference speed, {attempted} requests, {failed} failed, checks {}, state commitment {}",
        episodes.len(),
        if correct { "passed" } else { "FAILED" },
        hex(episodes[0].commitment)
    ));
    crate::harness::set_phase("report");
    let raw: Vec<f64> = episodes.iter().map(Episode::measured_s).collect();
    let scaled: Vec<f64> = episodes.iter().map(Episode::measured_scaled_s).collect();
    let raw_setup: Vec<f64> = episodes
        .iter()
        .map(|e| e.setup.iter().map(crate::speed::Interval::secs).sum())
        .collect();
    notes.push(format!(
        "host ran at {:.3}x the reference probe time; raw measured s {raw:.3?} (scaled {scaled:.3?}); raw set-up s {raw_setup:.3?}",
        crate::speed::slowdown()
    ));
    let samples =
        |f: fn(&Episode) -> usize| episodes.iter().filter(|e| !e.warmup).map(f).sum::<usize>();
    notes.push(format!(
        "timing samples: setup {}, wave {} (medians over episodes of {} bursts), mod {}, mon {}, block {}",
        episodes.len(),
        samples(|e| e.wave_ms().len()),
        episodes.last().map_or(0, |e| e.wave_ms().len()),
        samples(|e| e.mod_ms.len()),
        samples(|e| e.mon_ms.len()),
        samples(|e| e.block_ms.len()),
    ));

    // Set-up is the same work in a warm-up episode, so every episode
    // contributes a set-up sample.
    let setup_s = median(&episodes.iter().map(Episode::setup_s).collect::<Vec<_>>());
    let timed: Vec<Episode> = episodes.into_iter().filter(|e| !e.warmup).collect();
    let metrics = if trace {
        if let Err(e) = tr.dump(&trace_path(workload, seed)) {
            notes.push(format!("trace dump failed: {e}"));
        }
        per_layer(&timed, tee_cache.unwrap_or_default())
    } else {
        end_to_end(&timed, setup_s)
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn hex(digest: Option<duc_crypto::Digest>) -> String {
    digest.map_or_else(|| "none".into(), |d| d.to_hex())
}

fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("trace-{workload}-seed{seed}.tsv"))
}

fn ok_requests(eps: &[&Episode]) -> f64 {
    eps.iter().map(|e| (e.attempted - e.failed) as f64).sum()
}

fn sum(eps: &[&Episode], f: impl Fn(&Episode) -> f64) -> f64 {
    eps.iter().map(|e| f(e)).sum()
}

fn all<'a>(eps: &'a [&Episode], f: impl Fn(&'a Episode) -> &'a Vec<f64>) -> Vec<f64> {
    eps.iter().flat_map(|e| f(e).iter().copied()).collect()
}

fn end_to_end(episodes: &[Episode], setup_s: f64) -> Vec<(String, f64, &'static str)> {
    let eps: Vec<&Episode> = episodes.iter().collect();
    let measured = sum(&eps, Episode::measured_scaled_s);
    // Episodes replay identical inputs, so burst `i` is the same work in
    // each: take its median over the episodes, then percentiles over the
    // bursts. A burst slowed by one host hiccup no longer sets the tail.
    let per_episode: Vec<Vec<f64>> = eps.iter().map(|e| e.wave_ms()).collect();
    let waves: Vec<f64> = (0..per_episode[0].len())
        .map(|i| median(&per_episode.iter().map(|w| w[i]).collect::<Vec<_>>()))
        .collect();
    let values = [
        setup_s,
        ok_requests(&eps) / measured,
        sum(&eps, |e| (e.after.txs - e.before.txs) as f64) / measured,
        quantile(&waves, 0.5),
        quantile(&waves, 0.95),
        sum(&eps, |e| (e.after.gas - e.before.gas) as f64) / ok_requests(&eps),
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (name.to_string(), value, *unit))
        .collect()
}

fn per_layer(episodes: &[Episode], tee_cache: (u64, u64)) -> Vec<(String, f64, &'static str)> {
    let all_eps: Vec<&Episode> = episodes.iter().collect();
    let eps: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let last = eps.last().expect("a traced run has a traced episode");
    let traced_s = |name: &str| sum(&eps, |e| e.trace.as_ref().map_or(0.0, |t| t.total_s(name)));
    let delta = |f: fn(&Counters) -> u64| sum(&eps, |e| (f(&e.after) - f(&e.before)) as f64);
    let ok = ok_requests(&eps);
    let txs = delta(|c| c.txs);
    let delivered = delta(|c| c.push_out_delivered);
    let notified = sum(&eps, |e| e.devices_notified as f64);
    let covered = sum(&eps, |e| {
        e.trace.as_ref().map_or(0.0, |t| t.covered_ns as f64 / 1e9)
    });
    let (hits, misses) = tee_cache;
    let spans = sum(&eps, |e| e.trace.as_ref().map_or(0.0, |t| t.spans as f64));
    let mods = all(&eps, |e| &e.mod_ms);
    let mons = all(&eps, |e| &e.mon_ms);
    let blocks = all(&eps, |e| &e.block_ms);
    let values = [
        quantile(&mods, 0.5),
        quantile(&mods, 0.95),
        quantile(&mons, 0.5),
        quantile(&mons, 0.95),
        quantile(&blocks, 0.5),
        quantile(&blocks, 0.95),
        ratio(
            sum(&all_eps, |e| e.failed as f64),
            sum(&all_eps, |e| e.attempted as f64),
        ),
        traced_s("core.submit"),
        traced_s("core.idle_loop"),
        ratio(sum(&eps, |e| e.steps as f64), ok),
        traced_s("core.index_burst"),
        traced_s("core.advance"),
        sum(&eps, |e| {
            e.trace
                .as_ref()
                .map_or(0.0, |t| t.count("core.advance") as f64)
        }),
        delta(|c| c.hop_retries),
        delta(|c| c.hop_gave_up),
        ratio(delta(|c| c.net_sent), ok),
        ratio(delta(|c| c.net_bytes), ok),
        delivered,
        // No deliveries means nothing was wasted.
        if delivered == 0.0 {
            1.0
        } else {
            notified / delivered
        },
        traced_s("blockchain.submit"),
        traced_s("blockchain.seal"),
        ratio(txs, delta(|c| c.height)),
        mean(&all(&eps, |e| &e.mempool_depth)),
        median(&all(&eps, |e| &e.tx_wait_blocks)),
        ratio(delta(|c| c.paging.fault_ins), txs),
        delta(|c| c.paging.evictions),
        last.after.paging.resident_bytes as f64,
        last.after.paging.spilled_live_bytes as f64,
        delta(|c| c.paging.compactions),
        delta(|c| c.tee_deletions),
        ratio(hits as f64, (hits + misses) as f64),
        median(&all_eps.iter().map(|e| e.verify_s).collect::<Vec<_>>()),
        median(
            &all_eps
                .iter()
                .map(|e| e.compile_decide_s)
                .collect::<Vec<_>>(),
        ),
        last.symbols as f64,
        median(&all_eps.iter().map(|e| e.rss_setup_mib).collect::<Vec<_>>()),
        median(
            &all_eps
                .iter()
                .map(|e| e.rss_end_mib - e.rss_setup_mib)
                .collect::<Vec<_>>(),
        ),
        ratio(covered, sum(&eps, Episode::measured_s)),
        ratio(
            spans * Tracer::span_cost_ns() / 1e9,
            sum(&eps, Episode::measured_s),
        ),
        spans,
    ];
    // Mean gas per call of each DE App method over the traced episodes.
    let method_gas = TX_METHODS.iter().map(|method| {
        let moved = |pick: fn((u64, u64)) -> u64| {
            sum(&eps, |e| {
                let at =
                    |c: &Counters| pick(c.gas_by_method.get(*method).copied().unwrap_or_default());
                (at(&e.after) - at(&e.before)) as f64
            })
        };
        ratio(moved(|(_, gas)| gas), moved(|(calls, _)| calls))
    });
    per_layer_names()
        .into_iter()
        .zip(values.into_iter().chain(method_gas))
        .map(|((name, unit), value)| (name, value, unit))
        .collect()
}

fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// What the numbers depend on beyond the code: source digest (and the git
/// commit where there is one), core count, compiler and pinned settings.
pub fn environment() -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"commit\": \"{commit}\", \"source_sha256\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"exec_mode\": \"serial\", \"link\": \"fixed 10 ms, no faults\", \"storage\": \"no checkpointing; paging off except chain-backlog (in memory, 128 resident pages of 64 slots)\"}}",
        source_digest()
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// SHA-256 over every Rust source and manifest the benchmark builds from,
/// in path order — identifies the code when there is no git checkout.
fn source_digest() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("perfbench/Cargo.toml"));
    files.sort();
    let mut hasher = duc_crypto::Sha256::new();
    for path in &files {
        if let Ok(bytes) = std::fs::read(path) {
            let rel = path.strip_prefix(&root).unwrap_or(path);
            hasher.update(rel.to_string_lossy().as_bytes());
            hasher.update(&bytes);
        }
    }
    hasher.finalize().to_hex()
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs")
            || path.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(path);
        }
    }
}
