//! The repository benchmark: three workloads driven through the public API
//! of `duc_core::World` and `duc_blockchain::Blockchain`, from one thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload market|governance|chain-backlog --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats *episodes* — fresh set-up, then the workload's fixed input
//! schedule, then correctness checks — until the measured phases add up to
//! `--seconds` (at least two episodes, whose state commitments must agree).
//! Inputs come from `--seed` and are generated outside every timer. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` episodes alternate untraced and traced, and it carries the
//! per-layer metrics derived from the traced ones.

mod backlog;
mod common;
mod governance;
mod harness;
mod market;
mod replay;
mod report;
#[cfg(test)]
mod smoke;
mod speed;
mod trace;

use std::sync::mpsc;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// A run still going after this long exits with code 3, naming its phase
/// (a run must finish within 180 s).
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !report::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, not {:?}",
            report::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    // A hang fails the run with a named error instead of stalling.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let workload = args.workload.clone();
    let watchdog = std::thread::spawn(move || {
        if done_rx.recv_timeout(WATCHDOG).is_err() {
            eprintln!(
                "perfbench: watchdog: workload {workload} still in phase '{}' after {} s",
                harness::phase(),
                WATCHDOG.as_secs()
            );
            std::process::exit(3);
        }
    });

    println!("# env {}", report::environment());
    let outcome = report::run(
        &args.workload,
        report::Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    );
    let _ = done_tx.send(());
    watchdog.join().expect("watchdog thread exits cleanly");

    for line in &outcome.notes {
        println!("# {line}");
    }
    for (name, value, unit) in &outcome.metrics {
        println!("# {name:<40} {value:>16.6} {unit}");
    }
    println!("{}", outcome.json());
}
