//! Isolated replays of an episode's own inputs through one layer each:
//! signature verification (crypto) and policy compile/decide (policy).
//! Each replay is timed on its own, after the measured phase.

use std::hint::black_box;
use std::time::Instant;

use duc_blockchain::{Blockchain, SignedTransaction};
use duc_core::World;
use duc_policy::{compile, Action, Purpose, PurposeTaxonomy, UsageContext, UsagePolicy};
use duc_sim::{SimDuration, SimTime};

/// Seconds to verify every signed transaction.
///
/// # Panics
/// If a transaction the chain accepted fails verification.
pub fn verify_s<'a>(txs: impl IntoIterator<Item = &'a SignedTransaction>) -> f64 {
    let txs: Vec<&SignedTransaction> = txs.into_iter().collect();
    let t0 = Instant::now();
    for tx in &txs {
        assert!(black_box(*tx).verify(), "included transaction verifies");
    }
    t0.elapsed().as_secs_f64()
}

/// Seconds to verify the transactions sealed in blocks `from..=to`.
pub fn verify_blocks_s(world: &World<Blockchain>, from: u64, to: u64) -> f64 {
    let txs: Vec<&SignedTransaction> = (from..=to)
        .filter_map(|h| world.chain.block(h))
        .flat_map(|b| b.transactions.iter())
        .collect();
    verify_s(txs)
}

/// Seconds to compile every policy under the standard purpose taxonomy and
/// decide one use of it at a fixed instant.
pub fn compile_decide_s<'a>(policies: impl IntoIterator<Item = &'a UsagePolicy>) -> f64 {
    let policies: Vec<&UsagePolicy> = policies.into_iter().collect();
    let taxonomy = PurposeTaxonomy::standard();
    let ctx = UsageContext {
        consumer: "https://consumer.id/me".into(),
        action: Action::Use,
        purpose: Purpose::new("academic-research"),
        now: SimTime::ZERO + SimDuration::from_secs(30),
        acquired_at: SimTime::ZERO,
        access_count: 1,
    };
    let t0 = Instant::now();
    for policy in &policies {
        let program = compile(black_box(policy), &taxonomy);
        black_box(program.decide(black_box(&ctx)));
    }
    t0.elapsed().as_secs_f64()
}
