//! The traced calls into `duc_core::World` that every world-driven
//! workload shares, the episode epilogue (checks, replays, counters) and
//! the watchdog's phase marker.

use std::sync::{Mutex, PoisonError};

use duc_blockchain::Blockchain;
use duc_core::{Outcome, Request, World};
use duc_policy::UsagePolicy;

use crate::common::{self, Episode};
use crate::replay;
use crate::trace::Tracer;

/// What the run is doing right now (named by the watchdog if it fires).
static PHASE: Mutex<&'static str> = Mutex::new("start");

pub fn set_phase(phase: &'static str) {
    *PHASE.lock().unwrap_or_else(PoisonError::into_inner) = phase;
}

pub fn phase() -> &'static str {
    *PHASE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Submits `requests` as one burst, drives the event loop until every one
/// has completed, and tallies the outcomes into `ep` (`on_ok` sees each
/// success). Closed loop: returns only when the burst is done.
pub fn run_burst(
    world: &mut World<Blockchain>,
    tr: &mut Tracer,
    ep: &mut Episode,
    requests: impl IntoIterator<Item = Request>,
    mut on_ok: impl FnMut(&Outcome, &mut Episode),
) {
    let mut submitted = 0u64;
    for request in requests {
        let s = tr.begin("core.submit");
        let ticket = world.submit(request);
        tr.end_ticket(s, ticket.id());
        submitted += 1;
    }
    let s = tr.begin("core.idle_loop");
    ep.steps += world.run_until_idle();
    tr.end(s);
    let s = tr.begin("core.drain_events");
    let events = world.drain_events();
    tr.end(s);
    ep.attempted += submitted;
    for (_, result) in &events {
        match result {
            Ok(outcome) => on_ok(outcome, ep),
            Err(e) => ep.fail(&e.to_string()),
        }
    }
    for _ in events.len() as u64..submitted {
        ep.fail("request never completed");
    }
}

/// The episode epilogue, outside every timer: the state commitment,
/// isolated layer replays and end-of-episode counters.
pub fn finish_episode(world: &World<Blockchain>, ep: &mut Episode, policies: &[UsagePolicy]) {
    ep.commitment = Some(world.chain.state_commitment());
    ep.symbols = world.ids.len() as u64;
    ep.rss_end_mib = common::rss_mib();
    ep.verify_s = replay::verify_blocks_s(world, ep.before.height + 1, ep.after.height);
    ep.compile_decide_s = replay::compile_decide_s(policies);
}
