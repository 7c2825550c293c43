//! The obligation scheduler — deadline-driven usage enforcement.
//!
//! When a governed copy enters a TEE (process 4) or its policy changes
//! (process 5 / a `PolicyUpdated` event), the driver registers a wakeup on
//! the [`duc_sim::Scheduler`] at the copy's compiled
//! `PolicyProgram::next_deadline` instant. When the wakeup fires, an
//! internal [`ObligationRun`] machine executes the due duties — the TEE
//! deletes the overdue copy, notification duties surface — and anchors the
//! on-chain evidence (the `unregister_copy` transaction and its
//! `CopyRemoved` event) through the same non-blocking [`TxFlow`] the user
//! processes use. Enforcement therefore lands at the *declared instant*
//! instead of at the next monitoring sweep, and the `enforcement.lag`
//! histogram (now − deadline) measures exactly the violation→enforcement
//! latency experiment E14 reports.
//!
//! Under [`EnforcementMode::Periodic`] the wakeups land on a fixed grid
//! instead — the round-based baseline E14 compares against.
//!
//! These wakeups are the only enforcement path: nothing scans the fleet
//! for overdue copies. A copy whose wakeup fired on a rogue host is
//! re-armed when the host heals ([`World::set_rogue_host`]).

use duc_blockchain::{Ledger, Receipt};
use duc_oracle::OracleError;
use duc_sim::{SimDuration, SimTime};
use duc_tee::EnforcementAction;

use crate::process::ProcessError;
use crate::world::{EnforcementMode, World};

use super::flow::{FlowPoll, TxFlow};
use super::{receipt_ok, Machine, Outcome, Step};

/// Internal machine executing one (device, resource) obligation wakeup.
pub(crate) struct ObligationRun<L> {
    device: String,
    resource: String,
    phase: ObligationPhase<L>,
}

enum ObligationPhase<L> {
    Start,
    /// Awaiting inclusion of the `unregister_copy` evidence.
    Confirm(TxFlow<L>),
}

impl<L: Ledger> ObligationRun<L> {
    pub(crate) fn new(device: String, resource: String) -> Self {
        ObligationRun {
            device,
            resource,
            phase: ObligationPhase::Start,
        }
    }

    pub(super) fn step(self, world: &mut World<L>) -> Step<L> {
        let ObligationRun {
            device,
            resource,
            phase,
        } = self;
        let now = world.clock.now();
        match phase {
            ObligationPhase::Start => {
                // Rogue hosts suppress their enclave timers: the wakeup
                // fires into the void (monitoring will surface the
                // violation instead). Under the periodic baseline the
                // next grid sweep must still probe; under Deadline mode
                // `set_rogue_host(.., false)` re-arms the healed host's
                // copies instead.
                if world.is_rogue_host(&device) {
                    if matches!(world.config.enforcement, EnforcementMode::Periodic(_)) {
                        world.schedule_obligation_after(&device, &resource, now);
                    }
                    return Step::Done(Ok(Outcome::ObligationsEnforced {
                        device,
                        resource,
                        deleted: false,
                    }));
                }
                let Some(dev) = world.devices.get_mut(&device) else {
                    return Step::Done(Err(ProcessError::UnknownDevice(device)));
                };
                let due = dev.tee.next_deadline_for(&resource);
                match due {
                    // The copy is gone or unconstrained: nothing to do.
                    None => Step::Done(Ok(Outcome::ObligationsEnforced {
                        device,
                        resource,
                        deleted: false,
                    })),
                    // A stale wakeup (the policy was relaxed since it was
                    // registered): re-arm at the fresh deadline.
                    Some(due) if due > now => {
                        world.schedule_obligation(&device, &resource);
                        Step::Done(Ok(Outcome::ObligationsEnforced {
                            device,
                            resource,
                            deleted: false,
                        }))
                    }
                    Some(due) => {
                        let key = dev.key;
                        let endpoint = dev.endpoint;
                        let actions = match dev.tee.enforce_due(&resource, now) {
                            Ok(actions) => actions,
                            Err(e) => return Step::Done(Err(ProcessError::Tee(e))),
                        };
                        let lag = now - due;
                        world.metrics.record("enforcement.lag", lag);
                        let mut deleted = false;
                        for action in &actions {
                            match action {
                                EnforcementAction::Deleted { reason, .. } => {
                                    deleted = true;
                                    world.metrics.incr("enforcement.deletions");
                                    world.trace.record(
                                        now,
                                        format!("tee:{device}"),
                                        "obligation.deleted",
                                        format!("{resource}: {reason}"),
                                    );
                                }
                                EnforcementAction::NotifyOwner { by, .. } => {
                                    world.metrics.incr("enforcement.notifications");
                                    world.trace.record(
                                        now,
                                        format!("tee:{device}"),
                                        "obligation.notify",
                                        format!("{resource} by {by}"),
                                    );
                                }
                            }
                        }
                        if !deleted {
                            return Step::Done(Ok(Outcome::ObligationsEnforced {
                                device,
                                resource,
                                deleted,
                            }));
                        }
                        // Anchor the enforcement on-chain: the copy
                        // registry drops the entry and the `CopyRemoved`
                        // event is the duty's evidence trail.
                        let build = {
                            let resource = resource.clone();
                            let device = device.clone();
                            // `now` is the deletion instant: the contract
                            // keeps any registration made at/after it, so
                            // a re-access racing this flow is never
                            // clobbered.
                            move |w: &World<L>| {
                                w.dex
                                    .unregister_copy_tx(&w.chain, &key, &resource, &device, now)
                            }
                        };
                        let (flow, poll) = TxFlow::start(world, endpoint, build);
                        match poll {
                            FlowPoll::Sleep(at) => Step::Sleep(
                                Machine::Obligation(Box::new(ObligationRun {
                                    device,
                                    resource,
                                    phase: ObligationPhase::Confirm(flow),
                                })),
                                at,
                            ),
                            FlowPoll::Done(res) => Self::finish(world, device, resource, res),
                        }
                    }
                }
            }
            ObligationPhase::Confirm(mut flow) => match flow.step(world) {
                FlowPoll::Sleep(at) => Step::Sleep(
                    Machine::Obligation(Box::new(ObligationRun {
                        device,
                        resource,
                        phase: ObligationPhase::Confirm(flow),
                    })),
                    at,
                ),
                FlowPoll::Done(res) => Self::finish(world, device, resource, res),
            },
        }
    }

    fn finish(
        world: &mut World<L>,
        device: String,
        resource: String,
        res: Result<Receipt, OracleError>,
    ) -> Step<L> {
        match res.map_err(ProcessError::from).and_then(receipt_ok) {
            Ok(receipt) => {
                // The contract's freshness guard returns `(false,)` when a
                // racing re-access re-registered the copy: the local
                // deletion of the *old* copy stands, but no registry
                // change was anchored.
                let removed = duc_codec::decode_from_slice::<(bool,)>(&receipt.return_data)
                    .map(|(r,)| r)
                    .unwrap_or(false);
                if removed {
                    world.metrics.incr("enforcement.evidence_anchored");
                } else {
                    world.metrics.incr("enforcement.anchor_superseded");
                }
                Step::Done(Ok(Outcome::ObligationsEnforced {
                    device,
                    resource,
                    deleted: removed,
                }))
            }
            Err(e) => {
                // The local deletion stands (fail-safe); only the on-chain
                // anchor is missing. Monitoring surfaces the stale
                // registry entry, exactly as for a crashed device.
                world.metrics.incr("enforcement.anchor_failed");
                Step::Done(Err(e))
            }
        }
    }
}

impl<L: Ledger> World<L> {
    /// Registers (or refreshes) the obligation wakeup for one governed
    /// copy: the next retention/expiry deadline of `resource` on `device`,
    /// mapped through the world's [`EnforcementMode`]. A no-op when the
    /// copy has no deadline; an existing wakeup at a different instant is
    /// cancelled first.
    pub fn schedule_obligation(&mut self, device: &str, resource: &str) {
        let Some(dev) = self.devices.get(device) else {
            return;
        };
        let Some(due) = dev.tee.next_deadline_for(resource) else {
            return;
        };
        let at = match self.config.enforcement {
            EnforcementMode::Deadline => due,
            EnforcementMode::Periodic(period) => grid_instant(due, period),
        };
        self.arm_obligation(device, resource, at);
    }

    /// Like [`World::schedule_obligation`], but never earlier than the
    /// first instant strictly after `floor` — used to re-arm an
    /// already-overdue wakeup (a rogue host under the periodic baseline,
    /// or a healed rogue host) without refiring at the same instant.
    pub(crate) fn schedule_obligation_after(
        &mut self,
        device: &str,
        resource: &str,
        floor: SimTime,
    ) {
        let Some(dev) = self.devices.get(device) else {
            return;
        };
        let Some(due) = dev.tee.next_deadline_for(resource) else {
            return;
        };
        let next = SimTime::from_nanos(floor.as_nanos().saturating_add(1));
        let at = match self.config.enforcement {
            EnforcementMode::Deadline => due.max(next),
            EnforcementMode::Periodic(period) => grid_instant(due.max(next), period),
        };
        self.arm_obligation(device, resource, at);
    }

    fn arm_obligation(&mut self, device: &str, resource: &str, at: SimTime) {
        // Interned key: re-arming on every policy change costs two u32
        // hashes, not two String allocations.
        let key = (self.ids.intern(device), self.ids.intern(resource));
        if let Some((scheduled_at, id)) = self.driver.scheduled_obligations.get(&key) {
            if *scheduled_at == at {
                return;
            }
            self.sched.cancel(*id);
        }
        let queue = self.driver.obligation_woken.clone();
        let id = self
            .sched
            .schedule_at(at, move |_| queue.borrow_mut().push_back(key));
        self.driver.scheduled_obligations.insert(key, (at, id));
    }
}

/// The first instant on the `period` grid at or after `due` (the
/// round-based baseline: a duty waits for the next periodic sweep).
fn grid_instant(due: SimTime, period: SimDuration) -> SimTime {
    let p = period.as_nanos().max(1);
    let due_n = due.as_nanos();
    let rem = due_n % p;
    if rem == 0 {
        due
    } else {
        SimTime::from_nanos(due_n.saturating_add(p - rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rounds_up_to_the_period() {
        let p = SimDuration::from_secs(10);
        assert_eq!(
            grid_instant(SimTime::from_secs(25), p),
            SimTime::from_secs(30)
        );
        assert_eq!(
            grid_instant(SimTime::from_secs(30), p),
            SimTime::from_secs(30)
        );
        assert_eq!(grid_instant(SimTime::ZERO, p), SimTime::ZERO);
    }
}
