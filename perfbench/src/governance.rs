//! `governance`: the write side of usage control.
//!
//! A small market (64 owners × 16 devices; every device holds copies of two
//! resources, so each resource has 32 holders) runs a fixed number of
//! cycles, round-robin over the resources. Each cycle: the resource's
//! holders re-access it in one burst; its owner sets retention to 60 s or
//! 90 s (alternating each pass over the owners) through a policy
//! modification; one monitoring round runs; then `World::advance(120 s)`
//! lets the deadline deletions fire. Closed loop, one client per step.
//!
//! The run is defined by its cycle count, not by time: push-out deliveries
//! grow with run length (every access adds a policy-update subscription),
//! so per-cycle cost depends on how many cycles came before.

use std::time::Instant;

use duc_blockchain::{Blockchain, StorageConfig};
use duc_core::scenario::{self, PopulationSpec, POPULATION_PATH};
use duc_core::{Outcome, Request, World};
use duc_policy::{Action, Constraint, Duty, Rule, UsagePolicy};
use duc_sim::{Rng, SimDuration};

use crate::common::{self, Counters, Episode};
use crate::harness::{finish_episode, run_burst, set_phase};
use crate::speed::{self, Interval};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct GovernanceScale {
    pub owners: usize,
    pub devices_per_owner: usize,
    pub cycles: usize,
}

impl GovernanceScale {
    pub const FULL: GovernanceScale = GovernanceScale {
        owners: 64,
        devices_per_owner: 16,
        cycles: 256,
    };
    pub const TINY: GovernanceScale = GovernanceScale {
        owners: 4,
        devices_per_owner: 4,
        cycles: 8,
    };
}

/// Copies each device holds.
const COPIES_PER_DEVICE: usize = 2;
/// Simulated time between cycles (longer than either retention bound).
const CYCLE_ADVANCE: SimDuration = SimDuration::from_secs(120);

struct Cycle {
    owner: String,
    resource: String,
    holders: Vec<String>,
    retention_s: u64,
}

struct Inputs {
    cycles: Vec<Cycle>,
    /// The policies the modifications install, in cycle order.
    policies: Vec<UsagePolicy>,
}

pub struct Governance {
    scale: GovernanceScale,
    seed: u64,
    inputs: Option<Inputs>,
}

/// The policy a modification installs: use within `retention_s`, deletion
/// owed at the deadline.
fn retention_terms(retention_s: u64) -> (Vec<Rule>, Vec<Duty>) {
    let bound = SimDuration::from_secs(retention_s);
    (
        vec![Rule::permit([Action::Use]).with_constraint(Constraint::MaxRetention(bound))],
        vec![Duty::DeleteWithin(bound), Duty::LogAccesses],
    )
}

impl Governance {
    pub fn new(scale: GovernanceScale, seed: u64) -> Governance {
        Governance {
            scale,
            seed,
            inputs: None,
        }
    }

    /// Assigns holders from a seeded shuffle of the fleet (device `i` of
    /// the shuffle holds resources `i` and `i + n/2`, modulo the resource
    /// count) and lays out the cycle schedule.
    fn generate(&self, pop: &scenario::Population) -> Inputs {
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x676f_7665_726e);
        let n = pop.resources.len();
        let mut fleet = pop.devices.clone();
        rng.shuffle(&mut fleet);
        let mut holders: Vec<Vec<String>> = vec![Vec::new(); n];
        for (i, device) in fleet.iter().enumerate() {
            for k in 0..COPIES_PER_DEVICE {
                let r = (i + k * n / COPIES_PER_DEVICE) % n;
                holders[r].push(device.clone());
            }
        }
        let mut cycles = Vec::with_capacity(self.scale.cycles);
        let mut policies = Vec::with_capacity(self.scale.cycles);
        for c in 0..self.scale.cycles {
            let r = c % n;
            let retention_s = if (c / n).is_multiple_of(2) { 60 } else { 90 };
            let (rules, duties) = retention_terms(retention_s);
            let mut builder = UsagePolicy::builder(
                format!("{}#policy", pop.resources[r]),
                &pop.resources[r],
                &pop.owners[r],
            );
            for rule in rules {
                builder = builder.rule(rule);
            }
            for duty in duties {
                builder = builder.duty(duty);
            }
            policies.push(builder.build());
            cycles.push(Cycle {
                owner: pop.owners[r].clone(),
                resource: pop.resources[r].clone(),
                holders: holders[r].clone(),
                retention_s,
            });
        }
        Inputs { cycles, policies }
    }

    pub fn episode(&mut self, tr: &mut Tracer) -> (Episode, World<Blockchain>) {
        let mut ep = Episode {
            traced: tr.is_on(),
            ..Episode::default()
        };
        set_phase("governance setup");
        speed::probe(common::SETUP_PROBES);
        let t0 = Instant::now();
        let mut world = World::new(common::world_config(self.seed, StorageConfig::disabled()));
        let spec = PopulationSpec {
            owners: self.scale.owners,
            devices_per_owner: self.scale.devices_per_owner,
            ..PopulationSpec::default()
        };
        let pop = scenario::populate_population(&mut world, &spec);
        ep.setup.push(Interval::since(t0));

        set_phase("governance inputs");
        if self.inputs.is_none() {
            self.inputs = Some(self.generate(&pop));
        }
        let inputs = self.inputs.as_ref().expect("generated");

        // Every holder indexes and fetches its copies: the rest of the
        // set-up, through `World::submit`, one resource's holders per burst (a
        // block fits six copy registrations, so a fleet-wide burst would
        // outlast the confirmation timeout).
        set_phase("governance setup");
        let mut setup_ep = Episode::default();
        let mut untraced = Tracer::new(false);
        for cycle in inputs.cycles.iter().take(pop.resources.len()) {
            speed::probe(1);
            let t0 = Instant::now();
            let index = cycle.holders.iter().map(|d| Request::ResourceIndexing {
                device: d.clone(),
                resource: cycle.resource.clone(),
            });
            run_burst(&mut world, &mut untraced, &mut setup_ep, index, |_, _| {});
            let access = cycle.holders.iter().map(|d| Request::ResourceAccess {
                device: d.clone(),
                resource: cycle.resource.clone(),
            });
            run_burst(&mut world, &mut untraced, &mut setup_ep, access, |_, _| {});
            ep.setup.push(Interval::since(t0));
        }
        speed::probe(common::SETUP_PROBES);
        ep.rss_setup_mib = common::rss_mib();
        if setup_ep.failed > 0 {
            ep.check = Some(format!("set-up copies failed: {:?}", setup_ep.failures));
        }

        set_phase("governance measure");
        ep.before = Counters::read(&world);
        for (c, cycle) in inputs.cycles.iter().enumerate() {
            speed::probe(1);
            let t0 = Instant::now();
            let span = tr.begin("bench.cycle");
            let reqs = cycle.holders.iter().map(|d| Request::ResourceAccess {
                device: d.clone(),
                resource: cycle.resource.clone(),
            });
            run_burst(&mut world, tr, &mut ep, reqs, |_, _| {});

            let (rules, duties) = retention_terms(cycle.retention_s);
            let m = Instant::now();
            let modification = Request::PolicyModification {
                webid: cycle.owner.clone(),
                path: POPULATION_PATH.to_string(),
                rules,
                duties,
            };
            run_burst(&mut world, tr, &mut ep, [modification], |out, ep| {
                if let Outcome::PolicyPropagated(p) = out {
                    ep.devices_notified += p.devices_notified as u64;
                }
            });
            ep.mod_ms.push(common::ms(m.elapsed()));

            let m = Instant::now();
            let monitoring = Request::PolicyMonitoring {
                webid: cycle.owner.clone(),
                path: POPULATION_PATH.to_string(),
            };
            run_burst(&mut world, tr, &mut ep, [monitoring], |_, _| {});
            ep.mon_ms.push(common::ms(m.elapsed()));
            tr.end(span);
            ep.segments.push((Interval::since(t0), Some(c)));

            let t0 = Instant::now();
            let s = tr.begin("core.advance");
            world.advance(CYCLE_ADVANCE);
            tr.end(s);
            ep.segments.push((Interval::since(t0), None));
        }
        ep.after = Counters::read(&world);

        set_phase("governance epilogue");
        let policies = &self.inputs.as_ref().expect("generated").policies;
        finish_episode(&world, &mut ep, policies);
        (ep, world)
    }
}
