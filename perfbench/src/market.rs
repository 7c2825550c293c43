//! `market`: the read path at population scale.
//!
//! Owners with one resource each, one device per owner, Zipf popularity.
//! Each wave is one burst of process-3 indexing requests for the pairs not
//! yet indexed, then one burst of process-4 accesses for 128 distinct
//! (device, resource) pairs. Between waves: exponential think time through
//! `World::advance`, and a few devices churn out while fresh ones subscribe
//! through `World::submit`. Closed loop: the next burst starts when the previous
//! one has completed.

use std::collections::{BTreeSet, HashSet};
use std::time::Instant;

use duc_blockchain::{Blockchain, StorageConfig};
use duc_core::scenario::{self, PopulationSpec, POPULATION_PATH};
use duc_core::{Request, World};
use duc_policy::UsagePolicy;
use duc_sim::{Rng, SimDuration};

use crate::common::{self, Counters, Episode, Zipf};
use crate::harness::{finish_episode, run_burst, set_phase};
use crate::speed::{self, Interval};
use crate::trace::Tracer;

/// Mean think time between waves.
const MEAN_GAP_MS: f64 = 500.0;

/// Zipf exponent of resource popularity.
const ZIPF_S: f64 = 1.1;

#[derive(Debug, Clone, Copy)]
pub struct MarketScale {
    pub owners: usize,
    pub waves: usize,
    pub per_wave: usize,
    pub churn: usize,
}

impl MarketScale {
    pub const FULL: MarketScale = MarketScale {
        owners: 10_000,
        waves: 150,
        per_wave: 128,
        churn: 4,
    };
    pub const TINY: MarketScale = MarketScale {
        owners: 48,
        waves: 6,
        per_wave: 16,
        churn: 2,
    };
}

/// One wave's pre-generated requests.
struct Wave {
    gap_ms: u64,
    /// Fresh devices `(name, webid)` that subscribe before the wave.
    enroll: Vec<(String, String)>,
    /// `(device, resource)` pairs to index, then to access.
    index: Vec<(String, String)>,
    access: Vec<(String, String)>,
}

pub struct Market {
    scale: MarketScale,
    seed: u64,
    waves: Option<Vec<Wave>>,
    policies: Vec<UsagePolicy>,
}

impl Market {
    pub fn new(scale: MarketScale, seed: u64) -> Market {
        Market {
            scale,
            seed,
            waves: None,
            policies: Vec::new(),
        }
    }

    /// Generates every wave from the seed. The live fleet evolves exactly
    /// as the measured phase will evolve it (retire from the front, enroll
    /// at the back), so each request names its device up front.
    fn generate(&mut self, pop: &scenario::Population, world: &World<Blockchain>) {
        let s = self.scale;
        let mut rng = Rng::seed_from_u64(self.seed ^ 0x6d61_726b_6574);
        let zipf = Zipf::new(pop.resources.len(), ZIPF_S);
        let mut fleet = pop.devices.clone();
        let mut indexed: HashSet<(String, usize)> = HashSet::new();
        let mut spawned = 0usize;
        let mut waves = Vec::with_capacity(s.waves);
        let mut used_ranks = BTreeSet::new();
        for w in 0..s.waves {
            let mut wave = Wave {
                gap_ms: 0,
                enroll: Vec::new(),
                index: Vec::new(),
                access: Vec::new(),
            };
            if w > 0 {
                wave.gap_ms = rng.gen_exponential(MEAN_GAP_MS) as u64 + 1;
                let churn = s.churn.min(fleet.len().saturating_sub(1));
                fleet.drain(..churn);
                for _ in 0..churn {
                    let name = format!("bench-dev-{spawned}");
                    let webid = format!("https://bd{spawned}.id/me");
                    spawned += 1;
                    fleet.push(name.clone());
                    wave.enroll.push((name, webid));
                }
            }
            let mut picks: BTreeSet<(usize, usize)> = BTreeSet::new();
            let mut attempts = 0;
            while picks.len() < s.per_wave && attempts < s.per_wave * 8 {
                attempts += 1;
                let rank = zipf.draw(&mut rng);
                let dev = rng.gen_range(fleet.len() as u64) as usize;
                picks.insert((dev, rank));
            }
            for &(dev, rank) in &picks {
                let pair = (fleet[dev].clone(), pop.resources[rank].clone());
                if indexed.insert((pair.0.clone(), rank)) {
                    wave.index.push(pair.clone());
                }
                wave.access.push(pair);
                used_ranks.insert(rank);
            }
            waves.push(wave);
        }
        self.policies = used_ranks
            .into_iter()
            .map(|rank| {
                world
                    .owner(&pop.owners[rank])
                    .pod_manager
                    .policy_for(POPULATION_PATH)
                    .expect("population policy attached")
                    .clone()
            })
            .collect();
        self.waves = Some(waves);
    }

    pub fn episode(&mut self, tr: &mut Tracer) -> (Episode, World<Blockchain>) {
        let mut ep = Episode {
            traced: tr.is_on(),
            ..Episode::default()
        };
        set_phase("market setup");
        speed::probe(common::SETUP_PROBES);
        let t0 = Instant::now();
        let mut world = World::new(common::world_config(self.seed, StorageConfig::disabled()));
        let spec = PopulationSpec {
            owners: self.scale.owners,
            devices_per_owner: 1,
            ..PopulationSpec::default()
        };
        let pop = scenario::populate_population(&mut world, &spec);
        ep.setup.push(Interval::since(t0));
        speed::probe(common::SETUP_PROBES);
        ep.rss_setup_mib = common::rss_mib();

        set_phase("market inputs");
        if self.waves.is_none() {
            self.generate(&pop, &world);
        }
        let waves = self.waves.as_ref().expect("generated");

        set_phase("market measure");
        ep.before = Counters::read(&world);
        for (w, wave) in waves.iter().enumerate() {
            speed::probe(1);
            let t0 = Instant::now();
            if wave.gap_ms > 0 {
                let s = tr.begin("core.advance");
                world.advance(SimDuration::from_millis(wave.gap_ms));
                tr.end(s);
            }
            if !wave.enroll.is_empty() {
                let s = tr.begin("core.add_device");
                for (name, webid) in &wave.enroll {
                    world.add_device(name.clone(), webid.clone());
                }
                tr.end(s);
                let subs = wave
                    .enroll
                    .iter()
                    .map(|(name, _)| Request::MarketSubscribe {
                        device: name.clone(),
                    });
                run_burst(&mut world, tr, &mut ep, subs, |_, _| {});
            }
            ep.segments.push((Interval::since(t0), None));
            let t0 = Instant::now();
            let span = tr.begin("bench.wave");
            if !wave.index.is_empty() {
                let s = tr.begin("core.index_burst");
                let reqs = wave.index.iter().map(|(d, r)| Request::ResourceIndexing {
                    device: d.clone(),
                    resource: r.clone(),
                });
                run_burst(&mut world, tr, &mut ep, reqs, |_, _| {});
                tr.end(s);
            }
            let reqs = wave.access.iter().map(|(d, r)| Request::ResourceAccess {
                device: d.clone(),
                resource: r.clone(),
            });
            run_burst(&mut world, tr, &mut ep, reqs, |_, _| {});
            tr.end(span);
            ep.segments.push((Interval::since(t0), Some(w)));
        }
        ep.after = Counters::read(&world);

        set_phase("market epilogue");
        finish_episode(&world, &mut ep, &self.policies);
        (ep, world)
    }
}
