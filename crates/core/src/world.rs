//! The simulated deployment: all components of Fig. 1, wired together.

use duc_blockchain::{
    Address, Blockchain, ContractId, ExecMode, Ledger, ShardedLedger, StorageConfig,
};
use duc_contracts::{topics, DistExchange, DistExchangeClient, PolicyEnvelope, DEX_CONTRACT_ID};
use duc_crypto::KeyPair;
use duc_intern::{Registry, SharedInterner};
use duc_oracle::{PullInOracle, PullOutOracle, PushInOracle, PushOutOracle};
use duc_policy::{PolicyEngine, UsagePolicy};
use duc_sim::{
    Clock, EndpointId, FaultPlan, LinkConfig, MetricsRegistry, NetworkModel, Rng, Scheduler,
    SimDuration, TraceRecorder,
};
use duc_solid::PodManager;
use duc_tee::{AttestationAuthority, Enclave, TrustedApplication};

/// How TEE obligations (retention/expiry deletion, notification) are
/// driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementMode {
    /// Deadline-driven (the default): the driver's obligation scheduler
    /// registers a wakeup at each copy's exact `next_transition` /
    /// deadline instant, so enforcement fires the moment a decision can
    /// flip — no polling.
    Deadline,
    /// Round-based baseline (experiment E14): obligations are only
    /// checked on a fixed-period grid, so a violation waits for the next
    /// sweep — the behaviour the paper's round-based monitoring implies.
    Periodic(SimDuration),
}

/// Configuration for one simulated deployment.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed (the whole run is a function of this and the workload).
    pub seed: u64,
    /// PoA validator count.
    pub validators: usize,
    /// Block interval.
    pub block_interval: SimDuration,
    /// Default network link profile.
    pub link: LinkConfig,
    /// Market subscription fee (native tokens).
    pub market_fee: u128,
    /// Certificate validity window.
    pub cert_validity: SimDuration,
    /// Store usage policies on-chain encrypted (privacy experiment E9).
    pub encrypt_policies: bool,
    /// Record a structured trace of every process hop.
    pub trace: bool,
    /// Genesis balance for every participant.
    pub initial_balance: u128,
    /// Shard count for multi-chain backends ([`World::new_sharded`]);
    /// single-chain worlds ignore it.
    pub shards: usize,
    /// Obligation-enforcement mode (see [`EnforcementMode`]).
    pub enforcement: EnforcementMode,
    /// Block/state storage policy: checkpoint interval, retained block
    /// window and optional archive path (disabled by default — every
    /// block stays resident, the pre-storage behaviour).
    pub storage: StorageConfig,
    /// Block-execution mode. It has one value, [`ExecMode::Serial`], and
    /// nothing reads it; it stays only because the benchmark package
    /// names it.
    pub exec_mode: ExecMode,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 42,
            validators: 4,
            block_interval: SimDuration::from_secs(2),
            link: LinkConfig::default(),
            market_fee: 10_000,
            cert_validity: SimDuration::from_days(30),
            encrypt_policies: false,
            trace: false,
            initial_balance: 10_000_000_000,
            shards: 1,
            enforcement: EnforcementMode::Deadline,
            storage: StorageConfig::disabled(),
            exec_mode: ExecMode::Serial,
        }
    }
}

/// The fault-plan state a world has currently pushed into its components
/// (network model + chain). Diffed against the plan at every transition
/// boundary; manual fault toggles outside the plan are never clobbered.
#[derive(Debug, Clone, Default)]
struct AppliedFaults {
    crashed: std::collections::BTreeSet<EndpointId>,
    partitioned: std::collections::BTreeSet<(EndpointId, EndpointId)>,
    lossy: std::collections::BTreeMap<(EndpointId, EndpointId), u16>,
    stalled: std::collections::BTreeSet<usize>,
}

/// A data owner: a chain identity plus a pod manager.
pub struct Owner {
    /// Chain signing key.
    pub key: KeyPair,
    /// The pod manager fronting the owner's pod.
    pub pod_manager: PodManager,
    /// The pod manager's network endpoint.
    pub endpoint: EndpointId,
    /// Whether the pod has been registered on-chain (process 1 done).
    pub pod_registered: bool,
}

/// What a device learned about a resource from the DE App (paper process 3
/// stores these "in the TEE").
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// Physical location of the resource.
    pub location: String,
    /// WebID of the data owner.
    pub owner_webid: String,
    /// The usage policy at indexing time.
    pub policy: UsagePolicy,
}

/// A consumer device: a chain identity plus a TEE.
pub struct Device {
    /// WebID of the consumer operating the device.
    pub webid: String,
    /// Chain signing key (pays for copy registration and evidence).
    pub key: KeyPair,
    /// The trusted application in this device's enclave.
    pub tee: TrustedApplication,
    /// The device's network endpoint.
    pub endpoint: EndpointId,
    /// Market certificate, once subscribed.
    pub certificate: Option<duc_crypto::Digest>,
    /// Indexed resources by IRI (interned in the world's symbol space).
    pub indexed: Registry<IndexEntry>,
}

/// One simulated deployment of the whole architecture, generic over the
/// [`Ledger`] backend hosting the DE App. The default is the legacy
/// single-chain backend ([`World::new`]); [`World::new_sharded`] builds the
/// same deployment over a [`ShardedLedger`].
pub struct World<L = Blockchain> {
    /// Deployment configuration.
    pub config: WorldConfig,
    /// Logical clock shared by every component.
    pub clock: Clock,
    /// The network model.
    pub net: NetworkModel,
    /// Seeded randomness.
    pub rng: Rng,
    /// The ledger hosting the DE App.
    pub chain: L,
    /// Typed DE App client.
    pub dex: DistExchangeClient,
    /// Push-in oracle (off-chain → chain transactions).
    pub push_in: PushInOracle,
    /// Push-out oracle (chain events → devices/pod managers).
    pub push_out: PushOutOracle,
    /// Pull-out oracle (off-chain reads of chain state).
    pub pull_out: PullOutOracle,
    /// Pull-in oracle (chain-initiated data requests).
    pub pull_in: PullInOracle,
    /// The attestation authority trusted by the DE App deployment.
    pub attestation: AttestationAuthority,
    /// The world's shared identity table: WebIDs, device names, pod URLs
    /// and resource IRIs all intern into one symbol space, so the hot-path
    /// maps below key on `u32` symbols instead of re-hashing strings.
    pub ids: SharedInterner,
    /// Data owners by WebID (flat, interned; deterministic iteration).
    pub owners: Registry<Owner>,
    /// Consumer devices by device name (flat, interned).
    pub devices: Registry<Device>,
    /// Collected measurements.
    pub metrics: MetricsRegistry,
    /// Structured event trace (enabled by [`WorldConfig::trace`]).
    pub trace: TraceRecorder,
    /// The chain gateway endpoint (where view calls land).
    pub gateway: EndpointId,
    /// The discrete-event scheduler driving in-flight request machines
    /// (shares this world's clock).
    pub sched: Scheduler,
    /// Non-blocking request driver bookkeeping (see [`crate::driver`]).
    pub(crate) driver: crate::driver::DriverState<L>,
    /// The declarative fault plan driving chaos runs (see
    /// [`World::set_fault_plan`]).
    fault_plan: FaultPlan,
    /// Fault-plan state currently applied to the components, so boundary
    /// transitions toggle exactly what the plan controls and nothing else.
    applied_faults: AppliedFaults,
    /// Devices whose hosts suppress enclave timers (fault injection).
    rogue_hosts: std::collections::HashSet<String>,
    /// Devices whose trusted application reported a damaged state
    /// ([`duc_tee::TeeError`]): excluded from the deadline poll so a
    /// permanently faulted enclave cannot pin [`World::advance`] to the
    /// same overdue instant forever.
    tee_faulted: std::collections::HashSet<String>,
    /// Key material for encrypted policy envelopes (E9). In a production
    /// deployment this would come from a key-distribution service; the
    /// simulation provisions it to owners and TEEs out of band.
    pub policy_key: ([u8; 32], [u8; 12]),
    engine: PolicyEngine,
}

impl World {
    /// Builds a deployment over the legacy single-chain backend: chain +
    /// DE App + oracles, no participants yet.
    pub fn new(config: WorldConfig) -> World {
        let chain = Blockchain::builder()
            .validators(config.validators)
            .block_interval(config.block_interval)
            .storage(config.storage.clone())
            .build();
        World::with_ledger(config, chain)
    }
}

impl World<ShardedLedger> {
    /// Builds the same deployment over a [`ShardedLedger`] with
    /// [`WorldConfig::shards`] independent chains, the DE App deployed and
    /// initialized on each, and the DE App router installed
    /// (`duc_contracts::routing`).
    pub fn new_sharded(config: WorldConfig) -> World<ShardedLedger> {
        let chain = ShardedLedger::new(
            config.shards.max(1),
            config.validators,
            config.block_interval,
        )
        .with_storage(config.storage.clone())
        .with_router(duc_contracts::routing::dex_router());
        World::with_ledger(config, chain)
    }
}

impl<L: Ledger> World<L> {
    /// Builds a deployment on a caller-supplied [`Ledger`] backend: deploys
    /// the DE App on every shard, runs the per-shard market initialization,
    /// and wires the oracles. For the single-chain backend this is
    /// step-for-step the pre-trait constructor (byte-identical runs).
    pub fn with_ledger(config: WorldConfig, mut chain: L) -> World<L> {
        chain.deploy_with(ContractId::new(DEX_CONTRACT_ID), &|| {
            Box::new(DistExchange::default())
        });
        let dex = DistExchangeClient::new();

        // Market initialization by a deployment admin, once per shard.
        let admin = chain.create_funded_account(b"duc/market-admin", 1_000_000_000);
        let treasury = Address::from_seed(b"duc/market-treasury");
        for shard in 0..chain.shard_count() {
            let init = dex.init_tx_on(
                &chain,
                shard,
                &admin,
                config.market_fee,
                config.cert_validity.as_nanos(),
                treasury,
            );
            chain.submit_on(shard, init).expect("genesis init is valid");
        }
        chain.advance_to(duc_sim::SimTime::ZERO + config.block_interval);

        let mut net = NetworkModel::new(config.link.clone());
        let relay = net.add_endpoint("oracle-relay");
        let gateway = net.add_endpoint("chain-gateway");

        let clock = Clock::new();
        clock.advance(config.block_interval); // genesis block has passed
        let trace = if config.trace {
            TraceRecorder::new()
        } else {
            TraceRecorder::disabled()
        };
        let ids = SharedInterner::new();
        World {
            rng: Rng::seed_from_u64(config.seed),
            sched: Scheduler::new(clock.clone()),
            driver: crate::driver::DriverState::new(),
            fault_plan: FaultPlan::none(),
            applied_faults: AppliedFaults::default(),
            push_in: PushInOracle::new(relay),
            push_out: PushOutOracle::new(relay),
            pull_out: PullOutOracle::new(relay),
            pull_in: PullInOracle::new(relay, topics::MONITORING_REQUESTED),
            attestation: AttestationAuthority::new(b"duc/attestation-root"),
            owners: Registry::new(ids.clone()),
            devices: Registry::new(ids.clone()),
            ids,
            metrics: MetricsRegistry::new(),
            trace,
            gateway,
            rogue_hosts: std::collections::HashSet::new(),
            tee_faulted: std::collections::HashSet::new(),
            policy_key: ([0x42; 32], [0x17; 12]),
            engine: PolicyEngine::default(),
            config,
            clock,
            net,
            chain,
            dex,
        }
    }

    /// The policy engine (standard purpose taxonomy).
    pub fn engine(&self) -> &PolicyEngine {
        &self.engine
    }

    /// Registers a data owner with a pod rooted at `pod_root`.
    /// (Participant setup; the on-chain half happens in process 1.)
    pub fn add_owner(&mut self, webid: impl Into<String>, pod_root: impl Into<String>) {
        let webid = webid.into();
        let pod_root = pod_root.into();
        let key = self
            .chain
            .create_funded_account(webid.as_bytes(), self.config.initial_balance);
        // Sharded backends co-locate everything the owner anchors: resource
        // IRIs under the pod root route to the owner's shard.
        self.chain.register_route_alias(&pod_root, &webid);
        let endpoint = self.net.add_endpoint(format!("pod-manager:{webid}"));
        let owner = Owner {
            key,
            pod_manager: PodManager::new(pod_root, webid.clone()),
            endpoint,
            pod_registered: false,
        };
        self.owners.insert(&webid, owner);
    }

    /// Registers a consumer device operated by `webid`, running the
    /// canonical trusted application (whitelisted with the attestation
    /// authority).
    pub fn add_device(&mut self, device: impl Into<String>, webid: impl Into<String>) {
        let device = device.into();
        let webid = webid.into();
        let enclave = Enclave::new(device.clone(), b"duc/trusted-app-v1");
        self.attestation.trust_measurement(enclave.measurement());
        let key = self
            .chain
            .create_funded_account(device.as_bytes(), self.config.initial_balance);
        let endpoint = self.net.add_endpoint(format!("device:{device}"));
        self.devices.insert(
            &device,
            Device {
                tee: TrustedApplication::new(enclave, webid.clone()),
                webid,
                key,
                endpoint,
                certificate: None,
                indexed: Registry::new(self.ids.clone()),
            },
        );
    }

    /// Wraps a policy for on-chain storage per the deployment's privacy
    /// configuration.
    pub fn envelope(&self, policy: &UsagePolicy) -> PolicyEnvelope {
        if self.config.encrypt_policies {
            PolicyEnvelope::sealed(policy, self.policy_key.0, self.policy_key.1)
        } else {
            PolicyEnvelope::plain(policy)
        }
    }

    /// Opens an on-chain policy envelope per the deployment configuration.
    ///
    /// # Errors
    /// Propagates envelope decode errors (wrong key, corrupt bytes).
    pub fn open_envelope(
        &self,
        env: &PolicyEnvelope,
    ) -> Result<UsagePolicy, duc_codec::DecodeError> {
        if env.encrypted {
            env.open(Some(self.policy_key))
        } else {
            env.open(None)
        }
    }

    /// Produces blocks due at the current clock and returns the height.
    ///
    /// When the chain prunes behind a checkpoint, idle oracle cursors are
    /// fast-forwarded to the new horizon (the relay observing the
    /// checkpoint announcement): every event below it is evicted, so the
    /// lift is exactly the resync the next poll would be forced into, and
    /// cursors stay within `[prune_horizon, height]` at every quiescent
    /// point (a chaos invariant).
    pub fn sync_chain(&mut self) -> u64 {
        self.chain.advance_to(self.clock.now());
        let horizon = self.chain.prune_horizon();
        if horizon > 0 {
            self.push_out.resync(horizon);
            self.pull_in.resync(horizon);
        }
        self.chain.height()
    }

    /// Installs a declarative [`FaultPlan`] for this run.
    ///
    /// Crashes, partitions, drop windows and validator stalls flip at
    /// exactly their declared boundaries while the event loop runs: the
    /// plan's transition instants are scheduled as events, so every hop of
    /// every in-flight process observes the fault state of its own instant.
    /// The driver's machines additionally *suspend* hops blocked by a
    /// declared crash/partition window and resume at recovery (see
    /// [`crate::driver`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let now = self.clock.now();
        for boundary in plan.boundaries() {
            if boundary > now {
                // A no-op event: it makes the event loop pause at the
                // boundary, where `apply_faults` flips component state.
                self.sched.schedule_at(boundary, |_| {});
            }
        }
        self.fault_plan = plan;
        self.apply_faults();
    }

    /// The installed fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Synchronizes component fault state (network down/partition/loss,
    /// chain validator stalls) with the plan at the current instant. Only
    /// differences against the previously applied state are toggled, so
    /// manual fault injection outside the plan is preserved.
    pub(crate) fn apply_faults(&mut self) {
        let applied_empty = self.applied_faults.crashed.is_empty()
            && self.applied_faults.partitioned.is_empty()
            && self.applied_faults.lossy.is_empty()
            && self.applied_faults.stalled.is_empty();
        if self.fault_plan.is_empty() && applied_empty {
            return;
        }
        let now = self.clock.now();
        let mut applied = std::mem::take(&mut self.applied_faults);

        let crashed = self.fault_plan.crashed_at(now);
        for ep in applied.crashed.difference(&crashed) {
            self.net.set_down(*ep, false);
        }
        for ep in crashed.difference(&applied.crashed) {
            self.net.set_down(*ep, true);
        }
        applied.crashed = crashed;

        let partitioned = self.fault_plan.partitions_at(now);
        for (a, b) in applied.partitioned.difference(&partitioned) {
            self.net.heal(*a, *b);
        }
        for (a, b) in partitioned.difference(&applied.partitioned) {
            self.net.partition(*a, *b);
        }
        applied.partitioned = partitioned;

        let lossy = self.fault_plan.lossy_at(now);
        for (pair, _) in applied
            .lossy
            .iter()
            .filter(|(p, _)| !lossy.contains_key(*p))
        {
            self.net.clear_extra_drop(pair.0, pair.1);
        }
        for (pair, per_mille) in &lossy {
            if applied.lossy.get(pair) != Some(per_mille) {
                self.net
                    .set_extra_drop(pair.0, pair.1, f64::from(*per_mille) / 1000.0);
            }
        }
        applied.lossy = lossy;

        let stalled = self.fault_plan.stalled_at(now);
        for idx in applied.stalled.difference(&stalled) {
            self.chain.set_validator_down(*idx, false);
        }
        for idx in stalled.difference(&applied.stalled) {
            self.chain.set_validator_down(*idx, true);
        }
        applied.stalled = stalled;

        self.applied_faults = applied;
    }

    /// Marks a device's host as rogue: its enclave timer interrupts are
    /// suppressed, so obligation sweeps never fire autonomously (the
    /// monitoring experiments use this to create detectable violators; the
    /// enclave still cannot *forge* evidence).
    pub fn set_rogue_host(&mut self, device: impl Into<String>, rogue: bool) {
        let device = device.into();
        if rogue {
            self.rogue_hosts.insert(device);
        } else {
            self.rogue_hosts.remove(&device);
        }
    }

    /// Whether a device's host currently suppresses its enclave timers.
    pub fn is_rogue_host(&self, device: &str) -> bool {
        self.rogue_hosts.contains(device)
    }

    /// Advances simulated time. TEE obligation timers fire at their exact
    /// deadlines along the way (paper §III-C: "the TEE automatically
    /// deletes the resource ... after one week has passed, as per the
    /// policy"), in-flight driver requests progress through their scheduled
    /// continuations, and the chain catches up to the final instant.
    ///
    /// Copies that entered through the driver (process 4) are enforced by
    /// the obligation scheduler's own wakeup events; the deadline poll
    /// below is a fallback for copies stored directly into a TEE by test
    /// or bench harnesses, and is disabled under
    /// [`EnforcementMode::Periodic`] (where the grid wakeups are the whole
    /// point).
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.clock.now() + d;
        loop {
            // Driver work due at the current instant runs first.
            self.step_woken();
            let next_deadline = self.next_obligation_deadline().filter(|at| *at <= target);
            let next_event = self.sched.next_event_at().filter(|at| *at <= target);
            match (next_event, next_deadline) {
                (Some(event_at), deadline) if deadline.is_none_or(|dl| event_at <= dl) => {
                    self.sched.run_until(event_at);
                    // The chain catches up under the pre-boundary fault
                    // state; plan transitions due at this instant flip
                    // afterwards.
                    self.chain.advance_to(self.clock.now());
                    self.apply_faults();
                }
                (_, Some(deadline)) => {
                    self.clock.advance_to(deadline);
                    self.apply_faults();
                    self.sweep_devices();
                }
                _ => break,
            }
        }
        self.step_woken();
        self.clock.advance_to(target);
        self.chain.advance_to(self.clock.now());
        self.apply_faults();
    }

    /// The earliest pending TEE obligation deadline across healthy
    /// devices — the fallback poll [`World::advance`] honours. `None`
    /// under [`EnforcementMode::Periodic`], where the grid wakeups are the
    /// whole point.
    pub fn next_obligation_deadline(&self) -> Option<duc_sim::SimTime> {
        match self.config.enforcement {
            EnforcementMode::Periodic(_) => None,
            EnforcementMode::Deadline => self
                .devices
                .iter()
                .filter(|(name, _)| {
                    !self.rogue_hosts.contains(*name) && !self.tee_faulted.contains(*name)
                })
                .filter_map(|(_, dev)| dev.tee.next_obligation_deadline())
                .min(),
        }
    }

    /// The next logical instant at which this world has internal work: the
    /// scheduler's next event or the next obligation deadline, whichever
    /// comes first. The wall-clock pacing loop mirrors this instant into a
    /// real timer (`duc-runtime`'s drive loop); sim-mode callers can keep
    /// using [`World::advance`] / [`World::run_until_idle`] directly.
    pub fn next_wakeup_at(&mut self) -> Option<duc_sim::SimTime> {
        match (self.sched.next_event_at(), self.next_obligation_deadline()) {
            (Some(event), Some(deadline)) => Some(event.min(deadline)),
            (event, deadline) => event.or(deadline),
        }
    }

    /// Mirrors every metric this world keeps — the sim registry's counters
    /// and histograms, per-method gas from the ledger, the TEE decision
    /// caches — into a shared [`duc_runtime::MetricsHub`], where the
    /// Prometheus endpoint and the bench report read them.
    ///
    /// Counter families keep their dotted registry names, normalised
    /// (`net.messages_sent` → `duc_net_messages_sent_total`); histograms
    /// gain a `_seconds` suffix and are re-bucketed from raw nanosecond
    /// samples. The mirror is idempotent: totals only ever rise
    /// (`counter_raise_to`) and histogram cells are replaced, so periodic
    /// exports and the final flush agree.
    pub fn export_metrics(&mut self, hub: &duc_runtime::MetricsHub) {
        // Network counters are delta-published into the registry on
        // demand; flush them first so the mirror below sees them.
        self.net.publish_metrics(&mut self.metrics);
        for (name, value) in self.metrics.counters() {
            hub.counter_raise_to(&duc_runtime::prom_name(name, "_total"), &[], value);
        }
        let names: Vec<String> = self.metrics.histogram_names().map(str::to_string).collect();
        for name in &names {
            if let Some(h) = self.metrics.histogram(name) {
                hub.mirror_histogram_nanos(
                    &duc_runtime::prom_name(name, "_seconds"),
                    &[],
                    h.samples(),
                );
            }
        }
        for ((contract, method), (calls, total, _max)) in self.chain.gas_by_method() {
            let labels = [("contract", contract.as_str()), ("method", method.as_str())];
            hub.counter_raise_to("duc_gas_calls_total", &labels, calls);
            hub.counter_raise_to("duc_gas_used_total", &labels, total);
        }
        let (mut hits, mut misses) = (0u64, 0u64);
        for (_, device) in self.devices.iter() {
            let (h, m) = device.tee.decision_cache_stats();
            hits += h;
            misses += m;
        }
        // World-state paging residency: gauges for what is resident *now*,
        // monotone counters for eviction/fault-in/compaction traffic. Read
        // from `Ledger::paging_stats()` and only ever surfaced here —
        // they depend on the residency budget, and paged and unpaged runs
        // must fingerprint identically, so these numbers must never enter
        // the sim registry (and hence the replay fingerprint).
        let paging = self.chain.paging_stats();
        hub.gauge_set(
            "duc_state_resident_pages",
            &[],
            paging.resident_pages as f64,
        );
        hub.gauge_set("duc_state_total_pages", &[], paging.total_pages as f64);
        hub.gauge_set(
            "duc_state_resident_bytes",
            &[],
            paging.resident_bytes as f64,
        );
        hub.gauge_set(
            "duc_state_spilled_live_bytes",
            &[],
            paging.spilled_live_bytes as f64,
        );
        hub.counter_raise_to("duc_state_evictions_total", &[], paging.evictions);
        hub.counter_raise_to("duc_state_fault_ins_total", &[], paging.fault_ins);
        hub.counter_raise_to("duc_state_page_compactions_total", &[], paging.compactions);
        hub.set_help(
            "duc_state_resident_pages",
            "World-state pages currently resident in memory.",
        );
        hub.set_help(
            "duc_state_resident_bytes",
            "Bytes of world-state slot data held by resident pages.",
        );
        hub.set_help(
            "duc_state_evictions_total",
            "World-state pages evicted to the spill store.",
        );
        hub.set_help(
            "duc_state_fault_ins_total",
            "World-state pages faulted back in from the spill store.",
        );
        hub.counter_raise_to("duc_tee_decision_cache_total", &[("result", "hit")], hits);
        hub.counter_raise_to(
            "duc_tee_decision_cache_total",
            &[("result", "miss")],
            misses,
        );
        hub.set_help(
            "duc_tee_decision_cache_total",
            "TEE usage-decision cache lookups by result.",
        );
        hub.set_help(
            "duc_gas_used_total",
            "Gas consumed by confirmed contract calls, by contract and method.",
        );
    }

    /// Runs every device's obligation sweep at the current instant (the
    /// TEEs' periodic timers; cf. ablation E11) and returns executed
    /// actions. Deletions also unregister the on-chain copy.
    ///
    /// The unregister confirmation is a *blocking* wait: it advances the
    /// shared clock up to one block. Drive in-flight driver requests to
    /// idle before sweeping (the wrappers and [`World::advance`] do) or
    /// their scheduled wakes fire late by the sweep's confirmation time.
    pub fn sweep_devices(&mut self) -> Vec<(String, duc_tee::EnforcementAction)> {
        let now = self.clock.now();
        let mut all = Vec::new();
        let mut pending = Vec::new();
        let mut names: Vec<String> = self
            .devices
            .keys()
            .filter(|n| !self.rogue_hosts.contains(*n) && !self.tee_faulted.contains(*n))
            .map(str::to_string)
            .collect();
        // Sorted: HashMap iteration order is per-process random, and the
        // unregister transactions below must land in the same order on
        // every identically-seeded run (byte-identical determinism).
        names.sort_unstable();
        for name in names {
            let device = self.devices.get_mut(&name).expect("key exists");
            let actions = match device.tee.sweep(now) {
                Ok(actions) => actions,
                Err(e) => {
                    // A damaged enclave state is permanent: record it and
                    // quarantine the device from the deadline poll, so the
                    // fault surfaces in metrics/trace instead of pinning
                    // the advance loop to the same overdue instant.
                    self.metrics.incr("enforcement.tee_faults");
                    self.tee_faulted.insert(name.clone());
                    self.trace
                        .record(now, format!("tee:{name}"), "tee.fault", e.to_string());
                    continue;
                }
            };
            for action in actions {
                if let duc_tee::EnforcementAction::Deleted { resource, .. } = &action {
                    self.metrics.incr("enforcement.deletions");
                    let tx =
                        self.dex
                            .unregister_copy_tx(&self.chain, &device.key, resource, &name, now);
                    if let Ok(id) = self.chain.submit(tx) {
                        pending.push(id);
                    }
                }
                all.push((name.clone(), action));
            }
        }
        // Confirm *every* unregistration before anything else (e.g. a
        // monitoring round) can race it within one block: awaiting only the
        // last id would let an earlier unregister tx that missed the block
        // slip past the barrier.
        for id in &pending {
            let _ = duc_oracle::await_inclusion(
                &mut self.chain,
                &self.clock,
                id,
                SimDuration::from_secs(120),
            );
        }
        self.sync_chain();
        all
    }

    /// Immutable owner lookup; `None` when the WebID is unknown. Internal
    /// callers that can legitimately see unknown ids (the driver validates
    /// requests against arbitrary input) use this instead of panicking.
    pub fn try_owner(&self, webid: &str) -> Option<&Owner> {
        self.owners.get(webid)
    }

    /// Immutable device lookup; `None` when the device name is unknown.
    pub fn try_device(&self, device: &str) -> Option<&Device> {
        self.devices.get(device)
    }

    /// Immutable owner lookup.
    ///
    /// # Panics
    /// Panics when the owner is unknown — worlds are built by the test or
    /// bench harness, so a missing participant is a harness bug. Use
    /// [`World::try_owner`] for ids that may legitimately be unknown.
    pub fn owner(&self, webid: &str) -> &Owner {
        self.try_owner(webid).expect("unknown owner webid")
    }

    /// Immutable device lookup.
    ///
    /// # Panics
    /// Panics when the device is unknown (harness bug). Use
    /// [`World::try_device`] for ids that may legitimately be unknown.
    pub fn device(&self, device: &str) -> &Device {
        self.try_device(device).expect("unknown device")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_boots_with_initialized_market() {
        let world = World::new(WorldConfig::default());
        assert!(world.chain.has_contract(&ContractId::new(DEX_CONTRACT_ID)));
        assert_eq!(world.chain.height(), 1, "genesis init block");
        assert!(world.dex.list_resources(&world.chain).unwrap().is_empty());
    }

    #[test]
    fn participants_get_funded_accounts_and_endpoints() {
        let mut world = World::new(WorldConfig::default());
        world.add_owner("https://alice.id/me", "https://alice.pod/");
        world.add_device("alice-laptop", "https://alice.id/me");
        let owner = world.owner("https://alice.id/me");
        assert!(
            world
                .chain
                .balance(&Address::from_public_key(&owner.key.public()))
                > 0
        );
        assert_eq!(
            world.net.endpoint_name(owner.endpoint),
            "pod-manager:https://alice.id/me"
        );
        let device = world.device("alice-laptop");
        assert_eq!(device.webid, "https://alice.id/me");
        assert!(device.certificate.is_none());
    }

    #[test]
    fn envelope_respects_privacy_configuration() {
        let plain_world = World::new(WorldConfig::default());
        let sealed_world = World::new(WorldConfig {
            encrypt_policies: true,
            ..WorldConfig::default()
        });
        let policy = UsagePolicy::default_for("urn:r", "urn:o");
        assert!(!plain_world.envelope(&policy).encrypted);
        let env = sealed_world.envelope(&policy);
        assert!(env.encrypted);
        assert_eq!(sealed_world.open_envelope(&env).unwrap(), policy);
        assert_eq!(
            plain_world
                .open_envelope(&plain_world.envelope(&policy))
                .unwrap(),
            policy
        );
    }

    #[test]
    fn advance_moves_clock_and_chain_together() {
        let mut world = World::new(WorldConfig::default());
        let t0 = world.clock.now();
        world.advance(SimDuration::from_secs(10));
        assert_eq!(world.clock.now(), t0 + SimDuration::from_secs(10));
        assert_eq!(world.chain.current_time(), world.clock.now());
    }
}
