//! The four oracle patterns.

use std::rc::Rc;

use duc_blockchain::{
    ContractError, Event, Ledger, PrunedRange, Receipt, SignedTransaction, SubmitError, TxId,
};
use duc_codec::encode_to_vec;
use duc_sim::{Clock, EndpointId, NetworkModel, Rng, SimDuration, SimTime};

/// Which network hop of an oracle interaction failed. Typed so a driver can
/// attribute a failure to a link and decide retry-vs-abort per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// Component → relay uplink of a push-in submission.
    PushInUplink,
    /// Component → relay request of a pull-out read.
    PullOutRequest,
    /// Relay → component response of a pull-out read.
    PullOutResponse,
    /// Device → pod-manager resource request.
    PodRequest,
    /// Pod-manager → device resource response.
    PodResponse,
    /// Relay → gateway poll of the pull-in oracle.
    PullInPoll,
    /// Gateway → relay return of the pull-in oracle.
    PullInReturn,
    /// Relay → device evidence probe of a monitoring round.
    DeviceProbe,
}

impl std::fmt::Display for HopKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HopKind::PushInUplink => "push-in uplink",
            HopKind::PullOutRequest => "pull-out request",
            HopKind::PullOutResponse => "pull-out response",
            HopKind::PodRequest => "pod request",
            HopKind::PodResponse => "pod response",
            HopKind::PullInPoll => "pull-in poll",
            HopKind::PullInReturn => "pull-in return",
            HopKind::DeviceProbe => "device probe",
        })
    }
}

/// Oracle-layer failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The message was lost on the network (after any retries).
    NetworkDropped,
    /// A driver abandoned a hop after exhausting its fault-recovery budget
    /// (bounded retries, or a crash/partition window outlasting the hop
    /// deadline).
    GaveUp {
        /// The hop that could not be completed.
        hop: HopKind,
        /// Delivery attempts actually made before giving up.
        attempts: u32,
        /// The retry deadline that forced the decision.
        deadline: SimTime,
    },
    /// The chain rejected the transaction.
    Rejected(SubmitError),
    /// The transaction was not included before the deadline.
    InclusionTimeout {
        /// The deadline that passed.
        deadline: SimTime,
    },
    /// A view call failed.
    View(ContractError),
    /// The cursor fell below the chain's prune horizon: the requested
    /// event range has been evicted behind a checkpoint. Blind retry can
    /// never succeed — the holder must resync its cursor to the carried
    /// horizon (see `PushOutOracle::resync` / `PullInOracle::resync`)
    /// before polling again.
    Pruned(PrunedRange),
}

impl OracleError {
    /// Whether the failure is *transient*: caused by the network or chain
    /// liveness, so re-issuing the whole operation later (after faults
    /// heal) can plausibly succeed. Permanent failures — contract
    /// rejections, view errors, and pruned cursor ranges (which need an
    /// explicit resync, not a retry) — abort instead of retrying.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            OracleError::NetworkDropped
                | OracleError::GaveUp { .. }
                | OracleError::InclusionTimeout { .. }
        )
    }
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::NetworkDropped => f.write_str("message dropped by network"),
            OracleError::GaveUp {
                hop,
                attempts,
                deadline,
            } => {
                write!(
                    f,
                    "gave up on {hop} after {attempts} attempts (deadline {deadline})"
                )
            }
            OracleError::Rejected(e) => write!(f, "transaction rejected: {e}"),
            OracleError::InclusionTimeout { deadline } => {
                write!(f, "transaction not included by {deadline}")
            }
            OracleError::View(e) => write!(f, "view call failed: {e}"),
            OracleError::Pruned(e) => write!(f, "cursor below prune horizon: {e}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// One observation of a transaction's inclusion state, as seen by a
/// non-blocking caller (see [`poll_inclusion`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InclusionStatus {
    /// The transaction is included; here is its receipt.
    Included(Receipt),
    /// Not included yet; check again at `retry_at` (the next slot boundary,
    /// capped at the deadline).
    Pending {
        /// When the next poll is due.
        retry_at: SimTime,
    },
    /// The deadline passed without inclusion.
    TimedOut {
        /// The deadline that passed.
        deadline: SimTime,
    },
}

/// Non-blocking inclusion check: advances the chain to `now`, looks for a
/// receipt, and — when the transaction is still pending — reports when the
/// caller should poll again instead of spinning the shared clock forward.
///
/// This is the continuation-friendly half of [`await_inclusion`]: a driver
/// schedules a wake-up at `retry_at` and re-polls, so hundreds of in-flight
/// processes can wait for inclusion concurrently without serializing on the
/// clock.
pub fn poll_inclusion<L: Ledger>(
    chain: &mut L,
    now: SimTime,
    id: &TxId,
    deadline: SimTime,
) -> InclusionStatus {
    chain.advance_to(now);
    if let Some(receipt) = chain.receipt(id) {
        return InclusionStatus::Included(receipt);
    }
    if now >= deadline {
        return InclusionStatus::TimedOut { deadline };
    }
    InclusionStatus::Pending {
        retry_at: chain.next_slot_at(now).min(deadline),
    }
}

/// Advances the clock slot-by-slot until `id` has a receipt (inclusion) or
/// the timeout elapses. Models "waiting for confirmation".
///
/// # Errors
/// [`OracleError::InclusionTimeout`] when the deadline passes — e.g. when
/// crashed proposers stall the chain (robustness experiment E8).
pub fn await_inclusion<L: Ledger>(
    chain: &mut L,
    clock: &Clock,
    id: &TxId,
    timeout: SimDuration,
) -> Result<Receipt, OracleError> {
    let deadline = clock.now() + timeout;
    loop {
        match poll_inclusion(chain, clock.now(), id, deadline) {
            InclusionStatus::Included(receipt) => return Ok(receipt),
            InclusionStatus::TimedOut { deadline } => {
                return Err(OracleError::InclusionTimeout { deadline })
            }
            InclusionStatus::Pending { retry_at } => clock.advance_to(retry_at),
        }
    }
}

/// **Push-in**: an off-chain component (pod manager, device) pushes a
/// state-changing transaction to the chain through an oracle relay node.
#[derive(Debug, Clone)]
pub struct PushInOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    /// Submission attempts on network loss (first try + retries).
    pub max_attempts: u32,
    submissions: u64,
    retries: u64,
}

impl PushInOracle {
    /// A push-in oracle at `relay` with 3 attempts.
    pub fn new(relay: EndpointId) -> PushInOracle {
        PushInOracle {
            relay,
            max_attempts: 3,
            submissions: 0,
            retries: 0,
        }
    }

    /// One non-blocking uplink attempt of a logical submission: records the
    /// submission/retry counters (`attempt` 0 is the first try) and returns
    /// the hop delay when the message got through, `None` when it was lost.
    ///
    /// The caller owns the timeline: on success it delivers the transaction
    /// to the chain `Some(hop)` later; on loss it retries [`Self::backoff`]
    /// later, up to [`PushInOracle::max_attempts`] attempts in total.
    pub fn attempt(
        &mut self,
        net: &mut NetworkModel,
        rng: &mut Rng,
        from: EndpointId,
        size: u64,
        attempt: u32,
    ) -> Option<SimDuration> {
        if attempt == 0 {
            self.submissions += 1;
        } else {
            self.retries += 1;
        }
        net.transmit(from, self.relay, size, rng).delay()
    }

    /// Linear backoff before retry number `attempt` (attempt 1 = first
    /// retry).
    pub fn backoff(attempt: u32) -> SimDuration {
        SimDuration::from_millis(100 * attempt as u64)
    }

    /// Submits `tx` from `from` through the relay; the clock advances by
    /// the network hops (and retry backoff on loss).
    ///
    /// # Errors
    /// [`OracleError::NetworkDropped`] after all attempts fail,
    /// [`OracleError::Rejected`] when the chain refuses the transaction.
    pub fn submit<L: Ledger>(
        &mut self,
        chain: &mut L,
        net: &mut NetworkModel,
        clock: &Clock,
        rng: &mut Rng,
        from: EndpointId,
        tx: SignedTransaction,
    ) -> Result<TxId, OracleError> {
        let size = tx.encoded_size() as u64;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                // Linear backoff before a retry.
                clock.advance(Self::backoff(attempt));
            }
            match self.attempt(net, rng, from, size, attempt) {
                None => continue,
                Some(hop) => {
                    clock.advance(hop);
                    return chain.submit(tx).map_err(OracleError::Rejected);
                }
            }
        }
        Err(OracleError::NetworkDropped)
    }

    /// `(submissions, retries)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.submissions, self.retries)
    }
}

/// One event delivery computed by the push-out oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutboundDelivery {
    /// The chain event (`Rc`-shared with the ledger's log — fan-out to N
    /// subscribers clones N pointers, not N payloads).
    pub event: Rc<Event>,
    /// Block height it was emitted at.
    pub height: u64,
    /// The subscribed recipient.
    pub recipient: EndpointId,
    /// When it arrives at the recipient.
    pub arrives_at: SimTime,
}

/// **Push-out**: the chain pushes contract events to subscribed off-chain
/// components (policy updates fanning out to every device holding a copy).
#[derive(Debug, Clone)]
pub struct PushOutOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    cursor: u64,
    subscriptions: Vec<(String, EndpointId)>,
    delivered: u64,
    dropped: u64,
    resyncs: u64,
}

impl PushOutOracle {
    /// A push-out oracle at `relay` with no subscriptions.
    pub fn new(relay: EndpointId) -> PushOutOracle {
        PushOutOracle {
            relay,
            cursor: 0,
            subscriptions: Vec::new(),
            delivered: 0,
            dropped: 0,
            resyncs: 0,
        }
    }

    /// Subscribes `recipient` to events with `topic`.
    pub fn subscribe(&mut self, topic: impl Into<String>, recipient: EndpointId) {
        self.subscriptions.push((topic.into(), recipient));
    }

    /// Removes all subscriptions of `recipient` to `topic`.
    pub fn unsubscribe(&mut self, topic: &str, recipient: EndpointId) {
        self.subscriptions
            .retain(|(t, r)| !(t == topic && *r == recipient));
    }

    /// Drains new chain events and computes their deliveries. Lost
    /// messages are counted and omitted (at-most-once delivery, like a
    /// plain webhook relay — the monitoring process tolerates this by
    /// re-polling). If the cursor has fallen below the chain's prune
    /// horizon, the oracle resyncs to the horizon (counted in
    /// [`PushOutOracle::resyncs`]) and drains from there — the behaviour
    /// [`PushOutOracle::try_drain`] surfaces as a typed error instead.
    pub fn drain<L: Ledger>(
        &mut self,
        chain: &L,
        net: &mut NetworkModel,
        clock: &Clock,
        rng: &mut Rng,
    ) -> Vec<OutboundDelivery> {
        match self.try_drain(chain, net, clock, rng) {
            Ok(deliveries) => deliveries,
            Err(OracleError::Pruned(e)) => {
                self.resync(e.horizon);
                self.try_drain(chain, net, clock, rng)
                    .expect("cursor at horizon is always valid")
            }
            Err(_) => unreachable!("try_drain only fails with Pruned"),
        }
    }

    /// Like [`PushOutOracle::drain`], but a cursor below the prune horizon
    /// is a typed [`OracleError::Pruned`] error: events in
    /// `(cursor, horizon]` were evicted before this relay saw them, and the
    /// caller decides how to recover (checkpoint-resync via
    /// [`PushOutOracle::resync`], then drain again).
    ///
    /// # Errors
    /// [`OracleError::Pruned`] when the cursor is below the horizon.
    pub fn try_drain<L: Ledger>(
        &mut self,
        chain: &L,
        net: &mut NetworkModel,
        clock: &Clock,
        rng: &mut Rng,
    ) -> Result<Vec<OutboundDelivery>, OracleError> {
        let fresh = chain
            .try_events_since(self.cursor)
            .map_err(OracleError::Pruned)?;
        let mut deliveries = Vec::new();
        let mut max_height = self.cursor;
        for (height, event) in fresh {
            max_height = max_height.max(*height);
            for (topic, recipient) in &self.subscriptions {
                if topic != &event.topic {
                    continue;
                }
                let size = event.data.len() as u64 + 64;
                match net.transmit(self.relay, *recipient, size, rng).delay() {
                    None => self.dropped += 1,
                    Some(hop) => {
                        self.delivered += 1;
                        deliveries.push(OutboundDelivery {
                            event: Rc::clone(event),
                            height: *height,
                            recipient: *recipient,
                            arrives_at: clock.now() + hop,
                        });
                    }
                }
            }
        }
        self.cursor = max_height;
        Ok(deliveries)
    }

    /// Checkpoint-resync: advances the cursor to `floor` (monotone) after
    /// a [`OracleError::Pruned`] error. Events in the skipped range are
    /// gone; subscribers recover the way they already tolerate at-most-once
    /// delivery — by re-polling state.
    pub fn resync(&mut self, floor: u64) {
        if floor > self.cursor {
            self.cursor = floor;
            self.resyncs += 1;
        }
    }

    /// How many times the cursor was resynced past a pruned range.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// `(delivered, dropped)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.delivered, self.dropped)
    }

    /// The height up to which events have been drained.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// **Pull-out**: an off-chain component reads contract state through the
/// oracle (resource indexing, certificate checks). Read-only, no
/// transaction.
#[derive(Debug, Clone)]
pub struct PullOutOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    reads: u64,
}

impl PullOutOracle {
    /// A pull-out oracle at `relay`.
    pub fn new(relay: EndpointId) -> PullOutOracle {
        PullOutOracle { relay, reads: 0 }
    }

    /// The wire size of a read request for `method`/`args` (what
    /// [`PullOutOracle::begin_read`] transmits).
    pub fn request_size(method: &str, args: &[u8]) -> u64 {
        (args.len() + method.len() + 64) as u64
    }

    /// The wire size of a read response carrying `payload_len` bytes (what
    /// [`PullOutOracle::finish_read`] transmits).
    pub fn response_size(payload_len: usize) -> u64 {
        payload_len as u64 + 32
    }

    /// Accounts one logical read without transmitting. Drivers that manage
    /// their own per-hop retries count the read once up front, then retry
    /// the raw hops without inflating the counter.
    pub fn count_read(&mut self) {
        self.reads += 1;
    }

    /// Non-blocking first half of a read: counts the read and returns the
    /// request-hop delay (`from` → relay), or `None` when the hop is lost.
    pub fn begin_read(
        &mut self,
        net: &mut NetworkModel,
        rng: &mut Rng,
        from: EndpointId,
        method: &str,
        args: &[u8],
    ) -> Option<SimDuration> {
        self.reads += 1;
        net.transmit(from, self.relay, Self::request_size(method, args), rng)
            .delay()
    }

    /// Non-blocking second half of a read: the response-hop delay (relay →
    /// `to`) for a `payload_len`-byte result, or `None` when lost.
    pub fn finish_read(
        &self,
        net: &mut NetworkModel,
        rng: &mut Rng,
        to: EndpointId,
        payload_len: usize,
    ) -> Option<SimDuration> {
        net.transmit(self.relay, to, Self::response_size(payload_len), rng)
            .delay()
    }

    /// Executes a view call from `from`, charging a request and a response
    /// network hop.
    ///
    /// # Errors
    /// [`OracleError::NetworkDropped`] on either hop,
    /// [`OracleError::View`] when the contract rejects the call.
    #[allow(clippy::too_many_arguments)] // the full blocking convenience
    pub fn read<L: Ledger>(
        &mut self,
        chain: &L,
        net: &mut NetworkModel,
        clock: &Clock,
        rng: &mut Rng,
        from: EndpointId,
        contract: &duc_blockchain::ContractId,
        method: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, OracleError> {
        let hop = self
            .begin_read(net, rng, from, method, args)
            .ok_or(OracleError::NetworkDropped)?;
        clock.advance(hop);
        let out = chain
            .call_view(contract, method, args)
            .map_err(OracleError::View)?;
        let hop_back = self
            .finish_read(net, rng, from, out.len())
            .ok_or(OracleError::NetworkDropped)?;
        clock.advance(hop_back);
        Ok(out)
    }

    /// Number of reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

/// One pull-in poll: the topic-matching request events, the response
/// payload size a gateway would ship back, and the cursor position the
/// poll covers (committed separately via [`PullInOracle::commit_cursor`]).
pub type PullInPoll = (Vec<(u64, Rc<Event>)>, u64, u64);

/// **Pull-in**: the chain *requests* data from off-chain components — the
/// DE App opens a monitoring round and this oracle's off-chain half watches
/// for the request events, collects answers from devices, and pushes them
/// back via a [`PushInOracle`].
#[derive(Debug, Clone)]
pub struct PullInOracle {
    /// The relay's network endpoint.
    pub relay: EndpointId,
    cursor: u64,
    topic: String,
    resyncs: u64,
}

impl PullInOracle {
    /// A pull-in oracle watching for `topic` request events.
    pub fn new(relay: EndpointId, topic: impl Into<String>) -> PullInOracle {
        PullInOracle {
            relay,
            cursor: 0,
            topic: topic.into(),
            resyncs: 0,
        }
    }

    /// Non-blocking first half of a poll: the request-hop delay (relay →
    /// gateway), or `None` when lost.
    pub fn begin_poll(
        &self,
        net: &mut NetworkModel,
        rng: &mut Rng,
        gateway_ep: EndpointId,
    ) -> Option<SimDuration> {
        net.transmit(self.relay, gateway_ep, 64, rng).delay()
    }

    /// Collects the topic-matching request events since the last poll;
    /// returns the events, the response payload size a gateway would ship
    /// back, and the cursor position this poll covers. The cursor is *not*
    /// advanced here — the caller commits it with
    /// [`PullInOracle::commit_cursor`] once the response hop actually
    /// arrives, so a lost response never strands events behind the cursor.
    ///
    /// # Errors
    /// [`OracleError::Pruned`] when the cursor is below the chain's prune
    /// horizon: request events in `(cursor, horizon]` were evicted before
    /// this poll saw them, so the caller must checkpoint-resync
    /// ([`PullInOracle::resync`]) instead of treating the poll as empty.
    pub fn try_collect_requests<L: Ledger>(&self, chain: &L) -> Result<PullInPoll, OracleError> {
        let fresh = chain
            .try_events_since(self.cursor)
            .map_err(OracleError::Pruned)?;
        let cursor_to = fresh.iter().map(|(h, _)| *h).max().unwrap_or(self.cursor);
        let events: Vec<(u64, Rc<Event>)> = fresh
            .iter()
            .filter(|(_, e)| e.topic == self.topic)
            .map(|(h, e)| (*h, Rc::clone(e)))
            .collect();
        let response_size: u64 = events
            .iter()
            .map(|(_, e)| e.data.len() as u64 + 64)
            .sum::<u64>()
            .max(32);
        Ok((events, response_size, cursor_to))
    }

    /// Advances the cursor to `height` (monotonic) after a poll's response
    /// hop succeeded, acknowledging everything the poll served.
    pub fn commit_cursor(&mut self, height: u64) {
        self.cursor = self.cursor.max(height);
    }

    /// Checkpoint-resync: advances the cursor to `floor` (monotone) after
    /// a [`OracleError::Pruned`] error, counted in
    /// [`PullInOracle::resyncs`]. Monitoring recovers naturally: rounds
    /// whose request events were pruned before any poll saw them are
    /// re-opened by the round scheduler, not replayed from history.
    pub fn resync(&mut self, floor: u64) {
        if floor > self.cursor {
            self.cursor = floor;
            self.resyncs += 1;
        }
    }

    /// How many times the cursor was resynced past a pruned range.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Non-blocking second half of a poll: the response-hop delay (gateway
    /// → relay), or `None` when lost.
    pub fn finish_poll(
        &self,
        net: &mut NetworkModel,
        rng: &mut Rng,
        gateway_ep: EndpointId,
        response_size: u64,
    ) -> Option<SimDuration> {
        net.transmit(gateway_ep, self.relay, response_size, rng)
            .delay()
    }

    /// The watched topic.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The height up to which request events have been acknowledged.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// Encodes typed view-call arguments (convenience re-export for callers).
pub fn encode_args<T: duc_codec::Encode>(args: &T) -> Vec<u8> {
    encode_to_vec(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use duc_blockchain::{Blockchain, CallCtx, Contract, ContractError, ContractId};
    use duc_codec::decode_from_slice;
    use duc_sim::{LatencyModel, LinkConfig};

    struct Echo;

    impl Contract for Echo {
        fn call(
            &self,
            ctx: &mut CallCtx<'_>,
            method: &str,
            args: &[u8],
        ) -> Result<Vec<u8>, ContractError> {
            match method {
                "store" => {
                    let (v,): (u64,) = decode_from_slice(args)?;
                    ctx.set(b"v".to_vec(), &v)?;
                    ctx.emit("Stored", encode_to_vec(&(v,)))?;
                    Ok(Vec::new())
                }
                "load" => {
                    let v: u64 = ctx.get(b"v")?.unwrap_or(0);
                    Ok(encode_to_vec(&(v,)))
                }
                other => Err(ContractError::UnknownMethod(other.into())),
            }
        }
    }

    struct Setup {
        chain: Blockchain,
        net: NetworkModel,
        clock: Clock,
        rng: Rng,
        device: EndpointId,
        relay: EndpointId,
        gateway: EndpointId,
        key: duc_crypto::KeyPair,
    }

    fn setup(link: LinkConfig) -> Setup {
        let mut chain = Blockchain::builder()
            .validators(2)
            .block_interval(SimDuration::from_secs(2))
            .build();
        chain.deploy(ContractId::new("echo"), Box::new(Echo));
        let key = chain.create_funded_account(b"device-owner", 1_000_000_000);
        let mut net = NetworkModel::new(link);
        let device = net.add_endpoint("device");
        let relay = net.add_endpoint("oracle-relay");
        let gateway = net.add_endpoint("chain-gateway");
        Setup {
            chain,
            net,
            clock: Clock::new(),
            rng: Rng::seed_from_u64(7),
            device,
            relay,
            gateway,
            key,
        }
    }

    fn fixed_link(ms: u64) -> LinkConfig {
        LinkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(ms)),
            drop_probability: 0.0,
            bandwidth_bps: None,
        }
    }

    #[test]
    fn push_in_submits_and_confirms() {
        let mut s = setup(fixed_link(10));
        let mut oracle = PushInOracle::new(s.relay);
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(42u64,)),
            1_000_000,
        );
        let id = oracle
            .submit(&mut s.chain, &mut s.net, &s.clock, &mut s.rng, s.device, tx)
            .expect("submitted");
        let receipt = await_inclusion(&mut s.chain, &s.clock, &id, SimDuration::from_secs(30))
            .expect("included");
        assert!(receipt.status.is_ok());
        // Network hop (10 ms) then inclusion at the 2 s slot boundary.
        assert_eq!(s.clock.now(), SimTime::from_secs(2));
        assert_eq!(oracle.stats(), (1, 0));
    }

    #[test]
    fn push_in_retries_on_lossy_network() {
        let mut s = setup(LinkConfig {
            latency: LatencyModel::Constant(SimDuration::from_millis(5)),
            drop_probability: 0.6,
            bandwidth_bps: None,
        });
        let mut oracle = PushInOracle::new(s.relay);
        oracle.max_attempts = 20;
        let mut successes = 0;
        for i in 0..10u64 {
            let tx = s.chain.build_call(
                &s.key,
                ContractId::new("echo"),
                "store",
                encode_to_vec(&(i,)),
                1_000_000,
            );
            if oracle
                .submit(&mut s.chain, &mut s.net, &s.clock, &mut s.rng, s.device, tx)
                .is_ok()
            {
                successes += 1;
            }
        }
        assert_eq!(successes, 10, "20 attempts beat 60% loss");
        let (_, retries) = oracle.stats();
        assert!(retries > 0, "retries occurred");
    }

    #[test]
    fn push_in_gives_up_when_partitioned() {
        let mut s = setup(fixed_link(5));
        s.net.partition(s.device, s.relay);
        let mut oracle = PushInOracle::new(s.relay);
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(1u64,)),
            1_000_000,
        );
        assert_eq!(
            oracle.submit(&mut s.chain, &mut s.net, &s.clock, &mut s.rng, s.device, tx),
            Err(OracleError::NetworkDropped)
        );
    }

    #[test]
    fn inclusion_times_out_when_all_validators_down() {
        let mut s = setup(fixed_link(5));
        s.chain.set_validator_down(0, true);
        s.chain.set_validator_down(1, true);
        let mut oracle = PushInOracle::new(s.relay);
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(1u64,)),
            1_000_000,
        );
        let id = oracle
            .submit(&mut s.chain, &mut s.net, &s.clock, &mut s.rng, s.device, tx)
            .expect("submitted");
        let err =
            await_inclusion(&mut s.chain, &s.clock, &id, SimDuration::from_secs(10)).unwrap_err();
        assert!(matches!(err, OracleError::InclusionTimeout { .. }));
    }

    #[test]
    fn push_out_fans_out_to_subscribers() {
        let mut s = setup(fixed_link(10));
        let d2 = s.net.add_endpoint("device-2");
        let mut push_out = PushOutOracle::new(s.relay);
        push_out.subscribe("Stored", s.device);
        push_out.subscribe("Stored", d2);
        push_out.subscribe("OtherTopic", s.device);

        let mut push_in = PushInOracle::new(s.relay);
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(9u64,)),
            1_000_000,
        );
        let id = push_in
            .submit(&mut s.chain, &mut s.net, &s.clock, &mut s.rng, s.device, tx)
            .expect("submitted");
        await_inclusion(&mut s.chain, &s.clock, &id, SimDuration::from_secs(10)).unwrap();

        let deliveries = push_out.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        assert_eq!(deliveries.len(), 2, "one per matching subscriber");
        for d in &deliveries {
            assert_eq!(d.event.topic, "Stored");
            assert_eq!(d.arrives_at, s.clock.now() + SimDuration::from_millis(10));
        }
        // A second drain yields nothing (cursor advanced).
        assert!(push_out
            .drain(&s.chain, &mut s.net, &s.clock, &mut s.rng)
            .is_empty());
        assert_eq!(push_out.stats(), (2, 0));
        // Unsubscribe stops delivery.
        push_out.unsubscribe("Stored", d2);
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(10u64,)),
            1_000_000,
        );
        let id = push_in
            .submit(&mut s.chain, &mut s.net, &s.clock, &mut s.rng, s.device, tx)
            .expect("submitted");
        await_inclusion(&mut s.chain, &s.clock, &id, SimDuration::from_secs(10)).unwrap();
        let deliveries = push_out.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].recipient, s.device);
    }

    #[test]
    fn pull_out_reads_state_with_latency() {
        let mut s = setup(fixed_link(25));
        // Store something first (directly, no oracle needed for setup).
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(7u64,)),
            1_000_000,
        );
        s.chain.submit(tx).unwrap();
        s.clock.advance_to(SimTime::from_secs(2));
        s.chain.advance_to(s.clock.now());

        let before = s.clock.now();
        let mut pull_out = PullOutOracle::new(s.relay);
        let out = pull_out
            .read(
                &s.chain,
                &mut s.net,
                &s.clock,
                &mut s.rng,
                s.device,
                &ContractId::new("echo"),
                "load",
                &[],
            )
            .expect("view ok");
        let (v,): (u64,) = decode_from_slice(&out).unwrap();
        assert_eq!(v, 7);
        assert_eq!(
            s.clock.now() - before,
            SimDuration::from_millis(50),
            "two 25 ms hops"
        );
        assert_eq!(pull_out.reads(), 1);
        // Bad method surfaces as a view error.
        assert!(matches!(
            pull_out.read(
                &s.chain,
                &mut s.net,
                &s.clock,
                &mut s.rng,
                s.device,
                &ContractId::new("echo"),
                "nope",
                &[],
            ),
            Err(OracleError::View(_))
        ));
    }

    /// One pull-in poll through the halves the driver runs as separate
    /// steps: request hop, collect at the gateway, response hop, then the
    /// cursor commit.
    fn poll(
        pull_in: &mut PullInOracle,
        s: &mut Setup,
    ) -> Result<Vec<(u64, Rc<Event>)>, OracleError> {
        let hop = pull_in
            .begin_poll(&mut s.net, &mut s.rng, s.gateway)
            .ok_or(OracleError::NetworkDropped)?;
        s.clock.advance(hop);
        let (events, response_size, cursor_to) = pull_in.try_collect_requests(&s.chain)?;
        let hop_back = pull_in
            .finish_poll(&mut s.net, &mut s.rng, s.gateway, response_size)
            .ok_or(OracleError::NetworkDropped)?;
        s.clock.advance(hop_back);
        pull_in.commit_cursor(cursor_to);
        Ok(events)
    }

    #[test]
    fn pull_in_lost_response_does_not_strand_events() {
        let mut s = setup(fixed_link(5));
        let mut pull_in = PullInOracle::new(s.relay, "Stored");
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(11u64,)),
            1_000_000,
        );
        s.chain.submit(tx).unwrap();
        s.clock.advance_to(SimTime::from_secs(2));
        s.chain.advance_to(s.clock.now());
        // The gateway → relay return hop is down: the poll fails, but the
        // cursor must not advance past the unserved events.
        s.net.set_link(
            s.gateway,
            s.relay,
            LinkConfig {
                latency: LatencyModel::Constant(SimDuration::from_millis(5)),
                drop_probability: 1.0,
                bandwidth_bps: None,
            },
        );
        let err = poll(&mut pull_in, &mut s).unwrap_err();
        assert_eq!(err, OracleError::NetworkDropped);
        // Healed: the same events are served by the retry.
        s.net.set_link(s.gateway, s.relay, fixed_link(5));
        let events = poll(&mut pull_in, &mut s).unwrap();
        assert_eq!(events.len(), 1, "events survive a lost response hop");
    }

    #[test]
    fn pull_in_polls_request_events() {
        let mut s = setup(fixed_link(5));
        let mut pull_in = PullInOracle::new(s.relay, "Stored");
        // Nothing yet.
        let events = poll(&mut pull_in, &mut s).unwrap();
        assert!(events.is_empty());
        // Produce an event.
        let tx = s.chain.build_call(
            &s.key,
            ContractId::new("echo"),
            "store",
            encode_to_vec(&(3u64,)),
            1_000_000,
        );
        s.chain.submit(tx).unwrap();
        s.clock.advance_to(SimTime::from_secs(2));
        s.chain.advance_to(s.clock.now());
        let events = poll(&mut pull_in, &mut s).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(pull_in.topic(), "Stored");
        // Cursor advanced: re-poll is empty.
        let events = poll(&mut pull_in, &mut s).unwrap();
        assert!(events.is_empty());
    }

    /// A chain aggressively pruning behind per-block checkpoints, with
    /// enough sealed blocks that a genesis cursor is below the horizon.
    fn pruning_setup() -> Setup {
        let mut s = setup(fixed_link(10));
        let mut chain = Blockchain::builder()
            .validators(2)
            .block_interval(SimDuration::from_secs(2))
            .storage(duc_blockchain::StorageConfig::enabled(1, 1))
            .build();
        chain.deploy(ContractId::new("echo"), Box::new(Echo));
        s.key = chain.create_funded_account(b"device-owner", 1_000_000_000);
        for i in 1..=6u64 {
            let tx = chain.build_call(
                &s.key,
                ContractId::new("echo"),
                "store",
                encode_to_vec(&(i,)),
                1_000_000,
            );
            chain.submit(tx).unwrap();
            chain.advance_to(SimTime::from_secs(2 * i));
        }
        assert!(chain.prune_horizon() > 0, "setup actually pruned");
        s.chain = chain;
        s
    }

    #[test]
    fn push_out_stale_cursor_is_typed_and_resyncs() {
        let mut s = pruning_setup();
        let mut oracle = PushOutOracle::new(s.relay);
        oracle.subscribe("Stored", s.device);
        let horizon = s.chain.prune_horizon();
        // try_drain surfaces the pruned range instead of silently serving
        // only the resident tail.
        let err = oracle
            .try_drain(&s.chain, &mut s.net, &s.clock, &mut s.rng)
            .unwrap_err();
        match err {
            OracleError::Pruned(e) => {
                assert_eq!(e.requested, 0);
                assert_eq!(e.horizon, horizon);
                assert!(!err.is_transient(), "resync, not blind retry");
            }
            other => panic!("expected Pruned, got {other:?}"),
        }
        // Explicit resync, then the drain serves the resident tail.
        oracle.resync(horizon);
        assert_eq!(oracle.resyncs(), 1);
        let deliveries = oracle
            .try_drain(&s.chain, &mut s.net, &s.clock, &mut s.rng)
            .expect("cursor at horizon");
        assert!(!deliveries.is_empty());
        assert!(deliveries.iter().all(|d| d.height > horizon));
        // The blocking wrapper recovers on its own (auto-resync).
        let mut auto = PushOutOracle::new(s.relay);
        auto.subscribe("Stored", s.device);
        let deliveries = auto.drain(&s.chain, &mut s.net, &s.clock, &mut s.rng);
        assert!(!deliveries.is_empty());
        assert_eq!(auto.resyncs(), 1);
    }

    #[test]
    fn pull_in_stale_cursor_is_typed_and_resyncs() {
        let s = pruning_setup();
        let mut pull_in = PullInOracle::new(s.relay, "Stored");
        let horizon = s.chain.prune_horizon();
        let err = pull_in.try_collect_requests(&s.chain).unwrap_err();
        assert!(matches!(err, OracleError::Pruned(e) if e.horizon == horizon));
        pull_in.resync(horizon);
        assert_eq!(pull_in.resyncs(), 1);
        let (events, _, cursor_to) = pull_in
            .try_collect_requests(&s.chain)
            .expect("cursor at horizon");
        assert!(events.iter().all(|(h, _)| *h > horizon));
        pull_in.commit_cursor(cursor_to);
        assert_eq!(pull_in.cursor(), s.chain.height());
        // A resync never rewinds an up-to-date cursor.
        pull_in.resync(horizon);
        assert_eq!(pull_in.cursor(), s.chain.height());
        assert_eq!(pull_in.resyncs(), 1);
    }
}
