//! # duc-oracle — blockchain oracles
//!
//! Blockchains are closed worlds; oracles connect them to the outside
//! (paper §III-D, and the authors' own oracle-pattern taxonomy [Basile et
//! al., BPM 2021]). Four patterns, by flow direction × data operation:
//!
//! | | **push** (initiator sends) | **pull** (initiator asks) |
//! |---|---|---|
//! | **in** (off-chain → chain) | [`PushInOracle`] — pod manager submits state-changing transactions | [`PullInOracle`] — the chain requests data from devices (monitoring evidence) |
//! | **out** (chain → off-chain) | [`PushOutOracle`] — contract events fanned out to subscribed devices | [`PullOutOracle`] — off-chain components read contract state (resource indexing) |
//!
//! Every hop is priced by the [`duc_sim::NetworkModel`], so oracle traffic
//! shows up in the latency experiments; submission retries and delivery
//! drops feed the robustness experiment (E8).
//!
//! Nothing here waits: no function advances a [`duc_sim::Clock`]. Each call
//! prices one hop or checks one state ([`poll_inclusion`] reports when to
//! look again), and `duc-core`'s request driver schedules the next step on
//! its event loop.

pub mod patterns;

pub use patterns::{
    poll_inclusion, HopKind, InclusionStatus, OracleError, OutboundDelivery, PullInOracle,
    PullOutOracle, PushInOracle, PushOutOracle,
};
