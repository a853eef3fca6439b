//! Umbrella crate for the probabilistic-consensus workspace.
//!
//! This package only hosts the repository-level examples (`examples/`) and the
//! cross-crate integration tests (`tests/`); the functionality lives in the member
//! crates, re-exported here for convenience:
//!
//! * [`fault_model`] — fault curves, failure modes, birth–death repairable groups, telemetry.
//! * [`quorum`] — node sets and binomial helpers.
//! * [`consensus_sim`] — the deterministic discrete-event simulator.
//! * [`consensus_protocols`] — executable Raft and PBFT plus the cluster harness.
//! * [`prob_consensus`] — the probabilistic reliability analysis and the
//!   probability-native mechanisms (the paper's primary contribution).

pub use consensus_protocols;
pub use consensus_sim;
pub use fault_model;
pub use prob_consensus;
pub use quorum;
