//! Executable consensus protocols on the discrete-event simulator.
//!
//! The `prob-consensus` crate computes *analytic* probabilities of safety and liveness
//! from Theorems 3.1 and 3.2; this crate provides the protocols those theorems abstract,
//! running on the `consensus-sim` substrate, so the predictions can be validated against
//! observed behaviour under injected faults:
//!
//! * [`common`] — commands, log entries and the [`common::ReplicatedLog`] view shared by
//!   all protocols.
//! * [`raft`] — a Raft implementation (leader election, log replication, commitment)
//!   with configurable persistence/election quorum sizes (Flexible-Paxos style) and
//!   reliability-aware election priorities ([`raft::RaftConfig::reliability_aware`]).
//! * [`pbft`] — a PBFT-style BFT implementation (pre-prepare / prepare / commit, view
//!   changes) with configurable quorum sizes and pluggable Byzantine behaviours.
//! * [`byzantine`] — the Byzantine strategies nodes adopt when the fault injector flips
//!   them (stay silent, equivocate).
//! * [`harness`] — the cluster harness: a [`harness::Cluster`] of any protocol's
//!   nodes drives a client workload, then checks *agreement* (no two correct nodes
//!   commit conflicting entries) and *progress* (all submitted commands commit at all
//!   correct nodes). The batch-trial API ([`harness::TrialSpec`] /
//!   [`harness::run_trial`]) packages one deterministic run as a plain value, so the
//!   analysis layer's simulation engine can fan thousands of trials out across
//!   threads.
//!
//! # Examples
//!
//! ```
//! use consensus_protocols::harness::Cluster;
//! use consensus_protocols::raft::{RaftConfig, RaftNode};
//! use consensus_sim::network::NetworkConfig;
//!
//! // A healthy 5-node Raft cluster commits every submitted command.
//! let config = RaftConfig::standard(5);
//! let nodes = (0..5).map(|_| RaftNode::new(config.clone()));
//! let mut cluster = Cluster::new(nodes, NetworkConfig::lan(), 7);
//! cluster.submit_commands(10);
//! let outcome = cluster.run_for_millis(2_000);
//! assert!(outcome.agreement);
//! assert!(outcome.all_committed);
//! ```

// Documentation is part of this crate's contract: every public item is
// documented, and CI builds rustdoc with `-D warnings` (see the `docs` job).
#![warn(missing_docs)]
pub mod byzantine;
pub mod common;
pub mod harness;
pub mod pbft;
pub mod raft;

pub use byzantine::ByzantineBehavior;
pub use common::{Command, LogEntry, ReplicatedLog};
pub use harness::{run_trial, Cluster, ClusterOutcome, TrialProtocol, TrialSpec};
pub use pbft::{PbftConfig, PbftMessage, PbftNode};
pub use raft::{RaftConfig, RaftMessage, RaftNode, Role};
