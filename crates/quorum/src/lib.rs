//! Quorum substrate for probabilistic consensus analysis.
//!
//! Consensus protocols progress by gathering *quorums* of replies (§3.1 of the paper):
//! non-equivocation, persistence, view-change and view-change-trigger quorums whose
//! intersection invariants drive both safety and liveness. This crate provides the pieces
//! the analysis layer uses:
//!
//! * [`set`] — compact node sets (bit sets) used to describe quorums and failure
//!   configurations.
//! * [`metrics`] — binomial helpers: the probability that enough independent nodes are
//!   up to assemble a threshold quorum.
//!
//! # Examples
//!
//! ```
//! use quorum::set::NodeSet;
//!
//! // Two majorities of five nodes always share a member.
//! let a = NodeSet::from_indices(5, &[0, 1, 2]);
//! let b = NodeSet::from_indices(5, &[2, 3, 4]);
//! assert!(a.intersects(&b));
//! assert_eq!(a.intersection(&b).to_vec(), vec![2]);
//! // A quorum that loses its crashed member may fall below the threshold.
//! let crashed = NodeSet::from_indices(5, &[1]);
//! assert_eq!(a.difference(&crashed).len(), 2);
//! ```

// Documentation is part of this crate's contract: every public item is
// documented, and CI builds rustdoc with `-D warnings` (see the `docs` job).
#![warn(missing_docs)]
pub mod metrics;
pub mod set;

pub use set::NodeSet;
