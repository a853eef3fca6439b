//! Theorem 3.2: the Raft (CFT) reliability model.

use consensus_protocols::harness::TrialProtocol;
use consensus_protocols::raft::RaftConfig;

use crate::failure::FailureConfig;
use crate::protocol::{CountingModel, ProtocolModel};

/// Raft with configurable persistence- and view-change-quorum sizes.
///
/// Theorem 3.2 of the paper:
///
/// * Raft is **safe** iff `N < |Q_per| + |Q_vc|` and `N < 2 |Q_vc|` — purely structural
///   conditions: crash faults cannot break agreement as long as the quorums intersect.
///   Because Raft assumes crash faults only, any Byzantine node voids safety.
/// * Raft is **live** iff `|Correct| >= |Q_per|, |Q_vc|` — enough correct nodes remain
///   to form both quorums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaftModel {
    n: usize,
    q_per: usize,
    q_vc: usize,
}

impl RaftModel {
    /// Creates a Raft model with explicit quorum sizes.
    ///
    /// # Panics
    ///
    /// Panics if either quorum size is zero or exceeds `n`.
    pub fn new(n: usize, q_per: usize, q_vc: usize) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        assert!((1..=n).contains(&q_per), "Q_per must be in 1..=N");
        assert!((1..=n).contains(&q_vc), "Q_vc must be in 1..=N");
        Self { n, q_per, q_vc }
    }

    /// The standard Raft configuration: both quorums are simple majorities
    /// (`⌊N/2⌋ + 1`), as in Table 2.
    pub fn standard(n: usize) -> Self {
        let majority = n / 2 + 1;
        Self::new(n, majority, majority)
    }

    /// A Flexible-Paxos style configuration with distinct persistence and view-change
    /// quorum sizes.
    pub fn flexible(n: usize, q_per: usize, q_vc: usize) -> Self {
        Self::new(n, q_per, q_vc)
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Persistence-quorum size.
    pub fn q_per(&self) -> usize {
        self.q_per
    }

    /// View-change-quorum size.
    pub fn q_vc(&self) -> usize {
        self.q_vc
    }

    /// The structural safety conditions of Theorem 3.2 (they do not depend on the failure
    /// configuration).
    pub fn quorums_intersect(&self) -> bool {
        self.n < self.q_per + self.q_vc && self.n < 2 * self.q_vc
    }
}

impl ProtocolModel for RaftModel {
    fn name(&self) -> String {
        if self.q_per == self.n / 2 + 1 && self.q_vc == self.n / 2 + 1 {
            format!("Raft(N={})", self.n)
        } else {
            format!(
                "Raft(N={}, Q_per={}, Q_vc={})",
                self.n, self.q_per, self.q_vc
            )
        }
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn is_safe(&self, config: &FailureConfig) -> bool {
        assert_eq!(config.len(), self.n, "configuration size mismatch");
        self.is_safe_counts(config.num_crashed(), config.num_byzantine())
    }

    fn is_live(&self, config: &FailureConfig) -> bool {
        assert_eq!(config.len(), self.n, "configuration size mismatch");
        self.is_live_counts(config.num_crashed(), config.num_byzantine())
    }

    fn as_counting(&self) -> Option<&dyn CountingModel> {
        Some(self)
    }

    fn executable(&self) -> Option<TrialProtocol> {
        // Any quorum configuration is executable: the simulator's Raft takes
        // explicit commit/election quorum sizes (Flexible-Paxos style).
        Some(TrialProtocol::Raft(
            RaftConfig::standard(self.n).with_quorums(self.q_per, self.q_vc),
        ))
    }

    fn cache_signature(&self) -> Option<Vec<u64>> {
        // (n, q_per, q_vc) fully determine the counting predicates.
        Some(vec![
            crate::protocol::signature_tags::RAFT,
            self.n as u64,
            self.q_per as u64,
            self.q_vc as u64,
        ])
    }
}

impl CountingModel for RaftModel {
    fn is_safe_counts(&self, _crashed: usize, byzantine: usize) -> bool {
        // Theorem 3.2: safety is structural under crash faults. A Byzantine node,
        // however, is outside Raft's fault model and can equivocate its votes/log,
        // so safety is forfeited as soon as one exists.
        byzantine == 0 && self.quorums_intersect()
    }

    fn is_live_counts(&self, crashed: usize, byzantine: usize) -> bool {
        // Liveness: enough correct nodes remain to form the larger quorum. A Byzantine
        // node is counted as not contributing (it may refuse to vote).
        let faulty = crashed + byzantine;
        let correct = self.n.saturating_sub(faulty);
        correct >= self.q_per.max(self.q_vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standard_quorums_are_majorities() {
        assert_eq!(RaftModel::standard(3).q_per(), 2);
        assert_eq!(RaftModel::standard(9).q_vc(), 5);
        assert!(RaftModel::standard(7).quorums_intersect());
    }

    #[test]
    fn safety_is_structural_for_crash_faults() {
        let m = RaftModel::standard(3);
        for crashed in 0..=3 {
            assert!(m.is_safe_counts(crashed, 0));
        }
        // A Byzantine node breaks the CFT assumption.
        assert!(!m.is_safe_counts(0, 1));
    }

    #[test]
    fn misconfigured_quorums_are_unsafe() {
        // Q_per = Q_vc = 2 over 5 nodes: two disjoint quorums can exist.
        let m = RaftModel::flexible(5, 2, 2);
        assert!(!m.quorums_intersect());
        assert!(!m.is_safe_counts(0, 0));
    }

    #[test]
    fn flexible_quorum_safety_condition() {
        // Q_per = 2, Q_vc = 4 over 5 nodes satisfies both conditions.
        assert!(RaftModel::flexible(5, 2, 4).quorums_intersect());
        // Q_per = 4, Q_vc = 2 violates N < 2*Q_vc.
        assert!(!RaftModel::flexible(5, 4, 2).quorums_intersect());
    }

    #[test]
    fn liveness_requires_a_correct_majority() {
        let m = RaftModel::standard(5);
        assert!(m.is_live(&FailureConfig::with_crashed(5, &[0, 1])));
        assert!(!m.is_live(&FailureConfig::with_crashed(5, &[0, 1, 2])));
        // Byzantine nodes count against liveness too.
        assert!(!m.is_live(&FailureConfig::with_byzantine(5, &[0, 1, 2])));
    }

    #[test]
    fn liveness_uses_the_larger_quorum() {
        let m = RaftModel::flexible(5, 2, 4);
        // 3 correct nodes can form Q_per=2 but not Q_vc=4.
        assert!(!m.is_live_counts(2, 0));
        assert!(m.is_live_counts(1, 0));
    }

    proptest! {
        #[test]
        fn liveness_is_monotone_in_failures(n in 1usize..12, crashed in 0usize..12) {
            let crashed = crashed.min(n);
            let m = RaftModel::standard(n);
            if m.is_live_counts(crashed, 0) {
                for fewer in 0..crashed {
                    prop_assert!(m.is_live_counts(fewer, 0));
                }
            }
        }

        #[test]
        fn standard_raft_is_always_safe_under_crashes(n in 1usize..30, crashed in 0usize..30) {
            let m = RaftModel::standard(n);
            prop_assert!(m.is_safe_counts(crashed.min(n), 0));
        }
    }
}
