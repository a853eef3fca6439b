//! Theorem 3.1: the PBFT (BFT) reliability model.

use consensus_protocols::harness::TrialProtocol;
use consensus_protocols::pbft::PbftConfig;

use crate::failure::FailureConfig;
use crate::protocol::{CountingModel, ProtocolModel};

/// PBFT with configurable non-equivocation, persistence, view-change and
/// view-change-trigger quorum sizes.
///
/// Theorem 3.1 of the paper:
///
/// * PBFT is **safe** iff `|Byz| < 2|Q_eq| − N` and `|Byz| < |Q_per| + |Q_vc| − N`:
///   quorum intersections must contain at least one correct node.
/// * PBFT is **live** iff `|Correct| >= |Q_eq|, |Q_per|, |Q_vc|`, `|Byz| < |Q_vc_t|`,
///   and the Byzantine nodes cannot stall the view-change hand-off. The paper prints the
///   last condition as `|Byz| <= |Q_vc_t| − |Q_vc|`, which is negative for every
///   configuration in Table 1 and would make liveness impossible; the numbers in Table 1
///   are consistent with reading it as `|Byz| <= |Q_vc| − |Q_vc_t|`, which is what this
///   model implements (see DESIGN.md, "Theorem interpretation notes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PbftModel {
    n: usize,
    q_eq: usize,
    q_per: usize,
    q_vc: usize,
    q_vc_t: usize,
}

impl PbftModel {
    /// Creates a PBFT model with explicit quorum sizes.
    ///
    /// # Panics
    ///
    /// Panics if any quorum size is zero or exceeds `n`.
    pub fn new(n: usize, q_eq: usize, q_per: usize, q_vc: usize, q_vc_t: usize) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        for (label, q) in [
            ("Q_eq", q_eq),
            ("Q_per", q_per),
            ("Q_vc", q_vc),
            ("Q_vc_t", q_vc_t),
        ] {
            assert!((1..=n).contains(&q), "{label} must be in 1..=N (got {q})");
        }
        Self {
            n,
            q_eq,
            q_per,
            q_vc,
            q_vc_t,
        }
    }

    /// The standard PBFT configuration for `n` nodes used in Table 1:
    /// `f = ⌊(N−1)/3⌋`, `|Q_eq| = |Q_per| = |Q_vc| = N − f`, `|Q_vc_t| = f + 1`.
    pub fn standard(n: usize) -> Self {
        let f = (n - 1) / 3;
        Self::new(n, n - f, n - f, n - f, f + 1)
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Non-equivocation quorum size.
    pub fn q_eq(&self) -> usize {
        self.q_eq
    }

    /// Persistence quorum size.
    pub fn q_per(&self) -> usize {
        self.q_per
    }

    /// View-change quorum size.
    pub fn q_vc(&self) -> usize {
        self.q_vc
    }

    /// View-change trigger quorum size.
    pub fn q_vc_t(&self) -> usize {
        self.q_vc_t
    }

    /// The nominal fault threshold implied by the configuration (`⌊(N−1)/3⌋` for the
    /// standard layout).
    pub fn nominal_f(&self) -> usize {
        self.n - self.q_per
    }
}

impl ProtocolModel for PbftModel {
    fn name(&self) -> String {
        format!("PBFT(N={})", self.n)
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
        // The simulator's PBFT is built for the standard N = 3f + 1 layout (its
        // view-change hand-off assumes it); non-standard quorum variants stay
        // analytic-only. PBFT needs at least 4 nodes to run.
        let standard = PbftModel::standard(self.n);
        (self.n >= 4 && *self == standard)
            .then(|| TrialProtocol::Pbft(PbftConfig::standard(self.n)))
    }

    fn cache_signature(&self) -> Option<Vec<u64>> {
        // All four quorum sizes enter Theorem 3.1's predicates.
        Some(vec![
            crate::protocol::signature_tags::PBFT,
            self.n as u64,
            self.q_eq as u64,
            self.q_per as u64,
            self.q_vc as u64,
            self.q_vc_t as u64,
        ])
    }
}

impl CountingModel for PbftModel {
    fn is_safe_counts(&self, _crashed: usize, byzantine: usize) -> bool {
        // Crashed nodes cannot violate agreement; only Byzantine nodes can, by sitting in
        // quorum intersections. Conditions (1) and (2) of Theorem 3.1; a subtraction that
        // would underflow means the quorums do not even intersect, hence unsafe for any
        // number of Byzantine nodes... unless there are none and the intersection holds
        // trivially (still required: the bound must be positive).
        let eq_bound = (2 * self.q_eq).checked_sub(self.n);
        let per_vc_bound = (self.q_per + self.q_vc).checked_sub(self.n);
        match (eq_bound, per_vc_bound) {
            (Some(eq), Some(pv)) => byzantine < eq && byzantine < pv,
            _ => false,
        }
    }

    fn is_live_counts(&self, crashed: usize, byzantine: usize) -> bool {
        let faulty = crashed + byzantine;
        let correct = self.n.saturating_sub(faulty);
        let max_quorum = self.q_eq.max(self.q_per).max(self.q_vc);
        // (2) Enough correct nodes to form every quorum.
        let can_form = correct >= max_quorum;
        // (3) Byzantine nodes cannot trigger spurious view changes on their own.
        let no_spurious_vc = byzantine < self.q_vc_t;
        // (1) Byzantine nodes cannot stall the view-change hand-off (see module docs for
        // the reading of this condition).
        let vc_slack = byzantine <= self.q_vc.saturating_sub(self.q_vc_t);
        can_form && no_spurious_vc && vc_slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn standard_configurations_match_table1_quorum_sizes() {
        let rows = [(4usize, 3usize, 2usize), (5, 4, 2), (7, 5, 3), (8, 6, 3)];
        for (n, q, q_vc_t) in rows {
            let m = PbftModel::standard(n);
            assert_eq!(m.q_eq(), q, "N={n}");
            assert_eq!(m.q_per(), q, "N={n}");
            assert_eq!(m.q_vc(), q, "N={n}");
            assert_eq!(m.q_vc_t(), q_vc_t, "N={n}");
        }
    }

    #[test]
    fn four_node_pbft_tolerates_one_byzantine_fault() {
        let m = PbftModel::standard(4);
        assert!(m.is_safe_counts(0, 1));
        assert!(!m.is_safe_counts(0, 2));
        assert!(m.is_live_counts(0, 1));
        assert!(!m.is_live_counts(0, 2));
        assert!(!m.is_live_counts(2, 0), "crashes also break liveness");
    }

    #[test]
    fn crashes_do_not_break_safety() {
        let m = PbftModel::standard(7);
        assert!(m.is_safe(&FailureConfig::with_crashed(7, &[0, 1, 2, 3, 4, 5, 6])));
    }

    #[test]
    fn safety_tolerates_more_byzantine_nodes_with_larger_quorums() {
        // N=5 with quorums of 4: safe up to 2 Byzantine nodes (Table 1 discussion).
        let m = PbftModel::standard(5);
        assert!(m.is_safe_counts(0, 2));
        assert!(!m.is_safe_counts(0, 3));
        // But live only up to 1 fault.
        assert!(!m.is_live_counts(0, 2));
    }

    #[test]
    fn undersized_quorums_are_never_safe() {
        // Quorums of 2 over 4 nodes cannot intersect in a correct node.
        let m = PbftModel::new(4, 2, 2, 2, 2);
        assert!(!m.is_safe_counts(0, 0));
    }

    #[test]
    fn nominal_f_matches_standard_layout() {
        assert_eq!(PbftModel::standard(4).nominal_f(), 1);
        assert_eq!(PbftModel::standard(7).nominal_f(), 2);
        assert_eq!(PbftModel::standard(10).nominal_f(), 3);
    }

    proptest! {
        #[test]
        fn safety_and_liveness_are_monotone_in_byzantine_count(n in 4usize..16) {
            let m = PbftModel::standard(n);
            let mut was_safe = true;
            let mut was_live = true;
            for byz in 0..=n {
                let safe = m.is_safe_counts(0, byz);
                let live = m.is_live_counts(0, byz);
                // Once lost, never regained as faults increase.
                prop_assert!(was_safe || !safe);
                prop_assert!(was_live || !live);
                was_safe = safe;
                was_live = live;
            }
        }

        #[test]
        fn standard_pbft_is_safe_and_live_at_nominal_f(n in 4usize..20) {
            let m = PbftModel::standard(n);
            let f = m.nominal_f();
            prop_assert!(m.is_safe_counts(0, f));
            prop_assert!(m.is_live_counts(0, f));
        }
    }
}
