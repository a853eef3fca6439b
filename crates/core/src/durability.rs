//! Data-loss (durability) analysis.
//!
//! §4 of the paper: quorum systems that enforce durability are conservative because they
//! assume the worst case — "in theory, they no longer guarantee safety if *any*
//! combination of |Q_per| nodes fail. But, in reality, the probability that |Q_per|
//! failures leads to data loss is vanishingly unlikely": in a 100-node cluster with
//! |Q_per| = 10 and p_u = 10% there is a ~50% chance that 10 nodes fail, but only ~1 in
//! 10 billion that the failures cover the most recently formed persistence quorum.
//! This module quantifies both sides of that argument, plus repair-aware MTTDL.

use fault_model::markov::RepairableGroup;
use fault_model::metrics::Nines;

use crate::counting::FaultCountDistribution;
use crate::deployment::Deployment;
use crate::failure::FailureConfig;
use crate::protocol::ProtocolModel;

/// Probability that at least `k` nodes of the deployment are faulty over the window —
/// the "scary" number the f-threshold model reacts to.
pub fn probability_at_least_faults(deployment: &Deployment, k: usize) -> f64 {
    FaultCountDistribution::cached(deployment).probability_at_least_faults(k)
}

/// Probability that *every* member of `quorum` is faulty over the window — i.e. the most
/// recently written persistence quorum loses all of its copies.
///
/// # Panics
///
/// Panics if any member index is out of range or repeated.
pub fn quorum_loss_probability(deployment: &Deployment, quorum: &[usize]) -> f64 {
    let mut seen = vec![false; deployment.len()];
    let mut p = 1.0;
    for &m in quorum {
        assert!(m < deployment.len(), "quorum member {m} out of range");
        assert!(!seen[m], "quorum member {m} repeated");
        seen[m] = true;
        p *= deployment.profile(m).fault_probability();
    }
    p
}

/// Durability of data persisted on `quorum`: the probability that at least one member
/// survives the window.
pub fn quorum_durability(deployment: &Deployment, quorum: &[usize]) -> Nines {
    Nines::from_probability(1.0 - quorum_loss_probability(deployment, quorum))
}

/// The two sides of the paper's §4 durability argument for one deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityClaim {
    /// Probability that at least `quorum_size` nodes fail (the f-threshold "alarm").
    pub p_threshold_exceeded: f64,
    /// Probability that the specific, most recently formed persistence quorum loses all
    /// of its members (actual data loss).
    pub p_data_loss: f64,
    /// The persistence-quorum size used.
    pub quorum_size: usize,
}

impl DurabilityClaim {
    /// How many times more likely "more than |Q_per| faults" is than actual data loss.
    pub fn pessimism_factor(&self) -> f64 {
        if self.p_data_loss == 0.0 {
            f64::INFINITY
        } else {
            self.p_threshold_exceeded / self.p_data_loss
        }
    }
}

/// Evaluates the §4 claim for a deployment: compares the probability of `quorum_size`
/// simultaneous faults with the probability that a *specific* quorum of the
/// `quorum_size` least reliable nodes is wiped out.
pub fn durability_claim(deployment: &Deployment, quorum_size: usize) -> DurabilityClaim {
    assert!(
        quorum_size <= deployment.len(),
        "quorum cannot exceed the deployment"
    );
    let p_threshold_exceeded = probability_at_least_faults(deployment, quorum_size);
    // The adversarial placement: data persisted on the least reliable nodes.
    let ranked = deployment.nodes_by_reliability();
    let worst: Vec<usize> = ranked[ranked.len() - quorum_size..].to_vec();
    let p_data_loss = quorum_loss_probability(deployment, &worst);
    DurabilityClaim {
        p_threshold_exceeded,
        p_data_loss,
        quorum_size,
    }
}

/// The §4 durability event as a [`ProtocolModel`]: "safe" iff at least one member of
/// a *specific* persistence quorum survives the window.
///
/// This is deliberately a *placement-sensitive* (non-counting) model — which nodes
/// fail matters, not just how many — so the exact counting engine cannot take it and
/// the analysis has to go through enumeration (tiny N), importance sampling (rare
/// loss events, the [`crate::rare_event`] engine) or Monte Carlo. It is the workhorse
/// of the `claim-durability-correlated` experiment, where the quorum's rack placement
/// interacts with correlated shocks. Liveness is vacuously true: the model speaks
/// only about data loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistenceQuorumModel {
    n: usize,
    quorum: Vec<usize>,
}

impl PersistenceQuorumModel {
    /// A durability model over `n` nodes whose most recent persistence quorum is
    /// `quorum`.
    ///
    /// # Panics
    ///
    /// Panics if the quorum is empty, repeats a member, or indexes out of range.
    pub fn new(n: usize, quorum: Vec<usize>) -> Self {
        assert!(!quorum.is_empty(), "persistence quorum cannot be empty");
        let mut seen = vec![false; n];
        for &m in &quorum {
            assert!(m < n, "quorum member {m} out of range for {n} nodes");
            assert!(!seen[m], "quorum member {m} repeated");
            seen[m] = true;
        }
        Self { n, quorum }
    }

    /// The quorum members.
    pub fn quorum(&self) -> &[usize] {
        &self.quorum
    }
}

impl ProtocolModel for PersistenceQuorumModel {
    fn name(&self) -> String {
        format!("PersistenceQuorum(|Q|={})", self.quorum.len())
    }

    fn num_nodes(&self) -> usize {
        self.n
    }

    /// Data survives iff any quorum member is still correct.
    fn is_safe(&self, config: &FailureConfig) -> bool {
        self.quorum.iter().any(|&m| config.state(m).is_correct())
    }

    /// Durability-only model: liveness is out of scope and vacuously true.
    fn is_live(&self, _config: &FailureConfig) -> bool {
        true
    }

    fn cache_signature(&self) -> Option<Vec<u64>> {
        // Placement-sensitive: the exact member set (not just its size) is the
        // model's content, so every member index goes into the fingerprint.
        let mut sig = Vec::with_capacity(3 + self.quorum.len());
        sig.push(crate::protocol::signature_tags::PERSISTENCE_QUORUM);
        sig.push(self.n as u64);
        sig.push(self.quorum.len() as u64);
        sig.extend(self.quorum.iter().map(|&m| m as u64));
        Some(sig)
    }
}

/// Mean time (hours) until more than `tolerated_failures` nodes of an `n`-node group are
/// down simultaneously, with per-node failure rate `lambda` and repair rate `mu` — the
/// consensus analogue of MTTDL the storage community computes (§2).
pub fn consensus_mttdl(n: usize, lambda: f64, mu: f64, tolerated_failures: usize) -> f64 {
    RepairableGroup::new(n, lambda, mu, tolerated_failures).mean_time_to_threshold_exceeded()
}

/// Long-run probability that a quorum of `n - tolerated_failures` nodes is available in a
/// repairable group.
pub fn steady_state_quorum_availability(
    n: usize,
    lambda: f64,
    mu: f64,
    tolerated_failures: usize,
) -> f64 {
    RepairableGroup::new(n, lambda, mu, tolerated_failures).steady_state_availability()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisEngine, Budget, EnumerationEngine};
    use fault_model::mode::FaultProfile;

    #[test]
    fn paper_hundred_node_claim() {
        // N = 100, |Q_per| = 10, p_u = 10%.
        let deployment = Deployment::uniform_crash(100, 0.10);
        let claim = durability_claim(&deployment, 10);
        // "there is a 50% chance that |Q_per| faults occur"
        assert!(
            (claim.p_threshold_exceeded - 0.5).abs() < 0.1,
            "got {}",
            claim.p_threshold_exceeded
        );
        // "one in ten billion probability" that those faults cover the quorum.
        assert!((claim.p_data_loss - 1e-10).abs() < 1e-12);
        assert!(claim.pessimism_factor() > 1e9);
    }

    #[test]
    fn quorum_loss_probability_is_product_of_members() {
        let deployment = Deployment::uniform_crash(5, 0.1);
        let p = quorum_loss_probability(&deployment, &[0, 1, 2]);
        assert!((p - 1e-3).abs() < 1e-12);
        assert!((quorum_durability(&deployment, &[0, 1, 2]).probability() - 0.999).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_quorum_durability_depends_on_members() {
        let deployment = Deployment::from_profiles(vec![
            FaultProfile::crash_only(0.01),
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.08),
        ]);
        let unreliable_only = quorum_loss_probability(&deployment, &[1, 2, 3]);
        let with_reliable = quorum_loss_probability(&deployment, &[0, 2, 3]);
        assert!(with_reliable < unreliable_only / 5.0);
    }

    #[test]
    fn durability_claim_uses_least_reliable_nodes() {
        let deployment = Deployment::from_profiles(vec![
            FaultProfile::crash_only(0.001),
            FaultProfile::crash_only(0.5),
            FaultProfile::crash_only(0.5),
        ]);
        let claim = durability_claim(&deployment, 2);
        assert!((claim.p_data_loss - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mttdl_improves_with_repair_and_tolerance() {
        let without_repair = consensus_mttdl(5, 1e-4, 0.0, 2);
        let with_repair = consensus_mttdl(5, 1e-4, 1e-2, 2);
        assert!(with_repair > 10.0 * without_repair);
        let more_tolerant = consensus_mttdl(5, 1e-4, 1e-2, 3);
        assert!(more_tolerant > with_repair);
    }

    #[test]
    fn steady_state_availability_is_high_with_fast_repair() {
        let a = steady_state_quorum_availability(5, 1e-4, 1.0, 2);
        assert!(a > 0.999999999);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_quorum_members_are_rejected() {
        let deployment = Deployment::uniform_crash(3, 0.1);
        quorum_loss_probability(&deployment, &[0, 0]);
    }

    #[test]
    fn persistence_quorum_model_tracks_member_survival() {
        use fault_model::mode::NodeState;
        let model = PersistenceQuorumModel::new(5, vec![1, 3]);
        assert_eq!(model.num_nodes(), 5);
        assert_eq!(model.quorum(), &[1, 3]);
        // All members faulty: data lost even though other nodes are fine.
        let lost = FailureConfig::new(vec![
            NodeState::Correct,
            NodeState::Crashed,
            NodeState::Correct,
            NodeState::Byzantine,
            NodeState::Correct,
        ]);
        assert!(!model.is_safe(&lost));
        // One member survives: safe, regardless of the rest of the cluster.
        let saved = FailureConfig::new(vec![
            NodeState::Crashed,
            NodeState::Correct,
            NodeState::Crashed,
            NodeState::Crashed,
            NodeState::Crashed,
        ]);
        assert!(model.is_safe(&saved));
        assert!(model.is_live(&lost) && model.is_live(&saved));
        // Not a counting model: placement matters.
        assert!(model.as_counting().is_none());
    }

    #[test]
    fn persistence_quorum_model_agrees_with_analytic_loss_probability() {
        // Small enough for exhaustive enumeration: the model's unsafety equals the
        // closed-form quorum loss probability.
        let deployment = Deployment::uniform_crash(6, 0.2);
        let model = PersistenceQuorumModel::new(6, vec![0, 2, 4]);
        let report = EnumerationEngine
            .run(&model, (&deployment).into(), &Budget::default())
            .report;
        let analytic = quorum_loss_probability(&deployment, &[0, 2, 4]);
        assert!((report.unsafety() - analytic).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn persistence_quorum_model_rejects_bad_members() {
        PersistenceQuorumModel::new(3, vec![0, 7]);
    }
}
