//! Data-loss (durability) analysis.
//!
//! §4 of the paper: quorum systems that enforce durability are conservative because they
//! assume the worst case — "in theory, they no longer guarantee safety if *any*
//! combination of |Q_per| nodes fail. But, in reality, the probability that |Q_per|
//! failures leads to data loss is vanishingly unlikely": in a 100-node cluster with
//! |Q_per| = 10 and p_u = 10% there is a ~50% chance that 10 nodes fail, but only ~1 in
//! 10 billion that the failures cover the most recently formed persistence quorum.
//! This module quantifies both sides of that argument; repair-aware MTTDL is
//! [`fault_model::markov::RepairableGroup`]'s.

use fault_model::metrics::Nines;
use fault_model::mode::FaultProfile;

use crate::counting::FaultCountDistribution;
use crate::failure::FailureConfig;
use crate::protocol::ProtocolModel;

/// Probability that *every* member of `quorum` is faulty over the window — i.e. the most
/// recently written persistence quorum loses all of its copies.
///
/// # Panics
///
/// Panics if any member index is out of range or repeated.
pub fn quorum_loss_probability(profiles: &[FaultProfile], quorum: &[usize]) -> f64 {
    let mut seen = vec![false; profiles.len()];
    let mut p = 1.0;
    for &m in quorum {
        assert!(m < profiles.len(), "quorum member {m} out of range");
        assert!(!seen[m], "quorum member {m} repeated");
        seen[m] = true;
        p *= profiles[m].fault_probability();
    }
    p
}

/// Durability of data persisted on `quorum`: the probability that at least one member
/// survives the window.
pub fn quorum_durability(profiles: &[FaultProfile], quorum: &[usize]) -> Nines {
    Nines::from_probability(1.0 - quorum_loss_probability(profiles, quorum))
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

/// Evaluates the §4 claim for independent nodes with these profiles: compares the
/// probability of `quorum_size` simultaneous faults with the probability that a
/// *specific* quorum of the `quorum_size` least reliable nodes is wiped out.
pub fn durability_claim(profiles: &[FaultProfile], quorum_size: usize) -> DurabilityClaim {
    assert!(
        quorum_size <= profiles.len(),
        "quorum cannot exceed the deployment"
    );
    let p_threshold_exceeded =
        FaultCountDistribution::from_profiles(profiles).probability_at_least_faults(quorum_size);
    // The adversarial placement: data persisted on the least reliable nodes.
    let ranked = nodes_by_reliability(profiles);
    let worst: Vec<usize> = ranked[ranked.len() - quorum_size..].to_vec();
    let p_data_loss = quorum_loss_probability(profiles, &worst);
    DurabilityClaim {
        p_threshold_exceeded,
        p_data_loss,
        quorum_size,
    }
}

/// Node indices ordered from most to least reliable (lowest fault probability
/// first); ties broken by index.
pub fn nodes_by_reliability(profiles: &[FaultProfile]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..profiles.len()).collect();
    idx.sort_by(|&a, &b| {
        profiles[a]
            .fault_probability()
            .partial_cmp(&profiles[b].fault_probability())
            .expect("fault probabilities are never NaN")
            .then(a.cmp(&b))
    });
    idx
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Budget, EngineChoice};
    use crate::scratch::GroupScratch;
    use fault_model::correlation::CorrelationModel;

    #[test]
    fn paper_hundred_node_claim() {
        // N = 100, |Q_per| = 10, p_u = 10%.
        let deployment = vec![FaultProfile::crash_only(0.10); 100];
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
        let deployment = vec![FaultProfile::crash_only(0.1); 5];
        let p = quorum_loss_probability(&deployment, &[0, 1, 2]);
        assert!((p - 1e-3).abs() < 1e-12);
        assert!((quorum_durability(&deployment, &[0, 1, 2]).probability() - 0.999).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_quorum_durability_depends_on_members() {
        let deployment = vec![
            FaultProfile::crash_only(0.01),
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.08),
        ];
        let unreliable_only = quorum_loss_probability(&deployment, &[1, 2, 3]);
        let with_reliable = quorum_loss_probability(&deployment, &[0, 2, 3]);
        assert!(with_reliable < unreliable_only / 5.0);
    }

    #[test]
    fn durability_claim_uses_least_reliable_nodes() {
        let deployment = vec![
            FaultProfile::crash_only(0.001),
            FaultProfile::crash_only(0.5),
            FaultProfile::crash_only(0.5),
        ];
        let claim = durability_claim(&deployment, 2);
        assert!((claim.p_data_loss - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reliability_ordering() {
        let profiles = [
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.01),
            FaultProfile::crash_only(0.04),
        ];
        assert_eq!(nodes_by_reliability(&profiles), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_quorum_members_are_rejected() {
        let deployment = vec![FaultProfile::crash_only(0.1); 3];
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
        let scenario = CorrelationModel::uniform(6, FaultProfile::crash_only(0.2));
        let model = PersistenceQuorumModel::new(6, vec![0, 2, 4]);
        let report = EngineChoice::Enumeration
            .run(
                &model,
                &scenario,
                &Budget::default(),
                &GroupScratch::default(),
            )
            .report;
        let analytic = quorum_loss_probability(scenario.profiles(), &[0, 2, 4]);
        assert!((report.unsafety() - analytic).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn persistence_quorum_model_rejects_bad_members() {
        PersistenceQuorumModel::new(3, vec![0, 7]);
    }
}
