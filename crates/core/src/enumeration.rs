//! Exact analysis by enumerating failure configurations.
//!
//! The paper's method (§3): enumerate every failure configuration, decide for each
//! whether the protocol stays safe / live, weight it by its probability under the
//! deployment, and sum. With only one failure mode per node the space is 2^N; with both
//! crash and Byzantine probabilities it is 3^N. This engine is exact and fully general
//! (it works for *any* [`ProtocolModel`], including non-counting ones) but exponential,
//! so it is intended for the paper-scale clusters (N ≲ 20).

use fault_model::mode::NodeState;

use crate::deployment::Deployment;
use crate::failure::FailureConfig;
use crate::protocol::ProtocolModel;

/// Raw probabilities produced by an analysis engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawReliability {
    /// Probability that the deployment is safe.
    pub p_safe: f64,
    /// Probability that the deployment is live.
    pub p_live: f64,
    /// Probability that the deployment is both safe and live.
    pub p_safe_and_live: f64,
}

impl RawReliability {
    /// Clamps tiny numerical excursions outside `[0, 1]`.
    pub fn clamped(self) -> Self {
        Self {
            p_safe: self.p_safe.clamp(0.0, 1.0),
            p_live: self.p_live.clamp(0.0, 1.0),
            p_safe_and_live: self.p_safe_and_live.clamp(0.0, 1.0),
        }
    }
}

/// The one limit on exhaustive enumeration: at most 2^20 failure configurations —
/// 20 binary nodes or 12 ternary ones, the paper-scale clusters. Admissibility is
/// exposed via [`enumeration_supported`] so the engine auto-selector and this module
/// cannot drift.
pub const MAX_ENUMERATION_CONFIGS: u64 = 1 << 20;

/// The per-node failure modes enumeration considers for these profiles. Shared by
/// [`enumerate_reliability`], [`enumeration_supported`] and
/// [`enumeration_config_count`] so the three can never disagree.
fn active_modes(profiles: &[fault_model::mode::FaultProfile]) -> Vec<NodeState> {
    let crash = profiles.iter().any(|p| p.crash_probability() > 0.0);
    let byzantine = profiles.iter().any(|p| p.byzantine_probability() > 0.0);
    if crash && byzantine {
        vec![NodeState::Correct, NodeState::Crashed, NodeState::Byzantine]
    } else if byzantine {
        vec![NodeState::Correct, NodeState::Byzantine]
    } else {
        vec![NodeState::Correct, NodeState::Crashed]
    }
}

/// Number of failure configurations [`enumerate_reliability`] would visit for these
/// profiles, saturating at `u64::MAX`.
pub fn enumeration_config_count(profiles: &[fault_model::mode::FaultProfile]) -> u64 {
    let modes = active_modes(profiles).len() as u64;
    let mut total: u64 = 1;
    for _ in 0..profiles.len() {
        total = total.saturating_mul(modes);
    }
    total
}

/// Whether [`enumerate_reliability`] accepts these profiles without panicking — the
/// module's own admissibility rule, for the engine auto-selector.
pub fn enumeration_supported(profiles: &[fault_model::mode::FaultProfile]) -> bool {
    enumeration_config_count(profiles) <= MAX_ENUMERATION_CONFIGS
}

/// Exhaustively enumerates failure configurations and returns the exact safety/liveness
/// probabilities of `model` under `deployment`.
///
/// # Panics
///
/// Panics if the deployment size does not match the model, or if the configuration space
/// is too large to enumerate (use [`crate::counting`] or [`crate::montecarlo`] instead).
pub fn enumerate_reliability<M: ProtocolModel + ?Sized>(
    model: &M,
    deployment: &Deployment,
) -> RawReliability {
    assert_eq!(
        model.num_nodes(),
        deployment.len(),
        "model and deployment disagree on the cluster size"
    );
    let n = deployment.len();
    let modes = active_modes(deployment.profiles());
    assert!(
        enumeration_supported(deployment.profiles()),
        "enumeration limited to {MAX_ENUMERATION_CONFIGS} configurations, got {}^{n}",
        modes.len()
    );

    let mut p_safe = 0.0;
    let mut p_live = 0.0;
    let mut p_both = 0.0;
    let mut states = vec![NodeState::Correct; n];
    enumerate_recursive(
        model,
        deployment,
        &modes,
        &mut states,
        0,
        1.0,
        &mut p_safe,
        &mut p_live,
        &mut p_both,
    );
    RawReliability {
        p_safe,
        p_live,
        p_safe_and_live: p_both,
    }
    .clamped()
}

#[allow(clippy::too_many_arguments)]
fn enumerate_recursive<M: ProtocolModel + ?Sized>(
    model: &M,
    deployment: &Deployment,
    modes: &[NodeState],
    states: &mut Vec<NodeState>,
    node: usize,
    prefix_probability: f64,
    p_safe: &mut f64,
    p_live: &mut f64,
    p_both: &mut f64,
) {
    // Prune zero-probability branches early; they contribute nothing.
    if prefix_probability == 0.0 {
        return;
    }
    if node == states.len() {
        let config = FailureConfig::new(states.clone());
        let safe = model.is_safe(&config);
        let live = model.is_live(&config);
        if safe {
            *p_safe += prefix_probability;
        }
        if live {
            *p_live += prefix_probability;
        }
        if safe && live {
            *p_both += prefix_probability;
        }
        return;
    }
    let profile = deployment.profile(node);
    for &mode in modes {
        let p = profile.probability_of(mode);
        states[node] = mode;
        enumerate_recursive(
            model,
            deployment,
            modes,
            states,
            node + 1,
            prefix_probability * p,
            p_safe,
            p_live,
            p_both,
        );
    }
    states[node] = NodeState::Correct;
}

/// Enumerates every failure configuration (with non-zero probability mass structure
/// ignored) and returns those for which `predicate` holds, together with their
/// probabilities. Useful for debugging small models and for the tradeoff explorer's
/// "which configurations hurt us" reports.
pub fn configurations_where<M: ProtocolModel + ?Sized>(
    model: &M,
    deployment: &Deployment,
    predicate: impl Fn(&M, &FailureConfig) -> bool,
) -> Vec<(FailureConfig, f64)> {
    let n = deployment.len();
    assert!(n <= 16, "configuration listing limited to 16 nodes");
    let ternary = deployment.has_crash() && deployment.has_byzantine();
    let modes: Vec<NodeState> = if ternary {
        vec![NodeState::Correct, NodeState::Crashed, NodeState::Byzantine]
    } else if deployment.has_byzantine() {
        vec![NodeState::Correct, NodeState::Byzantine]
    } else {
        vec![NodeState::Correct, NodeState::Crashed]
    };
    let mut out = Vec::new();
    let mut indices = vec![0usize; n];
    loop {
        let states: Vec<NodeState> = indices.iter().map(|&i| modes[i]).collect();
        let config = FailureConfig::new(states);
        if predicate(model, &config) {
            let p = config.probability(deployment);
            out.push((config, p));
        }
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == n {
                return out;
            }
            indices[pos] += 1;
            if indices[pos] < modes.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft_model::PbftModel;
    use crate::raft_model::RaftModel;

    #[test]
    fn raft_three_nodes_one_percent_matches_paper() {
        let model = RaftModel::standard(3);
        let deployment = Deployment::uniform_crash(3, 0.01);
        let r = enumerate_reliability(&model, &deployment);
        // Safety is structural; liveness = P(at most 1 crash).
        assert!((r.p_safe - 1.0).abs() < 1e-12);
        let expected_live = 0.99f64.powi(3) + 3.0 * 0.01 * 0.99f64.powi(2);
        assert!((r.p_live - expected_live).abs() < 1e-12);
        assert!((r.p_safe_and_live - expected_live).abs() < 1e-12);
        // 99.97% as quoted in the paper.
        assert!((r.p_safe_and_live - 0.9997).abs() < 5e-5);
    }

    #[test]
    fn pbft_four_nodes_one_percent_matches_table1() {
        let model = PbftModel::standard(4);
        let deployment = Deployment::uniform_byzantine(4, 0.01);
        let r = enumerate_reliability(&model, &deployment);
        let p_at_most_one = 0.99f64.powi(4) + 4.0 * 0.01 * 0.99f64.powi(3);
        assert!((r.p_safe - p_at_most_one).abs() < 1e-12);
        assert!((r.p_live - p_at_most_one).abs() < 1e-12);
    }

    #[test]
    fn probabilities_are_consistent() {
        let model = PbftModel::standard(7);
        let deployment = Deployment::uniform_byzantine(7, 0.05);
        let r = enumerate_reliability(&model, &deployment);
        assert!(r.p_safe_and_live <= r.p_safe + 1e-12);
        assert!(r.p_safe_and_live <= r.p_live + 1e-12);
        assert!(r.p_safe <= 1.0 && r.p_live <= 1.0);
        assert!(r.p_safe_and_live >= r.p_safe + r.p_live - 1.0 - 1e-12);
    }

    #[test]
    fn ternary_enumeration_handles_mixed_deployments() {
        let model = PbftModel::standard(4);
        let deployment = Deployment::uniform_mixed(4, 0.04, 0.001);
        let r = enumerate_reliability(&model, &deployment);
        // Crashes cannot break PBFT safety, so safety only depends on Byzantine faults.
        let p_byz_at_most_1 = {
            let pb = 0.001f64;
            let keep = 1.0 - pb;
            keep.powi(4) + 4.0 * pb * keep.powi(3)
        };
        assert!((r.p_safe - p_byz_at_most_1).abs() < 1e-9, "{}", r.p_safe);
        assert!(r.p_live < r.p_safe);
    }

    #[test]
    fn heterogeneous_deployment_enumeration() {
        // Node 0 never fails; nodes 1 and 2 fail with certainty: Raft(3) loses liveness.
        let deployment = Deployment::from_profiles(vec![
            fault_model::mode::FaultProfile::crash_only(0.0),
            fault_model::mode::FaultProfile::crash_only(1.0),
            fault_model::mode::FaultProfile::crash_only(1.0),
        ]);
        let r = enumerate_reliability(&RaftModel::standard(3), &deployment);
        assert_eq!(r.p_live, 0.0);
        assert_eq!(r.p_safe, 1.0);
    }

    #[test]
    fn configurations_where_lists_unsafe_cases() {
        let model = PbftModel::standard(4);
        let deployment = Deployment::uniform_byzantine(4, 0.01);
        let unsafe_configs = configurations_where(&model, &deployment, |m, c| !m.is_safe(c));
        // Unsafe iff at least 2 Byzantine nodes: C(4,2)+C(4,3)+C(4,4) = 11 configurations.
        assert_eq!(unsafe_configs.len(), 11);
        let total: f64 = unsafe_configs.iter().map(|(_, p)| p).sum();
        let r = enumerate_reliability(&model, &deployment);
        assert!((total - (1.0 - r.p_safe)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "disagree on the cluster size")]
    fn size_mismatch_panics() {
        enumerate_reliability(&RaftModel::standard(3), &Deployment::uniform_crash(4, 0.01));
    }
}
