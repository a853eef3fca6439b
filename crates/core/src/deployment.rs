//! Deployments: the per-node failure probabilities the analysis runs against.

use fault_model::correlation::CorrelationModel;
use fault_model::mode::FaultProfile;

/// A deployment is the set of machines a consensus group runs on, reduced to each
/// machine's fault profile over the mission window of interest.
///
/// §3 of the paper assumes "every machine u has a constant probability p_u of failing";
/// [`Deployment::uniform_crash`] and [`Deployment::uniform_byzantine`] construct exactly
/// that setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    profiles: Vec<FaultProfile>,
}

impl Deployment {
    /// Creates a deployment from explicit per-node profiles.
    pub fn from_profiles(profiles: Vec<FaultProfile>) -> Self {
        assert!(!profiles.is_empty(), "deployment needs at least one node");
        Self { profiles }
    }

    /// `n` nodes, each crashing independently with probability `p` (no Byzantine faults) —
    /// the CFT analysis setting used for Table 2.
    pub fn uniform_crash(n: usize, p: f64) -> Self {
        Self::from_profiles(vec![FaultProfile::crash_only(p); n])
    }

    /// `n` nodes, each turning Byzantine independently with probability `p` — the BFT
    /// analysis setting used for Table 1.
    pub fn uniform_byzantine(n: usize, p: f64) -> Self {
        Self::from_profiles(vec![FaultProfile::byzantine_only(p); n])
    }

    /// `n` nodes with both a crash probability and a Byzantine probability (the
    /// "mercurial cores" setting of §2(4)).
    pub fn uniform_mixed(n: usize, crash: f64, byzantine: f64) -> Self {
        Self::from_profiles(vec![FaultProfile::new(crash, byzantine); n])
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the deployment has no nodes (never true; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The per-node fault profiles.
    pub fn profiles(&self) -> &[FaultProfile] {
        &self.profiles
    }

    /// The profile of one node.
    pub fn profile(&self, node: usize) -> FaultProfile {
        self.profiles[node]
    }

    /// Replaces the profile of one node, returning a new deployment. Used for
    /// node-replacement what-ifs ("swap three 8% nodes for 1% nodes").
    pub fn with_profile(&self, node: usize, profile: FaultProfile) -> Self {
        assert!(node < self.profiles.len(), "node index out of range");
        let mut profiles = self.profiles.clone();
        profiles[node] = profile;
        Self { profiles }
    }

    /// Indices of nodes ordered from most to least reliable (lowest fault probability
    /// first); ties broken by index.
    pub fn nodes_by_reliability(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.profiles.len()).collect();
        idx.sort_by(|&a, &b| {
            self.profiles[a]
                .fault_probability()
                .partial_cmp(&self.profiles[b].fault_probability())
                .unwrap()
                .then(a.cmp(&b))
        });
        idx
    }
}

/// The scenario the engines run on: a deployment is the correlation model with no
/// shock groups. The one conversion between the two.
impl From<&Deployment> for CorrelationModel {
    fn from(deployment: &Deployment) -> Self {
        CorrelationModel::independent(deployment.profiles.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_crash_deployment() {
        let d = Deployment::uniform_crash(5, 0.02);
        assert_eq!(d.len(), 5);
        assert_eq!(d.profiles(), &[FaultProfile::crash_only(0.02); 5]);
    }

    #[test]
    fn uniform_byzantine_deployment() {
        let d = Deployment::uniform_byzantine(4, 0.01);
        assert!(d.profiles().iter().all(|p| p.crash_probability() == 0.0));
        assert_eq!(d.profile(3).byzantine_probability(), 0.01);
    }

    #[test]
    fn mixed_deployment_has_both_modes() {
        let d = Deployment::uniform_mixed(3, 0.04, 0.0001);
        assert_eq!(d.profiles(), &[FaultProfile::new(0.04, 0.0001); 3]);
    }

    #[test]
    fn with_profile_replaces_one_node() {
        let d = Deployment::uniform_crash(7, 0.08);
        let improved = d.with_profile(2, FaultProfile::crash_only(0.01));
        assert_eq!(improved.profile(2).crash_probability(), 0.01);
        assert_eq!(improved.profile(3).crash_probability(), 0.08);
        assert_eq!(d.profile(2).crash_probability(), 0.08, "original unchanged");
    }

    #[test]
    fn reliability_ordering() {
        let d = Deployment::from_profiles(vec![
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.01),
            FaultProfile::crash_only(0.04),
        ]);
        assert_eq!(d.nodes_by_reliability(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn rejects_empty_deployment() {
        Deployment::from_profiles(vec![]);
    }
}
