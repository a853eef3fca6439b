//! Node specifications and fleets.
//!
//! A [`Fleet`] is the deployment-side description of the machines available to run a
//! consensus group: each node carries a fault curve, a hardware class, and cost /
//! sustainability attributes. The analysis layer turns a fleet plus a mission window into
//! per-node [`FaultProfile`]s; the cost optimizer searches over fleets.

use std::sync::Arc;

use crate::curve::{ConstantCurve, FaultCurve};
use crate::metrics::HOURS_PER_YEAR;
use crate::mode::FaultProfile;

/// Identifier of a node within a fleet (dense, zero-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// Coarse hardware class of a node; used by the telemetry generator and the cost model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Reserved, well-maintained on-demand instance or new hardware.
    Reliable,
    /// Preemptible / spot instance with a noticeably higher failure (eviction) rate.
    Spot,
    /// Hardware past its refresh cycle, reused for sustainability.
    Aged,
    /// Trusted-execution-environment host (low Byzantine probability, non-zero).
    Tee,
    /// Anything else, labelled.
    Custom(String),
}

impl std::fmt::Display for NodeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeClass::Reliable => write!(f, "reliable"),
            NodeClass::Spot => write!(f, "spot"),
            NodeClass::Aged => write!(f, "aged"),
            NodeClass::Tee => write!(f, "tee"),
            NodeClass::Custom(name) => write!(f, "{name}"),
        }
    }
}

/// Full description of one node available to the deployment.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Stable identifier within the fleet.
    pub id: NodeId,
    /// Human-readable name (defaults to the id).
    pub name: String,
    /// Hardware / procurement class.
    pub class: NodeClass,
    /// Crash fault curve (hazard of fail-stop faults).
    pub crash_curve: Arc<dyn FaultCurve>,
    /// Byzantine fault curve (hazard of arbitrary deviation); often orders of magnitude
    /// below the crash curve.
    pub byzantine_curve: Arc<dyn FaultCurve>,
    /// Current age of the node in hours (fault curves are evaluated from this age).
    pub age_hours: f64,
    /// Hourly price in dollars.
    pub hourly_cost: f64,
    /// Embodied + operational carbon in gCO2e per hour.
    pub carbon_per_hour: f64,
}

impl NodeSpec {
    /// Creates a node with constant crash probability `p` per `window_hours` and no
    /// Byzantine faults — the §3 analysis setting.
    pub fn with_constant_crash(id: usize, p: f64, window_hours: f64) -> Self {
        Self {
            id: NodeId(id),
            name: format!("n{id}"),
            class: NodeClass::Reliable,
            crash_curve: Arc::new(ConstantCurve::from_window_probability(p, window_hours)),
            byzantine_curve: Arc::new(ConstantCurve::new(0.0)),
            age_hours: 0.0,
            hourly_cost: 1.0,
            carbon_per_hour: 100.0,
        }
    }

    /// Sets the human-readable name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the hourly cost in dollars.
    pub fn with_cost(mut self, hourly_cost: f64) -> Self {
        assert!(hourly_cost >= 0.0);
        self.hourly_cost = hourly_cost;
        self
    }

    /// Sets the carbon intensity in gCO2e per hour.
    pub fn with_carbon(mut self, carbon_per_hour: f64) -> Self {
        assert!(carbon_per_hour >= 0.0);
        self.carbon_per_hour = carbon_per_hour;
        self
    }

    /// Sets the current age in hours.
    pub fn with_age(mut self, age_hours: f64) -> Self {
        assert!(age_hours >= 0.0);
        self.age_hours = age_hours;
        self
    }

    /// Sets the crash fault curve.
    pub fn with_crash_curve(mut self, curve: Arc<dyn FaultCurve>) -> Self {
        self.crash_curve = curve;
        self
    }

    /// Evaluates this node's fault profile over the next `window_hours`, starting at the
    /// node's current age.
    ///
    /// Crash and Byzantine hazards are treated as competing risks: the raw window
    /// probabilities are rescaled so that their sum never exceeds the probability of any
    /// fault happening at all.
    pub fn profile(&self, window_hours: f64) -> FaultProfile {
        let p_crash = self
            .crash_curve
            .failure_probability(self.age_hours, window_hours);
        let p_byz = self
            .byzantine_curve
            .failure_probability(self.age_hours, window_hours);
        // Competing risks: P(any fault) = 1 - (1-pc)(1-pb); attribute it proportionally.
        let p_any = 1.0 - (1.0 - p_crash) * (1.0 - p_byz);
        let total = p_crash + p_byz;
        if total <= 0.0 {
            return FaultProfile::reliable();
        }
        FaultProfile::new(p_any * p_crash / total, p_any * p_byz / total)
    }
}

/// A collection of nodes considered for (or participating in) a consensus deployment.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    nodes: Vec<NodeSpec>,
}

impl Fleet {
    /// Creates an empty fleet.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates a homogeneous fleet of `n` nodes each failing (by crashing) with
    /// probability `p` over a one-year window — the configuration used throughout §3.
    pub fn homogeneous_crash(n: usize, p: f64) -> Self {
        let nodes = (0..n)
            .map(|i| NodeSpec::with_constant_crash(i, p, HOURS_PER_YEAR))
            .collect();
        Self { nodes }
    }

    /// Adds a node, reassigning its id to keep ids dense, and returns the assigned id.
    pub fn push(&mut self, mut node: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len());
        node.id = id;
        self.nodes.push(node);
        id
    }

    /// Number of nodes in the fleet.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0]
    }

    /// Iterator over all nodes.
    pub fn iter(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.iter()
    }

    /// Per-node fault profiles over a mission window starting now.
    pub fn profiles(&self, window_hours: f64) -> Vec<FaultProfile> {
        self.nodes.iter().map(|n| n.profile(window_hours)).collect()
    }

    /// Total hourly cost of running every node in the fleet.
    pub fn hourly_cost(&self) -> f64 {
        self.nodes.iter().map(|n| n.hourly_cost).sum()
    }

    /// Total carbon intensity of the fleet in gCO2e per hour.
    pub fn carbon_per_hour(&self) -> f64 {
        self.nodes.iter().map(|n| n.carbon_per_hour).sum()
    }
}

impl FromIterator<NodeSpec> for Fleet {
    fn from_iter<T: IntoIterator<Item = NodeSpec>>(iter: T) -> Self {
        let mut fleet = Fleet::new();
        for node in iter {
            fleet.push(node);
        }
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::WeibullCurve;

    #[test]
    fn homogeneous_fleet_profiles_match_requested_probability() {
        let fleet = Fleet::homogeneous_crash(5, 0.02);
        assert_eq!(fleet.len(), 5);
        for p in fleet.profiles(HOURS_PER_YEAR) {
            assert!((p.crash_probability() - 0.02).abs() < 1e-9);
            assert_eq!(p.byzantine_probability(), 0.0);
        }
    }

    #[test]
    fn push_assigns_dense_ids() {
        let mut fleet = Fleet::new();
        let a = fleet.push(NodeSpec::with_constant_crash(99, 0.01, HOURS_PER_YEAR));
        let b = fleet.push(NodeSpec::with_constant_crash(7, 0.02, HOURS_PER_YEAR));
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert_eq!(fleet.node(b).id, NodeId(1));
    }

    #[test]
    fn profile_combines_crash_and_byzantine_curves() {
        let mut node = NodeSpec::with_constant_crash(0, 0.04, HOURS_PER_YEAR);
        node.byzantine_curve = Arc::new(ConstantCurve::from_window_probability(
            0.0001,
            HOURS_PER_YEAR,
        ));
        let profile = node.profile(HOURS_PER_YEAR);
        assert!(profile.crash_probability() > 0.039);
        assert!(profile.byzantine_probability() > 0.9e-4);
        assert!(profile.fault_probability() < 0.0402);
    }

    #[test]
    fn aged_node_with_wearout_curve_is_less_reliable() {
        let young = NodeSpec::with_constant_crash(0, 0.0, HOURS_PER_YEAR)
            .with_crash_curve(Arc::new(WeibullCurve::new(3.0, 60_000.0)))
            .with_age(1_000.0);
        let old = NodeSpec::with_constant_crash(1, 0.0, HOURS_PER_YEAR)
            .with_crash_curve(Arc::new(WeibullCurve::new(3.0, 60_000.0)))
            .with_age(50_000.0);
        assert!(
            old.profile(HOURS_PER_YEAR).fault_probability()
                > young.profile(HOURS_PER_YEAR).fault_probability()
        );
    }

    #[test]
    fn fleet_cost_and_carbon_are_sums() {
        let mut fleet = Fleet::new();
        fleet.push(
            NodeSpec::with_constant_crash(0, 0.01, HOURS_PER_YEAR)
                .with_cost(1.0)
                .with_carbon(50.0),
        );
        fleet.push(
            NodeSpec::with_constant_crash(1, 0.08, HOURS_PER_YEAR)
                .with_cost(0.1)
                .with_carbon(20.0),
        );
        assert!((fleet.hourly_cost() - 1.1).abs() < 1e-12);
        assert!((fleet.carbon_per_hour() - 70.0).abs() < 1e-12);
    }
}
