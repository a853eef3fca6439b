//! Cost- and sustainability-aware deployment search.
//!
//! §1/§3.2: "one can run Raft on nine, less reliable nodes that suffer a 8% failure rate
//! and obtain the same 99.97% safety and liveness. If these resources are 10× cheaper
//! (e.g., spot instances, older hardware), this yields a 3× reduction in cost." This
//! module provides an instance catalogue, the deployment search that finds the cheapest
//! (or lowest-carbon) cluster meeting a reliability target, and the cost-equivalence
//! comparison behind the claim.

use crate::analyzer::{analyze, ReliabilityReport};
use crate::deployment::Deployment;
use crate::protocol::CountingModel;

/// One procurable machine type.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Human-readable name.
    pub name: String,
    /// Probability of failing over the mission window (annual, for the default window).
    pub fault_probability: f64,
    /// Price in dollars per node-hour.
    pub hourly_cost: f64,
    /// Carbon intensity in gCO2e per node-hour (embodied + operational).
    pub carbon_per_hour: f64,
}

impl InstanceType {
    /// Creates an instance type.
    pub fn new(
        name: impl Into<String>,
        fault_probability: f64,
        hourly_cost: f64,
        carbon_per_hour: f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&fault_probability));
        assert!(hourly_cost >= 0.0 && carbon_per_hour >= 0.0);
        Self {
            name: name.into(),
            fault_probability,
            hourly_cost,
            carbon_per_hour,
        }
    }
}

/// The default catalogue used by the examples and the `repro` harness: a reliable
/// on-demand machine, a spot instance ten times cheaper but failing at 8%/year (the
/// paper's example), and reused, aged hardware with a lower carbon footprint.
pub fn default_catalogue() -> Vec<InstanceType> {
    vec![
        InstanceType::new("on-demand", 0.01, 1.00, 120.0),
        InstanceType::new("spot", 0.08, 0.10, 120.0),
        InstanceType::new("aged-reuse", 0.04, 0.25, 40.0),
    ]
}

/// A candidate deployment: `n` nodes of a single instance type, with its analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentOption {
    /// The instance type used for every node.
    pub instance: InstanceType,
    /// Cluster size.
    pub n: usize,
    /// Reliability of the candidate.
    pub report: ReliabilityReport,
    /// Total cost in dollars per hour.
    pub hourly_cost: f64,
    /// Total carbon in gCO2e per hour.
    pub carbon_per_hour: f64,
}

/// Objective to minimize when searching deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize dollars per hour.
    Cost,
    /// Minimize gCO2e per hour.
    Carbon,
}

/// Enumerates homogeneous deployments (one instance type, odd sizes up to `max_n`),
/// keeping those whose safe-and-live probability reaches `target_nines`.
///
/// `model_for` maps a cluster size to the protocol model to analyze (e.g.
/// `RaftModel::standard`).
pub fn feasible_deployments<M, F>(
    catalogue: &[InstanceType],
    max_n: usize,
    target_nines: f64,
    model_for: F,
) -> Vec<DeploymentOption>
where
    M: CountingModel,
    F: Fn(usize) -> M,
{
    assert!(max_n >= 1);
    let mut options = Vec::new();
    for instance in catalogue {
        for n in (1..=max_n).filter(|n| n % 2 == 1) {
            let deployment = Deployment::uniform_crash(n, instance.fault_probability);
            let model = model_for(n);
            let report = analyze(&model, &deployment);
            if report.safe_and_live.meets(target_nines) {
                options.push(DeploymentOption {
                    instance: instance.clone(),
                    n,
                    report,
                    hourly_cost: instance.hourly_cost * n as f64,
                    carbon_per_hour: instance.carbon_per_hour * n as f64,
                });
            }
        }
    }
    options
}

/// Picks the best feasible deployment under an objective, or `None` if nothing meets the
/// target within `max_n` nodes.
pub fn cheapest_deployment<M, F>(
    catalogue: &[InstanceType],
    max_n: usize,
    target_nines: f64,
    objective: Objective,
    model_for: F,
) -> Option<DeploymentOption>
where
    M: CountingModel,
    F: Fn(usize) -> M,
{
    let mut options = feasible_deployments(catalogue, max_n, target_nines, model_for);
    options.sort_by(|a, b| {
        let key = |o: &DeploymentOption| match objective {
            Objective::Cost => o.hourly_cost,
            Objective::Carbon => o.carbon_per_hour,
        };
        key(a).partial_cmp(&key(b)).unwrap().then(a.n.cmp(&b.n))
    });
    options.into_iter().next()
}

/// The paper's cost-equivalence comparison: two deployments delivering (at least) the
/// same nines, with their price ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct CostEquivalence {
    /// The expensive baseline (e.g. 3 on-demand nodes at 1%).
    pub baseline: DeploymentOption,
    /// The cheap alternative (e.g. 9 spot nodes at 8%).
    pub alternative: DeploymentOption,
}

impl CostEquivalence {
    /// Ratio of baseline cost to alternative cost (>1 means the alternative is cheaper).
    pub fn cost_reduction_factor(&self) -> f64 {
        self.baseline.hourly_cost / self.alternative.hourly_cost
    }

    /// Difference in safe-and-live nines (alternative − baseline).
    pub fn nines_difference(&self) -> f64 {
        self.alternative.report.safe_and_live.nines() - self.baseline.report.safe_and_live.nines()
    }

    /// Whether the alternative matches the baseline's reliability to within `tol` nines.
    pub fn reliability_matches(&self, tol: f64) -> bool {
        self.nines_difference() >= -tol
    }
}

/// Builds the paper's "3 reliable nodes vs 9 spot nodes" comparison for a given protocol
/// family.
pub fn cost_equivalence<M, F>(
    reliable: &InstanceType,
    cheap: &InstanceType,
    baseline_n: usize,
    alternative_n: usize,
    model_for: F,
) -> CostEquivalence
where
    M: CountingModel,
    F: Fn(usize) -> M,
{
    let make = |instance: &InstanceType, n: usize| {
        let deployment = Deployment::uniform_crash(n, instance.fault_probability);
        let report = analyze(&model_for(n), &deployment);
        DeploymentOption {
            instance: instance.clone(),
            n,
            report,
            hourly_cost: instance.hourly_cost * n as f64,
            carbon_per_hour: instance.carbon_per_hour * n as f64,
        }
    };
    CostEquivalence {
        baseline: make(reliable, baseline_n),
        alternative: make(cheap, alternative_n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raft_model::RaftModel;

    #[test]
    fn paper_cost_claim_three_reliable_vs_nine_spot() {
        let catalogue = default_catalogue();
        let eq = cost_equivalence(&catalogue[0], &catalogue[1], 3, 9, RaftModel::standard);
        // Same reliability (99.97% both, to the paper's two-decimal precision),
        // ~3.3x cheaper with 10x cheaper nodes.
        assert!(eq.reliability_matches(0.05));
        assert!(
            eq.cost_reduction_factor() > 3.0,
            "cost reduction {}",
            eq.cost_reduction_factor()
        );
        assert!((eq.baseline.report.safe_and_live.probability() - 0.9997).abs() < 5e-5);
        assert!((eq.alternative.report.safe_and_live.probability() - 0.9997).abs() < 5e-5);
    }

    #[test]
    fn cheapest_deployment_prefers_spot_when_target_is_modest() {
        let best = cheapest_deployment(
            &default_catalogue(),
            11,
            3.0,
            Objective::Cost,
            RaftModel::standard,
        )
        .expect("a feasible deployment exists");
        assert_eq!(best.instance.name, "spot");
        assert!(
            best.hourly_cost < 1.0,
            "cheaper than a single on-demand node"
        );
        assert!(best.report.safe_and_live.meets(3.0));
    }

    #[test]
    fn carbon_objective_prefers_aged_hardware() {
        let best = cheapest_deployment(
            &default_catalogue(),
            11,
            3.0,
            Objective::Carbon,
            RaftModel::standard,
        )
        .unwrap();
        assert_eq!(best.instance.name, "aged-reuse");
    }

    #[test]
    fn unreachable_targets_return_none() {
        let none = cheapest_deployment(
            &default_catalogue(),
            3,
            12.0,
            Objective::Cost,
            RaftModel::standard,
        );
        assert!(none.is_none());
    }

    #[test]
    fn feasible_deployments_all_meet_target() {
        let options = feasible_deployments(&default_catalogue(), 9, 4.0, RaftModel::standard);
        assert!(!options.is_empty());
        assert!(options.iter().all(|o| o.report.safe_and_live.meets(4.0)));
        assert!(options.iter().all(|o| o.n % 2 == 1));
    }
}
