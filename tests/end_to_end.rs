//! Cross-crate pipeline tests: telemetry → fault curves → deployment → analysis →
//! cost search and repair-aware durability.

use fault_model::correlation::CorrelationModel;
use fault_model::metrics::{Nines, HOURS_PER_YEAR};
use fault_model::mode::FaultProfile;
use fault_model::node::{Fleet, NodeSpec};
use fault_model::telemetry::{ClassSpec, TelemetryEstimator, TelemetryGenerator};
use prob_consensus::analyzer::analyze_auto;
use prob_consensus::engine::Budget;
use prob_consensus::optimize::{
    default_catalogue, optimize, DeploymentSpace, OptimizerConfig, TargetSpec,
};
use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query, TimeAxis};
use prob_consensus::raft_model::RaftModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[test]
fn telemetry_to_guarantee_pipeline() {
    // 1. Estimate fault rates from synthetic telemetry.
    let telemetry = TelemetryGenerator::new(vec![
        ClassSpec::simple("reliable", 10_000, 0.01),
        ClassSpec::simple("spot", 10_000, 0.08),
    ])
    .generate(&mut StdRng::seed_from_u64(1));
    let estimator = TelemetryEstimator::new();
    let reliable_afr = estimator
        .estimate_afr(&telemetry.for_class("reliable"))
        .unwrap()
        .afr;
    let spot_afr = estimator
        .estimate_afr(&telemetry.for_class("spot"))
        .unwrap()
        .afr;
    assert!(spot_afr > 3.0 * reliable_afr);

    // 2. Build deployments from the estimates and compare guarantees.
    let budget = Budget::default();
    let three_reliable = analyze_auto(
        &RaftModel::standard(3),
        &CorrelationModel::uniform(3, FaultProfile::crash_only(reliable_afr)),
        &budget,
    )
    .expect("well-formed scenario")
    .report;
    let nine_spot = analyze_auto(
        &RaftModel::standard(9),
        &CorrelationModel::uniform(9, FaultProfile::crash_only(spot_afr)),
        &budget,
    )
    .expect("well-formed scenario")
    .report;
    // The paper's equivalence survives estimation noise to within ~half a nine.
    assert!(
        (three_reliable.safe_and_live.nines() - nine_spot.safe_and_live.nines()).abs() < 0.5,
        "3 reliable: {} vs 9 spot: {}",
        three_reliable.safe_and_live,
        nine_spot.safe_and_live
    );
}

#[test]
fn fleet_curves_drive_time_varying_guarantees() {
    use fault_model::curve::WeibullCurve;
    let fleet: Fleet = (0..5)
        .map(|i| {
            NodeSpec::with_constant_crash(i, 0.0, HOURS_PER_YEAR)
                .with_crash_curve(Arc::new(WeibullCurve::new(3.0, 70_000.0)))
                .with_age(20_000.0 + 5_000.0 * i as f64)
        })
        .collect();
    let axis = TimeAxis::new(6.0 * HOURS_PER_YEAR, HOURS_PER_YEAR / 2.0)
        .with_window(HOURS_PER_YEAR / 4.0)
        .with_target_nines(4.0);
    let report = AnalysisSession::new()
        .run(&Query::new().time_horizon(axis).trajectory_cell(
            "aging-fleet",
            Arc::new(RaftModel::standard(5)),
            fleet,
        ))
        .expect("well-formed fleet trajectory");
    let dip = report.trajectory(0).first_below_target_hours;
    assert!(
        dip.is_some(),
        "an aging fleet eventually drops below four nines"
    );
}

#[test]
fn cost_search_meets_its_target() {
    let space = DeploymentSpace {
        instances: default_catalogue(),
        nodes: vec![1, 3, 5, 7, 9, 11],
        domains: None,
        placements: Vec::new(),
        target: TargetSpec::Protocol(ProtocolSpec::Raft),
    };
    let report = optimize(&AnalysisSession::new(), &space, &OptimizerConfig::new(4.0))
        .expect("well-formed space");
    let best = report
        .cheapest()
        .expect("a feasible deployment exists for four nines");
    assert!(best.exact && best.feasible);
    assert!(Nines::from_probability(best.probability).meets(4.0));
}

#[test]
fn markov_mttdl_and_window_analysis_tell_a_consistent_story() {
    // A 5-node group tolerating 2 simultaneous failures, lambda from a 8% AFR, repairs
    // within ~24h on average.
    let lambda = fault_model::metrics::afr_to_hourly_rate(0.08);
    let group = fault_model::markov::RepairableGroup::new(5, lambda, 1.0 / 24.0, 2);
    let mttdl = group.mean_time_to_threshold_exceeded();
    // With repair the mean time to losing the quorum should far exceed a decade.
    assert!(mttdl > 10.0 * HOURS_PER_YEAR, "MTTDL {mttdl} hours");
    let availability = group.steady_state_availability();
    assert!(availability > 0.999999);
}
