//! The paper's payoff question, answered by search: "what is the *cheapest*
//! deployment that meets k nines?"
//!
//! ```text
//! cargo run --example cheapest_deployment
//! ```
//!
//! Two searches over a [`prob_consensus::optimize::DeploymentSpace`]:
//!
//! 1. **Consensus**: the cheapest Raft cluster meeting three nines of combined
//!    safety and liveness, over the default instance catalogue × cluster sizes
//!    3–9 — every candidate resolves exactly through the counting engine at
//!    tier 1, and the Pareto frontier shows what each extra nine costs.
//! 2. **Durability**: the `claim-durability-correlated` experiment generalized
//!    from a hand-picked comparison into an automated search — 100 spot nodes
//!    across 10 racks with correlated rack shocks, quorum placement as a search
//!    axis. The optimizer rediscovers cross-rack placement as the only feasible
//!    deployment at eight nines (~8 orders of magnitude beyond same-rack),
//!    refining the deep-tail candidate with importance sampling at tier 2.

use prob_consensus::optimize::{
    default_catalogue, optimize, DeploymentSpace, FailureDomains, NodeType, OptimizerConfig,
    Placement, RepairPolicy, TargetSpec,
};
use prob_consensus::query::{AnalysisSession, ProtocolSpec};

fn main() {
    let session = AnalysisSession::new();

    // 1. Cheapest 3-nines Raft cluster, with tier-3 time-domain scoring: the
    // frontier carries unavailability-minutes-per-year next to mission nines.
    let consensus_space = DeploymentSpace {
        instances: default_catalogue(),
        nodes: vec![3, 5, 7, 9],
        domains: None,
        placements: Vec::new(),
        target: TargetSpec::Protocol(ProtocolSpec::Raft),
    };
    let config = OptimizerConfig::new(3.0).with_repair(RepairPolicy {
        mttr_hours: 12.0,
        mission_hours: fault_model::metrics::HOURS_PER_YEAR,
    });
    let report = optimize(&session, &consensus_space, &config).expect("well-formed space");
    println!("{}", report.to_table());
    let best = report.cheapest().expect("the catalogue reaches 3 nines");
    println!(
        "Cheapest 3-nines consensus: {} at ${:.2}/h ({} nines)\n",
        best.label, best.hourly_cost, best.nines as i64
    );

    // 2. The correlated-durability search: placement across failure domains as
    // a first-class axis. Same grid the hand-picked experiment used.
    let durability_space = DeploymentSpace {
        instances: vec![NodeType::new("spot", 0.10, 0.10)],
        nodes: vec![100],
        domains: Some(FailureDomains {
            racks: 10,
            shock_probability: 0.01,
        }),
        placements: vec![Placement::SameRack, Placement::CrossRack],
        target: TargetSpec::PersistenceQuorum { quorum_size: 10 },
    };
    let config = OptimizerConfig::new(8.0)
        .with_screen_samples(20_000)
        .with_refine_samples(80_000)
        .with_seed(2026);
    let report = optimize(&session, &durability_space, &config).expect("well-formed space");
    println!("{}", report.to_table());
    for record in &report.evaluated {
        println!(
            "  {:<28} engine={:<18} tier={} p(loss)={:.3e} feasible={}",
            record.label,
            record.engine.to_string(),
            record.tier,
            record.failure_probability(),
            record.feasible
        );
    }
    let winner = report.cheapest().expect("cross-rack placement is feasible");
    assert_eq!(winner.placement, Some(Placement::CrossRack));
    println!(
        "\nThe search rediscovers cross-rack placement: p(loss) {:.2e} vs same-rack {:.2e}",
        winner.failure_probability(),
        report
            .evaluated
            .iter()
            .find(|r| r.placement == Some(Placement::SameRack))
            .map_or(f64::NAN, |r| r.failure_probability()),
    );
}
