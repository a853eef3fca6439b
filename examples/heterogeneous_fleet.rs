//! From telemetry to probability-native configuration for a heterogeneous fleet.
//!
//! ```text
//! cargo run --example heterogeneous_fleet
//! ```
//!
//! The full pipeline the paper envisions: (1) estimate per-class fault rates from fleet
//! telemetry (here: a synthetic stand-in for Backblaze-style drive stats), (2) build a
//! deployment from the estimated fault curves, (3) quantify the probabilistic guarantee,
//! and (4) apply the probability-native mechanisms of §4 — reliability-aware quorum
//! placement and leader ranking.

use std::sync::Arc;

use fault_model::correlation::CorrelationModel;
use fault_model::mode::FaultProfile;
use fault_model::telemetry::{ClassSpec, TelemetryEstimator, TelemetryGenerator};
use prob_consensus::durability::{nodes_by_reliability, quorum_durability};
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{AnalysisSession, Query};
use prob_consensus::raft_model::RaftModel;
use prob_consensus::report::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Synthetic fleet telemetry: two hardware classes with very different health.
    let telemetry = TelemetryGenerator::new(vec![
        ClassSpec::simple("gen9-reliable", 8_000, 0.01),
        ClassSpec::simple("gen4-flaky", 8_000, 0.08),
    ])
    .generate(&mut StdRng::seed_from_u64(2026));
    let estimator = TelemetryEstimator::new();

    let mut estimates = Table::new(
        "Estimated annual failure rates (synthetic telemetry)",
        &["Class", "AFR", "95% CI", "Device-years"],
    );
    let mut class_afr = Vec::new();
    for class in telemetry.classes() {
        let est = estimator
            .estimate_afr(&telemetry.for_class(&class))
            .expect("telemetry is non-empty");
        estimates.push_row(vec![
            class.clone(),
            format!("{:.2}%", est.afr * 100.0),
            format!("[{:.2}%, {:.2}%]", est.lower * 100.0, est.upper * 100.0),
            format!("{:.0}", est.device_years),
        ]);
        class_afr.push((class, est.afr));
    }
    println!("{estimates}");

    // 2. A 7-node cluster drawn from the fleet: 4 flaky nodes, 3 reliable nodes.
    let flaky = class_afr
        .iter()
        .find(|(c, _)| c.contains("flaky"))
        .unwrap()
        .1;
    let reliable = class_afr
        .iter()
        .find(|(c, _)| c.contains("reliable"))
        .unwrap()
        .1;
    let mut profiles = vec![FaultProfile::crash_only(flaky); 4];
    profiles.extend(vec![FaultProfile::crash_only(reliable); 3]);

    // 3. The probabilistic guarantee of plain Raft on this fleet. Heterogeneous
    //    deployments do not fit a uniform grid axis, so they go in as an explicit
    //    query cell (engine still auto-selected at plan time).
    let session = AnalysisSession::new();
    let model: Arc<dyn ProtocolModel + Send + Sync> = Arc::new(RaftModel::standard(7));
    let analysis = session
        .run(&Query::new().cell(
            "mixed-fleet",
            model,
            CorrelationModel::independent(profiles.clone()),
        ))
        .expect("well-formed fleet cell");
    println!(
        "7-node Raft on the mixed fleet: {}  [engine: {}]\n",
        analysis.cell(0).outcome.report,
        analysis.cell(0).engine
    );

    // 4a. Reliability-aware quorum placement (the §3.2 durability example): which
    //     four nodes hold the data, picked from the reliability ranking.
    let ranked = nodes_by_reliability(&profiles);
    let mut durability = Table::new(
        "Durability of a 4-node persistence quorum under different placement policies",
        &["Policy", "Durability"],
    );
    for (label, quorum) in [
        ("oblivious (worst case)", ranked[3..].to_vec()),
        (
            "require one reliable node",
            [&ranked[..1], &ranked[4..]].concat(),
        ),
        ("most reliable nodes", ranked[..4].to_vec()),
    ] {
        durability.push_row(vec![
            label.to_string(),
            quorum_durability(&profiles, &quorum).as_percent(),
        ]);
    }
    println!("{durability}");

    // 4b. Reliability-aware leader ranking: the most reliable node leads, where a
    //     leader chosen without regard to reliability fails at the fleet average.
    println!("Leader ranking (most reliable first): {ranked:?}");
    let faults: Vec<f64> = profiles.iter().map(|p| p.fault_probability()).collect();
    println!(
        "P(leader fails): oblivious {:.3} vs most-reliable {:.3}\n",
        faults.iter().sum::<f64>() / faults.len() as f64,
        faults[ranked[0]],
    );
}
