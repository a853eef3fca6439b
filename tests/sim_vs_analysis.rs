//! Integration tests validating the analytic predictions against the executable
//! protocols running on the discrete-event simulator — the cross-validation loop
//! of the paper's method, driven through the query API's
//! [`validate_with_simulation`](prob_consensus::query::Query::validate_with_simulation)
//! mode wherever a whole sweep is checked, and through targeted harness runs for
//! the theorem-boundary cases.

use consensus_protocols::harness::Cluster;
use consensus_protocols::pbft::{PbftConfig, PbftNode};
use consensus_protocols::raft::{RaftConfig, RaftNode};
use consensus_sim::fault::FaultSchedule;
use consensus_sim::network::NetworkConfig;
use consensus_sim::time::SimTime;
use prob_consensus::engine::Budget;
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query};
use prob_consensus::raft_model::RaftModel;

fn raft(config: RaftConfig, network: NetworkConfig, seed: u64) -> Cluster<RaftNode> {
    let nodes = (0..config.n).map(|_| RaftNode::new(config.clone()));
    Cluster::new(nodes, network, seed)
}

/// The analysis says a failure configuration with at most `N - Q_per` crashes is live:
/// drive the real protocol through explicit configurations on both sides of the line.
#[test]
fn raft_liveness_boundary_matches_theorem_3_2() {
    // 5 nodes, majority 3: up to 2 crashes keep the cluster live, 3 crashes do not.
    for crashes in 0..=3usize {
        let mut schedule = FaultSchedule::none();
        for node in 0..crashes {
            schedule = schedule.crash_at(node, SimTime::from_millis(1));
        }
        let mut harness = raft(
            RaftConfig::standard(5),
            NetworkConfig::lan(),
            100 + crashes as u64,
        )
        .with_faults(&schedule);
        harness.submit_commands(5);
        let outcome = harness.run_for_millis(5_000);
        assert!(
            outcome.agreement,
            "{crashes} crashes must never break agreement"
        );
        let model = RaftModel::standard(5);
        let analytic_live = model.is_live(&prob_consensus::failure::FailureConfig::with_crashed(
            5,
            &(0..crashes).collect::<Vec<_>>(),
        ));
        assert_eq!(
            outcome.all_committed, analytic_live,
            "{crashes} crashes: simulation and Theorem 3.2 disagree"
        );
    }
}

/// PBFT with the standard N = 3f+1 layout: f silent Byzantine nodes keep the system safe
/// and live, f+1 cost liveness, and agreement holds in both cases (Theorem 3.1).
#[test]
fn pbft_fault_boundary_matches_theorem_3_1() {
    for byzantine in [1usize, 2] {
        let mut schedule = FaultSchedule::none();
        for node in 0..byzantine {
            schedule = schedule.byzantine_at(node, SimTime::from_millis(1));
        }
        let nodes = (0..4).map(|_| PbftNode::new(PbftConfig::standard(4)));
        let mut harness = Cluster::new(nodes, NetworkConfig::lan(), 200 + byzantine as u64)
            .with_faults(&schedule);
        harness.submit_commands(4);
        let outcome = harness.run_for_millis(6_000);
        assert!(
            outcome.agreement,
            "{byzantine} silent Byzantine nodes broke agreement"
        );
        let expected_live = byzantine <= 1;
        assert_eq!(
            outcome.all_committed, expected_live,
            "{byzantine} Byzantine nodes: liveness mismatch"
        );
    }
}

/// The cross-validation loop through the query API: every cell of a small Raft
/// sweep is paired with a simulation run, and the reported z-scores certify that
/// the empirical safe-and-live rates track the analytic predictions.
#[test]
fn empirical_safe_and_live_rate_tracks_analysis() {
    // Deliberately high p so the empirical rate is resolvable with few trials.
    let query = Query::new()
        .protocols([ProtocolSpec::Raft])
        .nodes([3usize, 5])
        .fault_probs([0.2])
        .budget(Budget::default().with_seed(7).with_sim_trials(60))
        .validate_with_simulation();
    let report = AnalysisSession::new()
        .run(&query)
        .expect("well-formed query");
    assert_eq!(report.cells().len(), 2);
    for cell in report.cells() {
        let validation = cell.validation.expect("every Raft cell is executable");
        // A |z| < 4 gate is generous for one comparison but tight enough to catch
        // a real modelling gap (an off-by-one quorum shifts the rate by many σ).
        assert!(
            validation.agrees_within(4.0),
            "{}: analytic {:.3} vs empirical {:.3} (z = {:+.2})",
            cell.label,
            validation.analytic,
            validation.simulation.safe_and_live.value,
            validation.z_score
        );
        // The paired trials really ran and produced trace-derived statistics.
        assert_eq!(validation.simulation.trials, 60);
        assert!(validation.simulation.mean_messages_delivered > 0.0);
    }
}

/// The same loop under *correlated* faults: a whole-cluster shock makes the
/// analytic liveness collapse, and the simulated trials (whose schedules sample
/// the same correlation model) reproduce it.
#[test]
fn correlated_shock_validation_tracks_analysis() {
    use prob_consensus::query::CorrelationSpec;
    let query = Query::new()
        .protocols([ProtocolSpec::Raft])
        .nodes([3usize])
        .fault_probs([0.05])
        .correlations([CorrelationSpec::ClusterShock { probability: 0.3 }])
        .budget(
            Budget::default()
                .with_samples(20_000)
                .with_seed(3)
                .with_sim_trials(60),
        )
        .validate_with_simulation();
    let report = AnalysisSession::new()
        .run(&query)
        .expect("well-formed query");
    let cell = report.cell(0);
    let validation = cell.validation.expect("correlated Raft cell is executable");
    assert!(
        validation.agrees_within(4.0),
        "analytic {:.3} vs empirical {:.3} (z = {:+.2})",
        validation.analytic,
        validation.simulation.safe_and_live.value,
        validation.z_score
    );
    // The shock fires in ~30% of trials and kills all three nodes: liveness is
    // visibly below the independent-faults level.
    assert!(validation.analytic < 0.85);
    assert!(validation.simulation.total_faults_injected > 0);
}

/// Reliability-aware election priorities do not change correctness, only who leads.
#[test]
fn reliability_aware_leader_selection_preserves_correctness() {
    let profiles = vec![
        fault_model::mode::FaultProfile::crash_only(0.08),
        fault_model::mode::FaultProfile::crash_only(0.01),
        fault_model::mode::FaultProfile::crash_only(0.04),
        fault_model::mode::FaultProfile::crash_only(0.02),
        fault_model::mode::FaultProfile::crash_only(0.03),
    ];
    let config = RaftConfig::reliability_aware(&profiles);
    let mut harness = raft(config, NetworkConfig::lan(), 9);
    harness.submit_commands(10);
    let outcome = harness.run_for_millis(3_000);
    assert!(outcome.safe_and_live());
    // The most reliable node (index 1) should have ended up leading.
    use consensus_protocols::raft::Role;
    assert_eq!(harness.sim().node(1).role(), Role::Leader);
}

/// The same seed must give the same outcome: the whole stack is deterministic.
#[test]
fn simulation_is_deterministic_end_to_end() {
    let run = |seed: u64| {
        let schedule = FaultSchedule::none().crash_at(0, SimTime::from_millis(500));
        let mut harness =
            raft(RaftConfig::standard(5), NetworkConfig::wan(), seed).with_faults(&schedule);
        harness.submit_commands(8);
        let outcome = harness.run_for_millis(4_000);
        (
            outcome.agreement,
            outcome.all_committed,
            outcome.committed_lengths,
            outcome.stats.messages_delivered,
        )
    };
    assert_eq!(run(77), run(77));
}
