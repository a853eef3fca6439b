//! Run the executable protocols on the discrete-event simulator under injected faults.
//!
//! ```text
//! cargo run --example simulated_cluster
//! ```
//!
//! The analysis predicts *probabilities*; this example shows the system the probabilities
//! are about: a Raft cluster surviving a leader crash, a Raft cluster losing liveness
//! when a majority dies, and a PBFT cluster staying safe with an equivocating primary.
//! Each scenario builds one `Cluster` of protocol nodes, submits client commands, runs
//! the virtual clock, and reads agreement and progress off the `ClusterOutcome`.

use std::sync::Arc;

use consensus_protocols::byzantine::ByzantineBehavior;
use consensus_protocols::harness::Cluster;
use consensus_protocols::pbft::{PbftConfig, PbftNode};
use consensus_protocols::raft::{RaftConfig, RaftNode};
use consensus_sim::fault::FaultSchedule;
use consensus_sim::network::NetworkConfig;
use consensus_sim::time::SimTime;
use fault_model::correlation::CorrelationModel;
use fault_model::mode::FaultProfile;
use prob_consensus::engine::Budget;
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query};
use prob_consensus::raft_model::RaftModel;

/// A cluster of `config.n` Raft nodes sharing one configuration.
fn raft(config: RaftConfig, seed: u64) -> Cluster<RaftNode> {
    let nodes = (0..config.n).map(|_| RaftNode::new(config.clone()));
    Cluster::new(nodes, NetworkConfig::lan(), seed)
}

fn main() {
    // Scenario 1: a healthy 5-node Raft cluster with a reliability-aware leader.
    let profiles = vec![
        FaultProfile::crash_only(0.08),
        FaultProfile::crash_only(0.04),
        FaultProfile::crash_only(0.01),
        FaultProfile::crash_only(0.02),
        FaultProfile::crash_only(0.08),
    ];

    // What the analysis layer predicts for this fleet over the mission window —
    // the probability the scenarios below are samples of.
    let session = AnalysisSession::new();
    let model: Arc<dyn ProtocolModel + Send + Sync> = Arc::new(RaftModel::standard(5));
    let prediction = session
        .run(&Query::new().cell(
            "sim-fleet",
            model,
            CorrelationModel::independent(profiles.clone()),
        ))
        .expect("well-formed fleet cell");
    println!(
        "[analysis]        predicted guarantees: {}",
        prediction.cell(0).outcome.report
    );

    let config = RaftConfig::reliability_aware(&profiles);
    let mut cluster = raft(config, 1);
    cluster.submit_commands(20);
    let outcome = cluster.run_for_millis(3_000);
    println!(
        "[raft healthy]    agreement={} all_committed={} committed={:?} messages={}",
        outcome.agreement,
        outcome.all_committed,
        outcome.committed_lengths,
        outcome.stats.messages_delivered
    );

    // Scenario 2: the leader crashes mid-run; a new leader finishes the workload.
    let schedule = FaultSchedule::none().crash_at(0, SimTime::from_millis(800));
    let mut cluster = raft(RaftConfig::standard(5), 2).with_faults(&schedule);
    cluster.submit_commands(10);
    cluster.run_for_millis(700);
    cluster.submit_commands(10);
    let outcome = cluster.run_for_millis(6_000);
    println!(
        "[raft leader-dies] agreement={} all_committed={} correct={:?}",
        outcome.agreement, outcome.all_committed, outcome.correct_nodes
    );

    // Scenario 3: a majority crashes; safety holds but progress stops (the configuration
    // the analysis counts as "safe but not live").
    let schedule = FaultSchedule::none()
        .crash_at(2, SimTime::from_millis(5))
        .crash_at(3, SimTime::from_millis(5))
        .crash_at(4, SimTime::from_millis(5));
    let mut cluster = raft(RaftConfig::standard(5), 3).with_faults(&schedule);
    cluster.submit_commands(5);
    let outcome = cluster.run_for_millis(3_000);
    println!(
        "[raft no-quorum]  agreement={} all_committed={} (expected: true / false)",
        outcome.agreement, outcome.all_committed
    );

    // Scenario 4: PBFT with an equivocating primary — the view change restores progress
    // and the prepare quorum keeps agreement intact. Every node equivocates once the
    // fault schedule turns it Byzantine; here that is only the view-0 primary.
    let schedule = FaultSchedule::none().byzantine_at(0, SimTime::from_millis(1));
    let config = PbftConfig::standard(4);
    let nodes = (0..4)
        .map(|_| PbftNode::new(config.clone()).with_byzantine_plan(ByzantineBehavior::Equivocate));
    let mut cluster = Cluster::new(nodes, NetworkConfig::lan(), 4).with_faults(&schedule);
    cluster.submit_commands(5);
    let outcome = cluster.run_for_millis(10_000);
    println!(
        "[pbft equivocate] agreement={} all_committed={} correct={:?}",
        outcome.agreement, outcome.all_committed, outcome.correct_nodes
    );

    // Scenario 5: the loop closed — a whole analytic sweep where every cell gets a
    // paired batch of simulation trials, and the report carries per-cell
    // analytic-vs-empirical z-scores. This is the query-API form of what the
    // scenarios above did by hand.
    let validated = session
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([3usize, 5])
                .fault_probs([0.15])
                .budget(Budget::default().with_seed(17).with_sim_trials(80))
                .validate_with_simulation(),
        )
        .expect("well-formed validated sweep");
    println!(
        "\n{}",
        validated.to_table("Analytic vs simulated (80 trials/cell)")
    );
    for cell in validated.cells() {
        let v = cell.validation.expect("raft cells are executable");
        println!(
            "[validated]       {}: analytic {:.4} vs simulated {:.4} (z = {:+.2}, {:.0} msgs/trial)",
            cell.label,
            v.analytic,
            v.simulation.safe_and_live.value,
            v.z_score,
            v.simulation.mean_messages_delivered
        );
    }
}
