//! Property-based integration tests: invariants of the executable protocols under
//! randomized fault schedules, and consistency between the analysis engines.

use consensus_protocols::harness::Cluster;
use consensus_protocols::pbft::{PbftConfig, PbftNode};
use consensus_protocols::raft::{RaftConfig, RaftNode};
use consensus_sim::fault::FaultSchedule;
use consensus_sim::network::NetworkConfig;
use consensus_sim::time::SimTime;
use fault_model::correlation::CorrelationModel;
use fault_model::mode::FaultProfile;
use prob_consensus::analyzer::analyze_auto;
use prob_consensus::engine::{Budget, EngineChoice};
use prob_consensus::pbft_model::PbftModel;
use prob_consensus::raft_model::RaftModel;
use prob_consensus::scratch::GroupScratch;
use proptest::prelude::*;

/// A standard-configuration Raft cluster of `n` nodes.
fn raft(n: usize, network: NetworkConfig, seed: u64) -> Cluster<RaftNode> {
    let config = RaftConfig::standard(n);
    Cluster::new((0..n).map(|_| RaftNode::new(config.clone())), network, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash faults — any number of them, at any time — must never break Raft agreement.
    #[test]
    fn raft_agreement_holds_under_arbitrary_crashes(
        seed in 0u64..1_000,
        crash_times in proptest::collection::vec(0u64..2_000, 0..5),
    ) {
        let n = 5;
        let mut schedule = FaultSchedule::none();
        for (node, &at) in crash_times.iter().enumerate() {
            schedule = schedule.crash_at(node % n, SimTime::from_millis(at));
        }
        let mut harness = raft(n, NetworkConfig::lan(), seed).with_faults(&schedule);
        harness.submit_commands(5);
        let outcome = harness.run_for_millis(3_000);
        prop_assert!(outcome.agreement, "crashes broke agreement: {outcome:?}");
    }

    /// With at most f silent Byzantine nodes, PBFT agreement must hold.
    #[test]
    fn pbft_agreement_holds_with_up_to_f_silent_byzantine_nodes(
        seed in 0u64..1_000,
        byzantine_node in 0usize..4,
    ) {
        let schedule = FaultSchedule::none().byzantine_at(byzantine_node, SimTime::from_millis(1));
        let nodes = (0..4).map(|_| PbftNode::new(PbftConfig::standard(4)));
        let mut harness = Cluster::new(nodes, NetworkConfig::lan(), seed).with_faults(&schedule);
        harness.submit_commands(3);
        let outcome = harness.run_for_millis(4_000);
        prop_assert!(outcome.agreement);
    }

    /// Message loss delays progress but never produces disagreement.
    #[test]
    fn raft_agreement_survives_lossy_networks(seed in 0u64..1_000, drop in 0.0f64..0.3) {
        let net = NetworkConfig::lan().with_drop_probability(drop);
        let mut harness = raft(3, net, seed);
        harness.submit_commands(5);
        let outcome = harness.run_for_millis(2_000);
        prop_assert!(outcome.agreement);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The counting engine and the exhaustive enumeration engine agree on every
    /// homogeneous deployment (they are derived independently).
    #[test]
    fn counting_and_enumeration_agree(
        n in 3usize..9,
        p_crash in 0.0f64..0.4,
        p_byz in 0.0f64..0.2,
    ) {
        let deployment = CorrelationModel::uniform(n, FaultProfile::new(p_crash, p_byz));
        let budget = Budget::default();
        let pbft = PbftModel::standard(n.max(4));
        if n >= 4 {
            let a = analyze_auto(&pbft, &deployment, &budget).expect("well-formed").report;
            let b = EngineChoice::Enumeration
                .run(&pbft, &deployment, &budget, &GroupScratch::default())
                .report;
            prop_assert!((a.safe.probability() - b.safe.probability()).abs() < 1e-9);
            prop_assert!((a.live.probability() - b.live.probability()).abs() < 1e-9);
        }
        let raft = RaftModel::standard(n);
        let a = analyze_auto(&raft, &deployment, &budget).expect("well-formed").report;
        let b = EngineChoice::Enumeration
            .run(&raft, &deployment, &budget, &GroupScratch::default())
            .report;
        prop_assert!((a.safe_and_live.probability() - b.safe_and_live.probability()).abs() < 1e-9);
    }

    /// Reliability is monotone: lowering every node's fault probability never lowers the
    /// safe-and-live probability.
    #[test]
    fn reliability_is_monotone_in_fault_probability(
        n in 3usize..10,
        p in 0.01f64..0.5,
        improvement in 0.1f64..0.9,
    ) {
        let model = RaftModel::standard(n);
        let budget = Budget::default();
        let report = |p: f64| {
            let scenario = CorrelationModel::uniform(n, FaultProfile::crash_only(p));
            analyze_auto(&model, &scenario, &budget).expect("well-formed").report
        };
        let (worse, better) = (report(p), report(p * improvement));
        prop_assert!(
            better.safe_and_live.probability() >= worse.safe_and_live.probability() - 1e-12
        );
    }

    /// Growing a Raft cluster (at fixed p, odd sizes) never hurts the guarantee.
    #[test]
    fn bigger_raft_clusters_are_no_worse(k in 1usize..5, p in 0.01f64..0.3) {
        let small_n = 2 * k + 1;
        let large_n = 2 * k + 3;
        let budget = Budget::default();
        let small = analyze_auto(
            &RaftModel::standard(small_n),
            &CorrelationModel::uniform(small_n, FaultProfile::crash_only(p)),
            &budget,
        )
        .expect("well-formed scenario")
        .report;
        let large = analyze_auto(
            &RaftModel::standard(large_n),
            &CorrelationModel::uniform(large_n, FaultProfile::crash_only(p)),
            &budget,
        )
        .expect("well-formed scenario")
        .report;
        prop_assert!(
            large.safe_and_live.probability() >= small.safe_and_live.probability() - 1e-12
        );
    }
}
