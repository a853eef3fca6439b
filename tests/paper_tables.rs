//! Integration tests asserting the reproduced numbers for every table and quantitative
//! claim in the paper (see DESIGN.md for the experiment index and EXPERIMENTS.md for the
//! recorded paper-vs-measured values).

use fault_model::correlation::CorrelationModel;
use fault_model::mode::FaultProfile;
use prob_consensus::analyzer::analyze_auto;
use prob_consensus::engine::{Budget, EngineChoice};
use prob_consensus::query::{AnalysisSession, FaultAxis, ProtocolSpec, Query};
use prob_consensus::raft_model::RaftModel;

/// Asserts a probability against a percentage exactly as printed in the paper, to within
/// one unit in the last printed digit.
fn assert_paper_percent(probability: f64, paper: &str, context: &str) {
    let decimals = paper.split('.').nth(1).map_or(0, str::len);
    let unit = 10f64.powi(-(decimals as i32)) / 100.0;
    let expected: f64 = paper.parse::<f64>().unwrap() / 100.0;
    assert!(
        (probability - expected).abs() <= unit,
        "{context}: computed {probability:.10} vs paper {paper}% (tolerance {unit:.1e})"
    );
}

#[test]
fn table1_pbft_all_cells() {
    // (N, safe %, live %, safe and live %) as printed in Table 1, regenerated as
    // one planned sweep through the query API.
    let rows = [
        (4usize, "99.94", "99.94", "99.94"),
        (5, "99.9990", "99.90", "99.90"),
        (7, "99.997", "99.997", "99.997"),
        (8, "99.99993", "99.995", "99.995"),
    ];
    let session = AnalysisSession::new();
    let plan = session
        .plan(
            &Query::new()
                .protocols([ProtocolSpec::Pbft])
                .nodes(rows.iter().map(|&(n, ..)| n))
                .fault_probs([0.01])
                .faults(FaultAxis::Byzantine),
        )
        .expect("well-formed Table 1 sweep");
    // Independent counting models: every cell resolves to the exact engine.
    assert!(plan.engines().iter().all(|&e| e == EngineChoice::Counting));
    let report = plan.execute();
    for (cell, (n, safe, live, both)) in report.cells().iter().zip(rows) {
        assert_eq!(cell.nodes, n);
        let r = &cell.outcome.report;
        assert_paper_percent(r.safe.probability(), safe, &format!("PBFT N={n} safe"));
        assert_paper_percent(r.live.probability(), live, &format!("PBFT N={n} live"));
        assert_paper_percent(
            r.safe_and_live.probability(),
            both,
            &format!("PBFT N={n} safe&live"),
        );
    }
}

#[test]
fn table2_raft_all_cells() {
    // Columns: p = 1%, 2%, 4%, 8% (safe-and-live), rows N = 3, 5, 7, 9 — the full
    // grid as one planned sweep (N-axis outer, p-axis inner in the cell order).
    let rows: [(usize, [&str; 4]); 4] = [
        (3, ["99.97", "99.88", "99.53", "98.18"]),
        (5, ["99.9990", "99.992", "99.94", "99.55"]),
        (7, ["99.99997", "99.9995", "99.992", "99.88"]),
        (9, ["99.999998", "99.99996", "99.9988", "99.97"]),
    ];
    let ps = [0.01, 0.02, 0.04, 0.08];
    let session = AnalysisSession::new();
    let report = session
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes(rows.iter().map(|&(n, _)| n))
                .fault_probs(ps),
        )
        .expect("well-formed Table 2 sweep");
    for (i, (n, cells)) in rows.into_iter().enumerate() {
        for (j, (p, paper)) in ps.iter().zip(cells).enumerate() {
            let cell = report.cell(i * ps.len() + j);
            assert_eq!((cell.nodes, cell.fault_prob), (n, Some(*p)));
            assert_paper_percent(
                cell.outcome.report.safe_and_live.probability(),
                paper,
                &format!("Raft N={n} p={p}"),
            );
        }
    }
}

#[test]
fn raft_quorum_sizes_match_table2() {
    for (n, q) in [(3usize, 2usize), (5, 3), (7, 4), (9, 5)] {
        let m = RaftModel::standard(n);
        assert_eq!(m.q_per(), q);
        assert_eq!(m.q_vc(), q);
    }
}

#[test]
fn claim_three_node_raft_is_three_nines() {
    let report = analyze_auto(
        &RaftModel::standard(3),
        &CorrelationModel::uniform(3, FaultProfile::crash_only(0.01)),
        &Budget::default(),
    )
    .expect("well-formed scenario")
    .report;
    let nines = report.safe_and_live.nines();
    assert!((3.0..4.0).contains(&nines), "got {nines} nines");
}

#[test]
fn claim_nine_cheap_nodes_match_three_reliable_nodes() {
    let budget = Budget::default();
    let three = analyze_auto(
        &RaftModel::standard(3),
        &CorrelationModel::uniform(3, FaultProfile::crash_only(0.01)),
        &budget,
    )
    .expect("well-formed scenario")
    .report;
    let nine = analyze_auto(
        &RaftModel::standard(9),
        &CorrelationModel::uniform(9, FaultProfile::crash_only(0.08)),
        &budget,
    )
    .expect("well-formed scenario")
    .report;
    assert_paper_percent(three.safe_and_live.probability(), "99.97", "3 x 1%");
    assert_paper_percent(nine.safe_and_live.probability(), "99.97", "9 x 8%");
}

#[test]
fn claim_pbft_five_nodes_beat_four_and_seven_on_safety() {
    let (_, sweep) = bench_experiments::claim_tradeoff();
    let [four, five, seven] = [0, 1, 2].map(|i| sweep.cell(i));
    let (r4, r5, r7) = (
        &four.outcome.report,
        &five.outcome.report,
        &seven.outcome.report,
    );
    // "improves PBFT safety by 42-60x" (the exact factor at p=1% is ~60x) ...
    let safety_improvement = r4.unsafety() / r5.unsafety();
    assert!(safety_improvement > 40.0 && safety_improvement < 75.0);
    // "... with a small 1.67x decrease in liveness".
    assert!((r5.unliveness() / r4.unliveness() - 1.67).abs() < 0.1);
    // "the 5-node system is more safe than a 7-node system".
    assert!(r5.safe.probability() > r7.safe.probability());
    // "... which is 40% more expensive to deploy and operate" (cost ∝ N).
    assert!((seven.nodes as f64 / five.nodes as f64 - 1.4).abs() < 1e-9);
}

#[test]
fn claim_heterogeneous_upgrade_and_durability() {
    let (_, analysis) = bench_experiments::claim_heterogeneous();
    // Baseline: 7 nodes at 8% is the Table 2 cell 99.88%.
    assert_paper_percent(
        analysis.baseline_safe_and_live.probability(),
        "99.88",
        "7 x 8% baseline",
    );
    // Upgrading 3 of 7 nodes improves S&L only modestly (paper: ~99.98%).
    assert!(analysis.upgraded_safe_and_live.probability() > 0.9995);
    assert!(analysis.upgraded_safe_and_live.probability() < 0.99999);
    // Requiring a reliable node in the quorum lifts durability to ~four nines or better
    // (paper: 99.994%).
    assert!(analysis.aware_durability.probability() > 0.9999);
    assert!(analysis.aware_durability.probability() > analysis.oblivious_durability.probability());
}

#[test]
fn claim_durability_orders_of_magnitude() {
    let (_, claim) = bench_experiments::claim_durability();
    assert!(
        (claim.p_threshold_exceeded - 0.5).abs() < 0.08,
        "~50% chance of >= 10 faults"
    );
    assert!(
        (claim.p_data_loss - 1e-10).abs() < 1e-11,
        "one in ten billion"
    );
}

#[test]
fn claim_quorum_overkill_sizes() {
    let (_, (f_threshold, probabilistic)) = bench_experiments::claim_quorum_overkill();
    assert_eq!(f_threshold, 34, "f-threshold prescribes f+1 = 34");
    assert_eq!(probabilistic, 5, "five sampled nodes give ten nines");
}

/// Thin re-exports of the bench crate's experiment functions so the integration tests can
/// reuse them without duplicating the setup. (The bench crate is a normal library.)
mod bench_experiments {
    pub use bench::{claim_durability, claim_heterogeneous, claim_quorum_overkill, claim_tradeoff};
}
