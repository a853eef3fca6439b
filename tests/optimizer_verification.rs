//! Verification suite for the deployment optimizer (`crates/core/src/optimize.rs`):
//!
//! * **Cross-engine re-scoring** — every emitted frontier candidate is re-scored
//!   with an independently chosen engine (exact winners by Monte Carlo,
//!   importance-sampling winners by a second IS run under a different seed and
//!   by the closed form where one exists) and must agree within 3σ, mirroring
//!   `tests/engine_agreement.rs`.
//! * **Thread-count bit-identity** — the frontier JSON is byte-identical at
//!   1/2/8 threads.
//! * **Cache sharing** — optimizer candidates are keyed by content like every
//!   other cell: warming the cache with a search never perturbs first-order or
//!   epistemic results sharing the same session, and a first-order cell of a
//!   candidate's content reuses the candidate's cache entry.
//! * **Golden regression** — the automated search over the
//!   `claim-durability-correlated` space reproduces the known ranking
//!   (cross-rack ≻ same-rack) and the orders-of-magnitude gap.

use prob_consensus::engine::{Budget, EngineChoice};
use prob_consensus::optimize::{
    optimize, Candidate, DeploymentSpace, FailureDomains, NodeType, OptimizeReport,
    OptimizerConfig, Placement, TargetSpec,
};
use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query};
use prob_consensus::scratch::GroupScratch;

/// The `claim-durability-correlated` space, generalized: the hand-picked
/// same-rack vs cross-rack comparison becomes two candidates of one search.
/// N = 100 spot nodes at p = 10% across 10 racks with 1% correlated rack
/// shocks, |Q| = 10 — the paper's §2 durability example.
fn durability_space() -> DeploymentSpace {
    DeploymentSpace {
        instances: vec![NodeType::new("spot", 0.10, 0.10)],
        nodes: vec![100],
        domains: Some(FailureDomains {
            racks: 10,
            shock_probability: 0.01,
        }),
        placements: vec![Placement::SameRack, Placement::CrossRack],
        target: TargetSpec::PersistenceQuorum { quorum_size: 10 },
    }
}

fn durability_config() -> OptimizerConfig {
    OptimizerConfig::new(8.0)
        .with_screen_samples(20_000)
        .with_refine_samples(80_000)
        .with_seed(2026)
}

fn durability_report(session: &AnalysisSession) -> OptimizeReport {
    optimize(session, &durability_space(), &durability_config()).expect("well-formed space")
}

/// Closed-form data-loss probability of one durability candidate under the
/// Marshall–Olkin rack-shock construction. Cross-rack members sit in distinct
/// racks, so their effective fault events are independent; same-rack members
/// share rack 0's shock.
fn closed_form_loss(candidate: &Candidate, p: f64, shock: f64) -> f64 {
    let q = 10;
    match candidate.placement {
        Some(Placement::CrossRack) => (1.0 - (1.0 - p) * (1.0 - shock)).powi(q),
        Some(Placement::SameRack) => shock + (1.0 - shock) * p.powi(q),
        None => unreachable!("the durability space always places its quorum"),
    }
}

#[test]
fn golden_durability_search_rediscovers_cross_rack_placement() {
    let session = AnalysisSession::new();
    let report = durability_report(&session);
    assert_eq!(report.screened, 2);

    // The frontier is exactly the cross-rack candidate, refined by importance
    // sampling at tier 2.
    assert_eq!(report.frontier.len(), 1);
    let winner = &report.frontier[0];
    assert_eq!(winner.placement, Some(Placement::CrossRack));
    assert_eq!(winner.engine, EngineChoice::ImportanceSampling);
    assert_eq!(winner.tier, 2);
    assert!(winner.feasible && winner.nines_lower >= 8.0);

    // Same-rack stays a cheap tier-1 Monte Carlo reject: its ~1e-2 loss is
    // nowhere near the deep tail, so no refinement budget is spent on it.
    let loser = report
        .candidate("spot/N=100/same-rack")
        .expect("the losing placement is still reported");
    assert_eq!(loser.engine, EngineChoice::MonteCarlo);
    assert_eq!(loser.tier, 1);
    assert!(!loser.feasible);

    // The paper's orders-of-magnitude gap between the placements, pinned with
    // tolerances: exact values are ~1.05e-2 vs ~2.4e-10 (almost 8 orders).
    let gap = loser.failure_probability() / winner.failure_probability();
    assert!(gap > 1e6, "placement gap collapsed: {gap:.3e}");
    assert!(
        (loser.failure_probability() - 1.05e-2).abs() < 2e-3,
        "same-rack loss {:.3e}",
        loser.failure_probability()
    );
    assert!(
        winner.failure_probability() < 1e-9,
        "cross-rack loss {:.3e}",
        winner.failure_probability()
    );
}

#[test]
fn frontier_candidates_re_scored_by_independent_engines_within_three_sigma() {
    let session = AnalysisSession::new();

    // Exact (counting) frontier from the catalogue space, re-checked by Monte
    // Carlo: the exact value must sit within 3σ of the independent estimate.
    let space = DeploymentSpace {
        instances: prob_consensus::optimize::default_catalogue(),
        nodes: vec![3, 5, 7, 9],
        domains: None,
        placements: Vec::new(),
        target: TargetSpec::Protocol(ProtocolSpec::Raft),
    };
    let report = optimize(&session, &space, &OptimizerConfig::new(3.0)).unwrap();
    assert!(!report.frontier.is_empty());
    let candidates = space.candidates();
    for record in &report.frontier {
        assert!(record.exact, "catalogue Raft cells resolve exactly");
        let candidate = candidates
            .iter()
            .find(|c| c.label == record.label)
            .expect("every frontier record maps back to a candidate");
        let budget = Budget::default().with_samples(120_000).with_seed(0xA5A5);
        let rescored = EngineChoice::MonteCarlo.run(
            candidate.model.as_ref(),
            &candidate.scenario,
            &budget,
            &GroupScratch::default(),
        );
        let estimate = rescored.monte_carlo.expect("MC carries estimates");
        let sigma = estimate.safe_and_live.half_width() / 1.96;
        let z = (estimate.safe_and_live.value - record.probability) / sigma.max(1e-12);
        assert!(
            z.abs() <= 3.0,
            "{}: exact {} vs independent MC {} (z = {z:.2})",
            record.label,
            record.probability,
            estimate.safe_and_live.value
        );
    }

    // Importance-sampling frontier from the durability space, re-checked two
    // ways: a second IS run under a different seed (agreement within combined
    // 3σ) and the closed form of the Marshall–Olkin construction.
    let report = durability_report(&session);
    let candidates = durability_space().candidates();
    for record in &report.frontier {
        assert_eq!(record.engine, EngineChoice::ImportanceSampling);
        let candidate = candidates.iter().find(|c| c.label == record.label).unwrap();
        let budget = Budget::default()
            .with_samples(80_000)
            .with_seed(0x0DD_5EED)
            .with_rare_event_threshold(1e-6);
        let rescored = EngineChoice::ImportanceSampling.run(
            candidate.model.as_ref(),
            &candidate.scenario,
            &budget,
            &GroupScratch::default(),
        );
        let estimate = rescored.rare_event.expect("IS carries estimates");
        let sigma_a = ((record.ci_upper - record.ci_lower) / 2.0) / 1.96;
        let sigma_b = estimate.safe_and_live.half_width() / 1.96;
        let combined = (sigma_a * sigma_a + sigma_b * sigma_b).sqrt().max(1e-15);
        let z = (estimate.safe_and_live.value - record.probability) / combined;
        assert!(
            z.abs() <= 3.0,
            "{}: IS({}) vs IS(reseeded) {} (z = {z:.2})",
            record.label,
            record.probability,
            estimate.safe_and_live.value
        );

        let truth = 1.0 - closed_form_loss(candidate, 0.10, 0.01);
        let sigma = sigma_a.max(1e-15);
        let z = (record.probability - truth) / sigma;
        assert!(
            z.abs() <= 3.0,
            "{}: estimate {} vs closed form {truth} (z = {z:.2})",
            record.label,
            record.probability
        );
    }
}

#[test]
fn optimizer_json_is_bit_identical_across_thread_counts() {
    let reference = {
        let session = AnalysisSession::with_threads(1);
        durability_report(&session).to_json()
    };
    assert!(reference.contains("cross-rack"));
    for threads in [2usize, 8] {
        let session = AnalysisSession::with_threads(threads);
        let json = durability_report(&session).to_json();
        assert_eq!(
            json, reference,
            "optimizer JSON diverged at {threads} threads"
        );
    }
}

#[test]
fn optimizer_scratch_never_perturbs_first_order_or_epistemic_results() {
    // One candidate's (model, scenario) pair is scored three ways —
    // first-order cell, epistemic cell, optimizer candidate — in both orders.
    // The first-order cell shares the candidate's scratch group; its pilots and
    // proposals are kept per seed, so what the optimizer's salted seeds warmed
    // can never reach the other paths' results: byte-equal JSON proves it.
    let space = DeploymentSpace {
        instances: vec![NodeType::new("spot", 0.08, 0.10)],
        nodes: vec![6],
        domains: None,
        placements: Vec::new(),
        target: TargetSpec::PersistenceQuorum { quorum_size: 3 },
    };
    let candidate = &space.candidates()[0];
    let first_order = Query::new().cell(
        "first-order",
        candidate.model.clone(),
        candidate.scenario.clone(),
    );
    let epistemic = Query::new()
        .cell(
            "epistemic",
            candidate.model.clone(),
            candidate.scenario.clone(),
        )
        .posterior(4, 2.0, 50.0);
    let config = OptimizerConfig::new(2.0);

    // Cold: first-order and epistemic before any optimizer run. Wall clocks
    // are zeroed — only results must match.
    let cold = AnalysisSession::new();
    let json =
        |session: &AnalysisSession, query| session.run(query).unwrap().zero_wall_clock().to_json();
    let cold_first = json(&cold, &first_order);
    let cold_epistemic = json(&cold, &epistemic);

    // Warm: the optimizer runs first (same content, so the same entry).
    let warm = AnalysisSession::new();
    optimize(&warm, &space, &config).unwrap();
    let entries_after_optimize = warm.cache_stats().entries;
    let warm_first = json(&warm, &first_order);
    let entries_after_first = warm.cache_stats().entries;
    let warm_epistemic = json(&warm, &epistemic);

    assert_eq!(
        cold_first, warm_first,
        "optimizer scratch leaked into first-order cells"
    );
    assert_eq!(
        cold_epistemic, warm_epistemic,
        "optimizer scratch leaked into epistemic cells"
    );
    // And the first-order run after the optimizer added no scratch group: the
    // same content is one entry.
    assert_eq!(
        entries_after_first, entries_after_optimize,
        "first-order scratch must reuse the optimizer's cache entry"
    );
}

#[test]
fn repeated_searches_reuse_the_session_cache() {
    // Same space, same seeds: the second search must be all hits (pilots,
    // proposals and packed kernels come back from the session cache).
    let session = AnalysisSession::new();
    durability_report(&session);
    let misses_after_first = session.cache_stats().misses;
    let report = durability_report(&session);
    assert_eq!(session.cache_stats().misses, misses_after_first);
    assert!(session.cache_stats().hits > 0);
    assert_eq!(report.frontier.len(), 1);
}
