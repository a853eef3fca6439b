//! The cross-engine contract: the four analysis engines are independent
//! implementations of the same mathematical object, so they must agree — exactly
//! between the two exact engines, within confidence-interval tolerance for the two
//! sampling engines — and both parallel samplers must be bit-identical across
//! thread counts.

use fault_model::correlation::{CorrelationGroup, CorrelationModel};
use fault_model::mode::FaultProfile;
use prob_consensus::analyzer::analyze_auto;
use prob_consensus::durability::PersistenceQuorumModel;
use prob_consensus::engine::{Budget, EngineChoice};
use prob_consensus::montecarlo::{monte_carlo_reliability_par_kernel, McKernel, MC_CHUNK_SIZE};
use prob_consensus::pbft_model::PbftModel;
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::raft_model::RaftModel;
use prob_consensus::rare_event::{importance_sampling_reliability_par, Proposal};
use prob_consensus::scratch::GroupScratch;

/// Seed of the fixed-seed sampling assertions below. Like any fixed-seed 95%
/// confidence interval, an unlucky seed can put the exact answer just outside one
/// cell's interval; this seed was verified to pass every cell of every grid for
/// both sampling kernels.
const GRID_SEED: u64 = 3;

/// The deployment grid: cluster sizes and fault probabilities covering the paper's
/// tables plus heterogeneous and mixed-mode cases.
fn deployment_grid(n: usize) -> Vec<CorrelationModel> {
    let mut grid = Vec::new();
    for p in [0.01, 0.08, 0.25] {
        grid.push(CorrelationModel::uniform(n, FaultProfile::crash_only(p)));
        grid.push(CorrelationModel::uniform(
            n,
            FaultProfile::byzantine_only(p),
        ));
    }
    grid.push(CorrelationModel::uniform(n, FaultProfile::new(0.05, 0.01)));
    // Heterogeneous: reliability decreasing with the node index.
    grid.push(CorrelationModel::independent(
        (0..n)
            .map(|i| FaultProfile::crash_only(0.01 * (i + 1) as f64))
            .collect(),
    ));
    grid
}

/// Asserts all three engines agree on one model/deployment pair.
fn assert_engines_agree(model: &dyn ProtocolModel, scenario: &CorrelationModel, context: &str) {
    let budget = Budget::default().with_samples(60_000).with_seed(GRID_SEED);

    let enumerated =
        EngineChoice::Enumeration.run(model, scenario, &budget, &GroupScratch::default());
    let counted = EngineChoice::Counting.run(model, scenario, &budget, &GroupScratch::default());
    let sampled = EngineChoice::MonteCarlo.run(model, scenario, &budget, &GroupScratch::default());

    // The two exact engines agree to numerical precision.
    for (a, b, what) in [
        (
            enumerated.report.safe.probability(),
            counted.report.safe.probability(),
            "safe",
        ),
        (
            enumerated.report.live.probability(),
            counted.report.live.probability(),
            "live",
        ),
        (
            enumerated.report.safe_and_live.probability(),
            counted.report.safe_and_live.probability(),
            "safe&live",
        ),
    ] {
        assert!(
            (a - b).abs() < 1e-9,
            "{context}: enumeration {what} = {a} vs counting {what} = {b}"
        );
    }

    // Monte Carlo agrees within twice its 95% half-width (~3.9σ). The factor of two
    // is a multiple-comparisons allowance: this file makes hundreds of simultaneous
    // fixed-seed interval checks, so raw 95% containment would fail somewhere for
    // almost every seed, while a real estimator bug shifts estimates by far more
    // than an interval width.
    let mc = sampled.monte_carlo.expect("monte carlo carries estimates");
    let eps = 1e-9;
    for (estimate, truth, what) in [
        (mc.safe, counted.report.safe.probability(), "safe"),
        (mc.live, counted.report.live.probability(), "live"),
        (
            mc.safe_and_live,
            counted.report.safe_and_live.probability(),
            "safe&live",
        ),
    ] {
        assert!(
            (estimate.value - truth).abs() <= 2.0 * estimate.half_width() + eps,
            "{context}: exact {what} = {truth} vs estimate {} (95% CI [{}, {}])",
            estimate.value,
            estimate.lower,
            estimate.upper
        );
    }
}

#[test]
fn engines_agree_on_raft_grid() {
    for n in [3usize, 5, 7] {
        for deployment in deployment_grid(n) {
            let model = RaftModel::standard(n);
            assert_engines_agree(&model, &deployment, &format!("Raft N={n}"));
        }
    }
}

#[test]
fn engines_agree_on_pbft_grid() {
    for n in [4usize, 5, 7] {
        for deployment in deployment_grid(n) {
            let model = PbftModel::standard(n);
            assert_engines_agree(&model, &deployment, &format!("PBFT N={n}"));
        }
    }
}

#[test]
fn engines_agree_on_flexible_quorum_configurations() {
    let model = RaftModel::flexible(5, 2, 4);
    for deployment in deployment_grid(5) {
        assert_engines_agree(&model, &deployment, "Raft(5, Q_per=2, Q_vc=4)");
    }
}

/// The packed (bit-sliced) and scalar Monte Carlo kernels are independent
/// implementations of the same estimator over *different* RNG streams, so each must
/// contain the exact counting answer in its own confidence interval, across a
/// (protocol × N × p) grid covering both the threshold plan (crash-only) and the
/// LUT plan (mixed crash/Byzantine).
#[test]
fn packed_and_scalar_kernels_agree_on_the_grid() {
    let budget = Budget::default();
    let mut checked = 0usize;
    for n in [3usize, 5, 7, 9] {
        for p in [0.01, 0.08, 0.25] {
            let raft = RaftModel::standard(n);
            let pbft = PbftModel::standard(n.max(4));
            let crash = CorrelationModel::uniform(n, FaultProfile::crash_only(p));
            let mixed = CorrelationModel::uniform(pbft.num_nodes(), FaultProfile::new(p, p / 4.0));
            for (model, deployment) in [
                (&raft as &dyn ProtocolModel, &crash),
                (&pbft as &dyn ProtocolModel, &mixed),
            ] {
                let exact = EngineChoice::Counting.run(
                    model,
                    deployment,
                    &budget,
                    &GroupScratch::default(),
                );
                let sample = |kernel| {
                    monte_carlo_reliability_par_kernel(model, deployment, 60_000, GRID_SEED, kernel)
                };
                let (scalar_mc, packed_mc) = (sample(McKernel::Scalar), sample(McKernel::Packed));
                let context = format!("{} N={n} p={p}", model.name());
                // The reports name the kernel that actually ran: this comparison is
                // only meaningful if it is not scalar-vs-scalar by silent fallback.
                assert_eq!(scalar_mc.kernel, McKernel::Scalar, "{context}");
                assert_eq!(packed_mc.kernel, McKernel::Packed, "{context}");
                for (s, q, truth, what) in [
                    (
                        scalar_mc.safe,
                        packed_mc.safe,
                        exact.report.safe.probability(),
                        "safe",
                    ),
                    (
                        scalar_mc.live,
                        packed_mc.live,
                        exact.report.live.probability(),
                        "live",
                    ),
                    (
                        scalar_mc.safe_and_live,
                        packed_mc.safe_and_live,
                        exact.report.safe_and_live.probability(),
                        "safe&live",
                    ),
                ] {
                    // Twice the 95% half-width (~3.9σ): the multiple-comparisons
                    // allowance of `assert_engines_agree`, for the same reason.
                    let eps = 1e-9;
                    assert!(
                        (s.value - truth).abs() <= 2.0 * s.half_width() + eps,
                        "{context}: exact {what} = {truth} vs scalar {} (CI [{}, {}])",
                        s.value,
                        s.lower,
                        s.upper
                    );
                    assert!(
                        (q.value - truth).abs() <= 2.0 * q.half_width() + eps,
                        "{context}: exact {what} = {truth} vs packed {} (CI [{}, {}])",
                        q.value,
                        q.lower,
                        q.upper
                    );
                    // And the two estimates agree with each other within their
                    // combined interval half-widths.
                    let tolerance = s.half_width() + q.half_width() + eps;
                    assert!(
                        (s.value - q.value).abs() <= tolerance,
                        "{context}: scalar {what} = {} vs packed {what} = {} beyond {tolerance}",
                        s.value,
                        q.value
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 24, "the grid must cover all of its cells");
}

/// The ragged-tail case: a sample count that is a multiple of neither the 64-lane
/// block width nor the chunk size must be fully drawn (not rounded) by both kernels
/// and still contain the exact answer.
#[test]
fn packed_kernel_handles_ragged_sample_counts() {
    let model = RaftModel::standard(9);
    let scenario = &CorrelationModel::uniform(9, FaultProfile::crash_only(0.08));
    let samples = 2 * MC_CHUNK_SIZE + 99; // % 64 != 0 and % MC_CHUNK_SIZE != 0
    assert_ne!(samples % 64, 0);
    assert_ne!(samples % MC_CHUNK_SIZE, 0);
    let exact = EngineChoice::Counting.run(
        &model,
        scenario,
        &Budget::default(),
        &GroupScratch::default(),
    );
    for kernel in [McKernel::Scalar, McKernel::Packed] {
        let mc = monte_carlo_reliability_par_kernel(&model, scenario, samples, GRID_SEED, kernel);
        assert_eq!(mc.samples, samples, "{kernel:?} must draw the full budget");
        assert!(
            mc.live.contains(exact.report.live.probability()),
            "{kernel:?}: exact live outside [{}, {}]",
            mc.live.lower,
            mc.live.upper
        );
    }
}

/// Thread-count bit-identity for the packed path, through the engine layer, on a
/// correlated mixed-mode scenario with a ragged tail.
#[test]
fn packed_kernel_is_bit_identical_across_thread_counts() {
    let model = PbftModel::standard(7);
    let failure_model = CorrelationModel::independent(
        (0..7)
            .map(|i| FaultProfile::new(0.03 * (i % 2) as f64, 0.01))
            .collect(),
    )
    .with_group(CorrelationGroup::byzantine_shock(vec![0, 1, 2], 0.004))
    .with_group(CorrelationGroup::crash_shock(vec![2, 3, 4, 5], 0.02));
    let budget = Budget::default()
        .with_samples(3 * MC_CHUNK_SIZE + 21)
        .with_seed(GRID_SEED);
    let scenario = &failure_model;
    let reference =
        EngineChoice::MonteCarlo.run(&model, scenario, &budget, &GroupScratch::default());
    assert_eq!(
        reference.monte_carlo.map(|mc| mc.kernel),
        Some(McKernel::Packed)
    );
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let outcome = pool.install(|| {
            EngineChoice::MonteCarlo.run(&model, scenario, &budget, &GroupScratch::default())
        });
        assert_eq!(
            outcome.monte_carlo, reference.monte_carlo,
            "packed kernel diverged at {threads} threads"
        );
        assert_eq!(outcome.report, reference.report);
    }
}

#[test]
fn parallel_monte_carlo_is_bit_identical_across_thread_counts() {
    let model = PbftModel::standard(7);
    let failure_model = CorrelationModel::independent(
        (0..7)
            .map(|i| FaultProfile::new(0.02 * (i % 3) as f64, 0.01))
            .collect(),
    )
    .with_group(CorrelationGroup::byzantine_shock(vec![0, 1, 2], 0.005))
    .with_group(CorrelationGroup::crash_shock(vec![3, 4, 5, 6], 0.01));
    // Straddle several chunk boundaries, including a ragged tail.
    let samples = 50_000;
    let sample =
        || monte_carlo_reliability_par_kernel(&model, &failure_model, samples, 77, McKernel::Auto);
    let reference = sample();
    for threads in [1usize, 2, 4, 7, 16] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        assert_eq!(
            pool.install(sample),
            reference,
            "parallel MC diverged at {threads} threads"
        );
    }
}

/// Importance sampling is the fourth independent implementation: from the
/// closed-form uniform tilt on small deployments, the weighted estimator must agree
/// with exact counting within its reported confidence intervals.
#[test]
fn importance_sampling_agrees_with_exact_engines_on_small_grids() {
    let budget = Budget::default();
    let tilted = |model: &dyn ProtocolModel, target: &CorrelationModel| {
        let proposal = Proposal::uniform_tilt(target, 4.0);
        importance_sampling_reliability_par(model, target, &proposal, 60_000, 2025)
    };
    for n in [3usize, 5] {
        for p in [0.01, 0.05] {
            let model = RaftModel::standard(n);
            let deployment = CorrelationModel::uniform(n, FaultProfile::crash_only(p));
            let exact =
                EngineChoice::Counting.run(&model, &deployment, &budget, &GroupScratch::default());
            let report = tilted(&model, &deployment);
            for (estimate, truth, what) in [
                (report.safe, exact.report.safe.probability(), "safe"),
                (report.live, exact.report.live.probability(), "live"),
                (
                    report.safe_and_live,
                    exact.report.safe_and_live.probability(),
                    "safe&live",
                ),
            ] {
                assert!(
                    estimate.lower - 1e-9 <= truth && truth <= estimate.upper + 1e-9,
                    "Raft N={n} p={p}: exact {what} = {truth} outside weighted interval [{}, {}]",
                    estimate.lower,
                    estimate.upper
                );
            }
        }
    }
    // PBFT safety under Byzantine faults — a genuinely two-sided guarantee.
    let model = PbftModel::standard(4);
    let deployment = CorrelationModel::uniform(4, FaultProfile::byzantine_only(0.02));
    let exact = EngineChoice::Counting.run(&model, &deployment, &budget, &GroupScratch::default());
    let report = tilted(&model, &deployment);
    assert!(report.safe.contains(exact.report.safe.probability()));
}

/// The rare-event engine's whole point: reproduce the exact answer in a regime where
/// the exact engines cannot go (placement-sensitive model, N = 60) and plain Monte
/// Carlo would need ~1e7 samples per hit.
#[test]
fn importance_sampling_reaches_tail_probabilities_plain_sampling_cannot() {
    let scenario = CorrelationModel::uniform(60, FaultProfile::crash_only(0.05));
    let model = PersistenceQuorumModel::new(60, (0..5).collect());
    let budget = Budget::default().with_samples(60_000).with_seed(9);
    let outcome = analyze_auto(&model, &scenario, &budget).expect("well-formed scenario");
    assert_eq!(outcome.engine, EngineChoice::ImportanceSampling);
    let report = outcome.rare_event.expect("weighted estimate attached");
    let truth = 1.0 - 0.05f64.powi(5); // P[loss] ≈ 3.1e-7
    assert!(
        report.safe.contains(truth),
        "exact {truth} outside [{}, {}]",
        report.safe.lower,
        report.safe.upper
    );
    // The interval must actually resolve the tail: far tighter than plain MC's
    // rule-of-three bound (~5e-5 at this sample count).
    assert!(report.safe.half_width() < 1e-7);
}

#[test]
fn parallel_importance_sampling_is_bit_identical_across_thread_counts() {
    let scenario = &CorrelationModel::uniform(30, FaultProfile::crash_only(0.04));
    let model = PersistenceQuorumModel::new(30, vec![0, 7, 19, 28]);
    // Adaptive pilot plus weighted main run, straddling chunk boundaries.
    let budget = Budget::default().with_samples(3 * 4096 + 29).with_seed(77);
    let reference =
        EngineChoice::ImportanceSampling.run(&model, scenario, &budget, &GroupScratch::default());
    for threads in [1usize, 2, 4, 7, 16] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let outcome = pool.install(|| {
            EngineChoice::ImportanceSampling.run(
                &model,
                scenario,
                &budget,
                &GroupScratch::default(),
            )
        });
        assert_eq!(
            outcome.rare_event, reference.rare_event,
            "weighted sampler diverged at {threads} threads"
        );
        assert_eq!(outcome.report, reference.report);
    }
}

/// The query-API determinism contract (see `crates/core/src/query/mod.rs`): a planned
/// sweep must be **bit-identical** to a hand-rolled per-cell front-door loop, at
/// every thread count. The grid is a paper-style sweep — 3 protocols × 5 cluster
/// sizes × 4 fault probabilities × {independent, cluster-shock}, mixed crash/
/// Byzantine profiles — plus two explicit placement-sensitive cells, so all four
/// engines and both Monte Carlo kernels appear among the 122 cells.
#[test]
fn query_plan_execute_matches_per_cell_loop_bit_for_bit() {
    use prob_consensus::engine::AnalysisOutcome;
    use prob_consensus::query::{AnalysisSession, CorrelationSpec, FaultAxis, ProtocolSpec, Query};
    use std::sync::Arc;

    const PROTOCOLS: [ProtocolSpec; 3] = [
        ProtocolSpec::Raft,
        ProtocolSpec::RaftFlexible { q_per: 3, q_vc: 4 },
        ProtocolSpec::Pbft,
    ];
    const NS: [usize; 5] = [5, 7, 9, 11, 13];
    const PS: [f64; 4] = [0.01, 0.05, 0.10, 0.25];
    const BYZANTINE: f64 = 0.005;
    const SHOCK: f64 = 0.01;
    const CORRELATIONS: [CorrelationSpec; 2] = [
        CorrelationSpec::Independent,
        CorrelationSpec::ClusterShock { probability: SHOCK },
    ];
    let budget = Budget::default().with_samples(6_000).with_seed(GRID_SEED);

    // Two explicit cells outside the grid: a rare-event cell (importance
    // sampling) and a common-failure placement-sensitive cell (scalar-kernel
    // Monte Carlo — no counting view).
    let rare_model: Arc<dyn ProtocolModel + Send + Sync> =
        Arc::new(PersistenceQuorumModel::new(24, (0..4).collect()));
    let rare_deployment = CorrelationModel::uniform(24, FaultProfile::crash_only(0.05));
    let common_model: Arc<dyn ProtocolModel + Send + Sync> =
        Arc::new(PersistenceQuorumModel::new(30, (0..2).collect()));
    let common_deployment = CorrelationModel::uniform(30, FaultProfile::crash_only(0.25));

    let query = Query::new()
        .protocols(PROTOCOLS)
        .nodes(NS)
        .fault_probs(PS)
        .faults(FaultAxis::Mixed {
            byzantine: BYZANTINE,
        })
        .correlations(CORRELATIONS)
        .budget(budget)
        .cell("rare-quorum", rare_model.clone(), rare_deployment.clone())
        .cell(
            "common-quorum",
            common_model.clone(),
            common_deployment.clone(),
        );
    assert!(
        query.cell_count() >= 100,
        "a paper-style sweep is >= 100 cells"
    );

    // The reference: the same cells through the per-cell front door, in the
    // grid's axis-nesting order.
    let mut reference: Vec<AnalysisOutcome> = Vec::with_capacity(query.cell_count());
    for spec in PROTOCOLS {
        for n in NS {
            let model = spec.build(n);
            for p in PS {
                let deployment = CorrelationModel::uniform(n, FaultProfile::new(p, BYZANTINE));
                for correlation in CORRELATIONS {
                    let scenario = match correlation {
                        CorrelationSpec::Independent => deployment.clone(),
                        _ => deployment
                            .clone()
                            .with_group(CorrelationGroup::crash_shock((0..n).collect(), SHOCK)),
                    };
                    reference.push(
                        analyze_auto(model.as_ref(), &scenario, &budget)
                            .expect("well-formed scenario"),
                    );
                }
            }
        }
    }
    for (model, scenario) in [
        (&rare_model, &rare_deployment),
        (&common_model, &common_deployment),
    ] {
        reference.push(analyze_auto(model.as_ref(), scenario, &budget).expect("well-formed"));
    }

    let mut engines_seen = std::collections::HashSet::new();
    for threads in [1usize, 2, 8] {
        let session = AnalysisSession::with_threads(threads);
        let plan = session.plan(&query).expect("well-formed sweep");
        assert_eq!(plan.len(), reference.len());
        let report = plan.execute();
        for (index, (cell, expected)) in report.cells().iter().zip(&reference).enumerate() {
            assert_eq!(
                &cell.outcome, expected,
                "cell {index} ({}) diverged from the per-cell loop at {threads} threads",
                cell.label
            );
            engines_seen.insert(cell.engine);
        }
    }
    // The sweep genuinely exercised the whole registry.
    for engine in [
        EngineChoice::Counting,
        EngineChoice::MonteCarlo,
        EngineChoice::ImportanceSampling,
    ] {
        assert!(engines_seen.contains(&engine), "{engine} never selected");
    }
}

/// The fifth engine's determinism contract: a batch of simulation trials is
/// bit-identical across thread counts for a fixed seed (trial RNGs are derived
/// from the trial index, and the verdict tallies are integers).
#[test]
fn simulation_engine_is_bit_identical_across_thread_counts() {
    let model = RaftModel::standard(3);
    let profiles = vec![FaultProfile::crash_only(0.15); 3];
    // A correlated scenario, so the schedule sampler's shock path is exercised.
    let failure_model = CorrelationModel::independent(profiles)
        .with_group(CorrelationGroup::crash_shock((0..3).collect(), 0.1));
    let budget = Budget::default().with_seed(GRID_SEED).with_sim_trials(24);
    let scenario = &failure_model;
    let reference =
        EngineChoice::Simulation.run(&model, scenario, &budget, &GroupScratch::default());
    assert!(reference.simulation.is_some());
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool builds");
        let outcome = pool.install(|| {
            EngineChoice::Simulation.run(&model, scenario, &budget, &GroupScratch::default())
        });
        assert_eq!(
            outcome.simulation, reference.simulation,
            "simulation engine diverged at {threads} threads"
        );
        assert_eq!(outcome.report, reference.report);
    }
}

/// The fifth engine against the first: on a small Raft grid the simulated
/// safe-and-live frequency must agree with the exact counting engine within 3σ
/// of its binomial standard error at a fixed seed. (The simulated *system* could
/// legitimately diverge from the *model* — that disagreement is exactly what the
/// validation mode exists to surface — so this pins that it does not.)
#[test]
fn simulated_frequencies_agree_with_the_counting_engine() {
    let budget = Budget::default().with_seed(GRID_SEED).with_sim_trials(60);
    for n in [3usize, 5] {
        for p in [0.1, 0.25] {
            let model = RaftModel::standard(n);
            let scenario = &CorrelationModel::uniform(n, FaultProfile::crash_only(p));
            let exact = EngineChoice::Counting
                .run(&model, scenario, &budget, &GroupScratch::default())
                .report
                .safe_and_live
                .probability();
            let simulated = EngineChoice::Simulation
                .run(&model, scenario, &budget, &GroupScratch::default())
                .simulation
                .expect("simulation report attached");
            let se = (exact * (1.0 - exact) / simulated.trials as f64)
                .sqrt()
                .max(1e-9);
            let empirical = simulated.safe_and_live.value;
            assert!(
                (empirical - exact).abs() <= 3.0 * se,
                "Raft N={n} p={p}: exact {exact:.4} vs simulated {empirical:.4} \
                 (3σ = {:.4})",
                3.0 * se
            );
            // Crash faults never break Raft agreement, analytically or empirically.
            assert_eq!(simulated.safe.value, 1.0);
        }
    }
}

#[test]
fn auto_selection_is_consistent_with_explicit_engines() {
    // For a counting model, analyze_auto must reproduce the counting engine bit for bit.
    let model = RaftModel::standard(9);
    let deployment = CorrelationModel::uniform(9, FaultProfile::crash_only(0.04));
    let auto = analyze_auto(&model, &deployment, &Budget::default()).expect("well-formed");
    assert_eq!(auto.engine, EngineChoice::Counting);
    let explicit = EngineChoice::Counting.run(
        &model,
        &deployment,
        &Budget::default(),
        &GroupScratch::default(),
    );
    assert_eq!(auto.report, explicit.report);
}
