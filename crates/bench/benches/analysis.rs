//! Criterion benches for the analysis engines: how expensive is it to *compute* the
//! probabilistic guarantees the paper argues protocols should report?
//!
//! Covers the scaling comparison between exhaustive enumeration (2^N), the counting DP
//! (O(N³)) and Monte Carlo sampling, plus the full Table 1 / Table 2 regeneration cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fault_model::correlation::CorrelationModel;
use prob_consensus::analyzer::analyze_auto;
use prob_consensus::counting::FaultCountDistribution;
use prob_consensus::deployment::Deployment;
use prob_consensus::engine::{AnalysisEngine, Budget, CountingEngine, EnumerationEngine, Scenario};
use prob_consensus::montecarlo::{monte_carlo_reliability_par_kernel, McKernel};
use prob_consensus::packed::PackedKernel;
use prob_consensus::pbft_model::PbftModel;
use prob_consensus::raft_model::RaftModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    let budget = Budget::default();
    for n in [5usize, 9, 13, 17] {
        let deployment = Deployment::uniform_crash(n, 0.02);
        let model = RaftModel::standard(n);
        group.bench_with_input(BenchmarkId::new("enumeration", n), &n, |b, _| {
            b.iter(|| EnumerationEngine.run(&model, (&deployment).into(), &budget))
        });
        group.bench_with_input(BenchmarkId::new("counting", n), &n, |b, _| {
            b.iter(|| CountingEngine.run(&model, (&deployment).into(), &budget))
        });
    }
    for n in [25usize, 50, 100, 200] {
        let deployment = Deployment::uniform_crash(n, 0.02);
        let model = RaftModel::standard(n);
        group.bench_with_input(BenchmarkId::new("counting-large", n), &n, |b, _| {
            b.iter(|| CountingEngine.run(&model, (&deployment).into(), &budget))
        });
    }
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("monte-carlo");
    let (model, deployment) = bench::mc_speedup_workload();
    let failure_model = CorrelationModel::independent(deployment.profiles().to_vec());
    let sample = |samples: usize, kernel: McKernel| {
        monte_carlo_reliability_par_kernel(
            &model,
            &failure_model,
            samples,
            bench::MC_SPEEDUP_SEED,
            kernel,
        )
    };
    for samples in [1_000usize, 10_000] {
        group.bench_with_input(
            BenchmarkId::new("raft-9", samples),
            &samples,
            |b, &samples| b.iter(|| sample(samples, McKernel::Scalar)),
        );
    }
    // The headline hot path — the production engine (packed kernel across the
    // pool) on the workload `repro --bench` records in BENCH_analysis.json — next
    // to the scalar kernel on the same pool.
    for (id, kernel) in [
        (bench::MC_SCALAR_PARALLEL_ID, McKernel::Scalar),
        (bench::MC_PARALLEL_ID, McKernel::Auto),
    ] {
        group.bench_function(id.trim_start_matches("monte-carlo/"), |b| {
            b.iter(|| sample(bench::MC_SPEEDUP_SAMPLES, kernel))
        });
    }
    group.finish();
}

fn bench_packed_vs_scalar(c: &mut Criterion) {
    // The two Monte Carlo kernels head to head, same workload, same pool: the
    // bit-sliced packed kernel evaluates 64 scenarios per pass and should run
    // several times the scalar kernel's throughput on both of its plans (the
    // bit-sliced threshold plan for crash-only Raft, the LUT plan for mixed-mode
    // PBFT). `repro --bench` records the headline ratio as
    // `packed_kernel_speedup` in BENCH_analysis.json.
    let mut group = c.benchmark_group("packed-vs-scalar");
    let (raft, crash_deployment) = bench::mc_speedup_workload();
    let crash = CorrelationModel::independent(crash_deployment.profiles().to_vec());
    let pbft = PbftModel::standard(7);
    let mixed =
        CorrelationModel::independent(Deployment::uniform_mixed(7, 0.05, 0.01).profiles().to_vec());
    const SAMPLES: usize = 50_000;
    for (id, kernel) in [
        ("raft-9-scalar", McKernel::Scalar),
        ("raft-9-packed", McKernel::Packed),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                monte_carlo_reliability_par_kernel(
                    &raft,
                    &crash,
                    SAMPLES,
                    bench::MC_SPEEDUP_SEED,
                    kernel,
                )
            })
        });
    }
    for (id, kernel) in [
        ("pbft-7-mixed-scalar", McKernel::Scalar),
        ("pbft-7-mixed-packed", McKernel::Packed),
    ] {
        group.bench_function(id, |b| {
            b.iter(|| {
                monte_carlo_reliability_par_kernel(
                    &pbft,
                    &mixed,
                    SAMPLES,
                    bench::MC_SPEEDUP_SEED,
                    kernel,
                )
            })
        });
    }
    group.finish();
}

fn bench_packed_width(c: &mut Criterion) {
    // The packed kernel at pinned pass widths: 1, 4 and 8 u64 words (64, 256 and
    // 512 lanes per pass) on the raft-9 workload, through `sample_chunk` — the
    // only place a width can be set — on the calling thread. Wider passes amortize
    // per-pass RNG and plan-walk overhead across more lanes and unlock the SIMD
    // popcount reduction; the W=8 row is the production configuration behind the
    // absolute `packed_samples_per_sec` baseline in BENCH_analysis.json.
    let mut group = c.benchmark_group("packed-width");
    let (model, deployment) = bench::mc_speedup_workload();
    let kernel = PackedKernel::new(
        &model,
        &CorrelationModel::independent(deployment.profiles().to_vec()),
    );
    for (id, lane_words) in bench::PACKED_WIDTH_IDS {
        group.bench_function(id.trim_start_matches("packed-width/"), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(bench::MC_SPEEDUP_SEED);
                kernel.sample_chunk(&mut rng, bench::MC_SPEEDUP_SAMPLES, lane_words)
            })
        });
    }
    group.finish();
}

fn bench_rare_event(c: &mut Criterion) {
    // The p ≈ 1e-8 workload (16 nodes, 4-node persistence quorum at p_u = 1%).
    // Importance sampling vs. naive Monte Carlo *at the same sample count*: the
    // wall-clock rows compare per-sample cost (the weighted sampler pays for the
    // adaptive pilot and the likelihood ratios), while the ≥100x headline is in
    // samples needed for equal CI width — naive sampling would have to draw ~1e8
    // samples per hit, and `bench::rare_event_sample_efficiency` (recorded in
    // BENCH_analysis.json and asserted ≥100x by the crate tests) quantifies it.
    let mut group = c.benchmark_group("rare-event");
    let (model, deployment) = bench::rare_event_workload();
    let failure_model = CorrelationModel::independent(deployment.profiles().to_vec());
    let budget = Budget::default()
        .with_samples(bench::RARE_EVENT_SAMPLES)
        .with_seed(bench::RARE_EVENT_SEED);
    group.bench_function(
        bench::RARE_EVENT_IS_ID.trim_start_matches("rare-event/"),
        |b| {
            b.iter(|| {
                prob_consensus::rare_event::ImportanceSamplingEngine.run(
                    &model,
                    Scenario::Independent(&deployment),
                    &budget,
                )
            })
        },
    );
    group.bench_function(
        bench::RARE_EVENT_MC_ID.trim_start_matches("rare-event/"),
        |b| {
            b.iter(|| {
                monte_carlo_reliability_par_kernel(
                    &model,
                    &failure_model,
                    bench::RARE_EVENT_SAMPLES,
                    bench::RARE_EVENT_SEED,
                    McKernel::Auto,
                )
            })
        },
    );
    group.finish();
}

fn bench_sweep(c: &mut Criterion) {
    // The sweep-amortization headline: the same correlated, packed-kernel-eligible
    // grid of cells (a convergence sweep over the sample budget), run as one
    // planned batch vs. as a naive per-cell front-door loop. The planned batch
    // runs the rare-event selector pilot and compiles the packed kernel once per
    // (model, scenario) group where the naive loop pays per cell; results are
    // bit-identical (asserted by the bench crate's tests). `repro --bench` records
    // the ratio as `sweep_amortization_speedup` in BENCH_analysis.json.
    let mut group = c.benchmark_group("sweep");
    group.bench_function(bench::SWEEP_NAIVE_ID.trim_start_matches("sweep/"), |b| {
        b.iter(bench::sweep_naive_loop)
    });
    group.bench_function(bench::SWEEP_PLANNED_ID.trim_start_matches("sweep/"), |b| {
        b.iter(bench::sweep_planned_batch)
    });
    // The mixed-workload pair: exact counting cells interleaved with packed Monte
    // Carlo cells, run through the work-stealing scheduler as one cost-ordered
    // DAG vs. the cell-at-a-time front-door loop. `repro --bench` records the
    // batch wall clock as `sweep_wall_clock_ms` and the ratio as
    // `sweep_mixed_speedup` in BENCH_analysis.json.
    group.bench_function(
        bench::SWEEP_MIXED_NAIVE_ID.trim_start_matches("sweep/"),
        |b| b.iter(bench::sweep_mixed_naive_loop),
    );
    group.bench_function(bench::SWEEP_MIXED_ID.trim_start_matches("sweep/"), |b| {
        b.iter(bench::sweep_mixed_batch)
    });
    group.finish();
}

fn bench_epistemic(c: &mut Criterion) {
    // The second-order posterior sweep: one correlated Raft cell re-analyzed
    // under 64 deterministic posterior parameter draws, every draw its own
    // scheduled packed Monte Carlo run. `repro --bench` derives
    // `posterior_draws_per_sec` from this row in BENCH_analysis.json.
    let mut group = c.benchmark_group("epistemic");
    group.bench_function(
        bench::EPISTEMIC_SWEEP_ID.trim_start_matches("epistemic/"),
        |b| b.iter(bench::epistemic_sweep_batch),
    );
    group.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    // The deployment-optimizer search: the default catalogue × Raft cluster
    // sizes 3–9 (twelve counting-exact candidates) screened, ranked and
    // frontier-extracted as one three-tier search on a fresh session. `repro
    // --bench` derives `frontier_candidates_per_sec` from this row in
    // BENCH_analysis.json.
    let mut group = c.benchmark_group("optimizer");
    group.bench_function(
        bench::OPTIMIZER_BENCH_ID.trim_start_matches("optimizer/"),
        |b| b.iter(bench::optimizer_batch),
    );
    group.finish();
}

fn bench_auto_selection(c: &mut Criterion) {
    // analyze_auto routes through the engine registry; its overhead over calling the
    // counting engine directly should be negligible.
    let mut group = c.benchmark_group("auto-selection");
    let deployment = Deployment::uniform_crash(9, 0.02);
    let model = RaftModel::standard(9);
    let budget = Budget::default();
    group.bench_function("analyze-direct", |b| {
        b.iter(|| CountingEngine.run(&model, (&deployment).into(), &budget))
    });
    group.bench_function("analyze-auto", |b| {
        b.iter(|| analyze_auto(&model, &deployment, &budget))
    });
    group.finish();
}

fn bench_fault_count_distribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault-count-distribution");
    for n in [10usize, 50, 100] {
        let deployment = Deployment::uniform_mixed(n, 0.04, 0.001);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| FaultCountDistribution::from_deployment(&deployment))
        });
    }
    group.finish();
}

fn bench_paper_tables(c: &mut Criterion) {
    let budget = Budget::default();
    c.bench_function("table1-pbft", |b| {
        b.iter(|| {
            for n in [4usize, 5, 7, 8] {
                CountingEngine.run(
                    &PbftModel::standard(n),
                    (&Deployment::uniform_byzantine(n, 0.01)).into(),
                    &budget,
                );
            }
        })
    });
    c.bench_function("table2-raft", |b| {
        b.iter(|| {
            for n in [3usize, 5, 7, 9] {
                for p in [0.01, 0.02, 0.04, 0.08] {
                    CountingEngine.run(
                        &RaftModel::standard(n),
                        (&Deployment::uniform_crash(n, p)).into(),
                        &budget,
                    );
                }
            }
        })
    });
}

criterion_group!(
    benches,
    bench_engines,
    bench_monte_carlo,
    bench_packed_vs_scalar,
    bench_packed_width,
    bench_rare_event,
    bench_sweep,
    bench_epistemic,
    bench_optimizer,
    bench_auto_selection,
    bench_fault_count_distribution,
    bench_paper_tables
);
criterion_main!(benches);
