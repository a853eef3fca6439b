//! The sweep-native query API: plan a whole grid of analyses, execute it once.
//!
//! The paper's deliverable is not a single number but *tables and curves*:
//! safety/liveness swept over cluster size N, per-node failure probability p, quorum
//! configuration, protocol, and correlation structure. The per-cell front door
//! ([`crate::analyzer::analyze_auto`]) answers exactly one (model, scenario, budget)
//! triple per call, so every sweep used to be a hand-rolled loop that re-selected
//! the engine, re-derived packed-kernel thresholds and re-ran the rare-event
//! selector pilot for every cell. This module is the batch-oriented replacement:
//!
//! * [`Query`] — a builder capturing scenario axes as sweeps ([`Query::nodes`],
//!   [`Query::fault_probs`] — see [`logspace`] — [`Query::protocols`],
//!   [`Query::correlations`], [`Query::samples_sweep`]), a
//!   [`Budget`](crate::engine::Budget), the requested
//!   [`Metrics`], and fully explicit cells ([`Query::cell`]) for scenarios the grid
//!   axes cannot express.
//! * [`AnalysisSession`] — owns the (optional, pinned) rayon pool and the cache of
//!   per-(model, scenario) scratch ([`crate::scratch`]: compiled packed-kernel
//!   thresholds/LUTs, exact counting results, selector-pilot estimates and
//!   importance-sampling proposals), keyed by the cell's content and reused across
//!   cells, plans and queries. Every cell's scenario is one
//!   [`CorrelationModel`](fault_model::correlation::CorrelationModel) — an
//!   independent cell is the model with no shock
//!   groups — held in one `Arc` its replicates share.
//! * [`AnalysisSession::plan`] → [`QueryPlan`] — engine selection for *all* cells up
//!   front (validating the budget — see [`Budget::validate`](crate::engine::Budget::validate) — and the cell shapes),
//!   grouping cells that share a (model, scenario) signature so the expensive
//!   per-group setup runs once per group instead of once per cell.
//! * [`QueryPlan::execute`] → [`AnalysisReport`] — runs every cell across the
//!   persistent pool and returns one [`CellRecord`] per cell (engine, kernel,
//!   estimates with confidence intervals, ESS, wall time), renderable to a
//!   plain-text [`Table`](crate::report::Table) and to JSON ([`AnalysisReport::to_json`], via
//!   [`crate::json`] — no serde in the vendored world).
//! * **Time domain** — [`Query::time_horizon`] attaches a [`TimeAxis`];
//!   [`Query::trajectory_cell`] (aging fleets through sliding mission windows) and
//!   [`Query::repairable_cell`] (λ/μ repairable groups via
//!   [`fault_model::markov::RepairableGroup`]) produce [`TrajectoryRecord`]s —
//!   reliability over time, first dip below target, steady-state availability,
//!   unavailability minutes per year — rendered through the same table
//!   ([`AnalysisReport::to_trajectory_table`]) and JSON paths.
//! * **Cross-validation** — [`Query::validate_with_simulation`] pairs every
//!   executable cell with an empirical run of the fifth engine
//!   ([`EngineChoice::Simulation`](crate::engine::EngineChoice::Simulation)); the cell's [`ValidationRecord`]
//!   reports the trial frequencies and the analytic-vs-empirical z-score.
//!
//! # Determinism contract
//!
//! Executing a planned cell is **bit-identical** to calling
//! [`crate::analyzer::analyze_auto`] on the same triple, because it is the same
//! code: the planner calls [`crate::engine::select_engine`] and the scheduler calls
//! [`EngineChoice::run`](crate::engine::EngineChoice::run) on the selected engine, exactly as the front door does — the only
//! difference is whose scratch they pass. Monte Carlo cells are the one
//! decomposition: the scheduler draws their chunks itself — once per chunk that
//! several cells draw alike, tallied per cell to exactly that cell's sampler's
//! `chunk(i)` — and folds each cell's tallies in chunk order, which is literally
//! what the sampler's own whole-cell run does ([`crate::montecarlo`]). Caching never
//! changes results, because everything cached is a pure function of the cell's
//! content: kernel compilation and the count DP are value-deterministic, and the
//! selector pilot / adaptive proposal are cached *per seed*, so a cache hit
//! returns exactly what the per-cell call would have recomputed. Cells execute in
//! parallel, but each cell's sampling is chunked by the
//! thread-count-independent scheme of [`crate::montecarlo`], so reports are
//! bit-identical at any thread count. `tests/engine_agreement.rs` pins this
//! plan-vs-loop equivalence over a ≥100-cell grid at several thread counts.
//!
//! # Example
//!
//! ```
//! use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query};
//!
//! let session = AnalysisSession::new();
//! let query = Query::new()
//!     .protocols([ProtocolSpec::Raft])
//!     .nodes([3usize, 5, 7, 9])
//!     .fault_probs([0.01, 0.08]);
//! let report = session.run(&query).expect("well-formed query");
//! assert_eq!(report.cells().len(), 8);
//! // Raft at N = 3, p = 1%: the paper's 99.97% cell, via the exact counting engine.
//! assert!(report.cells()[0].outcome.is_exact());
//! assert_eq!(
//!     report.cells()[0].outcome.report.safe_and_live.as_percent(),
//!     "99.97%"
//! );
//! println!("{}", report.to_table("Raft sweep"));
//! let json = report.to_json();
//! assert!(json.contains("\"engine\": \"counting\""));
//! ```

mod plan;
mod report;
mod spec;

pub use plan::*;
pub use report::*;
pub use spec::*;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use fault_model::correlation::CorrelationModel;
    use fault_model::markov::RepairableGroup;
    use fault_model::metrics::{Nines, HOURS_PER_YEAR};
    use fault_model::mode::FaultProfile;
    use fault_model::node::Fleet;

    use crate::analyzer::{analyze_auto, AnalysisError};
    use crate::durability::PersistenceQuorumModel;
    use crate::engine::{Budget, EngineChoice, FaultEnvironment};
    use crate::json::JsonValue;
    use crate::montecarlo::McKernel;
    use crate::protocol::ProtocolModel;
    use crate::raft_model::RaftModel;
    use crate::scratch::GroupScratch;

    #[test]
    fn grid_expands_in_axis_nesting_order() {
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft, ProtocolSpec::Pbft])
            .nodes([5usize, 7])
            .fault_probs([0.01, 0.08]);
        assert_eq!(query.cell_count(), 8);
        let plan = session.plan(&query).expect("valid query");
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.label(0), "raft/N=5/p=0.01/independent");
        assert_eq!(plan.label(3), "raft/N=7/p=0.08/independent");
        assert_eq!(plan.label(4), "pbft/N=5/p=0.01/independent");
        // All counting models on small independent deployments: exact counting.
        assert!(plan.engines().iter().all(|&e| e == EngineChoice::Counting));
    }

    #[test]
    fn samples_sweep_replicates_cells_and_shares_the_group() {
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.05])
            .correlations([CorrelationSpec::ClusterShock { probability: 0.02 }])
            .samples_sweep([1_000usize, 5_000, 20_000])
            .budget(Budget::default().with_seed(3));
        let report = session.run(&query).expect("valid query");
        assert_eq!(report.cells().len(), 3);
        for (cell, &samples) in report.cells().iter().zip(&[1_000usize, 5_000, 20_000]) {
            assert_eq!(cell.samples_budget, samples);
            assert_eq!(cell.engine, EngineChoice::MonteCarlo);
            assert_eq!(cell.samples_drawn(), Some(samples));
            assert_eq!(cell.kernel(), Some(McKernel::Packed));
        }
        // Wider budgets should not widen the interval.
        let widths: Vec<f64> = report
            .cells()
            .iter()
            .map(|c| c.outcome.monte_carlo.unwrap().safe_and_live.half_width())
            .collect();
        assert!(widths[0] > widths[2]);
    }

    #[test]
    fn explicit_cells_cover_placement_sensitive_models() {
        let session = AnalysisSession::new();
        let model: Arc<dyn ProtocolModel + Send + Sync> =
            Arc::new(PersistenceQuorumModel::new(24, (0..4).collect()));
        let query = Query::new()
            .cell(
                "durability",
                model.clone(),
                CorrelationModel::uniform(24, FaultProfile::crash_only(0.05)),
            )
            .budget(Budget::default().with_samples(30_000).with_seed(13));
        let plan = session.plan(&query).expect("valid query");
        assert_eq!(plan.engines(), vec![EngineChoice::ImportanceSampling]);
        let report = plan.execute();
        let cell = report.cell(0);
        assert_eq!(cell.label, "durability");
        assert!(cell.ess().expect("importance sampling ran") > 0.0);
        let expected = analyze_auto(
            model.as_ref(),
            &CorrelationModel::uniform(24, FaultProfile::crash_only(0.05)),
            &Budget::default().with_samples(30_000).with_seed(13),
        )
        .expect("well-formed scenario");
        assert_eq!(cell.outcome, expected);
    }

    #[test]
    fn invalid_budgets_are_rejected_at_plan_time() {
        let session = AnalysisSession::new();
        let base = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([3usize])
            .fault_probs([0.01]);
        let nan_threshold = Budget {
            rare_event_threshold: f64::NAN,
            ..Budget::default()
        };
        let err = session
            .plan(&base.clone().budget(nan_threshold))
            .expect_err("NaN threshold must be rejected");
        assert!(matches!(
            err,
            AnalysisError::InvalidBudget(crate::engine::InvalidBudget::RareEventThreshold(_))
        ));
        let no_draws = Budget::default().with_posterior(0, 2.0, 50.0);
        assert!(session.plan(&base.clone().budget(no_draws)).is_err());
        let bad_threshold = Budget {
            rare_event_threshold: 0.0,
            ..Budget::default()
        };
        let err = session
            .plan(&base.budget(bad_threshold))
            .expect_err("threshold outside (0,1) must be rejected");
        assert!(err.to_string().contains("rare_event_threshold"));
    }

    #[test]
    fn malformed_cells_yield_clear_errors() {
        let session = AnalysisSession::new();
        // Size mismatch between an explicit model and its scenario.
        let model: Arc<dyn ProtocolModel + Send + Sync> = Arc::new(RaftModel::standard(3));
        let query = Query::new().cell(
            "mismatch",
            model.clone(),
            CorrelationModel::uniform(4, FaultProfile::crash_only(0.01)),
        );
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::SizeMismatch {
                model_nodes: 3,
                scenario_nodes: 4
            }
        );
        // An empty correlated scenario.
        let query = Query::new().cell("empty", model, CorrelationModel::independent(Vec::new()));
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::EmptyScenario
        );
    }

    #[test]
    fn logspace_spans_the_requested_decades() {
        let points = logspace(1e-6, 1e-1, 25);
        assert_eq!(points.len(), 25);
        assert!((points[0] - 1e-6).abs() < 1e-18);
        assert!((points[24] - 1e-1).abs() < 1e-12);
        assert!(points.windows(2).all(|w| w[0] < w[1]));
        // Log-even spacing: constant ratio between neighbours.
        let r0 = points[1] / points[0];
        let r23 = points[24] / points[23];
        assert!((r0 - r23).abs() < 1e-9);
        assert_eq!(logspace(0.5, 0.5, 1), vec![0.5]);
    }

    #[test]
    fn report_table_and_json_render_every_cell() {
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([3usize, 5])
            .fault_probs([0.01]);
        let report = session.run(&query).expect("valid query");
        let table = report.to_table("sweep");
        assert_eq!(table.num_rows(), 2);
        assert!(table.rows()[0][1].contains("counting"));
        let parsed = JsonValue::parse(&report.to_json()).expect("valid JSON");
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0].get("engine").and_then(JsonValue::as_str),
            Some("counting")
        );
        // Exact cells have null interval bounds and null ESS.
        assert!(cells[0]
            .get("safe_and_live")
            .unwrap()
            .get("lower")
            .unwrap()
            .is_null());
        assert!(cells[0].get("ess").unwrap().is_null());
        // Probabilities round-trip bit-exactly through the JSON text.
        let value = cells[0]
            .get("safe_and_live")
            .unwrap()
            .get("value")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(
            value.to_bits(),
            report
                .cell(0)
                .outcome
                .report
                .safe_and_live
                .probability()
                .to_bits()
        );
    }

    #[test]
    fn metrics_filter_report_columns() {
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([3usize])
            .fault_probs([0.01])
            .metrics(Metrics {
                safe: false,
                live: false,
                safe_and_live: true,
            });
        let report = session.run(&query).expect("valid query");
        let json = report.to_json();
        assert!(json.contains("\"safe_and_live\""));
        assert!(!json.contains("\"live\":"));
        let table = report.to_table("s&l only");
        assert_eq!(table.rows()[0].len(), 6); // cell, engine, s&l, CI, ESS, wall
    }

    #[test]
    fn session_scratch_is_shared_across_plans() {
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([40usize])
            .fault_probs([0.02])
            .correlations([CorrelationSpec::RackShock {
                racks: 4,
                probability: 0.01,
            }])
            .budget(Budget::default().with_samples(5_000));
        let first = session.run(&query).expect("valid query");
        let second = session.run(&query).expect("valid query");
        assert_eq!(first.cell(0).outcome, second.cell(0).outcome);
        // One group signature in the session cache despite two plans: the
        // second plan's lookup is a hit, not a second resident entry.
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 1);
    }

    #[test]
    fn streaming_emits_every_record_exactly_once_and_matches_the_report() {
        struct Collector {
            cells: Mutex<Vec<(usize, CellRecord)>>,
            trajectories: Mutex<Vec<(usize, TrajectoryRecord)>>,
        }
        impl StreamSink for Collector {
            fn on_cell(&self, index: usize, record: &CellRecord) {
                self.cells.lock().unwrap().push((index, record.clone()));
            }
            fn on_trajectory(&self, index: usize, record: &TrajectoryRecord) {
                self.trajectories
                    .lock()
                    .unwrap()
                    .push((index, record.clone()));
            }
        }
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft, ProtocolSpec::Pbft])
            .nodes([4usize, 16])
            .fault_probs([0.01, 0.05])
            .repairable_cell("repairable", RepairableGroup::new(5, 1e-4, 0.1, 2))
            .budget(Budget::default().with_samples(20_000));
        let plan = session.plan(&query).expect("valid query");
        let sink = Collector {
            cells: Mutex::new(Vec::new()),
            trajectories: Mutex::new(Vec::new()),
        };
        let streamed = plan.execute_streaming(&sink);
        let oneshot = plan.execute();

        // The streamed report equals a plain execution of the same plan.
        assert_eq!(streamed.cells().len(), oneshot.cells().len());
        for (a, b) in streamed.cells().iter().zip(oneshot.cells()) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.label, b.label);
        }

        // Every cell was emitted exactly once, and each emitted record is the
        // record the report contains (reassembly by index reproduces the report).
        let mut cells = sink.cells.into_inner().unwrap();
        assert_eq!(cells.len(), streamed.cells().len());
        cells.sort_by_key(|(index, _)| *index);
        for (position, (index, record)) in cells.iter().enumerate() {
            assert_eq!(position, *index, "each index emitted exactly once");
            let in_report = streamed.cell(*index);
            assert_eq!(record.outcome, in_report.outcome);
            assert_eq!(record.wall_ns, in_report.wall_ns);
        }
        let trajectories = sink.trajectories.into_inner().unwrap();
        assert_eq!(trajectories.len(), 1);
        assert_eq!(trajectories[0].0, 0);
        assert_eq!(
            trajectories[0].1.points.len(),
            streamed.trajectory(0).points.len()
        );
    }

    #[test]
    fn identical_explicit_cells_share_one_compiled_kernel() {
        // Two *separate* requests for the same explicit (model, scenario) — the
        // dominant server workload — must hit one cache entry and therefore
        // share one compiled kernel / proposal.
        let session = AnalysisSession::new();
        let model = Arc::new(RaftModel::standard(5));
        let query = Query::new()
            .cell(
                "explicit raft",
                model.clone(),
                CorrelationModel::uniform(5, FaultProfile::crash_only(0.02)),
            )
            .budget(Budget::default().with_samples(5_000));
        let first = session.run(&query).expect("valid query");
        let second = session.run(&query).expect("valid query");
        assert_eq!(first.cell(0).outcome, second.cell(0).outcome);
        // A grid cell of the same content is keyed by content too, so it lands
        // on the same entry.
        let grid = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.02])
            .budget(Budget::default().with_samples(5_000));
        let third = session.run(&grid).expect("valid query");
        assert_eq!(first.cell(0).outcome, third.cell(0).outcome);
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 1, "one content, one entry");
        assert_eq!(stats.misses, 1, "later requests must not re-insert");
        assert_eq!(stats.hits, 2, "later requests must hit");
    }

    #[test]
    fn distinct_explicit_models_never_share_scratch() {
        // Signature-collision safety: two placement-sensitive durability models
        // over the same deployment but different quorum members are different
        // content, so they must get distinct cache entries.
        let session = AnalysisSession::new();
        let deployment = CorrelationModel::uniform(6, FaultProfile::crash_only(0.05));
        let query = Query::new()
            .cell(
                "quorum 012",
                Arc::new(crate::durability::PersistenceQuorumModel::new(
                    6,
                    vec![0, 1, 2],
                )),
                deployment.clone(),
            )
            .cell(
                "quorum 345",
                Arc::new(crate::durability::PersistenceQuorumModel::new(
                    6,
                    vec![3, 4, 5],
                )),
                deployment,
            )
            .budget(Budget::default().with_samples(2_000));
        let report = session.run(&query).expect("valid query");
        assert_eq!(report.cells().len(), 2);
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 2, "distinct models, distinct entries");
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn concurrent_executes_match_sequential_results() {
        // The service contract: many plans in flight against one shared session
        // (interleaved lookups, inserts and evictions in the scratch cache)
        // must produce exactly the outcomes a quiet sequential session does.
        let queries: Vec<Query> = vec![
            Query::new()
                .protocols([ProtocolSpec::Raft, ProtocolSpec::Pbft])
                .nodes([5usize, 9])
                .fault_probs([0.02])
                .budget(Budget::default().with_samples(5_000)),
            Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([7usize])
                .fault_probs([0.01, 0.05])
                .correlations([CorrelationSpec::ClusterShock { probability: 0.02 }])
                .budget(Budget::default().with_samples(5_000)),
            Query::new()
                .cell(
                    "pq",
                    Arc::new(crate::durability::PersistenceQuorumModel::new(
                        6,
                        vec![0, 1, 2],
                    )),
                    CorrelationModel::uniform(6, FaultProfile::crash_only(0.05)),
                )
                .budget(Budget::default().with_samples(2_000)),
        ];
        let expected: Vec<AnalysisReport> = queries
            .iter()
            .map(|q| AnalysisSession::new().run(q).expect("valid query"))
            .collect();
        let session = AnalysisSession::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|worker: usize| {
                    let session = &session;
                    let queries = &queries;
                    scope.spawn(move || {
                        // Each worker walks the queries from a different start
                        // so distinct plans overlap in time.
                        (0..queries.len())
                            .map(|step| {
                                let index = (worker + step) % queries.len();
                                (index, session.run(&queries[index]).expect("valid query"))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (index, report) in handle.join().expect("worker panicked") {
                    let reference = &expected[index];
                    assert_eq!(report.cells().len(), reference.cells().len());
                    for cell in 0..reference.cells().len() {
                        assert_eq!(
                            report.cell(cell).outcome,
                            reference.cell(cell).outcome,
                            "query {index} cell {cell} diverged under concurrency"
                        );
                    }
                }
            }
        });
        let stats = session.cache_stats();
        assert!(stats.hits > 0, "repeated plans must share scratch");
    }

    #[test]
    fn time_axis_samples_include_both_endpoints() {
        let axis = TimeAxis::new(1_000.0, 250.0);
        assert_eq!(axis.sample_times(), vec![0.0, 250.0, 500.0, 750.0, 1_000.0]);
        assert_eq!(axis.window_hours, 250.0);
        // A zero horizon still samples t = 0 (the "now" guarantee).
        assert_eq!(TimeAxis::new(0.0, 10.0).sample_times(), vec![0.0]);
        // A step larger than the horizon samples t = 0 only.
        assert_eq!(TimeAxis::new(5.0, 10.0).sample_times(), vec![0.0]);
    }

    #[test]
    fn time_axis_sampling_survives_float_drift() {
        // Regression: `t += step` accumulation dropped the horizon sample for
        // steps that are not exactly representable (0.3 / 0.1 < 3.0 in f64).
        let times = TimeAxis::new(0.3, 0.1).sample_times();
        assert_eq!(
            times.len(),
            4,
            "0, 0.1, 0.2, 0.3 — horizon included: {times:?}"
        );
        assert!((times[3] - 0.3).abs() < 1e-12);
        // A year of 0.1-hour steps: exactly 87,661 samples, last at the horizon.
        let times = TimeAxis::new(8_766.0, 0.1).sample_times();
        assert_eq!(times.len(), 87_661);
        assert!((times.last().unwrap() - 8_766.0).abs() < 1e-9);
        // Fleet trajectory cells walk the same sample times.
        let record =
            raft_fleet_trajectory(Fleet::homogeneous_crash(3, 0.01), TimeAxis::new(0.3, 0.1));
        assert_eq!(record.points.len(), 4);
        assert!((record.points[3].at_hours - 0.3).abs() < 1e-12);
    }

    #[test]
    fn struct_literal_time_axes_are_validated_at_plan_time() {
        // The axis fields are public, so a zero step can bypass the constructor
        // asserts; planning must reject it instead of looping forever in
        // sample_times on a pool worker.
        let session = AnalysisSession::new();
        let bad_axis = TimeAxis {
            horizon_hours: 1e4,
            step_hours: 0.0,
            window_hours: 1.0,
            target_nines: None,
        };
        let query = Query::new()
            .time_horizon(bad_axis)
            .repairable_cell("r", RepairableGroup::new(3, 1e-3, 1e-2, 1));
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::InvalidTimeAxis
        );
        let nan_window = TimeAxis {
            window_hours: f64::NAN,
            ..TimeAxis::new(100.0, 10.0)
        };
        assert!(session
            .plan(&Query::new().time_horizon(nan_window))
            .is_err());
        // Well-formed but too long: the axis ends one sample past the cap (and
        // one at it plans). The constructor cannot know what a plan affords.
        let step = 0.5;
        let points = |n: usize| TimeAxis::new((n - 1) as f64 * step, step);
        let plan_axis = |axis| session.plan(&Query::new().time_horizon(axis));
        assert_eq!(
            plan_axis(points(MAX_TIME_POINTS + 1)).unwrap_err(),
            AnalysisError::InvalidTimeAxis
        );
        assert!(plan_axis(points(MAX_TIME_POINTS)).is_ok());
    }

    #[test]
    fn oversized_queries_are_rejected_before_anything_is_built() {
        let session = AnalysisSession::new();
        let grid = || {
            Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([3usize])
                .fault_probs([0.01])
        };
        let over = |query: Query| match session.plan(&query).unwrap_err() {
            AnalysisError::OverLimit { what, .. } => what,
            AnalysisError::InvalidBudget(crate::engine::InvalidBudget::OverLimit {
                what, ..
            }) => what,
            other => panic!("expected a size limit, got {other}"),
        };
        // Each of these would ask for gigabytes: 3e9 nodes, 4e9 posterior
        // draws, a 200 000-node repairable chain.
        assert_eq!(over(grid().nodes([3_000_000_000usize])), "nodes");
        assert_eq!(
            over(grid().posterior(4_000_000_000, 2.0, 50.0)),
            "epistemic.draws"
        );
        let chain = RepairableGroup::new(200_000, 1e-4, 0.1, 2);
        assert_eq!(over(grid().repairable_cell("r", chain)), "repairable n");
        // Sample counts, on the base budget and on the samples axis.
        let samples = MAX_SAMPLES + 1;
        let budget = Budget::default().with_samples(samples);
        assert_eq!(over(grid().budget(budget)), "monte_carlo_samples");
        assert_eq!(over(grid().samples_sweep([samples])), "monte_carlo_samples");
        // Axis lengths, and their product, which saturates: six axes of 4 096
        // entries overflow a u64.
        let long = vec![0.01; MAX_AXIS_LEN + 1];
        assert_eq!(over(grid().fault_probs(long)), "fault_probs");
        let full = || vec![0.01; MAX_AXIS_LEN];
        let wide = grid()
            .fault_probs(full())
            .samples_sweep(vec![10; MAX_AXIS_LEN]);
        assert_eq!(wide.cell_count(), MAX_AXIS_LEN * MAX_AXIS_LEN);
        assert_eq!(over(wide), "cells (posterior draws included)");
        let huge = Query::new()
            .protocols(vec![ProtocolSpec::Raft; MAX_AXIS_LEN])
            .nodes(vec![3usize; MAX_AXIS_LEN])
            .fault_probs(full())
            .correlations(vec![CorrelationSpec::Independent; MAX_AXIS_LEN])
            .samples_sweep(vec![10; MAX_AXIS_LEN])
            .fault_environments(vec![FaultEnvironment::Clean; MAX_AXIS_LEN]);
        assert_eq!(huge.cell_count(), usize::MAX);
        assert_eq!(over(huge), "cells (posterior draws included)");
        // Posterior draws count as cells.
        let drawn = grid()
            .fault_probs(vec![0.01; 8])
            .posterior(MAX_CELLS / 4, 2.0, 50.0);
        assert_eq!(over(drawn), "cells (posterior draws included)");
    }

    #[test]
    fn repairable_cell_produces_a_full_trajectory_record() {
        let session = AnalysisSession::new();
        let report = session
            .run(
                &Query::new()
                    .time_horizon(TimeAxis::new(40_000.0, 10_000.0).with_target_nines(2.0))
                    .repairable_cell("group", RepairableGroup::new(3, 1e-3, 1e-2, 1)),
            )
            .expect("well-formed query");
        assert!(report.cells().is_empty());
        assert_eq!(report.trajectories().len(), 1);
        let record = report.trajectory(0);
        assert_eq!(record.kind, TrajectoryKind::Repairable);
        assert_eq!(record.points.len(), 5);
        assert_eq!(record.points[0].probability, 1.0);
        // R(t) decreases monotonically toward absorption.
        assert!(record
            .points
            .windows(2)
            .all(|w| w[1].probability <= w[0].probability + 1e-12));
        // At these rates the threshold is eventually exceeded: the target dips.
        assert!(record.first_below_target_hours.is_some());
        assert_eq!(record.worst_probability, record.points[4].probability);
        let availability = record.steady_state_availability.expect("repairable cell");
        assert!(availability > 0.9 && availability < 1.0);
        let minutes = record
            .unavailability_minutes_per_year
            .expect("repairable cell");
        assert!((minutes - (1.0 - availability) * 8766.0 * 60.0).abs() < 1e-6);
        assert!(record.mean_time_to_threshold_hours.unwrap() > 0.0);
    }

    /// `n` nodes on a wear-out Weibull curve, each 10 000 hours old.
    fn wearout_fleet(n: usize) -> Fleet {
        use fault_model::node::NodeSpec;
        (0..n)
            .map(|i| {
                NodeSpec::with_constant_crash(i, 0.0, HOURS_PER_YEAR)
                    .with_crash_curve(Arc::new(fault_model::curve::WeibullCurve::new(
                        3.0, 70_000.0,
                    )))
                    .with_age(10_000.0)
            })
            .collect()
    }

    /// The trajectory of majority Raft on `fleet` along `axis`, as one query.
    fn raft_fleet_trajectory(fleet: Fleet, axis: TimeAxis) -> TrajectoryRecord {
        let model: Arc<dyn ProtocolModel + Send + Sync> =
            Arc::new(RaftModel::standard(fleet.len()));
        let report = AnalysisSession::new()
            .run(
                &Query::new()
                    .time_horizon(axis)
                    .trajectory_cell("fleet", model, fleet),
            )
            .expect("well-formed query");
        report.trajectory(0).clone()
    }

    #[test]
    fn fleet_trajectory_cell_matches_the_timevarying_helpers() {
        let fleet = wearout_fleet(5);
        let axis = TimeAxis::new(4.0 * HOURS_PER_YEAR, HOURS_PER_YEAR)
            .with_window(HOURS_PER_YEAR / 4.0)
            .with_target_nines(3.0);
        let record = raft_fleet_trajectory(fleet.clone(), axis);
        assert_eq!(record.kind, TrajectoryKind::Fleet);
        // Reference: age the fleet by hand, one counting run per yearly window.
        let reference: Vec<TrajectoryPoint> = (0..=4)
            .map(|i| {
                let t = i as f64 * HOURS_PER_YEAR;
                let profiles = fleet
                    .iter()
                    .map(|node| {
                        let mut aged = node.clone();
                        aged.age_hours += t;
                        aged.profile(HOURS_PER_YEAR / 4.0)
                    })
                    .collect();
                let report = EngineChoice::Counting
                    .run(
                        &RaftModel::standard(5),
                        &CorrelationModel::independent(profiles),
                        &Budget::default(),
                        &GroupScratch::default(),
                    )
                    .report;
                TrajectoryPoint {
                    at_hours: t,
                    probability: report.safe_and_live.probability(),
                }
            })
            .collect();
        assert_eq!(record.points, reference);
        let worst = reference
            .iter()
            .map(|p| p.probability)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(record.worst_probability, worst);
        let first_below = reference
            .iter()
            .find(|p| !Nines::from_probability(p.probability).meets(3.0))
            .map(|p| p.at_hours);
        assert_eq!(record.first_below_target_hours, first_below);
        assert!(record.steady_state_availability.is_none());
    }

    #[test]
    fn wearout_degrades_the_guarantee_over_time() {
        let record = raft_fleet_trajectory(
            wearout_fleet(5),
            TimeAxis::new(6.0 * HOURS_PER_YEAR, HOURS_PER_YEAR).with_window(HOURS_PER_YEAR / 4.0),
        );
        assert_eq!(record.points.len(), 7);
        let first = record.points[0].probability;
        let last = record.points[6].probability;
        assert!(last < first, "guarantee should degrade: {first} -> {last}");
        assert_eq!(record.worst_probability, last);
        assert_eq!(record.worst_at_hours, 6.0 * HOURS_PER_YEAR);
    }

    #[test]
    fn first_time_below_target_detects_the_dip() {
        // A 3-node cluster on aging hardware eventually drops below four nines.
        let record = raft_fleet_trajectory(
            wearout_fleet(3),
            TimeAxis::new(8.0 * HOURS_PER_YEAR, HOURS_PER_YEAR / 2.0)
                .with_window(HOURS_PER_YEAR)
                .with_target_nines(4.0),
        );
        assert!(record.first_below_target_hours.is_some());
    }

    #[test]
    fn rollout_windows_show_as_transient_dips() {
        use fault_model::curve::StepCurve;
        use fault_model::node::NodeSpec;
        // Nodes with a baseline hazard plus a correlated rollout spike 1000h from now.
        let fleet: Fleet = (0..3)
            .map(|i| {
                NodeSpec::with_constant_crash(i, 0.0, HOURS_PER_YEAR).with_crash_curve(Arc::new(
                    StepCurve::new(1e-6).with_spike(1_000.0, 1_200.0, 5e-4),
                ))
            })
            .collect();
        let record = raft_fleet_trajectory(fleet, TimeAxis::new(2_000.0, 200.0));
        let worst_where = |keep: &dyn Fn(f64) -> bool| {
            record
                .points
                .iter()
                .filter(|p| keep(p.at_hours))
                .map(|p| p.probability)
                .fold(1.0, f64::min)
        };
        let during = worst_where(&|t| (1_000.0..1_200.0).contains(&t));
        let before = worst_where(&|t| t < 1_000.0);
        assert!(
            during < before,
            "the rollout window dips: {during} vs {before}"
        );
        assert_eq!(record.worst_at_hours, 1_000.0);
    }

    #[test]
    fn stable_fleets_hold_their_target() {
        let record = raft_fleet_trajectory(
            Fleet::homogeneous_crash(5, 0.01),
            TimeAxis::new(2.0 * HOURS_PER_YEAR, HOURS_PER_YEAR / 2.0)
                .with_window(HOURS_PER_YEAR)
                .with_target_nines(4.0),
        );
        assert_eq!(record.points.len(), 5);
        assert_eq!(record.first_below_target_hours, None);
    }

    #[test]
    fn trajectory_starting_below_target_dips_at_the_first_sample_time() {
        // Boundary regression: a fleet that is *already* below target must report
        // the first sample time (t = 0), not None — None means "target held".
        let axis = TimeAxis::new(2.0 * HOURS_PER_YEAR, HOURS_PER_YEAR).with_window(HOURS_PER_YEAR);
        let below = raft_fleet_trajectory(
            Fleet::homogeneous_crash(3, 0.2),
            axis.with_target_nines(3.0),
        );
        let p0 = below.points[0].probability;
        assert!(p0 < 0.999, "the fixture must start below three nines: {p0}");
        assert_eq!(below.first_below_target_hours, Some(0.0));
        // The same fleet against an already-met target keeps the None = held
        // reading.
        let held = raft_fleet_trajectory(
            Fleet::homogeneous_crash(3, 0.2),
            axis.with_target_nines(0.5),
        );
        assert_eq!(held.first_below_target_hours, None);
    }

    #[test]
    fn trajectory_records_render_to_table_and_json() {
        let session = AnalysisSession::new();
        let report = session
            .run(
                &Query::new()
                    .time_horizon(TimeAxis::new(20_000.0, 10_000.0))
                    .repairable_cell("r1", RepairableGroup::new(3, 1e-3, 1e-2, 1)),
            )
            .expect("well-formed query");
        let table = report.to_trajectory_table("time domain");
        assert_eq!(table.num_rows(), 1);
        assert_eq!(table.rows()[0][0], "r1");
        assert_eq!(table.rows()[0][1], "repairable");
        assert_eq!(table.rows()[0][2], "3");
        let parsed = JsonValue::parse(&report.to_json()).expect("valid JSON");
        let trajectories = parsed.get("trajectories").unwrap().as_array().unwrap();
        assert_eq!(trajectories.len(), 1);
        let record = &trajectories[0];
        assert_eq!(
            record.get("kind").and_then(JsonValue::as_str),
            Some("repairable")
        );
        let points = record.get("points").unwrap().as_array().unwrap();
        assert_eq!(points.len(), 3);
        // Probabilities round-trip bit-exactly through the JSON text.
        let p0 = points[0]
            .get("probability")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert_eq!(
            p0.to_bits(),
            report.trajectory(0).points[0].probability.to_bits()
        );
        // No target was set: the target fields serialize as null.
        assert!(record.get("target_nines").unwrap().is_null());
        assert!(record.get("first_below_target_hours").unwrap().is_null());
    }

    #[test]
    fn malformed_trajectory_cells_fail_at_plan_time() {
        use fault_model::node::Fleet;
        let session = AnalysisSession::new();
        // Placement-sensitive models have no counting view: rejected.
        let durability: Arc<dyn ProtocolModel + Send + Sync> =
            Arc::new(PersistenceQuorumModel::new(5, vec![0, 1]));
        let query = Query::new().trajectory_cell(
            "not-counting",
            durability,
            Fleet::homogeneous_crash(5, 0.01),
        );
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::TrajectoryNotCounting
        );
        // Model/fleet size mismatch.
        let raft: Arc<dyn ProtocolModel + Send + Sync> = Arc::new(RaftModel::standard(3));
        let query = Query::new().trajectory_cell(
            "mismatch",
            raft.clone(),
            Fleet::homogeneous_crash(5, 0.01),
        );
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::SizeMismatch {
                model_nodes: 3,
                scenario_nodes: 5
            }
        );
        // An empty fleet.
        let query = Query::new().trajectory_cell("empty", raft, Fleet::new());
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::EmptyScenario
        );
    }

    #[test]
    fn validation_mode_pairs_executable_cells_with_simulation() {
        let session = AnalysisSession::new();
        let model: Arc<dyn ProtocolModel + Send + Sync> =
            Arc::new(PersistenceQuorumModel::new(24, (0..4).collect()));
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([3usize])
            .fault_probs([0.2])
            .cell(
                "abstract",
                model,
                CorrelationModel::uniform(24, FaultProfile::crash_only(0.05)),
            )
            .budget(
                Budget::default()
                    .with_samples(20_000)
                    .with_seed(5)
                    .with_sim_trials(40),
            )
            .validate_with_simulation();
        let report = session.run(&query).expect("well-formed query");
        // The Raft grid cell is executable: it carries a validation record whose
        // empirical rate tracks the analytic prediction.
        let validated = report.cell(0).validation.expect("raft cell validated");
        assert_eq!(validated.simulation.trials, 40);
        assert!(
            validated.agrees_within(4.0),
            "analytic {} vs empirical {} (z = {:.2})",
            validated.analytic,
            validated.simulation.safe_and_live.value,
            validated.z_score
        );
        assert_eq!(
            validated.analytic,
            report.cell(0).outcome.report.safe_and_live.probability()
        );
        // The placement-sensitive cell has no executable counterpart: no pairing.
        assert!(report.cell(1).validation.is_none());
        // Rendering: the validation columns appear, with "-" for unpaired cells.
        let table = report.to_table("validated");
        // cell, engine, safe, live, safe&live, CI, ESS, wall, sim s&l, z, divergence.
        assert_eq!(table.rows()[0].len(), 11);
        assert_ne!(table.rows()[0][8], "-");
        assert_eq!(table.rows()[1][8], "-");
        assert_eq!(table.rows()[1][10], "-");
        // JSON: validation object on the paired cell, null on the other.
        let parsed = JsonValue::parse(&report.to_json()).expect("valid JSON");
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        let v = cells[0].get("validation").unwrap();
        assert!(v.get("z_score").unwrap().as_f64().is_some());
        assert_eq!(v.get("trials").and_then(JsonValue::as_f64), Some(40.0));
        assert!(cells[1].get("validation").unwrap().is_null());
    }

    #[test]
    fn validation_is_deterministic_across_runs_and_thread_counts() {
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([3usize])
            .fault_probs([0.15])
            .budget(Budget::default().with_seed(9).with_sim_trials(24))
            .validate_with_simulation();
        let reference = AnalysisSession::with_threads(1)
            .run(&query)
            .expect("well-formed query");
        for threads in [2usize, 8] {
            let report = AnalysisSession::with_threads(threads)
                .run(&query)
                .expect("well-formed query");
            assert_eq!(
                report.cell(0).validation,
                reference.cell(0).validation,
                "validation diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn gray_primary_environment_cells_are_flagged_as_divergent() {
        use crate::engine::FaultEnvironment;
        // The acceptance cell of the fault-environment axis: the analytic
        // engines see a near-perfect crash-only deployment, while the executable
        // cluster's pinned leader goes gray and liveness collapses. The gap must
        // surface as a first-class divergence finding — helper, table and JSON —
        // not stay buried in a raw z column.
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.01])
            .fault_environments([FaultEnvironment::Clean, FaultEnvironment::GrayPrimary])
            .budget(Budget::default().with_seed(13).with_sim_trials(32))
            .validate_with_simulation();
        assert_eq!(query.cell_count(), 2);
        let report = AnalysisSession::new()
            .run(&query)
            .expect("well-formed query");
        // The clean cell agrees: both sides see the same crash-only world.
        let clean_cell = report.cell(0);
        assert_eq!(clean_cell.environment, FaultEnvironment::Clean);
        let clean = clean_cell.validation.expect("clean cell validated");
        assert!(
            clean.divergence.is_none(),
            "clean cell must agree, got z = {:.2}",
            clean.z_score
        );
        // The gray cell diverges in the dangerous direction.
        let gray_cell = report.cell(1);
        assert_eq!(gray_cell.environment, FaultEnvironment::GrayPrimary);
        assert!(
            gray_cell.label.ends_with("/env=gray-primary"),
            "environment cells are labelled: {}",
            gray_cell.label
        );
        let gray = gray_cell.validation.expect("gray cell validated");
        assert_eq!(gray.environment, FaultEnvironment::GrayPrimary);
        assert!(gray.simulation.total_gray_events > 0);
        let finding = gray.divergence.expect("a gray primary must diverge");
        assert_eq!(finding.direction, DivergenceDirection::EmpiricalBelow);
        assert!(
            finding.magnitude > 0.5,
            "the liveness collapse is large: {}",
            finding.magnitude
        );
        assert!(gray.z_score < -DIVERGENCE_Z);
        // Analytic columns repeat across the environment axis (env-blind).
        assert_eq!(
            clean_cell.outcome.report.safe_and_live.probability(),
            gray_cell.outcome.report.safe_and_live.probability()
        );
        // First-class surfacing: the helper, the table column, the JSON object.
        let divergent = report.divergent_cells();
        assert_eq!(divergent.len(), 1);
        assert!(std::ptr::eq(divergent[0], gray_cell));
        let table = report.to_table("environment sweep");
        assert_eq!(table.rows()[0][10], "ok");
        assert!(
            table.rows()[1][10].contains("below"),
            "{}",
            table.rows()[1][10]
        );
        let parsed = JsonValue::parse(&report.to_json()).expect("valid JSON");
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        assert_eq!(
            cells[1].get("environment").and_then(JsonValue::as_str),
            Some("gray-primary")
        );
        assert!(cells[0]
            .get("validation")
            .unwrap()
            .get("divergence")
            .unwrap()
            .is_null());
        let d = cells[1]
            .get("validation")
            .unwrap()
            .get("divergence")
            .unwrap();
        assert_eq!(
            d.get("direction").and_then(JsonValue::as_str),
            Some("below")
        );
        assert_eq!(
            d.get("magnitude").and_then(JsonValue::as_f64),
            Some(finding.magnitude)
        );
    }

    #[test]
    fn environment_cells_are_bit_identical_across_thread_counts() {
        use crate::engine::FaultEnvironment;
        // The determinism contract survives the adversarial environments: the
        // per-trial schedules derive from the salted chunk seed, never from
        // worker identity, so a gray-primary or partition-heal sweep serializes
        // byte-identically at any thread count.
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.05])
            .fault_environments([
                FaultEnvironment::GrayPrimary,
                FaultEnvironment::PartitionHeal,
            ])
            .budget(Budget::default().with_seed(29).with_sim_trials(16))
            .validate_with_simulation();
        let reference = AnalysisSession::with_threads(1)
            .run(&query)
            .expect("well-formed query")
            .zero_wall_clock()
            .to_json();
        for threads in [2usize, 8] {
            let report = AnalysisSession::with_threads(threads)
                .run(&query)
                .expect("well-formed query")
                .zero_wall_clock()
                .to_json();
            assert_eq!(
                report, reference,
                "environment sweep diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn posterior_sweeps_are_bit_identical_across_thread_counts() {
        // Draw items retire on arbitrary workers; the merge serializes them in
        // draw order, so a second-order sweep (chunked Monte Carlo base + whole
        // draw re-runs) must serialize byte-identically at any thread count.
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.05])
            .correlations([CorrelationSpec::ClusterShock { probability: 0.02 }])
            .budget(Budget::default().with_seed(41).with_samples(20_000))
            .posterior(16, 3.5, 60.0);
        let reference = AnalysisSession::with_threads(1)
            .run(&query)
            .expect("well-formed query");
        assert!(
            reference.cell(0).epistemic.is_some(),
            "the sweep must actually be second-order"
        );
        let reference = reference.zero_wall_clock().to_json();
        for threads in [2usize, 8] {
            let report = AnalysisSession::with_threads(threads)
                .run(&query)
                .expect("well-formed query")
                .zero_wall_clock()
                .to_json();
            assert_eq!(
                report, reference,
                "posterior sweep diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn single_draw_posterior_degenerates_to_the_point_estimate_report() {
        // K = 1 carries no spread to summarize: the planner must emit the exact
        // first-order report, bit for bit — including the absence of the
        // `epistemic` JSON member.
        let base = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.05])
            .correlations([CorrelationSpec::ClusterShock { probability: 0.02 }])
            .budget(Budget::default().with_seed(7).with_samples(10_000));
        let first_order = AnalysisSession::new()
            .run(&base)
            .expect("well-formed query")
            .zero_wall_clock()
            .to_json();
        let single_draw = AnalysisSession::new()
            .run(&base.clone().posterior(1, 3.5, 60.0))
            .expect("well-formed query")
            .zero_wall_clock()
            .to_json();
        assert_eq!(single_draw, first_order);
        assert!(!single_draw.contains("\"epistemic\""));
    }

    #[test]
    fn posterior_draws_never_alias_first_order_scratch() {
        // Regression: draw scratch holds kernels compiled for *scaled*
        // scenarios. If a draw's cache key collided with the base cell's, a
        // later first-order run would reuse a scaled kernel and silently shift
        // its estimates. Run second-order first, then first-order on the same
        // coordinate, and demand the fresh-session first-order result.
        let build = |draws: usize| {
            let query = Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([5usize])
                .fault_probs([0.05])
                .correlations([CorrelationSpec::ClusterShock { probability: 0.02 }])
                .budget(Budget::default().with_seed(9).with_samples(5_000));
            if draws > 0 {
                query.posterior(draws, 3.5, 60.0)
            } else {
                query
            }
        };
        let expected = AnalysisSession::new().run(&build(0)).expect("valid query");
        let session = AnalysisSession::new();
        session.run(&build(8)).expect("valid query");
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 9, "one base entry plus one entry per draw");
        let first_order = session.run(&build(0)).expect("valid query");
        assert_eq!(
            first_order.cell(0).outcome,
            expected.cell(0).outcome,
            "first-order cell must not see second-order scratch"
        );
        assert_eq!(
            session.cache_stats().entries,
            9,
            "the first-order run must hit the base entry, not re-insert"
        );
    }

    #[test]
    fn posterior_cells_report_both_interval_flavors() {
        // An exact counting cell: the aleatoric interval collapses to the point
        // value while the epistemic interval stays wide — the two axes measure
        // different uncertainty and must never be conflated.
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([5usize])
            .fault_probs([0.05])
            .budget(Budget::default().with_seed(3))
            .posterior(64, 3.5, 60.0);
        let report = session.run(&query).expect("valid query");
        let cell = report.cell(0);
        assert_eq!(cell.engine, EngineChoice::Counting);
        let e = cell.epistemic.as_ref().expect("second-order cell");
        assert_eq!(e.draws.len(), 64);
        assert!(
            e.epistemic_width() > 0.0,
            "posterior spread must produce a non-degenerate epistemic interval"
        );
        assert_eq!(
            e.aleatoric_width(),
            0.0,
            "exact engines carry no sampling error"
        );
        assert!(e.epistemic_lower <= e.mean && e.mean <= e.epistemic_upper);
        // The engines must actually respond to the drawn parameter: a larger
        // drawn fault probability can only lower the guarantee.
        let mut by_p: Vec<_> = e.draws.iter().map(|d| (d.p, d.value)).collect();
        by_p.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in by_p.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 1e-12,
                "reliability must fall as the drawn fault probability rises"
            );
        }
        assert!(report.to_json().contains("\"epistemic\""));
        let table = report.to_table("posterior").to_string();
        assert!(table.contains("epistemic CI"));
        assert!(table.contains("aleatoric CI"));
    }

    #[test]
    fn invalid_posterior_budgets_are_rejected_at_plan_time() {
        use crate::engine::EpistemicBudget;
        // The builders are assert-free so wire requests reach `validate()`
        // instead of panicking a server worker; every malformed shape must be
        // rejected at plan time with a diagnosable message.
        let session = AnalysisSession::new();
        let cases = [
            (Budget::default().with_posterior(0, 3.5, 60.0), "draws"),
            (
                Budget::default().with_posterior(8, -1.0, 60.0),
                "hyperparameters",
            ),
            (
                Budget::default().with_posterior(8, 3.5, f64::NAN),
                "hyperparameters",
            ),
            (
                Budget::default()
                    .with_epistemic(EpistemicBudget::new(8, 3.5, 60.0).with_level(1.0)),
                "level",
            ),
        ];
        for (budget, needle) in cases {
            let query = Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([3usize])
                .fault_probs([0.01])
                .budget(budget);
            let err = session.plan(&query).expect_err("invalid epistemic budget");
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn heterogeneous_explicit_cell_matches_front_door() {
        let profiles: Vec<FaultProfile> = (0..7)
            .map(|i| FaultProfile::crash_only(0.01 * (i + 1) as f64))
            .collect();
        let scenario = CorrelationModel::independent(profiles);
        let model: Arc<dyn ProtocolModel + Send + Sync> = Arc::new(RaftModel::standard(7));
        let session = AnalysisSession::new();
        let report = session
            .run(&Query::new().cell("hetero", model.clone(), scenario.clone()))
            .expect("valid query");
        let expected =
            analyze_auto(model.as_ref(), &scenario, &Budget::default()).expect("well-formed");
        assert_eq!(report.cell(0).outcome, expected);
    }
}
