//! What the session runs: the planner (engine selection, shared scratch, posterior
//! draws) and the work-stealing scheduler that executes a plan and streams records.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fault_model::correlation::CorrelationModel;
use fault_model::markov::RepairableGroup;
use fault_model::metrics::Nines;

use super::{
    AnalysisReport, CellRecord, Divergence, DivergenceDirection, Metrics, Query, TimeAxis,
    TrajectoryKind, TrajectoryPoint, TrajectoryRecord, TrajectorySpec, ValidationRecord,
    DIVERGENCE_Z, MAX_AXIS_LEN, MAX_CELLS, MAX_NODES,
};
use crate::analyzer::AnalysisError;
use crate::cache::{CacheKey, CacheStats, SessionCache};
use crate::engine::{select_engine, AnalysisOutcome, Budget, EngineChoice, FaultEnvironment};
use crate::epistemic::{EpistemicDraw, EpistemicReport};
use crate::montecarlo::{
    chunk_count, chunk_len, packed_view, DrawKey, HitCounts, McKernel, McSampler, Z_95,
};
use crate::protocol::ProtocolModel;
use crate::scratch::GroupScratch;

/// The session-cache key of a (model, scenario) pair — grid cell, explicit cell,
/// optimizer candidate or posterior draw alike: the model's
/// [`cache_signature`](ProtocolModel::cache_signature) (length-prefixed) followed
/// by the scenario's full content — every profile's probability bits plus every
/// correlation group's members, shock-probability bits and shock mode. `None`
/// when the model has no stable signature, in which case the cell gets
/// plan-local scratch (always correct, never amortized).
///
/// Profiles are written as maximal runs of equal nodes and members as maximal
/// runs of consecutive indices, each run with its length, so a grid cell's key
/// stays a few words however many nodes it has. Every list is length-prefixed,
/// so the words still decode to exactly one content.
fn content_key_words(model: &dyn ProtocolModel, scenario: &CorrelationModel) -> Option<Vec<u64>> {
    let sig = model.cache_signature()?;
    let mut words = Vec::with_capacity(8 + sig.len());
    words.push(sig.len() as u64);
    words.extend(sig);
    let profiles = scenario.profiles();
    words.push(profiles.len() as u64);
    let bits = |p: &fault_model::mode::FaultProfile| {
        [
            p.crash_probability().to_bits(),
            p.byzantine_probability().to_bits(),
        ]
    };
    for run in profiles.chunk_by(|a, b| bits(a) == bits(b)) {
        words.push(run.len() as u64);
        words.extend(bits(&run[0]));
    }
    // An independent cell writes zero groups here.
    let groups = scenario.groups();
    words.push(groups.len() as u64);
    for group in groups {
        words.push(group.members.len() as u64);
        for run in group.members.chunk_by(|&a, &b| b == a + 1) {
            words.push(run[0] as u64);
            words.push(run.len() as u64);
        }
        words.push(group.shock_probability.to_bits());
        words.push(match group.shock_mode {
            fault_model::mode::NodeState::Correct => 0,
            fault_model::mode::NodeState::Crashed => 1,
            fault_model::mode::NodeState::Byzantine => 2,
        });
    }
    Some(words)
}

/// `scenario` with every fault profile rescaled by `factor` — the per-draw
/// transform of the epistemic mode. Crash/Byzantine structure and the `[0, 1]`
/// clamps come from [`FaultProfile::scaled`]; the shock groups are copied
/// untouched (the posterior models per-node telemetry, not common-cause shocks).
fn scaled(scenario: &CorrelationModel, factor: f64) -> CorrelationModel {
    let profiles = scenario
        .profiles()
        .iter()
        .map(|p| p.scaled(factor))
        .collect();
    let mut model = CorrelationModel::independent(profiles);
    for group in scenario.groups() {
        model = model.with_group(group.clone());
    }
    model
}

/// The sweep-native analysis front door: owns the pool pinning and the reusable
/// per-(model, scenario) scratch that [`QueryPlan`]s share. See the module docs.
///
/// # Examples
///
/// ```
/// use prob_consensus::engine::EngineChoice;
/// use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query};
///
/// let session = AnalysisSession::new();
/// let query = Query::new()
///     .protocols([ProtocolSpec::Raft])
///     .nodes([3usize])
///     .fault_probs([0.01]);
/// // Plan and execute separately (or use `session.run` to do both at once).
/// let plan = session.plan(&query).expect("well-formed query");
/// assert_eq!(plan.engine(0), EngineChoice::Counting);
/// let report = plan.execute();
/// assert_eq!(
///     report.cell(0).outcome.report.safe_and_live.as_percent(),
///     "99.97%"
/// );
/// ```
pub struct AnalysisSession {
    cache: SessionCache,
    pool: Option<Arc<rayon::ThreadPool>>,
}

impl Default for AnalysisSession {
    fn default() -> Self {
        Self {
            cache: SessionCache::new(Self::CACHE_CAPACITY),
            pool: None,
        }
    }
}

impl AnalysisSession {
    /// Bound on cached (model, scenario) scratch groups — a few thousand
    /// compiled kernels and counting results. Scratch is a pure
    /// cache: eviction never changes results, only costs recomputation, and
    /// plans in flight keep their own `Arc`s, so eviction cannot invalidate a
    /// planned query.
    pub const CACHE_CAPACITY: usize = 4_096;

    /// A session executing on the process-wide persistent rayon pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A session whose plans and executions run with a pinned thread count
    /// (primarily for determinism tests; the default pool is usually right).
    ///
    /// # Panics
    ///
    /// Panics if the pool cannot be built.
    pub fn with_threads(threads: usize) -> Self {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        Self {
            pool: Some(Arc::new(pool)),
            ..Self::default()
        }
    }

    /// A snapshot of the scratch-cache counters (hits, misses, evictions,
    /// resident entries) — the observability surface behind the server
    /// protocol's `stats` request.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The scratch of `model` on `scenario`: the session cache's entry under
    /// the pair's content key, or plan-local scratch for a model without a
    /// cache signature.
    fn scratch(&self, model: &dyn ProtocolModel, scenario: &CorrelationModel) -> Arc<GroupScratch> {
        match content_key_words(model, scenario) {
            Some(words) => self.cache.get_or_insert(CacheKey::from_words(words)),
            None => Arc::new(GroupScratch::default()),
        }
    }

    /// What every cell of `model` on `scenario` shares: its scratch and the
    /// budget's posterior draws, each draw with its scaled scenario and that
    /// scenario's own scratch. A draw's kernels are compiled for the *scaled*
    /// scenario, and its content key says so, so a draw never aliases the
    /// first-order cell (pinned by the cache-aliasing regression test below).
    ///
    /// There are no draws for first-order budgets and for single-draw budgets:
    /// one draw carries no spread to summarize, so `K = 1` degenerates to the
    /// point-estimate report bit for bit.
    fn group<'a>(
        &self,
        model: &'a Arc<dyn ProtocolModel + Send + Sync>,
        scenario: &'a Arc<CorrelationModel>,
        budget: &Budget,
    ) -> CellGroup<'a> {
        let scratch = self.scratch(model.as_ref(), scenario);
        let draws = match budget.epistemic.filter(|ep| ep.draws > 1) {
            Some(ep) => crate::epistemic::posterior_draws(&ep, budget.seed)
                .into_iter()
                .map(|draw| {
                    let scenario = scaled(scenario, draw.scale);
                    PlannedDraw {
                        p: draw.p,
                        scale: draw.scale,
                        scratch: self.scratch(model.as_ref(), &scenario),
                        scenario,
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        CellGroup {
            model,
            scenario,
            scratch,
            draws: Arc::new(draws),
        }
    }

    /// Plans a query: validates the budget, expands the axes into cells, selects
    /// the engine for every cell up front (running each group's selector pilot at
    /// most once), and groups cells by (model, scenario) signature so kernel
    /// compilation and proposal learning amortize across the sweep.
    pub fn plan(&self, query: &Query) -> Result<QueryPlan, AnalysisError> {
        query
            .budget
            .validate()
            .map_err(AnalysisError::InvalidBudget)?;
        // Per-cell budget overrides (optimizer candidates) are validated like
        // the base budget: a malformed override fails the whole plan up front.
        for explicit in &query.explicit {
            if let Some(budget) = &explicit.budget {
                budget.validate().map_err(AnalysisError::InvalidBudget)?;
            }
        }
        // Sizes before anything is built: a failed allocation aborts the
        // process, which no caller can catch.
        let over = |what, value, limit| {
            if value > limit {
                Err(AnalysisError::OverLimit { what, value, limit })
            } else {
                Ok(())
            }
        };
        for (axis, len) in query.axis_lengths() {
            over(axis, len, MAX_AXIS_LEN)?;
        }
        for &n in &query.nodes {
            over("nodes", n, MAX_NODES)?;
        }
        for spec in &query.trajectories {
            if let TrajectorySpec::Repairable { group, .. } = spec {
                over("repairable n", group.group_size(), MAX_NODES)?;
            }
        }
        let draws = query.budget.epistemic.map_or(1, |ep| ep.draws);
        over(
            "cells (posterior draws included)",
            query.cell_count().saturating_mul(draws),
            MAX_CELLS,
        )?;
        for &samples in &query.sample_budgets {
            query
                .budget
                .with_samples(samples)
                .validate()
                .map_err(AnalysisError::InvalidBudget)?;
        }
        let sample_axis: Vec<usize> = if query.sample_budgets.is_empty() {
            vec![query.budget.monte_carlo_samples]
        } else {
            query.sample_budgets.clone()
        };
        let environment_axis: Vec<FaultEnvironment> = if query.environments.is_empty() {
            vec![query.budget.sim.environment]
        } else {
            query.environments.clone()
        };
        // The one place a cell is built, grid replicate or explicit cell. A
        // validated cell runs its paired simulation only if the simulation
        // engine supports it: the model has an executable counterpart of the
        // scenario's size.
        let planned_cell = |group: &CellGroup<'_>,
                            budget: Budget,
                            label: String,
                            protocol: String,
                            fault_prob: Option<f64>,
                            correlation: String| {
            let (model, scenario) = (group.model.as_ref(), group.scenario.as_ref());
            PlannedCell {
                label,
                protocol,
                nodes: model.num_nodes(),
                fault_prob,
                correlation,
                environment: budget.sim.environment,
                validate: query.validation
                    && EngineChoice::Simulation.supports(
                        model,
                        scenario,
                        &query.budget,
                        &group.scratch,
                    ),
                engine: select_engine(model, scenario, &budget, &group.scratch),
                model: group.model.clone(),
                scenario: group.scenario.clone(),
                budget,
                scratch: group.scratch.clone(),
                draws: group.draws.clone(),
            }
        };
        let plan_cells = || -> Result<Vec<PlannedCell>, AnalysisError> {
            let mut cells = Vec::with_capacity(query.cell_count());
            for &spec in &query.protocols {
                for &n in &query.nodes {
                    if n == 0 {
                        return Err(AnalysisError::EmptyScenario);
                    }
                    // One model per (spec, n) for the whole plan: scalar-kernel
                    // draw keys compare models by identity, so the replicates
                    // below share chunks only through one model.
                    let model = spec.build(n);
                    for &p in &query.fault_probs {
                        let profiles = query.fault_axis.profiles(n, p);
                        for corr in &query.correlations {
                            let scenario = Arc::new(corr.apply(profiles.clone()));
                            // The scratch and the epistemic draws of this
                            // coordinate, shared by its samples/environment
                            // replicates: the draw set depends only on
                            // (hyperparameters, seed), and the scaled scenarios
                            // only on this scenario.
                            let group = self.group(&model, &scenario, &query.budget);
                            for &samples in &sample_axis {
                                // The environment axis nests innermost: it only
                                // varies the paired simulation, so cells across
                                // it share the analytic engine choice and the
                                // group scratch (the analytic side is
                                // environment-blind by construction).
                                for &environment in &environment_axis {
                                    let budget = query
                                        .budget
                                        .with_samples(samples)
                                        .with_fault_environment(environment);
                                    let mut label =
                                        format!("{}/N={n}/p={p}/{}", spec.label(), corr.label());
                                    if environment != FaultEnvironment::Clean {
                                        label.push_str("/env=");
                                        label.push_str(environment.label());
                                    }
                                    cells.push(planned_cell(
                                        &group,
                                        budget,
                                        label,
                                        spec.label(),
                                        Some(p),
                                        corr.label(),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            for explicit in &query.explicit {
                let scenario = &explicit.scenario;
                if scenario.is_empty() {
                    return Err(AnalysisError::EmptyScenario);
                }
                if explicit.model.num_nodes() != scenario.len() {
                    return Err(AnalysisError::SizeMismatch {
                        model_nodes: explicit.model.num_nodes(),
                        scenario_nodes: scenario.len(),
                    });
                }
                // Explicit cells keep the base budget's environment — the axis
                // sweeps the grid; a bespoke cell pins its own budget.
                let budget = explicit.budget.unwrap_or(query.budget);
                let group = self.group(&explicit.model, &explicit.scenario, &budget);
                let correlation = if scenario.is_correlated() {
                    "correlated"
                } else {
                    "independent"
                };
                cells.push(planned_cell(
                    &group,
                    budget,
                    explicit.label.clone(),
                    explicit.model.name(),
                    None,
                    correlation.to_string(),
                ));
            }
            Ok(cells)
        };
        // Validate the time axis and the time-domain cells up front, like every
        // other cell shape (the axis fields are public, so a struct-literal axis
        // can bypass the constructor asserts).
        let time_axis = query.time_axis.unwrap_or_default();
        time_axis.validate()?;
        for spec in &query.trajectories {
            if let TrajectorySpec::Fleet { model, fleet, .. } = spec {
                if model.as_counting().is_none() {
                    return Err(AnalysisError::TrajectoryNotCounting);
                }
                if fleet.is_empty() {
                    return Err(AnalysisError::EmptyScenario);
                }
                if model.num_nodes() != fleet.len() {
                    return Err(AnalysisError::SizeMismatch {
                        model_nodes: model.num_nodes(),
                        scenario_nodes: fleet.len(),
                    });
                }
            }
        }
        let cells = match &self.pool {
            Some(pool) => pool.install(plan_cells)?,
            None => plan_cells()?,
        };
        Ok(QueryPlan {
            cells,
            trajectories: query.trajectories.clone(),
            time_axis,
            metrics: query.metrics,
            pool: self.pool.clone(),
        })
    }

    /// Plans and executes in one call.
    pub fn run(&self, query: &Query) -> Result<AnalysisReport, AnalysisError> {
        Ok(self.plan(query)?.execute())
    }
}

/// The (model, scenario) pair of a grid coordinate or an explicit cell, with
/// what all its cells share; see [`AnalysisSession::group`].
struct CellGroup<'a> {
    model: &'a Arc<dyn ProtocolModel + Send + Sync>,
    scenario: &'a Arc<CorrelationModel>,
    scratch: Arc<GroupScratch>,
    draws: Arc<Vec<PlannedDraw>>,
}

/// One planned cell: the resolved model/scenario/budget triple, the engine the
/// selector chose for it, and the shared group scratch.
struct PlannedCell {
    label: String,
    protocol: String,
    nodes: usize,
    fault_prob: Option<f64>,
    correlation: String,
    environment: FaultEnvironment,
    model: Arc<dyn ProtocolModel + Send + Sync>,
    scenario: Arc<CorrelationModel>,
    budget: Budget,
    engine: EngineChoice,
    scratch: Arc<GroupScratch>,
    /// The second-order posterior draws of this cell (empty for first-order
    /// budgets), shared across the samples/environment replicates of one grid
    /// coordinate.
    draws: Arc<Vec<PlannedDraw>>,
    /// Whether cross-validation was requested and this cell's model has an
    /// executable counterpart (the trial count lives in the budget's `SimBudget`).
    validate: bool,
}

/// One planned posterior draw: the sampled reliability parameter, the scale
/// factor it implies relative to the posterior mean, the scaled scenario the
/// engines actually run, and the draw's own cached scratch group (scaled
/// scenarios compile their own kernels).
struct PlannedDraw {
    p: f64,
    scale: f64,
    scenario: CorrelationModel,
    scratch: Arc<GroupScratch>,
}

/// A planned query: every cell's engine is already selected and every group's
/// shared setup is ready to be (lazily) compiled once. [`QueryPlan::execute`] may
/// be called repeatedly; results are deterministic per the module-level contract.
pub struct QueryPlan {
    cells: Vec<PlannedCell>,
    trajectories: Vec<TrajectorySpec>,
    time_axis: TimeAxis,
    metrics: Metrics,
    pool: Option<Arc<rayon::ThreadPool>>,
}

impl std::fmt::Debug for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlan")
            .field("cells", &self.cells.len())
            .field("engines", &self.engines())
            .finish_non_exhaustive()
    }
}

/// Runs the paired simulation of a validated cell and standardizes the
/// disagreement. The standard error is taken from the empirical Wilson interval
/// (never zero for a finite trial count), so the z-score is always finite.
fn validation_record(
    model: &dyn ProtocolModel,
    scenario: &CorrelationModel,
    budget: &Budget,
    analytic: f64,
) -> ValidationRecord {
    let simulation = crate::simulation::simulate_reliability(model, scenario, budget);
    let empirical = simulation.safe_and_live.value;
    let se = simulation.safe_and_live.half_width() / Z_95;
    let z_score = if se > 0.0 {
        (empirical - analytic) / se
    } else {
        0.0
    };
    // A divergence past the z-threshold is promoted to a structured finding:
    // direction (is the analytic guarantee overpromising or conservative?) and
    // magnitude in probability units, so consumers never have to re-derive the
    // verdict from the raw z column.
    let divergence = (z_score.abs() > DIVERGENCE_Z).then(|| Divergence {
        direction: if empirical < analytic {
            DivergenceDirection::EmpiricalBelow
        } else {
            DivergenceDirection::EmpiricalAbove
        },
        magnitude: (empirical - analytic).abs(),
    });
    ValidationRecord {
        simulation,
        analytic,
        z_score,
        environment: budget.sim.environment,
        divergence,
    }
}

/// Executes one time-domain cell against the plan's time axis.
fn trajectory_record(spec: &TrajectorySpec, axis: &TimeAxis) -> TrajectoryRecord {
    let times = axis.sample_times().into_iter();
    let (label, kind, points, group): (_, _, Vec<TrajectoryPoint>, _) = match spec {
        TrajectorySpec::Fleet {
            label,
            model,
            fleet,
        } => {
            let budget = Budget::default();
            let points = times
                .map(|t| {
                    // Every node t hours older, its profile over the window from then.
                    let profiles = fleet
                        .iter()
                        .map(|node| {
                            let mut aged = node.clone();
                            aged.age_hours += t;
                            aged.profile(axis.window_hours)
                        })
                        .collect();
                    let scenario = CorrelationModel::independent(profiles);
                    let outcome = EngineChoice::Counting.run(
                        model.as_ref(),
                        &scenario,
                        &budget,
                        &GroupScratch::default(),
                    );
                    TrajectoryPoint {
                        at_hours: t,
                        probability: outcome.report.safe_and_live.probability(),
                    }
                })
                .collect();
            (label, TrajectoryKind::Fleet, points, None)
        }
        TrajectorySpec::Repairable { label, group } => {
            let unreliability = group.unreliability_curve(axis.step_hours, times.len());
            let points = times
                .zip(unreliability)
                .map(|(t, u)| TrajectoryPoint {
                    at_hours: t,
                    probability: 1.0 - u,
                })
                .collect();
            (label, TrajectoryKind::Repairable, points, Some(group))
        }
    };
    let first_below = axis.target_nines.and_then(|target| {
        points
            .iter()
            .find(|p| !Nines::from_probability(p.probability).meets(target))
            .map(|p| p.at_hours)
    });
    let worst = *points
        .iter()
        .min_by(|a, b| {
            a.probability
                .partial_cmp(&b.probability)
                .expect("reliabilities are never NaN")
        })
        .expect("the time axis always samples t = 0");
    TrajectoryRecord {
        label: label.clone(),
        kind,
        target_nines: axis.target_nines,
        first_below_target_hours: first_below,
        worst_probability: worst.probability,
        worst_at_hours: worst.at_hours,
        points,
        steady_state_availability: group.map(RepairableGroup::steady_state_availability),
        mean_time_to_threshold_hours: group.map(RepairableGroup::mean_time_to_threshold_exceeded),
        unavailability_minutes_per_year: group
            .map(RepairableGroup::unavailability_minutes_per_year),
    }
}

/// One schedulable unit of a plan execution. [`QueryPlan::execute`] decomposes the
/// plan into these, orders them by estimated cost (largest first) and hands them to
/// the work-stealing pool as individually stealable tasks
/// ([`rayon::for_each_task`]); every item writes the result slots of the cells it
/// feeds, so report content never depends on which worker ran what, or in what
/// order.
enum WorkItem {
    /// A whole cell through its engine's [`run`](EngineChoice::run) — the exact
    /// engines and importance sampling, whose bodies have no chunk structure to
    /// expose.
    Cell(usize),
    /// One sample chunk, drawn once for every Monte Carlo cell that draws it: the
    /// cells whose samplers share a [`DrawKey`] and give chunk `chunk` the same
    /// length. [`McSampler::chunk_shared`] tallies the draw per cell — for each
    /// cell exactly its own sampler's `chunk(chunk)`, the call its whole-cell run
    /// folds — so the scheduled merge is bit-identical to a per-cell run by
    /// construction. A lone cell is a one-member item.
    McChunk {
        /// Chunk index within every member's sample budget.
        chunk: usize,
        /// The members: a range of [`Schedule::members`].
        members: Range<usize>,
    },
    /// One posterior draw of a second-order cell: the whole cell re-run through
    /// its engine on the draw's scaled scenario (draws are engine-agnostic, so
    /// they stay whole even when the base cell chunks).
    Draw {
        /// Index of the owning cell.
        cell: usize,
        /// Draw index within the cell's planned posterior draws.
        draw: usize,
    },
    /// One time-domain trajectory cell.
    Trajectory(usize),
}

/// A plan decomposed into work items ([`QueryPlan::schedule`]).
struct Schedule {
    items: Vec<WorkItem>,
    /// The cells chunk items feed: each item's members are one contiguous range.
    members: Vec<usize>,
    /// Per cell, its `(first, len)` span of result slots: the base outputs —
    /// chunk tallies in chunk order, or the one whole-cell outcome — then the
    /// posterior draws in draw order.
    spans: Vec<(usize, usize)>,
}

/// What one work item produced for one cell (placed into that cell's slot).
enum ItemOutput {
    /// Hit counters of one Monte Carlo sample chunk.
    Hits(HitCounts),
    /// A whole cell's outcome (boxed: an outcome is by far the widest variant).
    Outcome(Box<AnalysisOutcome>),
}

/// The record a result slot holds once the item wave is over.
fn filled<T>(slot: Mutex<Option<T>>) -> T {
    // Never poisoned: every guard on a slot only moved a record in, which cannot panic.
    let record = slot.into_inner().unwrap();
    record.expect("every item completed before for_each_task returned")
}

/// Observer of a plan execution's per-cell completions, the streaming half of
/// [`QueryPlan::execute_streaming`]: the scheduler calls [`on_cell`](Self::on_cell)
/// the moment a cell's last work item retires (validation included), long before
/// the whole report materializes — which is how the server streams `CellRecord`s
/// over the wire while later cells are still sampling.
///
/// Callbacks fire from pool workers, concurrently (hence `Sync`) and in an
/// **unspecified order** — completion order depends on scheduling. Every event
/// carries its query-order index, so a consumer that wants report order
/// reassembles by index. The records passed here are exactly the records the
/// returned [`AnalysisReport`] will contain (the streaming path *is* the
/// execution path; `execute` just attaches a no-op sink).
pub trait StreamSink: Sync {
    /// A cell completed: its merged outcome, paired validation (if requested)
    /// and wall time are final. `index` is the cell's query-order position.
    fn on_cell(&self, index: usize, record: &CellRecord) {
        let _ = (index, record);
    }

    /// A time-domain trajectory cell completed. `index` is its query-order
    /// position among the plan's trajectory cells.
    fn on_trajectory(&self, index: usize, record: &TrajectoryRecord) {
        let _ = (index, record);
    }
}

/// The no-op sink behind [`QueryPlan::execute`].
struct DiscardSink;

impl StreamSink for DiscardSink {}

impl PlannedCell {
    /// This cell's engine, whole, on `scenario` — its own, or a posterior draw's
    /// scaled one — over that scenario's scratch.
    fn run_whole(&self, scenario: &CorrelationModel, scratch: &GroupScratch) -> ItemOutput {
        ItemOutput::Outcome(Box::new(self.engine.run(
            self.model.as_ref(),
            scenario,
            &self.budget,
            scratch,
        )))
    }

    /// The Monte Carlo sampler of this cell over its group scratch — what a chunk
    /// item draws from and what the merge reports through.
    fn sampler(&self) -> McSampler<'_, dyn ProtocolModel + '_> {
        McSampler::prepare(
            self.model.as_ref(),
            &self.scenario,
            &self.budget,
            &self.scratch,
        )
    }
}

impl QueryPlan {
    /// Number of planned cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan contains no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The engine selected for cell `index` (cells are in query order).
    pub fn engine(&self, index: usize) -> EngineChoice {
        self.cells[index].engine
    }

    /// The engines selected for all cells, in query order.
    pub fn engines(&self) -> Vec<EngineChoice> {
        self.cells.iter().map(|c| c.engine).collect()
    }

    /// The label of cell `index`.
    pub fn label(&self, index: usize) -> &str {
        &self.cells[index].label
    }

    /// Number of planned time-domain cells.
    pub fn trajectory_count(&self) -> usize {
        self.trajectories.len()
    }

    /// Executes the plan across the persistent pool as one work-stealing DAG and
    /// collects one record per cell, in query order.
    ///
    /// Rather than scheduling cell-at-a-time (which strands the pool on the last
    /// long cell of a mixed sweep), the plan is decomposed into work items:
    /// Monte Carlo cells split into their
    /// [`MC_CHUNK_SIZE`](crate::montecarlo::MC_CHUNK_SIZE) sample chunks, exact /
    /// importance-sampling cells and trajectories stay whole. A chunk that several
    /// cells draw alike — the replicates of [`Query::samples_sweep`] and the
    /// protocols of [`Query::protocols`] over one scenario and seed — is one item,
    /// drawn once and tallied per cell, so sampling work follows the distinct
    /// draws of a plan, not its cell count. Items execute largest-estimated-first
    /// so the long poles start early and the cheap items backfill the stragglers'
    /// idle workers; each item writes the slots of the cells it feeds, and the
    /// per-cell merge folds chunk counters in chunk order — so the report is
    /// **bit-identical** to a sequential per-cell
    /// [`analyze_auto`](crate::analyzer::analyze_auto) loop at any thread
    /// count, including the paired validation runs (executed inline on each
    /// cell's completion, since they need the merged analytic estimates) and the
    /// trajectory records.
    pub fn execute(&self) -> AnalysisReport {
        self.execute_streaming(&DiscardSink)
    }

    /// [`execute`](Self::execute) with per-cell completion callbacks: `sink`
    /// observes every [`CellRecord`] / [`TrajectoryRecord`] the moment it is
    /// final, before the rest of the plan finishes — see [`StreamSink`]. The
    /// returned report is the same (bit-identical, cells in query order) as
    /// `execute`'s; the sink only adds observation, never changes execution.
    pub fn execute_streaming(&self, sink: &dyn StreamSink) -> AnalysisReport {
        let run = || self.execute_scheduled(sink);
        match &self.pool {
            Some(pool) => pool.install(run),
            None => run(),
        }
    }

    /// The scheduler behind [`execute_streaming`](Self::execute_streaming):
    /// decompose, run the item wave, and complete each cell (merge + inline
    /// validation + emission) on the worker that retires its last slot.
    fn execute_scheduled(&self, sink: &dyn StreamSink) -> AnalysisReport {
        let schedule = self.schedule();
        let spans = &schedule.spans;
        let mut order: Vec<usize> = (0..schedule.items.len()).collect();
        order.sort_by_key(|&index| {
            let cost = self.item_cost(&schedule, &schedule.items[index]);
            (std::cmp::Reverse(cost), index)
        });
        let slot_count = spans.last().map_or(0, |&(first, len)| first + len);
        let slots: Vec<Mutex<Option<(ItemOutput, u64)>>> =
            (0..slot_count).map(|_| Mutex::new(None)).collect();
        // One countdown per cell: the task that makes it hit zero owns the merge,
        // the paired validation and the emission of that cell's record — so cells
        // stream out as they complete instead of waiting for the full item wave.
        let countdown: Vec<AtomicUsize> = spans
            .iter()
            .map(|&(_, len)| AtomicUsize::new(len))
            .collect();
        let cell_slots: Vec<Mutex<Option<CellRecord>>> =
            self.cells.iter().map(|_| Mutex::new(None)).collect();
        let trajectory_slots: Vec<Mutex<Option<TrajectoryRecord>>> =
            self.trajectories.iter().map(|_| Mutex::new(None)).collect();
        let retire = |cell: usize, slot: usize, output: ItemOutput, elapsed: u64| {
            // Never poisoned: the guard only moves the output in, which cannot panic.
            *slots[slot].lock().unwrap() = Some((output, elapsed));
            // AcqRel: the last decrementer must observe every sibling's slot
            // write (the Mutex release alone orders only same-slot accesses).
            if countdown[cell].fetch_sub(1, Ordering::AcqRel) == 1 {
                let record = self.complete_cell(cell, spans[cell], &slots);
                sink.on_cell(cell, &record);
                // Never poisoned: the guard only moves the record in, which cannot panic.
                *cell_slots[cell].lock().unwrap() = Some(record);
            }
        };
        rayon::for_each_task(order.len(), |position| {
            let start = Instant::now();
            let elapsed = || start.elapsed().as_nanos() as u64;
            match &schedule.items[order[position]] {
                WorkItem::Cell(index) => {
                    let cell = &self.cells[*index];
                    let output = cell.run_whole(&cell.scenario, &cell.scratch);
                    retire(*index, spans[*index].0, output, elapsed());
                }
                WorkItem::McChunk { chunk, members } => {
                    let members = &schedule.members[members.clone()];
                    let samplers: Vec<_> = members
                        .iter()
                        .map(|&index| self.cells[index].sampler())
                        .collect();
                    let hits = McSampler::chunk_shared(&samplers, *chunk);
                    // A shared draw's time is charged to every cell it fed.
                    let elapsed = elapsed();
                    for (&index, hits) in members.iter().zip(hits) {
                        retire(
                            index,
                            spans[index].0 + chunk,
                            ItemOutput::Hits(hits),
                            elapsed,
                        );
                    }
                }
                WorkItem::Draw { cell: index, draw } => {
                    let cell = &self.cells[*index];
                    let planned = &cell.draws[*draw];
                    let output = cell.run_whole(&planned.scenario, &planned.scratch);
                    let (first, len) = spans[*index];
                    retire(
                        *index,
                        first + len - cell.draws.len() + draw,
                        output,
                        elapsed(),
                    );
                }
                WorkItem::Trajectory(index) => {
                    let record = trajectory_record(&self.trajectories[*index], &self.time_axis);
                    sink.on_trajectory(*index, &record);
                    // Never poisoned: the guard only moves the record in, which cannot panic.
                    *trajectory_slots[*index].lock().unwrap() = Some(record);
                }
            }
        });
        AnalysisReport {
            metrics: self.metrics,
            cells: cell_slots.into_iter().map(filled).collect(),
            trajectories: trajectory_slots.into_iter().map(filled).collect(),
        }
    }

    /// Merges a completed cell's slot outputs into its final [`CellRecord`],
    /// running the paired validation inline when the query requested one.
    ///
    /// Chunk tallies sit in the slot span in chunk order, so the fold below is the
    /// sampler's own whole-cell fold — the record is bit-identical to a
    /// sequential per-cell run no matter which item fed a slot, which worker gets
    /// here, or when.
    fn complete_cell(
        &self,
        index: usize,
        span: (usize, usize),
        slots: &[Mutex<Option<(ItemOutput, u64)>>],
    ) -> CellRecord {
        let cell = &self.cells[index];
        let (start, len) = span;
        let mut wall_ns = 0u64;
        let mut take = |item: usize| -> ItemOutput {
            // Never poisoned: the guard only moves the output out, which cannot panic.
            let (output, ns) = slots[item]
                .lock()
                .unwrap()
                .take()
                .expect("the countdown retired after every span slot was written");
            wall_ns += ns;
            output
        };
        // The span tail holds the cell's posterior-draw items (in draw order);
        // everything before it is the base cell.
        let draws_len = cell.draws.len();
        let base_len = len - draws_len;
        let outcome = if cell.engine == EngineChoice::MonteCarlo {
            let mut hits = HitCounts::default();
            for item in start..start + base_len {
                match take(item) {
                    ItemOutput::Hits(chunk_hits) => hits = hits + chunk_hits,
                    _ => unreachable!("Monte Carlo cells decompose into chunk items"),
                }
            }
            AnalysisOutcome::monte_carlo(cell.sampler().report(hits))
        } else {
            match take(start) {
                ItemOutput::Outcome(outcome) => *outcome,
                _ => unreachable!("non-sampling cells are whole-cell items"),
            }
        };
        // Fold the posterior-draw outcomes into the second-order report. Draw
        // order is the planner's (deterministic) order, so the report never
        // depends on which worker ran what.
        let epistemic = (draws_len > 0).then(|| {
            let level = cell
                .budget
                .epistemic
                .expect("draw items exist only under an epistemic budget")
                .level;
            let records: Vec<EpistemicDraw> = cell
                .draws
                .iter()
                .enumerate()
                .map(|(k, draw)| {
                    let outcome = match take(start + base_len + k) {
                        ItemOutput::Outcome(outcome) => *outcome,
                        _ => unreachable!("draw items are whole-cell items"),
                    };
                    let (lower, upper) = outcome.joint_interval();
                    EpistemicDraw {
                        p: draw.p,
                        scale: draw.scale,
                        value: outcome.report.safe_and_live.probability(),
                        lower,
                        upper,
                    }
                })
                .collect();
            EpistemicReport::from_draws(level, records, outcome.joint_interval())
        });
        // The paired simulation needs the merged analytic estimate, so it runs
        // here, on this cell's completion — not as a plan-wide second wave. It is
        // a pure function of (model, scenario, budget, estimate), so where it
        // runs never shows in the record.
        let validation = cell.validate.then(|| {
            let start = Instant::now();
            let record = validation_record(
                cell.model.as_ref(),
                &cell.scenario,
                &cell.budget,
                outcome.report.safe_and_live.probability(),
            );
            wall_ns += start.elapsed().as_nanos() as u64;
            record
        });
        CellRecord {
            label: cell.label.clone(),
            protocol: cell.protocol.clone(),
            nodes: cell.nodes,
            fault_prob: cell.fault_prob,
            correlation: cell.correlation.clone(),
            environment: cell.environment,
            samples_budget: cell.budget.monte_carlo_samples,
            engine: cell.engine,
            outcome,
            validation,
            epistemic,
            wall_ns,
        }
    }

    /// Decomposes the plan into work items and gives every cell its span of
    /// result slots.
    ///
    /// Whole cells, posterior draws and trajectories are one item each. Monte
    /// Carlo cells are grouped by [`DrawKey`], and each group yields one chunk
    /// item per distinct `(chunk index, chunk length)` its members draw, naming
    /// every member that draws it. A draw's slot is addressed by its cell and
    /// chunk index, so a chunk item can feed any number of cells while each
    /// cell's countdown and in-order fold stay its own.
    fn schedule(&self) -> Schedule {
        let samples = |cell: usize| self.cells[cell].budget.monte_carlo_samples;
        let mut items = Vec::new();
        let mut spans = Vec::with_capacity(self.cells.len());
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<DrawKey<'_>, usize> = HashMap::new();
        let mut next_slot = 0;
        for (index, cell) in self.cells.iter().enumerate() {
            let base = if cell.engine == EngineChoice::MonteCarlo {
                let group = *group_of
                    .entry(cell.sampler().draw_key())
                    .or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                groups[group].push(index);
                chunk_count(samples(index))
            } else {
                items.push(WorkItem::Cell(index));
                1
            };
            // Draw slots follow the base slots, so the cell's countdown covers
            // them and the merge can address them positionally (span tail =
            // draws in draw order).
            for draw in 0..cell.draws.len() {
                items.push(WorkItem::Draw { cell: index, draw });
            }
            let len = base + cell.draws.len();
            spans.push((next_slot, len));
            next_slot += len;
        }
        let mut members = Vec::new();
        for mut group in groups {
            // Largest budget first: the members drawing chunk `i` at full length
            // are then a prefix, and those drawing it ragged follow in runs of
            // one length — every item's members are one contiguous range.
            group.sort_by_key(|&cell| (std::cmp::Reverse(samples(cell)), cell));
            let offset = members.len();
            for chunk in 0..chunk_count(samples(group[0])) {
                let mut start = 0;
                while start < group.len() && chunk < chunk_count(samples(group[start])) {
                    let len = chunk_len(samples(group[start]), chunk);
                    let run = group[start..]
                        .iter()
                        .take_while(|&&cell| {
                            let s = samples(cell);
                            chunk < chunk_count(s) && chunk_len(s, chunk) == len
                        })
                        .count();
                    items.push(WorkItem::McChunk {
                        chunk,
                        members: offset + start..offset + start + run,
                    });
                    start += run;
                }
            }
            members.extend(group);
        }
        for index in 0..self.trajectories.len() {
            items.push(WorkItem::Trajectory(index));
        }
        Schedule {
            items,
            members,
            spans,
        }
    }

    /// Estimated cost of a work item, in arbitrary comparable units. Only the
    /// *ordering* matters — largest first keeps a sweep's long poles from landing
    /// after the pool has drained — and the estimate never influences results.
    fn item_cost(&self, schedule: &Schedule, item: &WorkItem) -> u64 {
        match *item {
            // One draw, however many cells it feeds: their tallies are a small
            // fraction of it.
            WorkItem::McChunk { chunk, ref members } => {
                let cell = &self.cells[schedule.members[members.start]];
                let count = chunk_len(cell.budget.monte_carlo_samples, chunk) as u64;
                let nodes = cell.nodes as u64;
                // The packed kernel retires ~64 scenarios per word pass; the
                // scalar kernel walks every node per scenario.
                match packed_view(cell.model.as_ref(), McKernel::Auto) {
                    Some(_) => (count * nodes / 64).max(1),
                    None => count * nodes,
                }
            }
            // A draw re-runs the whole cell on a scaled scenario, so it costs
            // what the base cell costs at its engine.
            WorkItem::Cell(index) | WorkItem::Draw { cell: index, .. } => {
                let cell = &self.cells[index];
                let nodes = cell.nodes as u64;
                match cell.engine {
                    // The count DP: N² for crash-only cells, up to N³ for mixed ones.
                    EngineChoice::Counting => crate::counting::dp_steps(cell.scenario.profiles()),
                    // Exponential in the cluster size (capped so the shift is sane).
                    EngineChoice::Enumeration => 1u64 << nodes.min(40),
                    // Pilot plus tilted sampling: scalar-sampler cost shape.
                    // (Simulation is never planned; sized like a sampling cell.)
                    EngineChoice::ImportanceSampling
                    | EngineChoice::MonteCarlo
                    | EngineChoice::Simulation => {
                        cell.budget.monte_carlo_samples.max(1) as u64 * nodes
                    }
                }
            }
            // Horizon-by-window sweeps of an exact engine: sized like a mid-range
            // sampling chunk so trajectories start early but never starve chunks.
            WorkItem::Trajectory(_) => 1 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze_auto;
    use crate::durability::PersistenceQuorumModel;
    use crate::montecarlo::MC_CHUNK_SIZE;
    use crate::query::{CorrelationSpec, ProtocolSpec};
    use crate::raft_model::RaftModel;
    use fault_model::correlation::CorrelationGroup;
    use fault_model::mode::FaultProfile;

    /// A placement-sensitive (non-counting) model whose failure is common and whose
    /// 2^30 configurations are past the enumeration budget, so it lands on Monte
    /// Carlo and only the scalar kernel can evaluate it.
    fn scalar_only_cell() -> (Arc<dyn ProtocolModel + Send + Sync>, CorrelationModel) {
        (
            Arc::new(PersistenceQuorumModel::new(30, vec![0])),
            CorrelationModel::uniform(30, FaultProfile::crash_only(0.3)),
        )
    }

    #[test]
    fn planned_cells_match_per_cell_front_door_bit_for_bit() {
        let session = AnalysisSession::new();
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([3usize, 5])
            .fault_probs([0.01, 0.05])
            .correlations([
                CorrelationSpec::Independent,
                CorrelationSpec::ClusterShock { probability: 0.01 },
            ])
            .budget(Budget::default().with_samples(10_000).with_seed(7));
        let report = session.run(&query).expect("valid query");
        let mut index = 0;
        for &n in &[3usize, 5] {
            for &p in &[0.01, 0.05] {
                for corr in &[
                    CorrelationSpec::Independent,
                    CorrelationSpec::ClusterShock { probability: 0.01 },
                ] {
                    let model = RaftModel::standard(n);
                    let budget = Budget::default().with_samples(10_000).with_seed(7);
                    let scenario = corr.apply(vec![FaultProfile::crash_only(p); n]);
                    let expected = analyze_auto(&model, &scenario, &budget).expect("well-formed");
                    assert_eq!(
                        report.cell(index).outcome,
                        expected,
                        "cell {index} ({}) diverged from the per-cell front door",
                        report.cell(index).label
                    );
                    index += 1;
                }
            }
        }
        assert_eq!(index, report.cells().len());

        // The Monte Carlo corners: a model only the scalar kernel can evaluate
        // next to one the packed kernel compiles; a ragged last chunk and a zero
        // budget (saturates to one sample); one and two pool threads. The engine's own `run` (throwaway
        // scratch), the planned cell run whole on its shared scratch, and the
        // scheduler's merged chunk items must agree bit for bit.
        let (placement, placement_deployment) = scalar_only_cell();
        let shocked = CorrelationModel::independent(vec![FaultProfile::crash_only(0.05); 5])
            .with_group(CorrelationGroup::crash_shock((0..5).collect(), 0.01));
        for threads in [1usize, 2] {
            for samples in [0usize, MC_CHUNK_SIZE + 1] {
                let budget = Budget::default().with_samples(samples).with_seed(7);
                let query = Query::new()
                    .cell("placement", placement.clone(), placement_deployment.clone())
                    .cell("shocked", Arc::new(RaftModel::standard(5)), shocked.clone())
                    .budget(budget);
                let plan = AnalysisSession::with_threads(threads)
                    .plan(&query)
                    .expect("valid query");
                let report = plan.execute();
                for (index, kernel) in [(0, McKernel::Scalar), (1, McKernel::Packed)] {
                    let cell = &plan.cells[index];
                    let scenario = cell.scenario.as_ref();
                    let direct = EngineChoice::MonteCarlo.run(
                        cell.model.as_ref(),
                        scenario,
                        &budget,
                        &GroupScratch::default(),
                    );
                    let whole =
                        cell.engine
                            .run(cell.model.as_ref(), scenario, &budget, &cell.scratch);
                    let context = format!("{} at {samples} samples, {threads} threads", cell.label);
                    assert_eq!(cell.engine, EngineChoice::MonteCarlo, "{context}");
                    assert_eq!(whole, direct, "{context}: shared vs throwaway scratch");
                    assert_eq!(
                        report.cell(index).outcome,
                        direct,
                        "{context}: merged chunks"
                    );
                    let mc = direct.monte_carlo.expect("Monte Carlo outcome");
                    assert_eq!(mc.kernel, kernel, "{context}");
                    assert_eq!(mc.samples, samples.max(1), "{context}");
                }
            }
        }
    }

    /// Tentpole pin: the work-stealing decomposition (Monte Carlo chunks drawn
    /// once for every cell that draws them alike, whole exact and
    /// importance-sampling cells, trajectory items, the validation wave) produces
    /// a report byte-identical — JSON with wall times zeroed — to a sequential
    /// per-cell loop over the same plan, on a sweep whose packed chunks are shared
    /// across three protocols on one scenario and whose non-counting `durability`
    /// and `placement` cells draw scalar chunks, over sample budgets that include
    /// a ragged last chunk and zero, at one, two and eight pool threads.
    #[test]
    fn scheduled_execution_matches_a_sequential_per_cell_loop_byte_for_byte() {
        let (placement, placement_deployment) = scalar_only_cell();
        for threads in [1usize, 2, 8] {
            let session = AnalysisSession::with_threads(threads);
            let query = Query::new()
                .protocols([
                    ProtocolSpec::Raft,
                    ProtocolSpec::Pbft,
                    ProtocolSpec::RaftFlexible { q_per: 4, q_vc: 3 },
                ])
                .nodes([5usize])
                .fault_probs([0.05])
                .correlations([
                    CorrelationSpec::Independent,
                    CorrelationSpec::ClusterShock { probability: 0.01 },
                ])
                .samples_sweep([0usize, MC_CHUNK_SIZE + 1, 9_000, 20_000])
                // The sweep overrides the grid cells' samples; the explicit cells
                // (importance sampling, scalar-only Monte Carlo) draw this many.
                // Few simulation trials: the validation wave only has to run
                // (24 validated cells per case), not to resolve anything.
                .budget(
                    Budget::default()
                        .with_samples(MC_CHUNK_SIZE + 1)
                        .with_seed(11)
                        .with_sim_trials(16),
                )
                .validate_with_simulation()
                .cell(
                    "durability",
                    Arc::new(PersistenceQuorumModel::new(24, (0..4).collect())),
                    CorrelationModel::uniform(24, FaultProfile::crash_only(0.05)),
                )
                .cell("placement", placement.clone(), placement_deployment.clone())
                .repairable_cell("repairable-3", RepairableGroup::new(3, 1e-3, 1e-2, 1));
            let plan = session.plan(&query).expect("valid query");
            let engines = plan.engines();
            assert!(
                engines.contains(&EngineChoice::Counting)
                    && engines.contains(&EngineChoice::MonteCarlo),
                "the sweep must mix exact and sampling cells, got {engines:?}"
            );
            let mut scheduled = plan.execute();
            // Sequential reference: every cell whole, in query order, on this thread.
            let cells: Vec<CellRecord> = plan
                .cells
                .iter()
                .map(|cell| {
                    let outcome = cell.engine.run(
                        cell.model.as_ref(),
                        &cell.scenario,
                        &cell.budget,
                        &cell.scratch,
                    );
                    let validation = cell.validate.then(|| {
                        validation_record(
                            cell.model.as_ref(),
                            &cell.scenario,
                            &cell.budget,
                            outcome.report.safe_and_live.probability(),
                        )
                    });
                    CellRecord {
                        label: cell.label.clone(),
                        protocol: cell.protocol.clone(),
                        nodes: cell.nodes,
                        fault_prob: cell.fault_prob,
                        correlation: cell.correlation.clone(),
                        environment: cell.environment,
                        samples_budget: cell.budget.monte_carlo_samples,
                        engine: cell.engine,
                        outcome,
                        validation,
                        epistemic: None,
                        wall_ns: 0,
                    }
                })
                .collect();
            let reference = AnalysisReport {
                metrics: plan.metrics,
                cells,
                trajectories: plan
                    .trajectories
                    .iter()
                    .map(|spec| trajectory_record(spec, &plan.time_axis))
                    .collect(),
            };
            for cell in &mut scheduled.cells {
                cell.wall_ns = 0;
            }
            assert_eq!(
                scheduled.to_json(),
                reference.to_json(),
                "{threads} threads: scheduled sweep diverged from the per-cell loop"
            );
            let placement_cell = scheduled
                .cells()
                .iter()
                .find(|cell| cell.label == "placement")
                .expect("the placement cell is in the sweep");
            assert_eq!(placement_cell.engine, EngineChoice::MonteCarlo);
            assert_eq!(placement_cell.kernel(), Some(McKernel::Scalar));
        }
    }

    /// The benchmark's `heavy-sweep` request: Raft and PBFT at three cluster sizes
    /// over one shocked scenario each, sampled at 5e5, 1e6 and 2e6. Per scenario
    /// the six cells draw chunks 0..488 at full length plus the three replicates'
    /// ragged last chunks — 491 draws instead of 2 × (123 + 245 + 489) per-cell
    /// chunks — while every cell still gets one tally per chunk of its budget.
    #[test]
    fn a_sweep_draws_each_shared_chunk_once() {
        let query = Query::new()
            .protocols([ProtocolSpec::Raft, ProtocolSpec::Pbft])
            .nodes([25usize, 49, 101])
            .fault_probs([0.05])
            .correlations([CorrelationSpec::ClusterShock { probability: 0.02 }])
            .samples_sweep([500_000usize, 1_000_000, 2_000_000])
            .budget(Budget::default().with_seed(1));
        let plan = AnalysisSession::new().plan(&query).expect("valid query");
        assert!(plan
            .engines()
            .iter()
            .all(|&e| e == EngineChoice::MonteCarlo));
        let schedule = plan.schedule();
        let fed: Vec<usize> = schedule
            .items
            .iter()
            .filter_map(|item| match item {
                WorkItem::McChunk { members, .. } => Some(members.len()),
                _ => None,
            })
            .collect();
        assert_eq!(fed.len(), 3 * (488 + 3));
        assert_eq!(fed.iter().sum::<usize>(), 2 * 3 * (123 + 245 + 489));
    }

    /// Scalar chunks are shared through the cell group's scratch: two explicit
    /// cells of one model `Arc` whose scenarios have equal content (but are
    /// separate values) land on one scratch, so every chunk is drawn once for
    /// both, and each record is byte-equal to the cell planned alone.
    #[test]
    fn equal_scalar_cells_draw_each_chunk_once() {
        let (model, deployment) = scalar_only_cell();
        let budget = Budget::default()
            .with_samples(2 * MC_CHUNK_SIZE + 1)
            .with_seed(5);
        let pair = Query::new()
            .cell("placement", model.clone(), deployment.clone())
            .cell("placement", model.clone(), deployment.clone())
            .budget(budget);
        let plan = AnalysisSession::new().plan(&pair).expect("valid query");
        assert_eq!(plan.engines(), vec![EngineChoice::MonteCarlo; 2]);
        let chunks: Vec<(usize, usize)> = plan
            .schedule()
            .items
            .iter()
            .map(|item| match item {
                WorkItem::McChunk { chunk, members } => (*chunk, members.len()),
                _ => panic!("only chunk items expected"),
            })
            .collect();
        assert_eq!(chunks, vec![(0, 2), (1, 2), (2, 2)]);
        let json = |report: &AnalysisReport, index: usize| {
            report
                .zero_wall_clock()
                .cell(index)
                .to_json_value(Metrics::default())
                .to_compact_string()
        };
        let report = plan.execute();
        assert_eq!(report.cell(0).kernel(), Some(McKernel::Scalar));
        let lone = AnalysisSession::new()
            .run(
                &Query::new()
                    .cell("placement", model, deployment)
                    .budget(budget),
            )
            .expect("valid query");
        assert_eq!(json(&report, 0), json(&lone, 0));
        assert_eq!(json(&report, 1), json(&lone, 0));
    }

    #[test]
    fn counting_cells_keep_only_their_result_in_the_group_scratch() {
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([9usize])
            .fault_probs([0.02]);
        let plan = AnalysisSession::new().plan(&query).expect("valid query");
        assert_eq!(plan.engine(0), EngineChoice::Counting);
        let report = plan.execute();
        // The engine filled the slot; a later read must not compute again.
        let raw = plan.cells[0]
            .scratch
            .counting(|| unreachable!("the counting engine filled the slot"));
        let outcome = &report.cell(0).outcome.report;
        assert_eq!(raw.p_safe_and_live, outcome.safe_and_live.probability());
        // What the slot keeps owns no heap memory, so a cached counting cell
        // costs the same few words at 9 nodes as at 2 000 (its O(N²) count
        // distribution is dropped once the result is read off it).
        assert!(!std::mem::needs_drop::<crate::enumeration::RawReliability>());
    }

    #[test]
    fn content_keys_run_length_encode_nodes_and_members() {
        let model = RaftModel::standard(2_000);
        let key = |profiles: Vec<FaultProfile>| {
            content_key_words(&model, &CorrelationModel::independent(profiles))
                .expect("raft has a signature")
        };
        let a = FaultProfile::crash_only(0.01);
        let b = FaultProfile::crash_only(0.02);
        let uniform = key(vec![a; 2_000]);
        assert!(uniform.len() < 16, "a uniform cell's key is a few words");
        // Same multiset of nodes, different runs: different content, different key.
        let mut front = vec![a; 2_000];
        front[0] = b;
        let mut back = vec![a; 2_000];
        back[1_999] = b;
        assert_ne!(key(front), key(back));
        assert_ne!(key(vec![a; 2_000]), key(vec![b; 2_000]));
        // Members {0, 1, 2} and {0, 1, 3} differ in their runs.
        let racks = |members: Vec<usize>| {
            let c = CorrelationModel::independent(vec![a; 4]).with_group(CorrelationGroup {
                members,
                shock_probability: 0.001,
                shock_mode: fault_model::mode::NodeState::Crashed,
            });
            content_key_words(&RaftModel::standard(4), &c).unwrap()
        };
        assert_ne!(racks(vec![0, 1, 2]), racks(vec![0, 1, 3]));
        assert_eq!(racks(vec![0, 1, 2]), racks(vec![0, 1, 2]));
    }

    #[test]
    fn tight_capacity_session_evicts_without_changing_results() {
        // Three scratch groups (three correlation variants) through a session
        // bounded to one resident entry: the cache must thrash, and thrashing
        // must be invisible in the results — scratch is a pure cache, so
        // eviction can only cost recomputation, never change a number.
        let query = Query::new()
            .protocols([ProtocolSpec::Raft])
            .nodes([9usize])
            .fault_probs([0.02])
            .correlations([
                CorrelationSpec::ClusterShock { probability: 0.01 },
                CorrelationSpec::ClusterShock { probability: 0.05 },
                CorrelationSpec::RackShock {
                    racks: 3,
                    probability: 0.01,
                },
            ])
            .budget(Budget::default().with_samples(5_000));
        let tight = AnalysisSession {
            cache: SessionCache::new(1),
            ..AnalysisSession::new()
        };
        let first = tight.run(&query).expect("valid query");
        let second = tight.run(&query).expect("valid query");
        let reference = AnalysisSession::new().run(&query).expect("valid query");
        for index in 0..reference.cells().len() {
            assert_eq!(first.cell(index).outcome, reference.cell(index).outcome);
            assert_eq!(second.cell(index).outcome, reference.cell(index).outcome);
        }
        let stats = tight.cache_stats();
        assert!(
            stats.evictions > 0,
            "three groups through one slot must evict"
        );
        assert!(stats.entries <= 1, "the capacity bound must hold");
    }
}
