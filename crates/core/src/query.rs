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
//!   [`Query::correlations`], [`Query::samples_sweep`]), a [`Budget`], the requested
//!   [`Metrics`], and fully explicit cells ([`Query::cell`]) for scenarios the grid
//!   axes cannot express.
//! * [`AnalysisSession`] — owns the (optional, pinned) rayon pool and the cache of
//!   per-(model, scenario) scratch ([`crate::scratch`]: the converted correlation
//!   model, compiled packed-kernel thresholds/LUTs, selector-pilot estimates and
//!   importance-sampling proposals), keyed by cell signature and reused across
//!   cells, plans and queries.
//! * [`AnalysisSession::plan`] → [`QueryPlan`] — engine selection for *all* cells up
//!   front (validating the budget — see [`Budget::validate`] — and the cell shapes),
//!   grouping cells that share a (model, scenario) signature so the expensive
//!   per-group setup runs once per group instead of once per cell.
//! * [`QueryPlan::execute`] → [`AnalysisReport`] — runs every cell across the
//!   persistent pool and returns one [`CellRecord`] per cell (engine, kernel,
//!   estimates with confidence intervals, ESS, wall time), renderable to a
//!   plain-text [`Table`] and to JSON ([`AnalysisReport::to_json`], via
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
//!   ([`crate::simulation::SimulationEngine`]); the cell's [`ValidationRecord`]
//!   reports the trial frequencies and the analytic-vs-empirical z-score.
//!
//! # Determinism contract
//!
//! Executing a planned cell is **bit-identical** to calling `analyze_auto` /
//! [`crate::analyzer::analyze_scenario`] on the same triple, because it is the same
//! code: the planner calls [`crate::engine::select_engine`] and the scheduler calls
//! the selected engine's `run_prepared`, exactly as the front doors do — the only
//! difference is whose scratch they pass. Monte Carlo cells are the one
//! decomposition: the scheduler draws their chunks itself — once per chunk that
//! several cells draw alike, tallied per cell to exactly that cell's sampler's
//! `chunk(i)` — and folds each cell's tallies in chunk order, which is literally
//! what the sampler's own whole-cell run does ([`crate::montecarlo`]). Caching never
//! changes results, because everything cached is a pure function of the cell
//! signature: the correlation-model conversion and kernel compilation are
//! value-deterministic, and the selector pilot / adaptive proposal are cached *per
//! seed*, so a cache hit returns exactly what the per-cell call would have
//! recomputed. Cells execute in parallel, but each cell's sampling is chunked by the
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

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fault_model::correlation::{CorrelationGroup, CorrelationModel};
use fault_model::markov::RepairableGroup;
use fault_model::metrics::{Nines, HOURS_PER_YEAR};
use fault_model::node::Fleet;

use crate::analyzer::AnalysisError;
use crate::cache::{CacheKey, CacheStats, SessionCache};
use crate::deployment::Deployment;
use crate::engine::{
    select_engine, AnalysisEngine, AnalysisOutcome, Budget, CountingEngine, EngineChoice,
    FaultEnvironment, MonteCarloEngine, Scenario,
};
use crate::epistemic::{EpistemicDraw, EpistemicReport};
use crate::json::JsonValue;
use crate::montecarlo::{
    chunk_count, chunk_len, packed_view, DrawKey, HitCounts, McKernel, McSampler, Z_95,
};
use crate::pbft_model::PbftModel;
use crate::protocol::ProtocolModel;
use crate::raft_model::RaftModel;
use crate::report::Table;
use crate::scratch::GroupScratch;
use crate::simulation::{SimulationEngine, SimulationReport};

/// A protocol family the grid axes can instantiate at any swept cluster size.
///
/// Scenarios that need a hand-built model (placement-sensitive durability models,
/// heterogeneous quorum policies) go through [`Query::cell`] instead, which accepts
/// any [`ProtocolModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolSpec {
    /// Raft with majority quorums ([`RaftModel::standard`]).
    Raft,
    /// Raft with explicit flexible quorum sizes ([`RaftModel::flexible`]).
    RaftFlexible {
        /// Persistence (log replication) quorum size.
        q_per: usize,
        /// View-change (leader election) quorum size.
        q_vc: usize,
    },
    /// PBFT with the standard 2f+1 quorums ([`PbftModel::standard`]).
    Pbft,
}

impl ProtocolSpec {
    /// Instantiates the protocol model at cluster size `n`.
    ///
    /// # Panics
    ///
    /// Panics when the underlying constructor rejects `n` (e.g. flexible quorums
    /// larger than the cluster).
    pub fn build(&self, n: usize) -> Arc<dyn ProtocolModel + Send + Sync> {
        match self {
            ProtocolSpec::Raft => Arc::new(RaftModel::standard(n)),
            ProtocolSpec::RaftFlexible { q_per, q_vc } => {
                Arc::new(RaftModel::flexible(n, *q_per, *q_vc))
            }
            ProtocolSpec::Pbft => Arc::new(PbftModel::standard(n)),
        }
    }

    /// Short label used in cell names and report columns.
    pub fn label(&self) -> String {
        match self {
            ProtocolSpec::Raft => "raft".into(),
            ProtocolSpec::RaftFlexible { q_per, q_vc } => format!("raft-flex({q_per},{q_vc})"),
            ProtocolSpec::Pbft => "pbft".into(),
        }
    }
}

/// How the swept per-node failure probability `p` maps onto fault modes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAxis {
    /// Crash faults only: `p` is the crash probability
    /// ([`Deployment::uniform_crash`]).
    Crash,
    /// Byzantine faults only: `p` is the Byzantine probability
    /// ([`Deployment::uniform_byzantine`]).
    Byzantine,
    /// Mixed: `p` is the crash probability, with a fixed Byzantine probability on
    /// top ([`Deployment::uniform_mixed`]).
    Mixed {
        /// Per-node Byzantine probability, constant across the `p` sweep.
        byzantine: f64,
    },
}

impl FaultAxis {
    fn deployment(&self, n: usize, p: f64) -> Deployment {
        match self {
            FaultAxis::Crash => Deployment::uniform_crash(n, p),
            FaultAxis::Byzantine => Deployment::uniform_byzantine(n, p),
            FaultAxis::Mixed { byzantine } => Deployment::uniform_mixed(n, p, *byzantine),
        }
    }

    fn key(&self) -> (u8, u64) {
        match self {
            FaultAxis::Crash => (0, 0),
            FaultAxis::Byzantine => (1, 0),
            FaultAxis::Mixed { byzantine } => (2, byzantine.to_bits()),
        }
    }
}

/// A correlation structure applied on top of the independent per-node profiles —
/// the §2(3) axis of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorrelationSpec {
    /// No correlation groups: the plain independent deployment.
    Independent,
    /// One crash shock covering the whole cluster with the given probability.
    ClusterShock {
        /// Probability the whole-cluster shock fires within the window.
        probability: f64,
    },
    /// The cluster split into `racks` contiguous, near-equal groups, each with an
    /// independent crash shock of the given probability. A rack count of zero is
    /// treated as one rack; racks beyond the node count end up empty and are
    /// dropped.
    RackShock {
        /// Number of contiguous racks.
        racks: usize,
        /// Probability each rack's shock fires within the window.
        probability: f64,
    },
}

impl CorrelationSpec {
    fn apply(&self, deployment: Deployment) -> ScenarioSpec {
        match self {
            CorrelationSpec::Independent => ScenarioSpec::Independent(deployment),
            CorrelationSpec::ClusterShock { probability } => {
                let n = deployment.len();
                ScenarioSpec::Correlated(
                    CorrelationModel::independent(deployment.profiles().to_vec()).with_group(
                        CorrelationGroup::crash_shock((0..n).collect(), *probability),
                    ),
                )
            }
            CorrelationSpec::RackShock { racks, probability } => {
                let n = deployment.len();
                let racks = (*racks).max(1);
                let per_rack = n.div_ceil(racks);
                let mut model = CorrelationModel::independent(deployment.profiles().to_vec());
                for r in 0..racks {
                    let members: Vec<usize> = (r * per_rack..((r + 1) * per_rack).min(n)).collect();
                    if members.is_empty() {
                        break;
                    }
                    model = model.with_group(CorrelationGroup::crash_shock(members, *probability));
                }
                ScenarioSpec::Correlated(model)
            }
        }
    }

    /// Short label used in cell names and report columns.
    pub fn label(&self) -> String {
        match self {
            CorrelationSpec::Independent => "independent".into(),
            CorrelationSpec::ClusterShock { probability } => {
                format!("cluster-shock({probability})")
            }
            CorrelationSpec::RackShock { racks, probability } => {
                format!("rack-shock({racks},{probability})")
            }
        }
    }

    fn key(&self) -> (u8, usize, u64) {
        match self {
            CorrelationSpec::Independent => (0, 0, 0),
            CorrelationSpec::ClusterShock { probability } => (1, 0, probability.to_bits()),
            CorrelationSpec::RackShock { racks, probability } => (2, *racks, probability.to_bits()),
        }
    }
}

/// `count` points spaced evenly on a log scale from `lo` to `hi` inclusive — the
/// natural fault-probability axis for paper-style sweeps
/// (`fault_probs(logspace(1e-6, 1e-1, 25))`).
///
/// # Panics
///
/// Panics unless `0 < lo <= hi` and `count >= 1` (`count == 1` yields just `lo`).
pub fn logspace(lo: f64, hi: f64, count: usize) -> Vec<f64> {
    assert!(
        lo > 0.0 && hi >= lo && lo.is_finite() && hi.is_finite(),
        "logspace needs 0 < lo <= hi, got [{lo}, {hi}]"
    );
    assert!(count >= 1, "logspace needs at least one point");
    if count == 1 {
        return vec![lo];
    }
    let (llo, lhi) = (lo.ln(), hi.ln());
    (0..count)
        .map(|i| (llo + (lhi - llo) * i as f64 / (count - 1) as f64).exp())
        .collect()
}

/// Which of the three guarantees a report renders (all by default). The analysis
/// always computes all three — they fall out of the same pass — so this only
/// selects columns in [`AnalysisReport::to_table`] / [`AnalysisReport::to_json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Render the safety guarantee.
    pub safe: bool,
    /// Render the liveness guarantee.
    pub live: bool,
    /// Render the combined guarantee.
    pub safe_and_live: bool,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            safe: true,
            live: true,
            safe_and_live: true,
        }
    }
}

impl Metrics {
    /// The enabled metrics in rendering order.
    fn enabled_kinds(&self) -> Vec<MetricKind> {
        let mut kinds = Vec::new();
        if self.safe {
            kinds.push(MetricKind::Safe);
        }
        if self.live {
            kinds.push(MetricKind::Live);
        }
        if self.safe_and_live {
            kinds.push(MetricKind::SafeAndLive);
        }
        kinds
    }
}

/// The most sample times a [`TimeAxis`] may have (2²⁰, twelve times the in-tree
/// extreme of a year at 0.1-hour steps); planning rejects a longer axis with
/// [`AnalysisError::InvalidTimeAxis`] before anything allocates for it.
pub const MAX_TIME_POINTS: usize = 1 << 20;

/// The most nodes a planned cluster may have (4 096: above the 3 000-node
/// deployment of the counting-cap test, forty times the 101-node clusters of
/// the heavy-sweep benchmark). Planning checks every `nodes` entry and every
/// repairable group's size before building a deployment or a chain for it, and
/// rejects a larger one with [`AnalysisError::OverLimit`].
pub const MAX_NODES: usize = 1 << 12;

/// The most entries one grid axis may have (4 096: 160 times the 25-point
/// [`logspace`] fault-probability axis of the paper-style sweeps). Planning
/// checks every axis; the service also bounds a `logspace` count with it,
/// because that axis is materialized while the request is read.
pub const MAX_AXIS_LEN: usize = 1 << 12;

/// The most posterior draws per cell (4 096: twenty times the 200-draw
/// posterior of the service's protocol example, sixty-four times the
/// 64-draw benchmark posteriors); [`Budget::validate`] rejects more.
pub const MAX_POSTERIOR_DRAWS: usize = 1 << 12;

/// The most Monte Carlo samples per cell (2²⁸, about 134 times the 2 000 000
/// samples of the heavy-sweep benchmark's largest cells);
/// [`Budget::validate`] rejects more, and planning checks every entry of the
/// samples axis against it too.
pub const MAX_SAMPLES: usize = 1 << 28;

/// The most cells a plan may expand to, posterior draws counted as cells
/// (16 384: fifty-seven times the 288-cell grid that exercises every wire
/// axis). Planning multiplies the axis lengths with saturating arithmetic,
/// so no product overflows, and rejects a larger one with
/// [`AnalysisError::OverLimit`] before it allocates a cell.
pub const MAX_CELLS: usize = 1 << 14;

/// The time axis of a trajectory query: how far ahead to look, how often to
/// sample, and (for fleet cells) how wide each sampled mission window is.
///
/// Attached to a query with [`Query::time_horizon`]; consumed by
/// [`Query::trajectory_cell`] (guarantee of an aging fleet per window) and
/// [`Query::repairable_cell`] (first-passage reliability of a repairable group).
/// Plans accept at most [`MAX_TIME_POINTS`] sample times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeAxis {
    /// How far ahead (hours from now) the trajectory extends.
    pub horizon_hours: f64,
    /// Spacing between trajectory samples, in hours.
    pub step_hours: f64,
    /// Width of the sliding mission window evaluated at each sample (fleet cells
    /// only; defaults to the step).
    pub window_hours: f64,
    /// Optional reliability target in nines; when set, records report the first
    /// sample time at which the guarantee drops below it.
    pub target_nines: Option<f64>,
}

impl TimeAxis {
    /// A time axis sampling every `step_hours` out to `horizon_hours`, with the
    /// mission window defaulting to one step.
    ///
    /// # Panics
    ///
    /// Panics unless `horizon_hours >= 0` and `step_hours > 0` (both finite).
    pub fn new(horizon_hours: f64, step_hours: f64) -> Self {
        assert!(
            horizon_hours >= 0.0 && horizon_hours.is_finite(),
            "horizon must be finite and non-negative, got {horizon_hours}"
        );
        assert!(
            step_hours > 0.0 && step_hours.is_finite(),
            "step must be finite and positive, got {step_hours}"
        );
        Self {
            horizon_hours,
            step_hours,
            window_hours: step_hours,
            target_nines: None,
        }
    }

    /// Overrides the sliding mission-window width (fleet cells).
    ///
    /// # Panics
    ///
    /// Panics unless `window_hours > 0` and finite.
    pub fn with_window(mut self, window_hours: f64) -> Self {
        assert!(
            window_hours > 0.0 && window_hours.is_finite(),
            "window must be finite and positive, got {window_hours}"
        );
        self.window_hours = window_hours;
        self
    }

    /// Sets the reliability target (in nines) that trajectory records check their
    /// points against.
    pub fn with_target_nines(mut self, nines: f64) -> Self {
        assert!(
            nines >= 0.0,
            "target nines must be non-negative, got {nines}"
        );
        self.target_nines = Some(nines);
        self
    }

    /// The sample times of this axis: `0, step, 2·step, …` up to and including the
    /// horizon.
    ///
    /// Times are computed as `i · step` (never by accumulating `t += step`), so
    /// floating-point drift cannot silently drop the horizon sample: a horizon
    /// that is a whole number of steps — within a relative ulp, e.g.
    /// `horizon = 0.3, step = 0.1` — always yields its final sample.
    pub fn sample_times(&self) -> Vec<f64> {
        (0..=self.steps() as usize)
            .map(|i| i as f64 * self.step_hours)
            .collect()
    }

    /// Whole steps from `t = 0` to the horizon (one fewer than the sample times).
    fn steps(&self) -> f64 {
        (self.horizon_hours / self.step_hours * (1.0 + 1e-12)).floor()
    }

    /// Checks the axis invariants at plan time: axes built with struct-literal
    /// syntax bypass the constructor asserts (a non-positive step would make
    /// [`TimeAxis::sample_times`] unbounded), and no constructor bounds the
    /// length — a wire request's `1e12 / 0.001` would ask one worker for 8e15
    /// bytes. At most [`MAX_TIME_POINTS`] sample times pass.
    fn validate(&self) -> Result<(), AnalysisError> {
        let valid = self.horizon_hours >= 0.0
            && self.horizon_hours.is_finite()
            && self.step_hours > 0.0
            && self.step_hours.is_finite()
            && self.window_hours > 0.0
            && self.window_hours.is_finite()
            && self.target_nines.is_none_or(|n| n >= 0.0 && n.is_finite())
            && self.steps() < MAX_TIME_POINTS as f64;
        if valid {
            Ok(())
        } else {
            Err(AnalysisError::InvalidTimeAxis)
        }
    }
}

impl Default for TimeAxis {
    /// Five years ahead, sampled quarterly, quarter-wide mission windows — the
    /// cadence of the paper's aging-fleet walkthrough.
    fn default() -> Self {
        Self::new(5.0 * HOURS_PER_YEAR, HOURS_PER_YEAR / 4.0)
    }
}

/// Which kind of time-domain cell produced a [`TrajectoryRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// An aging fleet swept through sliding mission windows
    /// ([`Query::trajectory_cell`]), each window analysed by the counting
    /// engine.
    Fleet,
    /// A repairable group analysed as a continuous-time Markov chain
    /// ([`Query::repairable_cell`], backed by
    /// [`fault_model::markov::RepairableGroup`]).
    Repairable,
}

impl TrajectoryKind {
    /// Short label used in report columns ("fleet" / "repairable").
    pub fn label(&self) -> &'static str {
        match self {
            TrajectoryKind::Fleet => "fleet",
            TrajectoryKind::Repairable => "repairable",
        }
    }
}

/// One sample of a trajectory: the guarantee at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Hours from now.
    pub at_hours: f64,
    /// The guarantee at that time: safe-and-live probability over the mission
    /// window (fleet cells) or first-passage reliability `R(t)` (repairable cells).
    pub probability: f64,
}

/// One executed time-domain cell: the guarantee as a function of time, with the
/// derived operator metrics (first dip below target, steady-state availability,
/// mean time to threshold, unavailability minutes per year).
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryRecord {
    /// Cell label, as given to [`Query::trajectory_cell`] /
    /// [`Query::repairable_cell`].
    pub label: String,
    /// Which kind of time-domain model produced the record.
    pub kind: TrajectoryKind,
    /// The trajectory samples, in time order starting at `t = 0`.
    pub points: Vec<TrajectoryPoint>,
    /// The target (in nines) the points were checked against, if one was set on
    /// the [`TimeAxis`].
    pub target_nines: Option<f64>,
    /// First sample time (hours from now) at which the guarantee was below the
    /// target — `Some(0.0)` when it already starts there, `None` when the target
    /// held at every sample (or no target was set).
    pub first_below_target_hours: Option<f64>,
    /// The lowest probability along the trajectory.
    pub worst_probability: f64,
    /// The sample time at which that minimum occurs.
    pub worst_at_hours: f64,
    /// Long-run probability that the quorum is available (repairable cells only).
    pub steady_state_availability: Option<f64>,
    /// Mean time (hours) until more than the tolerated number of nodes are down
    /// simultaneously — the MTTDL analogue (repairable cells only; may be
    /// infinite when the threshold is unreachable).
    pub mean_time_to_threshold_hours: Option<f64>,
    /// Long-run expected unavailability in minutes per year (repairable cells
    /// only).
    pub unavailability_minutes_per_year: Option<f64>,
}

impl TrajectoryRecord {
    /// This one trajectory as a JSON value — exactly the element
    /// [`AnalysisReport::to_json_value`] puts in its `trajectories` array for
    /// this record (the report path delegates here), so streamed trajectories
    /// reassemble byte-identically into the one-shot report.
    pub fn to_json_value(&self) -> JsonValue {
        let points = self
            .points
            .iter()
            .map(|p| {
                JsonValue::Object(vec![
                    ("at_hours".to_string(), JsonValue::number(p.at_hours)),
                    ("probability".to_string(), JsonValue::number(p.probability)),
                ])
            })
            .collect();
        JsonValue::Object(vec![
            ("label".to_string(), JsonValue::string(&self.label)),
            ("kind".to_string(), JsonValue::string(self.kind.label())),
            ("points".to_string(), JsonValue::Array(points)),
            (
                "target_nines".to_string(),
                JsonValue::optional(self.target_nines),
            ),
            (
                "first_below_target_hours".to_string(),
                JsonValue::optional(self.first_below_target_hours),
            ),
            (
                "worst_probability".to_string(),
                JsonValue::number(self.worst_probability),
            ),
            (
                "worst_at_hours".to_string(),
                JsonValue::number(self.worst_at_hours),
            ),
            (
                "steady_state_availability".to_string(),
                JsonValue::optional(self.steady_state_availability),
            ),
            (
                "mean_time_to_threshold_hours".to_string(),
                JsonValue::optional(self.mean_time_to_threshold_hours),
            ),
            (
                "unavailability_minutes_per_year".to_string(),
                JsonValue::optional(self.unavailability_minutes_per_year),
            ),
        ])
    }

    /// This one trajectory as a single compact JSON line (no trailing newline) —
    /// the NDJSON streaming path, like [`CellRecord::to_json_line`].
    pub fn to_json_line(&self) -> String {
        self.to_json_value().to_compact_string()
    }
}

/// The z-score threshold past which a validated cell is flagged as a
/// first-class divergence finding ([`Divergence`]): |z| above this means the
/// empirical rate is not a sampling fluctuation around the analytic prediction
/// but a modelling gap the analytic engines cannot see — the query API's version
/// of the paper's "real life is uncertain" check.
pub const DIVERGENCE_Z: f64 = 3.0;

/// Which side of the analytic prediction the empirical measurement landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceDirection {
    /// The system measured *worse* than the model predicts — the dangerous
    /// direction: the analytic guarantee overpromises (e.g. a gray primary
    /// stalls liveness while the fault model, which only knows crash/Byzantine
    /// booleans, reports the cluster fully healthy).
    EmpiricalBelow,
    /// The system measured *better* than the model predicts — the conservative
    /// direction (e.g. the analytic mission-window semantics count a fault the
    /// executable cluster had time to ride out).
    EmpiricalAbove,
}

impl DivergenceDirection {
    /// Short label used in tables and JSON: `"below"` / `"above"`.
    pub fn label(self) -> &'static str {
        match self {
            DivergenceDirection::EmpiricalBelow => "below",
            DivergenceDirection::EmpiricalAbove => "above",
        }
    }
}

impl std::fmt::Display for DivergenceDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A flagged analytic-vs-empirical divergence: the empirical safe-and-live
/// frequency landed more than [`DIVERGENCE_Z`] standard errors from the analytic
/// prediction. Surfaced as a first-class finding — direction and magnitude in
/// the table, a structured object in JSON, enumerable via
/// [`AnalysisReport::divergent_cells`] — never hidden in a raw z column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// Which side of the prediction the measurement landed on.
    pub direction: DivergenceDirection,
    /// Absolute gap between the empirical frequency and the analytic
    /// probability, in probability units (not standard errors).
    pub magnitude: f64,
}

impl Divergence {
    /// The gap as a signed value: negative when the system measured worse than
    /// the model predicts.
    pub fn signed_gap(&self) -> f64 {
        match self.direction {
            DivergenceDirection::EmpiricalBelow => -self.magnitude,
            DivergenceDirection::EmpiricalAbove => self.magnitude,
        }
    }
}

/// One paired analytic-vs-empirical check: the simulation run requested by
/// [`Query::validate_with_simulation`] next to the cell's analytic prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationRecord {
    /// The empirical trial frequencies and trace statistics.
    pub simulation: SimulationReport,
    /// The analytic safe-and-live probability the simulation is checked against.
    pub analytic: f64,
    /// Standardized disagreement: `(empirical − analytic) / SE`, with the
    /// standard error taken from the empirical Wilson interval. |z| ≲ 2 means the
    /// simulation is consistent with the analytic prediction at the trial budget;
    /// persistent |z| > 3 flags a modelling (or implementation) gap.
    pub z_score: f64,
    /// The fault environment the paired simulation ran under (the cell budget's
    /// [`crate::engine::SimBudget::environment`]).
    pub environment: FaultEnvironment,
    /// The structured divergence finding, present iff |z| > [`DIVERGENCE_Z`].
    pub divergence: Option<Divergence>,
}

impl ValidationRecord {
    /// Whether the empirical rate is within `sigmas` standard errors of the
    /// analytic prediction.
    pub fn agrees_within(&self, sigmas: f64) -> bool {
        self.z_score.abs() <= sigmas
    }
}

/// What one cell runs against: the two [`Scenario`] shapes, owned.
#[derive(Debug, Clone)]
enum ScenarioSpec {
    Independent(Deployment),
    Correlated(CorrelationModel),
}

impl ScenarioSpec {
    fn as_scenario(&self) -> Scenario<'_> {
        match self {
            ScenarioSpec::Independent(d) => Scenario::Independent(d),
            ScenarioSpec::Correlated(c) => Scenario::Correlated(c),
        }
    }

    /// The scenario with every fault profile rescaled by `factor` — the
    /// per-draw transform of the epistemic mode. Crash/Byzantine structure and
    /// the `[0, 1]` clamps come from [`fault_model::mode::FaultProfile::scaled`];
    /// correlation-group shock probabilities are deliberately untouched (the
    /// posterior models per-node telemetry, not common-cause shocks).
    fn scaled(&self, factor: f64) -> ScenarioSpec {
        let scale = |profiles: &[fault_model::mode::FaultProfile]| {
            profiles
                .iter()
                .map(|p| p.scaled(factor))
                .collect::<Vec<_>>()
        };
        match self {
            ScenarioSpec::Independent(d) => {
                ScenarioSpec::Independent(Deployment::from_profiles(scale(d.profiles())))
            }
            ScenarioSpec::Correlated(c) => {
                let mut model = CorrelationModel::independent(scale(c.profiles()));
                for group in c.groups() {
                    model = model.with_group(group.clone());
                }
                ScenarioSpec::Correlated(model)
            }
        }
    }
}

/// One fully explicit cell (model + scenario) appended after the grid.
#[derive(Clone)]
struct ExplicitCell {
    label: String,
    model: Arc<dyn ProtocolModel + Send + Sync>,
    scenario: ScenarioSpec,
    /// Per-cell budget override (validated at plan time like the base budget).
    /// `None` — the common case — inherits the query budget. The optimizer
    /// ([`crate::optimize`]) uses overrides to give every candidate its own
    /// salted seed and per-tier sample budget inside one scheduled plan.
    budget: Option<Budget>,
    /// Whether this cell's scratch lives in the optimizer cache namespace
    /// ([`OPTIMIZER_KEY_TAG`] prefixed onto the content key) instead of the
    /// plain explicit-cell namespace.
    optimizer: bool,
}

/// One time-domain cell: a fleet swept through mission windows, or a repairable
/// group analysed as a Markov chain.
#[derive(Clone)]
enum TrajectorySpec {
    Fleet {
        label: String,
        model: Arc<dyn ProtocolModel + Send + Sync>,
        fleet: Fleet,
    },
    Repairable {
        label: String,
        group: RepairableGroup,
    },
}

/// A batch analysis request: grid axes whose cartesian product forms the sweep,
/// plus explicit cells, time-domain cells, a budget and the requested metrics. See
/// the module docs for the full lifecycle.
///
/// Grid cells are emitted in axis-nesting order: protocols, then nodes, then fault
/// probabilities, then correlation variants, then sample budgets — with explicit
/// cells appended last, in insertion order. [`AnalysisReport::cells`] preserves this
/// order, so callers can index cells arithmetically when rebuilding a table.
///
/// # Examples
///
/// A steady-state sweep next to a time-domain repairable-fleet cell:
///
/// ```
/// use fault_model::markov::RepairableGroup;
/// use prob_consensus::query::{AnalysisSession, ProtocolSpec, Query, TimeAxis};
///
/// let query = Query::new()
///     .protocols([ProtocolSpec::Raft])
///     .nodes([3usize, 5])
///     .fault_probs([0.01])
///     .time_horizon(TimeAxis::new(20_000.0, 5_000.0).with_target_nines(3.0))
///     // 5 nodes, λ = 1e-4/h, repaired in ~10h, majority quorum tolerates 2 down.
///     .repairable_cell("repairable-5", RepairableGroup::new(5, 1e-4, 0.1, 2));
/// assert_eq!(query.cell_count(), 2);
/// assert_eq!(query.trajectory_count(), 1);
///
/// let report = AnalysisSession::new().run(&query).expect("well-formed query");
/// let record = report.trajectory(0);
/// assert_eq!(record.points.len(), 5); // t = 0, 5k, 10k, 15k, 20k hours
/// assert_eq!(record.points[0].probability, 1.0);
/// assert!(record.steady_state_availability.unwrap() > 0.999_999);
/// ```
#[derive(Clone)]
pub struct Query {
    protocols: Vec<ProtocolSpec>,
    nodes: Vec<usize>,
    fault_probs: Vec<f64>,
    fault_axis: FaultAxis,
    correlations: Vec<CorrelationSpec>,
    sample_budgets: Vec<usize>,
    environments: Vec<FaultEnvironment>,
    budget: Budget,
    metrics: Metrics,
    explicit: Vec<ExplicitCell>,
    time_axis: Option<TimeAxis>,
    trajectories: Vec<TrajectorySpec>,
    validation: bool,
}

impl Default for Query {
    fn default() -> Self {
        Self::new()
    }
}

impl Query {
    /// An empty query: no grid axes, no explicit cells, default budget, crash
    /// faults, independent correlation, all metrics.
    pub fn new() -> Self {
        Self {
            protocols: Vec::new(),
            nodes: Vec::new(),
            fault_probs: Vec::new(),
            fault_axis: FaultAxis::Crash,
            correlations: vec![CorrelationSpec::Independent],
            sample_budgets: Vec::new(),
            environments: Vec::new(),
            budget: Budget::default(),
            metrics: Metrics::default(),
            explicit: Vec::new(),
            time_axis: None,
            trajectories: Vec::new(),
            validation: false,
        }
    }

    /// The protocol axis of the grid.
    ///
    /// The protocols' Monte Carlo cells over one scenario are estimated on common
    /// draws: they share the seed, and a kernel's draws depend on the scenario
    /// alone, so every protocol counts hits on the same sampled failure
    /// configurations (common random numbers). Their errors are correlated, which
    /// sharpens protocol-vs-protocol comparisons. On the packed kernel the
    /// scheduler draws each shared chunk once for all of them
    /// ([`QueryPlan::execute`]); the scalar kernel tallies inside its draw loop,
    /// so its chunks are shared only within one protocol.
    pub fn protocols(mut self, protocols: impl IntoIterator<Item = ProtocolSpec>) -> Self {
        self.protocols = protocols.into_iter().collect();
        self
    }

    /// The cluster-size axis of the grid (any iterator of sizes, e.g. `3..=9`).
    pub fn nodes(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.nodes = nodes.into_iter().collect();
        self
    }

    /// The per-node fault-probability axis of the grid (see [`logspace`]).
    pub fn fault_probs(mut self, probs: impl IntoIterator<Item = f64>) -> Self {
        self.fault_probs = probs.into_iter().collect();
        self
    }

    /// How the fault-probability axis maps onto fault modes (crash by default).
    pub fn faults(mut self, axis: FaultAxis) -> Self {
        self.fault_axis = axis;
        self
    }

    /// The correlation-variant axis of the grid (`[Independent]` by default).
    pub fn correlations(mut self, specs: impl IntoIterator<Item = CorrelationSpec>) -> Self {
        self.correlations = specs.into_iter().collect();
        self
    }

    /// Sweeps the Monte Carlo sample budget itself — a convergence axis. Each grid
    /// cell is replicated once per entry with
    /// [`Budget::with_samples`] applied; when empty (the default) the base budget's
    /// sample count is used as the single entry.
    ///
    /// The replicates of one scenario are estimated on common, nested draws:
    /// they share the seed, so chunk `i` draws the same scenarios in every
    /// replicate and a smaller budget's samples are a prefix of a larger one's.
    /// Their estimates are correlated — the axis shows one estimate converging,
    /// not independent repetitions (sweep the seed for those) — and the scheduler
    /// draws each shared chunk once for all of them ([`QueryPlan::execute`]).
    pub fn samples_sweep(mut self, samples: impl IntoIterator<Item = usize>) -> Self {
        self.sample_budgets = samples.into_iter().collect();
        self
    }

    /// The fault-environment axis of the grid: each grid cell is replicated once
    /// per entry with the environment applied to its simulation budget
    /// ([`crate::engine::SimBudget::environment`]). When empty (the default) the
    /// base budget's environment is the single entry, so queries that never
    /// mention environments behave exactly as before.
    ///
    /// The axis shapes the *empirical* side only: the analytic engines model
    /// crash/Byzantine faults, not gray failures or healing partitions, so the
    /// analytic columns of an environment-swept grid repeat across environments —
    /// which is the point. Paired with [`Query::validate_with_simulation`], cells
    /// where the executable system measurably departs from the analytic
    /// prediction are flagged as [`Divergence`] findings.
    pub fn fault_environments(
        mut self,
        environments: impl IntoIterator<Item = FaultEnvironment>,
    ) -> Self {
        self.environments = environments.into_iter().collect();
        self
    }

    /// The work budget shared by every cell (validated at plan time).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The second-order (epistemic) axis: every cell additionally runs `draws`
    /// posterior parameter draws — fault probabilities rescaled by samples from
    /// a Beta(`alpha`, `beta`) posterior (typically the hyperparameters of
    /// `TelemetryEstimator::posterior()`) — through its selected engine, and
    /// its [`CellRecord`] carries an [`EpistemicReport`] separating the
    /// epistemic credible interval from the aleatoric sampling interval. See
    /// [`crate::epistemic`] for the determinism contract.
    ///
    /// Hyperparameters are validated at plan time
    /// ([`crate::engine::Budget::validate`]), never asserted here, so a
    /// malformed wire request degrades to a recoverable plan error. A budget
    /// of one draw degenerates to the first-order report, bit for bit.
    pub fn posterior(mut self, draws: usize, alpha: f64, beta: f64) -> Self {
        self.budget = self.budget.with_posterior(draws, alpha, beta);
        self
    }

    /// Which guarantees the report renders.
    pub fn metrics(mut self, metrics: Metrics) -> Self {
        self.metrics = metrics;
        self
    }

    /// Appends an explicit cell: any protocol model on an independent deployment.
    /// For scenarios the grid axes cannot express (placement-sensitive models,
    /// heterogeneous fleets).
    pub fn cell(
        mut self,
        label: impl Into<String>,
        model: Arc<dyn ProtocolModel + Send + Sync>,
        deployment: Deployment,
    ) -> Self {
        self.explicit.push(ExplicitCell {
            label: label.into(),
            model,
            scenario: ScenarioSpec::Independent(deployment),
            budget: None,
            optimizer: false,
        });
        self
    }

    /// Appends an explicit cell with a correlated failure model.
    pub fn cell_correlated(
        mut self,
        label: impl Into<String>,
        model: Arc<dyn ProtocolModel + Send + Sync>,
        target: CorrelationModel,
    ) -> Self {
        self.explicit.push(ExplicitCell {
            label: label.into(),
            model,
            scenario: ScenarioSpec::Correlated(target),
            budget: None,
            optimizer: false,
        });
        self
    }

    /// Appends one optimizer candidate cell: a correlated failure model (zero
    /// groups for independent candidates — the engines treat them alike), a
    /// per-candidate budget override (salted seed, tier sample count), and
    /// scratch namespaced under [`OPTIMIZER_KEY_TAG`]. Only the optimizer
    /// ([`crate::optimize`]) plans these.
    pub(crate) fn optimizer_cell(
        mut self,
        label: impl Into<String>,
        model: Arc<dyn ProtocolModel + Send + Sync>,
        target: CorrelationModel,
        budget: Budget,
    ) -> Self {
        self.explicit.push(ExplicitCell {
            label: label.into(),
            model,
            scenario: ScenarioSpec::Correlated(target),
            budget: Some(budget),
            optimizer: true,
        });
        self
    }

    /// Sets the time axis trajectory cells sample over — see [`TimeAxis`]. Cells
    /// added by [`Query::trajectory_cell`] / [`Query::repairable_cell`] use
    /// [`TimeAxis::default`] (five years, quarterly) when no axis is set.
    pub fn time_horizon(mut self, axis: TimeAxis) -> Self {
        self.time_axis = Some(axis);
        self
    }

    /// Appends a time-domain cell: the guarantee of `model` on the aging `fleet`,
    /// evaluated over a sliding mission window at every step of the time axis
    /// (reliability over time, worst point, first dip below the target).
    ///
    /// The model must be a counting model ([`crate::protocol::CountingModel`]) of
    /// the fleet's size; both are checked at plan time.
    pub fn trajectory_cell(
        mut self,
        label: impl Into<String>,
        model: Arc<dyn ProtocolModel + Send + Sync>,
        fleet: Fleet,
    ) -> Self {
        self.trajectories.push(TrajectorySpec::Fleet {
            label: label.into(),
            model,
            fleet,
        });
        self
    }

    /// Appends a repairable-fleet cell: a group of nodes failing at rate λ and
    /// repaired at rate μ, analysed as a birth–death Markov chain
    /// ([`fault_model::markov::RepairableGroup`]) — first-passage reliability
    /// `R(t)` along the time axis, steady-state quorum availability, mean time to
    /// threshold exceedance (the MTTDL analogue), and unavailability minutes per
    /// year.
    pub fn repairable_cell(mut self, label: impl Into<String>, group: RepairableGroup) -> Self {
        self.trajectories.push(TrajectorySpec::Repairable {
            label: label.into(),
            group,
        });
        self
    }

    /// Requests a paired simulation run for every grid and explicit cell whose
    /// model has an executable counterpart ([`crate::protocol::ExecutableSpec`]):
    /// each such cell's [`CellRecord`] carries a [`ValidationRecord`] with the
    /// empirical safe-and-live frequency and the analytic-vs-empirical z-score.
    /// Cells without an executable counterpart stay analytic-only.
    ///
    /// The trial count comes from the budget's [`SimBudget`](crate::engine::SimBudget)
    /// ([`Budget::with_sim_trials`](crate::engine::Budget::with_sim_trials)), so
    /// there is exactly one place to tune it.
    pub fn validate_with_simulation(mut self) -> Self {
        self.validation = true;
        self
    }

    /// Number of time-domain cells ([`Query::trajectory_cell`] /
    /// [`Query::repairable_cell`]); these render as [`TrajectoryRecord`]s, not
    /// [`CellRecord`]s, so they are not part of [`Query::cell_count`].
    pub fn trajectory_count(&self) -> usize {
        self.trajectories.len()
    }

    /// Number of cells the query expands to (grid product plus explicit cells).
    /// Saturates at `usize::MAX` rather than overflowing.
    pub fn cell_count(&self) -> usize {
        self.axis_lengths()
            .iter()
            .map(|&(_, len)| len)
            .fold(1, usize::saturating_mul)
            .saturating_add(self.explicit.len())
    }

    /// The grid axes by name, each with the number of entries it contributes to
    /// the grid product (an empty samples or environment axis is one entry: the
    /// base budget's).
    fn axis_lengths(&self) -> [(&'static str, usize); 6] {
        [
            ("protocols", self.protocols.len()),
            ("nodes", self.nodes.len()),
            ("fault_probs", self.fault_probs.len()),
            ("correlations", self.correlations.len()),
            ("samples_sweep", self.sample_budgets.len().max(1)),
            ("environments", self.environments.len().max(1)),
        ]
    }

    /// The base budget (before the samples sweep is applied).
    pub fn base_budget(&self) -> &Budget {
        &self.budget
    }
}

/// Namespace tag of grid-cell cache keys (coordinate encoding).
const GRID_KEY_TAG: u64 = 0;
/// Namespace tag of explicit-cell cache keys (content encoding).
const CONTENT_KEY_TAG: u64 = 1;
/// Namespace tag of epistemic-draw cache keys: `[tag, alpha bits, beta bits,
/// seed, draw index]` prefixed onto the base cell's key words. The tag keeps a
/// second-order draw's scratch (kernel compiled for the *scaled* scenario) from
/// ever aliasing the first-order cell's scratch, and the draw index separates
/// sibling draws; the draw count is deliberately excluded — draw `k`'s scenario
/// is independent of how many draws follow it, so plans with different `K`
/// share prefixes.
const EPISTEMIC_KEY_TAG: u64 = 2;
/// Namespace tag of optimizer candidate cells: the tag prefixed onto the
/// candidate's content key words (which themselves begin with
/// [`CONTENT_KEY_TAG`]), so an optimizer candidate's scratch can never alias a
/// first-order explicit cell of identical content, a grid cell, or an
/// epistemic draw — the four namespaces differ in their first word. Candidates
/// of *both* refinement tiers share one scratch group per (model, scenario)
/// inside the namespace: the screening tier's converted correlation model and
/// compiled kernel are reused by the importance-sampling re-score, and the
/// re-score's learned proposal is reused by later searches of the same space
/// (proposals are keyed by seed inside the group). Pinned by the
/// cache-aliasing regression tests in [`crate::optimize`].
pub(crate) const OPTIMIZER_KEY_TAG: u64 = 3;

/// Structural identity of a grid cell's (model, scenario) pair — the axes build
/// both deterministically, so the coordinates *are* the content. Fixed layout:
/// `[tag, protocol variant, q_per, q_vc, n, p bits, axis tag, axis bits,
/// correlation tag, correlation racks, correlation bits]` (zeroes where a
/// variant has no such parameter).
fn grid_key_words(
    spec: ProtocolSpec,
    n: usize,
    fault_prob: f64,
    fault_axis: (u8, u64),
    correlation: (u8, usize, u64),
) -> Vec<u64> {
    let (variant, q_per, q_vc) = match spec {
        ProtocolSpec::Raft => (0u64, 0u64, 0u64),
        ProtocolSpec::RaftFlexible { q_per, q_vc } => (1, q_per as u64, q_vc as u64),
        ProtocolSpec::Pbft => (2, 0, 0),
    };
    vec![
        GRID_KEY_TAG,
        variant,
        q_per,
        q_vc,
        n as u64,
        fault_prob.to_bits(),
        fault_axis.0 as u64,
        fault_axis.1,
        correlation.0 as u64,
        correlation.1 as u64,
        correlation.2,
    ]
}

/// Structural identity of an explicit cell's (model, scenario) pair: the model's
/// [`cache_signature`](ProtocolModel::cache_signature) (length-prefixed) followed
/// by the scenario's full content — every profile's probability bits plus every
/// correlation group's members, shock-probability bits and shock mode. `None`
/// when the model has no stable signature, in which case the cell gets
/// plan-local scratch (always correct, never amortized).
pub(crate) fn content_key_words(
    model: &dyn ProtocolModel,
    scenario: Scenario<'_>,
) -> Option<Vec<u64>> {
    let sig = model.cache_signature()?;
    let mut words = Vec::with_capacity(4 + sig.len() + 2 * scenario.len());
    words.push(CONTENT_KEY_TAG);
    words.push(sig.len() as u64);
    words.extend(sig);
    let profiles = scenario.profiles();
    words.push(profiles.len() as u64);
    for profile in profiles {
        words.push(profile.crash_probability().to_bits());
        words.push(profile.byzantine_probability().to_bits());
    }
    // An independent deployment encodes as zero correlation groups — it *is* a
    // correlation model with no groups, and every engine treats them alike.
    let groups: &[CorrelationGroup] = match scenario {
        Scenario::Independent(_) => &[],
        Scenario::Correlated(c) => c.groups(),
    };
    words.push(groups.len() as u64);
    for group in groups {
        words.push(group.members.len() as u64);
        words.extend(group.members.iter().map(|&m| m as u64));
        words.push(group.shock_probability.to_bits());
        words.push(match group.shock_mode {
            fault_model::mode::NodeState::Correct => 0,
            fault_model::mode::NodeState::Crashed => 1,
            fault_model::mode::NodeState::Byzantine => 2,
        });
    }
    Some(words)
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
    models: Mutex<HashMap<(ProtocolSpec, usize), Arc<dyn ProtocolModel + Send + Sync>>>,
    cache: SessionCache,
    pool: Option<Arc<rayon::ThreadPool>>,
}

impl Default for AnalysisSession {
    fn default() -> Self {
        Self {
            models: Mutex::new(HashMap::new()),
            cache: SessionCache::new(Self::CACHE_CAPACITY),
            pool: None,
        }
    }
}

impl AnalysisSession {
    /// Bound on cached (model, scenario) scratch groups — a few thousand
    /// compiled kernels and converted correlation models. Scratch is a pure
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

    fn model(&self, spec: ProtocolSpec, n: usize) -> Arc<dyn ProtocolModel + Send + Sync> {
        if let Some(model) = self.models.lock().unwrap().get(&(spec, n)) {
            return Arc::clone(model);
        }
        // Build outside the lock: constructors panic on invalid (spec, n)
        // combinations, and a long-running session (the server) must survive a
        // rejected plan without poisoning the model cache.
        let model = spec.build(n);
        Arc::clone(
            self.models
                .lock()
                .unwrap()
                .entry((spec, n))
                .or_insert(model),
        )
    }

    /// A snapshot of the scratch-cache counters (hits, misses, evictions,
    /// resident entries) — the observability surface behind the server
    /// protocol's `stats` request.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops all cached per-(model, scenario) scratch (converted correlation
    /// models, compiled packed kernels, pilot estimates, learned proposals).
    /// Purely a memory lever: subsequent plans recompute on demand with
    /// identical results.
    pub fn clear_scratch(&self) {
        self.cache.clear();
        self.models.lock().unwrap().clear();
    }

    /// Expands the budget's epistemic axis into the planned draws for one cell
    /// group: the deterministic posterior draws
    /// ([`crate::epistemic::posterior_draws`]), each paired with its scaled
    /// scenario and its own cached scratch group.
    ///
    /// Draw scratch is cached under [`EPISTEMIC_KEY_TAG`] with the draw's
    /// hyperparameters, seed and index prefixed onto the base cell's key words,
    /// so a second-order draw can never alias the first-order cell whose kernel
    /// was compiled for the *unscaled* scenario (pinned by the cache-aliasing
    /// regression test below). Cells without a stable base key (models without
    /// a cache signature) get plan-local draw scratch.
    ///
    /// Returns no draws for first-order budgets and for single-draw budgets:
    /// one draw carries no spread to summarize, so `K = 1` degenerates to the
    /// point-estimate report bit for bit.
    fn plan_draws(
        &self,
        budget: &Budget,
        scenario: &ScenarioSpec,
        base_key: Option<&[u64]>,
    ) -> Arc<Vec<PlannedDraw>> {
        let Some(ep) = budget.epistemic.filter(|ep| ep.draws > 1) else {
            return Arc::new(Vec::new());
        };
        Arc::new(
            crate::epistemic::posterior_draws(&ep, budget.seed)
                .into_iter()
                .enumerate()
                .map(|(k, draw)| {
                    let scratch = match base_key {
                        Some(words) => {
                            let mut key = vec![
                                EPISTEMIC_KEY_TAG,
                                ep.alpha.to_bits(),
                                ep.beta.to_bits(),
                                budget.seed,
                                k as u64,
                            ];
                            key.extend_from_slice(words);
                            self.cache.get_or_insert(CacheKey::from_words(key))
                        }
                        None => Arc::new(GroupScratch::default()),
                    };
                    PlannedDraw {
                        p: draw.p,
                        scale: draw.scale,
                        scenario: scenario.scaled(draw.scale),
                        scratch,
                    }
                })
                .collect(),
        )
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
        // A validated cell runs its paired simulation only if the simulation engine
        // supports it: the model has an executable counterpart of the scenario's size.
        let validation_for = |model: &dyn ProtocolModel, scenario: Scenario<'_>| {
            query.validation && SimulationEngine.supports(model, scenario, &query.budget)
        };
        let plan_cells = || -> Result<Vec<PlannedCell>, AnalysisError> {
            let mut cells = Vec::with_capacity(query.cell_count());
            for &spec in &query.protocols {
                for &n in &query.nodes {
                    if n == 0 {
                        return Err(AnalysisError::EmptyScenario);
                    }
                    let model = self.model(spec, n);
                    for &p in &query.fault_probs {
                        let deployment = query.fault_axis.deployment(n, p);
                        for corr in &query.correlations {
                            let scenario = corr.apply(deployment.clone());
                            let key_words =
                                grid_key_words(spec, n, p, query.fault_axis.key(), corr.key());
                            let scratch = self
                                .cache
                                .get_or_insert(CacheKey::from_words(key_words.clone()));
                            // The epistemic draws of this coordinate, shared by
                            // its samples/environment replicates: the draw set
                            // depends only on (hyperparameters, seed), and the
                            // scaled scenarios only on this scenario.
                            let draws = self.plan_draws(&query.budget, &scenario, Some(&key_words));
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
                                    let engine = select_engine(
                                        model.as_ref(),
                                        scenario.as_scenario(),
                                        &budget,
                                        &scratch,
                                    );
                                    let mut label =
                                        format!("{}/N={n}/p={p}/{}", spec.label(), corr.label());
                                    if environment != FaultEnvironment::Clean {
                                        label.push_str("/env=");
                                        label.push_str(environment.label());
                                    }
                                    cells.push(PlannedCell {
                                        label,
                                        protocol: spec.label(),
                                        nodes: n,
                                        fault_prob: Some(p),
                                        correlation: corr.label(),
                                        environment,
                                        validate: validation_for(
                                            model.as_ref(),
                                            scenario.as_scenario(),
                                        ),
                                        model: model.clone(),
                                        scenario: scenario.clone(),
                                        budget,
                                        engine,
                                        scratch: scratch.clone(),
                                        draws: draws.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
            for explicit in &query.explicit {
                let scenario = explicit.scenario.as_scenario();
                if scenario.is_empty() {
                    return Err(AnalysisError::EmptyScenario);
                }
                if explicit.model.num_nodes() != scenario.len() {
                    return Err(AnalysisError::SizeMismatch {
                        model_nodes: explicit.model.num_nodes(),
                        scenario_nodes: scenario.len(),
                    });
                }
                // Explicit cells hit the session cache too, keyed by model
                // content fingerprint + full scenario content — the dominant
                // server workload is repeated single-cell requests. Models
                // without a stable signature get plan-local scratch. Optimizer
                // candidates prepend their namespace tag so candidate scratch
                // never aliases a plain cell of identical content (see
                // [`OPTIMIZER_KEY_TAG`]).
                let budget = explicit.budget.as_ref().unwrap_or(&query.budget);
                let key_words =
                    content_key_words(explicit.model.as_ref(), scenario).map(|mut words| {
                        if explicit.optimizer {
                            words.insert(0, OPTIMIZER_KEY_TAG);
                        }
                        words
                    });
                let scratch = match key_words.clone() {
                    Some(words) => self.cache.get_or_insert(CacheKey::from_words(words)),
                    None => Arc::new(GroupScratch::default()),
                };
                let draws = self.plan_draws(budget, &explicit.scenario, key_words.as_deref());
                let engine = select_engine(explicit.model.as_ref(), scenario, budget, &scratch);
                let correlation = match &explicit.scenario {
                    ScenarioSpec::Independent(_) => "independent".to_string(),
                    ScenarioSpec::Correlated(c) if c.is_correlated() => "correlated".to_string(),
                    ScenarioSpec::Correlated(_) => "independent".to_string(),
                };
                // Explicit cells keep the base budget's environment — the axis
                // sweeps the grid; a bespoke cell pins its own budget.
                cells.push(PlannedCell {
                    label: explicit.label.clone(),
                    protocol: explicit.model.name(),
                    nodes: explicit.model.num_nodes(),
                    fault_prob: None,
                    correlation,
                    environment: budget.sim.environment,
                    validate: validation_for(explicit.model.as_ref(), scenario),
                    model: explicit.model.clone(),
                    scenario: explicit.scenario.clone(),
                    budget: *budget,
                    engine,
                    scratch,
                    draws,
                });
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
    scenario: ScenarioSpec,
    budget: Budget,
    engine: &'static dyn AnalysisEngine,
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
/// scenarios compile their own kernels; see [`EPISTEMIC_KEY_TAG`]).
struct PlannedDraw {
    p: f64,
    scale: f64,
    scenario: ScenarioSpec,
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
    scenario: Scenario<'_>,
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
                    let deployment = Deployment::from_profiles(profiles);
                    let outcome = CountingEngine.run(model.as_ref(), (&deployment).into(), &budget);
                    TrajectoryPoint {
                        at_hours: t,
                        probability: outcome.report.safe_and_live.probability(),
                    }
                })
                .collect();
            (label, TrajectoryKind::Fleet, points, None)
        }
        TrajectorySpec::Repairable { label, group } => {
            let points = times
                .map(|t| TrajectoryPoint {
                    at_hours: t,
                    probability: group.reliability_at(t),
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
    /// A whole cell through its engine's
    /// [`run_prepared`](AnalysisEngine::run_prepared) — the exact engines and
    /// importance sampling, whose bodies have no chunk structure to expose.
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

/// The aleatoric (sampling) interval an outcome puts on the joint safe-and-live
/// probability: the Monte Carlo confidence interval when a sampler ran, the
/// importance-sampling interval for rare-event cells, and the collapsed
/// `(v, v)` interval for exact engines (no sampling error to report).
fn outcome_bounds(outcome: &AnalysisOutcome) -> (f64, f64) {
    if let Some(mc) = &outcome.monte_carlo {
        (mc.safe_and_live.lower, mc.safe_and_live.upper)
    } else if let Some(re) = &outcome.rare_event {
        (re.safe_and_live.lower, re.safe_and_live.upper)
    } else {
        let v = outcome.report.safe_and_live.probability();
        (v, v)
    }
}

impl PlannedCell {
    /// This cell's engine, whole, on `scenario` — its own, or a posterior draw's
    /// scaled one — over that scenario's scratch.
    fn run_whole(&self, scenario: &ScenarioSpec, scratch: &GroupScratch) -> ItemOutput {
        ItemOutput::Outcome(Box::new(self.engine.run_prepared(
            self.model.as_ref(),
            scenario.as_scenario(),
            &self.budget,
            scratch,
        )))
    }

    /// The Monte Carlo sampler of this cell over its group scratch — what a chunk
    /// item draws from and what the merge reports through.
    fn sampler(&self) -> McSampler<'_, dyn ProtocolModel + '_> {
        McSampler::prepare(
            self.model.as_ref(),
            self.scenario.as_scenario(),
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
        self.cells[index].engine.choice()
    }

    /// The engines selected for all cells, in query order.
    pub fn engines(&self) -> Vec<EngineChoice> {
        self.cells.iter().map(|c| c.engine.choice()).collect()
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
    /// [`analyze_auto`](crate::analyzer::analyze_auto) /
    /// [`analyze_scenario`](crate::analyzer::analyze_scenario) loop at any thread
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
            *slots[slot].lock().unwrap() = Some((output, elapsed));
            // AcqRel: the last decrementer must observe every sibling's slot
            // write (the Mutex release alone orders only same-slot accesses).
            if countdown[cell].fetch_sub(1, Ordering::AcqRel) == 1 {
                let record = self.complete_cell(cell, spans[cell], &slots);
                sink.on_cell(cell, &record);
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
                    *trajectory_slots[*index].lock().unwrap() = Some(record);
                }
            }
        });
        AnalysisReport {
            metrics: self.metrics,
            cells: cell_slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap()
                        .expect("every cell completed before for_each_task returned")
                })
                .collect(),
            trajectories: trajectory_slots
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .unwrap()
                        .expect("every trajectory completed before for_each_task returned")
                })
                .collect(),
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
        let outcome = if cell.engine.choice() == EngineChoice::MonteCarlo {
            let mut hits = HitCounts::default();
            for item in start..start + base_len {
                match take(item) {
                    ItemOutput::Hits(chunk_hits) => hits = hits + chunk_hits,
                    _ => unreachable!("Monte Carlo cells decompose into chunk items"),
                }
            }
            MonteCarloEngine::outcome(cell.sampler().report(hits))
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
                    let (lower, upper) = outcome_bounds(&outcome);
                    EpistemicDraw {
                        p: draw.p,
                        scale: draw.scale,
                        value: outcome.report.safe_and_live.probability(),
                        lower,
                        upper,
                    }
                })
                .collect();
            EpistemicReport::from_draws(level, records, outcome_bounds(&outcome))
        });
        // The paired simulation needs the merged analytic estimate, so it runs
        // here, on this cell's completion — not as a plan-wide second wave. It is
        // a pure function of (model, scenario, budget, estimate), so where it
        // runs never shows in the record.
        let validation = cell.validate.then(|| {
            let start = Instant::now();
            let record = validation_record(
                cell.model.as_ref(),
                cell.scenario.as_scenario(),
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
            engine: cell.engine.choice(),
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
            let base = if cell.engine.choice() == EngineChoice::MonteCarlo {
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
                match cell.engine.choice() {
                    // O(N²) closed form — the cheapest engine by far.
                    EngineChoice::Counting => nodes * nodes,
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

/// One executed cell: where it sits in the sweep, which engine (and kernel) ran,
/// and the full [`AnalysisOutcome`] with estimates and confidence intervals.
#[derive(Debug, Clone)]
pub struct CellRecord {
    /// Human-readable cell id (grid cells: `protocol/N=../p=../correlation`).
    pub label: String,
    /// Protocol label (grid cells) or model name (explicit cells).
    pub protocol: String,
    /// Cluster size.
    pub nodes: usize,
    /// The swept per-node fault probability (grid cells only).
    pub fault_prob: Option<f64>,
    /// Correlation-variant label.
    pub correlation: String,
    /// The fault environment this cell's empirical side runs under
    /// ([`Query::fault_environments`]; [`FaultEnvironment::Clean`] when the query
    /// has no environment axis). The analytic outcome is environment-blind.
    pub environment: FaultEnvironment,
    /// The sample budget this cell was allotted (sampling engines draw this many).
    pub samples_budget: usize,
    /// The engine the planner selected.
    pub engine: EngineChoice,
    /// The analysis result, including sampling estimates when an estimator ran.
    pub outcome: AnalysisOutcome,
    /// The paired analytic-vs-empirical check, when the query requested
    /// cross-validation ([`Query::validate_with_simulation`]) and this cell's
    /// model has an executable counterpart.
    pub validation: Option<ValidationRecord>,
    /// The second-order uncertainty report, when the query carried a posterior
    /// axis ([`Query::posterior`] with more than one draw): the epistemic
    /// credible interval over the posterior draws next to the base cell's
    /// aleatoric (sampling) interval.
    pub epistemic: Option<EpistemicReport>,
    /// Wall-clock nanoseconds spent executing the scheduled work items that fed
    /// this cell, summed across items (sample chunks may run on different workers
    /// concurrently, so this is aggregate compute time, not elapsed sweep time;
    /// the paired validation run is included when one ran). A sample chunk drawn
    /// once for several cells — see [`QueryPlan::execute`] — is charged in full
    /// to every cell it fed, so the cells of one plan can sum to more than the
    /// compute it took.
    pub wall_ns: u64,
}

impl CellRecord {
    /// The sampling kernel that drew this cell's samples (Monte Carlo cells only).
    pub fn kernel(&self) -> Option<McKernel> {
        self.outcome.monte_carlo.map(|mc| mc.kernel)
    }

    /// Samples actually drawn (sampling engines only; includes any rare-event ESS
    /// escalation).
    pub fn samples_drawn(&self) -> Option<usize> {
        self.outcome
            .monte_carlo
            .map(|mc| mc.samples)
            .or_else(|| self.outcome.rare_event.map(|re| re.samples))
    }

    /// Effective sample size (importance-sampling cells only).
    pub fn ess(&self) -> Option<f64> {
        self.outcome.rare_event.map(|re| re.ess)
    }

    /// The 95% interval bounds for one metric, when an estimator produced them.
    fn bounds(&self, metric: MetricKind) -> Option<(f64, f64)> {
        let pick = |safe: crate::montecarlo::Estimate,
                    live: crate::montecarlo::Estimate,
                    both: crate::montecarlo::Estimate| {
            let e = match metric {
                MetricKind::Safe => safe,
                MetricKind::Live => live,
                MetricKind::SafeAndLive => both,
            };
            (e.lower, e.upper)
        };
        if let Some(mc) = self.outcome.monte_carlo {
            Some(pick(mc.safe, mc.live, mc.safe_and_live))
        } else {
            self.outcome
                .rare_event
                .map(|re| pick(re.safe, re.live, re.safe_and_live))
        }
    }

    fn probability(&self, metric: MetricKind) -> f64 {
        match metric {
            MetricKind::Safe => self.outcome.report.safe.probability(),
            MetricKind::Live => self.outcome.report.live.probability(),
            MetricKind::SafeAndLive => self.outcome.report.safe_and_live.probability(),
        }
    }

    /// This one cell as a JSON value — exactly the element
    /// [`AnalysisReport::to_json_value`] puts in its `cells` array for this
    /// record (the report path delegates here), so streamed cells reassemble
    /// byte-identically into the one-shot report. `metrics` selects which
    /// guarantee objects are rendered, as in the report.
    pub fn to_json_value(&self, metrics: Metrics) -> JsonValue {
        let mut members = vec![
            ("label".to_string(), JsonValue::string(&self.label)),
            ("protocol".to_string(), JsonValue::string(&self.protocol)),
            ("nodes".to_string(), JsonValue::number(self.nodes as f64)),
            (
                "fault_prob".to_string(),
                JsonValue::optional(self.fault_prob),
            ),
            (
                "correlation".to_string(),
                JsonValue::string(&self.correlation),
            ),
            (
                "environment".to_string(),
                JsonValue::string(self.environment.label()),
            ),
            (
                "engine".to_string(),
                JsonValue::string(self.engine.to_string()),
            ),
            (
                "exact".to_string(),
                JsonValue::Bool(self.outcome.is_exact()),
            ),
            (
                "kernel".to_string(),
                self.kernel().map_or(JsonValue::Null, |k| {
                    JsonValue::string(format!("{k:?}").to_lowercase())
                }),
            ),
            (
                "samples".to_string(),
                JsonValue::optional(self.samples_drawn().map(|s| s as f64)),
            ),
            ("ess".to_string(), JsonValue::optional(self.ess())),
            (
                "wall_ns".to_string(),
                JsonValue::number(self.wall_ns as f64),
            ),
            (
                "validation".to_string(),
                self.validation.as_ref().map_or(JsonValue::Null, |v| {
                    JsonValue::Object(vec![
                        (
                            "empirical".to_string(),
                            JsonValue::number(v.simulation.safe_and_live.value),
                        ),
                        (
                            "lower".to_string(),
                            JsonValue::number(v.simulation.safe_and_live.lower),
                        ),
                        (
                            "upper".to_string(),
                            JsonValue::number(v.simulation.safe_and_live.upper),
                        ),
                        (
                            "trials".to_string(),
                            JsonValue::number(v.simulation.trials as f64),
                        ),
                        ("analytic".to_string(), JsonValue::number(v.analytic)),
                        ("z_score".to_string(), JsonValue::number(v.z_score)),
                        (
                            "environment".to_string(),
                            JsonValue::string(v.environment.label()),
                        ),
                        (
                            "divergence".to_string(),
                            v.divergence.map_or(JsonValue::Null, |d| {
                                JsonValue::Object(vec![
                                    (
                                        "direction".to_string(),
                                        JsonValue::string(d.direction.label()),
                                    ),
                                    ("magnitude".to_string(), JsonValue::number(d.magnitude)),
                                ])
                            }),
                        ),
                        (
                            "mean_messages_delivered".to_string(),
                            JsonValue::number(v.simulation.mean_messages_delivered),
                        ),
                        (
                            "mean_leader_changes".to_string(),
                            JsonValue::number(v.simulation.mean_leader_changes),
                        ),
                        (
                            "mean_decided_commands".to_string(),
                            JsonValue::number(v.simulation.mean_decided_commands),
                        ),
                        (
                            "total_gray_events".to_string(),
                            JsonValue::number(v.simulation.total_gray_events as f64),
                        ),
                        (
                            "total_net_events".to_string(),
                            JsonValue::number(v.simulation.total_net_events as f64),
                        ),
                    ])
                }),
            ),
        ];
        // Emitted only for second-order cells, so first-order reports stay
        // byte-identical to their pre-epistemic form.
        if let Some(epistemic) = &self.epistemic {
            members.push(("epistemic".to_string(), epistemic.to_json_value()));
        }
        for kind in metrics.enabled_kinds() {
            let (lower, upper) = match self.bounds(kind) {
                Some((lower, upper)) => (JsonValue::number(lower), JsonValue::number(upper)),
                None => (JsonValue::Null, JsonValue::Null),
            };
            members.push((
                kind.name().to_string(),
                JsonValue::Object(vec![
                    (
                        "value".to_string(),
                        JsonValue::number(self.probability(kind)),
                    ),
                    ("lower".to_string(), lower),
                    ("upper".to_string(), upper),
                ]),
            ));
        }
        JsonValue::Object(members)
    }

    /// This one cell as a single compact JSON line (no trailing newline) — the
    /// incremental writer path: a streaming server emits each completed cell as
    /// one NDJSON line instead of buffering a whole report. Numbers keep the
    /// module's bit-exact round-trip formatting; NaN/infinity render as `null`.
    pub fn to_json_line(&self, metrics: Metrics) -> String {
        self.to_json_value(metrics).to_compact_string()
    }
}

#[derive(Clone, Copy)]
enum MetricKind {
    Safe,
    Live,
    SafeAndLive,
}

impl MetricKind {
    fn name(&self) -> &'static str {
        match self {
            MetricKind::Safe => "safe",
            MetricKind::Live => "live",
            MetricKind::SafeAndLive => "safe_and_live",
        }
    }
}

/// The structured result set of an executed plan: one [`CellRecord`] per cell and
/// one [`TrajectoryRecord`] per time-domain cell, in query order, renderable as
/// plain-text [`Table`]s or as JSON.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    metrics: Metrics,
    cells: Vec<CellRecord>,
    trajectories: Vec<TrajectoryRecord>,
}

impl AnalysisReport {
    /// The executed cells, in query order.
    pub fn cells(&self) -> &[CellRecord] {
        &self.cells
    }

    /// The cell at `index` (query order).
    pub fn cell(&self, index: usize) -> &CellRecord {
        &self.cells[index]
    }

    /// The executed time-domain cells, in query order.
    pub fn trajectories(&self) -> &[TrajectoryRecord] {
        &self.trajectories
    }

    /// The trajectory record at `index` (query order).
    pub fn trajectory(&self, index: usize) -> &TrajectoryRecord {
        &self.trajectories[index]
    }

    /// The metric selection this report renders with.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// The cells whose paired validation flagged a [`Divergence`] — analytic and
    /// empirical disagree by more than [`DIVERGENCE_Z`] standard errors — in
    /// query order. Empty when no cell was validated or every validated cell
    /// agrees. The canonical consumer loop for environment sweeps: run the grid,
    /// then ask which cells the analytic engines got measurably wrong.
    pub fn divergent_cells(&self) -> Vec<&CellRecord> {
        self.cells
            .iter()
            .filter(|cell| {
                cell.validation
                    .as_ref()
                    .is_some_and(|v| v.divergence.is_some())
            })
            .collect()
    }

    /// A copy of the report with every cell's `wall_ns` zeroed — the one
    /// non-deterministic field. Byte-comparisons between runs (streamed vs.
    /// one-shot, concurrent vs. sequential) compare `zero_wall_clock()` outputs;
    /// everything else in a report is bit-identical by the determinism contract.
    pub fn zero_wall_clock(&self) -> AnalysisReport {
        let mut report = self.clone();
        for cell in &mut report.cells {
            cell.wall_ns = 0;
        }
        report
    }

    fn enabled_metrics(&self) -> Vec<MetricKind> {
        self.metrics.enabled_kinds()
    }

    /// Renders the report as a column-aligned plain-text table. When any cell
    /// carries a paired validation run, three extra columns report the empirical
    /// safe-and-live frequency, the analytic-vs-empirical z-score, and the
    /// divergence verdict — `ok` when the measurement is consistent with the
    /// prediction, or the signed gap (e.g. `-0.42 below`) when the cell is a
    /// flagged [`Divergence`] finding.
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let kinds = self.enabled_metrics();
        let validated = self.cells.iter().any(|c| c.validation.is_some());
        let second_order = self.cells.iter().any(|c| c.epistemic.is_some());
        let mut headers: Vec<&str> = vec!["cell", "engine"];
        for kind in &kinds {
            headers.push(match kind {
                MetricKind::Safe => "safe",
                MetricKind::Live => "live",
                MetricKind::SafeAndLive => "safe&live",
            });
        }
        headers.extend(["95% CI", "ESS", "wall"]);
        if second_order {
            headers.extend(["epistemic CI", "aleatoric CI"]);
        }
        if validated {
            headers.extend(["sim s&l", "z", "divergence"]);
        }
        let mut table = Table::new(title, &headers);
        for cell in &self.cells {
            let mut row = vec![cell.label.clone(), cell.engine.to_string()];
            for &kind in &kinds {
                row.push(crate::report::percent(cell.probability(kind)));
            }
            let ci_metric = *kinds.last().unwrap_or(&MetricKind::SafeAndLive);
            row.push(match cell.bounds(ci_metric) {
                Some((lower, upper)) => format!("[{lower:.3e}, {upper:.3e}]"),
                None => "exact".into(),
            });
            row.push(
                cell.ess()
                    .map_or_else(|| "-".into(), |ess| format!("{ess:.0}")),
            );
            row.push(format!("{:.2}ms", cell.wall_ns as f64 / 1e6));
            if second_order {
                match &cell.epistemic {
                    Some(e) => {
                        row.push(format!(
                            "[{:.6}, {:.6}]",
                            e.epistemic_lower, e.epistemic_upper
                        ));
                        row.push(format!(
                            "[{:.6}, {:.6}]",
                            e.aleatoric_lower, e.aleatoric_upper
                        ));
                    }
                    None => row.extend(["-".to_string(), "-".to_string()]),
                }
            }
            if validated {
                match &cell.validation {
                    Some(v) => {
                        row.push(crate::report::percent(v.simulation.safe_and_live.value));
                        row.push(format!("{:+.2}", v.z_score));
                        row.push(match v.divergence {
                            Some(d) => format!("{:+.3} {}", d.signed_gap(), d.direction),
                            None => "ok".to_string(),
                        });
                    }
                    None => row.extend(["-".to_string(), "-".to_string(), "-".to_string()]),
                }
            }
            table.push_row(row);
        }
        table
    }

    /// Renders the time-domain cells as a column-aligned plain-text table: one row
    /// per [`TrajectoryRecord`], with the operator metrics (worst point, first dip
    /// below target, steady-state availability, MTTF-to-threshold, unavailability
    /// minutes per year).
    pub fn to_trajectory_table(&self, title: impl Into<String>) -> Table {
        let mut table = Table::new(
            title,
            &[
                "cell",
                "kind",
                "points",
                "worst",
                "worst at (h)",
                "below target at (h)",
                "steady-state avail",
                "MTTF->threshold (h)",
                "unavail min/yr",
            ],
        );
        for record in &self.trajectories {
            let optional =
                |value: Option<f64>, fmt: fn(f64) -> String| value.map_or("-".into(), fmt);
            table.push_row(vec![
                record.label.clone(),
                record.kind.label().to_string(),
                record.points.len().to_string(),
                crate::report::percent(record.worst_probability),
                format!("{:.0}", record.worst_at_hours),
                optional(record.first_below_target_hours, |t| format!("{t:.0}")),
                optional(record.steady_state_availability, crate::report::percent),
                optional(record.mean_time_to_threshold_hours, |t| format!("{t:.3e}")),
                optional(record.unavailability_minutes_per_year, |m| {
                    format!("{m:.3}")
                }),
            ]);
        }
        table
    }

    /// The report as a JSON value tree (see [`crate::json`] for the number policy:
    /// probabilities serialize with full round-trip precision, non-finite values as
    /// `null`).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "cells".to_string(),
                JsonValue::Array(
                    self.cells
                        .iter()
                        .map(|cell| cell.to_json_value(self.metrics))
                        .collect(),
                ),
            ),
            (
                "trajectories".to_string(),
                JsonValue::Array(
                    self.trajectories
                        .iter()
                        .map(TrajectoryRecord::to_json_value)
                        .collect(),
                ),
            ),
        ])
    }

    /// The report rendered as a JSON document.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{analyze_auto, analyze_scenario};
    use crate::durability::PersistenceQuorumModel;
    use crate::montecarlo::MC_CHUNK_SIZE;
    use fault_model::mode::FaultProfile;

    /// A placement-sensitive (non-counting) model whose failure is common and whose
    /// 2^30 configurations are past the enumeration budget, so it lands on Monte
    /// Carlo and only the scalar kernel can evaluate it.
    fn scalar_only_cell() -> (Arc<dyn ProtocolModel + Send + Sync>, Deployment) {
        (
            Arc::new(PersistenceQuorumModel::new(30, vec![0])),
            Deployment::uniform_crash(30, 0.3),
        )
    }

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
                    let deployment = Deployment::uniform_crash(n, p);
                    let budget = Budget::default().with_samples(10_000).with_seed(7);
                    let expected = match corr.apply(deployment) {
                        ScenarioSpec::Independent(d) => analyze_auto(&model, &d, &budget),
                        ScenarioSpec::Correlated(c) => {
                            analyze_scenario(&model, Scenario::Correlated(&c), &budget)
                                .expect("well-formed")
                        }
                    };
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
                    .cell_correlated("shocked", Arc::new(RaftModel::standard(5)), shocked.clone())
                    .budget(budget);
                let plan = AnalysisSession::with_threads(threads)
                    .plan(&query)
                    .expect("valid query");
                let report = plan.execute();
                for (index, kernel) in [(0, McKernel::Scalar), (1, McKernel::Packed)] {
                    let cell = &plan.cells[index];
                    let scenario = cell.scenario.as_scenario();
                    let direct = MonteCarloEngine.run(cell.model.as_ref(), scenario, &budget);
                    let whole = cell.engine.run_prepared(
                        cell.model.as_ref(),
                        scenario,
                        &budget,
                        &cell.scratch,
                    );
                    let context = format!("{} at {samples} samples, {threads} threads", cell.label);
                    assert_eq!(cell.engine.choice(), EngineChoice::MonteCarlo, "{context}");
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
                    Deployment::uniform_crash(24, 0.05),
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
                    let outcome = cell.engine.run_prepared(
                        cell.model.as_ref(),
                        cell.scenario.as_scenario(),
                        &cell.budget,
                        &cell.scratch,
                    );
                    let validation = cell.validate.then(|| {
                        validation_record(
                            cell.model.as_ref(),
                            cell.scenario.as_scenario(),
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
                        engine: cell.engine.choice(),
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
                Deployment::uniform_crash(24, 0.05),
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
            &Deployment::uniform_crash(24, 0.05),
            &Budget::default().with_samples(30_000).with_seed(13),
        );
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
            Deployment::uniform_crash(4, 0.01),
        );
        assert_eq!(
            session.plan(&query).unwrap_err(),
            AnalysisError::SizeMismatch {
                model_nodes: 3,
                scenario_nodes: 4
            }
        );
        // An empty correlated scenario.
        let query =
            Query::new().cell_correlated("empty", model, CorrelationModel::independent(Vec::new()));
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
        // The scratch-key blind spot fix: two *separate* requests for the same
        // explicit (model, scenario) — the dominant server workload — must hit
        // one cache entry and therefore share one compiled kernel / proposal.
        let session = AnalysisSession::new();
        let model = Arc::new(RaftModel::standard(5));
        let query = Query::new()
            .cell(
                "explicit raft",
                model.clone(),
                Deployment::uniform_crash(5, 0.02),
            )
            .budget(Budget::default().with_samples(5_000));
        let first = session.run(&query).expect("valid query");
        let second = session.run(&query).expect("valid query");
        assert_eq!(first.cell(0).outcome, second.cell(0).outcome);
        let stats = session.cache_stats();
        assert_eq!(stats.entries, 1, "one content signature, one entry");
        assert_eq!(stats.misses, 1, "second request must not re-insert");
        assert!(stats.hits >= 1, "second request must hit");
    }

    #[test]
    fn distinct_explicit_models_never_share_scratch() {
        // Signature-collision safety: two placement-sensitive durability models
        // over the same deployment but different quorum members are different
        // content, so they must get distinct cache entries.
        let session = AnalysisSession::new();
        let deployment = Deployment::uniform_crash(6, 0.05);
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
                    Deployment::uniform_crash(6, 0.05),
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
                let report = CountingEngine
                    .run(
                        &RaftModel::standard(5),
                        (&Deployment::from_profiles(profiles)).into(),
                        &Budget::default(),
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
            .cell("abstract", model, Deployment::uniform_crash(24, 0.05))
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
        let deployment = Deployment::from_profiles(profiles);
        let model: Arc<dyn ProtocolModel + Send + Sync> = Arc::new(RaftModel::standard(7));
        let session = AnalysisSession::new();
        let report = session
            .run(&Query::new().cell("hetero", model.clone(), deployment.clone()))
            .expect("valid query");
        let expected = analyze_auto(model.as_ref(), &deployment, &Budget::default());
        assert_eq!(report.cell(0).outcome, expected);
    }
}
