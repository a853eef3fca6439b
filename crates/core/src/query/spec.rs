//! What a caller builds: the [`Query`] with its grid axes, explicit and
//! time-domain cells, time axis and metrics, and the size limits plans enforce.

use std::sync::Arc;

use fault_model::correlation::{CorrelationGroup, CorrelationModel};
use fault_model::markov::RepairableGroup;
use fault_model::metrics::HOURS_PER_YEAR;
use fault_model::mode::FaultProfile;
use fault_model::node::Fleet;

use crate::analyzer::AnalysisError;
use crate::engine::{Budget, FaultEnvironment};
#[cfg(doc)]
use crate::epistemic::EpistemicReport;
use crate::pbft_model::PbftModel;
use crate::protocol::ProtocolModel;
use crate::raft_model::RaftModel;

#[cfg(doc)]
use super::{
    AnalysisReport, CellRecord, Divergence, QueryPlan, TrajectoryRecord, ValidationRecord,
};

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
    /// ([`FaultProfile::crash_only`]).
    Crash,
    /// Byzantine faults only: `p` is the Byzantine probability
    /// ([`FaultProfile::byzantine_only`]).
    Byzantine,
    /// Mixed: `p` is the crash probability, with a fixed Byzantine probability on
    /// top ([`FaultProfile::new`]).
    Mixed {
        /// Per-node Byzantine probability, constant across the `p` sweep.
        byzantine: f64,
    },
}

impl FaultAxis {
    /// The `n` equal node profiles of one grid coordinate.
    pub(super) fn profiles(&self, n: usize, p: f64) -> Vec<FaultProfile> {
        let profile = match self {
            FaultAxis::Crash => FaultProfile::crash_only(p),
            FaultAxis::Byzantine => FaultProfile::byzantine_only(p),
            FaultAxis::Mixed { byzantine } => FaultProfile::new(p, *byzantine),
        };
        vec![profile; n]
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
    /// The scenario of `profiles` under this correlation structure.
    pub(super) fn apply(&self, profiles: Vec<FaultProfile>) -> CorrelationModel {
        let n = profiles.len();
        let mut model = CorrelationModel::independent(profiles);
        match self {
            CorrelationSpec::Independent => {}
            CorrelationSpec::ClusterShock { probability } => {
                model = model.with_group(CorrelationGroup::crash_shock(
                    (0..n).collect(),
                    *probability,
                ));
            }
            CorrelationSpec::RackShock { racks, probability } => {
                let racks = (*racks).max(1);
                let per_rack = n.div_ceil(racks);
                for r in 0..racks {
                    let members: Vec<usize> = (r * per_rack..((r + 1) * per_rack).min(n)).collect();
                    if members.is_empty() {
                        break;
                    }
                    model = model.with_group(CorrelationGroup::crash_shock(members, *probability));
                }
            }
        }
        model
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
    pub(super) fn validate(&self) -> Result<(), AnalysisError> {
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

/// One fully explicit cell (model + scenario) appended after the grid.
#[derive(Clone)]
pub(super) struct ExplicitCell {
    pub(super) label: String,
    pub(super) model: Arc<dyn ProtocolModel + Send + Sync>,
    pub(super) scenario: Arc<CorrelationModel>,
    /// Per-cell budget override (validated at plan time like the base budget).
    /// `None` — the common case — inherits the query budget. The optimizer
    /// ([`crate::optimize`]) uses overrides to give every candidate its own
    /// salted seed and per-tier sample budget inside one scheduled plan.
    pub(super) budget: Option<Budget>,
}

/// One time-domain cell: a fleet swept through mission windows, or a repairable
/// group analysed as a birth–death chain.
#[derive(Clone)]
pub(super) enum TrajectorySpec {
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
    pub(super) protocols: Vec<ProtocolSpec>,
    pub(super) nodes: Vec<usize>,
    pub(super) fault_probs: Vec<f64>,
    pub(super) fault_axis: FaultAxis,
    pub(super) correlations: Vec<CorrelationSpec>,
    pub(super) sample_budgets: Vec<usize>,
    pub(super) environments: Vec<FaultEnvironment>,
    pub(super) budget: Budget,
    pub(super) metrics: Metrics,
    pub(super) explicit: Vec<ExplicitCell>,
    pub(super) time_axis: Option<TimeAxis>,
    pub(super) trajectories: Vec<TrajectorySpec>,
    pub(super) validation: bool,
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

    /// Appends an explicit cell: any protocol model on any scenario, independent
    /// or correlated. For scenarios the grid axes cannot express
    /// (placement-sensitive models, heterogeneous fleets, hand-built shock groups).
    pub fn cell(
        mut self,
        label: impl Into<String>,
        model: Arc<dyn ProtocolModel + Send + Sync>,
        target: CorrelationModel,
    ) -> Self {
        self.explicit.push(ExplicitCell {
            label: label.into(),
            model,
            scenario: Arc::new(target),
            budget: None,
        });
        self
    }

    /// Appends one optimizer candidate cell: a correlated failure model (zero
    /// groups for independent candidates — the engines treat them alike) and a
    /// per-candidate budget override (salted seed, tier sample count). Only the
    /// optimizer ([`crate::optimize`]) plans these.
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
            scenario: Arc::new(target),
            budget: Some(budget),
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
    /// repaired at rate μ, analysed as a birth–death chain
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
    /// model has an executable counterpart ([`ProtocolModel::executable`]):
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
    pub(super) fn axis_lengths(&self) -> [(&'static str, usize); 6] {
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
