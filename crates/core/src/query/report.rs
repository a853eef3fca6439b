//! What comes back: one record per executed cell and per trajectory, the
//! validation findings, and the report that renders them as tables and JSON.

#[cfg(doc)]
use fault_model::markov::RepairableGroup;

use super::Metrics;
#[cfg(doc)]
use super::{Query, QueryPlan, TimeAxis};
use crate::engine::{AnalysisOutcome, EngineChoice, FaultEnvironment};
use crate::epistemic::EpistemicReport;
use crate::json::JsonValue;
use crate::montecarlo::McKernel;
use crate::report::Table;
use crate::simulation::SimulationReport;

/// Which kind of time-domain cell produced a [`TrajectoryRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrajectoryKind {
    /// An aging fleet swept through sliding mission windows
    /// ([`Query::trajectory_cell`]), each window analysed by the counting
    /// engine.
    Fleet,
    /// A repairable group analysed as a birth–death chain
    /// ([`Query::repairable_cell`], backed by
    /// [`fault_model::markov::RepairableGroup`]); each point's probability is
    /// `1 − u` for the unreliability `u` of
    /// [`RepairableGroup::unreliability_curve`].
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
    /// simultaneously — the MTTDL analogue (repairable cells only; infinite, and
    /// `null` on the wire, only when λ = 0 or the time exceeds `f64::MAX`).
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

    /// The 95% interval bounds for one metric, when a sampler produced them.
    fn bounds(&self, metric: MetricKind) -> Option<(f64, f64)> {
        let e = self.outcome.sampled_estimates()?[metric as usize];
        Some((e.lower, e.upper))
    }

    fn probability(&self, metric: MetricKind) -> f64 {
        let r = &self.outcome.report;
        [r.safe, r.live, r.safe_and_live][metric as usize].probability()
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
}

/// One of the three guarantees; its discriminant indexes a
/// `[safe, live, safe_and_live]` triple.
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

impl Metrics {
    /// The enabled metrics in rendering order.
    fn enabled_kinds(&self) -> Vec<MetricKind> {
        let kinds = [
            (self.safe, MetricKind::Safe),
            (self.live, MetricKind::Live),
            (self.safe_and_live, MetricKind::SafeAndLive),
        ];
        kinds
            .into_iter()
            .filter_map(|(on, kind)| on.then_some(kind))
            .collect()
    }
}

/// The structured result set of an executed plan: one [`CellRecord`] per cell and
/// one [`TrajectoryRecord`] per time-domain cell, in query order, renderable as
/// plain-text [`Table`]s or as JSON.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    pub(super) metrics: Metrics,
    pub(super) cells: Vec<CellRecord>,
    pub(super) trajectories: Vec<TrajectoryRecord>,
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

    /// Renders the report as a column-aligned plain-text table. When any cell
    /// carries a paired validation run, three extra columns report the empirical
    /// safe-and-live frequency, the analytic-vs-empirical z-score, and the
    /// divergence verdict — `ok` when the measurement is consistent with the
    /// prediction, or the signed gap (e.g. `-0.42 below`) when the cell is a
    /// flagged [`Divergence`] finding.
    pub fn to_table(&self, title: impl Into<String>) -> Table {
        let kinds = self.metrics.enabled_kinds();
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
