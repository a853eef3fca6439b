//! The analysis front-end: pick an engine, return a report in "nines".
//!
//! [`analyze_auto`] is the single front door: it routes the model/scenario/budget
//! triple through the [`crate::engine`] auto-selector (exact counting when possible,
//! enumeration for small non-counting models, parallel Monte Carlo otherwise) and tags
//! the result with the engine that produced it; [`analyze_scenario`] is its fallible
//! form over any [`Scenario`]. A caller that must pin an engine — a cross-engine
//! agreement test, a bench — runs that engine directly through
//! [`AnalysisEngine::run`](crate::engine::AnalysisEngine::run), e.g.
//! `CountingEngine.run(model, scenario, budget)`.

use fault_model::metrics::Nines;

use crate::deployment::Deployment;
use crate::engine::{select_engine, AnalysisOutcome, Budget, Scenario};
use crate::enumeration::RawReliability;
use crate::protocol::ProtocolModel;
use crate::scratch::GroupScratch;

/// Probabilistic safety and liveness guarantees of one protocol on one deployment — the
/// shape of guarantee the paper argues consensus should report (e.g. "Raft with N = 3 is
/// only 99.97% safe and live at p_u = 1%").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityReport {
    /// Probability that the deployment is safe over the mission window.
    pub safe: Nines,
    /// Probability that the deployment is live over the mission window.
    pub live: Nines,
    /// Probability that the deployment is both safe and live.
    pub safe_and_live: Nines,
}

impl ReliabilityReport {
    /// Wraps raw probabilities.
    pub fn from_raw(raw: RawReliability) -> Self {
        let raw = raw.clamped();
        Self {
            safe: Nines::from_probability(raw.p_safe),
            live: Nines::from_probability(raw.p_live),
            safe_and_live: Nines::from_probability(raw.p_safe_and_live),
        }
    }

    /// The probability of a safety violation (complement of safety).
    pub fn unsafety(&self) -> f64 {
        self.safe.complement()
    }

    /// The probability of losing liveness (complement of liveness).
    pub fn unliveness(&self) -> f64 {
        self.live.complement()
    }

    /// Whether both guarantees meet a target expressed in nines.
    pub fn meets(&self, target_nines: f64) -> bool {
        self.safe_and_live.meets(target_nines)
    }
}

impl std::fmt::Display for ReliabilityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "safe {} | live {} | safe&live {}",
            self.safe, self.live, self.safe_and_live
        )
    }
}

/// Analyzes `model` on an independent `deployment`, automatically selecting the right
/// engine within `budget` — the single front door of the analysis layer.
///
/// Selection follows the structure of the problem: exact counting for counting models,
/// exhaustive enumeration for small non-counting models, parallel Monte Carlo for
/// everything else. The outcome says which engine ran and, for sampling, carries the
/// confidence intervals.
///
/// ```
/// use prob_consensus::analyzer::analyze_auto;
/// use prob_consensus::engine::{Budget, EngineChoice};
/// use prob_consensus::deployment::Deployment;
/// use prob_consensus::raft_model::RaftModel;
///
/// let deployment = Deployment::uniform_crash(3, 0.01);
/// let outcome = analyze_auto(&RaftModel::standard(3), &deployment, &Budget::default());
/// assert_eq!(outcome.engine, EngineChoice::Counting);
/// assert_eq!(outcome.report.safe_and_live.as_percent(), "99.97%");
/// ```
///
/// # Panics
///
/// Panics if the model and the deployment disagree on the cluster size;
/// [`analyze_scenario`] is the fallible form.
pub fn analyze_auto(
    model: &dyn ProtocolModel,
    deployment: &Deployment,
    budget: &Budget,
) -> AnalysisOutcome {
    analyze_scenario(model, Scenario::Independent(deployment), budget)
        .unwrap_or_else(|error| panic!("{error}"))
}

/// Why an analysis request cannot be answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalysisError {
    /// The scenario covers zero nodes. A reliability statement about an empty
    /// deployment is vacuous — neither "100% safe" nor "0% safe" is meaningful — so
    /// the front door refuses instead of answering silently.
    EmptyScenario,
    /// The protocol model and the scenario disagree on the cluster size.
    SizeMismatch {
        /// Nodes the protocol model is configured for.
        model_nodes: usize,
        /// Nodes the scenario covers.
        scenario_nodes: usize,
    },
    /// The budget is malformed (threshold outside `(0, 1)`, a malformed
    /// posterior, an over-limit count — see [`Budget::validate`]); rejected when
    /// a query is planned, instead of silently poisoning the estimators.
    InvalidBudget(crate::engine::InvalidBudget),
    /// A trajectory cell ([`crate::query::Query::trajectory_cell`]) was given a
    /// model without a counting view: sweeping a guarantee over mission windows
    /// re-analyzes the fleet at every step, which is only tractable through the
    /// O(N³) counting engine. Placement-sensitive models stay steady-state-only.
    TrajectoryNotCounting,
    /// The query's [`TimeAxis`](crate::query::TimeAxis) is malformed (non-finite
    /// or negative horizon, non-positive step or window, NaN target) or longer
    /// than [`MAX_TIME_POINTS`](crate::query::MAX_TIME_POINTS) sample times. The
    /// constructor asserts the first kind, but the axis fields are public — a
    /// struct-literal axis with a zero step would otherwise make the trajectory
    /// sampler unbounded — so planning re-checks them.
    InvalidTimeAxis,
    /// The query is larger than a plan may be: more nodes than
    /// [`MAX_NODES`](crate::query::MAX_NODES), an axis longer than
    /// [`MAX_AXIS_LEN`](crate::query::MAX_AXIS_LEN), or more cells than
    /// [`MAX_CELLS`](crate::query::MAX_CELLS). An allocation that fails aborts
    /// the process, so planning refuses the size before it allocates.
    OverLimit {
        /// What was counted (`"nodes"`, `"cells"`, an axis name).
        what: &'static str,
        /// The count the query asked for (saturated at `usize::MAX`).
        value: usize,
        /// The largest count a plan accepts.
        limit: usize,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::EmptyScenario => {
                write!(f, "cannot analyze an empty scenario (zero nodes)")
            }
            AnalysisError::SizeMismatch {
                model_nodes,
                scenario_nodes,
            } => write!(
                f,
                "model covers {model_nodes} nodes but the scenario covers {scenario_nodes}"
            ),
            AnalysisError::InvalidBudget(invalid) => write!(f, "invalid budget: {invalid}"),
            AnalysisError::TrajectoryNotCounting => write!(
                f,
                "trajectory cells require a counting model (fault-count predicates)"
            ),
            AnalysisError::InvalidTimeAxis => write!(
                f,
                "time axis must have a finite non-negative horizon, finite \
                 positive step/window, and at most {} sample times",
                crate::query::MAX_TIME_POINTS
            ),
            AnalysisError::OverLimit { what, value, limit } => {
                write!(f, "{what} must be at most {limit}, got {value}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Analyzes `model` on an arbitrary [`Scenario`] (independent or correlated),
/// automatically selecting the engine within `budget`.
///
/// Unlike [`analyze_auto`] — whose [`Deployment`] argument is non-empty by
/// construction — a [`Scenario`] can wrap a correlation model over zero nodes, so
/// this front door is fallible: an empty scenario or a model/scenario size mismatch
/// yields a clear [`AnalysisError`] instead of a deep panic or a vacuous report.
pub fn analyze_scenario(
    model: &dyn ProtocolModel,
    scenario: Scenario<'_>,
    budget: &Budget,
) -> Result<AnalysisOutcome, AnalysisError> {
    if scenario.is_empty() {
        return Err(AnalysisError::EmptyScenario);
    }
    if model.num_nodes() != scenario.len() {
        return Err(AnalysisError::SizeMismatch {
            model_nodes: model.num_nodes(),
            scenario_nodes: scenario.len(),
        });
    }
    // The one path every planned cell also takes — select, then run, on the same
    // scratch — which is what makes a planned sweep bit-identical to a per-cell
    // loop. Here the scratch is a throwaway.
    let scratch = GroupScratch::default();
    Ok(select_engine(model, scenario, budget, &scratch)
        .run_prepared(model, scenario, budget, &scratch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AnalysisEngine, CountingEngine, EnumerationEngine};
    use crate::pbft_model::PbftModel;
    use crate::raft_model::RaftModel;

    /// The exact counting engine's report, pinned (not auto-selected).
    fn counting(model: &dyn ProtocolModel, deployment: &Deployment) -> ReliabilityReport {
        CountingEngine
            .run(model, deployment.into(), &Budget::default())
            .report
    }

    /// Asserts that a computed probability matches a percentage exactly as printed in the
    /// paper, to within one unit in the paper's last printed digit (the paper's tables
    /// mix rounding and truncation, so exact string equality is not meaningful).
    fn assert_matches_paper_percent(probability: f64, paper: &str, context: &str) {
        let decimals = paper.split('.').nth(1).map_or(0, str::len);
        let unit = 10f64.powi(-(decimals as i32)) / 100.0;
        let expected: f64 = paper.parse::<f64>().unwrap() / 100.0;
        assert!(
            (probability - expected).abs() <= unit,
            "{context}: computed {probability} vs paper {paper}% (tolerance {unit})"
        );
    }

    /// Table 2 of the paper: Raft "Safe & Live" percentages for uniform p_u.
    #[test]
    fn table2_raft_reliability_matches_paper() {
        let expected: &[(usize, f64, &str)] = &[
            (3, 0.01, "99.97"),
            (3, 0.02, "99.88"),
            (3, 0.04, "99.53"),
            (3, 0.08, "98.18"),
            (5, 0.01, "99.9990"),
            (5, 0.02, "99.992"),
            (5, 0.04, "99.94"),
            (5, 0.08, "99.55"),
            (7, 0.01, "99.99997"),
            (7, 0.02, "99.9995"),
            (7, 0.04, "99.992"),
            (7, 0.08, "99.88"),
            (9, 0.01, "99.999998"),
            (9, 0.02, "99.99996"),
            (9, 0.04, "99.9988"),
            (9, 0.08, "99.97"),
        ];
        for &(n, p, paper) in expected {
            let report = counting(&RaftModel::standard(n), &Deployment::uniform_crash(n, p));
            assert_matches_paper_percent(
                report.safe_and_live.probability(),
                paper,
                &format!("Raft N={n}, p={p}"),
            );
            // Safety is structural for standard Raft under crash faults.
            assert!(report.safe.probability() > 1.0 - 1e-12);
        }
    }

    /// Table 1 of the paper: PBFT safety/liveness percentages at p_u = 1%.
    #[test]
    fn table1_pbft_reliability_matches_paper() {
        let expected: &[(usize, &str, &str)] = &[
            (4, "99.94", "99.94"),
            (5, "99.9990", "99.90"),
            (7, "99.997", "99.997"),
            (8, "99.99993", "99.995"),
        ];
        for &(n, safe, live) in expected {
            let report = counting(
                &PbftModel::standard(n),
                &Deployment::uniform_byzantine(n, 0.01),
            );
            assert_matches_paper_percent(
                report.safe.probability(),
                safe,
                &format!("PBFT N={n} safety"),
            );
            assert_matches_paper_percent(
                report.live.probability(),
                live,
                &format!("PBFT N={n} liveness"),
            );
            assert_matches_paper_percent(
                report.safe_and_live.probability(),
                live,
                &format!("PBFT N={n} safe&live"),
            );
        }
    }

    /// §3.2: "a three-node Raft cluster (p_u = 1%) has equal safety/liveness probability
    /// as a nine node cluster with p_u = 8%".
    #[test]
    fn nine_cheap_nodes_match_three_reliable_nodes() {
        let three = counting(&RaftModel::standard(3), &Deployment::uniform_crash(3, 0.01));
        let nine = counting(&RaftModel::standard(9), &Deployment::uniform_crash(9, 0.08));
        assert_eq!(three.safe_and_live.as_percent(), "99.97%");
        assert_eq!(nine.safe_and_live.as_percent(), "99.97%");
    }

    #[test]
    fn exact_and_counting_engines_agree() {
        let model = PbftModel::standard(5);
        let deployment = Deployment::uniform_byzantine(5, 0.03);
        let a = counting(&model, &deployment);
        let b = EnumerationEngine
            .run(&model, (&deployment).into(), &Budget::default())
            .report;
        assert!((a.safe.probability() - b.safe.probability()).abs() < 1e-12);
        assert!((a.live.probability() - b.live.probability()).abs() < 1e-12);
    }

    #[test]
    fn empty_scenario_yields_a_clear_error() {
        use fault_model::correlation::CorrelationModel;
        // An empty correlation model is the one way a zero-node scenario can reach
        // the analyzer (Deployment rejects zero nodes at construction).
        let empty = CorrelationModel::independent(Vec::new());
        let model = RaftModel::standard(3);
        let err = analyze_scenario(&model, (&empty).into(), &crate::engine::Budget::default())
            .expect_err("empty scenario must not produce a report");
        // A 3-node model over a 0-node scenario is first and foremost empty.
        assert_eq!(err, AnalysisError::EmptyScenario);
        assert!(err.to_string().contains("empty scenario"));
    }

    #[test]
    fn size_mismatch_yields_a_clear_error() {
        use fault_model::correlation::CorrelationModel;
        use fault_model::mode::FaultProfile;
        let four = CorrelationModel::independent(vec![FaultProfile::crash_only(0.1); 4]);
        let model = RaftModel::standard(3);
        let err = analyze_scenario(&model, (&four).into(), &crate::engine::Budget::default())
            .expect_err("size mismatch must not produce a report");
        assert_eq!(
            err,
            AnalysisError::SizeMismatch {
                model_nodes: 3,
                scenario_nodes: 4
            }
        );
        assert!(err.to_string().contains("3 nodes"));
    }

    #[test]
    fn analyze_scenario_agrees_with_analyze_auto_on_well_formed_input() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.02);
        let budget = crate::engine::Budget::default();
        let auto = analyze_auto(&model, &deployment, &budget);
        let scenario = analyze_scenario(&model, (&deployment).into(), &budget)
            .expect("well-formed scenario analyzes");
        assert_eq!(auto.report, scenario.report);
        assert_eq!(auto.engine, scenario.engine);
    }

    #[test]
    fn meets_holds_at_exact_nines_boundaries() {
        // Regression: `meets` compared nines with a strict float `>=` and exact
        // boundaries like 0.999-vs-3-nines failed by a few ulps (1 - 10^-k is not
        // representable). The comparison is now log-space with a tolerance.
        let exactly_three = ReliabilityReport::from_raw(crate::enumeration::RawReliability {
            p_safe: 1.0,
            p_live: 0.999,
            p_safe_and_live: 0.999,
        });
        assert!(exactly_three.meets(3.0));
        assert!(!exactly_three.meets(3.001));
        let exactly_five = ReliabilityReport::from_raw(crate::enumeration::RawReliability {
            p_safe: 0.99999,
            p_live: 0.99999,
            p_safe_and_live: 0.99999,
        });
        assert!(exactly_five.meets(5.0));
        assert!(!exactly_five.meets(5.1));
    }

    #[test]
    fn report_accessors() {
        let report = counting(&RaftModel::standard(3), &Deployment::uniform_crash(3, 0.01));
        assert!(report.unsafety() < 1e-12);
        assert!((report.unliveness() - 2.98e-4).abs() < 5e-6);
        assert!(report.meets(3.0));
        assert!(!report.meets(4.0));
        assert!(format!("{report}").contains("safe&live"));
    }
}
