//! The unified analysis-engine layer.
//!
//! The paper's method is one pipeline — enumerate → count → sample — but the seed grew
//! it as three disconnected entry points that every caller had to hand-select. This
//! module unifies them behind one abstraction:
//!
//! * [`CorrelationModel`] — what the analysis runs against: per-node fault profiles
//!   plus common-cause shock groups. An independent deployment is the model with no
//!   groups (`CorrelationModel::from(&deployment)`), so every engine reads one
//!   scenario type.
//! * [`EngineChoice`] — the five engines, wrapping [`crate::enumeration`],
//!   [`crate::counting`], [`crate::rare_event`], [`crate::montecarlo`] and
//!   [`crate::simulation`]. [`EngineChoice::supports`] and [`EngineChoice::run`]
//!   are each one `match`, and both take prepared scratch ([`crate::scratch`]):
//!   the query planner passes the scratch its cells share, the front doors and a
//!   caller pinning an engine pass a fresh one.
//! * [`Budget`] — how much work (exact counting size, Monte Carlo samples,
//!   simulation trials) the caller is willing to spend, the sampling seed, and the
//!   rare-event selection threshold.
//! * [`select_engine`] — the one auto-selector, behind both the per-cell front doors
//!   and the query planner: exact counting for independent counting
//!   models, exhaustive enumeration for small non-counting models, importance
//!   sampling when the failure event is too rare for plain sampling, parallel Monte
//!   Carlo for everything else. The simulation engine is deliberately outside the
//!   auto-selection registry — it measures the executable system rather than
//!   evaluating the model, and runs only when explicitly requested (pinned, or via
//!   the query API's cross-validation mode).
//! * [`AnalysisOutcome`] — the report, tagged with the engine that produced it and the
//!   sampling confidence interval when one exists.
//!
//! Callers should reach for [`crate::analyzer::analyze_auto`], the front door over this
//! module; a test, bench or tool that must pin an engine deliberately (e.g. a
//! cross-engine agreement check) calls `EngineChoice::X.run(.., &GroupScratch::default())`.

use fault_model::correlation::CorrelationModel;

use crate::analyzer::ReliabilityReport;
use crate::counting::counting_reliability;
use crate::deployment::Deployment;
use crate::enumeration::enumerate_reliability;
use crate::montecarlo::{Estimate, McSampler, MonteCarloReport};
use crate::protocol::ProtocolModel;
use crate::rare_event::RareEventReport;
use crate::scratch::GroupScratch;
use crate::simulation::SimulationReport;

/// Identifies one of the five analysis engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineChoice {
    /// Exhaustive enumeration of failure configurations (exact, exponential).
    Enumeration,
    /// Dynamic programming over fault counts (exact, O(N³), counting models only).
    Counting,
    /// Importance sampling with per-node probability tilting (weighted estimate with
    /// confidence interval and ESS diagnostic; for rare failure events).
    ImportanceSampling,
    /// Parallel Monte Carlo sampling (estimate with confidence interval).
    MonteCarlo,
    /// Empirical discrete-event simulation of the executable protocol under sampled
    /// fault schedules ([`crate::simulation`]). Never auto-selected — it measures the
    /// *system* rather than the model, so it only runs when a caller explicitly asks
    /// for empirical validation.
    Simulation,
}

impl std::fmt::Display for EngineChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineChoice::Enumeration => "enumeration",
            EngineChoice::Counting => "counting",
            EngineChoice::ImportanceSampling => "importance-sampling",
            EngineChoice::MonteCarlo => "monte-carlo",
            EngineChoice::Simulation => "simulation",
        })
    }
}

/// How much work an [`analyze_auto`](crate::analyzer::analyze_auto) call may spend, and
/// the seed sampling uses when it is chosen. Every field is one a caller sets: the
/// sampling knobs arrive over the wire, the threshold from the optimizer, the
/// simulation budget from the validation sweeps. Everything else an engine needs is
/// a constant beside its one reader (the enumeration limit, the importance-sampling
/// ESS floor, the simulation horizon).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum number of nodes the O(N³) counting engine may analyze exactly before
    /// the selector falls back to sampling.
    pub max_counting_nodes: usize,
    /// Number of samples the sampling engines (Monte Carlo, importance sampling) draw.
    pub monte_carlo_samples: usize,
    /// Seed for the sampling engines (results are deterministic per seed).
    pub seed: u64,
    /// Failure probabilities below this threshold route to the importance-sampling
    /// engine when no exact engine applies (see
    /// [`crate::rare_event::naive_failure_estimate`]).
    pub rare_event_threshold: f64,
    /// How much work the discrete-event simulation engine ([`crate::simulation`])
    /// spends when it runs, and in which fault environment.
    pub sim: SimBudget,
    /// The second-order (epistemic) axis: when set, every planned cell
    /// additionally runs `draws` posterior parameter draws through its engine
    /// and reports an epistemic credible interval next to the per-draw
    /// aleatoric one — see [`crate::epistemic`]. `None` (the default) keeps
    /// the first-order point-estimate behavior, and a budget of one draw
    /// degenerates to it bit-for-bit.
    pub epistemic: Option<EpistemicBudget>,
}

/// The second-order analysis budget: how many posterior draws to run per cell,
/// the Beta posterior over the fault-probability *scale* they are drawn from,
/// and the credible level of the reported epistemic interval.
///
/// The constructors are deliberately assert-free — a budget arriving over the
/// wire (the `"posterior"` query key of `repro serve`) must fail at plan time
/// with a recoverable [`InvalidBudget`], not a panic. [`Budget::validate`]
/// enforces the ranges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpistemicBudget {
    /// Number of posterior parameter draws per cell. Must be positive; a
    /// single draw degenerates to the first-order report (no epistemic block).
    pub draws: usize,
    /// `alpha` hyperparameter of the Beta posterior (e.g. failures + 1/2
    /// under the Jeffreys update). Must be finite and positive.
    pub alpha: f64,
    /// `beta` hyperparameter of the Beta posterior (e.g. successes + 1/2
    /// under the Jeffreys update). Must be finite and positive.
    pub beta: f64,
    /// Credible level of the reported epistemic interval, strictly inside
    /// `(0, 1)`; defaults to [`EpistemicBudget::DEFAULT_LEVEL`].
    pub level: f64,
}

impl EpistemicBudget {
    /// The default credible level of the epistemic interval (a central 90%
    /// interval — the level the calibration diagnostics in
    /// [`crate::epistemic`] are tested at).
    pub const DEFAULT_LEVEL: f64 = 0.9;

    /// An epistemic budget of `draws` posterior draws from Beta(alpha, beta)
    /// at the default credible level. No argument checking here — see
    /// [`Budget::validate`].
    pub fn new(draws: usize, alpha: f64, beta: f64) -> Self {
        Self {
            draws,
            alpha,
            beta,
            level: Self::DEFAULT_LEVEL,
        }
    }

    /// Sets the credible level of the reported epistemic interval (validated
    /// at plan time, not here).
    pub fn with_level(mut self, level: f64) -> Self {
        self.level = level;
        self
    }
}

/// The adversarial fault environment a simulation trial runs inside, *on top of*
/// the sampled crash/Byzantine schedule. The analytic engines cannot see any of
/// these — they model boolean per-node faults only — which is exactly the point:
/// environments are where [`validate_with_simulation`](crate::query::Query::validate_with_simulation)
/// is expected to surface divergence rather than agreement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FaultEnvironment {
    /// LAN network, no extra events: the baseline the analytic model describes.
    #[default]
    Clean,
    /// The preferred leader / view-0 primary goes gray (alive but ~1000x slow) at
    /// a sampled time inside the fault window and never recovers. Liveness hinges
    /// on election timeouts and the view-change watchdog noticing a node that is
    /// not dead.
    GrayPrimary,
    /// The cluster splits into two groups (the pinned leader on the minority
    /// side) at a sampled time, healing at half the horizon. Commits stall until
    /// the heal; whether they recover within the horizon is the empirical
    /// question.
    PartitionHeal,
    /// A WAN with a heavy-tailed (bounded-Pareto) delay distribution and light
    /// loss, plus a sampled asymmetric link-quality override: one direction of
    /// one link turns lossy mid-window while the reverse stays clean.
    WanLossy,
}

impl FaultEnvironment {
    /// Every environment, in presentation order.
    pub const ALL: [FaultEnvironment; 4] = [
        FaultEnvironment::Clean,
        FaultEnvironment::GrayPrimary,
        FaultEnvironment::PartitionHeal,
        FaultEnvironment::WanLossy,
    ];

    /// Stable label used in cell labels, tables, and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultEnvironment::Clean => "clean",
            FaultEnvironment::GrayPrimary => "gray-primary",
            FaultEnvironment::PartitionHeal => "partition-heal",
            FaultEnvironment::WanLossy => "wan-lossy",
        }
    }

    /// Stable small integer for cache keys and seed salting.
    pub fn key(&self) -> u64 {
        match self {
            FaultEnvironment::Clean => 0,
            FaultEnvironment::GrayPrimary => 1,
            FaultEnvironment::PartitionHeal => 2,
            FaultEnvironment::WanLossy => 3,
        }
    }

    /// Parses a label as produced by [`FaultEnvironment::label`].
    pub fn from_label(label: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.label() == label)
    }
}

impl std::fmt::Display for FaultEnvironment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The work budget of the simulation engine: one trial is a full discrete-event
/// run of the executable protocol, so trial counts are in the hundreds where the
/// analytic samplers draw hundreds of thousands. Each trial's virtual-time
/// horizon, fault window and workload are fixed in [`crate::simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBudget {
    /// Number of independent simulation trials (each with its own sampled fault
    /// schedule and simulator seed). A zero budget saturates to one trial.
    pub trials: usize,
    /// The adversarial environment trials run inside (gray primary, healing
    /// partition, lossy WAN — [`FaultEnvironment::Clean`] by default). Affects
    /// only the simulation side of a cell; the analytic engines have no notion of
    /// it.
    pub environment: FaultEnvironment,
}

impl Default for SimBudget {
    /// 160 trials: enough to resolve paper-scale probabilities to a few points of
    /// standard error, at a cost of well under a second of wall clock for a 5-node
    /// cluster.
    fn default() -> Self {
        Self {
            trials: 160,
            environment: FaultEnvironment::Clean,
        }
    }
}

impl Default for Budget {
    /// Defaults tuned for interactive use: exact counting up to 2,000 nodes (~N³ =
    /// 8e9 DP updates, single-digit seconds), 200k samples, enough for a ±0.2-point
    /// 95% interval near the probabilities the paper reports, and a 1e-6
    /// failure-probability threshold for preferring importance sampling.
    fn default() -> Self {
        Self {
            max_counting_nodes: 2_000,
            monte_carlo_samples: 200_000,
            seed: 0x5EED_CAFE,
            rare_event_threshold: 1e-6,
            sim: SimBudget::default(),
            epistemic: None,
        }
    }
}

impl Budget {
    /// A budget drawing `samples` Monte Carlo samples. A zero budget is accepted and
    /// saturates to one sample inside the sampling engines, so the resulting
    /// estimates are always well-defined (see [`crate::montecarlo`]).
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.monte_carlo_samples = samples;
        self
    }

    /// A budget seeding Monte Carlo with `seed`.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A budget allowing exact counting up to `nodes` nodes.
    pub fn with_max_counting_nodes(mut self, nodes: usize) -> Self {
        self.max_counting_nodes = nodes;
        self
    }

    /// A budget running `trials` discrete-event simulation trials when the
    /// simulation engine is invoked (a zero budget saturates to one trial).
    pub fn with_sim_trials(mut self, trials: usize) -> Self {
        self.sim.trials = trials;
        self
    }

    /// A budget whose simulation trials run inside the given adversarial fault
    /// environment (see [`FaultEnvironment`]). Only the simulation side of a cell
    /// changes; analytic results are environment-blind by construction.
    pub fn with_fault_environment(mut self, environment: FaultEnvironment) -> Self {
        self.sim.environment = environment;
        self
    }

    /// A budget running `draws` posterior parameter draws per cell, drawn from
    /// a Beta(`alpha`, `beta`) posterior over the fault-probability scale, at
    /// the default credible level (see [`EpistemicBudget`]).
    ///
    /// Deliberately assert-free: malformed hyperparameters arriving over the
    /// wire must surface as a recoverable plan-time [`InvalidBudget`], never a
    /// panic. [`Budget::validate`] rejects `draws == 0`, non-finite or
    /// non-positive hyperparameters, and out-of-range levels.
    pub fn with_posterior(mut self, draws: usize, alpha: f64, beta: f64) -> Self {
        self.epistemic = Some(EpistemicBudget::new(draws, alpha, beta));
        self
    }

    /// A budget with an explicit epistemic (second-order) budget, including a
    /// non-default credible level. Validated at plan time like
    /// [`Budget::with_posterior`].
    pub fn with_epistemic(mut self, epistemic: EpistemicBudget) -> Self {
        self.epistemic = Some(epistemic);
        self
    }

    /// A budget routing failure probabilities below `threshold` to the
    /// importance-sampling engine (when no exact engine applies).
    ///
    /// The closed boundaries are engine-layer conveniences: `0.0` disables the
    /// rare-event engine outright (its `supports` can never fire) and `1.0` always
    /// prefers it. Both are accepted here — and by the direct
    /// [`select_engine`]/[`crate::analyzer::analyze_auto`] paths — but rejected by
    /// the plan-time [`Budget::validate`] the query API runs, which requires a
    /// threshold strictly inside `(0, 1)`; see [`InvalidBudget::RareEventThreshold`].
    pub fn with_rare_event_threshold(mut self, threshold: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&threshold),
            "threshold must be a probability, got {threshold}"
        );
        self.rare_event_threshold = threshold;
        self
    }

    /// Checks the budget's sampling knobs, the plan-time guard of the query API
    /// ([`crate::query::AnalysisSession::plan`]).
    ///
    /// The builder methods assert their own argument ranges, but a `Budget` is a
    /// plain struct — nothing stops a caller from writing
    /// `rare_event_threshold: f64::NAN` directly, and a threshold outside `(0, 1)`
    /// either disables the rare-event engine entirely or routes *every* scenario to
    /// it. Planning a query rejects such budgets up front with
    /// [`AnalysisError::InvalidBudget`](crate::analyzer::AnalysisError):
    ///
    /// * `rare_event_threshold` must lie strictly inside `(0, 1)`;
    /// * an epistemic budget needs at least one draw, finite positive Beta
    ///   hyperparameters and a credible level strictly inside `(0, 1)`;
    /// * `monte_carlo_samples` and the posterior draw count must stay within
    ///   [`MAX_SAMPLES`](crate::query::MAX_SAMPLES) and
    ///   [`MAX_POSTERIOR_DRAWS`](crate::query::MAX_POSTERIOR_DRAWS).
    pub fn validate(&self) -> Result<(), InvalidBudget> {
        let over = |what, value, limit| {
            if value > limit {
                Err(InvalidBudget::OverLimit { what, value, limit })
            } else {
                Ok(())
            }
        };
        over(
            "monte_carlo_samples",
            self.monte_carlo_samples,
            crate::query::MAX_SAMPLES,
        )?;
        let threshold = self.rare_event_threshold;
        if !(threshold > 0.0 && threshold < 1.0) {
            return Err(InvalidBudget::RareEventThreshold(threshold));
        }
        if let Some(ep) = self.epistemic {
            if ep.draws == 0 {
                return Err(InvalidBudget::EpistemicDraws);
            }
            over(
                "epistemic.draws",
                ep.draws,
                crate::query::MAX_POSTERIOR_DRAWS,
            )?;
            if !(ep.alpha.is_finite() && ep.alpha > 0.0 && ep.beta.is_finite() && ep.beta > 0.0) {
                return Err(InvalidBudget::EpistemicHyperparameters {
                    alpha: ep.alpha,
                    beta: ep.beta,
                });
            }
            if !(ep.level.is_finite() && ep.level > 0.0 && ep.level < 1.0) {
                return Err(InvalidBudget::EpistemicLevel(ep.level));
            }
        }
        Ok(())
    }
}

/// Which [`Budget`] knob failed [`Budget::validate`], carrying the offending value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InvalidBudget {
    /// `rare_event_threshold` is outside the open interval `(0, 1)` (NaN included).
    RareEventThreshold(f64),
    /// The epistemic budget asks for zero posterior draws — a second-order
    /// analysis with no draws has no posterior to summarize.
    EpistemicDraws,
    /// A Beta hyperparameter of the epistemic budget is NaN, infinite, zero or
    /// negative: Beta(alpha, beta) requires both to be finite and positive.
    EpistemicHyperparameters {
        /// The configured `alpha` hyperparameter.
        alpha: f64,
        /// The configured `beta` hyperparameter.
        beta: f64,
    },
    /// The epistemic credible level is outside the open interval `(0, 1)`
    /// (NaN included) — no central interval exists at such a level.
    EpistemicLevel(f64),
    /// A work count exceeds its plan limit: Monte Carlo samples past
    /// [`MAX_SAMPLES`](crate::query::MAX_SAMPLES) or posterior draws past
    /// [`MAX_POSTERIOR_DRAWS`](crate::query::MAX_POSTERIOR_DRAWS).
    OverLimit {
        /// The knob (`"monte_carlo_samples"` or `"epistemic.draws"`).
        what: &'static str,
        /// The configured count.
        value: usize,
        /// The largest count a plan accepts.
        limit: usize,
    },
}

impl std::fmt::Display for InvalidBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidBudget::RareEventThreshold(v) => write!(
                f,
                "rare_event_threshold must lie strictly inside (0, 1), got {v}"
            ),
            InvalidBudget::EpistemicDraws => {
                write!(f, "epistemic.draws must be positive (got 0)")
            }
            InvalidBudget::EpistemicHyperparameters { alpha, beta } => write!(
                f,
                "epistemic hyperparameters must be finite and positive, \
                 got alpha={alpha} beta={beta}"
            ),
            InvalidBudget::EpistemicLevel(v) => write!(
                f,
                "epistemic.level must lie strictly inside (0, 1), got {v}"
            ),
            InvalidBudget::OverLimit { what, value, limit } => {
                write!(f, "{what} must be at most {limit}, got {value}")
            }
        }
    }
}

impl std::error::Error for InvalidBudget {}

/// The result of a unified analysis: the report in "nines", plus which engine produced
/// it and — when sampling did — the full Monte Carlo estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisOutcome {
    /// The probabilistic safety/liveness guarantees.
    pub report: ReliabilityReport,
    /// The engine that produced the report.
    pub engine: EngineChoice,
    /// The sampling estimate with confidence intervals, when `engine` is Monte Carlo.
    pub monte_carlo: Option<MonteCarloReport>,
    /// The weighted estimate with confidence intervals and the effective-sample-size
    /// diagnostic, when `engine` is importance sampling.
    pub rare_event: Option<RareEventReport>,
    /// The empirical trial frequencies and trace-derived statistics, when `engine`
    /// is the discrete-event simulation engine.
    pub simulation: Option<SimulationReport>,
}

impl AnalysisOutcome {
    /// The outcome of `engine`, reporting the three estimated (or exact)
    /// probabilities; the caller attaches the engine-specific detail report.
    pub(crate) fn new(
        engine: EngineChoice,
        p_safe: f64,
        p_live: f64,
        p_safe_and_live: f64,
    ) -> Self {
        Self {
            report: ReliabilityReport::from_raw(crate::enumeration::RawReliability {
                p_safe,
                p_live,
                p_safe_and_live,
            }),
            engine,
            monte_carlo: None,
            rare_event: None,
            simulation: None,
        }
    }

    /// Wraps a sampling report — a whole-cell run's, or the scheduler's merged
    /// chunks' — as the Monte Carlo engine's outcome.
    pub(crate) fn monte_carlo(mc: MonteCarloReport) -> Self {
        Self {
            monte_carlo: Some(mc),
            ..Self::new(
                EngineChoice::MonteCarlo,
                mc.safe.value,
                mc.live.value,
                mc.safe_and_live.value,
            )
        }
    }

    /// The `[safe, live, safe_and_live]` estimates, with their 95% intervals, of
    /// whichever sampler ran: the Monte Carlo report, else the importance-sampling
    /// one. `None` for the exact engines, which carry no sampling error; the
    /// simulation's trial frequencies are not this outcome's interval.
    pub fn sampled_estimates(&self) -> Option<[Estimate; 3]> {
        if let Some(mc) = &self.monte_carlo {
            Some([mc.safe, mc.live, mc.safe_and_live])
        } else {
            let re = self.rare_event.as_ref()?;
            Some([re.safe, re.live, re.safe_and_live])
        }
    }

    /// Whether the report is exact (enumeration or counting) rather than an estimate.
    pub fn is_exact(&self) -> bool {
        matches!(
            self.engine,
            EngineChoice::Enumeration | EngineChoice::Counting
        )
    }
}

impl std::fmt::Display for AnalysisOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.report, self.engine)
    }
}

/// The auto-selection preference order: exact counting first, exhaustive
/// enumeration for small non-counting models, importance sampling for failure
/// events too rare for plain sampling, Monte Carlo as the universal fallback.
///
/// Simulation is deliberately absent: it measures the executable system instead of
/// evaluating the model (milliseconds per trial vs. nanoseconds per sample), so it
/// never competes with the analytic engines and runs only when explicitly requested.
const AUTO_ORDER: [EngineChoice; 4] = [
    EngineChoice::Counting,
    EngineChoice::Enumeration,
    EngineChoice::ImportanceSampling,
    EngineChoice::MonteCarlo,
];

impl EngineChoice {
    /// Whether this engine can analyze `model` on `scenario` within `budget`.
    /// Whatever the answer costs to compute (the importance-sampling selector
    /// pilot) is kept in `scratch`.
    pub fn supports(
        self,
        model: &dyn ProtocolModel,
        scenario: &CorrelationModel,
        budget: &Budget,
        scratch: &GroupScratch,
    ) -> bool {
        match self {
            // Admissibility is the enumeration module's own rule, so the selector
            // can never route a deployment there that the module would reject.
            EngineChoice::Enumeration => {
                !scenario.is_correlated()
                    && crate::enumeration::enumeration_supported(scenario.profiles())
            }
            EngineChoice::Counting => {
                model.as_counting().is_some()
                    && !scenario.is_correlated()
                    && scenario.len() <= budget.max_counting_nodes
            }
            EngineChoice::ImportanceSampling => {
                crate::rare_event::supports(model, scenario, budget, scratch)
            }
            EngineChoice::MonteCarlo => true,
            EngineChoice::Simulation => crate::simulation::supports(model, scenario),
        }
    }

    /// Runs the analysis, reusing (and filling) the per-(model, scenario) setup in
    /// `scratch`. `scratch` must belong to this (model, scenario) pair — or be
    /// fresh, as `&GroupScratch::default()` is for a caller pinning an engine. A
    /// planned cell and a direct call run this same body, so they are
    /// bit-identical by construction.
    ///
    /// # Panics
    ///
    /// May panic if called for an unsupported triple; callers should check
    /// [`supports`](EngineChoice::supports) (or use
    /// [`crate::analyzer::analyze_auto`], which does).
    pub fn run(
        self,
        model: &dyn ProtocolModel,
        scenario: &CorrelationModel,
        budget: &Budget,
        scratch: &GroupScratch,
    ) -> AnalysisOutcome {
        match self {
            EngineChoice::Enumeration | EngineChoice::Counting => {
                assert!(
                    !scenario.is_correlated(),
                    "exact engines require an independent scenario"
                );
                let deployment = || Deployment::from_profiles(scenario.profiles().to_vec());
                let raw = if self == EngineChoice::Enumeration {
                    enumerate_reliability(model, &deployment())
                } else {
                    let counting = model
                        .as_counting()
                        .expect("counting engine requires a counting model");
                    scratch.counting(|| counting_reliability(counting, &deployment()))
                };
                AnalysisOutcome::new(self, raw.p_safe, raw.p_live, raw.p_safe_and_live)
            }
            EngineChoice::ImportanceSampling => {
                crate::rare_event::run(model, scenario, budget, scratch)
            }
            EngineChoice::MonteCarlo => AnalysisOutcome::monte_carlo(
                McSampler::prepare(model, scenario, budget, scratch).run(),
            ),
            EngineChoice::Simulation => crate::simulation::run(model, scenario, budget),
        }
    }
}

/// Picks the engine for this triple: the first of the auto order (counting,
/// enumeration, importance sampling, Monte Carlo) that supports it. The one
/// selection rule — [`crate::analyzer::analyze_auto`] calls it with a throwaway
/// scratch, the query planner with the cell group's shared one (so a sweep pays
/// for the importance-sampling selector pilot once per group and seed).
///
/// # Panics
///
/// Panics on an empty scenario; the fallible front door is
/// [`crate::analyzer::analyze_scenario`].
pub fn select_engine(
    model: &dyn ProtocolModel,
    scenario: &CorrelationModel,
    budget: &Budget,
    scratch: &GroupScratch,
) -> EngineChoice {
    assert!(
        !scenario.is_empty(),
        "cannot analyze an empty scenario (zero nodes); see analyzer::AnalysisError"
    );
    AUTO_ORDER
        .into_iter()
        .find(|engine| engine.supports(model, scenario, budget, scratch))
        .expect("Monte Carlo supports every scenario")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft_model::PbftModel;
    use crate::raft_model::RaftModel;
    use fault_model::correlation::CorrelationGroup;
    use fault_model::mode::FaultProfile;

    /// The auto-selector's choice for a triple, on a throwaway scratch.
    fn selected(
        model: &dyn ProtocolModel,
        scenario: &CorrelationModel,
        budget: &Budget,
    ) -> EngineChoice {
        select_engine(model, scenario, budget, &GroupScratch::default())
    }

    /// A deliberately non-counting model: live only if node 0 is correct. Placement
    /// requirements like this are exactly what forces enumeration.
    struct RequiresNodeZero {
        n: usize,
    }

    impl ProtocolModel for RequiresNodeZero {
        fn name(&self) -> String {
            "RequiresNodeZero".into()
        }

        fn num_nodes(&self) -> usize {
            self.n
        }

        fn is_safe(&self, _config: &crate::failure::FailureConfig) -> bool {
            true
        }

        fn is_live(&self, config: &crate::failure::FailureConfig) -> bool {
            config.state(0).is_correct()
        }
    }

    #[test]
    fn counting_model_on_independent_deployment_selects_counting() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let choice = selected(
            &model,
            &CorrelationModel::from(&deployment),
            &Budget::default(),
        );
        assert_eq!(choice, EngineChoice::Counting);
    }

    #[test]
    fn non_counting_model_small_n_selects_enumeration() {
        let model = RequiresNodeZero { n: 5 };
        let deployment = Deployment::uniform_crash(5, 0.05);
        let choice = selected(
            &model,
            &CorrelationModel::from(&deployment),
            &Budget::default(),
        );
        assert_eq!(choice, EngineChoice::Enumeration);
    }

    #[test]
    fn non_counting_model_large_n_selects_monte_carlo() {
        let model = RequiresNodeZero { n: 64 };
        let deployment = Deployment::uniform_crash(64, 0.05);
        let choice = selected(
            &model,
            &CorrelationModel::from(&deployment),
            &Budget::default(),
        );
        assert_eq!(choice, EngineChoice::MonteCarlo);
    }

    #[test]
    fn correlated_scenario_always_selects_monte_carlo() {
        let model = RaftModel::standard(5);
        let correlated = CorrelationModel::independent(vec![FaultProfile::crash_only(0.02); 5])
            .with_group(CorrelationGroup::crash_shock((0..5).collect(), 0.01));
        let choice = selected(&model, &correlated, &Budget::default());
        assert_eq!(choice, EngineChoice::MonteCarlo);
    }

    #[test]
    fn groupless_correlation_model_counts_as_independent() {
        let model = RaftModel::standard(5);
        let independent = CorrelationModel::independent(vec![FaultProfile::crash_only(0.02); 5]);
        assert!(!independent.is_correlated());
        assert_eq!(
            selected(&model, &independent, &Budget::default()),
            EngineChoice::Counting
        );
        // A deployment is converted to exactly this model, so both answer alike.
        let deployment = CorrelationModel::from(&Deployment::uniform_crash(5, 0.02));
        assert_eq!(
            EngineChoice::Counting.run(
                &model,
                &independent,
                &Budget::default(),
                &GroupScratch::default()
            ),
            EngineChoice::Counting.run(
                &model,
                &deployment,
                &Budget::default(),
                &GroupScratch::default()
            )
        );
    }

    #[test]
    fn oversized_budget_still_respects_enumeration_hard_caps() {
        // No caller-set budget field widens enumeration: even with an unbounded
        // counting cap, 2^21 binary and 3^13 ternary configurations are past the one
        // configuration limit, so the selector falls back to sampling.
        let roomy = Budget::default().with_max_counting_nodes(usize::MAX);
        let binary = Deployment::uniform_crash(21, 0.05);
        assert_eq!(
            selected(
                &RequiresNodeZero { n: 21 },
                &CorrelationModel::from(&binary),
                &roomy
            ),
            EngineChoice::MonteCarlo
        );
        let mixed = Deployment::uniform_mixed(13, 0.05, 0.01);
        assert_eq!(
            selected(
                &RequiresNodeZero { n: 13 },
                &CorrelationModel::from(&mixed),
                &roomy
            ),
            EngineChoice::MonteCarlo
        );
    }

    #[test]
    fn budget_shrinks_enumeration_reach() {
        // Selection only: the configuration budget is MAX_ENUMERATION_CONFIGS, so a
        // third failure mode shrinks enumeration's reach from 20 nodes to 12 —
        // 2^20 and 3^12 configurations are within it, 2^21 and 3^13 past it.
        for (n, mixed, expected) in [
            (20, false, EngineChoice::Enumeration),
            (21, false, EngineChoice::MonteCarlo),
            (12, true, EngineChoice::Enumeration),
            (13, true, EngineChoice::MonteCarlo),
        ] {
            let model = RequiresNodeZero { n };
            let deployment = if mixed {
                Deployment::uniform_mixed(n, 0.05, 0.01)
            } else {
                Deployment::uniform_crash(n, 0.05)
            };
            assert_eq!(
                selected(
                    &model,
                    &CorrelationModel::from(&deployment),
                    &Budget::default()
                ),
                expected,
                "N = {n}, mixed = {mixed}"
            );
        }
    }

    #[test]
    fn counting_respects_its_node_budget() {
        // Selection only — running the DP at this size is exactly what the cap avoids.
        // Past the counting cap this deployment falls through to sampling, and since
        // losing a 1,501-node majority at p_u = 1% is an astronomically rare event,
        // the rare-event engine (not plain Monte Carlo) picks it up.
        let model = RaftModel::standard(3_000);
        let deployment = Deployment::uniform_crash(3_000, 0.01);
        let scenario = &CorrelationModel::from(&deployment);
        assert_eq!(
            selected(&model, scenario, &Budget::default()),
            EngineChoice::ImportanceSampling
        );
        assert_eq!(
            selected(
                &model,
                scenario,
                &Budget::default().with_max_counting_nodes(5_000)
            ),
            EngineChoice::Counting
        );
    }

    #[test]
    fn ternary_deployments_cost_three_modes_per_node() {
        let deployment = Deployment::uniform_mixed(8, 0.05, 0.001);
        let scenario = &CorrelationModel::from(&deployment);
        assert_eq!(
            crate::enumeration::enumeration_config_count(scenario.profiles()),
            3u64.pow(8)
        );
    }

    #[test]
    fn counting_and_enumeration_engines_agree_via_trait() {
        let model = PbftModel::standard(5);
        let deployment = Deployment::uniform_byzantine(5, 0.03);
        let scenario = &CorrelationModel::from(&deployment);
        let budget = Budget::default();
        let exact =
            EngineChoice::Enumeration.run(&model, scenario, &budget, &GroupScratch::default());
        let counted =
            EngineChoice::Counting.run(&model, scenario, &budget, &GroupScratch::default());
        assert!(exact.is_exact() && counted.is_exact());
        assert!(
            (exact.report.safe.probability() - counted.report.safe.probability()).abs() < 1e-12
        );
        assert!(
            (exact.report.live.probability() - counted.report.live.probability()).abs() < 1e-12
        );
    }

    #[test]
    fn monte_carlo_engine_reports_estimate() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let outcome = EngineChoice::MonteCarlo.run(
            &model,
            &CorrelationModel::from(&deployment),
            &Budget::default().with_samples(50_000).with_seed(7),
            &GroupScratch::default(),
        );
        assert_eq!(outcome.engine, EngineChoice::MonteCarlo);
        assert!(!outcome.is_exact());
        let mc = outcome
            .monte_carlo
            .expect("sampling outcome carries its CI");
        assert_eq!(mc.samples, 50_000);
        let exact = EngineChoice::Counting.run(
            &model,
            &CorrelationModel::from(&deployment),
            &Budget::default(),
            &GroupScratch::default(),
        );
        assert!(mc.live.contains(exact.report.live.probability()));
    }

    #[test]
    fn rare_failure_event_on_non_counting_model_selects_importance_sampling() {
        // Liveness loss requires all of nodes 0..6 faulty: p = 0.05^6 ≈ 1.6e-8, far
        // below the pilot's resolution and the 1e-6 threshold. No exact engine takes
        // a 40-node placement-sensitive model, so the rare-event engine must.
        let model = crate::durability::PersistenceQuorumModel::new(40, (0..6).collect());
        let deployment = Deployment::uniform_crash(40, 0.05);
        let choice = selected(
            &model,
            &CorrelationModel::from(&deployment),
            &Budget::default(),
        );
        assert_eq!(choice, EngineChoice::ImportanceSampling);
        // A threshold of 1 accepts any proxy value, so the preference still holds;
        // a zero threshold can never be undercut, so Monte Carlo takes over.
        let permissive = Budget::default().with_rare_event_threshold(1.0);
        let disabled = Budget::default().with_rare_event_threshold(0.0);
        assert_eq!(
            selected(&model, &CorrelationModel::from(&deployment), &permissive),
            EngineChoice::ImportanceSampling
        );
        assert_eq!(
            selected(&model, &CorrelationModel::from(&deployment), &disabled),
            EngineChoice::MonteCarlo
        );
    }

    #[test]
    fn importance_sampling_outcome_carries_weighted_estimate() {
        // 24 binary nodes put 2^24 configurations past the enumeration limit, so
        // the selector has to sample — and P[loss] ≈ 6.3e-6 is pilot-invisible.
        let model = crate::durability::PersistenceQuorumModel::new(24, (0..4).collect());
        let deployment = Deployment::uniform_crash(24, 0.05);
        let budget = Budget::default().with_samples(30_000).with_seed(13);
        let outcome = crate::analyzer::analyze_auto(&model, &deployment, &budget);
        assert_eq!(outcome.engine, EngineChoice::ImportanceSampling);
        assert!(!outcome.is_exact());
        assert!(outcome.monte_carlo.is_none());
        let report = outcome.rare_event.expect("weighted estimate attached");
        let truth = 1.0 - 0.05f64.powi(4);
        assert!(
            report.safe.contains(truth),
            "exact {truth} outside [{}, {}]",
            report.safe.lower,
            report.safe.upper
        );
        assert!(report.ess > 0.0);
    }

    #[test]
    fn zero_sample_budget_yields_well_defined_outcome() {
        // Regression: a zero sample budget used to be rejected up front (and a raw
        // zero in `monte_carlo_samples` divided by n = 0 downstream); it now
        // saturates to one sample with finite, in-range bounds.
        let model = RequiresNodeZero { n: 64 };
        let deployment = Deployment::uniform_crash(64, 0.05);
        let budget = Budget::default().with_samples(0);
        let outcome = crate::analyzer::analyze_auto(&model, &deployment, &budget);
        assert_eq!(outcome.engine, EngineChoice::MonteCarlo);
        let mc = outcome
            .monte_carlo
            .expect("sampling outcome carries its CI");
        assert_eq!(mc.samples, 1);
        for e in [mc.safe, mc.live, mc.safe_and_live] {
            assert!(e.value.is_finite() && e.lower.is_finite() && e.upper.is_finite());
            assert!(0.0 <= e.lower && e.lower <= e.value && e.value <= e.upper && e.upper <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty scenario")]
    fn empty_scenario_panics_with_a_clear_message_at_the_engine_layer() {
        let model = RequiresNodeZero { n: 0 };
        let empty = CorrelationModel::independent(Vec::new());
        selected(&model, &empty, &Budget::default());
    }

    #[test]
    fn engine_choice_displays_kebab_names() {
        assert_eq!(EngineChoice::Counting.to_string(), "counting");
        assert_eq!(EngineChoice::MonteCarlo.to_string(), "monte-carlo");
        assert_eq!(
            EngineChoice::ImportanceSampling.to_string(),
            "importance-sampling"
        );
        let outcome = EngineChoice::Counting.run(
            &RaftModel::standard(3),
            &CorrelationModel::from(&Deployment::uniform_crash(3, 0.01)),
            &Budget::default(),
            &GroupScratch::default(),
        );
        assert!(outcome.to_string().ends_with("[counting]"));
    }
}
