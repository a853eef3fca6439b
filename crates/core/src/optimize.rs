//! Deployment optimization: the cheapest deployment meeting *k* nines.
//!
//! The engines answer "what reliability does this deployment give?"; the paper's
//! payoff (§1, §4) is the inverse question — "what is the *cheapest* deployment
//! that meets k nines?" This module searches a [`DeploymentSpace`] — node count,
//! per-node fault curves (including telemetry-posterior curves via
//! [`NodeType::from_telemetry`]), placement across correlated failure domains
//! (same-rack vs cross-rack quorum assignment) and flexible-quorum parameters —
//! and emits a ranked Pareto frontier of cost vs reliability.
//!
//! # Search tiers
//!
//! [`optimize`] refines candidates in three tiers, all sharing the session's
//! cache scratch ([`crate::query::Query`] plans the cells, keyed by content
//! like every other cell, so a candidate and a first-order cell of the same
//! model and scenario share one scratch group):
//!
//! 1. **Screening.** Every candidate in the grid is planned as one cell of a
//!    single [`Query`] with a small sample budget. Counting-model candidates
//!    resolve exactly (the counting engine ignores the sample knob); sampling
//!    candidates get a cheap Monte Carlo (packed kernel where the model allows)
//!    or, when the cached selector pilot already says the failure mode is deep
//!    tail, a first importance-sampling pass.
//! 2. **Refinement.** Non-exact candidates whose *optimistic* confidence bound
//!    still meets the target — the frontier-adjacent ones — are re-planned with
//!    the full refinement budget under the *same* per-candidate seed, so the
//!    tier-1 selector pilots and learned importance-sampling proposals are
//!    reused from the shared scratch instead of being re-learned.
//! 3. **Time domain** (optional). With an [`OptimizerConfig::repair`] policy,
//!    every frontier member is additionally scored as a repairable
//!    birth–death group ([`fault_model::markov::RepairableGroup`]) and carries
//!    unavailability-minutes-per-year next to its mission-window probability.
//!
//! # Determinism
//!
//! Candidate `i` draws its samples under seed `chunk_seed(seed ^`
//! [`OPTIMIZER_SALT`]`, i)` — the same salted chunk-seed scheme the epistemic
//! layer uses ([`crate::epistemic::EPISTEMIC_SALT`]) — and cells execute on the
//! work-stealing sweep scheduler whose merge order is fixed by chunk index, not
//! worker arrival. The frontier (and its JSON rendering) is therefore
//! bit-identical at any thread count; `tests/optimizer_verification.rs` pins
//! this at 1/2/8 threads.
//!
//! # Frontier semantics
//!
//! A candidate is **feasible** when the *lower* 95% confidence bound of its
//! safe-and-live probability meets the target nines (exact candidates have a
//! degenerate interval). The frontier is the feasible, Pareto non-dominated
//! subset — sorted by cost, strictly increasing in nines — so every frontier
//! point is the cheapest way to reach its reliability level within the space.
//!
//! ```
//! use prob_consensus::optimize::{
//!     default_catalogue, optimize, DeploymentSpace, OptimizerConfig, TargetSpec,
//! };
//! use prob_consensus::query::{AnalysisSession, ProtocolSpec};
//!
//! // "Cheapest 3-nines Raft cluster from the default catalogue?"
//! let space = DeploymentSpace {
//!     instances: default_catalogue(),
//!     nodes: vec![3, 5, 7, 9],
//!     domains: None,
//!     placements: Vec::new(),
//!     target: TargetSpec::Protocol(ProtocolSpec::Raft),
//! };
//! let session = AnalysisSession::new();
//! let report = optimize(&session, &space, &OptimizerConfig::new(3.0)).unwrap();
//! let best = report.cheapest().expect("the space is feasible");
//! assert_eq!(best.instance, "spot");
//! assert!(best.nines >= 3.0);
//! ```

use std::sync::Arc;

use fault_model::correlation::{CorrelationGroup, CorrelationModel};
use fault_model::markov::RepairableGroup;
use fault_model::metrics::{afr_to_hourly_rate, Nines};
use fault_model::mode::FaultProfile;
use fault_model::posterior::TelemetryPosterior;
use fault_model::telemetry::FleetTelemetry;

use crate::analyzer::AnalysisError;
use crate::durability::PersistenceQuorumModel;
use crate::engine::{Budget, EngineChoice};
use crate::json::JsonValue;
use crate::montecarlo::chunk_seed;
use crate::protocol::ProtocolModel;
use crate::query::{AnalysisSession, CellRecord, ProtocolSpec, Query, MAX_NODES};
use crate::report::Table;

/// Salt XORed into the optimizer's base seed before deriving per-candidate
/// seeds (`chunk_seed(seed ^ OPTIMIZER_SALT, candidate_index)`), so candidate
/// streams can never collide with the unsalted Monte Carlo chunk streams or the
/// epistemic draw streams ([`crate::epistemic::EPISTEMIC_SALT`]) of a cell that
/// happens to share the base seed.
pub const OPTIMIZER_SALT: u64 = 0x5A17_ED0C_0571_CA7E;

/// One procurable node type the optimizer can build clusters from: a fault
/// profile over the mission window plus a price.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeType {
    /// Human-readable name, used in candidate labels.
    pub name: String,
    /// Per-node fault probabilities over the mission window.
    pub profile: FaultProfile,
    /// Price in dollars per node-hour.
    pub hourly_cost: f64,
}

impl NodeType {
    /// A crash-only node type (the CFT setting of §3).
    pub fn new(name: impl Into<String>, crash_probability: f64, hourly_cost: f64) -> Self {
        Self::from_profile(
            name,
            FaultProfile::crash_only(crash_probability),
            hourly_cost,
        )
    }

    /// A node type with an explicit fault profile (crash + Byzantine).
    pub fn from_profile(name: impl Into<String>, profile: FaultProfile, hourly_cost: f64) -> Self {
        assert!(hourly_cost >= 0.0, "hourly cost must be non-negative");
        Self {
            name: name.into(),
            profile,
            hourly_cost,
        }
    }

    /// A node type whose fault probability comes from measured fleet telemetry:
    /// the posterior-mean annual failure rate ([`TelemetryPosterior::afr_mean`])
    /// converted to a constant hazard and integrated over `mission_hours`.
    /// Returns `None` when the telemetry covers no observation time.
    pub fn from_telemetry(
        name: impl Into<String>,
        telemetry: &FleetTelemetry,
        mission_hours: f64,
        hourly_cost: f64,
    ) -> Option<Self> {
        assert!(
            mission_hours > 0.0 && mission_hours.is_finite(),
            "mission window must be positive and finite"
        );
        let posterior = TelemetryPosterior::from_telemetry(telemetry)?;
        let lambda = afr_to_hourly_rate(posterior.afr_mean());
        let p = 1.0 - (-lambda * mission_hours).exp();
        Some(Self::new(name, p, hourly_cost))
    }
}

/// The default instance catalogue used by the examples and the `repro` harness: a
/// reliable on-demand machine, a spot instance ten times cheaper but failing at
/// 8%/year (the paper's §3.2 example), and reused, aged hardware in between.
pub fn default_catalogue() -> Vec<NodeType> {
    vec![
        NodeType::new("on-demand", 0.01, 1.00),
        NodeType::new("spot", 0.08, 0.10),
        NodeType::new("aged-reuse", 0.04, 0.25),
    ]
}

/// How a persistence quorum is placed across the failure domains of a
/// [`DeploymentSpace`] — the axis the `claim-durability-correlated` experiment
/// hand-picked, generalized into a searchable dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// All quorum members packed contiguously: every member shares the first
    /// rack's correlated shock.
    SameRack,
    /// One quorum member per rack: no single rack shock can cover the quorum.
    CrossRack,
}

impl Placement {
    /// Short label used in candidate names and JSON (`same-rack`/`cross-rack`).
    pub fn label(&self) -> &'static str {
        match self {
            Placement::SameRack => "same-rack",
            Placement::CrossRack => "cross-rack",
        }
    }
}

/// Correlated failure domains: the cluster split into contiguous, near-equal
/// racks, each with an independent crash shock — the same construction as
/// [`crate::query::CorrelationSpec::RackShock`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureDomains {
    /// Number of contiguous racks (a zero is treated as one rack).
    pub racks: usize,
    /// Probability each rack's shock fires within the mission window.
    pub shock_probability: f64,
}

impl FailureDomains {
    fn rack_groups(&self, n: usize) -> Vec<CorrelationGroup> {
        let per_rack = n.div_ceil(self.racks.max(1));
        (0..n)
            .step_by(per_rack.max(1))
            .map(|start| {
                let members: Vec<usize> = (start..n.min(start + per_rack)).collect();
                CorrelationGroup::crash_shock(members, self.shock_probability)
            })
            .collect()
    }

    fn per_rack(&self, n: usize) -> usize {
        n.div_ceil(self.racks.max(1)).max(1)
    }
}

/// What guarantee the optimizer is provisioning for: a consensus protocol
/// family (safety *and* liveness) or data durability (a persistence quorum
/// surviving, [`PersistenceQuorumModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetSpec {
    /// A protocol family instantiated at every swept cluster size — Raft,
    /// flexible-quorum Raft (the flexible-quorum search axis), or PBFT.
    Protocol(ProtocolSpec),
    /// Durability of the most recent persistence quorum; placement across
    /// failure domains becomes a search axis when domains are configured.
    PersistenceQuorum {
        /// Size of the persistence quorum.
        quorum_size: usize,
    },
}

impl TargetSpec {
    /// Whether the target can be instantiated at cluster size `n` (the model
    /// constructors panic outside these ranges, so the candidate grid silently
    /// skips invalid combinations instead).
    fn supports(&self, n: usize) -> bool {
        match self {
            TargetSpec::Protocol(ProtocolSpec::Raft) => n >= 1,
            TargetSpec::Protocol(ProtocolSpec::RaftFlexible { q_per, q_vc }) => {
                *q_per >= 1 && *q_vc >= 1 && *q_per <= n && *q_vc <= n && q_per + q_vc > n
            }
            TargetSpec::Protocol(ProtocolSpec::Pbft) => n >= 4,
            TargetSpec::PersistenceQuorum { quorum_size } => *quorum_size >= 1 && *quorum_size <= n,
        }
    }

    /// The repairable group tier 3 scores: `(group size, tolerated failures)`.
    /// Consensus targets model the whole cluster losing its quorum; durability
    /// targets model the quorum itself (data is lost only when every member is
    /// down simultaneously).
    fn repair_group(&self, n: usize) -> (usize, usize) {
        match self {
            TargetSpec::Protocol(ProtocolSpec::Raft) => (n, (n - 1) / 2),
            TargetSpec::Protocol(ProtocolSpec::RaftFlexible { q_per, .. }) => (n, n - q_per),
            TargetSpec::Protocol(ProtocolSpec::Pbft) => (n, (n - 1) / 3),
            TargetSpec::PersistenceQuorum { quorum_size } => (*quorum_size, quorum_size - 1),
        }
    }
}

/// The searchable deployment space: the cross product of instance types, node
/// counts and (for durability targets with failure domains) quorum placements.
///
/// Invalid combinations — a quorum larger than the cluster, cross-rack
/// placement with more members than racks, a PBFT cluster below four nodes —
/// are skipped during candidate enumeration rather than rejected, so the grid
/// axes can be specified loosely.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpace {
    /// Procurable node types (homogeneous per candidate).
    pub instances: Vec<NodeType>,
    /// Cluster sizes to sweep.
    pub nodes: Vec<usize>,
    /// Correlated failure domains layered onto every candidate, when present.
    pub domains: Option<FailureDomains>,
    /// Quorum placements to sweep. Only active for
    /// [`TargetSpec::PersistenceQuorum`] targets with `domains` set; empty or
    /// inapplicable placement axes collapse to a single unplaced candidate.
    pub placements: Vec<Placement>,
    /// The guarantee being provisioned for.
    pub target: TargetSpec,
}

impl DeploymentSpace {
    /// Enumerates the candidate grid in deterministic order (instances ×
    /// nodes × placements, skipping invalid combinations). Public so
    /// verification suites can re-score every candidate independently of
    /// [`optimize`].
    pub fn candidates(&self) -> Vec<Candidate> {
        let placements: Vec<Option<Placement>> =
            if matches!(self.target, TargetSpec::PersistenceQuorum { .. })
                && self.domains.is_some()
                && !self.placements.is_empty()
            {
                self.placements.iter().copied().map(Some).collect()
            } else {
                vec![None]
            };
        let mut out = Vec::new();
        for instance in &self.instances {
            for &n in &self.nodes {
                for &placement in &placements {
                    if let Some(candidate) = self.candidate(instance, n, placement) {
                        out.push(candidate);
                    }
                }
            }
        }
        out
    }

    fn candidate(
        &self,
        instance: &NodeType,
        n: usize,
        placement: Option<Placement>,
    ) -> Option<Candidate> {
        if n == 0 || !self.target.supports(n) {
            return None;
        }
        let model: Arc<dyn ProtocolModel + Send + Sync> = match (&self.target, placement) {
            (TargetSpec::Protocol(spec), _) => spec.build(n),
            (TargetSpec::PersistenceQuorum { quorum_size }, placement) => {
                let members = self.quorum_members(*quorum_size, n, placement)?;
                Arc::new(PersistenceQuorumModel::new(n, members))
            }
        };
        let mut scenario = CorrelationModel::independent(vec![instance.profile; n]);
        if let Some(domains) = &self.domains {
            for group in domains.rack_groups(n) {
                scenario = scenario.with_group(group);
            }
        }
        let suffix = placement.map_or(String::new(), |p| format!("/{}", p.label()));
        Some(Candidate {
            label: format!("{}/N={n}{suffix}", instance.name),
            instance: instance.name.clone(),
            nodes: n,
            placement,
            hourly_cost: instance.hourly_cost * n as f64,
            fault_probability: instance.profile.fault_probability(),
            model,
            scenario,
        })
    }

    /// The quorum member indices for one placement, `None` when the placement
    /// cannot be realized (e.g. cross-rack with fewer racks than members).
    fn quorum_members(
        &self,
        q: usize,
        n: usize,
        placement: Option<Placement>,
    ) -> Option<Vec<usize>> {
        match placement {
            None | Some(Placement::SameRack) => {
                if let (Some(domains), Some(Placement::SameRack)) = (&self.domains, placement) {
                    // "Same rack" must actually fit in one rack to mean anything.
                    if q > domains.per_rack(n) {
                        return None;
                    }
                }
                Some((0..q).collect())
            }
            Some(Placement::CrossRack) => {
                let domains = self.domains.as_ref()?;
                let per_rack = domains.per_rack(n);
                let members: Vec<usize> = (0..q).map(|i| i * per_rack).collect();
                members.iter().all(|&m| m < n).then_some(members)
            }
        }
    }
}

/// One enumerated point of a [`DeploymentSpace`]: the model/scenario pair the
/// optimizer scores, plus its cost metadata. Exposed so tests can re-score
/// frontier candidates with an independently chosen engine.
#[derive(Clone)]
pub struct Candidate {
    /// Candidate id: `instance/N=n[/placement]`.
    pub label: String,
    /// Instance-type name.
    pub instance: String,
    /// Cluster size.
    pub nodes: usize,
    /// Quorum placement, when the placement axis is active.
    pub placement: Option<Placement>,
    /// Total cost in dollars per hour (`instance cost × n`).
    pub hourly_cost: f64,
    /// Per-node fault probability over the mission window (crash + Byzantine).
    pub fault_probability: f64,
    /// The protocol/durability model scored for this candidate.
    pub model: Arc<dyn ProtocolModel + Send + Sync>,
    /// The correlated fault scenario the model is scored under.
    pub scenario: CorrelationModel,
}

impl std::fmt::Debug for Candidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate")
            .field("label", &self.label)
            .field("hourly_cost", &self.hourly_cost)
            .field("model", &self.model.name())
            .finish_non_exhaustive()
    }
}

/// Tier-3 time-domain scoring policy: how fast failed nodes are repaired, and
/// the mission window the per-node fault probability was measured over (used to
/// back out the hourly failure rate λ from the window probability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairPolicy {
    /// Mean time to repair one node, in hours (repair rate μ = 1/MTTR).
    pub mttr_hours: f64,
    /// Mission window the candidate fault probabilities cover, in hours.
    pub mission_hours: f64,
}

/// Tuning knobs of the three-tier search. The defaults mirror
/// [`Budget::default`]; only the target is mandatory ([`OptimizerConfig::new`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Reliability target in nines of safe-and-live probability.
    pub target_nines: f64,
    /// Tier-1 sample budget per candidate (exact engines ignore it).
    pub screen_samples: usize,
    /// Tier-2 sample budget for refined candidates.
    pub refine_samples: usize,
    /// Failure probability below which the importance-sampling engine takes
    /// over (per candidate, via the cached selector pilot).
    pub rare_event_threshold: f64,
    /// Base seed; candidate `i` samples under
    /// `chunk_seed(seed ^ OPTIMIZER_SALT, i)`.
    pub seed: u64,
    /// Optional tier-3 time-domain scoring of frontier members.
    pub repair: Option<RepairPolicy>,
}

impl OptimizerConfig {
    /// A config targeting `target_nines` with default budgets.
    pub fn new(target_nines: f64) -> Self {
        assert!(
            target_nines >= 0.0 && target_nines.is_finite(),
            "target nines must be non-negative and finite, got {target_nines}"
        );
        let base = Budget::default();
        Self {
            target_nines,
            screen_samples: 20_000,
            refine_samples: base.monte_carlo_samples,
            rare_event_threshold: base.rare_event_threshold,
            seed: base.seed,
            repair: None,
        }
    }

    /// Sets the tier-1 screening sample budget.
    pub fn with_screen_samples(mut self, samples: usize) -> Self {
        self.screen_samples = samples;
        self
    }

    /// Sets the tier-2 refinement sample budget.
    pub fn with_refine_samples(mut self, samples: usize) -> Self {
        self.refine_samples = samples;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the rare-event threshold routing deep-tail candidates to the
    /// importance-sampling engine (must lie strictly inside `(0, 1)`).
    pub fn with_rare_event_threshold(mut self, threshold: f64) -> Self {
        self.rare_event_threshold = threshold;
        self
    }

    /// Enables tier-3 time-domain scoring of frontier members.
    pub fn with_repair(mut self, policy: RepairPolicy) -> Self {
        self.repair = Some(policy);
        self
    }

    /// The per-candidate budget at one tier: identical seed across tiers (so
    /// tier 2 reuses tier 1's cached pilots and proposals), differing only in
    /// sample count.
    fn budget(&self, candidate_index: usize, samples: usize) -> Budget {
        Budget::default()
            .with_samples(samples)
            .with_seed(chunk_seed(
                self.seed ^ OPTIMIZER_SALT,
                candidate_index as u64,
            ))
            .with_rare_event_threshold(self.rare_event_threshold)
    }
}

/// One scored candidate on (or off) the frontier: cost vs nines with full
/// engine provenance — which engine scored it, at which tier, with what
/// confidence interval. Deliberately carries no wall-clock fields so its JSON
/// rendering is bit-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRecord {
    /// Candidate id (see [`Candidate::label`]).
    pub label: String,
    /// Instance-type name.
    pub instance: String,
    /// Cluster size.
    pub nodes: usize,
    /// Quorum placement, when the placement axis was active.
    pub placement: Option<Placement>,
    /// Total cost in dollars per hour.
    pub hourly_cost: f64,
    /// Safe-and-live point estimate.
    pub probability: f64,
    /// The point estimate in nines.
    pub nines: f64,
    /// Lower 95% confidence bound on the safe-and-live probability (equal to
    /// `probability` for exact engines).
    pub ci_lower: f64,
    /// Upper 95% confidence bound (equal to `probability` for exact engines).
    pub ci_upper: f64,
    /// The conservative guarantee: `ci_lower` in nines. Feasibility is judged
    /// on this, never on the point estimate.
    pub nines_lower: f64,
    /// The engine that produced the accepted score.
    pub engine: EngineChoice,
    /// Which tier produced the accepted score (1 = screening, 2 = refinement).
    pub tier: u8,
    /// Whether the score is exact (enumeration/counting) rather than estimated.
    pub exact: bool,
    /// Samples actually drawn (sampling engines only).
    pub samples: Option<usize>,
    /// Effective sample size (importance-sampling candidates only).
    pub ess: Option<f64>,
    /// Whether the candidate meets the target per its own CI lower bound.
    pub feasible: bool,
    /// Tier-3 long-run unavailability (frontier members only, when a
    /// [`RepairPolicy`] was configured).
    pub unavailability_minutes_per_year: Option<f64>,
}

impl FrontierRecord {
    /// The failure probability (complement of the safe-and-live estimate).
    pub fn failure_probability(&self) -> f64 {
        1.0 - self.probability
    }

    /// This record as a JSON object (the element [`OptimizeReport::to_json_value`]
    /// puts in its arrays). Non-finite nines render as `null` per the JSON
    /// policy ([`JsonValue::number`]).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("label".to_string(), JsonValue::string(&self.label)),
            ("instance".to_string(), JsonValue::string(&self.instance)),
            ("nodes".to_string(), JsonValue::number(self.nodes as f64)),
            (
                "placement".to_string(),
                self.placement
                    .map_or(JsonValue::Null, |p| JsonValue::string(p.label())),
            ),
            (
                "hourly_cost".to_string(),
                JsonValue::number(self.hourly_cost),
            ),
            (
                "probability".to_string(),
                JsonValue::number(self.probability),
            ),
            ("nines".to_string(), JsonValue::number(self.nines)),
            ("ci_lower".to_string(), JsonValue::number(self.ci_lower)),
            ("ci_upper".to_string(), JsonValue::number(self.ci_upper)),
            (
                "nines_lower".to_string(),
                JsonValue::number(self.nines_lower),
            ),
            (
                "engine".to_string(),
                JsonValue::string(self.engine.to_string()),
            ),
            ("tier".to_string(), JsonValue::number(f64::from(self.tier))),
            ("exact".to_string(), JsonValue::Bool(self.exact)),
            (
                "samples".to_string(),
                JsonValue::optional(self.samples.map(|s| s as f64)),
            ),
            ("ess".to_string(), JsonValue::optional(self.ess)),
            ("feasible".to_string(), JsonValue::Bool(self.feasible)),
            (
                "unavailability_minutes_per_year".to_string(),
                JsonValue::optional(self.unavailability_minutes_per_year),
            ),
        ])
    }
}

/// The optimizer's result: the ranked Pareto frontier plus every evaluated
/// candidate (in deterministic grid order) for auditability.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeReport {
    /// The target the search provisioned for, in nines.
    pub target_nines: f64,
    /// Feasible, Pareto non-dominated candidates sorted by ascending cost
    /// (strictly increasing in both cost and nines).
    pub frontier: Vec<FrontierRecord>,
    /// Every scored candidate, in [`DeploymentSpace::candidates`] order.
    pub evaluated: Vec<FrontierRecord>,
    /// Number of candidates screened at tier 1.
    pub screened: usize,
    /// Number of candidates re-scored at tier 2.
    pub refined: usize,
}

impl OptimizeReport {
    /// The cheapest feasible candidate — the answer to "cheapest k nines?".
    pub fn cheapest(&self) -> Option<&FrontierRecord> {
        self.frontier.first()
    }

    /// The frontier record with the given label, searching all evaluated
    /// candidates.
    pub fn candidate(&self, label: &str) -> Option<&FrontierRecord> {
        self.evaluated.iter().find(|r| r.label == label)
    }

    /// Renders the frontier as a plain-text table (the `repro` harness path).
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "Pareto frontier: cheapest deployments meeting {:.1} nines \
                 ({} screened, {} refined)",
                self.target_nines, self.screened, self.refined
            ),
            &[
                "candidate",
                "$/hour",
                "engine",
                "tier",
                "safe&live",
                "nines (lower)",
                "unavail min/yr",
            ],
        );
        for record in &self.frontier {
            table.push_row(vec![
                record.label.clone(),
                format!("{:.2}", record.hourly_cost),
                record.engine.to_string(),
                record.tier.to_string(),
                crate::report::percent(record.probability),
                if record.nines_lower.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:.2}", record.nines_lower)
                },
                record
                    .unavailability_minutes_per_year
                    .map_or("-".to_string(), |m| format!("{m:.3}")),
            ]);
        }
        table
    }

    /// The report as a JSON value (frontier, evaluated candidates, counters).
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "target_nines".to_string(),
                JsonValue::number(self.target_nines),
            ),
            (
                "screened".to_string(),
                JsonValue::number(self.screened as f64),
            ),
            (
                "refined".to_string(),
                JsonValue::number(self.refined as f64),
            ),
            (
                "frontier".to_string(),
                JsonValue::Array(self.frontier.iter().map(|r| r.to_json_value()).collect()),
            ),
            (
                "evaluated".to_string(),
                JsonValue::Array(self.evaluated.iter().map(|r| r.to_json_value()).collect()),
            ),
        ])
    }

    /// The report as a pretty-printed JSON document (bit-identical across
    /// thread counts, like [`crate::query::AnalysisReport::to_json`]).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }
}

/// Searches `space` for the cheapest deployments meeting `config.target_nines`,
/// sharing (and warming) the session's scratch cache across tiers and across
/// repeated searches. See the module docs for the tier structure, determinism
/// argument and frontier semantics.
///
/// An empty candidate grid yields an empty report, not an error — "nothing in
/// this space is even well-formed" is an answer.
pub fn optimize(
    session: &AnalysisSession,
    space: &DeploymentSpace,
    config: &OptimizerConfig,
) -> Result<OptimizeReport, AnalysisError> {
    let candidates = space.candidates();
    if candidates.is_empty() {
        return Ok(OptimizeReport {
            target_nines: config.target_nines,
            frontier: Vec::new(),
            evaluated: Vec::new(),
            screened: 0,
            refined: 0,
        });
    }

    // Tier 1: screen the whole grid as one planned sweep (cheap budgets; the
    // scheduler runs the cells as work-stealing items, merge order fixed).
    let mut query = Query::new();
    for (i, candidate) in candidates.iter().enumerate() {
        query = query.optimizer_cell(
            candidate.label.clone(),
            candidate.model.clone(),
            candidate.scenario.clone(),
            config.budget(i, config.screen_samples),
        );
    }
    let screened_report = session.plan(&query)?.execute();
    let mut evaluated: Vec<FrontierRecord> = candidates
        .iter()
        .zip(screened_report.cells())
        .map(|(candidate, cell)| record_from_cell(candidate, cell, 1, config.target_nines))
        .collect();

    // Tier 2: re-score the frontier-adjacent sampling candidates — the ones
    // whose *optimistic* bound still meets the target — with the full budget.
    // Same per-candidate seed, so the cached pilots/proposals are reused.
    let refine: Vec<usize> = evaluated
        .iter()
        .enumerate()
        .filter(|(_, record)| {
            !record.exact
                && Nines::from_probability(record.ci_upper.clamp(0.0, 1.0))
                    .meets(config.target_nines)
        })
        .map(|(i, _)| i)
        .collect();
    if !refine.is_empty() {
        let mut query = Query::new();
        for &i in &refine {
            let candidate = &candidates[i];
            query = query.optimizer_cell(
                candidate.label.clone(),
                candidate.model.clone(),
                candidate.scenario.clone(),
                config.budget(i, config.refine_samples),
            );
        }
        let refined_report = session.plan(&query)?.execute();
        for (k, &i) in refine.iter().enumerate() {
            evaluated[i] = record_from_cell(
                &candidates[i],
                refined_report.cell(k),
                2,
                config.target_nines,
            );
        }
    }

    // Frontier: feasible + Pareto non-dominated. Sorting by (cost, nines desc,
    // label) and keeping strict nines improvements yields a frontier strictly
    // increasing in both cost and nines — no member can dominate another — with
    // ties broken deterministically.
    let mut order: Vec<usize> = (0..evaluated.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&evaluated[a], &evaluated[b]);
        ra.hourly_cost
            .total_cmp(&rb.hourly_cost)
            .then(rb.nines.total_cmp(&ra.nines))
            .then(ra.label.cmp(&rb.label))
    });
    let mut frontier_indices = Vec::new();
    let mut best_nines = f64::NEG_INFINITY;
    for i in order {
        let record = &evaluated[i];
        if record.feasible && record.nines > best_nines {
            best_nines = record.nines;
            frontier_indices.push(i);
        }
    }

    // Tier 3 (optional): long-run unavailability of the frontier as repairable
    // groups — λ backed out of the window probability, μ from the MTTR.
    if let Some(policy) = &config.repair {
        for &i in &frontier_indices {
            let candidate = &candidates[i];
            if candidate.fault_probability >= 1.0 {
                continue;
            }
            let (group_n, tolerated) = space.target.repair_group(candidate.nodes);
            // The same size limit a repairable cell meets: a candidate's node
            // count is not otherwise bounded.
            if group_n > MAX_NODES {
                return Err(AnalysisError::OverLimit {
                    what: "repairable n",
                    value: group_n,
                    limit: MAX_NODES,
                });
            }
            let lambda = -(1.0 - candidate.fault_probability).ln() / policy.mission_hours;
            let mu = 1.0 / policy.mttr_hours;
            let group = RepairableGroup::new(group_n, lambda, mu, tolerated);
            evaluated[i].unavailability_minutes_per_year =
                Some(group.unavailability_minutes_per_year());
        }
    }

    let frontier = frontier_indices
        .iter()
        .map(|&i| evaluated[i].clone())
        .collect();
    Ok(OptimizeReport {
        target_nines: config.target_nines,
        frontier,
        evaluated,
        screened: candidates.len(),
        refined: refine.len(),
    })
}

/// Extracts the optimizer's view of one executed cell: point estimate, CI (the
/// degenerate point interval for exact engines) and conservative feasibility.
fn record_from_cell(
    candidate: &Candidate,
    cell: &CellRecord,
    tier: u8,
    target_nines: f64,
) -> FrontierRecord {
    let probability = cell.outcome.report.safe_and_live.probability();
    let (ci_lower, ci_upper) = match cell.outcome.sampled_estimates() {
        Some([_, _, both]) => (both.lower, both.upper),
        None => (probability, probability),
    };
    let ci_lower = ci_lower.clamp(0.0, 1.0);
    let ci_upper = ci_upper.clamp(0.0, 1.0);
    let lower_nines = Nines::from_probability(ci_lower);
    FrontierRecord {
        label: candidate.label.clone(),
        instance: candidate.instance.clone(),
        nodes: candidate.nodes,
        placement: candidate.placement,
        hourly_cost: candidate.hourly_cost,
        probability,
        nines: fault_model::metrics::nines(probability),
        ci_lower,
        ci_upper,
        nines_lower: lower_nines.nines(),
        engine: cell.outcome.engine,
        tier,
        exact: cell.outcome.is_exact(),
        samples: cell.samples_drawn(),
        ess: cell.ess(),
        feasible: lower_nines.meets(target_nines),
        unavailability_minutes_per_year: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue_space(nodes: Vec<usize>) -> DeploymentSpace {
        DeploymentSpace {
            instances: default_catalogue(),
            nodes,
            domains: None,
            placements: Vec::new(),
            target: TargetSpec::Protocol(ProtocolSpec::Raft),
        }
    }

    #[test]
    fn exact_raft_space_yields_sorted_feasible_frontier() {
        let session = AnalysisSession::new();
        let report = optimize(
            &session,
            &catalogue_space(vec![3, 5, 7, 9]),
            &OptimizerConfig::new(3.0),
        )
        .unwrap();
        assert_eq!(report.screened, 12);
        assert_eq!(report.refined, 0, "counting cells need no refinement");
        assert!(!report.frontier.is_empty());
        for pair in report.frontier.windows(2) {
            assert!(pair[0].hourly_cost < pair[1].hourly_cost, "sorted by cost");
            assert!(pair[0].nines < pair[1].nines, "strictly improving nines");
        }
        assert!(report.frontier.iter().all(|r| r.feasible && r.exact));
        let best = report.cheapest().unwrap();
        // The paper's §3.2 claim: spot instances win modest targets on price.
        assert_eq!(best.instance, "spot");
        assert_eq!(best.label, report.frontier[0].label);
        // Twelve nines is out of every three-node catalogue cluster's reach.
        let unreachable = optimize(
            &session,
            &catalogue_space(vec![3]),
            &OptimizerConfig::new(12.0),
        )
        .unwrap();
        assert_eq!(unreachable.cheapest(), None);
    }

    #[test]
    fn empty_space_yields_empty_report() {
        let session = AnalysisSession::new();
        let space = DeploymentSpace {
            instances: Vec::new(),
            nodes: vec![3],
            domains: None,
            placements: Vec::new(),
            target: TargetSpec::Protocol(ProtocolSpec::Raft),
        };
        let report = optimize(&session, &space, &OptimizerConfig::new(3.0)).unwrap();
        assert!(report.frontier.is_empty() && report.evaluated.is_empty());
        assert_eq!((report.screened, report.refined), (0, 0));
    }

    #[test]
    fn invalid_grid_combinations_are_skipped_not_fatal() {
        // PBFT below four nodes, flexible quorums without intersection, quorums
        // larger than the cluster: none of these panic, they just drop out.
        let pbft = DeploymentSpace {
            target: TargetSpec::Protocol(ProtocolSpec::Pbft),
            ..catalogue_space(vec![1, 3, 4, 7])
        };
        assert!(pbft.candidates().iter().all(|c| c.nodes >= 4));
        let flex = DeploymentSpace {
            target: TargetSpec::Protocol(ProtocolSpec::RaftFlexible { q_per: 4, q_vc: 2 }),
            ..catalogue_space(vec![3, 5, 9])
        };
        assert!(flex.candidates().iter().all(|c| c.nodes == 5));
        let quorum = DeploymentSpace {
            target: TargetSpec::PersistenceQuorum { quorum_size: 4 },
            ..catalogue_space(vec![2, 4])
        };
        assert!(quorum.candidates().iter().all(|c| c.nodes == 4));
    }

    #[test]
    fn cross_rack_placement_needs_enough_racks() {
        let space = DeploymentSpace {
            instances: vec![NodeType::new("spot", 0.08, 0.10)],
            nodes: vec![12],
            domains: Some(FailureDomains {
                racks: 3,
                shock_probability: 0.01,
            }),
            placements: vec![Placement::SameRack, Placement::CrossRack],
            target: TargetSpec::PersistenceQuorum { quorum_size: 4 },
        };
        // 12 nodes over 3 racks: per-rack 4, so same-rack fits exactly and
        // cross-rack (needing 4 racks) is unrealizable.
        let candidates = space.candidates();
        assert_eq!(candidates.len(), 1);
        assert_eq!(candidates[0].placement, Some(Placement::SameRack));
        // Rack groups landed on the scenario.
        assert_eq!(candidates[0].scenario.groups().len(), 3);
    }

    #[test]
    fn node_type_conversions_preserve_probability_and_price() {
        let node = &default_catalogue()[1];
        assert_eq!(node.name, "spot");
        assert_eq!(node.profile.fault_probability(), 0.08);
        assert_eq!(node.hourly_cost, 0.10);

        // Telemetry-derived node types: one year of mission window maps the
        // posterior-mean AFR straight back to a window probability.
        let mut telemetry = FleetTelemetry::new();
        for i in 0..200u64 {
            telemetry.push(fault_model::telemetry::TelemetryRecord {
                device_id: i,
                class: "spot".into(),
                age_at_start: 0.0,
                observed_hours: fault_model::metrics::HOURS_PER_YEAR,
                failed: i % 25 == 0,
                byzantine: false,
            });
        }
        let node = NodeType::from_telemetry(
            "measured",
            &telemetry,
            fault_model::metrics::HOURS_PER_YEAR,
            0.10,
        )
        .expect("telemetry has exposure");
        let posterior = TelemetryPosterior::from_telemetry(&telemetry).unwrap();
        assert!((node.profile.fault_probability() - posterior.afr_mean()).abs() < 1e-12);
    }

    #[test]
    fn shared_session_shares_optimizer_scratch_with_first_order() {
        // Scoring the same (model, scenario) as a first-order cell and as an
        // optimizer candidate lands on one scratch group: the cache keys both
        // by content.
        let session = AnalysisSession::new();
        let space = DeploymentSpace {
            instances: vec![NodeType::new("spot", 0.08, 0.10)],
            nodes: vec![5],
            domains: None,
            placements: Vec::new(),
            target: TargetSpec::PersistenceQuorum { quorum_size: 2 },
        };
        let candidate = &space.candidates()[0];
        let query = Query::new().cell_correlated(
            "first-order",
            candidate.model.clone(),
            candidate.scenario.clone(),
        );
        session.run(&query).unwrap();
        let before = session.cache_stats().entries;
        optimize(&session, &space, &OptimizerConfig::new(1.0)).unwrap();
        let after = session.cache_stats().entries;
        assert_eq!(
            after, before,
            "the optimizer's candidate reuses the first-order cell's entry"
        );
    }

    #[test]
    fn repair_policy_scores_frontier_in_time_domain() {
        let session = AnalysisSession::new();
        let config = OptimizerConfig::new(3.0).with_repair(RepairPolicy {
            mttr_hours: 10.0,
            mission_hours: fault_model::metrics::HOURS_PER_YEAR,
        });
        let report = optimize(&session, &catalogue_space(vec![3, 5]), &config).unwrap();
        assert!(!report.frontier.is_empty());
        for record in &report.frontier {
            let minutes = record
                .unavailability_minutes_per_year
                .expect("tier 3 scored every frontier member");
            assert!(minutes.is_finite() && minutes >= 0.0);
        }
        // Off-frontier candidates stay steady-state only.
        assert!(report
            .evaluated
            .iter()
            .filter(|r| !report.frontier.contains(r))
            .all(|r| r.unavailability_minutes_per_year.is_none()));
    }

    #[test]
    fn repair_groups_past_the_node_limit_are_refused() {
        // Nothing bounds a candidate's node count before tier 3, so tier 3
        // keeps the size limit a repairable cell meets.
        let n = MAX_NODES + 1;
        let coin = NodeType::from_profile("coin", FaultProfile::new(0.5, 0.0), 1.0);
        let space = DeploymentSpace {
            instances: vec![coin],
            nodes: vec![n],
            domains: None,
            placements: Vec::new(),
            target: TargetSpec::PersistenceQuorum { quorum_size: n },
        };
        let config = OptimizerConfig {
            screen_samples: 100,
            refine_samples: 100,
            ..OptimizerConfig::new(0.1)
        }
        .with_repair(RepairPolicy {
            mttr_hours: 10.0,
            mission_hours: fault_model::metrics::HOURS_PER_YEAR,
        });
        match optimize(&AnalysisSession::new(), &space, &config) {
            Err(AnalysisError::OverLimit { what, value, limit }) => {
                assert_eq!((what, value, limit), ("repairable n", n, MAX_NODES));
            }
            Err(other) => panic!("expected the size limit, got {other}"),
            Ok(report) => panic!("expected the size limit, got {:?}", report.frontier),
        }
    }

    #[test]
    fn json_and_table_render_the_frontier() {
        let session = AnalysisSession::new();
        let report = optimize(
            &session,
            &catalogue_space(vec![3, 5]),
            &OptimizerConfig::new(3.0),
        )
        .unwrap();
        let json = JsonValue::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(
            json.get("target_nines").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        let frontier = json.get("frontier").and_then(JsonValue::as_array).unwrap();
        assert_eq!(frontier.len(), report.frontier.len());
        assert_eq!(
            frontier[0].get("label").and_then(JsonValue::as_str),
            Some(report.frontier[0].label.as_str())
        );
        let table = report.to_table();
        assert_eq!(table.num_rows(), report.frontier.len());
        assert!(table.title().contains("3.0 nines"));
    }

    #[test]
    fn more_screening_budget_never_removes_exact_frontier_points() {
        // Exact cells ignore the sample knob entirely, so the frontier over an
        // all-counting space is invariant under budget changes — the cheap half
        // of the monotonicity property (the sampling half lives in
        // tests/optimizer_properties.rs).
        let session = AnalysisSession::new();
        let space = catalogue_space(vec![3, 5, 7]);
        let small = optimize(
            &session,
            &space,
            &OptimizerConfig::new(3.0).with_screen_samples(1_000),
        )
        .unwrap();
        let large = optimize(
            &session,
            &space,
            &OptimizerConfig::new(3.0).with_screen_samples(50_000),
        )
        .unwrap();
        assert_eq!(small.frontier, large.frontier);
    }
}
