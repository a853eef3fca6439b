//! Probabilistic reliability analysis of consensus protocols.
//!
//! This crate is the primary contribution of the reproduction: it turns the position of
//! "Real Life Is Uncertain. Consensus Should Be Too!" (HotOS '25) into an executable
//! analysis and design library. Given a *scenario* (per-node probabilities of crashing
//! or turning Byzantine over a mission window, derived from fault curves, plus
//! common-cause shock groups — a [`fault_model::correlation::CorrelationModel`]) and a
//! *protocol model* (which failure configurations keep the protocol safe and live —
//! Theorems 3.1 and 3.2 of the paper), it computes probabilistic safety and liveness
//! guarantees, and uses them to drive the probability-native mechanisms the paper
//! sketches in §4.
//!
//! # Layout
//!
//! * [`failure`] — failure configurations (who crashed, who is Byzantine) and their
//!   probabilities under per-node fault profiles.
//! * [`protocol`] — the [`protocol::ProtocolModel`] and [`protocol::CountingModel`]
//!   traits.
//! * [`raft_model`], [`pbft_model`] — Theorem 3.2 and Theorem 3.1 as predicates, with
//!   configurable quorum sizes.
//! * [`enumeration`], [`counting`], [`montecarlo`], [`rare_event`], [`simulation`] —
//!   the five analysis engines: exact enumeration over failure configurations, exact
//!   dynamic programming over fault counts, rayon-parallel Monte Carlo sampling,
//!   importance sampling with per-node probability tilting for rare failure events
//!   (tail probabilities plain sampling cannot resolve), and empirical discrete-event
//!   simulation of the executable protocols (the validation loop: analytic
//!   prediction ↔ measured system behaviour).
//! * [`packed`] — the bit-sliced Monte Carlo kernel: 64 scenarios per pass for
//!   counting models, auto-selected by the Monte Carlo engine
//!   (see [`montecarlo::McKernel`]).
//! * [`engine`] — the unified engine layer: [`engine::EngineChoice`] names, checks
//!   and runs the five engines, which all run on one scenario type
//!   ([`fault_model::correlation::CorrelationModel`]; an independent deployment is
//!   the model with no shock groups), [`engine::Budget`] and the auto-selector (which
//!   picks among the four analytic engines; simulation runs only on request).
//! * [`scratch`] — the per-(model, scenario) prepared scratch every engine runs on
//!   ([`scratch::GroupScratch`]): shared by a sweep's cells, throwaway for a single
//!   call.
//! * [`analyzer`] — the front-end: [`analyzer::analyze_auto`] picks an engine within a
//!   budget and returns an [`engine::AnalysisOutcome`] (a
//!   [`analyzer::ReliabilityReport`] tagged with the engine that produced it).
//! * [`query`] — the sweep-native front door: [`query::Query`] /
//!   [`query::AnalysisSession`] plan-and-execute whole grids, time-domain trajectory
//!   cells ([`query::TimeAxis`], repairable fleets) and paired analytic-vs-simulation
//!   cross-validation with z-scores, rendered to tables and JSON. Its files split what a
//!   caller builds (`spec`), what the session runs (`plan`) and what comes back (`report`).
//! * [`cache`] — the concurrent cross-request session cache behind
//!   [`query::AnalysisSession`]: sharded, size-bounded, LRU-evicting scratch
//!   keyed by cell signature, with hit/miss/eviction counters
//!   ([`cache::CacheStats`]).
//! * [`epistemic`] — second-order uncertainty: deterministic posterior
//!   parameter draws ([`epistemic::posterior_draws`]) propagated through the
//!   engines by the query planner, the resulting
//!   [`epistemic::EpistemicReport`] separating epistemic (parameter) from
//!   aleatoric (sampling) intervals, and calibration diagnostics
//!   ([`epistemic::calibrate`]) against known ground truth.
//! * [`durability`] — data-loss analysis: probability that failures cover a persistence
//!   quorum.
//! * [`mod@optimize`] — the probability-native deployment optimizer: a three-tier
//!   search (counting/packed screening → importance-sampling refinement →
//!   optional time-domain scoring) over node count, fault curves, placement
//!   across failure domains and flexible quorums, emitting a ranked Pareto
//!   frontier of cost vs nines ([`optimize::FrontierRecord`]). It is the one
//!   deployment search; [`optimize::default_catalogue`] is its instance
//!   catalogue.
//! * [`report`] — plain-text table formatting used by the benchmark harness.
//!
//! # Quickstart
//!
//! ```
//! use fault_model::correlation::CorrelationModel;
//! use fault_model::mode::FaultProfile;
//! use prob_consensus::analyzer::analyze_auto;
//! use prob_consensus::engine::Budget;
//! use prob_consensus::raft_model::RaftModel;
//!
//! // Three Raft nodes, each crashing with 1% probability over the mission window.
//! let scenario = CorrelationModel::uniform(3, FaultProfile::crash_only(0.01));
//! let outcome = analyze_auto(&RaftModel::standard(3), &scenario, &Budget::default())?;
//! // The paper: "Raft ... is only 99.97% safe and live in three node deployments".
//! assert_eq!(outcome.report.safe_and_live.as_percent(), "99.97%");
//! // The auto-selector picked the exact counting engine for this model.
//! assert!(outcome.is_exact());
//! # Ok::<(), prob_consensus::AnalysisError>(())
//! ```

// Documentation is part of this crate's contract: every public item is
// documented, and CI builds rustdoc with `-D warnings` (see the `docs` job).
#![warn(missing_docs)]
pub mod analyzer;
pub mod cache;
pub mod counting;
pub mod durability;
pub mod engine;
pub mod enumeration;
pub mod epistemic;
pub mod failure;
pub mod json;
pub mod montecarlo;
pub mod optimize;
pub mod packed;
pub mod pbft_model;
pub mod protocol;
pub mod query;
pub mod raft_model;
pub mod rare_event;
pub mod report;
pub mod scratch;
pub mod simulation;

pub use analyzer::{analyze_auto, AnalysisError, ReliabilityReport};
pub use cache::CacheStats;
pub use engine::{
    AnalysisOutcome, Budget, EngineChoice, EpistemicBudget, FaultEnvironment, InvalidBudget,
    SimBudget,
};
pub use epistemic::{
    calibrate, posterior_draws, CalibrationConfig, CalibrationReport, EpistemicDraw,
    EpistemicReport, PosteriorDraw,
};
pub use failure::FailureConfig;
pub use json::JsonValue;
pub use optimize::{
    optimize, Candidate, DeploymentSpace, FailureDomains, FrontierRecord, NodeType, OptimizeReport,
    OptimizerConfig, Placement, RepairPolicy, TargetSpec, OPTIMIZER_SALT,
};
pub use pbft_model::PbftModel;
pub use protocol::{CountingModel, ProtocolModel};
pub use query::{
    logspace, AnalysisReport, AnalysisSession, CellRecord, CorrelationSpec, Divergence,
    DivergenceDirection, FaultAxis, Metrics, ProtocolSpec, Query, QueryPlan, StreamSink, TimeAxis,
    TrajectoryKind, TrajectoryPoint, TrajectoryRecord, ValidationRecord, DIVERGENCE_Z,
};
pub use raft_model::RaftModel;
pub use rare_event::{Proposal, RareEventReport};
pub use simulation::SimulationReport;
