//! Fault modelling substrate for probabilistic consensus analysis.
//!
//! The paper "Real Life Is Uncertain. Consensus Should Be Too!" (HotOS '25) argues that
//! consensus protocols should reason about *fault curves*: per-node, time-dependent,
//! possibly correlated probabilities of crashing or behaving Byzantine. This crate provides
//! the building blocks that the analysis layer (`prob-consensus`) and the simulator
//! (`consensus-sim`) consume:
//!
//! * [`curve`] — fault curves: constant, exponential, Weibull, bathtub, piecewise, step
//!   (rollout) and empirical hazard-rate models, all exposing the probability of failure
//!   within a mission window.
//! * [`mode`] — failure modes (crash vs. Byzantine) and per-node [`mode::FaultProfile`]s
//!   that combine both probabilities, e.g. the paper's "4% AFR crash, 0.01% Byzantine
//!   mercurial core" example.
//! * [`node`] — node specifications and fleets: a named set of nodes, each with a fault
//!   curve, a hardware class, a price and a carbon intensity.
//! * [`metrics`] — reliability metrics: nines, AFR ⇄ hazard-rate conversions, MTBF/MTTR,
//!   availability.
//! * [`markov`] — repairable groups as birth–death reliability chains, in the style the
//!   storage community uses for MTTDL/MTTF computations (§2 of the paper): first-passage
//!   times, steady-state availability and transient unreliability from the chain's
//!   structure.
//! * [`correlation`] — correlated-failure models (common-cause shocks per correlation
//!   group) and samplers producing failure configurations.
//! * [`telemetry`] — synthetic fleet telemetry (the stand-in for Backblaze-style drive
//!   stats and spot-eviction traces) and estimators that recover fault curves from it.
//! * [`posterior`] — Bayesian conjugate posteriors (Beta over failure probability, Gamma
//!   over failure rate, Jeffreys priors) fitted from the same telemetry, with
//!   deterministic inverse-CDF sampling for second-order analysis.
//!
//! # Examples
//!
//! ```
//! use fault_model::curve::{ConstantCurve, FaultCurve};
//! use fault_model::metrics::afr_to_hourly_rate;
//!
//! // A disk with a 4% annual failure rate.
//! let curve = ConstantCurve::from_afr(0.04);
//! let p_year = curve.failure_probability(0.0, fault_model::metrics::HOURS_PER_YEAR);
//! assert!((p_year - 0.04).abs() < 1e-9);
//! assert!(afr_to_hourly_rate(0.04) > 0.0);
//! ```

// Documentation is part of this crate's contract: every public item is
// documented, and CI builds rustdoc with `-D warnings` (see the `docs` job).
#![warn(missing_docs)]
pub mod correlation;
pub mod curve;
pub mod markov;
pub mod metrics;
pub mod mode;
pub mod node;
pub mod posterior;
pub mod telemetry;

pub use correlation::{CorrelationGroup, CorrelationModel};
pub use curve::{
    BathtubCurve, ConstantCurve, EmpiricalCurve, ExponentialCurve, FaultCurve, PiecewiseCurve,
    StepCurve, WeibullCurve,
};
pub use markov::RepairableGroup;
pub use metrics::{
    afr_to_hourly_rate, availability, hourly_rate_to_afr, mtbf, nines, probability_from_nines,
    Nines, HOURS_PER_YEAR,
};
pub use mode::{FailureMode, FaultProfile};
pub use node::{Fleet, NodeClass, NodeId, NodeSpec};
pub use posterior::{BetaPosterior, GammaPosterior, TelemetryPosterior};
pub use telemetry::{FleetTelemetry, TelemetryEstimator, TelemetryGenerator, TelemetryRecord};
