//! Rare-event reliability estimation by importance sampling.
//!
//! The paper's §4 durability claim lives in a regime plain Monte Carlo cannot reach:
//! threshold exceedance is ~50% while actual data loss is ~1e-10, so a naive sampler
//! needs ≈10¹² draws to see a single loss event. The exact engines cover the
//! independent counting case, but any *correlated* or placement-sensitive variant of
//! that scenario was previously unanalyzable. This module closes the gap with
//! per-node probability tilting:
//!
//! # The tilting math
//!
//! Write the target failure model `p` as a product of per-node fault draws plus
//! independent common-cause shocks (the [`CorrelationModel`] construction). A
//! [`Proposal`] `q` mirrors that structure with *inflated* per-node profiles `q_i`
//! and shock probabilities `q_g`. The sampler draws each configuration from the
//! **defensive mixture** `m = β·p + (1−β)·q` (β = ½): a fair coin decides whether a
//! sample's latent variables come from the target or from the tilted proposal, and
//! the importance weight is computed on those *latent* variables —
//!
//! ```text
//! r(x) = Π_i q_i(s_i)/p_i(s_i) · Π_g [ fired_g ? q_g/p_g : (1-q_g)/(1-p_g) ]
//! w(x) = p(x)/m(x) = 1 / (β + (1−β)·r(x))
//! ```
//!
//! — where `s_i` is node `i`'s pre-shock outcome and `fired_g` whether group `g`'s
//! shock fired. Weighting the latent draw (not the post-override state) keeps the
//! estimator exact under correlation: the latent→state mapping is identical under
//! target and proposal, so the ratio of joint latent densities is a valid importance
//! weight. The defensive mixture is what makes *self-normalization* sound: weights
//! are bounded by `1/β = 2` on the bulk of the space, so `Σw/n` concentrates on 1
//! even when the proposal tilts hard into a deep tail (a pure-proposal sampler would
//! leave the typical set unsampled and its normalizer undefined in practice).
//!
//! The failure probability `u = P[¬event]` is then estimated self-normalized,
//! `û = Σ w_i z_i / Σ w_i` with `z_i` the failure indicator, with a delta-method
//! standard error `se² = Σ w_i²(z_i − û)² / (Σ w_i)²` and the effective sample size
//! diagnostic `ESS = (Σ w_i)² / Σ w_i²`. A proposal equal to the target degrades
//! gracefully to plain Monte Carlo (all weights 1, ESS = n).
//!
//! # Choosing the proposal
//!
//! A single uniform tilt is statistically broken once the cluster is large: tilting
//! the ~90 nodes that are irrelevant to a 10-node persistence quorum inflates the
//! likelihood-ratio variance exponentially in N and drives the weights of the very
//! event samples the tilt was meant to reach toward zero. The automatic proposal is
//! therefore *adaptive*: a short pilot (a few thousand draws per round) starts from
//! a strongly tilted proposal and measures, per node and per shock, the
//! **unweighted** frequency `f_i` of being faulty among the round's failure samples.
//! Under the current proposal an event-irrelevant node is faulty in failure samples
//! exactly as often as anywhere else (`f_i ≈ q_i`), while a node every failure
//! requires has `f_i = 1`; the *requiredness* score
//!
//! ```text
//! r_i = (f_i − q_i) / (1 − q_i)    (clamped into [0, 1])
//! ```
//!
//! separates the two with only binomial noise — deliberately avoiding the
//! weighted-frequency update of classic cross-entropy, whose round-one weights are
//! themselves degenerate. Smoothed across rounds, each node's proposal moves to
//! `p_i + r_i·(cap − p_i)`: required nodes converge up toward the cap, bystanders
//! fall back to their target probabilities — the product-form ideal proposal. The
//! engine always learns this proposal; the closed-form [`Proposal::uniform_tilt`]
//! is for calling [`importance_sampling_reliability_par`] directly, as the
//! estimator's own tests do. Deep *threshold* events at huge N (say, 1,500 of 3,000 nodes down)
//! have no good product-form proposal at all; the estimator stays honest there —
//! wide rule-of-three intervals, flagged by the ESS/CI diagnostics — it just loses
//! its efficiency edge.
//!
//! # Parallelism and determinism
//!
//! The sampler reuses the Monte Carlo engine's chunked `(seed, chunk)` scheme
//! ([`crate::montecarlo::MC_CHUNK_SIZE`]): the chunk count depends only on the sample
//! budget, every chunk's RNG is seeded from the run seed and the chunk index, and —
//! because the accumulators here are floating-point weight sums, whose addition is
//! not associative — per-chunk tallies are collected *in chunk order* and folded
//! sequentially. Reports are therefore bit-identical across thread counts for a
//! fixed seed, pilot rounds included.

use fault_model::correlation::CorrelationModel;
use fault_model::mode::{FaultProfile, NodeState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::counting::FaultCountDistribution;
use crate::engine::{AnalysisOutcome, Budget, EngineChoice};
use crate::failure::FailureConfig;
use crate::montecarlo::{chunk_seed, map_sample_chunks, Estimate};
use crate::protocol::ProtocolModel;
use crate::scratch::GroupScratch;

/// Cap on any proposal fault probability. Strictly below 1 so a node's correct
/// outcome always remains reachable under the proposal whenever it is reachable
/// under the target (absolute continuity of the proposal).
const MAX_PROPOSAL_FAULT: f64 = 0.95;

/// Initial per-node proposal fault probability of the adaptive pilot. High enough
/// that even deep-tail events (e.g. ten simultaneous faults) appear in a few
/// thousand draws.
const INITIAL_PROPOSAL_FAULT: f64 = 0.5;

/// Initial proposal probability for correlation-group shocks in the adaptive pilot.
const INITIAL_PROPOSAL_SHOCK: f64 = 0.25;

/// Number of cross-entropy refinement rounds in the adaptive pilot.
const PILOT_ROUNDS: usize = 3;

/// Draws per cross-entropy pilot round.
const PILOT_SAMPLES: usize = 8_192;

/// Mixture weight β on the *target* component of the defensive sampler: each draw
/// comes from the target with probability β and from the tilted proposal otherwise,
/// which bounds every importance weight by `1/β` on the bulk of the space (see the
/// module docs).
const DEFENSIVE_TARGET_FRACTION: f64 = 0.5;

/// Smoothing weight on the freshly measured requiredness scores in a pilot update;
/// the remainder stays on the previous round's score, damping the binomial noise of
/// early rounds (which may see only a handful of failure samples).
const PILOT_SMOOTHING: f64 = 0.7;

/// Draws of the auto-selector's deterministic pilot (see [`naive_failure_estimate`]).
const SELECTOR_PILOT_SAMPLES: usize = 1_024;

/// Seed-derivation tag of the selector pilot stream.
const SELECTOR_SEED_TAG: u64 = 0x5E1E_C702;

/// Seed-derivation tag of pilot round `r` (the round index is added).
const PILOT_SEED_TAG: u64 = 0xCE00_0000;

/// The effective sample size a weighted run must reach: below it the engine
/// escalates once with a doubled sample budget before reporting.
pub const MIN_EFFECTIVE_SAMPLES: f64 = 64.0;

/// A tilted proposal distribution over failure configurations: per-node fault
/// profiles plus per-group shock probabilities, mirroring the structure of the
/// target [`CorrelationModel`].
///
/// Invariants maintained by every constructor: each proposal probability is at least
/// its target counterpart (faults are only ever inflated), zero stays zero (states
/// the target cannot produce are never proposed), and fault probabilities are capped
/// at `MAX_PROPOSAL_FAULT` (0.95) so every target-reachable outcome stays reachable.
#[derive(Debug, Clone, PartialEq)]
pub struct Proposal {
    profiles: Vec<FaultProfile>,
    shocks: Vec<f64>,
}

/// Returns `profile` rescaled so its total fault probability becomes `q_fault`,
/// clamped into `[fault, max(fault, MAX_PROPOSAL_FAULT)]`. Crash and Byzantine mass
/// are scaled by the same factor, so their ratio — and any zero — is preserved.
fn profile_with_fault(profile: &FaultProfile, q_fault: f64) -> FaultProfile {
    let fault = profile.fault_probability();
    if fault <= 0.0 {
        return *profile;
    }
    let q = q_fault.clamp(fault, MAX_PROPOSAL_FAULT.max(fault));
    profile.scaled(q / fault)
}

/// Clamps a proposal shock probability into `[p, max(p, MAX_PROPOSAL_FAULT)]`,
/// preserving zero.
fn shock_with_probability(p: f64, q: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    q.clamp(p, MAX_PROPOSAL_FAULT.max(p))
}

impl Proposal {
    /// A uniform scalar tilt: every node's fault probability and every shock
    /// probability is multiplied by `tilt` (floored at the target, capped at
    /// `MAX_PROPOSAL_FAULT` (0.95)). Adequate for small clusters where most nodes are
    /// relevant to the failure event; prefer [`Proposal::adaptive`] at scale.
    pub fn uniform_tilt(target: &CorrelationModel, tilt: f64) -> Self {
        assert!(
            tilt >= 1.0,
            "a proposal tilt must not deflate faults: {tilt}"
        );
        Self {
            profiles: target
                .profiles()
                .iter()
                .map(|p| profile_with_fault(p, p.fault_probability() * tilt))
                .collect(),
            shocks: target
                .groups()
                .iter()
                .map(|g| shock_with_probability(g.shock_probability, g.shock_probability * tilt))
                .collect(),
        }
    }

    /// The strongly tilted starting point of the adaptive pilot.
    fn pilot_initial(target: &CorrelationModel) -> Self {
        Self {
            profiles: target
                .profiles()
                .iter()
                .map(|p| profile_with_fault(p, INITIAL_PROPOSAL_FAULT))
                .collect(),
            shocks: target
                .groups()
                .iter()
                .map(|g| shock_with_probability(g.shock_probability, INITIAL_PROPOSAL_SHOCK))
                .collect(),
        }
    }

    /// Learns a per-node proposal with a short requiredness pilot (see the module
    /// docs). Deterministic for a fixed `seed` at any thread count. Falls back to a
    /// further-inflated proposal when a round observes no failures at all.
    pub fn adaptive<M: ProtocolModel + ?Sized>(
        model: &M,
        target: &CorrelationModel,
        seed: u64,
    ) -> Self {
        let mut proposal = Self::pilot_initial(target);
        let mut node_score = vec![0.0f64; target.len()];
        let mut shock_score = vec![0.0f64; target.groups().len()];
        for round in 0..PILOT_ROUNDS {
            let round_seed = chunk_seed(seed, PILOT_SEED_TAG + round as u64);
            let tally = map_sample_chunks(PILOT_SAMPLES, round_seed, |rng, count| {
                pilot_chunk(model, target, &proposal, count, rng)
            })
            .into_iter()
            .fold(PilotTally::new(target), PilotTally::merge);
            if tally.failures == 0 {
                // No failures at this tilt: inflate everything and try again.
                proposal = Self {
                    profiles: proposal
                        .profiles
                        .iter()
                        .map(|q| profile_with_fault(q, 2.0 * q.fault_probability()))
                        .collect(),
                    shocks: proposal
                        .shocks
                        .iter()
                        .map(|&q| shock_with_probability(q, 2.0 * q))
                        .collect(),
                };
                continue;
            }
            // Requiredness update: measure each node's unweighted fault frequency
            // among failure samples, subtract what the current proposal would produce
            // for an event-irrelevant node, and smooth across rounds. The proposal is
            // rebuilt from the *target* each round, so bystanders whose score decays
            // sample at exactly their target probabilities (weight factor 1).
            let failures = tally.failures as f64;
            for (score, (&count, q)) in node_score
                .iter_mut()
                .zip(tally.node_fail_count.iter().zip(&proposal.profiles))
            {
                let freq = count as f64 / failures;
                let q_fault = q.fault_probability().min(MAX_PROPOSAL_FAULT);
                let required = ((freq - q_fault) / (1.0 - q_fault)).clamp(0.0, 1.0);
                *score = PILOT_SMOOTHING * required + (1.0 - PILOT_SMOOTHING) * *score;
            }
            for (score, (&count, &q)) in shock_score
                .iter_mut()
                .zip(tally.shock_fired_count.iter().zip(&proposal.shocks))
            {
                let freq = count as f64 / failures;
                let q = q.min(MAX_PROPOSAL_FAULT);
                let required = ((freq - q) / (1.0 - q)).clamp(0.0, 1.0);
                *score = PILOT_SMOOTHING * required + (1.0 - PILOT_SMOOTHING) * *score;
            }
            proposal = Self {
                profiles: target
                    .profiles()
                    .iter()
                    .zip(&node_score)
                    .map(|(p, &score)| {
                        let fault = p.fault_probability();
                        profile_with_fault(p, fault + score * (MAX_PROPOSAL_FAULT - fault))
                    })
                    .collect(),
                shocks: target
                    .groups()
                    .iter()
                    .zip(&shock_score)
                    .map(|(g, &score)| {
                        let p = g.shock_probability;
                        shock_with_probability(p, p + score * (MAX_PROPOSAL_FAULT - p))
                    })
                    .collect(),
            };
        }
        proposal
    }

    /// The per-node proposal fault profiles.
    pub fn profiles(&self) -> &[FaultProfile] {
        &self.profiles
    }

    /// The per-group proposal shock probabilities.
    pub fn shocks(&self) -> &[f64] {
        &self.shocks
    }

    /// Mean proposal fault probability across nodes — a summary of how hard the
    /// proposal tilts, reported as a diagnostic.
    pub fn mean_fault_probability(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        self.profiles
            .iter()
            .map(|p| p.fault_probability())
            .sum::<f64>()
            / self.profiles.len() as f64
    }

    fn assert_matches(&self, target: &CorrelationModel) {
        assert_eq!(
            self.profiles.len(),
            target.len(),
            "proposal and target disagree on the cluster size"
        );
        assert_eq!(
            self.shocks.len(),
            target.groups().len(),
            "proposal and target disagree on the correlation groups"
        );
    }
}

/// One weighted draw from the defensive mixture, written into a caller-provided
/// scratch configuration (the tilted counterpart of
/// [`CorrelationModel::sample_into`] — the estimator loops are allocation-free, one
/// scratch buffer per work chunk). Returns the importance weight `p/m`; which shocks
/// fired (needed by the pilot's CE update) lands in `fired`.
fn draw_weighted_into<R: Rng + ?Sized>(
    target: &CorrelationModel,
    proposal: &Proposal,
    rng: &mut R,
    fired: &mut Vec<bool>,
    config: &mut FailureConfig,
) -> f64 {
    let beta = DEFENSIVE_TARGET_FRACTION;
    let from_target = rng.gen::<f64>() < beta;
    // `ratio` accumulates q(x)/p(x) over the latent factors. An overflow to ∞ means
    // the true weight underflows f64 — the sample contributes (correctly) nothing —
    // and an underflow to 0 correctly saturates the weight at its bound 1/β.
    let mut ratio = 1.0f64;
    let states = config.states_mut();
    for (slot, (p, q)) in states
        .iter_mut()
        .zip(target.profiles().iter().zip(&proposal.profiles))
    {
        let d = if from_target { p } else { q };
        let u: f64 = rng.gen();
        let state = if u < d.byzantine_probability() {
            NodeState::Byzantine
        } else if u < d.fault_probability() {
            NodeState::Crashed
        } else {
            NodeState::Correct
        };
        ratio *= q.probability_of(state) / p.probability_of(state);
        *slot = state;
    }
    fired.clear();
    for (group, &q_shock) in target.groups().iter().zip(&proposal.shocks) {
        let p_shock = group.shock_probability;
        let d = if from_target { p_shock } else { q_shock };
        let shock = rng.gen::<f64>() < d;
        ratio *= if shock {
            q_shock / p_shock
        } else {
            (1.0 - q_shock) / (1.0 - p_shock)
        };
        if shock {
            for &m in &group.members {
                states[m] = match (states[m], group.shock_mode) {
                    // Mirrors `CorrelationModel::sample_into`: Byzantine never
                    // downgrades.
                    (NodeState::Byzantine, _) => NodeState::Byzantine,
                    (_, mode) => mode,
                };
            }
        }
        fired.push(shock);
    }
    1.0 / (beta + (1.0 - beta) * ratio)
}

/// Per-chunk weighted tallies of the final estimator. Folded sequentially in chunk
/// order — float sums are not associative, so the fold order is part of the
/// determinism contract.
#[derive(Debug, Clone, Copy, Default)]
struct WeightedTally {
    sum_w: f64,
    sum_w2: f64,
    unsafe_w: f64,
    unsafe_w2: f64,
    unlive_w: f64,
    unlive_w2: f64,
    unboth_w: f64,
    unboth_w2: f64,
}

impl WeightedTally {
    fn merge(self, other: WeightedTally) -> WeightedTally {
        WeightedTally {
            sum_w: self.sum_w + other.sum_w,
            sum_w2: self.sum_w2 + other.sum_w2,
            unsafe_w: self.unsafe_w + other.unsafe_w,
            unsafe_w2: self.unsafe_w2 + other.unsafe_w2,
            unlive_w: self.unlive_w + other.unlive_w,
            unlive_w2: self.unlive_w2 + other.unlive_w2,
            unboth_w: self.unboth_w + other.unboth_w,
            unboth_w2: self.unboth_w2 + other.unboth_w2,
        }
    }
}

fn estimator_chunk<M: ProtocolModel + ?Sized>(
    model: &M,
    target: &CorrelationModel,
    proposal: &Proposal,
    count: usize,
    rng: &mut impl Rng,
) -> WeightedTally {
    let mut tally = WeightedTally::default();
    let mut fired = Vec::with_capacity(target.groups().len());
    let mut config = FailureConfig::all_correct(target.len());
    for _ in 0..count {
        let w = draw_weighted_into(target, proposal, rng, &mut fired, &mut config);
        let safe = model.is_safe(&config);
        let live = model.is_live(&config);
        let w2 = w * w;
        tally.sum_w += w;
        tally.sum_w2 += w2;
        if !safe {
            tally.unsafe_w += w;
            tally.unsafe_w2 += w2;
        }
        if !live {
            tally.unlive_w += w;
            tally.unlive_w2 += w2;
        }
        if !(safe && live) {
            tally.unboth_w += w;
            tally.unboth_w2 += w2;
        }
    }
    tally
}

/// Per-chunk tallies of one pilot round: failure count, per-node faulty counts and
/// per-group fired counts among failure samples. Deliberately *unweighted* — integer
/// counts carry only binomial noise, where the round-one importance weights would be
/// degenerate (see the module docs).
#[derive(Debug, Clone)]
struct PilotTally {
    failures: usize,
    node_fail_count: Vec<usize>,
    shock_fired_count: Vec<usize>,
}

impl PilotTally {
    fn new(target: &CorrelationModel) -> Self {
        Self {
            failures: 0,
            node_fail_count: vec![0; target.len()],
            shock_fired_count: vec![0; target.groups().len()],
        }
    }

    fn merge(mut self, other: PilotTally) -> PilotTally {
        self.failures += other.failures;
        for (a, b) in self.node_fail_count.iter_mut().zip(&other.node_fail_count) {
            *a += b;
        }
        for (a, b) in self
            .shock_fired_count
            .iter_mut()
            .zip(&other.shock_fired_count)
        {
            *a += b;
        }
        self
    }
}

fn pilot_chunk<M: ProtocolModel + ?Sized>(
    model: &M,
    target: &CorrelationModel,
    proposal: &Proposal,
    count: usize,
    rng: &mut impl Rng,
) -> PilotTally {
    let mut tally = PilotTally::new(target);
    let mut fired = Vec::with_capacity(target.groups().len());
    let mut config = FailureConfig::all_correct(target.len());
    for _ in 0..count {
        draw_weighted_into(target, proposal, rng, &mut fired, &mut config);
        if model.is_safe(&config) && model.is_live(&config) {
            continue;
        }
        tally.failures += 1;
        for (acc, state) in tally.node_fail_count.iter_mut().zip(config.states()) {
            if state.is_faulty() {
                *acc += 1;
            }
        }
        for (acc, &f) in tally.shock_fired_count.iter_mut().zip(&fired) {
            if f {
                *acc += 1;
            }
        }
    }
    tally
}

/// The importance-sampling estimate of one reliability analysis: the three
/// guarantees as weighted estimates with delta-method confidence intervals, plus the
/// effective-sample-size diagnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareEventReport {
    /// Estimated probability of safety.
    pub safe: Estimate,
    /// Estimated probability of liveness.
    pub live: Estimate,
    /// Estimated probability of both.
    pub safe_and_live: Estimate,
    /// Number of weighted samples drawn.
    pub samples: usize,
    /// Effective sample size `(Σw)²/Σw²`: how many *unweighted* samples the weighted
    /// set is worth. A collapsed ESS (≪ samples) flags an ill-matched proposal and
    /// therefore untrustworthy (if still honest) intervals.
    pub ess: f64,
    /// Mean proposal fault probability — how hard the proposal tilted.
    pub proposal_mean_fault: f64,
}

impl RareEventReport {
    /// Whether the effective sample size reaches [`MIN_EFFECTIVE_SAMPLES`].
    pub fn meets_min_ess(&self) -> bool {
        self.ess >= MIN_EFFECTIVE_SAMPLES
    }
}

/// Turns a failure-side tally into a reliability-side estimate `1 − û` with a
/// symmetric delta-method margin; with zero observed failures the upper failure
/// bound falls back to the rule of three on the effective sample size.
fn reliability_estimate(fail_w: f64, fail_w2: f64, tally: &WeightedTally, ess: f64) -> Estimate {
    let u_hat = fail_w / tally.sum_w;
    if fail_w <= 0.0 {
        return Estimate::from_value_and_margin(1.0, 3.0 / ess.max(1.0));
    }
    // Σ w²(z−û)² = Σw²z·(1−2û) + û²·Σw², clamped against floating-point drift.
    let var_sum = (fail_w2 * (1.0 - 2.0 * u_hat) + u_hat * u_hat * tally.sum_w2).max(0.0);
    let se = var_sum.sqrt() / tally.sum_w;
    Estimate::from_value_and_margin(1.0 - u_hat, crate::montecarlo::Z_95 * se)
}

/// Estimates the reliability of `model` under a (possibly correlated) failure model
/// by importance sampling from `proposal` across the rayon thread pool.
///
/// Deterministic for a fixed `seed` regardless of thread count: the chunked
/// `(seed, chunk)` scheme of [`crate::montecarlo`] plus a sequential in-order fold
/// of the per-chunk weight sums. A zero sample budget saturates to one sample.
pub fn importance_sampling_reliability_par<M: ProtocolModel + ?Sized>(
    model: &M,
    target: &CorrelationModel,
    proposal: &Proposal,
    samples: usize,
    seed: u64,
) -> RareEventReport {
    let samples = samples.max(1);
    assert_eq!(
        model.num_nodes(),
        target.len(),
        "model and failure model disagree on the cluster size"
    );
    proposal.assert_matches(target);
    let tally = map_sample_chunks(samples, seed, |rng, count| {
        estimator_chunk(model, target, proposal, count, rng)
    })
    .into_iter()
    .fold(WeightedTally::default(), WeightedTally::merge);
    debug_assert!(
        tally.sum_w > 0.0,
        "importance weights are strictly positive"
    );
    let ess = if tally.sum_w2 > 0.0 {
        tally.sum_w * tally.sum_w / tally.sum_w2
    } else {
        0.0
    };
    RareEventReport {
        safe: reliability_estimate(tally.unsafe_w, tally.unsafe_w2, &tally, ess),
        live: reliability_estimate(tally.unlive_w, tally.unlive_w2, &tally, ess),
        safe_and_live: reliability_estimate(tally.unboth_w, tally.unboth_w2, &tally, ess),
        samples,
        ess,
        proposal_mean_fault: proposal.mean_fault_probability(),
    }
}

/// The auto-selector's cheap, deterministic estimate of the failure probability
/// `P[¬(safe ∧ live)]` of `model` on the scenario's correlation model `target`.
///
/// A small pilot (`SELECTOR_PILOT_SAMPLES` (1024) plain draws, seeded from the budget
/// `seed`) catches failure events common enough for plain Monte Carlo. When the pilot
/// observes *zero* failures the pilot resolution (~1e-3) is not informative, so the
/// estimate falls back to an analytic proxy: the probability that a strict majority
/// of nodes is simultaneously faulty under the *independent marginals* (the
/// [`FaultCountDistribution`] tail over crash-only nodes, O(N²)). The proxy
/// deliberately ignores correlation — it only decides engine preference; a
/// correlated common-mode event that is not actually rare still yields a consistent
/// importance-sampling estimate, just with less of an efficiency edge over plain
/// sampling.
///
/// The estimate depends only on the model, the target and the seed, which is what
/// lets the group scratch ([`crate::scratch`]) keep it per seed: a sweep pays for
/// the pilot once per group instead of once per cell.
pub fn naive_failure_estimate(
    model: &dyn ProtocolModel,
    target: &CorrelationModel,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(chunk_seed(seed, SELECTOR_SEED_TAG));
    let mut hits = 0usize;
    let mut config = FailureConfig::all_correct(target.len());
    for _ in 0..SELECTOR_PILOT_SAMPLES {
        target.sample_into(config.states_mut(), &mut rng);
        if !(model.is_safe(&config) && model.is_live(&config)) {
            hits += 1;
        }
    }
    if hits > 0 {
        return hits as f64 / SELECTOR_PILOT_SAMPLES as f64;
    }
    // `min`: a profile may sum to 1 + 1e-12 (its check's slack), so may a marginal.
    let crash_only: Vec<FaultProfile> = target
        .marginal_fault_probabilities()
        .into_iter()
        .map(|p| FaultProfile::crash_only(p.min(1.0)))
        .collect();
    FaultCountDistribution::from_profiles(&crash_only)
        .probability_at_least_faults(crash_only.len() / 2 + 1)
}

/// Whether importance sampling is the auto-selector's choice here: it applies to
/// every model and scenario, but is preferred only when the failure event is too
/// rare for plain Monte Carlo (naive estimate below
/// [`Budget::rare_event_threshold`](crate::engine::Budget)) and no exact engine took
/// the scenario first. The selector pilot is kept in `scratch`, per seed.
pub(crate) fn supports(
    model: &dyn ProtocolModel,
    scenario: &CorrelationModel,
    budget: &Budget,
    scratch: &GroupScratch,
) -> bool {
    // A zero threshold can never be undercut; bail before paying for the pilot,
    // so disabling the engine is free.
    budget.rare_event_threshold > 0.0
        && !scenario.is_empty()
        && scratch.pilot_estimate(budget.seed, || {
            naive_failure_estimate(model, scenario, budget.seed)
        }) < budget.rare_event_threshold
}

/// The engine's body: the weighted main run from the group's adaptive proposal —
/// learned at most once per seed — with the one-shot ESS escalation.
pub(crate) fn run(
    model: &dyn ProtocolModel,
    scenario: &CorrelationModel,
    budget: &Budget,
    scratch: &GroupScratch,
) -> AnalysisOutcome {
    let proposal = scratch.proposal(budget.seed, || {
        Proposal::adaptive(model, scenario, budget.seed)
    });
    let mut report = importance_sampling_reliability_par(
        model,
        scenario,
        &proposal,
        budget.monte_carlo_samples,
        budget.seed,
    );
    // One escalation: if the weights collapsed below the ESS floor, spend a
    // doubled sample budget (fresh stream) before reporting.
    if !report.meets_min_ess() {
        report = importance_sampling_reliability_par(
            model,
            scenario,
            &proposal,
            budget.monte_carlo_samples.max(1) * 2,
            budget.seed ^ 0x9E37_79B9_7F4A_7C15,
        );
    }
    AnalysisOutcome {
        rare_event: Some(report),
        ..AnalysisOutcome::new(
            EngineChoice::ImportanceSampling,
            report.safe.value,
            report.live.value,
            report.safe_and_live.value,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::PersistenceQuorumModel;
    use crate::engine::Budget;
    use crate::raft_model::RaftModel;
    use fault_model::correlation::CorrelationGroup;

    fn crash_model(n: usize, p: f64) -> CorrelationModel {
        CorrelationModel::independent(vec![FaultProfile::crash_only(p); n])
    }

    #[test]
    fn identity_proposal_reduces_to_plain_monte_carlo_weights() {
        let target = crash_model(5, 0.05);
        let proposal = Proposal::uniform_tilt(&target, 1.0);
        let model = RaftModel::standard(5);
        let report = importance_sampling_reliability_par(&model, &target, &proposal, 20_000, 3);
        // All weights are 1, so the ESS equals the sample count exactly.
        assert!((report.ess - 20_000.0).abs() < 1e-6, "ess {}", report.ess);
        assert!((report.proposal_mean_fault - 0.05).abs() < 1e-12);
    }

    #[test]
    fn uniform_tilt_matches_exact_counting_within_ci() {
        let model = RaftModel::standard(5);
        let deployment = CorrelationModel::uniform(5, FaultProfile::crash_only(0.01));
        let exact = crate::counting::counting_reliability(&model, deployment.profiles());
        let target = crash_model(5, 0.01);
        let proposal = Proposal::uniform_tilt(&target, 10.0);
        let report = importance_sampling_reliability_par(&model, &target, &proposal, 60_000, 11);
        assert!(
            report.live.contains(exact.p_live),
            "exact {} not in [{}, {}]",
            exact.p_live,
            report.live.lower,
            report.live.upper
        );
        // Tail event p ≈ 1e-5: a 60k-sample plain MC CI is ~an order of magnitude
        // wider than the tilted one.
        assert!(report.live.half_width() < 1e-5);
        assert!(report.ess > 100.0);
    }

    #[test]
    fn proposal_floors_at_target_and_caps_below_one() {
        let target = CorrelationModel::independent(vec![
            FaultProfile::crash_only(0.0),
            FaultProfile::crash_only(1e-6),
            FaultProfile::new(0.4, 0.2),
        ])
        .with_group(CorrelationGroup::crash_shock(vec![1, 2], 0.01));
        let proposal = Proposal::uniform_tilt(&target, 1e9);
        // Zero stays zero: never propose a state the target cannot produce.
        assert_eq!(proposal.profiles()[0].fault_probability(), 0.0);
        for q in &proposal.profiles()[1..] {
            assert!(q.fault_probability() <= MAX_PROPOSAL_FAULT + 1e-12);
        }
        // Crash/Byzantine ratio preserved under tilting.
        let q2 = proposal.profiles()[2];
        assert!((q2.crash_probability() / q2.byzantine_probability() - 2.0).abs() < 1e-9);
        assert!(proposal.shocks()[0] <= MAX_PROPOSAL_FAULT + 1e-12);
        // Tilt below 1 is rejected; tilt 1 is the identity.
        let identity = Proposal::uniform_tilt(&target, 1.0);
        assert_eq!(identity.profiles(), target.profiles());
        let shocks: Vec<f64> = target
            .groups()
            .iter()
            .map(|g| g.shock_probability)
            .collect();
        assert_eq!(identity.shocks(), shocks.as_slice());
    }

    #[test]
    #[should_panic(expected = "must not deflate")]
    fn deflating_tilt_is_rejected() {
        Proposal::uniform_tilt(&crash_model(3, 0.1), 0.5);
    }

    #[test]
    fn adaptive_proposal_tilts_quorum_members_only() {
        // 20 nodes; the failure event needs all of nodes 0..4 faulty (p = 1e-5).
        let target = crash_model(20, 0.05);
        let model = PersistenceQuorumModel::new(20, (0..4).collect());
        let proposal = Proposal::adaptive(&model, &target, 42);
        let q = proposal.profiles();
        for (member, profile) in q.iter().enumerate().take(4) {
            assert!(
                profile.fault_probability() > 0.5,
                "member {member} tilted to {}",
                profile.fault_probability()
            );
        }
        let bystander_mean = q[4..].iter().map(|p| p.fault_probability()).sum::<f64>() / 16.0;
        assert!(
            bystander_mean < 0.2,
            "bystanders should fall back toward the target, got {bystander_mean}"
        );
    }

    #[test]
    fn adaptive_estimate_nails_deep_tail_probability() {
        // P[loss] = 0.05^5 ≈ 3.1e-7 — ~3 million plain draws per hit, so a 40k-draw
        // plain Monte Carlo run would all but surely report zero.
        let target = crash_model(20, 0.05);
        let model = PersistenceQuorumModel::new(20, (0..5).collect());
        let proposal = Proposal::adaptive(&model, &target, 11);
        let report = importance_sampling_reliability_par(&model, &target, &proposal, 40_000, 11);
        let truth = 0.05f64.powi(5);
        let loss = 1.0 - report.safe.value;
        assert!(
            report.safe.contains(1.0 - truth),
            "truth {truth:.3e} outside CI [{:.3e}, {:.3e}]",
            1.0 - report.safe.upper,
            1.0 - report.safe.lower
        );
        assert!(loss > 0.0, "the tilted sampler must actually see the event");
        assert!(report.meets_min_ess());
    }

    #[test]
    fn weighted_estimator_is_bit_identical_across_thread_counts() {
        let target =
            crash_model(9, 0.02).with_group(CorrelationGroup::crash_shock((0..9).collect(), 0.001));
        let model = RaftModel::standard(9);
        let proposal = Proposal::uniform_tilt(&target, 8.0);
        // Ragged tail chunk on purpose.
        let samples = 2 * crate::montecarlo::MC_CHUNK_SIZE + 13;
        let reference =
            importance_sampling_reliability_par(&model, &target, &proposal, samples, 99);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let report = pool.install(|| {
                importance_sampling_reliability_par(&model, &target, &proposal, samples, 99)
            });
            assert_eq!(report, reference, "divergence at {threads} threads");
        }
    }

    #[test]
    fn adaptive_pilot_is_bit_identical_across_thread_counts() {
        let target = crash_model(12, 0.03);
        let model = PersistenceQuorumModel::new(12, (0..3).collect());
        let reference = Proposal::adaptive(&model, &target, 5);
        for threads in [1usize, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let proposal = pool.install(|| Proposal::adaptive(&model, &target, 5));
            assert_eq!(proposal, reference, "pilot divergence at {threads} threads");
        }
    }

    #[test]
    fn correlated_target_weights_stay_exact() {
        // Independent part cannot fail (p = 0); the only route to data loss is the
        // shock, so the weighted estimate must recover the shock probability.
        let shock = 0.002;
        let target =
            crash_model(6, 0.0).with_group(CorrelationGroup::crash_shock((0..6).collect(), shock));
        let model = PersistenceQuorumModel::new(6, (0..6).collect());
        let proposal = Proposal::uniform_tilt(&target, 100.0);
        let report = importance_sampling_reliability_par(&model, &target, &proposal, 50_000, 21);
        assert!(
            report.safe.contains(1.0 - shock),
            "shock {} outside [{}, {}]",
            1.0 - shock,
            report.safe.lower,
            report.safe.upper
        );
    }

    #[test]
    fn zero_sample_budget_saturates_to_one_sample() {
        let target = crash_model(3, 0.1);
        let model = RaftModel::standard(3);
        let proposal = Proposal::uniform_tilt(&target, 1.0);
        let report = importance_sampling_reliability_par(&model, &target, &proposal, 0, 1);
        assert_eq!(report.samples, 1);
        for e in [report.safe, report.live, report.safe_and_live] {
            assert!(e.value.is_finite() && e.lower.is_finite() && e.upper.is_finite());
            assert!(0.0 <= e.lower && e.lower <= e.value && e.value <= e.upper && e.upper <= 1.0);
        }
    }

    #[test]
    fn selector_estimate_uses_pilot_for_common_failures() {
        let model = RaftModel::standard(3);
        let estimate =
            naive_failure_estimate(&model, &crash_model(3, 0.25), Budget::default().seed);
        // Unlive ≈ 0.16: the pilot sees plenty of hits.
        assert!(estimate > 0.05, "got {estimate}");
    }

    #[test]
    fn selector_estimate_falls_back_to_analytic_proxy_in_the_tail() {
        let model = PersistenceQuorumModel::new(40, (0..8).collect());
        let estimate =
            naive_failure_estimate(&model, &crash_model(40, 0.05), Budget::default().seed);
        // P[loss] ≈ 4e-11; the pilot sees nothing and the majority proxy takes over.
        assert!(estimate < 1e-6, "got {estimate}");
        // A node outside the quorum whose profile sums to just over 1 (within the
        // profile check's slack) has a marginal just over 1; the proxy still runs.
        let mut profiles = vec![FaultProfile::crash_only(0.05); 40];
        profiles[39] = FaultProfile::new(0.6, 0.4 + 5e-13);
        let target = CorrelationModel::independent(profiles);
        assert!(target.marginal_fault_probabilities()[39] > 1.0);
        let estimate = naive_failure_estimate(&model, &target, Budget::default().seed);
        assert!(estimate < 1e-6, "got {estimate}");
    }

    #[test]
    fn majority_proxy_matches_binomial_on_uniform_probabilities() {
        // The proxy's DP and threshold: P[#faulty >= n/2 + 1] over crash-only nodes.
        let majority = |p: f64, n: usize| {
            FaultCountDistribution::from_profiles(&vec![FaultProfile::crash_only(p); n])
                .probability_at_least_faults(n / 2 + 1)
        };
        // n = 3, p = 0.5: P[#faulty >= 2] = 0.5.
        let proxy = majority(0.5, 3);
        assert!((proxy - 0.5).abs() < 1e-12, "got {proxy}");
        assert_eq!(majority(0.0, 5), 0.0);
    }
}
