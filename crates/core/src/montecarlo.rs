//! Monte Carlo reliability estimation.
//!
//! Exact engines cover independent faults. Once failures are *correlated* (§2(3)) the
//! joint distribution no longer factorizes and the paper notes that "Markov models ...
//! are unable to capture dependent system transitions"; sampling remains applicable.
//! This engine draws failure configurations from a [`CorrelationModel`] (which can also
//! express plain independent deployments) and estimates safety/liveness probabilities
//! with binomial-proportion confidence intervals.
//!
//! # Kernels
//!
//! Two sampling kernels implement the same estimator:
//!
//! * **Scalar** — one scenario at a time, allocation-free: each work chunk reuses a
//!   single scratch [`FailureConfig`] filled in place by
//!   [`CorrelationModel::sample_into`]. The only kernel that can evaluate arbitrary
//!   (placement-sensitive) protocol models.
//! * **Packed** ([`crate::packed`]) — 64 scenarios per pass in bit-sliced `u64`
//!   lanes, for [`CountingModel`]s. Roughly an order
//!   of magnitude more throughput per core; its RNG stream necessarily differs from
//!   the scalar kernel's, so the two agree statistically, not bit-for-bit.
//!
//! [`McKernel`] names the request (`Auto`: packed when the model supports counting,
//! scalar otherwise; or a pinned kernel). The engines and the sweep scheduler
//! always ask for `Auto`; a kernel is pinned only through the `kernel` argument of
//! [`monte_carlo_reliability_par_kernel`], for benchmarks and cross-kernel tests.
//!
//! # One sampler, one entry
//!
//! Every run is a prepared sampler (`McSampler`): the kernel is decided once (in
//! `packed_view`, the only place `McKernel` meets `as_counting()`) and compiled
//! once, and from then on the sampler only answers `chunk(i)`, the hit counters of
//! sample chunk `i`. A whole-cell run is the in-chunk-order fold of `chunk(i)`
//! across the pool; the sweep scheduler ([`crate::query`]) runs chunk `i` as a
//! stealable work item for every sampler that draws it — samplers with equal
//! `DrawKey`s draw it once, tallied per sampler by `chunk_shared`, whose one-sampler
//! case *is* `chunk(i)` — and folds the tallies itself, so the two drivers agree
//! bit for bit by construction. [`monte_carlo_reliability_par_kernel`] is the one public
//! entry; the Monte Carlo engine prepares its sampler from the cell group's
//! scratch ([`crate::scratch`]).
//!
//! # Parallelism and determinism
//!
//! Sampling is embarrassingly parallel, and it is the hot path for every correlated or
//! large-N scenario, so a run fans its chunks out over rayon's persistent worker
//! pool. Determinism is preserved by construction: the sample budget
//! is split into fixed-size chunks (independent of the thread count), every chunk gets
//! its own RNG seeded from the run seed and the chunk index, and the per-chunk hit
//! counters are integers whose sum is associative and commutative. The result is
//! therefore bit-identical for a fixed seed no matter how many worker threads execute
//! it — per kernel: the two kernels are distinct deterministic streams.

use fault_model::correlation::CorrelationModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::engine::Budget;
use crate::failure::FailureConfig;
use crate::packed::{PackedDraw, PackedKernel};
use crate::protocol::{CountingModel, ProtocolModel};
use crate::scratch::GroupScratch;

/// The 97.5% standard-normal quantile: the `z` of every 95% confidence interval in
/// the analysis layer (Wilson intervals here, delta-method intervals in
/// [`crate::rare_event`], sample-equivalence math in the bench harness).
pub const Z_95: f64 = 1.959964;

/// A probability estimated from samples, with a 95% Wilson confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate (sample proportion).
    pub value: f64,
    /// Lower bound of the 95% confidence interval.
    pub lower: f64,
    /// Upper bound of the 95% confidence interval.
    pub upper: f64,
}

impl Estimate {
    /// A Wilson-interval estimate from `hits` successes out of `samples` draws.
    /// Shared by the sampling kernels and the simulation engine
    /// ([`crate::simulation`]), whose trial frequencies are binomial proportions of
    /// exactly this shape.
    pub(crate) fn from_counts(hits: usize, samples: usize) -> Self {
        assert!(samples > 0);
        assert!(hits <= samples, "more hits than samples");
        let n = samples as f64;
        let p = hits as f64 / n;
        let z = Z_95;
        let denom = 1.0 + z * z / n;
        let center = (p + z * z / (2.0 * n)) / denom;
        let margin = (z / denom) * ((p * (1.0 - p) / n) + (z * z / (4.0 * n * n))).sqrt();
        // At the degenerate corners (0 hits, all hits, n = 1) the Wilson bounds are
        // exactly 0 or 1 mathematically, but the floating-point evaluation can drift a
        // few ulps past the point estimate or outside [0, 1]; clamp both ways so the
        // interval invariant 0 <= lower <= value <= upper <= 1 always holds.
        Self::checked(
            p,
            (center - margin).clamp(0.0, 1.0).min(p),
            (center + margin).clamp(0.0, 1.0).max(p),
        )
    }

    /// An estimate `value` with a symmetric `margin`, clamped into `[0, 1]` while
    /// keeping the interval around the point estimate. Used by the weighted
    /// (importance-sampling) estimator, whose delta-method standard error is symmetric.
    pub fn from_value_and_margin(value: f64, margin: f64) -> Self {
        assert!(margin >= 0.0, "margin must be non-negative, got {margin}");
        let value = value.clamp(0.0, 1.0);
        Self::checked(
            value,
            (value - margin).clamp(0.0, 1.0),
            (value + margin).clamp(0.0, 1.0),
        )
    }

    fn checked(value: f64, lower: f64, upper: f64) -> Self {
        debug_assert!(
            (0.0..=1.0).contains(&lower)
                && (0.0..=1.0).contains(&upper)
                && lower <= value
                && value <= upper,
            "estimate invariant violated: lower {lower} <= value {value} <= upper {upper}"
        );
        Self {
            value,
            lower,
            upper,
        }
    }

    /// Whether the interval contains `p`.
    pub fn contains(&self, p: f64) -> bool {
        self.lower <= p && p <= self.upper
    }

    /// Half-width of the confidence interval.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }
}

/// Monte Carlo estimates of safety and liveness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarloReport {
    /// Estimated probability of safety.
    pub safe: Estimate,
    /// Estimated probability of liveness.
    pub live: Estimate,
    /// Estimated probability of both.
    pub safe_and_live: Estimate,
    /// Number of samples drawn.
    pub samples: usize,
    /// The kernel that actually drew the samples — never [`McKernel::Auto`]. In
    /// particular, a run pinned to [`McKernel::Packed`] on a model without a
    /// counting view reports [`McKernel::Scalar`] here, so kernel comparisons can
    /// detect that they did not measure what they pinned.
    pub kernel: McKernel,
}

/// Per-chunk hit counters. Integer sums are exact and order-independent, which is what
/// makes the parallel reduction deterministic regardless of scheduling. Shared with
/// the bit-sliced kernel in [`crate::packed`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitCounts {
    /// Scenarios in which the protocol stayed safe.
    pub safe: usize,
    /// Scenarios in which the protocol stayed live.
    pub live: usize,
    /// Scenarios in which it stayed both safe and live.
    pub both: usize,
}

impl std::ops::Add for HitCounts {
    type Output = HitCounts;

    fn add(self, other: HitCounts) -> HitCounts {
        HitCounts {
            safe: self.safe + other.safe,
            live: self.live + other.live,
            both: self.both + other.both,
        }
    }
}

/// Draws `count` configurations from `failure_model` with `rng` and tallies hits —
/// the scalar kernel's one sampling loop.
///
/// Allocation-free: one scratch [`FailureConfig`] is allocated per chunk and
/// refilled in place by [`CorrelationModel::sample_into`] for every draw. For
/// [`CountingModel`]s the verdict is one scan of the sampled states for the
/// `(crashed, byzantine)` pair and two count predicates, instead of the two full
/// state-vector scans (`is_safe`, `is_live`) the generic verdict pays per draw —
/// bit-identical by the [`CountingModel`] contract (same RNG stream, same
/// predicate values).
fn sample_chunk<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    count: usize,
    rng: &mut impl Rng,
) -> HitCounts {
    use fault_model::mode::NodeState;
    fn tally(
        failure_model: &CorrelationModel,
        count: usize,
        rng: &mut impl Rng,
        verdict: impl Fn(&FailureConfig) -> (bool, bool),
    ) -> HitCounts {
        let mut hits = HitCounts::default();
        let mut scratch = FailureConfig::all_correct(failure_model.len());
        for _ in 0..count {
            failure_model.sample_into(scratch.states_mut(), rng);
            let (safe, live) = verdict(&scratch);
            hits.safe += usize::from(safe);
            hits.live += usize::from(live);
            hits.both += usize::from(safe && live);
        }
        hits
    }
    match model.as_counting() {
        Some(counting) => tally(failure_model, count, rng, |config| {
            let mut crashed = 0usize;
            let mut byzantine = 0usize;
            for &state in config.states() {
                crashed += usize::from(state == NodeState::Crashed);
                byzantine += usize::from(state == NodeState::Byzantine);
            }
            (
                counting.is_safe_counts(crashed, byzantine),
                counting.is_live_counts(crashed, byzantine),
            )
        }),
        None => tally(failure_model, count, rng, |config| {
            (model.is_safe(config), model.is_live(config))
        }),
    }
}

/// Number of samples per parallel work unit.
///
/// The chunk count depends only on the sample budget — never on the thread count — so a
/// fixed seed yields a bit-identical report on any machine. 4096 samples amortise
/// scheduling overhead while still giving a 16-way pool enough units to balance a
/// 200k-sample run.
pub const MC_CHUNK_SIZE: usize = 4096;

/// The SplitMix64 finalizer (Steele et al., OOPSLA '14): a bijective avalanche mix,
/// shared by [`chunk_seed`] and the packed kernel's position-addressed draws
/// ([`crate::packed`]).
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed of chunk `index` within a run seeded with `seed` (SplitMix64
/// finalizer over the pair, so neighbouring chunks get decorrelated streams).
pub(crate) fn chunk_seed(seed: u64, index: u64) -> u64 {
    mix64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Number of [`MC_CHUNK_SIZE`]-sized work units a sample budget splits into (a zero
/// budget saturates to one sample first). The single source of the chunk layout,
/// shared by [`map_sample_chunks`], [`McSampler`] and the sweep scheduler
/// ([`crate::query`]), which decomposes Monte Carlo cells into exactly these chunks.
pub(crate) fn chunk_count(samples: usize) -> usize {
    samples.max(1).div_ceil(MC_CHUNK_SIZE)
}

/// Sample count of chunk `index` within a budget of `samples`: what is left after
/// `index` full chunks, capped at [`MC_CHUNK_SIZE`] (so only the last one is ragged).
pub(crate) fn chunk_len(samples: usize, index: usize) -> usize {
    debug_assert!(index < chunk_count(samples));
    (samples.max(1) - index * MC_CHUNK_SIZE).min(MC_CHUNK_SIZE)
}

/// The shared chunked-sampling scaffolding behind the plain and tilted
/// (importance-sampling, see [`crate::rare_event`]) parallel samplers.
///
/// Splits `samples` into [`MC_CHUNK_SIZE`]-sized work units (the last one ragged),
/// runs `per_chunk(rng, count)` for each across the rayon pool with chunk `i`'s RNG
/// seeded from `chunk_seed(seed, i)`, and returns the per-chunk results **in chunk
/// order**. Collecting in chunk order (rather than reducing on the fly) is what lets
/// callers with non-associative accumulators — floating-point weight sums — fold the
/// results sequentially and still be bit-identical at any thread count.
pub(crate) fn map_sample_chunks<T, F>(samples: usize, seed: u64, per_chunk: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut StdRng, usize) -> T + Sync,
{
    (0..chunk_count(samples))
        .into_par_iter()
        .map(|index| {
            let mut rng = chunk_rng(seed, index);
            per_chunk(&mut rng, chunk_len(samples, index))
        })
        .collect()
}

/// The RNG of chunk `index` within a run seeded with `seed`.
fn chunk_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(chunk_seed(seed, index as u64))
}

/// Which sampling kernel the parallel Monte Carlo engine runs.
///
/// The default (`Auto`, what every engine runs) uses the bit-sliced packed kernel
/// whenever the model is a [`CountingModel`] and the scalar kernel otherwise.
/// Pinning a kernel ([`monte_carlo_reliability_par_kernel`]) is for benchmarks and
/// cross-kernel agreement tests; results of the two kernels agree statistically but
/// come from different RNG streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum McKernel {
    /// Packed for counting models, scalar for everything else.
    #[default]
    Auto,
    /// The allocation-free one-scenario-at-a-time kernel (works for every model).
    Scalar,
    /// The bit-sliced 64-scenarios-per-pass kernel ([`crate::packed`]); requires a
    /// counting model, falls back to scalar when the model is not one.
    Packed,
}

/// The packed-vs-scalar decision, made here and nowhere else: the model's counting
/// view when the packed kernel will draw the samples (`Auto` or a pinned `Packed`,
/// on a model that has one), `None` when the scalar kernel will — a pinned `Scalar`,
/// or a model without a counting view (so a pinned `Packed` falls back visibly).
pub(crate) fn packed_view<M: ProtocolModel + ?Sized>(
    model: &M,
    kernel: McKernel,
) -> Option<&dyn CountingModel> {
    if kernel == McKernel::Scalar {
        None
    } else {
        model.as_counting()
    }
}

/// The kernel a prepared sampler draws with, and what it draws from.
enum Kernel<'a, M: ?Sized> {
    Packed(&'a PackedKernel),
    /// The model, the scenario, and the scratch of their cell group, whose address
    /// names the group in the sampler's [`DrawKey`].
    Scalar(&'a M, &'a CorrelationModel, &'a GroupScratch),
}

/// What a sampler's chunks are drawn from. Samplers with equal keys draw the same
/// scenarios in every chunk index whose length they share, so such a chunk can be
/// drawn once for all of them ([`McSampler::chunk_shared`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct DrawKey<'a> {
    seed: u64,
    source: DrawSource<'a>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum DrawSource<'a> {
    /// The packed kernel's draw half, compared by content: it reads only the
    /// scenario, so the kernels of different models over one scenario draw alike.
    Packed(&'a PackedDraw),
    /// The scalar kernel's model and cell-group scratch, compared by identity: its
    /// verdict runs inside the draw loop, so only one model over one scenario (one
    /// cell group's scratch) draws — and tallies — one chunk.
    Scalar(*const (), *const GroupScratch),
}

/// One prepared Monte Carlo cell: kernel decided and compiled, sample budget
/// saturated, ready to answer [`chunk`](McSampler::chunk) for any chunk index, in
/// any order, on any thread. See the module docs.
pub(crate) struct McSampler<'a, M: ?Sized> {
    kernel: Kernel<'a, M>,
    samples: usize,
    seed: u64,
}

impl<'a> McSampler<'a, dyn ProtocolModel + 'a> {
    /// The sampler of a cell, over the cell group's scratch: the compiled packed
    /// kernel is taken from (or left in) `scratch`.
    pub(crate) fn prepare(
        model: &'a dyn ProtocolModel,
        scenario: &'a CorrelationModel,
        budget: &Budget,
        scratch: &'a GroupScratch,
    ) -> Self {
        let packed = packed_view(model, McKernel::Auto)
            .map(|counting| scratch.packed_kernel(|| PackedKernel::new(counting, scenario)));
        Self::new(
            model,
            scenario,
            packed,
            budget.monte_carlo_samples,
            budget.seed,
            scratch,
        )
    }
}

impl<'a, M: ProtocolModel + ?Sized> McSampler<'a, M> {
    /// A sampler drawing with `packed` when the decision ([`packed_view`]) was the
    /// packed kernel, with the scalar kernel otherwise; `scratch` is the cell
    /// group's.
    fn new(
        model: &'a M,
        failure_model: &'a CorrelationModel,
        packed: Option<&'a PackedKernel>,
        samples: usize,
        seed: u64,
        scratch: &'a GroupScratch,
    ) -> Self {
        assert_eq!(
            model.num_nodes(),
            failure_model.len(),
            "model and failure model disagree on the cluster size"
        );
        Self {
            kernel: match packed {
                Some(kernel) => Kernel::Packed(kernel),
                None => Kernel::Scalar(model, failure_model, scratch),
            },
            // A zero budget saturates to one sample, so estimates are always
            // well-defined — never a division by zero.
            samples: samples.max(1),
            seed,
        }
    }

    /// What this sampler's chunks are drawn from; see [`DrawKey`].
    pub(crate) fn draw_key(&self) -> DrawKey<'a> {
        DrawKey {
            seed: self.seed,
            source: match self.kernel {
                Kernel::Packed(kernel) => DrawSource::Packed(kernel.draw()),
                Kernel::Scalar(model, _, scratch) => {
                    DrawSource::Scalar((model as *const M).cast(), scratch)
                }
            },
        }
    }

    /// Draws and tallies chunk `index`: [`chunk_len`] scenarios from the chunk's own
    /// RNG. A pure function of (sampler, index).
    pub(crate) fn chunk(&self, index: usize) -> HitCounts {
        Self::chunk_shared(std::slice::from_ref(self), index)[0]
    }

    /// Draws chunk `index` once and tallies it for every sampler in `samplers`:
    /// element `k` is `samplers[k].chunk(index)`, bit for bit. The samplers must
    /// share one [`DrawKey`] and give chunk `index` one length, so their draws
    /// coincide and only their tallies can differ.
    pub(crate) fn chunk_shared(samplers: &[Self], index: usize) -> Vec<HitCounts> {
        let first = &samplers[0];
        let count = chunk_len(first.samples, index);
        debug_assert!(
            samplers
                .iter()
                .all(|s| s.draw_key() == first.draw_key() && chunk_len(s.samples, index) == count),
            "a shared chunk needs one draw key and one length"
        );
        let mut rng = chunk_rng(first.seed, index);
        match first.kernel {
            Kernel::Packed(_) => {
                let kernels: Vec<&PackedKernel> = samplers
                    .iter()
                    .map(|sampler| match sampler.kernel {
                        Kernel::Packed(kernel) => kernel,
                        Kernel::Scalar(..) => unreachable!("one draw key, one kernel kind"),
                    })
                    .collect();
                PackedKernel::sample_chunk_shared(&kernels, &mut rng, count)
            }
            // One scalar key is one model over one scenario: one tally serves all.
            Kernel::Scalar(model, failure_model, _) => {
                vec![sample_chunk(model, failure_model, count, &mut rng); samplers.len()]
            }
        }
    }

    /// The report of a run whose chunks summed to `hits`, naming the kernel that
    /// drew them.
    pub(crate) fn report(&self, hits: HitCounts) -> MonteCarloReport {
        MonteCarloReport {
            safe: Estimate::from_counts(hits.safe, self.samples),
            live: Estimate::from_counts(hits.live, self.samples),
            safe_and_live: Estimate::from_counts(hits.both, self.samples),
            samples: self.samples,
            kernel: match self.kernel {
                Kernel::Packed(_) => McKernel::Packed,
                Kernel::Scalar(..) => McKernel::Scalar,
            },
        }
    }

    /// The whole cell: every chunk across the pool, folded in chunk order.
    pub(crate) fn run(&self) -> MonteCarloReport {
        let hits = (0..chunk_count(self.samples))
            .into_par_iter()
            .map(|index| self.chunk(index))
            .collect::<Vec<_>>()
            .into_iter()
            .fold(HitCounts::default(), std::ops::Add::add);
        self.report(hits)
    }
}

/// Estimates the reliability of `model` under a (possibly correlated) failure model by
/// drawing `samples` failure configurations across the persistent thread pool — the
/// one public sampling entry. `kernel` requests the sampling kernel ([`McKernel`]);
/// the report names the one that ran.
///
/// Deterministic for a fixed `seed` regardless of thread count: samples are split into
/// [`MC_CHUNK_SIZE`]-sized chunks, chunk `i` uses a `StdRng` seeded with
/// `chunk_seed(seed, i)`, and the integer hit counters are summed. A zero sample
/// budget saturates to one sample, so the result is always a well-defined (if
/// maximally uncertain) estimate.
///
/// # Panics
///
/// Panics if the model and the failure model disagree on the cluster size.
pub fn monte_carlo_reliability_par_kernel<M: ProtocolModel + ?Sized>(
    model: &M,
    failure_model: &CorrelationModel,
    samples: usize,
    seed: u64,
    kernel: McKernel,
) -> MonteCarloReport {
    let compiled =
        packed_view(model, kernel).map(|counting| PackedKernel::new(counting, failure_model));
    // A lone run shares no chunk, so its group is a throwaway scratch.
    let scratch = GroupScratch::default();
    McSampler::new(
        model,
        failure_model,
        compiled.as_ref(),
        samples,
        seed,
        &scratch,
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::counting_reliability;
    use crate::deployment::Deployment;
    use crate::raft_model::RaftModel;
    use fault_model::correlation::CorrelationGroup;
    use fault_model::mode::FaultProfile;

    /// The one sampling entry on an independent deployment.
    fn sample_independent(
        model: &RaftModel,
        deployment: &Deployment,
        samples: usize,
        seed: u64,
        kernel: McKernel,
    ) -> MonteCarloReport {
        let failure_model = CorrelationModel::from(deployment);
        monte_carlo_reliability_par_kernel(model, &failure_model, samples, seed, kernel)
    }

    #[test]
    fn estimate_interval_contains_truth_for_fair_coin() {
        let e = Estimate::from_counts(5_050, 10_000);
        assert!(e.contains(0.5));
        assert!(e.half_width() < 0.02);
    }

    /// Asserts the interval invariant `0 <= lower <= value <= upper <= 1`.
    fn assert_estimate_invariants(e: Estimate, context: &str) {
        assert!(
            e.lower.is_finite() && e.value.is_finite() && e.upper.is_finite(),
            "{context}: non-finite estimate {e:?}"
        );
        assert!(
            0.0 <= e.lower && e.lower <= e.value && e.value <= e.upper && e.upper <= 1.0,
            "{context}: invariant violated {e:?}"
        );
    }

    #[test]
    fn wilson_interval_holds_at_degenerate_corners() {
        // 0 hits, all hits, and n = 1 are where naive Wilson evaluation drifts.
        for n in [1usize, 2, 3, 10, 1_000] {
            for hits in [0, n / 2, n] {
                let e = Estimate::from_counts(hits, n);
                assert_estimate_invariants(e, &format!("hits={hits} n={n}"));
            }
        }
        let zero = Estimate::from_counts(0, 1);
        assert_eq!(zero.value, 0.0);
        assert_eq!(zero.lower, 0.0);
        let all = Estimate::from_counts(7, 7);
        assert_eq!(all.value, 1.0);
        assert_eq!(all.upper, 1.0);
    }

    proptest::proptest! {
        #[test]
        fn wilson_interval_invariants_across_hit_sample_grid(
            samples in 1usize..5_000,
            hit_fraction in 0.0..=1.0f64,
        ) {
            let hits = ((samples as f64) * hit_fraction).round() as usize;
            let hits = hits.min(samples);
            let e = Estimate::from_counts(hits, samples);
            proptest::prop_assert!(e.lower >= 0.0 && e.upper <= 1.0);
            proptest::prop_assert!(e.lower <= e.value && e.value <= e.upper);
            proptest::prop_assert!(e.contains(e.value));
        }
    }

    #[test]
    fn from_value_and_margin_clamps_into_unit_interval() {
        let e = Estimate::from_value_and_margin(1.0 - 1e-12, 1e-6);
        assert_estimate_invariants(e, "near-one with margin");
        assert_eq!(e.upper, 1.0);
        let tiny = Estimate::from_value_and_margin(1e-10, 5e-11);
        assert_estimate_invariants(tiny, "tiny with margin");
        assert!(tiny.contains(1e-10));
    }

    #[test]
    fn zero_sample_budget_saturates_to_one_sample() {
        let model = RaftModel::standard(3);
        let failure_model = CorrelationModel::independent(vec![FaultProfile::crash_only(0.1); 3]);
        for kernel in [McKernel::Scalar, McKernel::Packed] {
            let report = monte_carlo_reliability_par_kernel(&model, &failure_model, 0, 9, kernel);
            assert_eq!(report.samples, 1);
            assert_eq!(report.kernel, kernel);
            for e in [report.safe, report.live, report.safe_and_live] {
                assert_estimate_invariants(e, &format!("{kernel:?}"));
            }
        }
    }

    #[test]
    fn monte_carlo_agrees_with_exact_analysis() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let exact = counting_reliability(&model, &deployment);
        let mc = sample_independent(&model, &deployment, 200_000, 11, McKernel::Scalar);
        assert!(
            mc.live.contains(exact.p_live),
            "exact {} not in [{}, {}]",
            exact.p_live,
            mc.live.lower,
            mc.live.upper
        );
        assert!((mc.safe.value - 1.0).abs() < 1e-12);
        assert_eq!(mc.samples, 200_000);
    }

    #[test]
    fn correlated_failures_reduce_liveness() {
        let model = RaftModel::standard(5);
        let profiles = vec![FaultProfile::crash_only(0.02); 5];
        let independent = CorrelationModel::independent(profiles.clone());
        let correlated = CorrelationModel::independent(profiles)
            .with_group(CorrelationGroup::crash_shock((0..5).collect(), 0.01));
        let sample = |failure_model| {
            monte_carlo_reliability_par_kernel(&model, failure_model, 100_000, 5, McKernel::Scalar)
        };
        let (ind, cor) = (sample(&independent), sample(&correlated));
        assert!(cor.live.value < ind.live.value - 0.005);
    }

    #[test]
    #[should_panic(expected = "disagree on the cluster size")]
    fn size_mismatch_panics() {
        let model = RaftModel::standard(3);
        let failure_model = CorrelationModel::independent(vec![FaultProfile::crash_only(0.1); 4]);
        monte_carlo_reliability_par_kernel(&model, &failure_model, 10, 1, McKernel::Scalar);
    }

    #[test]
    fn parallel_estimate_agrees_with_exact_analysis() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let exact = counting_reliability(&model, &deployment);
        let mc = sample_independent(&model, &deployment, 200_000, 11, McKernel::Auto);
        assert!(
            mc.live.contains(exact.p_live),
            "exact {} not in [{}, {}]",
            exact.p_live,
            mc.live.lower,
            mc.live.upper
        );
        assert!((mc.safe.value - 1.0).abs() < 1e-12);
        assert_eq!(mc.samples, 200_000);
    }

    #[test]
    fn parallel_is_bit_identical_across_thread_counts() {
        let model = RaftModel::standard(7);
        let profiles = vec![FaultProfile::crash_only(0.04); 7];
        let failure_model = CorrelationModel::independent(profiles)
            .with_group(CorrelationGroup::crash_shock((0..7).collect(), 0.01));
        // An awkward sample count: exercises the short tail chunk.
        let samples = 3 * MC_CHUNK_SIZE + 17;
        let sample = || {
            monte_carlo_reliability_par_kernel(&model, &failure_model, samples, 42, McKernel::Auto)
        };
        let reference = sample();
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            assert_eq!(
                pool.install(sample),
                reference,
                "divergence at {threads} threads"
            );
        }
    }

    #[test]
    fn parallel_is_deterministic_per_seed_and_sensitive_to_it() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.08);
        let sample = |seed| sample_independent(&model, &deployment, 20_000, seed, McKernel::Auto);
        let a = sample(1);
        assert_eq!(a, sample(1));
        // Two seeds can collide on the same hit count by chance; across five seeds at
        // ~12 hits of standard deviation, identical counts everywhere would mean the
        // seed is being ignored.
        let distinct = (2u64..=6).map(sample).filter(|r| *r != a).count();
        assert!(
            distinct > 0,
            "different seeds should draw different samples"
        );
    }
}
