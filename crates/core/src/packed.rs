//! Bit-sliced Monte Carlo kernel: up to 512 scenarios per pass.
//!
//! The scalar sampler evaluates one failure configuration at a time: draw a state per
//! node, then ask the protocol model about the resulting configuration. For
//! [`CountingModel`]s the second half collapses to two fault counts, which makes the
//! whole evaluation *bit-sliceable*: this kernel packs 64 independent scenarios into
//! the lanes of `u64` words, so one word of per-node state answers "is node `i`
//! crashed?" for 64 scenarios simultaneously.
//!
//! # Lane masks from position-addressed randomness
//!
//! Node `i`'s two thresholds (`P[Byzantine]`, `P[any fault]`) are converted once to
//! fixed point on the 64-bit uniform lattice (`t = p · 2⁶⁴`). A scenario's uniform
//! draw `u` is compared against both thresholds *bitwise*: random words supply bit
//! `k` of all 64 lanes' `u` at once, and a lexicographic comparison from the most
//! significant bit maintains, per threshold, a "still equal" lane mask and a
//! "decided less" lane mask. Each random word halves the undecided lanes in
//! expectation, so ~8 words decide all 64 lanes — an ~8× reduction in RNG traffic
//! over scalar sampling on top of the vectorized compare.
//!
//! The random words are *position-addressed* (a counter-based generator, like
//! Salmon et al.'s Philox/Threefry family): the word feeding bit `k` of draw row
//! `row` in 64-lane block `b` is
//!
//! ```text
//! word(b, row, k) = mix64(block_seed(b) ^ pos[row][63 − k])
//! ```
//!
//! where `mix64` is the SplitMix64 finalizer and `pos` is a per-kernel table of
//! precomputed position keys (one row per node, then one per correlation group).
//! There is no generator state to advance, so a word's value depends only on *where*
//! it is used, never on how many words anything else consumed — the property all the
//! determinism and SIMD guarantees below fall out of. Correlation-group shocks are
//! one more single-threshold row each: their fired-lane mask is OR-ed over the
//! member masks (Byzantine shocks override crash lanes; Byzantine outcomes are never
//! downgraded, mirroring [`CorrelationModel::sample_into`]).
//!
//! # Multi-word passes
//!
//! A pass processes eight 64-lane *blocks* (`MAX_LANE_WORDS`) at once: 512 scenarios.
//! The lexicographic compare runs over all blocks of a pass in lockstep — the
//! threshold-bit selectors are hoisted out of the per-word loop and the per-block
//! update is branchless (`sel = 0 − bit` turns the two threshold cases into mask
//! arithmetic) — so the serial `eq`-mask dependency chains of independent blocks
//! pipeline across each other instead of stalling one at a time, and a node's
//! threshold state is loaded once per pass instead of once per word. Lane masks are
//! laid out node-major (`mask[node][block]`), keeping one pass's working set —
//! `2 · n · W` words plus the vertical counters — inside L1 for every deployment
//! this repository analyzes. Sample counts not divisible by `64 · W` take a ragged
//! tail: a final short pass (fewer blocks) whose last block masks surplus lanes out
//! of the tallies.
//!
//! On x86-64 hosts with AVX-512 (runtime-detected), width-8 passes take a SIMD fast
//! path: the 8 blocks of a pass are exactly one 512-bit vector, the compare loop
//! interleaves two nodes to hide the multiply latency of `mix64`, and the vertical
//! counters are rippled vector-wide. Because every random word is a pure function of
//! its position, the SIMD path computes *the same words* as the portable path and
//! its reports are bit-identical — `packed::tests` asserts this on AVX-512 hosts.
//!
//! # Counting and thresholds
//!
//! Per-scenario fault counts are accumulated with bit-sliced vertical adders
//! (Harley–Seal style): `planes[k]` holds bit `k` of every lane's running count, and
//! adding a node's fault mask is a ripple-carry over the planes. For crash-only
//! deployments whose predicates are monotone in the fault count (every `standard`
//! Raft/PBFT configuration), the three guarantees reduce to `count ≤ T` checks,
//! evaluated for all 64 lanes at once by a bitwise lexicographic comparison over the
//! planes and tallied with a popcount (predicates that coincide — Raft's liveness
//! and joint guarantee, say — are compared once and shared). Everything else (mixed
//! crash/Byzantine deployments, non-monotone counting predicates) falls back to a
//! per-lane count extraction and a precomputed `(crashed, byzantine) → {safe, live,
//! both}` lookup table — still far cheaper than the scalar path, which re-scans the
//! whole state vector per scenario.
//!
//! # Shared draws
//!
//! A kernel is two halves: the *draw* (`PackedDraw`: thresholds, correlation
//! groups, position keys), which reads only the failure model, and the *hit plan*
//! (`HitPlan`: the `count ≤ T` predicates or the lookup table), which reads only
//! the protocol model. Two kernels with equal draw halves — Raft and PBFT over one
//! scenario, say — draw the same lane masks from the same chunk RNG word, so
//! `PackedKernel::sample_chunk_shared` computes a pass's masks and each block's
//! vertical counters once and evaluates them under every distinct plan;
//! [`PackedKernel::sample_chunk`] is the one-plan case.
//!
//! # Determinism
//!
//! The kernel runs under the same chunked `(seed, chunk index)` scheme as the scalar
//! engine ([`crate::montecarlo::MC_CHUNK_SIZE`]), so a fixed seed is bit-identical at
//! any thread count. Within a chunk, the chunk's `StdRng` contributes exactly one
//! base word, and the 64-lane block with in-chunk index `b` draws its words from
//! `block_seed(b) = chunk_seed(base, b)` at the positions described above. A block's
//! masks therefore depend only on `(base, b)` — never on the pass width grouping the
//! blocks, the order anything was computed in, or how many words another block
//! needed — which makes the report bit-identical for **any** lane width `W`, any
//! thread count, and either the portable or the SIMD compare. (Early exit is sound
//! for the same reason: once a block's `eq` mask is zero its outputs are fixed, so
//! processing further bit positions for the *pass* is a no-op for that block.) The
//! packed RNG *stream* differs from the scalar stream by construction (positional
//! lattice draws instead of per-scenario `f64` draws), so packed and scalar runs
//! agree statistically — within confidence intervals — not bit-for-bit;
//! `tests/engine_agreement.rs` pins all three properties.

use fault_model::correlation::CorrelationModel;
use fault_model::mode::NodeState;
use rand::RngCore;

use crate::montecarlo::{chunk_seed, mix64, HitCounts};
use crate::protocol::CountingModel;

#[cfg(target_arch = "x86_64")]
#[path = "packed_simd.rs"]
mod simd;

/// Maximum bit planes a vertical counter carries: counts up to 2¹⁶ − 1 nodes, far
/// beyond any deployment this repository analyzes.
const MAX_PLANES: usize = 16;

/// Number of 64-lane `u64` blocks a pass processes at once (512 scenarios). The
/// pass scratch is stack-sized by this constant. Results are bit-identical at every
/// width `sample_w` takes (see the module docs), so sampling uses the fastest one —
/// this one, which is also where the AVX-512 fast path engages (one pass is one
/// 512-bit vector).
const MAX_LANE_WORDS: usize = 8;

/// A probability as an inclusive-exclusive bound on the 64-bit uniform lattice:
/// `u < t` fires with probability `t / 2⁶⁴`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Bound {
    /// Probability 0: never fires.
    Never,
    /// Fires when the 64-bit uniform draw is below `t`.
    Fixed(u64),
    /// Probability 1: always fires.
    Always,
}

/// Converts a probability to its fixed-point threshold. Rounding error is at most
/// 2⁻⁶⁴ per draw — far below the f64 resolution of the scalar path's thresholds.
fn fixed_point(p: f64) -> Bound {
    if p <= 0.0 {
        Bound::Never
    } else if p >= 1.0 {
        Bound::Always
    } else {
        // p ∈ (0, 1), so p · 2⁶⁴ ∈ (0, 2⁶⁴); the saturating float→int cast turns a
        // rounded-up 2⁶⁴ into u64::MAX (probability 1 − 2⁻⁶⁴).
        match (p * 18_446_744_073_709_551_616.0) as u64 {
            0 => Bound::Never,
            t => Bound::Fixed(t),
        }
    }
}

/// Initial `(lt, eq, threshold)` lane state of one lexicographic comparison.
fn bound_state(bound: Bound) -> (u64, u64, u64) {
    match bound {
        Bound::Never => (0, 0, 0),
        Bound::Always => (!0, 0, 0),
        Bound::Fixed(t) => (0, !0, t),
    }
}

/// The position key feeding bit position `j` (counting from the most significant
/// comparison step) of draw row `row` — row-major SplitMix64 points, precomputed
/// into [`PackedDraw::pos`] so the hot loop pays one load instead of a mix.
/// The `+ 1` keeps position `(0, 0)` off the finalizer's 0 → 0 fixed point.
fn pos_key(row: usize, j: usize) -> u64 {
    mix64(((row * 64 + j) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One draw row's dual-threshold lexicographic compare over the `W` blocks of a
/// pass in lockstep, writing block `b`'s masks to `byz_out[b]` / `fault_out[b]`
/// (the *fault* mask — the caller subtracts the Byzantine lanes).
///
/// The word feeding bit position `j` of block `b` is `mix64(seeds[b] ^ pos_row[j])`
/// — position-addressed, so blocks have no consumption state to keep consistent and
/// the loop is branchless over `b` (decided blocks keep computing words, which is a
/// no-op on their outputs — see the module docs). Degenerate bounds short-circuit to
/// constant masks without touching `pos_row` at all.
#[inline]
fn split_wide<const W: usize>(
    seeds: &[u64; W],
    pos_row: &[u64; 64],
    byz: Bound,
    fault: Bound,
    byz_out: &mut [u64; W],
    fault_out: &mut [u64; W],
) {
    let (lt_b0, eq_b0, tb) = bound_state(byz);
    let (lt_f0, eq_f0, tf) = bound_state(fault);
    *byz_out = [lt_b0; W];
    *fault_out = [lt_f0; W];
    if eq_b0 | eq_f0 == 0 {
        return; // both bounds degenerate: constant masks
    }
    if eq_b0 == 0 {
        // Single-threshold fast path (crash-only nodes and group shocks): the
        // Byzantine compare is settled, skip its mask arithmetic entirely.
        split_single::<W>(seeds, pos_row, tf, fault_out);
        debug_assert!(byz_out
            .iter()
            .zip(fault_out.iter())
            .all(|(&b, &f)| b & !f == 0));
        return;
    }
    let mut eq_b = [eq_b0; W];
    let mut eq_f = [eq_f0; W];
    for (j, &pos) in pos_row.iter().enumerate() {
        let k = 63 - j;
        let sel_b = 0u64.wrapping_sub(tb >> k & 1);
        let sel_f = 0u64.wrapping_sub(tf >> k & 1);
        let mut undecided = 0u64;
        for b in 0..W {
            let r = mix64(seeds[b] ^ pos);
            byz_out[b] |= eq_b[b] & !r & sel_b;
            eq_b[b] &= r ^ !sel_b;
            fault_out[b] |= eq_f[b] & !r & sel_f;
            eq_f[b] &= r ^ !sel_f;
            undecided |= eq_b[b] | eq_f[b];
        }
        if undecided == 0 {
            break;
        }
    }
    for b in 0..W {
        debug_assert_eq!(
            byz_out[b] & !fault_out[b],
            0,
            "byzantine lanes must be faulty lanes"
        );
    }
}

/// Single-threshold form of the lockstep compare: `out[b]` gets block `b`'s
/// `u < t` lane mask. Lanes still undecided after 64 bits have `u = t` exactly,
/// which is not `<`.
#[inline]
fn split_single<const W: usize>(seeds: &[u64; W], pos_row: &[u64; 64], t: u64, out: &mut [u64; W]) {
    let mut eq = [!0u64; W];
    let mut lt = [0u64; W];
    for (j, &pos) in pos_row.iter().enumerate() {
        let sel = 0u64.wrapping_sub(t >> (63 - j) & 1);
        let mut undecided = 0u64;
        for b in 0..W {
            let r = mix64(seeds[b] ^ pos);
            lt[b] |= eq[b] & !r & sel;
            eq[b] &= r ^ !sel;
            undecided |= eq[b];
        }
        if undecided == 0 {
            break;
        }
    }
    *out = lt;
}

/// A bit-sliced vertical counter: `planes[k]` holds bit `k` of each lane's count.
#[derive(Debug, Clone)]
struct VerticalCounter {
    planes: [u64; MAX_PLANES],
    depth: usize,
}

impl VerticalCounter {
    /// A counter able to hold counts up to `max_count` in every lane.
    fn new(max_count: usize) -> Self {
        let depth = (usize::BITS - max_count.leading_zeros()) as usize;
        assert!(
            depth <= MAX_PLANES,
            "vertical counter supports up to {} nodes, got {max_count}",
            (1usize << MAX_PLANES) - 1
        );
        Self {
            planes: [0; MAX_PLANES],
            depth: depth.max(1),
        }
    }

    fn reset(&mut self) {
        self.planes[..self.depth].fill(0);
    }

    /// Adds 1 to every lane set in `mask` (ripple-carry across the planes).
    #[inline]
    fn add(&mut self, mut mask: u64) {
        for plane in &mut self.planes[..self.depth] {
            if mask == 0 {
                return;
            }
            let carry = *plane & mask;
            *plane ^= mask;
            mask = carry;
        }
        debug_assert_eq!(mask, 0, "vertical counter overflow");
    }

    /// The lane mask of counts `≥ k`, by bitwise lexicographic comparison of every
    /// lane's count against the constant — O(planes) word ops for all 64 lanes.
    fn ge_mask(&self, k: usize) -> u64 {
        if k == 0 {
            return !0;
        }
        if k >> self.depth != 0 {
            return 0; // k needs more bits than any lane's count can have
        }
        let mut gt = 0u64;
        let mut eq = !0u64;
        for i in (0..self.depth).rev() {
            let p = self.planes[i];
            if k >> i & 1 == 1 {
                eq &= p;
            } else {
                gt |= eq & p;
                eq &= !p;
            }
        }
        gt | eq
    }
}

/// One guarantee's predicate over the per-lane fault count, when it is a monotone
/// prefix ("true up to a bound").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CountPredicate {
    /// False for every count.
    Never,
    /// True for every count.
    Always,
    /// True exactly for counts `≤` the bound.
    AtMost(usize),
}

impl CountPredicate {
    /// The lane mask where the predicate holds.
    fn mask(self, faults: &VerticalCounter) -> u64 {
        match self {
            CountPredicate::Never => 0,
            CountPredicate::Always => !0,
            CountPredicate::AtMost(bound) => !faults.ge_mask(bound + 1),
        }
    }
}

/// Classifies `table[c] = predicate(c)` as a monotone prefix, or `None` if the
/// predicate is not monotone in the fault count.
fn prefix_predicate(table: &[bool]) -> Option<CountPredicate> {
    let leading_true = table.iter().take_while(|&&x| x).count();
    if table[leading_true..].iter().any(|&x| x) {
        return None;
    }
    Some(match leading_true {
        0 => CountPredicate::Never,
        t if t == table.len() => CountPredicate::Always,
        t => CountPredicate::AtMost(t - 1),
    })
}

/// Bit flags of the lookup-table plan.
const FLAG_SAFE: u8 = 1;
const FLAG_LIVE: u8 = 2;
const FLAG_BOTH: u8 = 4;

/// How a block's per-lane hits are evaluated: the model half of a kernel.
#[derive(Debug, Clone, PartialEq)]
enum HitPlan {
    /// Crash-only deployment with monotone counting predicates: bit-sliced
    /// `count ≤ T` comparisons and popcounts, no per-lane work at all.
    Thresholds {
        safe: CountPredicate,
        live: CountPredicate,
        both: CountPredicate,
    },
    /// General case: extract each lane's `(crashed, byzantine)` pair and consult a
    /// precomputed predicate table (`flags[c · (n + 1) + b]`).
    Lut { flags: Vec<u8> },
}

impl HitPlan {
    /// The plan of `model` over a draw of `n` nodes: thresholds when the draw is
    /// crash-only and every predicate is a monotone prefix of the fault count, the
    /// lookup table otherwise.
    fn new<M: CountingModel + ?Sized>(model: &M, n: usize, crash_only: bool) -> Self {
        if crash_only {
            let probe = |f: &dyn Fn(usize) -> bool| (0..=n).map(f).collect::<Vec<bool>>();
            let safe = prefix_predicate(&probe(&|c| model.is_safe_counts(c, 0)));
            let live = prefix_predicate(&probe(&|c| model.is_live_counts(c, 0)));
            let both = prefix_predicate(&probe(&|c| model.is_safe_and_live_counts(c, 0)));
            if let (Some(safe), Some(live), Some(both)) = (safe, live, both) {
                return HitPlan::Thresholds { safe, live, both };
            }
        }
        Self::lut(model, n)
    }

    /// Precomputes `(crashed, byzantine) → {safe, live, both}` for every reachable
    /// count pair.
    fn lut<M: CountingModel + ?Sized>(model: &M, n: usize) -> Self {
        let stride = n + 1;
        let mut flags = vec![0u8; stride * stride];
        for c in 0..=n {
            for b in 0..=(n - c) {
                let mut f = 0u8;
                if model.is_safe_counts(c, b) {
                    f |= FLAG_SAFE;
                }
                if model.is_live_counts(c, b) {
                    f |= FLAG_LIVE;
                }
                if model.is_safe_and_live_counts(c, b) {
                    f |= FLAG_BOTH;
                }
                flags[c * stride + b] = f;
            }
        }
        HitPlan::Lut { flags }
    }

    /// One 64-lane block's `{safe, live, both}` lane masks, from the block's
    /// vertical counters as [`PackedDraw::count_block`] left them (`byz_count` is
    /// read only when the draw is not crash-only). Lanes past `lanes` are left
    /// clear by the table walk and unspecified by the threshold compare.
    #[inline]
    fn eval(
        &self,
        faults: &VerticalCounter,
        byz_count: &VerticalCounter,
        lanes: usize,
        n: usize,
        crash_only: bool,
    ) -> (u64, u64, u64) {
        match self {
            HitPlan::Thresholds { safe, live, both } => {
                debug_assert!(
                    crash_only,
                    "threshold plans exist only for crash-only draws"
                );
                // Coinciding predicates share one comparison (Raft's liveness and
                // joint guarantee, for instance, are the same `count ≤ f` check).
                let safe_mask = safe.mask(faults);
                let live_mask = if live == safe {
                    safe_mask
                } else {
                    live.mask(faults)
                };
                let both_mask = if both == safe {
                    safe_mask
                } else if both == live {
                    live_mask
                } else {
                    both.mask(faults)
                };
                (safe_mask, live_mask, both_mask)
            }
            HitPlan::Lut { flags } => {
                let stride = n + 1;
                let mut cp = faults.planes;
                let mut bp = byz_count.planes;
                let (cd, bd) = (faults.depth, byz_count.depth);
                let mut safe_mask = 0u64;
                let mut live_mask = 0u64;
                let mut both_mask = 0u64;
                for lane in 0..lanes {
                    let mut c = 0usize;
                    for (k, plane) in cp.iter_mut().enumerate().take(cd) {
                        c |= ((*plane & 1) as usize) << k;
                        *plane >>= 1;
                    }
                    let mut b = 0usize;
                    if !crash_only {
                        for (k, plane) in bp.iter_mut().enumerate().take(bd) {
                            b |= ((*plane & 1) as usize) << k;
                            *plane >>= 1;
                        }
                    }
                    let f = flags[c * stride + b];
                    safe_mask |= ((f & FLAG_SAFE) as u64) << lane;
                    live_mask |= (((f & FLAG_LIVE) >> 1) as u64) << lane;
                    both_mask |= (((f & FLAG_BOTH) >> 2) as u64) << lane;
                }
                (safe_mask, live_mask, both_mask)
            }
        }
    }
}

/// Adds one block's `{safe, live, both}` lane masks to `hits`, counting only its
/// first `lanes` lanes (the last block of a ragged pass masks its surplus out).
#[inline]
fn tally_block(hits: &mut HitCounts, (safe, live, both): (u64, u64, u64), lanes: usize) {
    let valid: u64 = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
    hits.safe += (safe & valid).count_ones() as usize;
    hits.live += (live & valid).count_ones() as usize;
    hits.both += (both & valid).count_ones() as usize;
}

/// One correlation group, compiled for the packed kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PackedGroup {
    shock: Bound,
    mode: NodeState,
    members: Vec<usize>,
}

/// The draw half of a compiled kernel: everything a pass's lane masks depend on,
/// and nothing about the protocol.
///
/// Equality and hashing are by content — the per-node thresholds and the
/// correlation groups; `n`, the position keys and `crash_only` are functions of
/// those. Kernels of different models over equal draw halves draw identical masks
/// from every chunk RNG word, which is what lets one draw be tallied under all of
/// their [`HitPlan`]s ([`PackedKernel::sample_chunk_shared`]).
#[derive(Debug, Clone)]
pub(crate) struct PackedDraw {
    n: usize,
    /// Per-node `(byzantine, fault)` thresholds.
    thresholds: Vec<(Bound, Bound)>,
    groups: Vec<PackedGroup>,
    /// Position-key rows of the counter-based generator: one row per node, then one
    /// per correlation group (seed-independent — see [`pos_key`]).
    pos: Vec<[u64; 64]>,
    /// No Byzantine mass anywhere: the Byzantine lane masks are identically zero and
    /// their counter is skipped.
    crash_only: bool,
}

impl PartialEq for PackedDraw {
    fn eq(&self, other: &Self) -> bool {
        self.thresholds == other.thresholds && self.groups == other.groups
    }
}

impl Eq for PackedDraw {}

impl std::hash::Hash for PackedDraw {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.thresholds.hash(state);
        self.groups.hash(state);
    }
}

impl PackedDraw {
    /// Compiles the thresholds, groups and position keys of `failure_model`.
    fn new(failure_model: &CorrelationModel) -> Self {
        let thresholds: Vec<(Bound, Bound)> = failure_model
            .profiles()
            .iter()
            .map(|p| {
                (
                    fixed_point(p.byzantine_probability()),
                    fixed_point(p.fault_probability()),
                )
            })
            .collect();
        let groups: Vec<PackedGroup> = failure_model
            .groups()
            .iter()
            .map(|g| PackedGroup {
                shock: fixed_point(g.shock_probability),
                mode: g.shock_mode,
                members: g.members.clone(),
            })
            .collect();
        let n = thresholds.len();
        let pos = (0..n + groups.len())
            .map(|row| std::array::from_fn(|j| pos_key(row, j)))
            .collect();
        let crash_only = thresholds.iter().all(|&(b, _)| b == Bound::Never)
            && groups.iter().all(|g| g.mode != NodeState::Byzantine);
        Self {
            n,
            thresholds,
            groups,
            pos,
            crash_only,
        }
    }

    /// Draws `count` scenarios from the chunk base word `base` and tallies them
    /// under each of `plans`, in order, [`MAX_LANE_WORDS`] blocks per pass: the
    /// AVX-512 path where the host has it, else the portable one.
    fn sample(&self, base: u64, count: usize, plans: &[&HitPlan]) -> Vec<HitCounts> {
        #[cfg(target_arch = "x86_64")]
        if simd::available() {
            return simd::sample8(self, base, count, plans);
        }
        self.sample_w::<MAX_LANE_WORDS>(base, count, plans)
    }

    /// The portable sampler at compile-time width `W` — the reference the SIMD path
    /// must agree with bit-for-bit. Each pass's masks and each block's counters
    /// are computed once, then evaluated under every plan.
    fn sample_w<const W: usize>(
        &self,
        base: u64,
        count: usize,
        plans: &[&HitPlan],
    ) -> Vec<HitCounts> {
        let n = self.n;
        // Node-major lane masks: node i's mask for pass block b is `crash[i][b]`,
        // so one node's blocks are contiguous for the lockstep compare.
        let mut crash = vec![[0u64; W]; n];
        let mut byz = vec![[0u64; W]; n];
        let mut faults = VerticalCounter::new(n);
        let mut byz_count = VerticalCounter::new(n);
        let mut hits = vec![HitCounts::default(); plans.len()];
        let mut remaining = count;
        let mut next_block = 0u64;
        while remaining > 0 {
            let lanes = remaining.min(64 * W);
            let blocks = lanes.div_ceil(64);
            // Ragged final pass: seeds past `blocks` address blocks that do not
            // exist; their masks are computed and discarded (never tallied).
            let mut seeds = [0u64; W];
            for (b, s) in seeds.iter_mut().enumerate() {
                *s = chunk_seed(base, next_block + b as u64);
            }
            for (i, &(bz, ft)) in self.thresholds.iter().enumerate() {
                split_wide::<W>(&seeds, &self.pos[i], bz, ft, &mut byz[i], &mut crash[i]);
                for b in 0..W {
                    crash[i][b] &= !byz[i][b];
                }
            }
            for (g, group) in self.groups.iter().enumerate() {
                let mut fired = [0u64; W];
                let mut zero = [0u64; W];
                split_wide::<W>(
                    &seeds,
                    &self.pos[n + g],
                    Bound::Never,
                    group.shock,
                    &mut zero,
                    &mut fired,
                );
                apply_shock(group, &fired, blocks, &mut crash, &mut byz);
            }
            for b in 0..blocks {
                let block_lanes = (lanes - 64 * b).min(64);
                self.count_block::<W>(&crash, &byz, b, &mut faults, &mut byz_count);
                for (plan, tally) in plans.iter().zip(&mut hits) {
                    let masks = plan.eval(&faults, &byz_count, block_lanes, n, self.crash_only);
                    tally_block(tally, masks, block_lanes);
                }
            }
            next_block += blocks as u64;
            remaining -= lanes;
        }
        hits
    }

    /// Loads block column `block` of a pass into the vertical counters: crashed
    /// lanes into `faults` and, unless the draw is crash-only, Byzantine lanes into
    /// `byz_count`. A crash-only draw has no Byzantine lanes, so its `faults` is
    /// the whole fault count a threshold plan compares against.
    #[inline]
    fn count_block<const W: usize>(
        &self,
        crash: &[[u64; W]],
        byz: &[[u64; W]],
        block: usize,
        faults: &mut VerticalCounter,
        byz_count: &mut VerticalCounter,
    ) {
        faults.reset();
        for row in crash {
            faults.add(row[block]);
        }
        if !self.crash_only {
            byz_count.reset();
            for row in byz {
                byz_count.add(row[block]);
            }
        }
    }
}

/// Applies one correlation group's fired-lane masks to the node masks of a pass,
/// mirroring the scalar override rules of [`CorrelationModel::sample_into`].
#[inline]
fn apply_shock<const W: usize>(
    group: &PackedGroup,
    fired: &[u64; W],
    blocks: usize,
    crash: &mut [[u64; W]],
    byz: &mut [[u64; W]],
) {
    for (b, &f) in fired.iter().enumerate().take(blocks) {
        if f == 0 {
            continue;
        }
        match group.mode {
            NodeState::Byzantine => {
                for &m in &group.members {
                    byz[m][b] |= f;
                    crash[m][b] &= !f;
                }
            }
            NodeState::Crashed => {
                for &m in &group.members {
                    crash[m][b] |= f & !byz[m][b];
                }
            }
            // Nothing constructs "repair" shocks today, but mirror the
            // scalar override rule (Byzantine is never downgraded) exactly.
            NodeState::Correct => {
                for &m in &group.members {
                    crash[m][b] &= !f;
                }
            }
        }
    }
}

/// A counting model + failure model pair compiled into bit-sliced form: the
/// scenario's draw half and the model's hit plan. Built once per cell group
/// (outside the parallel loop) and shared read-only by every chunk.
///
/// Engine runs reach it through [`crate::montecarlo`]; it is public so the
/// `packed-width/w8` benchmark can time one [`sample_chunk`](Self::sample_chunk)
/// call on the calling thread.
#[derive(Debug, Clone)]
pub struct PackedKernel {
    draw: PackedDraw,
    plan: HitPlan,
}

impl PackedKernel {
    /// Compiles `model` on `failure_model`.
    ///
    /// # Panics
    ///
    /// Panics if the two disagree on the cluster size.
    pub fn new<M: CountingModel + ?Sized>(model: &M, failure_model: &CorrelationModel) -> Self {
        assert_eq!(
            model.num_nodes(),
            failure_model.len(),
            "model and failure model disagree on the cluster size"
        );
        let draw = PackedDraw::new(failure_model);
        let plan = HitPlan::new(model, draw.n, draw.crash_only);
        Self { draw, plan }
    }

    /// The draw half: what this kernel's chunks draw, whatever model tallies them.
    pub(crate) fn draw(&self) -> &PackedDraw {
        &self.draw
    }

    /// Draws and tallies `count` scenarios, 512 per pass: each pass runs eight
    /// 64-lane blocks in lockstep (the final pass ragged — fewer blocks, and
    /// surplus lanes of the last block masked out of the tallies).
    ///
    /// `rng` is the chunk RNG of the `(seed, chunk)` determinism scheme; it
    /// contributes exactly one word, from which every block's position-addressed
    /// words are derived by in-chunk block index — see the module docs for why this
    /// makes the result independent of the pass width, the thread count, and the
    /// portable-vs-SIMD choice. The one-kernel case of `sample_chunk_shared`.
    pub fn sample_chunk<R: RngCore + ?Sized>(&self, rng: &mut R, count: usize) -> HitCounts {
        Self::sample_chunk_shared(&[self], rng, count)[0]
    }

    /// Draws `count` scenarios once and tallies them under every kernel's hit
    /// plan: element `k` is what `kernels[k].sample_chunk(rng, count)`
    /// returns from the same RNG state, bit for bit. The kernels must share one
    /// draw half (equal [`PackedDraw`]s); plans that coincide — the same kernel
    /// twice, or two models with the same predicates — are tallied once.
    pub(crate) fn sample_chunk_shared<R: RngCore + ?Sized>(
        kernels: &[&PackedKernel],
        rng: &mut R,
        count: usize,
    ) -> Vec<HitCounts> {
        let draw = &kernels[0].draw;
        debug_assert!(
            kernels.iter().all(|k| k.draw == *draw),
            "a shared chunk needs one draw half"
        );
        let mut plans: Vec<&HitPlan> = Vec::with_capacity(kernels.len());
        let which: Vec<usize> = kernels
            .iter()
            .map(|k| {
                plans
                    .iter()
                    .position(|&p| std::ptr::eq(p, &k.plan) || *p == k.plan)
                    .unwrap_or_else(|| {
                        plans.push(&k.plan);
                        plans.len() - 1
                    })
            })
            .collect();
        let tallies = draw.sample(rng.next_u64(), count, &plans);
        which.into_iter().map(|plan| tallies[plan]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::counting_reliability;
    use crate::deployment::Deployment;
    use crate::failure::FailureConfig;
    use crate::montecarlo::{
        monte_carlo_reliability_par_kernel, McKernel, MonteCarloReport, MC_CHUNK_SIZE,
    };
    use crate::pbft_model::PbftModel;
    use crate::protocol::ProtocolModel;
    use crate::raft_model::RaftModel;
    use fault_model::correlation::CorrelationGroup;
    use fault_model::mode::FaultProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one sampling entry, pinned to this kernel.
    fn packed_par<M: CountingModel + ?Sized>(
        model: &M,
        target: &CorrelationModel,
        samples: usize,
        seed: u64,
    ) -> MonteCarloReport {
        let report =
            monte_carlo_reliability_par_kernel(model, target, samples, seed, McKernel::Packed);
        assert_eq!(report.kernel, McKernel::Packed);
        report
    }

    fn crash_model(n: usize, p: f64) -> CorrelationModel {
        CorrelationModel::independent(vec![FaultProfile::crash_only(p); n])
    }

    #[test]
    fn fixed_point_handles_the_edges() {
        assert_eq!(fixed_point(0.0), Bound::Never);
        assert_eq!(fixed_point(-0.1), Bound::Never);
        assert_eq!(fixed_point(1.0), Bound::Always);
        assert_eq!(fixed_point(0.5), Bound::Fixed(1u64 << 63));
        // The largest f64 below 1: the threshold must stay below 2^64 (no wrap) and
        // land within a few thousand lattice points of the top.
        let just_below_one = f64::from_bits(1.0f64.to_bits() - 1);
        match fixed_point(just_below_one) {
            Bound::Fixed(t) => assert!(t > u64::MAX - 4096, "threshold {t} too far from 2^64"),
            other => panic!("expected a Fixed bound, got {other:?}"),
        }
    }

    #[test]
    fn split_masks_match_their_probabilities() {
        let pos: [u64; 64] = std::array::from_fn(|j| pos_key(0, j));
        let (p_byz, p_fault) = (0.1, 0.4);
        let (byz, fault) = (fixed_point(p_byz), fixed_point(p_fault));
        let (mut byz_bits, mut fault_bits) = (0u64, 0u64);
        const BLOCKS: u64 = 4_000;
        for block in 0..BLOCKS {
            let seeds = [chunk_seed(1, block)];
            let (mut b, mut f) = ([0u64; 1], [0u64; 1]);
            split_wide::<1>(&seeds, &pos, byz, fault, &mut b, &mut f);
            assert_eq!(b[0] & !f[0], 0, "byzantine lanes must be faulty lanes");
            byz_bits += u64::from(b[0].count_ones());
            fault_bits += u64::from(f[0].count_ones());
        }
        let total = (64 * BLOCKS) as f64;
        assert!((byz_bits as f64 / total - p_byz).abs() < 0.01);
        assert!((fault_bits as f64 / total - p_fault).abs() < 0.01);
        // Degenerate bounds give constant masks.
        let seeds = [chunk_seed(1, 0)];
        let (mut b, mut f) = ([0u64; 1], [0u64; 1]);
        split_wide::<1>(&seeds, &pos, Bound::Never, Bound::Never, &mut b, &mut f);
        assert_eq!((b[0], f[0]), (0, 0));
        split_wide::<1>(&seeds, &pos, Bound::Never, Bound::Always, &mut b, &mut f);
        assert_eq!((b[0], f[0]), (0, !0));
        split_wide::<1>(&seeds, &pos, Bound::Always, Bound::Always, &mut b, &mut f);
        assert_eq!((b[0], f[0]), (!0, !0));
    }

    #[test]
    fn wide_and_narrow_splits_agree_block_for_block() {
        // The positional generator makes a block's masks a pure function of
        // (seed, position row): running blocks one at a time or eight in lockstep
        // must produce identical words.
        let pos: [u64; 64] = std::array::from_fn(|j| pos_key(3, j));
        let (byz, fault) = (fixed_point(0.02), fixed_point(0.3));
        let seeds: [u64; 8] = std::array::from_fn(|b| chunk_seed(99, b as u64));
        let (mut b8, mut f8) = ([0u64; 8], [0u64; 8]);
        split_wide::<8>(&seeds, &pos, byz, fault, &mut b8, &mut f8);
        for b in 0..8 {
            let (mut b1, mut f1) = ([0u64; 1], [0u64; 1]);
            split_wide::<1>(&[seeds[b]], &pos, byz, fault, &mut b1, &mut f1);
            assert_eq!((b1[0], f1[0]), (b8[b], f8[b]), "block {b}");
        }
    }

    #[test]
    fn vertical_counter_matches_a_scalar_recount() {
        let masks: Vec<u64> = (0..11).map(|i| mix64(i as u64 + 1000)).collect();
        let mut counter = VerticalCounter::new(masks.len());
        for &m in &masks {
            counter.add(m);
        }
        for lane in 0..64 {
            let expected = masks.iter().filter(|&&m| m >> lane & 1 == 1).count();
            let mut got = 0usize;
            for k in 0..counter.depth {
                got |= ((counter.planes[k] >> lane & 1) as usize) << k;
            }
            assert_eq!(got, expected, "lane {lane}");
        }
        for k in 0..=masks.len() + 1 {
            let expected: u64 = (0..64)
                .filter(|&lane| masks.iter().filter(|&&m| m >> lane & 1 == 1).count() >= k)
                .fold(0, |acc, lane| acc | 1 << lane);
            assert_eq!(counter.ge_mask(k), expected, "ge_mask({k})");
        }
    }

    #[test]
    fn prefix_predicates_classify_monotone_tables() {
        assert_eq!(
            prefix_predicate(&[true, true, false]),
            Some(CountPredicate::AtMost(1))
        );
        assert_eq!(prefix_predicate(&[true; 4]), Some(CountPredicate::Always));
        assert_eq!(prefix_predicate(&[false; 3]), Some(CountPredicate::Never));
        assert_eq!(prefix_predicate(&[true, false, true]), None);
    }

    /// A counting model whose liveness is not monotone in the fault count (live on
    /// an even count), so it compiles to the lookup table even on a crash-only
    /// draw — next to a threshold plan, it exercises both tallies of one pass.
    struct EvenFaults(usize);

    impl ProtocolModel for EvenFaults {
        fn name(&self) -> String {
            "even-faults".into()
        }
        fn num_nodes(&self) -> usize {
            self.0
        }
        fn is_safe(&self, config: &FailureConfig) -> bool {
            self.is_safe_counts(config.num_crashed(), config.num_byzantine())
        }
        fn is_live(&self, config: &FailureConfig) -> bool {
            self.is_live_counts(config.num_crashed(), config.num_byzantine())
        }
        fn as_counting(&self) -> Option<&dyn CountingModel> {
            Some(self)
        }
    }

    impl CountingModel for EvenFaults {
        fn is_safe_counts(&self, _crashed: usize, byzantine: usize) -> bool {
            byzantine == 0
        }
        fn is_live_counts(&self, crashed: usize, byzantine: usize) -> bool {
            (crashed + byzantine).is_multiple_of(2)
        }
    }

    #[test]
    fn crash_only_raft_uses_the_threshold_plan_and_matches_exact_counting() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let kernel = PackedKernel::new(&model, &crash_model(5, 0.05));
        assert!(kernel.draw.crash_only);
        assert!(matches!(kernel.plan, HitPlan::Thresholds { .. }));
        let lut = PackedKernel::new(&EvenFaults(5), &crash_model(5, 0.05));
        assert!(matches!(lut.plan, HitPlan::Lut { .. }));
        assert_eq!(lut.draw, kernel.draw);
        let exact = counting_reliability(&model, &deployment);
        let report = packed_par(&model, &crash_model(5, 0.05), 200_000, 11);
        assert!(
            report.live.contains(exact.p_live),
            "exact {} outside [{}, {}]",
            exact.p_live,
            report.live.lower,
            report.live.upper
        );
        assert!((report.safe.value - 1.0).abs() < 1e-12);
        assert_eq!(report.samples, 200_000);
    }

    #[test]
    fn mixed_mode_pbft_uses_the_lut_plan_and_matches_exact_counting() {
        let model = PbftModel::standard(7);
        let deployment = Deployment::uniform_mixed(7, 0.05, 0.02);
        let target = CorrelationModel::from(&deployment);
        let kernel = PackedKernel::new(&model, &target);
        assert!(!kernel.draw.crash_only);
        assert!(matches!(kernel.plan, HitPlan::Lut { .. }));
        let exact = counting_reliability(&model, &deployment);
        let report = packed_par(&model, &target, 200_000, 3);
        for (estimate, truth, what) in [
            (report.safe, exact.p_safe, "safe"),
            (report.live, exact.p_live, "live"),
            (report.safe_and_live, exact.p_safe_and_live, "safe&live"),
        ] {
            assert!(
                estimate.contains(truth),
                "{what}: exact {truth} outside [{}, {}]",
                estimate.lower,
                estimate.upper
            );
        }
    }

    #[test]
    fn correlated_shock_probability_is_recovered() {
        // Independent part cannot fail; the only route to losing liveness is the
        // full-cluster crash shock, so P[live] must equal 1 − shock.
        let shock = 0.3;
        let target =
            crash_model(5, 0.0).with_group(CorrelationGroup::crash_shock((0..5).collect(), shock));
        let model = RaftModel::standard(5);
        let report = packed_par(&model, &target, 100_000, 5);
        assert!(
            report.live.contains(1.0 - shock),
            "1 - shock = {} outside [{}, {}]",
            1.0 - shock,
            report.live.lower,
            report.live.upper
        );
    }

    #[test]
    fn byzantine_shock_overrides_crash_lanes() {
        // Every node crashes independently with certainty; a certain Byzantine shock
        // must override all of them, so PBFT safety collapses exactly as the scalar
        // sampler's override rule dictates (Byzantine dominates crash).
        let target = CorrelationModel::independent(vec![FaultProfile::crash_only(1.0); 4])
            .with_group(CorrelationGroup::byzantine_shock((0..4).collect(), 1.0));
        let model = PbftModel::standard(4);
        let report = packed_par(&model, &target, 1_000, 2);
        // 4 Byzantine nodes out of 4: never safe, never live.
        assert_eq!(report.safe.value, 0.0);
        assert_eq!(report.live.value, 0.0);
    }

    #[test]
    fn certain_crash_probability_needs_no_randomness() {
        let model = RaftModel::standard(3);
        let target = crash_model(3, 1.0);
        let report = packed_par(&model, &target, 10_000, 9);
        assert_eq!(report.live.value, 0.0, "all nodes always crash");
        assert_eq!(report.safe.value, 1.0, "crashes never violate safety");
    }

    #[test]
    fn ragged_tail_blocks_are_masked_not_dropped() {
        let model = RaftModel::standard(9);
        let target = crash_model(9, 0.08);
        // Neither a multiple of 64 nor of the chunk size.
        let samples = 2 * MC_CHUNK_SIZE + 77;
        let report = packed_par(&model, &target, samples, 21);
        assert_eq!(report.samples, samples);
        let exact = counting_reliability(&model, &Deployment::uniform_crash(9, 0.08));
        assert!(report.live.contains(exact.p_live));
    }

    /// Scenarios that, between them, exercise every kernel path — the thresholds
    /// plan, the LUT plan with Byzantine mass, correlation shocks of both modes —
    /// each with the models whose kernels share its draw: distinct plans, a plan
    /// repeated by content (`flexible(9, 5, 5)` is standard Raft's predicates in a
    /// second kernel), and thresholds beside a table on one crash-only draw.
    fn identity_workloads() -> Vec<(Vec<Box<dyn CountingModel>>, CorrelationModel)> {
        let mixed = CorrelationModel::independent(
            (0..7)
                .map(|i| FaultProfile::new(0.02 * (i % 3) as f64, 0.01))
                .collect(),
        )
        .with_group(CorrelationGroup::byzantine_shock(vec![0, 1, 2], 0.005))
        .with_group(CorrelationGroup::crash_shock(vec![3, 4, 5, 6], 0.01));
        vec![
            (
                vec![
                    Box::new(RaftModel::standard(9)),
                    Box::new(PbftModel::standard(9)),
                    Box::new(RaftModel::flexible(9, 5, 5)),
                    Box::new(EvenFaults(9)),
                ],
                crash_model(9, 0.08),
            ),
            (
                vec![
                    Box::new(PbftModel::standard(7)),
                    Box::new(RaftModel::standard(7)),
                ],
                mixed,
            ),
        ]
    }

    /// The kernels of one identity workload, all compiled on its scenario.
    fn kernels_of(
        models: &[Box<dyn CountingModel>],
        target: &CorrelationModel,
    ) -> Vec<PackedKernel> {
        let kernels: Vec<PackedKernel> = models
            .iter()
            .map(|model| PackedKernel::new(model.as_ref(), target))
            .collect();
        assert!(kernels.iter().all(|k| k.draw == kernels[0].draw));
        kernels
    }

    #[test]
    fn packed_kernel_is_bit_identical_across_lane_widths() {
        for (models, target) in identity_workloads() {
            let kernels = kernels_of(&models, &target);
            let shared: Vec<&PackedKernel> = kernels.iter().collect();
            let plans: Vec<&HitPlan> = kernels.iter().map(|k| &k.plan).collect();
            // Sample counts hitting the ragged-tail edges of every width W: one
            // lane, one block less a lane, a full widest pass ± one lane, and
            // counts past a whole engine chunk that are ragged at the pass level.
            for samples in [
                1,
                63,
                64 * MAX_LANE_WORDS - 1,
                64 * MAX_LANE_WORDS + 1,
                MC_CHUNK_SIZE + 513,
                3 * MC_CHUNK_SIZE + 17,
            ] {
                let rng = || StdRng::seed_from_u64(42);
                let reference: Vec<HitCounts> = kernels
                    .iter()
                    .map(|kernel| kernel.sample_chunk(&mut rng(), samples))
                    .collect();
                // One draw tallied under every kernel's plan is each kernel's
                // own chunk.
                assert_eq!(
                    PackedKernel::sample_chunk_shared(&shared, &mut rng(), samples),
                    reference,
                    "shared draw diverged at samples={samples}"
                );
                // The portable sampler packs 64, 256 or 512 lanes per pass alike.
                let base = rng().next_u64();
                let draw = &kernels[0].draw;
                for (w, tallies) in [
                    (1, draw.sample_w::<1>(base, samples, &plans)),
                    (4, draw.sample_w::<4>(base, samples, &plans)),
                    (8, draw.sample_w::<8>(base, samples, &plans)),
                ] {
                    assert_eq!(tallies, reference, "divergence at W={w}, samples={samples}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_and_portable_samplers_agree_bit_for_bit() {
        if !simd::available() {
            eprintln!("skipping: no AVX-512 on this host");
            return;
        }
        for (models, target) in identity_workloads() {
            let kernels = kernels_of(&models, &target);
            let draw = &kernels[0].draw;
            // Every plan alone, then all of them over one draw.
            let mut plan_sets: Vec<Vec<&HitPlan>> = kernels.iter().map(|k| vec![&k.plan]).collect();
            plan_sets.push(kernels.iter().map(|k| &k.plan).collect());
            for plans in &plan_sets {
                for count in [1, 63, 64, 511, 512, 513, 640, MC_CHUNK_SIZE] {
                    for base in [0u64, 7, 0xDEAD_BEEF] {
                        assert_eq!(
                            simd::sample8(draw, base, count, plans),
                            draw.sample_w::<8>(base, count, plans),
                            "divergence at count={count}, base={base}, {} plans",
                            plans.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_kernel_is_bit_identical_across_thread_counts() {
        let model = PbftModel::standard(7);
        let target = CorrelationModel::independent(
            (0..7)
                .map(|i| FaultProfile::new(0.02 * (i % 3) as f64, 0.01))
                .collect(),
        )
        .with_group(CorrelationGroup::byzantine_shock(vec![0, 1, 2], 0.005))
        .with_group(CorrelationGroup::crash_shock(vec![3, 4, 5, 6], 0.01));
        let samples = 3 * MC_CHUNK_SIZE + 17;
        let reference = packed_par(&model, &target, samples, 42);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let report = pool.install(|| packed_par(&model, &target, samples, 42));
            assert_eq!(report, reference, "divergence at {threads} threads");
        }
    }

    #[test]
    fn zero_sample_budget_saturates_to_one_sample() {
        let model = RaftModel::standard(3);
        let report = packed_par(&model, &crash_model(3, 0.1), 0, 1);
        assert_eq!(report.samples, 1);
        for e in [report.safe, report.live, report.safe_and_live] {
            assert!(e.value.is_finite() && 0.0 <= e.lower && e.upper <= 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the cluster size")]
    fn size_mismatch_panics() {
        let model = RaftModel::standard(3);
        packed_par(&model, &crash_model(4, 0.1), 10, 1);
    }
}
