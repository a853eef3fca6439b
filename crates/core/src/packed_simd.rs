//! AVX-512 fast path of the packed kernel (width-8 passes only).
//!
//! The 8 blocks of a width-8 pass are exactly one 512-bit vector, so the lockstep
//! lexicographic compare of [`super`] maps 1:1 onto AVX-512: one `vpmullq`-based
//! SplitMix64 finalizer produces all 8 blocks' words for a bit position, and the two
//! mask updates are single `vpternlogq` instructions. Because every random word is a
//! pure function of `(block seed, position key)` — no generator state — this path
//! computes *the same words* as the portable compare and its tallies are
//! bit-identical; `super::tests::simd_and_portable_samplers_agree_bit_for_bit`
//! asserts that on AVX-512 hosts.
//!
//! Two throughput details beyond a mechanical translation:
//!
//! * **Node pairing.** The compare's loop-carried dependency is short (`eq` is one
//!   ternlog deep), so a single node's loop is bound by the exit-test latency, not
//!   arithmetic. Consecutive single-threshold nodes are interleaved two at a time —
//!   independent chains that pipeline — and the undecided test runs every *two* bit
//!   positions. Extra positions processed past a node's decision point are no-ops on
//!   its masks (see the module docs of [`super`]), so neither change affects output.
//! * **Vector tallies.** For threshold plans, the Harley–Seal vertical counter
//!   ripples all 8 blocks per instruction and the `count ≤ T` compare runs once per
//!   pass instead of once per block. LUT plans keep the portable per-block
//!   extraction (its per-lane table walk does not vectorize).
//!
//! As in the portable path, a pass's masks and counters are computed once and
//! evaluated under every plan of a shared chunk.
//!
//! Everything here is gated at runtime by [`available`]; hosts without AVX-512 (or
//! non-x86 targets, via `cfg`) use the portable sampler and produce identical
//! reports.

use core::arch::x86_64::*;

use super::{
    apply_shock, bound_state, split_wide, tally_block, CountPredicate, HitPlan, PackedDraw,
    VerticalCounter, MAX_PLANES,
};
use crate::montecarlo::{chunk_seed, HitCounts};

/// Pass width of this module: eight 64-lane blocks, one `__m512i`.
const W: usize = 8;

/// Whether the running CPU supports the fast path (`avx512f` for the vector core,
/// `avx512dq` for the 64-bit multiplies of the SplitMix64 finalizer). The result is
/// cached by `std`'s feature detection, so callers may query per chunk.
pub(super) fn available() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
}

/// Width-8 chunk sampler on the AVX-512 path, one tally per plan — bit-identical
/// to `PackedDraw::sample_w::<8>` by the positional-draw argument above.
///
/// # Panics
///
/// If the host lacks AVX-512 (callers gate on [`available`]).
pub(super) fn sample8(
    draw: &PackedDraw,
    base: u64,
    count: usize,
    plans: &[&HitPlan],
) -> Vec<HitCounts> {
    assert!(available(), "sample8 requires avx512f+avx512dq");
    // SAFETY: the required target features were verified present just above.
    unsafe { sample8_impl(draw, base, count, plans) }
}

/// Loads a block-mask row. (`loadu` has no alignment requirement; the reference
/// guarantees a valid 64-byte read.)
#[inline]
#[target_feature(enable = "avx512f")]
fn load8(x: &[u64; W]) -> __m512i {
    // SAFETY: `x` is a valid, readable, 64-byte location.
    unsafe { _mm512_loadu_si512(x.as_ptr().cast()) }
}

/// Stores a block-mask row (unaligned; the reference guarantees a valid write).
#[inline]
#[target_feature(enable = "avx512f")]
fn store8(x: &mut [u64; W], v: __m512i) {
    // SAFETY: `x` is a valid, writable, 64-byte location.
    unsafe { _mm512_storeu_si512(x.as_mut_ptr().cast(), v) }
}

/// The SplitMix64 finalizer ([`crate::montecarlo::mix64`]) over 8 lanes.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn mix8(x: __m512i) -> __m512i {
    let c1 = _mm512_set1_epi64(0xBF58_476D_1CE4_E5B9u64 as i64);
    let c2 = _mm512_set1_epi64(0x94D0_49BB_1331_11EBu64 as i64);
    let mut x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
    x = _mm512_mullo_epi64(x, c1);
    x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
    x = _mm512_mullo_epi64(x, c2);
    _mm512_xor_si512(x, _mm512_srli_epi64(x, 31))
}

/// The threshold-bit selector of position `j` as a lane-replicated mask
/// (all-ones when bit `63 − j` of `t` is set).
#[inline]
#[target_feature(enable = "avx512f")]
fn selector(t: u64, j: usize) -> __m512i {
    _mm512_set1_epi64(0i64.wrapping_sub((t >> (63 - j) & 1) as i64))
}

/// One bit position of one node's compare: draw the 8 blocks' words and update the
/// `(lt, eq)` lane state. The two updates are the vector form of the portable
/// branchless step: `lt |= eq & sel & !r` and `eq &= !(r ^ sel)`.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn step(seeds: __m512i, pos: u64, sel: __m512i, lt: &mut __m512i, eq: &mut __m512i) {
    let r = mix8(_mm512_xor_si512(seeds, _mm512_set1_epi64(pos as i64)));
    let armed = _mm512_and_si512(*eq, sel);
    *lt = _mm512_ternarylogic_epi64(*lt, armed, r, 0xF4); // lt | (armed & !r)
    *eq = _mm512_ternarylogic_epi64(*eq, r, sel, 0x90); // eq & !(r ^ sel)
}

/// Single-threshold compare of one draw row over the 8 blocks: `out[b]` gets block
/// `b`'s `u < t` lane mask. The undecided test runs every two positions (64 is
/// even, so the probe never reads past the row).
#[target_feature(enable = "avx512f,avx512dq")]
fn split_one8(seeds: __m512i, pos_row: &[u64; 64], t: u64, out: &mut [u64; W]) {
    let mut eq = _mm512_set1_epi64(-1);
    let mut lt = _mm512_setzero_si512();
    let mut j = 0usize;
    while j < 64 {
        step(seeds, pos_row[j], selector(t, j), &mut lt, &mut eq);
        step(seeds, pos_row[j + 1], selector(t, j + 1), &mut lt, &mut eq);
        if _mm512_test_epi64_mask(eq, eq) == 0 {
            break;
        }
        j += 2;
    }
    store8(out, lt);
}

/// Two nodes' single-threshold compares interleaved (independent dependency
/// chains), with a combined undecided test every two positions.
#[target_feature(enable = "avx512f,avx512dq")]
#[allow(clippy::too_many_arguments)] // the two interleaved compares' row/threshold/output triples
fn split_two8(
    seeds: __m512i,
    row0: &[u64; 64],
    row1: &[u64; 64],
    t0: u64,
    t1: u64,
    out0: &mut [u64; W],
    out1: &mut [u64; W],
) {
    let mut eq0 = _mm512_set1_epi64(-1);
    let mut lt0 = _mm512_setzero_si512();
    let mut eq1 = _mm512_set1_epi64(-1);
    let mut lt1 = _mm512_setzero_si512();
    let mut j = 0usize;
    while j < 64 {
        step(seeds, row0[j], selector(t0, j), &mut lt0, &mut eq0);
        step(seeds, row1[j], selector(t1, j), &mut lt1, &mut eq1);
        step(seeds, row0[j + 1], selector(t0, j + 1), &mut lt0, &mut eq0);
        step(seeds, row1[j + 1], selector(t1, j + 1), &mut lt1, &mut eq1);
        let undecided = _mm512_or_si512(eq0, eq1);
        if _mm512_test_epi64_mask(undecided, undecided) == 0 {
            break;
        }
        j += 2;
    }
    store8(out0, lt0);
    store8(out1, lt1);
}

/// The lane mask of counts `≥ k` over vector vertical-counter planes — the 8-block
/// form of `VerticalCounter::ge_mask`, with the same depth saturation rules.
#[inline]
#[target_feature(enable = "avx512f")]
fn ge_mask8(planes: &[__m512i; MAX_PLANES], depth: usize, k: usize) -> __m512i {
    if k == 0 {
        return _mm512_set1_epi64(-1);
    }
    if k >> depth != 0 {
        return _mm512_setzero_si512();
    }
    let mut gt = _mm512_setzero_si512();
    let mut eq = _mm512_set1_epi64(-1);
    for i in (0..depth).rev() {
        let p = planes[i];
        if k >> i & 1 == 1 {
            eq = _mm512_and_si512(eq, p);
        } else {
            gt = _mm512_ternarylogic_epi64(gt, eq, p, 0xF8); // gt | (eq & p)
            eq = _mm512_andnot_si512(p, eq);
        }
    }
    _mm512_or_si512(gt, eq)
}

/// One count predicate's 8-block lane mask (`CountPredicate::mask`, vector form).
#[inline]
#[target_feature(enable = "avx512f")]
fn predicate_mask8(p: CountPredicate, planes: &[__m512i; MAX_PLANES], depth: usize) -> __m512i {
    match p {
        CountPredicate::Never => _mm512_setzero_si512(),
        CountPredicate::Always => _mm512_set1_epi64(-1),
        CountPredicate::AtMost(bound) => {
            let ge = ge_mask8(planes, depth, bound + 1);
            _mm512_xor_si512(ge, _mm512_set1_epi64(-1))
        }
    }
}

/// The three threshold predicates' 8-block lane masks over vector planes, sharing
/// the compare between coinciding predicates as the portable plan does.
#[inline]
#[target_feature(enable = "avx512f")]
fn threshold_masks8(
    (safe, live, both): (CountPredicate, CountPredicate, CountPredicate),
    planes: &[__m512i; MAX_PLANES],
    depth: usize,
) -> [[u64; W]; 3] {
    let safe_v = predicate_mask8(safe, planes, depth);
    let live_v = if live == safe {
        safe_v
    } else {
        predicate_mask8(live, planes, depth)
    };
    let both_v = if both == safe {
        safe_v
    } else if both == live {
        live_v
    } else {
        predicate_mask8(both, planes, depth)
    };
    let mut masks = [[0u64; W]; 3];
    store8(&mut masks[0], safe_v);
    store8(&mut masks[1], live_v);
    store8(&mut masks[2], both_v);
    masks
}

/// The fast-path chunk sampler: structurally the portable `sample_w::<8>`, with
/// the compare and (for threshold plans) the tallies vectorized.
#[target_feature(enable = "avx512f,avx512dq")]
fn sample8_impl(draw: &PackedDraw, base: u64, count: usize, plans: &[&HitPlan]) -> Vec<HitCounts> {
    let n = draw.n;
    let mut crash = vec![[0u64; W]; n];
    let mut byz = vec![[0u64; W]; n];
    let mut faults = VerticalCounter::new(n);
    let mut byz_count = VerticalCounter::new(n);
    let depth = faults.depth;
    let any_thresholds = plans
        .iter()
        .any(|plan| matches!(plan, HitPlan::Thresholds { .. }));
    let any_lut = plans.iter().any(|plan| matches!(plan, HitPlan::Lut { .. }));
    let mut hits = vec![HitCounts::default(); plans.len()];
    let mut remaining = count;
    let mut next_block = 0u64;
    while remaining > 0 {
        let lanes = remaining.min(64 * W);
        let blocks = lanes.div_ceil(64);
        let mut seeds = [0u64; W];
        for (b, s) in seeds.iter_mut().enumerate() {
            *s = chunk_seed(base, next_block + b as u64);
        }
        let seeds_v = load8(&seeds);

        // Node masks. Single-threshold nodes (Byzantine bound settled — every
        // crash-only node) queue up and run two at a time; dual-threshold nodes
        // take the portable compare (only mixed-mode deployments have them, and
        // their LUT evaluation dominates anyway).
        let mut pending: Option<(usize, u64)> = None;
        for (i, &(bz, ft)) in draw.thresholds.iter().enumerate() {
            let (lt_b0, eq_b0, _) = bound_state(bz);
            let (lt_f0, eq_f0, tf) = bound_state(ft);
            if eq_b0 | eq_f0 == 0 {
                byz[i] = [lt_b0; W];
                crash[i] = [lt_f0; W];
            } else if eq_b0 == 0 {
                byz[i] = [lt_b0; W];
                if let Some((i0, t0)) = pending.take() {
                    let (head, tail) = crash.split_at_mut(i);
                    split_two8(
                        seeds_v,
                        &draw.pos[i0],
                        &draw.pos[i],
                        t0,
                        tf,
                        &mut head[i0],
                        &mut tail[0],
                    );
                } else {
                    pending = Some((i, tf));
                }
            } else {
                split_wide::<W>(&seeds, &draw.pos[i], bz, ft, &mut byz[i], &mut crash[i]);
            }
        }
        if let Some((i0, t0)) = pending.take() {
            split_one8(seeds_v, &draw.pos[i0], t0, &mut crash[i0]);
        }
        for (c, bz) in crash.iter_mut().zip(byz.iter()) {
            for b in 0..W {
                c[b] &= !bz[b];
            }
        }

        for (g, group) in draw.groups.iter().enumerate() {
            let (lt0, eq0, t) = bound_state(group.shock);
            let mut fired = [lt0; W];
            if eq0 != 0 {
                split_one8(seeds_v, &draw.pos[n + g], t, &mut fired);
            }
            apply_shock::<W>(group, &fired, blocks, &mut crash, &mut byz);
        }

        if any_thresholds {
            // Vector vertical counter: one ripple updates all 8 blocks. Threshold
            // plans exist only for crash-only draws, whose fault count is the
            // crashed-lane count.
            let mut planes = [_mm512_setzero_si512(); MAX_PLANES];
            for c in &crash {
                let mut m = load8(c);
                for plane in planes.iter_mut().take(depth) {
                    let carry = _mm512_and_si512(*plane, m);
                    *plane = _mm512_xor_si512(*plane, m);
                    m = carry;
                }
            }
            for (plan, tally) in plans.iter().zip(&mut hits) {
                if let HitPlan::Thresholds { safe, live, both } = plan {
                    let [safe_m, live_m, both_m] =
                        threshold_masks8((*safe, *live, *both), &planes, depth);
                    for b in 0..blocks {
                        let masks = (safe_m[b], live_m[b], both_m[b]);
                        tally_block(tally, masks, (lanes - 64 * b).min(64));
                    }
                }
            }
        }
        if any_lut {
            for b in 0..blocks {
                let block_lanes = (lanes - 64 * b).min(64);
                draw.count_block::<W>(&crash, &byz, b, &mut faults, &mut byz_count);
                for (plan, tally) in plans.iter().zip(&mut hits) {
                    if let HitPlan::Lut { .. } = plan {
                        let masks = plan.eval(&faults, &byz_count, block_lanes, n, draw.crash_only);
                        tally_block(tally, masks, block_lanes);
                    }
                }
            }
        }
        next_block += blocks as u64;
        remaining -= lanes;
    }
    hits
}
