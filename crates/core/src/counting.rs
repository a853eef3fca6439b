//! Exact analysis by dynamic programming over fault counts.
//!
//! Both Theorem 3.1 and Theorem 3.2 only look at *how many* nodes crashed and how many
//! are Byzantine. For such [`CountingModel`]s the exact joint distribution of
//! `(#crashed, #byzantine)` can be computed for arbitrary heterogeneous (but
//! independent) per-node probabilities — a Poisson-binomial generalization — in
//! O(N²·(B+1)) time and O(N·(B+1)) space, where B is the number of nodes that can
//! turn Byzantine: O(N²) for the crash-only sweeps, O(N³) at worst. That scales to
//! the 100-node clusters of §4 where 2^N enumeration cannot go.
//!
//! Nothing here memoizes: [`counting_reliability`] runs the DP on every call. A
//! planned cell keeps the result in its group's scratch
//! ([`crate::scratch::GroupScratch`]), which the session cache keys by the cell's
//! content, so the counting engine runs the DP once per distinct cell.

use fault_model::mode::FaultProfile;

use crate::enumeration::RawReliability;
use crate::protocol::CountingModel;

/// The exact joint probability mass function of the number of crashed and Byzantine
/// nodes when every node fails independently under its own (possibly different)
/// profile.
#[derive(Debug, Clone)]
pub struct FaultCountDistribution {
    n: usize,
    width: usize,
    /// `pmf[c * width + b]` = P[#crashed = c, #byzantine = b], for `c + b <= n`.
    pmf: Vec<f64>,
}

/// The DP's row length: one more than the number of nodes that can turn Byzantine,
/// the most `#byzantine` can reach.
fn width(profiles: &[FaultProfile]) -> usize {
    1 + profiles
        .iter()
        .filter(|p| p.byzantine_probability() > 0.0)
        .count()
}

/// A bound on the entry updates of the DP below — N nodes times N crashed counts
/// times `width` — by which the scheduler prices a counting cell.
pub(crate) fn dp_steps(profiles: &[FaultProfile]) -> u64 {
    let n = profiles.len() as u64;
    n * n * width(profiles) as u64
}

impl FaultCountDistribution {
    /// Computes the distribution over independent nodes with these profiles.
    pub fn from_profiles(profiles: &[FaultProfile]) -> Self {
        let n = profiles.len();
        let width = width(profiles);
        let mut pmf = vec![0.0f64; (n + 1) * width];
        pmf[0] = 1.0;
        // The Byzantine-capable nodes added so far: no entry past that `b` has mass.
        let mut byzantine = 0;
        for (added, profile) in profiles.iter().enumerate() {
            let p_crash = profile.crash_probability();
            let p_byz = profile.byzantine_probability();
            let p_ok = profile.correct_probability();
            let can_turn = p_byz > 0.0;
            // Iterate downwards so each node is only counted once.
            for c in (0..=added).rev() {
                for b in (0..=byzantine.min(added - c)).rev() {
                    let at = c * width + b;
                    let mass = pmf[at];
                    if mass == 0.0 {
                        continue;
                    }
                    pmf[at] = mass * p_ok;
                    pmf[at + width] += mass * p_crash;
                    // Adding `mass * 0.0` would change nothing, so a node that cannot
                    // turn Byzantine skips the write and stays inside the row.
                    if can_turn {
                        pmf[at + 1] += mass * p_byz;
                    }
                }
            }
            byzantine += usize::from(can_turn);
        }
        Self { n, width, pmf }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `P[#crashed = crashed, #byzantine = byzantine]`.
    pub fn probability(&self, crashed: usize, byzantine: usize) -> f64 {
        if crashed + byzantine > self.n || byzantine >= self.width {
            return 0.0;
        }
        self.pmf[crashed * self.width + byzantine]
    }

    /// `P[#crashed + #byzantine >= faulty]`, summed from the deep tail upward so the
    /// small tail masses are not absorbed by the bulk.
    pub fn probability_at_least_faults(&self, faulty: usize) -> f64 {
        let mut total = 0.0;
        for k in (faulty..=self.n).rev() {
            let total_k: f64 = (k.saturating_sub(self.width - 1)..=k)
                .map(|c| self.pmf[c * self.width + k - c])
                .sum();
            total += total_k;
        }
        total.min(1.0)
    }

    /// Sums `P[c, b]` over all count pairs where `predicate(c, b)` holds.
    pub fn probability_where(&self, predicate: impl Fn(usize, usize) -> bool) -> f64 {
        let mut total = 0.0;
        for c in 0..=self.n {
            for b in 0..self.width.min(self.n - c + 1) {
                let mass = self.pmf[c * self.width + b];
                // Zero-mass pairs cannot change the sum; skipping them skips the
                // predicate calls on counts no node mix can reach.
                if mass != 0.0 && predicate(c, b) {
                    total += mass;
                }
            }
        }
        total.min(1.0)
    }
}

/// Computes the exact safety/liveness probabilities of a counting model over
/// independent (possibly heterogeneous) nodes with these profiles.
pub fn counting_reliability<M: CountingModel + ?Sized>(
    model: &M,
    profiles: &[FaultProfile],
) -> RawReliability {
    assert_eq!(
        model.num_nodes(),
        profiles.len(),
        "model and profiles disagree on the cluster size"
    );
    let dist = FaultCountDistribution::from_profiles(profiles);
    let p_safe = dist.probability_where(|c, b| model.is_safe_counts(c, b));
    let p_live = dist.probability_where(|c, b| model.is_live_counts(c, b));
    let p_both = dist.probability_where(|c, b| model.is_safe_and_live_counts(c, b));
    RawReliability {
        p_safe,
        p_live,
        p_safe_and_live: p_both,
    }
    .clamped()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumeration::enumerate_reliability;
    use crate::pbft_model::PbftModel;
    use crate::raft_model::RaftModel;
    use proptest::prelude::*;

    #[test]
    fn distribution_sums_to_one() {
        let d = vec![FaultProfile::new(0.05, 0.01); 9];
        let dist = FaultCountDistribution::from_profiles(&d);
        let total: f64 = (0..=9)
            .flat_map(|c| (0..=(9 - c)).map(move |b| (c, b)))
            .map(|(c, b)| dist.probability(c, b))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_crash_distribution_is_binomial() {
        let d = vec![FaultProfile::crash_only(0.1); 6];
        let dist = FaultCountDistribution::from_profiles(&d);
        for k in 0..=6 {
            let expected = quorum::metrics::binomial_pmf(6, k, 0.1);
            assert!((dist.probability(k, 0) - expected).abs() < 1e-12);
        }
        assert!((dist.probability_at_least_faults(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counting_matches_enumeration_for_raft() {
        for (n, p) in [(3usize, 0.01), (5, 0.02), (7, 0.04), (9, 0.08)] {
            let model = RaftModel::standard(n);
            let d = vec![FaultProfile::crash_only(p); n];
            let exact = enumerate_reliability(&model, &d);
            let fast = counting_reliability(&model, &d);
            assert!((exact.p_safe - fast.p_safe).abs() < 1e-12);
            assert!((exact.p_live - fast.p_live).abs() < 1e-12);
            assert!((exact.p_safe_and_live - fast.p_safe_and_live).abs() < 1e-12);
        }
    }

    #[test]
    fn counting_matches_enumeration_for_pbft_mixed_faults() {
        let model = PbftModel::standard(7);
        let d = vec![FaultProfile::new(0.03, 0.005); 7];
        let exact = enumerate_reliability(&model, &d);
        let fast = counting_reliability(&model, &d);
        assert!((exact.p_safe - fast.p_safe).abs() < 1e-12);
        assert!((exact.p_live - fast.p_live).abs() < 1e-12);
        assert!((exact.p_safe_and_live - fast.p_safe_and_live).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_profiles_are_exact() {
        let model = RaftModel::standard(5);
        let d = vec![
            FaultProfile::crash_only(0.01),
            FaultProfile::crash_only(0.02),
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.04),
            FaultProfile::crash_only(0.005),
        ];
        let exact = enumerate_reliability(&model, &d);
        let fast = counting_reliability(&model, &d);
        assert!((exact.p_safe_and_live - fast.p_safe_and_live).abs() < 1e-12);
    }

    #[test]
    fn scales_to_one_hundred_nodes() {
        let model = RaftModel::standard(99);
        let d = vec![FaultProfile::crash_only(0.1); 99];
        let r = counting_reliability(&model, &d);
        assert!(r.p_live > 0.999999);
        assert_eq!(r.p_safe, 1.0);
    }

    #[test]
    fn cached_tail_sums_match_a_naive_resummation() {
        // Heterogeneous mixed-mode profiles, so no symmetry hides an indexing bug.
        let d: Vec<FaultProfile> = (0..12)
            .map(|i| FaultProfile::new(0.01 * (i + 1) as f64, 0.002 * (i % 4) as f64))
            .collect();
        let dist = FaultCountDistribution::from_profiles(&d);
        for faulty in 0..=13 {
            let dist = &dist;
            let naive: f64 = (faulty..=dist.n())
                .flat_map(|k| (0..=k).map(move |c| dist.probability(c, k - c)))
                .sum::<f64>()
                .min(1.0);
            let cached = dist.probability_at_least_faults(faulty);
            assert!(
                (cached - naive).abs() < 1e-12,
                "faulty={faulty}: cached {cached} vs naive {naive}"
            );
        }
        assert_eq!(dist.probability_at_least_faults(13), 0.0);
        assert!((dist.probability_at_least_faults(0) - 1.0).abs() < 1e-12);
    }

    /// The one DP — a single column for crash-only profiles, `b` bounded by the
    /// Byzantine-capable nodes added so far for mixed ones — and the scratch slot
    /// the counting engine reads are both pinned bit-identical to a hand replay of
    /// the general recurrence over the full (N+1)² table.
    #[test]
    fn crash_only_specialization_and_cache_are_bit_identical_to_the_general_dp() {
        let crash_only: Vec<FaultProfile> = (0..40)
            .map(|i| FaultProfile::crash_only(0.002 * (i + 1) as f64))
            .collect();
        // Crash-only nodes before and after a stretch where every third node can
        // also turn Byzantine, so the `b` bound grows mid-run and then holds.
        let mixed: Vec<FaultProfile> = (0..40)
            .map(|i| {
                let p_byz = if (8..32).contains(&i) && i % 3 == 0 {
                    0.001 * (i % 7 + 1) as f64
                } else {
                    0.0
                };
                FaultProfile::new(0.003 * (i % 11 + 1) as f64, p_byz)
            })
            .collect();
        for d in [crash_only, mixed] {
            // General-path reference: any nonzero p_byz changes the numbers, so
            // replay the general recurrence over the whole table by hand.
            let mut pmf = vec![vec![0.0f64; 41]; 41];
            pmf[0][0] = 1.0;
            for (added, profile) in d.iter().enumerate() {
                let p_crash = profile.crash_probability();
                let p_byz = profile.byzantine_probability();
                let p_ok = profile.correct_probability();
                for c in (0..=added).rev() {
                    for b in (0..=(added - c)).rev() {
                        let mass = pmf[c][b];
                        if mass == 0.0 {
                            continue;
                        }
                        pmf[c][b] = mass * p_ok;
                        pmf[c + 1][b] += mass * p_crash;
                        pmf[c][b + 1] += mass * p_byz;
                    }
                }
            }
            let fast = FaultCountDistribution::from_profiles(&d);
            for (c, row) in pmf.iter().enumerate() {
                for (b, &expected) in row.iter().enumerate().take(41 - c) {
                    assert_eq!(
                        fast.probability(c, b).to_bits(),
                        expected.to_bits(),
                        "pmf[{c}][{b}] diverged from the general DP"
                    );
                }
            }
            // The slot holds the engine's result, computed once: the second read
            // must not run the DP, and both reads equal a fresh run bit for bit.
            let model = RaftModel::standard(40);
            let fresh = counting_reliability(&model, &d);
            let scratch = crate::scratch::GroupScratch::default();
            let first = scratch.counting(|| counting_reliability(&model, &d));
            let second = scratch.counting(|| unreachable!("the slot is already filled"));
            for raw in [first, second] {
                assert_eq!(raw.p_safe.to_bits(), fresh.p_safe.to_bits());
                assert_eq!(raw.p_live.to_bits(), fresh.p_live.to_bits());
                assert_eq!(
                    raw.p_safe_and_live.to_bits(),
                    fresh.p_safe_and_live.to_bits()
                );
            }
        }
    }

    proptest! {
        #[test]
        fn counting_always_matches_enumeration(
            n in 3usize..9,
            p_crash in 0.0..0.3f64,
            p_byz in 0.0..0.1f64,
        ) {
            let model = PbftModel::standard(n);
            let d = vec![FaultProfile::new(p_crash, p_byz); n];
            let exact = enumerate_reliability(&model, &d);
            let fast = counting_reliability(&model, &d);
            prop_assert!((exact.p_safe - fast.p_safe).abs() < 1e-9);
            prop_assert!((exact.p_live - fast.p_live).abs() < 1e-9);
            prop_assert!((exact.p_safe_and_live - fast.p_safe_and_live).abs() < 1e-9);
        }
    }
}
