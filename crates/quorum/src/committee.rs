//! Committee sampling.
//!
//! Algorand and King–Saia (cited in §5) replace "everyone votes" with a sampled committee
//! that is, with high probability, *representative* of the whole cluster. §4 of the paper
//! proposes sampling committees "to select only the reliable nodes" when fleet
//! reliability exceeds application requirements. This module provides seeded committee
//! sampling (uniform or reliability-weighted) plus the hypergeometric math quantifying
//! how likely a sampled committee is to be safe/live.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::ln_binomial;
use crate::set::NodeSet;

/// Samples a uniformly random subset of exactly `k` distinct indices from `0..n`, by a
/// partial Fisher–Yates shuffle (O(n) time and allocation).
fn sample_subset<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> NodeSet {
    assert!(k <= n, "cannot sample {k} nodes from a universe of {n}");
    let mut indices: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        indices.swap(i, j);
    }
    NodeSet::from_indices(n, &indices[..k])
}

/// Static description of a committee-sampling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitteeSpec {
    /// Size of the whole cluster.
    pub universe: usize,
    /// Number of members sampled into each committee.
    pub committee_size: usize,
    /// Number of correct members the committee needs to function (e.g. its own quorum).
    pub required_correct: usize,
}

impl CommitteeSpec {
    /// Creates a committee spec.
    ///
    /// # Panics
    ///
    /// Panics unless `required_correct <= committee_size <= universe`.
    pub fn new(universe: usize, committee_size: usize, required_correct: usize) -> Self {
        assert!(committee_size <= universe, "committee larger than cluster");
        assert!(committee_size >= 1, "committee must be non-empty");
        assert!(
            required_correct <= committee_size,
            "cannot require more correct members than the committee size"
        );
        Self {
            universe,
            committee_size,
            required_correct,
        }
    }

    /// Hypergeometric probability that a uniformly sampled committee contains exactly
    /// `k` faulty members when the cluster contains `faulty` faulty nodes.
    pub fn probability_faulty_members(&self, faulty: usize, k: usize) -> f64 {
        assert!(faulty <= self.universe);
        let correct = self.universe - faulty;
        if k > faulty || self.committee_size - k > correct {
            return 0.0;
        }
        (ln_binomial(faulty, k) + ln_binomial(correct, self.committee_size - k)
            - ln_binomial(self.universe, self.committee_size))
        .exp()
    }

    /// Probability that a uniformly sampled committee still contains at least
    /// `required_correct` correct members when `faulty` cluster nodes are faulty.
    pub fn probability_functional(&self, faulty: usize) -> f64 {
        let max_tolerable_faulty_members = self.committee_size - self.required_correct;
        (0..=max_tolerable_faulty_members)
            .map(|k| self.probability_faulty_members(faulty, k))
            .sum::<f64>()
            .min(1.0)
    }

    /// The smallest committee size such that, with `faulty` faulty cluster nodes and a
    /// committee-internal majority requirement, the committee is functional with at least
    /// probability `target`. Returns `None` if even the full cluster cannot reach it.
    pub fn min_committee_size_for(universe: usize, faulty: usize, target: f64) -> Option<usize> {
        (1..=universe).find(|&size| {
            let spec = CommitteeSpec::new(universe, size, size / 2 + 1);
            spec.probability_functional(faulty) >= target
        })
    }
}

/// Samples committees, uniformly or weighted toward reliable nodes, from a seed — the
/// deterministic stand-in for VRF-based sortition.
#[derive(Debug, Clone)]
pub struct CommitteeSampler {
    spec: CommitteeSpec,
    seed: u64,
}

impl CommitteeSampler {
    /// Creates a sampler for `spec` seeded with `seed` (e.g. a view number mixed with an
    /// epoch randomness beacon).
    pub fn new(spec: CommitteeSpec, seed: u64) -> Self {
        Self { spec, seed }
    }

    /// The spec this sampler draws from.
    pub fn spec(&self) -> &CommitteeSpec {
        &self.spec
    }

    fn rng_for_round(&self, round: u64) -> StdRng {
        // Mix the seed and round; SplitMix64-style finalizer for dispersion.
        let mut z = self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        StdRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Samples the committee for a round uniformly at random. Deterministic per
    /// `(seed, round)`, so every correct node derives the same committee.
    pub fn sample_uniform(&self, round: u64) -> NodeSet {
        let mut rng = self.rng_for_round(round);
        sample_subset(self.spec.universe, self.spec.committee_size, &mut rng)
    }

    /// Samples the committee for a round with per-node selection weights (higher weight →
    /// more likely to be selected), using weighted sampling without replacement.
    ///
    /// This is the probability-native refinement of §4: weights are typically the
    /// inverse of each node's fault probability, biasing committees toward reliable
    /// nodes.
    pub fn sample_weighted(&self, round: u64, weights: &[f64]) -> NodeSet {
        assert_eq!(
            weights.len(),
            self.spec.universe,
            "need one weight per cluster node"
        );
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive and finite"
        );
        let mut rng = self.rng_for_round(round);
        let mut remaining: Vec<usize> = (0..self.spec.universe).collect();
        let mut committee = NodeSet::empty(self.spec.universe);
        for _ in 0..self.spec.committee_size {
            let total: f64 = remaining.iter().map(|&i| weights[i]).sum();
            let mut draw = rng.gen::<f64>() * total;
            let mut chosen = remaining.len() - 1;
            for (pos, &i) in remaining.iter().enumerate() {
                draw -= weights[i];
                if draw <= 0.0 {
                    chosen = pos;
                    break;
                }
            }
            committee.insert(remaining.swap_remove(chosen));
        }
        committee
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sample_subset_has_requested_size_and_is_in_range() {
        let mut rng = StdRng::seed_from_u64(3);
        for k in 0..=10 {
            let s = sample_subset(10, k, &mut rng);
            assert_eq!(s.len(), k);
            assert!(s.iter().all(|i| i < 10));
        }
    }

    #[test]
    fn sample_subset_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 6];
        for _ in 0..30_000 {
            for i in sample_subset(6, 2, &mut rng).iter() {
                counts[i] += 1;
            }
        }
        // Each node should appear in about 1/3 of the samples.
        for &c in &counts {
            let frac = c as f64 / 30_000.0;
            assert!((frac - 1.0 / 3.0).abs() < 0.02, "frac {frac}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_subset_rejects_oversized_request() {
        let mut rng = StdRng::seed_from_u64(5);
        sample_subset(3, 4, &mut rng);
    }

    #[test]
    fn hypergeometric_masses_sum_to_one() {
        let spec = CommitteeSpec::new(20, 7, 4);
        let total: f64 = (0..=7).map(|k| spec.probability_faulty_members(5, k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn functional_probability_decreases_with_more_faults() {
        let spec = CommitteeSpec::new(50, 9, 5);
        let mut last = 1.0;
        for faulty in 0..20 {
            let p = spec.probability_functional(faulty);
            assert!(p <= last + 1e-12);
            last = p;
        }
    }

    #[test]
    fn committee_of_everyone_matches_direct_count() {
        let spec = CommitteeSpec::new(10, 10, 6);
        assert_eq!(spec.probability_functional(4), 1.0);
        assert_eq!(spec.probability_functional(5), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_per_round_and_varies_across_rounds() {
        let sampler = CommitteeSampler::new(CommitteeSpec::new(40, 7, 4), 42);
        let a1 = sampler.sample_uniform(3);
        let a2 = sampler.sample_uniform(3);
        let b = sampler.sample_uniform(4);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(a1.len(), 7);
    }

    #[test]
    fn weighted_sampling_prefers_reliable_nodes() {
        let spec = CommitteeSpec::new(20, 5, 3);
        let sampler = CommitteeSampler::new(spec, 7);
        // Nodes 0..10 are 100x more attractive than nodes 10..20.
        let weights: Vec<f64> = (0..20).map(|i| if i < 10 { 100.0 } else { 1.0 }).collect();
        let mut reliable_picks = 0usize;
        let mut total = 0usize;
        for round in 0..500 {
            let committee = sampler.sample_weighted(round, &weights);
            reliable_picks += committee.iter().filter(|&i| i < 10).count();
            total += committee.len();
        }
        let frac = reliable_picks as f64 / total as f64;
        assert!(frac > 0.9, "reliable fraction {frac}");
    }

    #[test]
    fn min_committee_size_grows_with_fault_count() {
        let small = CommitteeSpec::min_committee_size_for(100, 5, 0.999).unwrap();
        let large = CommitteeSpec::min_committee_size_for(100, 30, 0.999).unwrap();
        assert!(small < large);
        assert!(small < 100);
    }

    proptest! {
        #[test]
        fn sampled_committees_have_spec_size(universe in 5usize..60, seed in 0u64..500) {
            let size = (universe / 3).max(1);
            let spec = CommitteeSpec::new(universe, size, size / 2 + 1);
            let sampler = CommitteeSampler::new(spec, seed);
            let c = sampler.sample_uniform(seed);
            prop_assert_eq!(c.len(), size);
            prop_assert!(c.iter().all(|i| i < universe));
        }
    }
}
