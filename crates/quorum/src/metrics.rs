//! Binomial helpers for threshold quorums: how likely `k` of `n` independent nodes,
//! each up with probability `p`, are enough to assemble a quorum.

/// log of the binomial coefficient `C(n, k)`, computed via `ln Γ` for numerical range.
pub fn ln_binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: usize) -> f64 {
    (1..=n).map(|i| (i as f64).ln()).sum()
}

/// Probability mass `P[X = k]` for `X ~ Binomial(n, p)`.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    (ln_binomial(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (1.0 - p).ln()).exp()
}

/// Tail probability `P[X >= k]` for `X ~ Binomial(n, p)`.
pub fn binomial_tail_at_least(n: usize, k: usize, p: f64) -> f64 {
    (k..=n).map(|i| binomial_pmf(n, i, p)).sum::<f64>().min(1.0)
}

/// Tail probability `P[X <= k]` for `X ~ Binomial(n, p)`.
pub fn binomial_cdf(n: usize, k: usize, p: f64) -> f64 {
    (0..=k.min(n))
        .map(|i| binomial_pmf(n, i, p))
        .sum::<f64>()
        .min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn binomial_pmf_sums_to_one() {
        let total: f64 = (0..=10).map(|k| binomial_pmf(10, k, 0.3)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_edge_cases() {
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
        assert!((binomial_tail_at_least(3, 0, 0.2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_and_tail_are_complementary() {
        for k in 0..=7 {
            let cdf = binomial_cdf(7, k, 0.13);
            let tail = binomial_tail_at_least(7, k + 1, 0.13);
            assert!((cdf + tail - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn availability_matches_paper_raft_n3() {
        // 2-of-3 with p_live = 0.99 is the Raft N=3 liveness number from Table 2.
        let a = binomial_tail_at_least(3, 2, 0.99);
        assert!((a - 0.999702).abs() < 1e-6, "got {a}");
    }

    proptest! {
        #[test]
        fn availability_is_monotone_in_liveness(n in 2usize..12, seed in 0usize..100) {
            let k = (seed % n).max(1);
            let lo = binomial_tail_at_least(n, k, 0.7);
            let hi = binomial_tail_at_least(n, k, 0.9);
            prop_assert!(hi >= lo - 1e-12);
        }

        #[test]
        fn binomial_tail_is_monotone_in_k(n in 1usize..25, p in 0.0..1.0f64) {
            let mut last = 1.0f64 + 1e-12;
            for k in 0..=n {
                let t = binomial_tail_at_least(n, k, p);
                prop_assert!(t <= last + 1e-12);
                last = t;
            }
        }
    }
}
