//! Conjugate posteriors over fault parameters fitted from fleet telemetry.
//!
//! The paper's core observation is that per-node fault probabilities are not
//! known constants — they are *estimated* from noisy telemetry. This module
//! turns the point estimates of [`crate::telemetry::TelemetryEstimator`] into
//! proper Bayesian posteriors:
//!
//! * [`BetaPosterior`] — a Beta posterior over a per-observation failure
//!   probability, the conjugate update for Bernoulli counts.
//! * [`GammaPosterior`] — a Gamma posterior over an annual failure *rate*, the
//!   conjugate update for Poisson counts over an exposure time.
//! * [`TelemetryPosterior`] — both fitted from one [`FleetTelemetry`] set,
//!   with AFR-space credible intervals.
//!
//! All constructors use the Jeffreys prior (Beta(1/2, 1/2) / Gamma(1/2, 0)),
//! so a zero-failure fleet yields a proper, non-degenerate posterior instead
//! of a point mass at `p = 0`.
//!
//! Sampling is by inverse-CDF ([`BetaPosterior::sample_p`] draws exactly one
//! uniform from the caller's RNG and maps it through [`BetaPosterior::quantile`]),
//! so posterior draws are deterministic given the RNG stream — the property
//! the second-order analysis mode in `prob-consensus` relies on for its
//! bit-identical-at-any-thread-count contract.

use rand::Rng;

use crate::metrics::HOURS_PER_YEAR;
use crate::telemetry::FleetTelemetry;

/// Natural log of the gamma function via the Lanczos approximation (g = 7,
/// 9 coefficients) — accurate to ~1e-13 over the positive reals, which is far
/// tighter than the bisection tolerance of the quantile functions below.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the approximation in its accurate range.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEF[0];
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Continued-fraction kernel of the regularized incomplete beta function
/// (modified Lentz's method).
fn beta_continued_fraction(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3e-15;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)` — the CDF of Beta(a, b).
fn regularized_incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the continued fraction directly where it converges fast, else the
    // symmetry relation I_x(a, b) = 1 - I_{1-x}(b, a).
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_continued_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
    }
}

/// Regularized lower incomplete gamma function `P(s, x)` — the CDF of
/// Gamma(shape = s, rate = 1) at `x`. Series expansion for `x < s + 1`,
/// continued fraction for the upper tail otherwise.
fn regularized_lower_gamma(s: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x < s + 1.0 {
        let mut term = 1.0 / s;
        let mut sum = term;
        let mut n = s;
        for _ in 0..500 {
            n += 1.0;
            term *= x / n;
            sum += term;
            if term.abs() < sum.abs() * 1e-16 {
                break;
            }
        }
        (sum.ln() + s * x.ln() - x - ln_gamma(s)).exp()
    } else {
        const FPMIN: f64 = 1e-300;
        let mut b = x + 1.0 - s;
        let mut c = 1.0 / FPMIN;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - s);
            b += 2.0;
            d = an * d + b;
            if d.abs() < FPMIN {
                d = FPMIN;
            }
            c = b + an / c;
            if c.abs() < FPMIN {
                c = FPMIN;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-16 {
                break;
            }
        }
        1.0 - (s * x.ln() - x - ln_gamma(s)).exp() * h
    }
}

/// Inverts a monotone CDF by bisection. 200 halvings of the bracket reach
/// full f64 resolution, and the result depends only on `(cdf, q, lo, hi)` —
/// no platform-dependent special functions — so quantiles (and therefore
/// inverse-CDF samples) are bit-stable.
fn bisect_quantile(q: f64, mut lo: f64, mut hi: f64, cdf: impl Fn(f64) -> f64) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break; // bracket has collapsed to adjacent floats
        }
        if cdf(mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Checks that `level` is a usable credible-interval level.
fn assert_level(level: f64) {
    assert!(
        level.is_finite() && 0.0 < level && level < 1.0,
        "credible level must be in (0, 1), got {level}"
    );
}

/// A Beta posterior over a failure *probability* in `[0, 1]` — the conjugate
/// posterior for Bernoulli trial counts.
///
/// With the Jeffreys prior Beta(1/2, 1/2), observing `f` failures in `n`
/// trials yields Beta(f + 1/2, n − f + 1/2) (see [`BetaPosterior::from_counts`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaPosterior {
    alpha: f64,
    beta: f64,
}

impl BetaPosterior {
    /// Creates a Beta(alpha, beta) posterior from explicit hyperparameters.
    ///
    /// # Panics
    /// If either hyperparameter is non-finite or non-positive.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0 && beta.is_finite() && beta > 0.0,
            "Beta hyperparameters must be finite and positive, got alpha={alpha} beta={beta}"
        );
        Self { alpha, beta }
    }

    /// The Jeffreys-prior conjugate update: `failures` failures and
    /// `successes` non-failures yield Beta(failures + 1/2, successes + 1/2).
    /// A zero-failure fleet therefore gets a proper posterior with positive
    /// mass everywhere — no degenerate point estimate at `p = 0`.
    pub fn from_counts(failures: u64, successes: u64) -> Self {
        Self::new(failures as f64 + 0.5, successes as f64 + 0.5)
    }

    /// The `alpha` hyperparameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The `beta` hyperparameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Posterior mean `alpha / (alpha + beta)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Posterior variance.
    pub fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }

    /// CDF at `x` (the regularized incomplete beta function `I_x(alpha, beta)`).
    pub fn cdf(&self, x: f64) -> f64 {
        regularized_incomplete_beta(self.alpha, self.beta, x)
    }

    /// Quantile (inverse CDF) at probability `q ∈ [0, 1]`, by bisection.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile level {q} out of [0, 1]");
        if q <= 0.0 {
            return 0.0;
        }
        if q >= 1.0 {
            return 1.0;
        }
        bisect_quantile(q, 0.0, 1.0, |x| self.cdf(x))
    }

    /// Equal-tailed credible interval at the given `level` (e.g. `0.9` for the
    /// central 90% interval).
    pub fn credible_interval(&self, level: f64) -> (f64, f64) {
        assert_level(level);
        let tail = 0.5 * (1.0 - level);
        (self.quantile(tail), self.quantile(1.0 - tail))
    }

    /// Draws one posterior sample of `p` by inverse-CDF: consumes exactly one
    /// uniform from `rng` and maps it through [`BetaPosterior::quantile`].
    /// Deterministic given the RNG stream (no rejection loop).
    pub fn sample_p<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }
}

/// A Gamma posterior over a failure *rate* (events per unit exposure) — the
/// conjugate posterior for Poisson counts observed over an exposure time.
///
/// With the Jeffreys prior Gamma(1/2, 0), observing `f` failures over
/// `t` device-years yields Gamma(shape = f + 1/2, rate = t).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaPosterior {
    shape: f64,
    rate: f64,
}

impl GammaPosterior {
    /// Creates a Gamma(shape, rate) posterior from explicit hyperparameters.
    ///
    /// # Panics
    /// If either hyperparameter is non-finite or non-positive.
    pub fn new(shape: f64, rate: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0 && rate.is_finite() && rate > 0.0,
            "Gamma hyperparameters must be finite and positive, got shape={shape} rate={rate}"
        );
        Self { shape, rate }
    }

    /// The Jeffreys-prior conjugate update: `failures` events over
    /// `exposure` device-years yield Gamma(failures + 1/2, exposure).
    ///
    /// # Panics
    /// If `exposure` is non-finite or non-positive (a zero-exposure fleet has
    /// no posterior; callers gate on exposure first).
    pub fn from_counts(failures: u64, exposure: f64) -> Self {
        Self::new(failures as f64 + 0.5, exposure)
    }

    /// The shape hyperparameter.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The rate hyperparameter (the observed exposure under a Jeffreys update).
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Posterior mean `shape / rate`.
    pub fn mean(&self) -> f64 {
        self.shape / self.rate
    }

    /// Posterior variance `shape / rate²`.
    pub fn variance(&self) -> f64 {
        self.shape / (self.rate * self.rate)
    }

    /// CDF at `x` (the regularized lower incomplete gamma `P(shape, rate·x)`).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        regularized_lower_gamma(self.shape, self.rate * x)
    }

    /// Quantile (inverse CDF) at probability `q ∈ [0, 1)`, by bisection on an
    /// expanding bracket.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile level {q} out of [0, 1)");
        if q <= 0.0 {
            return 0.0;
        }
        // Bracket the quantile: start past the mean + 10 standard deviations
        // and double until the CDF exceeds q.
        let mut hi = self.mean() + 10.0 * self.variance().sqrt();
        for _ in 0..200 {
            if self.cdf(hi) >= q {
                break;
            }
            hi *= 2.0;
        }
        bisect_quantile(q, 0.0, hi, |x| self.cdf(x))
    }

    /// Equal-tailed credible interval at the given `level`.
    pub fn credible_interval(&self, level: f64) -> (f64, f64) {
        assert_level(level);
        let tail = 0.5 * (1.0 - level);
        (self.quantile(tail), self.quantile(1.0 - tail))
    }

    /// Draws one posterior sample of the rate by inverse-CDF: consumes exactly
    /// one uniform from `rng`. Deterministic given the RNG stream.
    pub fn sample_rate<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen::<f64>())
    }
}

/// Both conjugate posteriors fitted from one telemetry set, with AFR-space
/// accessors. Built by [`crate::telemetry::TelemetryEstimator::posterior`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryPosterior {
    /// Beta posterior over the per-observation-record failure probability.
    pub probability: BetaPosterior,
    /// Gamma posterior over the annual failure rate (events per device-year).
    pub rate: GammaPosterior,
    /// Observed device-years backing the fit.
    pub device_years: f64,
    /// Observed failure count backing the fit.
    pub failures: usize,
}

impl TelemetryPosterior {
    /// Fits both posteriors from telemetry. Returns `None` when the telemetry
    /// covers no observation time (zero exposure admits no Gamma update).
    pub fn from_telemetry(telemetry: &FleetTelemetry) -> Option<Self> {
        let device_hours: f64 = telemetry.records().iter().map(|r| r.observed_hours).sum();
        if device_hours <= 0.0 {
            return None;
        }
        let device_years = device_hours / HOURS_PER_YEAR;
        let failures = telemetry.records().iter().filter(|r| r.failed).count();
        let successes = telemetry.len() - failures;
        Some(Self {
            probability: BetaPosterior::from_counts(failures as u64, successes as u64),
            rate: GammaPosterior::from_counts(failures as u64, device_years),
            device_years,
            failures,
        })
    }

    /// Posterior-mean annual failure rate mapped to AFR space
    /// (`1 − exp(−rate)`).
    pub fn afr_mean(&self) -> f64 {
        1.0 - (-self.rate.mean()).exp()
    }

    /// Equal-tailed credible interval over the AFR: the Gamma rate quantiles
    /// mapped through `1 − exp(−rate)` (monotone, so quantiles commute).
    pub fn afr_credible_interval(&self, level: f64) -> (f64, f64) {
        let (lo, hi) = self.rate.credible_interval(level);
        (1.0 - (-lo).exp(), 1.0 - (-hi).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(1) = Γ(2) = 1, Γ(5) = 24, Γ(1/2) = √π.
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!(ln_gamma(2.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // Beta(1, 1) is uniform; Beta(2, 1) has CDF x²; symmetric cases hit 1/2.
        let uniform = BetaPosterior::new(1.0, 1.0);
        let square = BetaPosterior::new(2.0, 1.0);
        for &x in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!((uniform.cdf(x) - x).abs() < 1e-12, "uniform cdf at {x}");
            assert!((square.cdf(x) - x * x).abs() < 1e-12, "square cdf at {x}");
        }
        assert!((BetaPosterior::new(0.5, 0.5).cdf(0.5) - 0.5).abs() < 1e-12);
        assert!((BetaPosterior::new(7.0, 7.0).cdf(0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn beta_quantile_inverts_cdf() {
        let post = BetaPosterior::from_counts(3, 97);
        for &q in &[0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let x = post.quantile(q);
            assert!((post.cdf(x) - q).abs() < 1e-10, "roundtrip at q={q}");
        }
        assert_eq!(post.quantile(0.0), 0.0);
        assert_eq!(post.quantile(1.0), 1.0);
    }

    #[test]
    fn gamma_cdf_matches_exponential_closed_form() {
        // Gamma(shape = 1, rate = λ) is Exp(λ): CDF = 1 − exp(−λx).
        let exp = GammaPosterior::new(1.0, 2.0);
        for &x in &[0.1f64, 0.5, 1.0, 2.0] {
            let expected = 1.0 - (-2.0 * x).exp();
            assert!((exp.cdf(x) - expected).abs() < 1e-12, "cdf at {x}");
        }
    }

    #[test]
    fn gamma_quantile_inverts_cdf() {
        let post = GammaPosterior::from_counts(12, 340.0);
        for &q in &[0.01, 0.05, 0.5, 0.95, 0.99] {
            let x = post.quantile(q);
            assert!((post.cdf(x) - q).abs() < 1e-10, "roundtrip at q={q}");
        }
    }

    #[test]
    fn jeffreys_zero_failure_posterior_is_not_degenerate() {
        let beta = BetaPosterior::from_counts(0, 10_000);
        assert!(beta.mean() > 0.0);
        let (lo, hi) = beta.credible_interval(0.9);
        assert!(
            lo >= 0.0 && hi > lo,
            "interval [{lo}, {hi}] must not collapse"
        );
        assert!(hi < 1e-3, "upper bound {hi} should still be tight");

        let gamma = GammaPosterior::from_counts(0, 2_500.0);
        let (lo, hi) = gamma.credible_interval(0.9);
        assert!(hi > lo && hi > 0.0);
    }

    #[test]
    fn credible_interval_narrows_with_evidence() {
        let small = BetaPosterior::from_counts(4, 96);
        let large = BetaPosterior::from_counts(400, 9_600);
        let width = |(lo, hi): (f64, f64)| hi - lo;
        assert!(width(large.credible_interval(0.9)) < width(small.credible_interval(0.9)));
    }

    #[test]
    fn inverse_cdf_sampling_is_deterministic_and_in_range() {
        let post = BetaPosterior::from_counts(8, 192);
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| post.sample_p(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        let b = draw(7);
        assert_eq!(a, b, "same seed must reproduce the same draws bit-for-bit");
        assert!(a.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Draw mean should sit near the posterior mean.
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((mean - post.mean()).abs() < 0.02, "draw mean {mean}");
    }

    #[test]
    fn telemetry_posterior_requires_exposure() {
        assert!(TelemetryPosterior::from_telemetry(&FleetTelemetry::new()).is_none());
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn beta_rejects_nonpositive_hyperparameters() {
        let _ = BetaPosterior::new(0.0, 1.0);
    }
}
