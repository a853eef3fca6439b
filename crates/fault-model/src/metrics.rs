//! Reliability metrics: nines, AFR conversions, MTBF/MTTR, availability.
//!
//! These mirror the vocabulary the storage community uses (§2 of the paper): annual
//! failure rates measured over large fleets, "nines" of availability or durability, and
//! mean-time metrics derived from failure (λ) and repair (μ) rates.

/// Hours in a (mean) year; the constant commonly used for AFR conversions.
pub const HOURS_PER_YEAR: f64 = 8766.0;

/// Converts an annual failure rate (probability of failing within a year) into a
/// constant hourly hazard rate λ such that `1 - exp(-λ * HOURS_PER_YEAR) == afr`.
///
/// # Panics
///
/// Panics if `afr` is not in `[0, 1)`.
///
/// # Examples
///
/// ```
/// let lambda = fault_model::metrics::afr_to_hourly_rate(0.04);
/// let back = fault_model::metrics::hourly_rate_to_afr(lambda);
/// assert!((back - 0.04).abs() < 1e-12);
/// ```
pub fn afr_to_hourly_rate(afr: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&afr),
        "AFR must be in [0, 1), got {afr}"
    );
    -(1.0 - afr).ln() / HOURS_PER_YEAR
}

/// Converts a constant hourly hazard rate into the implied annual failure rate.
pub fn hourly_rate_to_afr(lambda: f64) -> f64 {
    assert!(lambda >= 0.0, "rate must be non-negative");
    1.0 - (-lambda * HOURS_PER_YEAR).exp()
}

/// Mean time between failures for a constant hazard rate λ (per hour), in hours.
///
/// Returns `f64::INFINITY` when the rate is zero.
pub fn mtbf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / lambda
    }
}

/// Steady-state availability of a repairable component with failure rate λ and repair
/// rate μ: `μ / (λ + μ)`.
pub fn availability(lambda: f64, mu: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    mu / (lambda + mu)
}

/// Number of "nines" in a probability: `-log10(1 - p)`.
///
/// `nines(0.999)` is `3.0`; a probability of exactly `1.0` maps to `f64::INFINITY`.
pub fn nines(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0,1]");
    if p >= 1.0 {
        f64::INFINITY
    } else {
        -(1.0 - p).log10()
    }
}

/// Inverse of [`nines`]: the probability that has `n` nines.
pub fn probability_from_nines(n: f64) -> f64 {
    assert!(n >= 0.0, "nines must be non-negative");
    1.0 - 10f64.powf(-n)
}

/// A probability wrapped with convenient formatting in "nines" and percent notation.
///
/// # Examples
///
/// ```
/// use fault_model::metrics::Nines;
/// let n = Nines::from_probability(0.9997);
/// assert_eq!(format!("{n}"), "99.97%");
/// assert!((n.nines() - 3.52).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nines {
    probability: f64,
}

impl Nines {
    /// Wraps a probability in `[0, 1]`.
    pub fn from_probability(probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability must be in [0,1], got {probability}"
        );
        Self { probability }
    }

    /// The underlying probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The probability of the complementary event (failure / violation).
    pub fn complement(&self) -> f64 {
        1.0 - self.probability
    }

    /// The number of nines, i.e. `-log10(1 - p)`.
    pub fn nines(&self) -> f64 {
        nines(self.probability)
    }

    /// Whether this probability meets a target expressed in nines.
    ///
    /// Compared in log-space with a tolerance: exact-nines boundaries do not
    /// survive float rounding — `1 - 0.999` evaluates to `1.0000000000000009e-3`,
    /// so `nines(0.999)` is `2.9999999999999996` and a plain `>=` would deny that
    /// exactly three nines meet a three-nines target. The tolerance is the
    /// representation noise of a probability at the target: storing `1 − 10^-k`
    /// rounds by up to half an ulp of 1.0, which the complement amplifies to
    /// `(ε/2)·10^k` in relative terms — `(ε/2)·10^k / ln 10` nines — plus a fixed
    /// 1e-9 floor for the logarithm's own rounding. Both terms are far below any
    /// meaningful reliability distinction at their respective scales. The slack is
    /// capped at half a nine: beyond ~16 nines the uncapped formula would exceed
    /// whole nines and wave anything through, while the boundary cases it exists
    /// for stop being representable at all (the largest f64 below 1.0 is ~15.95
    /// nines; `1 − 10^-17` rounds to exactly 1.0, whose nines are infinite).
    pub fn meets(&self, target_nines: f64) -> bool {
        let representation_slack =
            (f64::EPSILON / 2.0 * 10f64.powf(target_nines) / std::f64::consts::LN_10).min(0.5);
        self.nines() >= target_nines - representation_slack - 1e-9
    }

    /// Formats the probability as a percentage with enough significant digits to show the
    /// leading non-nine digit (the style used in the paper's tables, e.g. `99.9990%`).
    pub fn as_percent(&self) -> String {
        // Probabilities within f64 rounding error of 1 are shown as 100% rather than as a
        // long string of nines.
        if self.probability >= 1.0 - 1e-12 {
            return "100%".to_string();
        }
        // Show every leading nine of the percentage plus the first non-nine digit,
        // never fewer than two decimals (e.g. 99.97%, 99.9990%, 99.99993%).
        let failure_percent = (1.0 - self.probability) * 100.0;
        let leading_nines = if failure_percent >= 1.0 {
            0
        } else {
            (-failure_percent.log10()).floor() as usize
        };
        let decimals = (leading_nines + 1).max(2);
        format!("{:.*}%", decimals, self.probability * 100.0)
    }
}

impl std::fmt::Display for Nines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.as_percent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn afr_round_trips_through_rate() {
        for afr in [0.001, 0.01, 0.04, 0.08, 0.5, 0.9] {
            let rate = afr_to_hourly_rate(afr);
            assert!((hourly_rate_to_afr(rate) - afr).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_afr_means_zero_rate() {
        assert_eq!(afr_to_hourly_rate(0.0), 0.0);
        assert_eq!(hourly_rate_to_afr(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "AFR must be in")]
    fn afr_of_one_panics() {
        afr_to_hourly_rate(1.0);
    }

    #[test]
    fn mtbf_of_zero_rate_is_infinite() {
        assert!(mtbf(0.0).is_infinite());
        assert!((mtbf(0.01) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn availability_matches_closed_form() {
        assert!((availability(1.0, 9.0) - 0.9).abs() < 1e-12);
        assert_eq!(availability(0.0, 1.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0,1]")]
    fn from_probability_rejects_nan() {
        let _ = Nines::from_probability(f64::NAN);
    }

    #[test]
    fn nines_of_common_values() {
        assert!((nines(0.9) - 1.0).abs() < 1e-12);
        assert!((nines(0.999) - 3.0).abs() < 1e-12);
        assert!(nines(1.0).is_infinite());
        assert!((probability_from_nines(3.0) - 0.999).abs() < 1e-12);
    }

    #[test]
    fn nines_percent_formatting_matches_paper_style() {
        assert_eq!(Nines::from_probability(0.9997).as_percent(), "99.97%");
        assert_eq!(Nines::from_probability(0.999990).as_percent(), "99.9990%");
        assert_eq!(Nines::from_probability(0.9988).as_percent(), "99.88%");
        assert_eq!(Nines::from_probability(1.0).as_percent(), "100%");
    }

    #[test]
    fn nines_meets_targets() {
        let n = Nines::from_probability(0.99995);
        assert!(n.meets(4.0));
        assert!(!n.meets(5.0));
        assert!((n.complement() - 5e-5).abs() < 1e-12);
    }

    #[test]
    fn meets_holds_at_exact_nines_boundaries() {
        // Regression: 1 - 10^-k is not exactly representable, so -log10(1 - p)
        // lands a few ulps below k and a strict comparison denied the boundary
        // (e.g. exactly 0.999 vs a 3-nines target).
        for k in 1..=12 {
            let boundary = Nines::from_probability(probability_from_nines(k as f64));
            assert!(
                boundary.meets(k as f64),
                "exactly {k} nines must meet a {k}-nines target (nines() = {})",
                boundary.nines()
            );
        }
        assert!(Nines::from_probability(0.999).meets(3.0));
        assert!(Nines::from_probability(0.9999).meets(4.0));
        // The tolerance must not wave through genuinely lower reliability.
        assert!(!Nines::from_probability(0.999).meets(3.001));
        assert!(!Nines::from_probability(0.9989).meets(3.0));
        assert!(Nines::from_probability(1.0).meets(100.0));
        // ... including at unrepresentably deep targets, where the uncapped slack
        // formula would exceed whole nines (regression for the slack cap).
        assert!(!Nines::from_probability(0.999).meets(17.0));
        assert!(!Nines::from_probability(0.999).meets(20.0));
        let best_below_one = Nines::from_probability(f64::from_bits(1.0f64.to_bits() - 1));
        assert!(!best_below_one.meets(17.0));
    }
}
