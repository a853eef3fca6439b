//! Fault curves: per-node, time-dependent failure models.
//!
//! A fault curve captures "the unique, time-dependent fault profile of a given server"
//! (§2). Every curve exposes an instantaneous *hazard rate* (failures per hour at a given
//! device age) and, derived from it, the probability of failing at least once within a
//! mission window, which is what the analysis layer reads.

/// Trait implemented by all fault-curve shapes.
///
/// Ages and windows are expressed in hours. Implementations must return non-negative,
/// finite hazard rates for non-negative ages.
pub trait FaultCurve: Send + Sync + std::fmt::Debug {
    /// Instantaneous hazard rate (expected failures per hour) at age `t` hours.
    fn hazard(&self, t: f64) -> f64;

    /// Cumulative hazard over `[t0, t1]`, i.e. the integral of [`FaultCurve::hazard`].
    ///
    /// The default implementation integrates numerically with Simpson's rule; curves
    /// with a closed form should override it.
    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        numeric_cumulative_hazard(self, t0, t1)
    }

    /// Probability of failing at least once within `[t, t + window]`.
    fn failure_probability(&self, t: f64, window: f64) -> f64 {
        assert!(window >= 0.0, "window must be non-negative");
        1.0 - (-self.cumulative_hazard(t, t + window)).exp()
    }
}

/// Numerically integrates the hazard of `curve` over `[t0, t1]` with composite Simpson.
pub fn numeric_cumulative_hazard<C: FaultCurve + ?Sized>(curve: &C, t0: f64, t1: f64) -> f64 {
    assert!(t1 >= t0, "interval must be ordered");
    if t1 == t0 {
        return 0.0;
    }
    // 256 panels is plenty for the smooth curves used here.
    let n = 256usize;
    let h = (t1 - t0) / n as f64;
    let mut sum = curve.hazard(t0) + curve.hazard(t1);
    for i in 1..n {
        let x = t0 + i as f64 * h;
        sum += if i % 2 == 1 { 4.0 } else { 2.0 } * curve.hazard(x);
    }
    (sum * h / 3.0).max(0.0)
}

/// Constant hazard rate; the memoryless model behind the paper's per-node probability
/// `p_u` (§3 assumes "every machine u has a constant probability p_u of failing").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantCurve {
    rate: f64,
}

impl ConstantCurve {
    /// Creates a curve with hazard rate `rate` failures per hour.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be finite, >= 0");
        Self { rate }
    }

    /// Creates a curve from an annual failure rate.
    pub fn from_afr(afr: f64) -> Self {
        Self::new(crate::metrics::afr_to_hourly_rate(afr))
    }

    /// Creates a curve whose probability of failure within `window` hours equals `p`.
    pub fn from_window_probability(p: f64, window: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "probability must be in [0,1)");
        assert!(window > 0.0, "window must be positive");
        Self::new(-(1.0 - p).ln() / window)
    }

    /// The hazard rate in failures per hour.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl FaultCurve for ConstantCurve {
    fn hazard(&self, _t: f64) -> f64 {
        self.rate
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0);
        self.rate * (t1 - t0)
    }
}

/// Exponentially increasing (or decreasing) hazard: `rate0 * exp(growth * t)`.
///
/// Captures aging effects such as transistor wear-out where failure likelihood compounds
/// over time, or post-patch hardening when `growth < 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialCurve {
    rate0: f64,
    growth: f64,
}

impl ExponentialCurve {
    /// Creates a curve with initial hazard `rate0` (per hour) growing at `growth` per hour.
    pub fn new(rate0: f64, growth: f64) -> Self {
        assert!(rate0 >= 0.0 && rate0.is_finite());
        assert!(growth.is_finite());
        Self { rate0, growth }
    }
}

impl FaultCurve for ExponentialCurve {
    fn hazard(&self, t: f64) -> f64 {
        self.rate0 * (self.growth * t).exp()
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0);
        if self.growth.abs() < 1e-15 {
            return self.rate0 * (t1 - t0);
        }
        self.rate0 / self.growth * ((self.growth * t1).exp() - (self.growth * t0).exp())
    }
}

/// Weibull hazard: `(shape / scale) * (t / scale)^(shape - 1)`.
///
/// `shape < 1` models infant mortality, `shape == 1` is constant, `shape > 1` models
/// wear-out; the standard building block of disk-reliability models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullCurve {
    shape: f64,
    scale: f64,
}

impl WeibullCurve {
    /// Creates a Weibull curve with the given `shape` (k) and `scale` (λ, in hours).
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && shape.is_finite(), "shape must be positive");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        Self { shape, scale }
    }

    /// The shape parameter (k).
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter (λ), in hours.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl FaultCurve for WeibullCurve {
    fn hazard(&self, t: f64) -> f64 {
        let t = t.max(1e-9); // Avoid the singularity at t = 0 for shape < 1.
        (self.shape / self.scale) * (t / self.scale).powf(self.shape - 1.0)
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0);
        let h = |t: f64| (t.max(0.0) / self.scale).powf(self.shape);
        (h(t1) - h(t0)).max(0.0)
    }
}

/// Bathtub curve: infant-mortality Weibull + constant useful-life rate + wear-out Weibull.
///
/// Reproduces the canonical disk-failure shape described in §2: "high chance of failure
/// during the infancy and wear-out stage, but comparatively lower failure rates during
/// the useful-life stage".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BathtubCurve {
    infant: WeibullCurve,
    useful_life: ConstantCurve,
    wearout: WeibullCurve,
}

impl BathtubCurve {
    /// Creates a bathtub curve from its three components.
    pub fn new(infant: WeibullCurve, useful_life: ConstantCurve, wearout: WeibullCurve) -> Self {
        assert!(
            infant.shape() < 1.0,
            "infant-mortality component must have shape < 1"
        );
        assert!(
            wearout.shape() > 1.0,
            "wear-out component must have shape > 1"
        );
        Self {
            infant,
            useful_life,
            wearout,
        }
    }
}

impl FaultCurve for BathtubCurve {
    fn hazard(&self, t: f64) -> f64 {
        self.infant.hazard(t) + self.useful_life.hazard(t) + self.wearout.hazard(t)
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        self.infant.cumulative_hazard(t0, t1)
            + self.useful_life.cumulative_hazard(t0, t1)
            + self.wearout.cumulative_hazard(t0, t1)
    }
}

/// Piecewise-constant hazard over age intervals; the natural output of bucketed telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseCurve {
    /// Breakpoints in hours, strictly increasing; segment `i` covers
    /// `[breakpoints[i-1], breakpoints[i])` (segment 0 starts at 0).
    breakpoints: Vec<f64>,
    /// `rates.len() == breakpoints.len() + 1`; the last rate extends to infinity.
    rates: Vec<f64>,
}

impl PiecewiseCurve {
    /// Creates a piecewise-constant curve; `rates` must have exactly one more entry than
    /// `breakpoints` and `breakpoints` must be strictly increasing and non-negative.
    pub fn new(breakpoints: Vec<f64>, rates: Vec<f64>) -> Self {
        assert_eq!(
            rates.len(),
            breakpoints.len() + 1,
            "need one more rate than breakpoints"
        );
        assert!(
            breakpoints.windows(2).all(|w| w[0] < w[1]),
            "breakpoints must be strictly increasing"
        );
        assert!(
            breakpoints.iter().all(|&b| b >= 0.0),
            "breakpoints must be non-negative"
        );
        assert!(
            rates.iter().all(|&r| r >= 0.0 && r.is_finite()),
            "rates must be finite and non-negative"
        );
        Self { breakpoints, rates }
    }

    fn segment(&self, t: f64) -> usize {
        self.breakpoints.partition_point(|&b| b <= t)
    }
}

impl FaultCurve for PiecewiseCurve {
    fn hazard(&self, t: f64) -> f64 {
        self.rates[self.segment(t.max(0.0))]
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0);
        let mut total = 0.0;
        let mut start = t0.max(0.0);
        let end = t1.max(0.0);
        while start < end {
            let seg = self.segment(start);
            let seg_end = if seg < self.breakpoints.len() {
                self.breakpoints[seg].min(end)
            } else {
                end
            };
            total += self.rates[seg] * (seg_end - start);
            if seg_end <= start {
                break;
            }
            start = seg_end;
        }
        total
    }
}

/// A baseline curve with additive hazard "spikes" over fixed wall-clock windows,
/// modelling rollout-correlated risk (the CrowdStrike example in §2): during a rollout
/// window every node using this curve sees an elevated hazard.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCurve {
    base_rate: f64,
    /// `(start_hour, end_hour, extra_rate)` triples.
    spikes: Vec<(f64, f64, f64)>,
}

impl StepCurve {
    /// Creates a step curve with a constant `base_rate` hazard.
    pub fn new(base_rate: f64) -> Self {
        assert!(base_rate >= 0.0 && base_rate.is_finite());
        Self {
            base_rate,
            spikes: Vec::new(),
        }
    }

    /// Adds an elevated-hazard window (e.g. a software rollout) and returns `self`.
    pub fn with_spike(mut self, start: f64, end: f64, extra_rate: f64) -> Self {
        assert!(end > start, "spike window must be non-empty");
        assert!(extra_rate >= 0.0);
        self.spikes.push((start, end, extra_rate));
        self
    }
}

impl FaultCurve for StepCurve {
    fn hazard(&self, t: f64) -> f64 {
        let mut rate = self.base_rate;
        for &(s, e, extra) in &self.spikes {
            if t >= s && t < e {
                rate += extra;
            }
        }
        rate
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        assert!(t1 >= t0);
        let mut total = self.base_rate * (t1 - t0);
        for &(s, e, extra) in &self.spikes {
            let overlap = (t1.min(e) - t0.max(s)).max(0.0);
            total += extra * overlap;
        }
        total
    }
}

/// Hazard estimated from telemetry as piecewise-constant rates over age buckets, with a
/// fallback rate outside the observed range.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCurve {
    inner: PiecewiseCurve,
}

impl EmpiricalCurve {
    /// Builds an empirical curve from `(age_bucket_end_hours, rate)` pairs sorted by age.
    /// The final rate is reused past the last bucket.
    pub fn from_bucketed_rates(buckets: &[(f64, f64)]) -> Self {
        assert!(!buckets.is_empty(), "need at least one bucket");
        let mut breakpoints = Vec::with_capacity(buckets.len() - 1);
        let mut rates = Vec::with_capacity(buckets.len() + 1);
        for (i, &(end, rate)) in buckets.iter().enumerate() {
            rates.push(rate);
            if i + 1 < buckets.len() {
                breakpoints.push(end);
            }
        }
        // Extend the last observed rate beyond the final bucket.
        rates.push(buckets[buckets.len() - 1].1);
        breakpoints.push(buckets[buckets.len() - 1].0);
        Self {
            inner: PiecewiseCurve::new(breakpoints, rates),
        }
    }
}

impl FaultCurve for EmpiricalCurve {
    fn hazard(&self, t: f64) -> f64 {
        self.inner.hazard(t)
    }

    fn cumulative_hazard(&self, t0: f64, t1: f64) -> f64 {
        self.inner.cumulative_hazard(t0, t1)
    }
}

/// A boxed, dynamically-dispatched fault curve, for fleets mixing curve shapes.
pub type DynCurve = std::sync::Arc<dyn FaultCurve>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HOURS_PER_YEAR;

    #[test]
    fn constant_curve_window_probability_round_trips() {
        let c = ConstantCurve::from_window_probability(0.08, HOURS_PER_YEAR);
        assert!((c.failure_probability(0.0, HOURS_PER_YEAR) - 0.08).abs() < 1e-12);
        assert!((c.failure_probability(1234.0, HOURS_PER_YEAR) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn constant_curve_from_afr_matches_metrics() {
        let c = ConstantCurve::from_afr(0.04);
        assert!((c.failure_probability(0.0, HOURS_PER_YEAR) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn exponential_curve_matches_closed_form() {
        let c = ExponentialCurve::new(1e-5, 1e-4);
        let analytic = c.cumulative_hazard(0.0, 1000.0);
        let numeric = numeric_cumulative_hazard(&c, 0.0, 1000.0);
        assert!((analytic - numeric).abs() / analytic < 1e-6);
    }

    #[test]
    fn exponential_curve_with_zero_growth_is_constant() {
        let c = ExponentialCurve::new(2e-6, 0.0);
        assert!((c.cumulative_hazard(0.0, 500.0) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = WeibullCurve::new(1.0, 10_000.0);
        let c = ConstantCurve::new(1.0 / 10_000.0);
        for t in [10.0, 100.0, 5000.0] {
            assert!((w.failure_probability(0.0, t) - c.failure_probability(0.0, t)).abs() < 1e-9);
        }
    }

    #[test]
    fn weibull_wearout_hazard_increases() {
        let w = WeibullCurve::new(3.0, 50_000.0);
        assert!(w.hazard(40_000.0) > w.hazard(10_000.0));
    }

    #[test]
    fn bathtub_has_high_infant_and_wearout_hazard() {
        // A disk-like bathtub: infant mortality, ~2% useful-life AFR, and wear-out
        // kicking in after ~4 years.
        let b = BathtubCurve::new(
            WeibullCurve::new(0.5, 2.0e6),
            ConstantCurve::from_afr(0.02),
            WeibullCurve::new(3.0, 60_000.0),
        );
        let infant = b.hazard(10.0);
        let useful = b.hazard(20_000.0);
        let wearout = b.hazard(70_000.0);
        assert!(infant > useful, "infant {infant} vs useful {useful}");
        assert!(wearout > useful, "wearout {wearout} vs useful {useful}");
    }

    #[test]
    fn piecewise_cumulative_hazard_spans_segments() {
        let p = PiecewiseCurve::new(vec![100.0, 200.0], vec![0.01, 0.02, 0.03]);
        // 50h at 0.01 + 100h at 0.02 + 50h at 0.03.
        let expected = 0.5 + 2.0 + 1.5;
        assert!((p.cumulative_hazard(50.0, 250.0) - expected).abs() < 1e-9);
        assert_eq!(p.hazard(150.0), 0.02);
        assert_eq!(p.hazard(1e9), 0.03);
    }

    #[test]
    fn step_curve_spike_raises_probability_only_in_window() {
        let base = StepCurve::new(1e-6);
        let spiked = StepCurve::new(1e-6).with_spike(100.0, 110.0, 1e-2);
        assert!(spiked.failure_probability(100.0, 10.0) > base.failure_probability(100.0, 10.0));
        assert!(
            (spiked.failure_probability(200.0, 10.0) - base.failure_probability(200.0, 10.0)).abs()
                < 1e-12
        );
    }

    #[test]
    fn empirical_curve_extends_last_rate() {
        let e = EmpiricalCurve::from_bucketed_rates(&[(1000.0, 1e-5), (2000.0, 2e-5)]);
        assert!((e.hazard(500.0) - 1e-5).abs() < 1e-12);
        assert!((e.hazard(1500.0) - 2e-5).abs() < 1e-12);
        assert!((e.hazard(9000.0) - 2e-5).abs() < 1e-12);
    }
}
