//! Synthetic fleet telemetry and fault-curve estimation.
//!
//! The paper argues that "fault curves can be computed using the large amount of
//! telemetry that modern deployments track on a daily basis" and cites Backblaze drive
//! stats, Google/Meta silent-corruption studies and spot-eviction traces. Those datasets
//! are not redistributable, so this module provides:
//!
//! * a [`TelemetryGenerator`] producing synthetic per-device observation records with
//!   configurable per-class annual failure rates, bathtub aging and rollout-correlated
//!   failure bursts (the substitution documented in DESIGN.md), and
//! * a [`TelemetryEstimator`] recovering annual failure rates (with confidence
//!   intervals and Bayesian posteriors) from such records — the path an operator would
//!   use with real telemetry.

use rand::Rng;

use crate::metrics::HOURS_PER_YEAR;
use crate::posterior::TelemetryPosterior;

/// One device-observation record: a device of some class observed for a period, with the
/// outcome of that observation period.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Stable device identifier.
    pub device_id: u64,
    /// Device class label (e.g. manufacturer or instance type).
    pub class: String,
    /// Device age at the start of the observation period, in hours.
    pub age_at_start: f64,
    /// Length of the observation period, in hours.
    pub observed_hours: f64,
    /// Whether the device failed during the observation period.
    pub failed: bool,
    /// Whether the failure (if any) was a silent-corruption / Byzantine event rather
    /// than a fail-stop fault.
    pub byzantine: bool,
}

/// A collection of telemetry records for a fleet.
#[derive(Debug, Clone, Default)]
pub struct FleetTelemetry {
    records: Vec<TelemetryRecord>,
}

impl FleetTelemetry {
    /// Creates an empty telemetry set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a record.
    pub fn push(&mut self, record: TelemetryRecord) {
        assert!(record.observed_hours > 0.0, "observation must be non-empty");
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records restricted to one device class.
    pub fn for_class(&self, class: &str) -> FleetTelemetry {
        FleetTelemetry {
            records: self
                .records
                .iter()
                .filter(|r| r.class == class)
                .cloned()
                .collect(),
        }
    }

    /// The distinct classes present, sorted.
    pub fn classes(&self) -> Vec<String> {
        let mut classes: Vec<String> = self.records.iter().map(|r| r.class.clone()).collect();
        classes.sort();
        classes.dedup();
        classes
    }
}

/// Specification of one device class for the synthetic generator.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Class label.
    pub name: String,
    /// Number of devices of this class.
    pub population: usize,
    /// Baseline annual failure rate of the class.
    pub afr: f64,
    /// Fraction of failures that are silent-corruption / Byzantine events
    /// (the paper quotes ~0.01% absolute vs ~4% AFR, i.e. a fraction of ~0.25%).
    pub byzantine_fraction: f64,
    /// Additional probability that each device fails during a correlated rollout burst.
    pub rollout_burst_probability: f64,
}

impl ClassSpec {
    /// A convenience constructor with no Byzantine failures and no rollout bursts.
    pub fn simple(name: impl Into<String>, population: usize, afr: f64) -> Self {
        Self {
            name: name.into(),
            population,
            afr,
            byzantine_fraction: 0.0,
            rollout_burst_probability: 0.0,
        }
    }
}

/// Length of each observation period, in hours (Backblaze reports quarterly).
const OBSERVATION_HOURS: f64 = HOURS_PER_YEAR / 4.0;
/// Number of consecutive observation periods per device: one year.
const PERIODS: usize = 4;

/// Generates synthetic fleet telemetry.
#[derive(Debug, Clone)]
pub struct TelemetryGenerator {
    classes: Vec<ClassSpec>,
}

impl TelemetryGenerator {
    /// Creates a generator with quarterly observation periods over one year.
    pub fn new(classes: Vec<ClassSpec>) -> Self {
        assert!(!classes.is_empty(), "need at least one class");
        Self { classes }
    }

    /// Generates the telemetry, consuming the given RNG for reproducibility.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> FleetTelemetry {
        let mut telemetry = FleetTelemetry::new();
        let mut device_id = 0u64;
        for class in &self.classes {
            // Per-period failure probability from the annual rate.
            let rate = crate::metrics::afr_to_hourly_rate(class.afr);
            let p_period = 1.0 - (-rate * OBSERVATION_HOURS).exp();
            for _ in 0..class.population {
                device_id += 1;
                // Stagger initial ages so age-bucketed estimation sees a spread.
                let initial_age: f64 = rng.gen::<f64>() * 3.0 * HOURS_PER_YEAR;
                let mut alive = true;
                for period in 0..PERIODS {
                    if !alive {
                        break;
                    }
                    let age = initial_age + period as f64 * OBSERVATION_HOURS;
                    let mut failed = rng.gen::<f64>() < p_period;
                    // Correlated rollout burst in the second period.
                    if period == 1 && rng.gen::<f64>() < class.rollout_burst_probability {
                        failed = true;
                    }
                    let byzantine = failed && rng.gen::<f64>() < class.byzantine_fraction;
                    telemetry.push(TelemetryRecord {
                        device_id,
                        class: class.name.clone(),
                        age_at_start: age,
                        observed_hours: OBSERVATION_HOURS,
                        failed,
                        byzantine,
                    });
                    if failed {
                        alive = false;
                    }
                }
            }
        }
        telemetry
    }
}

/// An annual-failure-rate estimate with a normal-approximation confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AfrEstimate {
    /// Point estimate of the annual failure rate.
    pub afr: f64,
    /// Lower bound of the 95% confidence interval.
    pub lower: f64,
    /// Upper bound of the 95% confidence interval.
    pub upper: f64,
    /// Observed device-years backing the estimate.
    pub device_years: f64,
    /// Observed failure count.
    pub failures: usize,
}

/// Estimates fault curves and failure rates from telemetry.
#[derive(Debug, Clone, Default)]
pub struct TelemetryEstimator;

impl TelemetryEstimator {
    /// Creates an estimator.
    pub fn new() -> Self {
        Self
    }

    /// Estimates the annual failure rate of a telemetry set using the standard
    /// failures-per-device-year method with a 95% Poisson normal-approximation interval.
    ///
    /// Returns `None` when the telemetry covers no observation time.
    pub fn estimate_afr(&self, telemetry: &FleetTelemetry) -> Option<AfrEstimate> {
        let device_hours: f64 = telemetry.records().iter().map(|r| r.observed_hours).sum();
        if device_hours <= 0.0 {
            return None;
        }
        let device_years = device_hours / HOURS_PER_YEAR;
        let failures = telemetry.records().iter().filter(|r| r.failed).count();
        let rate = failures as f64 / device_years;
        let stderr = (failures.max(1) as f64).sqrt() / device_years;
        let to_afr = |annual_rate: f64| 1.0 - (-annual_rate.max(0.0)).exp();
        // Zero observed failures: the normal approximation has no spread to
        // work with, so use the rule of three — the one-sided 95% upper bound
        // on a Poisson rate with zero events over `device_years` of exposure
        // is 3/device_years. The interval stays non-degenerate however large
        // the failure-free fleet is.
        let (lower, upper) = if failures == 0 {
            (0.0, to_afr(3.0 / device_years))
        } else {
            (to_afr(rate - 1.96 * stderr), to_afr(rate + 1.96 * stderr))
        };
        Some(AfrEstimate {
            afr: to_afr(rate),
            lower,
            upper,
            device_years,
            failures,
        })
    }

    /// Fits Bayesian conjugate posteriors (Beta over failure probability,
    /// Gamma over annual failure rate, both under the Jeffreys prior) from the
    /// same counts that back [`TelemetryEstimator::estimate_afr`].
    ///
    /// Returns `None` when the telemetry covers no observation time. Unlike
    /// the point estimate, a zero-failure fleet yields a proper posterior
    /// with positive uncertainty mass — see [`crate::posterior`].
    pub fn posterior(&self, telemetry: &FleetTelemetry) -> Option<TelemetryPosterior> {
        TelemetryPosterior::from_telemetry(telemetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generate(afr: f64, population: usize, seed: u64) -> FleetTelemetry {
        let spec = ClassSpec::simple("hdd-a", population, afr);
        TelemetryGenerator::new(vec![spec]).generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn afr_estimate_recovers_generator_rate() {
        let telemetry = generate(0.04, 20_000, 11);
        let est = TelemetryEstimator::new().estimate_afr(&telemetry).unwrap();
        assert!(
            est.lower <= 0.04 && 0.04 <= est.upper,
            "interval [{}, {}] should contain 0.04",
            est.lower,
            est.upper
        );
        assert!((est.afr - 0.04).abs() < 0.01, "estimate {}", est.afr);
    }

    #[test]
    fn estimate_afr_returns_none_without_data() {
        assert!(TelemetryEstimator::new()
            .estimate_afr(&FleetTelemetry::new())
            .is_none());
        assert!(TelemetryEstimator::new()
            .posterior(&FleetTelemetry::new())
            .is_none());
    }

    /// A fleet observed for `device_years` with zero failures.
    fn failure_free(device_years: f64, devices: usize) -> FleetTelemetry {
        let mut telemetry = FleetTelemetry::new();
        let hours_each = device_years * HOURS_PER_YEAR / devices as f64;
        for id in 0..devices {
            telemetry.push(TelemetryRecord {
                device_id: id as u64,
                class: "ssd-z".into(),
                age_at_start: 0.0,
                observed_hours: hours_each,
                failed: false,
                byzantine: false,
            });
        }
        telemetry
    }

    #[test]
    fn zero_failure_fleet_gets_rule_of_three_interval() {
        let telemetry = failure_free(1_000.0, 100);
        let est = TelemetryEstimator::new().estimate_afr(&telemetry).unwrap();
        assert_eq!(est.failures, 0);
        assert_eq!(est.afr, 0.0);
        assert_eq!(est.lower, 0.0);
        // Rule of three: upper bound on the annual rate is 3/device_years.
        let expected_upper = 1.0 - (-3.0 / 1_000.0f64).exp();
        assert!(
            est.upper > est.lower,
            "interval [{}, {}] must not collapse",
            est.lower,
            est.upper
        );
        assert!(
            (est.upper - expected_upper).abs() < 1e-12,
            "upper {} vs rule-of-three {expected_upper}",
            est.upper
        );
    }

    #[test]
    fn zero_failure_posterior_is_proper() {
        let telemetry = failure_free(2_000.0, 50);
        let post = TelemetryEstimator::new().posterior(&telemetry).unwrap();
        assert_eq!(post.failures, 0);
        assert!((post.device_years - 2_000.0).abs() < 1e-9);
        // The Jeffreys posterior keeps positive mass away from zero.
        assert!(post.afr_mean() > 0.0);
        let (lo, hi) = post.afr_credible_interval(0.9);
        assert!(hi > lo, "credible interval [{lo}, {hi}] must not collapse");
        // And the upper bound is the same order as the rule-of-three bound.
        let rule_of_three = 1.0 - (-3.0 / 2_000.0f64).exp();
        assert!(hi < 2.0 * rule_of_three, "upper {hi} vs {rule_of_three}");
    }

    #[test]
    fn posterior_agrees_with_point_estimate_on_dense_telemetry() {
        let telemetry = generate(0.04, 20_000, 11);
        let estimator = TelemetryEstimator::new();
        let est = estimator.estimate_afr(&telemetry).unwrap();
        let post = estimator.posterior(&telemetry).unwrap();
        assert_eq!(post.failures, est.failures);
        assert!((post.afr_mean() - est.afr).abs() < 0.002);
        let (lo, hi) = post.afr_credible_interval(0.95);
        assert!(lo <= 0.04 && 0.04 <= hi, "interval [{lo}, {hi}]");
        // Credible and confidence intervals should roughly coincide here.
        assert!((lo - est.lower).abs() < 0.005 && (hi - est.upper).abs() < 0.005);
    }

    #[test]
    fn classes_are_separable() {
        let classes = vec![
            ClassSpec::simple("good", 5_000, 0.01),
            ClassSpec::simple("flaky", 5_000, 0.08),
        ];
        let telemetry = TelemetryGenerator::new(classes).generate(&mut StdRng::seed_from_u64(5));
        let estimator = TelemetryEstimator::new();
        let good = estimator
            .estimate_afr(&telemetry.for_class("good"))
            .unwrap();
        let flaky = estimator
            .estimate_afr(&telemetry.for_class("flaky"))
            .unwrap();
        assert!(flaky.afr > 3.0 * good.afr);
        assert_eq!(
            telemetry.classes(),
            vec!["flaky".to_string(), "good".to_string()]
        );
    }

    #[test]
    fn byzantine_fraction_estimation() {
        let spec = ClassSpec {
            name: "mercurial".into(),
            population: 20_000,
            afr: 0.10,
            byzantine_fraction: 0.2,
            rollout_burst_probability: 0.0,
        };
        let telemetry = TelemetryGenerator::new(vec![spec]).generate(&mut StdRng::seed_from_u64(9));
        // The generated failures carry the class's Byzantine share.
        let failed = telemetry.records().iter().filter(|r| r.failed);
        let (failures, byzantine) =
            failed.fold((0, 0), |(f, b), r| (f + 1, b + r.byzantine as usize));
        let frac = byzantine as f64 / failures as f64;
        assert!((frac - 0.2).abs() < 0.03, "estimated {frac}");
    }

    #[test]
    fn rollout_bursts_increase_observed_afr() {
        let base = generate(0.02, 10_000, 3);
        let bursty_spec = ClassSpec {
            name: "bursty".into(),
            population: 10_000,
            afr: 0.02,
            byzantine_fraction: 0.0,
            rollout_burst_probability: 0.05,
        };
        let bursty =
            TelemetryGenerator::new(vec![bursty_spec]).generate(&mut StdRng::seed_from_u64(3));
        let estimator = TelemetryEstimator::new();
        let afr_base = estimator.estimate_afr(&base).unwrap().afr;
        let afr_bursty = estimator.estimate_afr(&bursty).unwrap().afr;
        assert!(afr_bursty > afr_base + 0.01);
    }

    #[test]
    fn constant_rate_fit_matches_afr_estimate() {
        let telemetry = generate(0.03, 20_000, 8);
        // The constant-rate maximum-likelihood fit, failures over observed hours,
        // is the rate behind the AFR estimate.
        let hours: f64 = telemetry.records().iter().map(|r| r.observed_hours).sum();
        let failures = telemetry.records().iter().filter(|r| r.failed).count();
        let rate = failures as f64 / hours;
        let afr = TelemetryEstimator::new()
            .estimate_afr(&telemetry)
            .unwrap()
            .afr;
        assert!((crate::metrics::hourly_rate_to_afr(rate) - afr).abs() < 1e-9);
    }
}
