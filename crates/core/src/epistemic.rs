//! Second-order (epistemic) uncertainty: posterior parameter draws propagated
//! through the analysis engines, and calibration diagnostics for the result.
//!
//! The first-order engines answer "given per-node fault probability `p`, what
//! reliability does this deployment have?" — but `p` is itself an estimate
//! from noisy fleet telemetry ([`fault_model::posterior`]). This module is the
//! outer loop over that parameter uncertainty:
//!
//! 1. A [`crate::engine::EpistemicBudget`] names a Beta posterior over the
//!    fault-probability *scale* (its hyperparameters typically come from
//!    `TelemetryEstimator::posterior()`) and a draw count `K`.
//! 2. [`posterior_draws`] turns it into `K` deterministic parameter draws —
//!    each an inverse-CDF sample `p_k` of the posterior and the scale factor
//!    `p_k / E[p]` that maps the query's nominal fault probabilities onto the
//!    draw (every profile is rescaled through
//!    [`fault_model::mode::FaultProfile::scaled`], preserving crash/Byzantine
//!    structure and the `[0, 1]` clamps).
//! 3. The query planner runs every draw through the cell's chosen engine via
//!    the sweep scheduler, and the per-cell merge summarizes the draws into an
//!    [`EpistemicReport`]: the **epistemic** credible interval — nearest-rank
//!    quantiles of the draw reliabilities, i.e. uncertainty from not knowing
//!    the parameters — kept separate from the **aleatoric** interval — the
//!    base cell's sampling CI, i.e. uncertainty from finite sampling at fixed
//!    parameters.
//!
//! # Determinism contract
//!
//! Draw `k`'s uniform comes from `StdRng::seed_from_u64(chunk_seed(seed ^`
//! [`EPISTEMIC_SALT`]`, k))` — the same salted chunk-seed scheme the Monte
//! Carlo chunks use, with a distinct salt so draw streams never collide with
//! sample-chunk streams. Each draw consumes exactly one uniform (inverse-CDF,
//! no rejection), so the draw set is a pure function of
//! `(hyperparameters, seed, K)` and the resulting report is bit-identical at
//! any thread count.
//!
//! # Calibration
//!
//! [`calibrate`] closes the loop: simulate a fleet whose true `p` **is**
//! known, fit the posterior from the synthetic counts, run the second-order
//! analysis, and check that the advertised credible interval covers the
//! ground-truth reliability at the advertised rate. [`CalibrationReport`]
//! carries empirical coverage and the expected calibration error over a grid
//! of levels.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fault_model::mode::FaultProfile;
use fault_model::posterior::BetaPosterior;

use crate::counting::counting_reliability;
use crate::engine::EpistemicBudget;
use crate::json::JsonValue;
use crate::montecarlo::chunk_seed;
use crate::protocol::CountingModel;

/// Seed salt of the posterior-draw RNG streams. XORed into the budget seed
/// before the per-draw `chunk_seed` split, so draw `k`'s stream can never
/// collide with Monte Carlo sample chunk `k`'s stream under the same seed.
pub const EPISTEMIC_SALT: u64 = 0x9E13_7E31_5A7E_D009;

/// One planned posterior parameter draw: the sampled probability and the scale
/// factor the engines apply to the query's nominal fault probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PosteriorDraw {
    /// The inverse-CDF sample of the Beta posterior, in `[0, 1]`.
    pub p: f64,
    /// `p / E[p]` — the multiplier applied to every fault profile of the
    /// cell's scenario (clamped inside [`fault_model::mode::FaultProfile::scaled`]).
    pub scale: f64,
}

/// The `K` deterministic parameter draws of an epistemic budget. Draw `k` uses
/// the RNG stream `chunk_seed(seed ^ EPISTEMIC_SALT, k)` and consumes exactly
/// one uniform, so the result is a pure function of the arguments — the
/// planner may recompute it anywhere without changing any report.
///
/// # Panics
///
/// Panics when the budget's hyperparameters are not finite and positive; the
/// query planner validates budgets ([`crate::engine::Budget::validate`])
/// before calling here.
pub fn posterior_draws(budget: &EpistemicBudget, seed: u64) -> Vec<PosteriorDraw> {
    let posterior = BetaPosterior::new(budget.alpha, budget.beta);
    let mean = posterior.mean();
    (0..budget.draws)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(chunk_seed(seed ^ EPISTEMIC_SALT, k as u64));
            let p = posterior.sample_p(&mut rng);
            PosteriorDraw { p, scale: p / mean }
        })
        .collect()
}

/// Nearest-rank quantile of an ascending-sorted slice.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty draw set");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// One executed posterior draw of a cell: the parameter that was drawn and the
/// reliability the engine reported under it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpistemicDraw {
    /// The drawn posterior probability (see [`PosteriorDraw::p`]).
    pub p: f64,
    /// The scale factor applied to the cell's fault profiles.
    pub scale: f64,
    /// The draw's safe-and-live probability under the cell's engine.
    pub value: f64,
    /// Lower bound of the draw's own (aleatoric) 95% sampling interval —
    /// equal to `value` when the engine is exact.
    pub lower: f64,
    /// Upper bound of the draw's aleatoric interval.
    pub upper: f64,
}

/// The second-order summary attached to a cell record when the query carried
/// an epistemic budget of two or more draws: the epistemic credible interval
/// over reliability, kept separate from the base cell's aleatoric interval.
#[derive(Debug, Clone, PartialEq)]
pub struct EpistemicReport {
    /// The credible level of the epistemic interval (the budget's `level`).
    pub level: f64,
    /// Mean of the draw reliabilities.
    pub mean: f64,
    /// Lower bound of the epistemic credible interval (nearest-rank quantile
    /// of the draw reliabilities at `(1 − level) / 2`).
    pub epistemic_lower: f64,
    /// Upper bound of the epistemic credible interval.
    pub epistemic_upper: f64,
    /// Lower bound of the base cell's aleatoric (sampling) interval — the
    /// point estimate itself when the base engine is exact.
    pub aleatoric_lower: f64,
    /// Upper bound of the base cell's aleatoric interval.
    pub aleatoric_upper: f64,
    /// Every executed draw, in draw order.
    pub draws: Vec<EpistemicDraw>,
}

impl EpistemicReport {
    /// Summarizes executed draws: mean and nearest-rank credible interval over
    /// the draw reliabilities, with the base cell's aleatoric bounds carried
    /// alongside.
    ///
    /// # Panics
    ///
    /// Panics on an empty draw set or a level outside `(0, 1)` (both are
    /// rejected earlier by [`crate::engine::Budget::validate`]).
    pub fn from_draws(level: f64, draws: Vec<EpistemicDraw>, aleatoric: (f64, f64)) -> Self {
        assert!(!draws.is_empty(), "an epistemic report needs draws");
        assert!(
            level.is_finite() && 0.0 < level && level < 1.0,
            "credible level must be in (0, 1), got {level}"
        );
        let mut values: Vec<f64> = draws.iter().map(|d| d.value).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("draw reliabilities are never NaN"));
        let tail = 0.5 * (1.0 - level);
        Self {
            level,
            mean: values.iter().sum::<f64>() / values.len() as f64,
            epistemic_lower: quantile_sorted(&values, tail),
            epistemic_upper: quantile_sorted(&values, 1.0 - tail),
            aleatoric_lower: aleatoric.0,
            aleatoric_upper: aleatoric.1,
            draws,
        }
    }

    /// Width of the epistemic credible interval.
    pub fn epistemic_width(&self) -> f64 {
        self.epistemic_upper - self.epistemic_lower
    }

    /// Width of the aleatoric sampling interval (zero for exact engines).
    pub fn aleatoric_width(&self) -> f64 {
        self.aleatoric_upper - self.aleatoric_lower
    }

    /// This report as the `"epistemic"` JSON member of a cell record.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("level".to_string(), JsonValue::number(self.level)),
            ("mean".to_string(), JsonValue::number(self.mean)),
            (
                "epistemic_lower".to_string(),
                JsonValue::number(self.epistemic_lower),
            ),
            (
                "epistemic_upper".to_string(),
                JsonValue::number(self.epistemic_upper),
            ),
            (
                "aleatoric_lower".to_string(),
                JsonValue::number(self.aleatoric_lower),
            ),
            (
                "aleatoric_upper".to_string(),
                JsonValue::number(self.aleatoric_upper),
            ),
            (
                "draws".to_string(),
                JsonValue::Array(
                    self.draws
                        .iter()
                        .map(|d| {
                            JsonValue::Object(vec![
                                ("p".to_string(), JsonValue::number(d.p)),
                                ("scale".to_string(), JsonValue::number(d.scale)),
                                ("value".to_string(), JsonValue::number(d.value)),
                                ("lower".to_string(), JsonValue::number(d.lower)),
                                ("upper".to_string(), JsonValue::number(d.upper)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Configuration of a [`calibrate`] run: a synthetic fleet whose true
/// per-node fault probability is known exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// The ground-truth per-node fault probability the synthetic fleet fails at.
    pub true_p: f64,
    /// Observations per trial (devices in the synthetic fleet). More telemetry
    /// means tighter posteriors and narrower epistemic intervals.
    pub population: u64,
    /// Posterior draws per trial (the `K` of the second-order loop).
    pub draws: usize,
    /// Independent calibration trials (each refits the posterior from fresh
    /// synthetic counts).
    pub trials: usize,
    /// The credible level whose coverage is under test (e.g. `0.9`).
    pub level: f64,
    /// Base seed; trial `t` uses the stream `chunk_seed(seed, t)`.
    pub seed: u64,
}

impl Default for CalibrationConfig {
    /// 200 trials of a 2,000-device fleet at `p = 0.05`, 200 draws each,
    /// auditing the central 90% interval.
    fn default() -> Self {
        Self {
            true_p: 0.05,
            population: 2_000,
            draws: 200,
            trials: 200,
            level: 0.9,
            seed: 0xCA11_B8A7E,
        }
    }
}

/// The grid of levels the expected calibration error averages over.
const ECE_LEVELS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];

/// The result of a [`calibrate`] run: does the advertised credible interval
/// cover the ground truth at the advertised rate?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// The audited credible level.
    pub level: f64,
    /// Trials run.
    pub trials: usize,
    /// Trials whose interval covered the ground-truth reliability.
    pub covered: usize,
    /// Empirical coverage `covered / trials` — should be close to `level` for
    /// a calibrated posterior.
    pub coverage: f64,
    /// Mean `|empirical coverage − nominal level|` over a grid of levels
    /// (0.5 … 0.95) — the scalar calibration summary.
    pub expected_calibration_error: f64,
    /// Mean epistemic interval width at `level` across trials — shrinks as
    /// `population` grows.
    pub mean_epistemic_width: f64,
}

/// Audits epistemic calibration end to end on a counting model: per trial,
/// draw synthetic failure counts at the known `true_p`, fit the Jeffreys Beta
/// posterior from those counts alone, push `draws` posterior samples through
/// the **exact** counting engine (isolating epistemic from aleatoric
/// uncertainty), and check whether the credible interval over reliability
/// covers the ground-truth reliability `counting_reliability(model, true_p)`.
///
/// Fully deterministic per `config.seed`.
///
/// # Panics
///
/// Panics when the configuration is vacuous (zero population/draws/trials, a
/// probability or level outside `(0, 1)`).
pub fn calibrate<M: CountingModel + ?Sized>(
    model: &M,
    config: &CalibrationConfig,
) -> CalibrationReport {
    assert!(
        config.population > 0 && config.draws > 0 && config.trials > 0,
        "calibration needs a non-empty fleet, draws and trials"
    );
    assert!(
        config.true_p > 0.0 && config.true_p < 1.0,
        "true_p must be in (0, 1), got {}",
        config.true_p
    );
    assert!(
        config.level > 0.0 && config.level < 1.0,
        "level must be in (0, 1), got {}",
        config.level
    );
    let n = model.num_nodes();
    let truth = counting_reliability(model, &vec![FaultProfile::crash_only(config.true_p); n])
        .p_safe_and_live;
    // Per trial: sorted draw reliabilities (kept so every ECE level reuses the
    // same draws instead of re-running the engines per level).
    let per_trial: Vec<Vec<f64>> = (0..config.trials)
        .map(|trial| {
            let mut rng = StdRng::seed_from_u64(chunk_seed(config.seed, trial as u64));
            let mut failures = 0u64;
            for _ in 0..config.population {
                if rng.gen::<f64>() < config.true_p {
                    failures += 1;
                }
            }
            let posterior = BetaPosterior::from_counts(failures, config.population - failures);
            let mut values: Vec<f64> = (0..config.draws)
                .map(|_| {
                    let p = posterior.sample_p(&mut rng);
                    counting_reliability(model, &vec![FaultProfile::crash_only(p); n])
                        .p_safe_and_live
                })
                .collect();
            values.sort_by(|a, b| a.partial_cmp(b).expect("reliabilities are never NaN"));
            values
        })
        .collect();
    let coverage_at = |level: f64| -> usize {
        let tail = 0.5 * (1.0 - level);
        per_trial
            .iter()
            .filter(|values| {
                let lo = quantile_sorted(values, tail);
                let hi = quantile_sorted(values, 1.0 - tail);
                lo <= truth && truth <= hi
            })
            .count()
    };
    let covered = coverage_at(config.level);
    let expected_calibration_error = ECE_LEVELS
        .iter()
        .map(|&level| (coverage_at(level) as f64 / config.trials as f64 - level).abs())
        .sum::<f64>()
        / ECE_LEVELS.len() as f64;
    let tail = 0.5 * (1.0 - config.level);
    let mean_epistemic_width = per_trial
        .iter()
        .map(|values| quantile_sorted(values, 1.0 - tail) - quantile_sorted(values, tail))
        .sum::<f64>()
        / config.trials as f64;
    CalibrationReport {
        level: config.level,
        trials: config.trials,
        covered,
        coverage: covered as f64 / config.trials as f64,
        expected_calibration_error,
        mean_epistemic_width,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raft_model::RaftModel;

    #[test]
    fn posterior_draws_are_deterministic_and_mean_centered() {
        let budget = EpistemicBudget::new(64, 8.5, 191.5);
        let a = posterior_draws(&budget, 42);
        let b = posterior_draws(&budget, 42);
        assert_eq!(a, b, "same budget + seed must reproduce the draws");
        let other_seed = posterior_draws(&budget, 43);
        assert_ne!(a, other_seed, "the seed must matter");
        // Scales are p / E[p]: their mean is near 1 and every p is in (0, 1).
        let mean_scale = a.iter().map(|d| d.scale).sum::<f64>() / a.len() as f64;
        assert!((mean_scale - 1.0).abs() < 0.1, "mean scale {mean_scale}");
        assert!(a.iter().all(|d| d.p > 0.0 && d.p < 1.0));
    }

    #[test]
    fn draw_streams_are_salted_away_from_chunk_streams() {
        // The first uniform of draw k must differ from the first uniform of
        // Monte Carlo chunk k under the same budget seed — that is what the
        // salt buys.
        let seed = 7;
        for k in 0..4u64 {
            let draw_u = StdRng::seed_from_u64(chunk_seed(seed ^ EPISTEMIC_SALT, k)).gen::<f64>();
            let chunk_u = StdRng::seed_from_u64(chunk_seed(seed, k)).gen::<f64>();
            assert_ne!(draw_u, chunk_u);
        }
    }

    #[test]
    fn report_separates_epistemic_from_aleatoric() {
        let draws: Vec<EpistemicDraw> = (0..100)
            .map(|i| {
                let value = 0.9 + i as f64 * 0.001;
                EpistemicDraw {
                    p: 0.05,
                    scale: 1.0,
                    value,
                    lower: value - 0.002,
                    upper: value + 0.002,
                }
            })
            .collect();
        let report = EpistemicReport::from_draws(0.9, draws, (0.947, 0.952));
        assert!((report.mean - 0.9495).abs() < 1e-9);
        // Nearest-rank 5% / 95% quantiles of 0.900..0.999.
        assert!((report.epistemic_lower - 0.904).abs() < 1e-12);
        assert!((report.epistemic_upper - 0.994).abs() < 1e-12);
        assert!((report.aleatoric_width() - 0.005).abs() < 1e-12);
        assert!(report.epistemic_width() > report.aleatoric_width());
    }

    #[test]
    fn nearest_rank_quantiles_hit_the_edges() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&values, 0.0), 1.0);
        assert_eq!(quantile_sorted(&values, 0.25), 1.0);
        assert_eq!(quantile_sorted(&values, 0.26), 2.0);
        assert_eq!(quantile_sorted(&values, 1.0), 4.0);
    }

    #[test]
    fn credible_intervals_cover_ground_truth_at_the_advertised_rate() {
        let model = RaftModel::standard(5);
        let report = calibrate(&model, &CalibrationConfig::default());
        // 200 trials at a true 90% level: binomial ±3σ is about ±0.06; leave
        // headroom so the pin survives RNG-shim changes without going blind
        // to real miscalibration.
        assert!(
            (report.coverage - 0.9).abs() < 0.08,
            "coverage {} should be near the advertised 0.9",
            report.coverage
        );
        assert!(
            report.expected_calibration_error < 0.1,
            "ECE {} too large",
            report.expected_calibration_error
        );
        assert!(report.mean_epistemic_width > 0.0);
    }

    #[test]
    fn epistemic_width_shrinks_as_telemetry_grows() {
        let model = RaftModel::standard(5);
        let small = CalibrationConfig {
            population: 500,
            trials: 50,
            ..CalibrationConfig::default()
        };
        let large = CalibrationConfig {
            population: 50_000,
            trials: 50,
            ..CalibrationConfig::default()
        };
        let small = calibrate(&model, &small);
        let large = calibrate(&model, &large);
        assert!(
            large.mean_epistemic_width < 0.5 * small.mean_epistemic_width,
            "width must shrink with telemetry volume: {} vs {}",
            large.mean_epistemic_width,
            small.mean_epistemic_width
        );
    }
}
