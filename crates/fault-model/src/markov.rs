//! Repairable groups as birth–death reliability chains.
//!
//! §2 of the paper points at the storage community's practice of modelling a redundant
//! group as a Markov chain whose states count failed devices, with failure rates λ and
//! repair rates μ driving transitions, and deriving MTTF / MTTDL / steady-state
//! availability from it. For a group of `n` nodes that chain is a birth–death chain —
//! from `j` failed nodes only `j + 1` (rate `(n − j)λ`) and `j − 1` (rate `jμ`) are
//! reachable — so every answer here comes from its structure rather than from a
//! general generator matrix: the first-passage recurrence for the mean time to exceed a
//! tolerance, the product form for the steady state, and one uniformised step matrix
//! for the transient curve ("mean time until more than f nodes are simultaneously
//! down", the Zorfu-style analysis referenced in §5). Each sums only non-negative
//! terms, so tiny probabilities keep their relative precision.

/// Poisson terms kept past the farthest state a uniformised step can reach: with at
/// most one expected jump per step, the dropped tail of every entry is below
/// `Σ_{r≥32} 3^r / r! · e³ < 1e-18` of the entry itself. The series also stops once a
/// whole term is below the smallest normal `f64` (each term is under half the last),
/// which costs only entries below ~1e-290 their relative precision.
const TAIL_TERMS: usize = 32;

/// A repairable consensus group analysed as a birth–death chain: mean time to exceed the
/// fault threshold, unreliability over time, and steady-state availability of a quorum.
///
/// This is the §2 storage-community analysis applied to consensus: `n` nodes fail at
/// rate λ and are repaired at rate μ, each independently, and the deployment keeps its
/// quorum as long as no more than `tolerated_failures` nodes are down simultaneously.
/// The time-domain query API (`prob_consensus::query::Query::repairable_cell`) renders
/// these numbers as trajectory records.
///
/// # Examples
///
/// ```
/// use fault_model::markov::RepairableGroup;
///
/// // 5 nodes, ~1 failure per 10k hours each, 10-hour mean repair, majority quorum
/// // (tolerates 2 simultaneous failures).
/// let group = RepairableGroup::new(5, 1e-4, 0.1, 2);
/// // A healthy group starts fully reliable and degrades monotonically...
/// let curve = group.unreliability_curve(1_000.0, 101);
/// assert_eq!(curve[0], 0.0);
/// assert!(curve.windows(2).all(|w| w[0] <= w[1]));
/// // ...while repair keeps the long-run quorum availability extremely high.
/// assert!(group.steady_state_availability() > 0.999_999);
/// assert!(group.unavailability_minutes_per_year() < 1.0);
/// // Mean time until a third node is down concurrently (the MTTDL analogue).
/// assert!(group.mean_time_to_threshold_exceeded() > 1e6);
/// ```
#[derive(Debug, Clone)]
pub struct RepairableGroup {
    n: usize,
    lambda: f64,
    mu: f64,
    /// Number of simultaneous failures that the deployment can absorb (e.g. `f`, or
    /// `n - quorum_size`).
    tolerated_failures: usize,
}

impl RepairableGroup {
    /// Creates a repairable group of `n` nodes with per-node failure rate `lambda`,
    /// per-node repair rate `mu` (per hour), and a tolerance of `tolerated_failures`
    /// simultaneous failures.
    ///
    /// # Panics
    ///
    /// Panics unless `tolerated_failures < n`, both rates are non-negative, and the
    /// group's total rates `n·λ` and `n·μ` are finite.
    pub fn new(n: usize, lambda: f64, mu: f64, tolerated_failures: usize) -> Self {
        assert!(tolerated_failures < n, "tolerance must be below group size");
        assert!(lambda >= 0.0 && mu >= 0.0, "rates must be non-negative");
        assert!(
            (n as f64 * lambda).is_finite() && (n as f64 * mu).is_finite(),
            "group rates n·λ and n·μ must be finite"
        );
        Self {
            n,
            lambda,
            mu,
            tolerated_failures,
        }
    }

    /// Rate at which a group with `failed` nodes down loses one more: `(n − j)λ`.
    fn failure_rate_from(&self, failed: usize) -> f64 {
        (self.n - failed) as f64 * self.lambda
    }

    /// Rate at which a group with `failed` nodes down gets one back: `jμ`.
    fn repair_rate_from(&self, failed: usize) -> f64 {
        failed as f64 * self.mu
    }

    /// Mean time (hours) until more than the tolerated number of nodes are down
    /// simultaneously, starting from a fully healthy group. This is the consensus
    /// analogue of MTTDL.
    ///
    /// The first-passage recurrence: the mean time `τ_j` to go from `j` to `j + 1`
    /// failed nodes is `(1 + d_j τ_{j−1}) / b_j`, and the answer is `Σ_{j≤k} τ_j`.
    /// Every term is non-negative and none exceeds the sum, so the result is infinite
    /// only when λ = 0 (the threshold is unreachable) or it exceeds `f64::MAX`.
    pub fn mean_time_to_threshold_exceeded(&self) -> f64 {
        if self.lambda == 0.0 {
            return f64::INFINITY;
        }
        let mut tau = 0.0;
        let mut total = 0.0;
        for failed in 0..=self.tolerated_failures {
            let up = self.failure_rate_from(failed);
            tau = 1.0 / up + self.repair_rate_from(failed) / up * tau;
            total += tau;
        }
        total
    }

    /// The long-run probability masses `(available, unavailable)` — at most and more
    /// than the tolerated number of nodes down — unnormalised.
    ///
    /// The product form `π_i ∝ C(n, i)·(λ/μ)^i`, walked outwards from its mode so that
    /// no weight exceeds one and nothing overflows at any group size.
    fn steady_state_masses(&self) -> (f64, f64) {
        if self.lambda == 0.0 {
            return (1.0, 0.0);
        }
        if self.mu == 0.0 {
            // Nothing is repaired: every node eventually fails and stays down.
            return (0.0, 1.0);
        }
        let (n, k) = (self.n, self.tolerated_failures);
        let ratio = self.lambda / self.mu;
        let p = self.lambda / (self.lambda + self.mu);
        let mode = (((n + 1) as f64 * p).floor() as usize).min(n);
        let (mut available, mut unavailable) = (0.0, 0.0);
        let mut add = |failed: usize, weight: f64| {
            if failed <= k {
                available += weight;
            } else {
                unavailable += weight;
            }
        };
        add(mode, 1.0);
        let mut weight = 1.0;
        for i in mode..n {
            weight *= (n - i) as f64 * ratio / (i + 1) as f64;
            add(i + 1, weight);
        }
        weight = 1.0;
        for i in (1..=mode).rev() {
            weight *= i as f64 / ((n - i + 1) as f64 * ratio);
            add(i - 1, weight);
        }
        (available, unavailable)
    }

    /// Steady-state probability that at most the tolerated number of nodes are down,
    /// i.e. the long-run availability of the quorum.
    pub fn steady_state_availability(&self) -> f64 {
        let (available, unavailable) = self.steady_state_masses();
        available / (available + unavailable)
    }

    /// Number of nodes in the group.
    pub fn group_size(&self) -> usize {
        self.n
    }

    /// Number of simultaneous failures the group tolerates.
    pub fn tolerated_failures(&self) -> usize {
        self.tolerated_failures
    }

    /// Per-node failure rate λ (events per hour).
    pub fn failure_rate(&self) -> f64 {
        self.lambda
    }

    /// Per-node repair rate μ (events per hour).
    pub fn repair_rate(&self) -> f64 {
        self.mu
    }

    /// The unreliability `1 − R(t)` — the probability that more than the tolerated
    /// number of nodes have been down at once by `t` — at `t = 0, step, 2·step, …`,
    /// `points` values, starting from a fully healthy group. Its complement `R(t)` is
    /// the reliability function whose mean is
    /// [`RepairableGroup::mean_time_to_threshold_exceeded`].
    ///
    /// Over-threshold states are absorbing, and the curve is the absorbed mass. One
    /// step matrix `e^{Q·step}` over the `k + 1` live states and the absorbed mass is
    /// built per call — uniformisation at a substep with at most one expected jump,
    /// then squared up to `step` — and applied once per point: `O(k³ log(Λ·step))`
    /// once plus `O(k²)` per point, whatever the horizon. The absorbed mass is only
    /// ever a sum of non-negative terms, so values far below `1e-16` keep their
    /// relative precision and the curve never decreases; it is capped at one.
    ///
    /// # Panics
    ///
    /// Panics unless `step_hours` is finite and positive, and, when `points > 1`,
    /// unless the expected number of transitions per step is finite.
    pub fn unreliability_curve(&self, step_hours: f64, points: usize) -> Vec<f64> {
        assert!(
            step_hours > 0.0 && step_hours.is_finite(),
            "step must be finite and positive, got {step_hours}"
        );
        let mut curve = vec![0.0; points.min(1)];
        if points > 1 {
            let live = self.tolerated_failures + 1;
            let (step, absorb) = self.step_matrix(step_hours);
            let mut distribution = vec![0.0; live];
            distribution[0] = 1.0;
            let mut absorbed = 0.0;
            for _ in 1..points {
                absorbed += dot(&distribution, &absorb);
                distribution = vector_times(&distribution, &step, live);
                // Rounding leaves the step's rows a few ULPs off conserving mass, so
                // a fully absorbed running sum may end just above one.
                curve.push(absorbed.min(1.0));
            }
        }
        curve
    }

    /// `e^{Q·hours}` restricted to the live states (row-major, `live × live`), and the
    /// probability that each live state is absorbed within `hours`.
    fn step_matrix(&self, hours: f64) -> (Vec<f64>, Vec<f64>) {
        let live = self.tolerated_failures + 1;
        let up: Vec<f64> = (0..live).map(|j| self.failure_rate_from(j)).collect();
        let down: Vec<f64> = (0..live).map(|j| self.repair_rate_from(j)).collect();
        let uniform = (0..live).map(|j| up[j] + down[j]).fold(0.0, f64::max);
        // An infinite product would saturate the squaring count below.
        assert!(
            (uniform * hours).is_finite(),
            "expected transitions per step overflow: rate {uniform} over {hours} h"
        );
        let stay: Vec<f64> = (0..live).map(|j| uniform - (up[j] + down[j])).collect();
        let squarings = (uniform * hours).log2().ceil().max(0.0) as i32;
        let substep = hours * 2f64.powi(-squarings);
        // Uniformisation: e^{QΔ} = Σ_m e^{−ΛΔ} (ΛΔ)^m / m! · P^m with P = I + Q/Λ ≥ 0.
        // `term` holds the m-th summand; one product with the tridiagonal P reaches
        // one state farther, so the farthest entry (state 0 to absorption) first
        // appears at m = live.
        let mut term = vec![0.0; live * live];
        let mut term_absorb = vec![0.0; live];
        let first = (-uniform * substep).exp();
        for j in 0..live {
            term[j * live + j] = first;
        }
        let mut step = term.clone();
        let mut absorb = term_absorb.clone();
        let mut next = vec![0.0; live * live];
        for m in 1..=live + TAIL_TERMS {
            let scale = substep / m as f64;
            for (slot, row) in term_absorb.iter_mut().zip(term.chunks_exact(live)) {
                *slot = (*slot * uniform + row[live - 1] * up[live - 1]) * scale;
            }
            for (row, out) in term.chunks_exact(live).zip(next.chunks_exact_mut(live)) {
                for ((o, r), s) in out.iter_mut().zip(row).zip(&stay) {
                    *o = r * s;
                }
                for ((o, r), u) in out[1..].iter_mut().zip(row).zip(&up) {
                    *o += r * u;
                }
                for ((o, r), d) in out.iter_mut().zip(&row[1..]).zip(&down[1..]) {
                    *o += r * d;
                }
                out.iter_mut().for_each(|o| *o *= scale);
            }
            std::mem::swap(&mut term, &mut next);
            add_into(&mut step, &term);
            add_into(&mut absorb, &term_absorb);
            if term
                .iter()
                .chain(&term_absorb)
                .all(|&v| v < f64::MIN_POSITIVE)
            {
                break;
            }
        }
        // [[S, a], [0, 1]]² = [[S², S·a + a], [0, 1]]. Rounding leaves each row of the
        // square a little off conserving mass, and further squarings would double
        // that defect every time — a drift in the decay rate that grows with the
        // horizon. Rescaling the live part of each row to `1 − a_i` (the absorbed
        // column stays a sum of non-negative terms) keeps the decay as exact as `a`.
        for _ in 0..squarings {
            absorb = (0..live)
                .map(|i| absorb[i] + dot(&step[i * live..(i + 1) * live], &absorb))
                .collect();
            step = step
                .chunks_exact(live)
                .flat_map(|row| vector_times(row, &step, live))
                .collect();
            for (row, a) in step.chunks_exact_mut(live).zip(&absorb) {
                let kept: f64 = row.iter().sum();
                if kept > 0.0 {
                    let scale = (1.0 - a).max(0.0) / kept;
                    row.iter_mut().for_each(|v| *v *= scale);
                }
            }
        }
        (step, absorb)
    }

    /// Long-run expected minutes per year during which the quorum is unavailable
    /// (more than the tolerated number of nodes down): the steady-state tail mass
    /// scaled to operator units, summed directly rather than as one minus
    /// [`RepairableGroup::steady_state_availability`].
    pub fn unavailability_minutes_per_year(&self) -> f64 {
        let (available, unavailable) = self.steady_state_masses();
        unavailable / (available + unavailable) * crate::metrics::HOURS_PER_YEAR * 60.0
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn add_into(sum: &mut [f64], term: &[f64]) {
    for (s, t) in sum.iter_mut().zip(term) {
        *s += t;
    }
}

/// The row vector `v · M` for a row-major `len × len` matrix `M`.
fn vector_times(v: &[f64], matrix: &[f64], len: usize) -> Vec<f64> {
    let mut out = vec![0.0; len];
    for (&weight, row) in v.iter().zip(matrix.chunks_exact(len)) {
        if weight != 0.0 {
            for (o, m) in out.iter_mut().zip(row) {
                *o += weight * m;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const HOURS_PER_YEAR: f64 = crate::metrics::HOURS_PER_YEAR;

    fn unreliability_at(group: &RepairableGroup, t_hours: f64) -> f64 {
        group.unreliability_curve(t_hours, 2)[1]
    }

    fn assert_relative(got: f64, want: f64, tolerance: f64, what: &str) {
        assert!(
            (got - want).abs() <= tolerance * want.abs(),
            "{what}: got {got:e}, want {want:e}"
        );
    }

    /// The birth–death closed forms, computed independently of the recurrence:
    /// `T = Σ_{j≤k} (Σ_{i≤j} π_i) / (b_j π_j)` with the product-form ratios
    /// `π_i / π_j = Π_{m=i}^{j−1} d_{m+1} / b_m`, and the binomial tail mass.
    fn closed_forms(n: usize, lambda: f64, mu: f64, k: usize) -> (f64, f64) {
        let b = |j: usize| (n - j) as f64 * lambda;
        let d = |j: usize| j as f64 * mu;
        let mut mttf = 0.0;
        for j in 0..=k {
            let mut ratio = 1.0;
            let mut mass = 1.0;
            for i in (0..j).rev() {
                ratio *= d(i + 1) / b(i);
                mass += ratio;
            }
            mttf += mass / b(j);
        }
        let rho = lambda / mu;
        let mut binomial = 1.0;
        let (mut tail, mut total) = (0.0, 0.0);
        for i in 0..=n {
            let weight = binomial * rho.powi(i as i32);
            total += weight;
            if i > k {
                tail += weight;
            }
            binomial = binomial * (n - i) as f64 / (i + 1) as f64;
        }
        (mttf, tail / total)
    }

    /// `1 − R(t)` by uniformisation over the killed chain at its own rate (1.5 times
    /// the largest exit rate), weighting the absorbed mass after `m` jumps by the
    /// Poisson probability of `m` jumps: every term is non-negative.
    fn reference_unreliability(group: &RepairableGroup, t: f64) -> f64 {
        let (n, lambda, mu, k) = (group.n, group.lambda, group.mu, group.tolerated_failures);
        let b = |j: usize| (n - j) as f64 * lambda;
        let d = |j: usize| j as f64 * mu;
        let uniform = 1.5 * (0..=k).map(|j| b(j) + d(j)).fold(0.0, f64::max);
        let x = uniform * t;
        let mode = x.floor() as usize;
        let last = mode + (40.0 * x.sqrt()) as usize + k + 80;
        let first = mode.saturating_sub((40.0 * x.sqrt()) as usize);
        // Poisson weights relative to the mode's, normalised at the end.
        let mut weights = vec![0.0; last + 1];
        weights[mode] = 1.0;
        for m in mode + 1..=last {
            weights[m] = weights[m - 1] * x / m as f64;
        }
        for m in (first..mode).rev() {
            weights[m] = weights[m + 1] * (m + 1) as f64 / x;
        }
        let mut live = vec![0.0; k + 1];
        live[0] = 1.0;
        let mut absorbed = 0.0;
        let mut weighted = 0.0;
        for weight in &weights {
            weighted += weight * absorbed;
            absorbed += live[k] * b(k) / uniform;
            let mut next = vec![0.0; k + 1];
            for j in 0..=k {
                next[j] += live[j] * (uniform - b(j) - d(j)) / uniform;
                if j > 0 {
                    next[j - 1] += live[j] * d(j) / uniform;
                }
                if j < k {
                    next[j + 1] += live[j] * b(j) / uniform;
                }
            }
            live = next;
        }
        weighted / weights.iter().sum::<f64>()
    }

    #[test]
    fn single_component_mttf_is_inverse_rate() {
        // One node, no repair: the threshold is its first failure.
        let mttf = RepairableGroup::new(1, 0.01, 0.0, 0).mean_time_to_threshold_exceeded();
        assert!((mttf - 100.0).abs() < 1e-9);
    }

    #[test]
    fn unreachable_absorbing_state_has_infinite_hitting_time() {
        let group = RepairableGroup::new(3, 0.0, 0.1, 1);
        assert!(group.mean_time_to_threshold_exceeded().is_infinite());
        assert_eq!(group.steady_state_availability(), 1.0);
        assert_eq!(group.unreliability_curve(1e6, 3), vec![0.0; 3]);
    }

    #[test]
    fn two_component_series_mttf() {
        // Two independent nodes failing at rate λ, absorbing when either fails:
        // MTTF = 1 / (2λ).
        let mttf = RepairableGroup::new(2, 0.001, 0.0, 0).mean_time_to_threshold_exceeded();
        assert!((mttf - 500.0).abs() < 1e-6);
    }

    #[test]
    fn repair_extends_time_to_double_failure() {
        // Classic RAID-1 result: MTTDL from a healthy pair = (3λ + μ) / (2 λ^2); with
        // μ >> λ repair helps a lot.
        let lambda = 1e-4;
        let mu = 1e-1;
        let without = RepairableGroup::new(2, lambda, 0.0, 1).mean_time_to_threshold_exceeded();
        let with = RepairableGroup::new(2, lambda, mu, 1).mean_time_to_threshold_exceeded();
        let analytic = (3.0 * lambda + mu) / (2.0 * lambda * lambda);
        assert!(
            (with - analytic).abs() / analytic < 1e-6,
            "{with} vs {analytic}"
        );
        assert!(with > 100.0 * without);
    }

    #[test]
    fn steady_state_of_single_repairable_component() {
        // Availability μ/(λ+μ) = 0.9.
        let group = RepairableGroup::new(1, 1.0, 9.0, 0);
        assert!((group.steady_state_availability() - 0.9).abs() < 1e-12);
        let down = group.unavailability_minutes_per_year() / (HOURS_PER_YEAR * 60.0);
        assert!((down - 0.1).abs() < 1e-12);
    }

    #[test]
    fn steady_state_availability_improves_with_faster_repair() {
        let slow = RepairableGroup::new(3, 1e-3, 1e-2, 1).steady_state_availability();
        let fast = RepairableGroup::new(3, 1e-3, 1.0, 1).steady_state_availability();
        assert!(fast > slow);
        assert!(fast > 0.99999);
    }

    #[test]
    fn mean_time_to_threshold_scales_with_group_size() {
        // Larger groups with the same tolerance hit the threshold sooner.
        let small = RepairableGroup::new(3, 1e-4, 1e-2, 1).mean_time_to_threshold_exceeded();
        let large = RepairableGroup::new(9, 1e-4, 1e-2, 1).mean_time_to_threshold_exceeded();
        assert!(small > large);
    }

    #[test]
    fn closed_forms_match_at_every_size_and_tolerance() {
        for (lambda, mu) in [(1e-4, 0.1), (1e-3, 1e-2), (0.5, 0.1), (2e-5, 0.0)] {
            for n in 1..=64 {
                for k in 0..n {
                    let group = RepairableGroup::new(n, lambda, mu, k);
                    let (mttf, tail) = closed_forms(n, lambda, mu, k);
                    let what = format!("n={n} k={k} λ={lambda} μ={mu}");
                    let got = group.mean_time_to_threshold_exceeded();
                    assert_relative(got, mttf, 1e-12, &format!("MTTF {what}"));
                    let minutes = group.unavailability_minutes_per_year();
                    let tail = if mu == 0.0 { 1.0 } else { tail };
                    let got = minutes / (HOURS_PER_YEAR * 60.0);
                    assert_relative(got, tail, 1e-12, &format!("tail {what}"));
                }
            }
        }
    }

    #[test]
    fn majority_tolerance_mttf_is_finite_where_it_once_was_not() {
        for (n, k, want) in [
            (15, 7, 1.974101e20),
            (21, 10, 2.634971e27),
            (64, 32, 1.819668e80),
        ] {
            let got = RepairableGroup::new(n, 1e-4, 0.1, k).mean_time_to_threshold_exceeded();
            assert_relative(got, want, 5e-7, &format!("n={n} k={k}"));
        }
    }

    #[test]
    fn unreliability_matches_exponential_decay() {
        // One component failing at rate λ with no repair: 1 − R(t) = 1 − exp(−λt).
        let lambda = 0.01;
        let group = RepairableGroup::new(1, lambda, 0.0, 0);
        for t in [1e-6, 1.0, 50.0, 100.0, 1_000.0, 100_000.0] {
            let u = unreliability_at(&group, t);
            assert_relative(u, -(-lambda * t).exp_m1(), 1e-12, &format!("t={t}"));
            let expected = (-lambda * t).exp();
            assert!((1.0 - u - expected).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn unreliability_at_zero_is_zero() {
        let curve = RepairableGroup::new(3, 5.0, 5.0, 1).unreliability_curve(1.0, 1);
        assert_eq!(curve, vec![0.0]);
        assert!(RepairableGroup::new(3, 5.0, 5.0, 1)
            .unreliability_curve(1.0, 0)
            .is_empty());
    }

    #[test]
    fn unreliability_matches_a_non_cancelling_reference() {
        // (n, k, λ, μ, step, points): majority and minority tolerances, values from
        // ~1e-20 up to ~1, repair from none to fast.
        let cases = [
            (31, 15, 1e-3, 0.1, HOURS_PER_YEAR, 2),
            (15, 7, 1e-4, 0.1, HOURS_PER_YEAR / 4.0, 9),
            (32, 31, 1e-3, 0.01, 2_000.0, 6),
            (9, 4, 1e-4, 0.1, 6.0, 40),
            (5, 2, 1e-2, 0.05, 100.0, 30),
            (20, 3, 2e-3, 0.0, 50.0, 20),
            (2, 1, 1e-3, 1e-2, 0.01, 5),
        ];
        for (n, k, lambda, mu, step, points) in cases {
            let group = RepairableGroup::new(n, lambda, mu, k);
            let curve = group.unreliability_curve(step, points);
            for (i, &u) in curve.iter().enumerate().skip(1) {
                let t = i as f64 * step;
                let want = reference_unreliability(&group, t);
                assert!(want > 0.0, "n={n} k={k} t={t}: reference underflowed");
                assert_relative(u, want, 1e-9, &format!("n={n} k={k} t={t}"));
            }
        }
        // The deep tail the old `1 − R` lost entirely.
        let group = RepairableGroup::new(31, 1e-3, 0.1, 15);
        assert_relative(unreliability_at(&group, 8_766.0), 3.0519e-20, 1e-4, "n=31");
    }

    #[test]
    fn reliability_curve_is_monotone_and_anchored_at_one() {
        let group = RepairableGroup::new(3, 1e-3, 1e-2, 1);
        let curve = group.unreliability_curve(10_000.0, 11);
        assert_eq!(curve[0], 0.0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        // Eventually the threshold is exceeded almost surely (repair only delays it).
        assert!(unreliability_at(&group, 1e8) > 1.0 - 1e-3);
    }

    #[test]
    fn long_axes_absorb_fully_without_leaving_the_unit_interval() {
        // Rounding leaves each live row of the step matrix a little off conserving
        // mass; over tens of thousands of points the running absorbed sum can end
        // above one. (n, k, λ, μ, step): each of these ended 1e-15 to 2e-13 above one
        // unclamped, the first three without squarings, the last two with them.
        for (n, k, lambda, mu, step) in [
            (2, 1, 1e-3, 0.0, 2.0),
            (5, 2, 2e-4, 0.0, 2.0),
            (5, 2, 1e-3, 0.0, 10.0),
            (2, 1, 2e-4, 1e-2, 100.0),
            (3, 1, 2e-3, 0.1, 20.0),
        ] {
            let curve = RepairableGroup::new(n, lambda, mu, k).unreliability_curve(step, 40_000);
            let what = format!("n={n} k={k} step={step}");
            assert!(curve.iter().all(|u| (0.0..=1.0).contains(u)), "{what}");
            assert!(curve.windows(2).all(|w| w[0] <= w[1]), "{what}");
            assert!(curve[curve.len() - 1] > 1.0 - 1e-12, "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "group rates")]
    fn group_rates_must_be_finite() {
        RepairableGroup::new(200, 1e306, 0.1, 2);
    }

    #[test]
    #[should_panic(expected = "transitions per step overflow")]
    fn transitions_per_step_must_be_finite() {
        // Finite rates, but ~1e310 expected jumps per step: the squaring count
        // would saturate instead of ending.
        RepairableGroup::new(1, 1e300, 0.0, 0).unreliability_curve(1e10, 2);
    }

    #[test]
    fn astronomical_horizons_match_the_mirrored_pair_closed_form() {
        // A mirrored pair's killed chain has two decay rates r_s < r_f, the roots of
        // r² − (3λ + μ) r + 2λ² = 0, and R(t) = (r_f e^{−r_s t} − r_s e^{−r_f t}) /
        // (r_f − r_s). A 1e11-hour axis is ~1e7 expected jumps per step.
        let (lambda, mu) = (1e-6f64, 0.1);
        let sum = 3.0 * lambda + mu;
        let fast = 0.5 * (sum + (sum * sum - 8.0 * lambda * lambda).sqrt());
        let slow = 2.0 * lambda * lambda / fast;
        let step = 1e11 / 1_023.0;
        let curve = RepairableGroup::new(2, lambda, mu, 1).unreliability_curve(step, 1_024);
        for (i, &u) in curve.iter().enumerate().skip(1) {
            let t = i as f64 * step;
            let want = (fast * -(-slow * t).exp_m1() + slow * (-fast * t).exp_m1()) / (fast - slow);
            assert_relative(u, want, 1e-9, &format!("point {i}"));
        }
    }

    #[test]
    fn repair_lifts_the_reliability_curve() {
        let t = 5_000.0;
        let without = unreliability_at(&RepairableGroup::new(3, 1e-3, 0.0, 1), t);
        let with = unreliability_at(&RepairableGroup::new(3, 1e-3, 0.1, 1), t);
        assert!(with < without, "repair must help: {with} vs {without}");
    }

    #[test]
    fn reliability_mean_is_consistent_with_first_passage_time() {
        // ∫ R(t) dt = MTTF; check the trapezoid integral against the recurrence.
        let group = RepairableGroup::new(2, 1e-3, 1e-2, 1);
        let mttf = group.mean_time_to_threshold_exceeded();
        let step = mttf / 2_000.0;
        // Integrate far enough that the tail is negligible.
        let curve = group.unreliability_curve(step, 24_001);
        let integral: f64 = curve
            .windows(2)
            .map(|w| (1.0 - 0.5 * (w[0] + w[1])) * step)
            .sum();
        assert!(
            (integral - mttf).abs() / mttf < 0.01,
            "∫R = {integral} vs MTTF = {mttf}"
        );
    }

    #[test]
    fn unavailability_minutes_match_the_steady_state_complement() {
        let group = RepairableGroup::new(5, 1e-3, 1e-2, 2);
        let expected = (1.0 - group.steady_state_availability()) * HOURS_PER_YEAR * 60.0;
        assert_relative(
            group.unavailability_minutes_per_year(),
            expected,
            1e-9,
            "n=5",
        );
        // No repair: every node ends up down.
        let unrepaired = RepairableGroup::new(5, 1e-3, 0.0, 2);
        assert_eq!(unrepaired.steady_state_availability(), 0.0);
        assert_eq!(
            unrepaired.unavailability_minutes_per_year(),
            HOURS_PER_YEAR * 60.0
        );
    }

    #[test]
    fn group_accessors_expose_the_configuration() {
        let group = RepairableGroup::new(5, 1e-4, 0.1, 2);
        assert_eq!(group.group_size(), 5);
        assert_eq!(group.tolerated_failures(), 2);
        assert!((group.failure_rate() - 1e-4).abs() < 1e-18);
        assert!((group.repair_rate() - 0.1).abs() < 1e-15);
    }

    proptest! {
        #[test]
        fn reliability_is_non_increasing_along_any_axis(
            n in 1usize..24,
            k_frac in 0.0..1.0f64,
            log_lambda in -6.0..0.0f64,
            log_mu in -5.0..1.0f64,
            log_step in -3.0..7.0f64,
            points in 1usize..64,
        ) {
            let k = ((n as f64 * k_frac) as usize).min(n - 1);
            // The lowest tenth of the repair range stands for no repair at all.
            let mu = if log_mu < -4.4 { 0.0 } else { 10f64.powf(log_mu) };
            let (lambda, step) = (10f64.powf(log_lambda), 10f64.powf(log_step));
            let curve = RepairableGroup::new(n, lambda, mu, k).unreliability_curve(step, points);
            prop_assert_eq!(curve.len(), points);
            prop_assert_eq!(curve[0], 0.0);
            prop_assert!(curve.windows(2).all(|w| w[0] <= w[1]), "{:?}", curve);
            prop_assert!(curve.iter().all(|&u| u <= 1.0), "{:?}", curve);
        }
    }
}
