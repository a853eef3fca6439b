//! `compare A.json B.json`: one row per (end-to-end metric, workload), judged
//! against the bounds `BENCHMARK.json` fixes.

use prob_consensus::json::JsonValue;

use crate::stats::{median, sorted, spread};
use crate::{MetricSpec, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound, so a difference of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// The wider of the two sides' interquartile distance over median.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges B against A for one metric on one workload (values: one per run).
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Row {
    let (a, b) = (sorted(a.to_vec()), sorted(b.to_vec()));
    let (median_a, median_b) = (median(&a), median(&b));
    let spread = spread(&a).max(spread(&b));
    // By how much of A's median B is worse (negative: better).
    let worse_by = if lower_is_better {
        (median_b - median_a) / median_a
    } else {
        (median_a - median_b) / median_a
    };
    let every_b_better = match (a.first(), a.last(), b.first(), b.last()) {
        (Some(a_min), _, _, Some(b_max)) if lower_is_better => b_max < a_min,
        (_, Some(a_max), Some(b_min), _) => b_min > a_max,
        _ => false,
    };
    let verdict = if spread > bound {
        if every_b_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    Row {
        median_a,
        median_b,
        spread,
        verdict,
    }
}

/// The values of end-to-end metric `metric` on `workload`, one per run.
fn values(result: &JsonValue, workload: &str, metric: &str) -> Vec<f64> {
    result
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("runs"))
        .and_then(|r| r.as_array())
        .map(|runs| {
            runs.iter()
                .filter_map(|run| run.get("metrics")?.get(metric)?.as_f64())
                .collect()
        })
        .unwrap_or_default()
}

/// Prints the comparison; `Ok(true)` when no row is "worse".
pub fn compare(spec: &Spec, a: &JsonValue, b: &JsonValue) -> Result<bool, String> {
    println!(
        "{:<12} {:<11} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "spread", "bound"
    );
    let mut passed = true;
    for workload in &spec.workloads {
        for MetricSpec {
            name,
            unit,
            lower_is_better,
            bound,
        } in &spec.end_to_end
        {
            let (va, vb) = (values(a, workload, name), values(b, workload, name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{name}: missing from a result file"));
            }
            let row = judge(&va, &vb, *lower_is_better, *bound);
            passed &= row.verdict != Verdict::Worse;
            println!(
                "{workload:<12} {name:<11} {:>12.4} {:>12.4} {:>9.4} {:>8.4} {bound:>6.2}  {} \
                 ({unit}, {} is better; base A, {}+{} runs)",
                row.median_a,
                row.median_b,
                row.median_b / row.median_a,
                row.spread,
                row.verdict.label(),
                if *lower_is_better { "lower" } else { "higher" },
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_hand_made_runs() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let judge_lower = |b: &[f64]| judge(&base, b, true, 0.10).verdict;
        assert_eq!(judge_lower(&[104.0, 105.0, 103.0]), Verdict::WithinBound);
        assert_eq!(judge_lower(&[120.0, 121.0, 119.0]), Verdict::Worse);
        assert_eq!(judge_lower(&[80.0, 81.0, 79.0]), Verdict::Better);
        // Higher-is-better flips the direction.
        let judge_higher = |b: &[f64]| judge(&base, b, false, 0.10).verdict;
        assert_eq!(judge_higher(&[120.0, 121.0, 119.0]), Verdict::Better);
        assert_eq!(judge_higher(&[80.0, 81.0, 79.0]), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&noisy, &[130.0, 90.0, 150.0, 60.0, 100.0], true, 0.10).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 40.0, 65.0, 55.0], true, 0.10).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn single_runs_are_judged_on_their_values() {
        assert_eq!(
            judge(&[10.0], &[10.5], true, 0.10).verdict,
            Verdict::WithinBound
        );
        assert_eq!(judge(&[10.0], &[12.0], true, 0.10).verdict, Verdict::Worse);
    }

    #[test]
    fn values_come_from_each_run_of_the_workload() {
        let result = JsonValue::parse(
            r#"{"workloads":{"w":{"runs":[{"metrics":{"m":1.5}},{"metrics":{"m":2.5}}]}}}"#,
        )
        .unwrap();
        assert_eq!(values(&result, "w", "m"), vec![1.5, 2.5]);
        assert!(values(&result, "w", "other").is_empty());
    }
}
