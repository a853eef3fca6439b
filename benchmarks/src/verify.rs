//! Deep verification: a response must equal the in-process one-shot result of
//! the same request on a fresh session (the repo's determinism contract), and
//! exact Raft cells must also equal the binomial closed form.

use std::collections::HashMap;

use prob_consensus::json::JsonValue;
use prob_consensus::optimize::optimize;
use prob_consensus::query::AnalysisSession;
use repro_server::{parse_optimize, parse_query};

/// Removes every `wall_ns` / `wall_ms` member: measured clocks are the only
/// part of a response that may differ between two runs of one request.
pub fn strip_wall(value: &mut JsonValue) {
    match value {
        JsonValue::Object(members) => {
            members.retain(|(key, _)| key != "wall_ns" && key != "wall_ms");
            members.iter_mut().for_each(|(_, v)| strip_wall(v));
        }
        JsonValue::Array(items) => items.iter_mut().for_each(strip_wall),
        _ => {}
    }
}

fn stripped(value: &JsonValue) -> String {
    let mut value = value.clone();
    strip_wall(&mut value);
    value.to_compact_string()
}

/// What a fresh session answers to one request, clocks stripped.
pub enum Reference {
    Query {
        cells: Vec<String>,
        trajectories: Vec<String>,
    },
    Optimize(String),
}

/// Runs the request of `line` one-shot on a fresh [`AnalysisSession`].
pub fn reference(line: &str) -> Result<Reference, String> {
    let request = JsonValue::parse(line).map_err(|e| format!("request is not JSON: {e}"))?;
    let session = AnalysisSession::new();
    match request.get("op").and_then(|op| op.as_str()) {
        Some("query") => {
            let spec = request
                .get("query")
                .ok_or("query request missing 'query'")?;
            let report = session
                .run(&parse_query(spec)?.query)
                .map_err(|e| format!("reference run failed: {e}"))?
                .to_json_value();
            let records = |key: &str| -> Vec<String> {
                report
                    .get(key)
                    .and_then(|v| v.as_array())
                    .map(|items| items.iter().map(stripped).collect())
                    .unwrap_or_default()
            };
            Ok(Reference::Query {
                cells: records("cells"),
                trajectories: records("trajectories"),
            })
        }
        Some("optimize") => {
            let parsed = parse_optimize(&request)?;
            let report = optimize(&session, &parsed.space, &parsed.config)
                .map_err(|e| format!("reference search failed: {e}"))?;
            Ok(Reference::Optimize(stripped(&report.to_json_value())))
        }
        other => Err(format!("no reference for op {other:?}")),
    }
}

/// P(at most `tolerated` of `n` nodes crash), each independently with
/// probability `p`: the liveness of majority-quorum Raft.
pub fn binomial_cdf(n: usize, p: f64, tolerated: usize) -> f64 {
    let mut term = (1.0 - p).powi(n as i32);
    let mut sum = term;
    for k in 0..tolerated.min(n) {
        term *= (n - k) as f64 / (k + 1) as f64 * p / (1.0 - p);
        sum += term;
    }
    sum
}

/// Checks an exact, independent, crash-only Raft cell against the closed
/// form; other cells pass.
fn check_closed_form(cell: &JsonValue) -> Result<(), String> {
    let text = |key: &str| cell.get(key).and_then(|v| v.as_str());
    let number = |key: &str| cell.get(key).and_then(|v| v.as_f64());
    let exact = cell.get("exact") == Some(&JsonValue::Bool(true));
    if !(exact && text("protocol") == Some("raft") && text("correlation") == Some("independent")) {
        return Ok(());
    }
    let (Some(n), Some(p)) = (number("nodes"), number("fault_prob")) else {
        return Ok(());
    };
    let Some(live) = cell
        .get("live")
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_f64())
    else {
        return Ok(());
    };
    let n = n as usize;
    let expected = binomial_cdf(n, p, (n - 1) / 2);
    if (live - expected).abs() <= 1e-9 {
        Ok(())
    } else {
        Err(format!(
            "raft N={n} p={p}: live {live} differs from the closed form {expected}"
        ))
    }
}

/// Compares each event line of one response with its reference.
pub fn check_lines(lines: &[String], reference: &Reference) -> Result<(), String> {
    let mut records = 0usize;
    for line in lines {
        let event = JsonValue::parse(line).map_err(|e| format!("event is not JSON: {e}"))?;
        let kind = event.get("event").and_then(|v| v.as_str()).unwrap_or("");
        let expected = match (kind, reference) {
            ("cell", Reference::Query { cells, .. }) => cells,
            ("trajectory", Reference::Query { trajectories, .. }) => trajectories,
            ("optimize", Reference::Optimize(report)) => std::slice::from_ref(report),
            ("done", _) => continue,
            (other, _) => return Err(format!("event '{other}' does not fit the request")),
        };
        let payload_key = if kind == "optimize" { "report" } else { kind };
        let payload = event
            .get(payload_key)
            .ok_or_else(|| format!("{kind} event without '{payload_key}'"))?;
        let index = match event.get("index") {
            Some(v) => v.as_f64().unwrap_or(-1.0) as usize,
            None => 0,
        };
        let expected = expected
            .get(index)
            .ok_or_else(|| format!("{kind} index {index} beyond the reference"))?;
        if &stripped(payload) != expected {
            return Err(format!(
                "{kind} {index} differs from the one-shot result:\n  got      {}\n  expected {expected}",
                stripped(payload)
            ));
        }
        if kind == "cell" {
            check_closed_form(payload)?;
        }
        records += 1;
    }
    let expected_records = match reference {
        Reference::Query {
            cells,
            trajectories,
        } => cells.len() + trajectories.len(),
        Reference::Optimize(_) => 1,
    };
    if records == expected_records {
        Ok(())
    } else {
        Err(format!(
            "{records} records streamed, the one-shot result has {expected_records}"
        ))
    }
}

/// Deep-checks kept responses, computing each distinct request's reference
/// once (requests that differ only in `id` share one). Returns the failures.
pub fn check_all<'a>(
    responses: impl Iterator<Item = (&'a str, &'a [String])>,
) -> (usize, Vec<String>) {
    let mut references: HashMap<&str, Result<Reference, String>> = HashMap::new();
    let mut checked = 0;
    let mut failures = Vec::new();
    for (line, lines) in responses {
        // `{"id":"<id>","op":...`: everything from `"op"` on identifies the work.
        let key = line.split_once("\"op\":").map_or(line, |(_, rest)| rest);
        let verdict = match references.entry(key).or_insert_with(|| reference(line)) {
            Ok(reference) => check_lines(lines, reference),
            Err(why) => Err(why.clone()),
        };
        checked += 1;
        if let Err(why) = verdict {
            failures.push(format!("{line:.80}...: {why}"));
        }
    }
    (checked, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_server::{run_exchange, Server};
    use std::sync::Arc;

    #[test]
    fn wall_members_are_stripped_at_every_depth() {
        let mut value = JsonValue::parse(
            r#"{"wall_ms":1.5,"cell":{"wall_ns":7,"safe":{"value":1}},"list":[{"wall_ns":3,"k":2}]}"#,
        )
        .unwrap();
        strip_wall(&mut value);
        assert_eq!(
            value.to_compact_string(),
            r#"{"cell":{"safe":{"value":1}},"list":[{"k":2}]}"#
        );
    }

    #[test]
    fn binomial_closed_form_matches_hand_computed_values() {
        // Raft N=3 tolerates one crash: (1-p)^3 + 3p(1-p)^2.
        let p: f64 = 0.01;
        let expected = (1.0 - p).powi(3) + 3.0 * p * (1.0 - p).powi(2);
        assert!((binomial_cdf(3, p, 1) - expected).abs() < 1e-15);
        assert!((binomial_cdf(5, 0.02, 2) - 0.9999223808).abs() < 1e-12);
        assert_eq!(binomial_cdf(4, 0.3, 4), binomial_cdf(4, 0.3, 9));
    }

    const REQUEST: &str = r#"{"id":"t","op":"query","query":{"protocols":["raft"],"nodes":[5],"fault_probs":[0.02],"correlations":["independent",{"cluster_shock":{"probability":0.02}}],"samples":500,"seed":9}}"#;

    fn response_lines() -> Vec<String> {
        let server = Arc::new(Server::new());
        run_exchange(&server, &format!("{REQUEST}\n"))
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn a_served_response_equals_its_one_shot_reference() {
        let reference = reference(REQUEST).unwrap();
        assert_eq!(check_lines(&response_lines(), &reference), Ok(()));
    }

    #[test]
    fn one_altered_response_byte_fails_verification() {
        let reference = reference(REQUEST).unwrap();
        let mut lines = response_lines();
        // Change the first fractional digit of a probability in the first line.
        let at = lines[0].find("\"value\":0.").unwrap() + "\"value\":0.".len();
        let digit = lines[0].as_bytes()[at];
        assert!(digit.is_ascii_digit());
        let altered = if digit == b'9' { b'8' } else { digit + 1 };
        lines[0].replace_range(at..=at, std::str::from_utf8(&[altered]).unwrap());
        assert!(check_lines(&lines, &reference).is_err());
        // A dropped record fails too.
        let mut lines = response_lines();
        lines.remove(0);
        assert!(check_lines(&lines, &reference).is_err());
        let (checked, failures) = check_all([(REQUEST, &lines[..])].into_iter());
        assert_eq!((checked, failures.len()), (1, 1));
    }
}
