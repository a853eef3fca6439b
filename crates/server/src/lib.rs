//! Analysis-as-a-service: the long-running front end behind `repro serve`.
//!
//! The paper's pitch is operational — operators ask "what reliability does this
//! deployment give?" continuously as telemetry shifts, not once per offline run.
//! This crate keeps one
//! [`AnalysisSession`](prob_consensus::query::AnalysisSession) (and therefore
//! one scratch cache of compiled packed kernels, counting results, selector
//! pilots and learned IS proposals) alive across requests and exposes it over a
//! newline-delimited JSON protocol on stdio or TCP.
//!
//! # Protocol
//!
//! One JSON object per line in each direction. Requests:
//!
//! ```text
//! {"id":"q1","op":"query","query":{"protocols":["raft"],"nodes":[5],"fault_probs":[0.02]}}
//! {"id":"q2","op":"query","query":{"protocols":["raft"],"nodes":[5],"fault_probs":[0.02],
//!                                  "posterior":{"draws":200,"alpha":8.5,"beta":191.5}}}
//! {"id":"o1","op":"optimize","space":{"instances":[{"name":"spot","fault_probability":0.08,
//!                                                   "hourly_cost":0.10}],
//!                                     "nodes":[3,5,7],"target":{"protocol":"raft"}},
//!                            "config":{"target_nines":3.0}}
//! {"id":"s1","op":"stats"}
//! {"id":"bye","op":"shutdown"}
//! ```
//!
//! **One grammar.** Every object on the wire, the request envelope included,
//! is read by one strict reader, which also words every rejection:
//!
//! - an unknown or repeated key is rejected at every level;
//! - a one-variant object (`{"raft_flexible":{..}}`, `{"cluster_shock":{..}}`,
//!   `{"logspace":{..}}`, `{"uniform_crash":{..}}`, the optimize `target`, …)
//!   has exactly one member;
//! - sizes stay within the plan limits of [`prob_consensus::query`]
//!   (`MAX_NODES`, `MAX_AXIS_LEN`, `MAX_CELLS`, `MAX_SAMPLES`,
//!   `MAX_POSTERIOR_DRAWS`, `MAX_TIME_POINTS`), checked when the query is
//!   planned — or while it is read, for what reading allocates (a deployment,
//!   a `logspace` axis).
//!
//! A `posterior` member turns the query second-order: every cell re-runs under
//! `draws` deterministic Beta(`alpha`, `beta`) posterior draws and its record
//! gains an `epistemic` object separating the parameter-uncertainty credible
//! interval from the sampling interval (optional `level`, default 0.9; see
//! `prob_consensus::epistemic`).
//!
//! Responses are events tagged with the request `id`. A query streams one
//! `cell` / `trajectory` event per record *as it completes* (unspecified order;
//! every event carries its query-order `index`), then a `done` summary:
//!
//! ```text
//! {"id":"q1","event":"cell","index":0,"cell":{...}}
//! {"id":"q1","event":"done","cells":1,"trajectories":0,"wall_ms":2.1}
//! {"id":"o1","event":"optimize","report":{"target_nines":3,"frontier":[...],...}}
//! {"id":"o1","event":"done","frontier":1,"evaluated":3,"wall_ms":1.4}
//! {"id":"s1","event":"stats","cache":{...},"queries_completed":1,...}
//! {"id":"bye","event":"shutdown"}
//! ```
//!
//! An `optimize` request runs the deployment optimizer
//! ([`prob_consensus::optimize::optimize`]) against the shared session — its
//! per-candidate scratch (pilots, IS proposals, packed kernels) lands in the
//! same cache queries use, keyed by content like every query cell. The
//! `space` object takes `instances` (name, `fault_probability`, optional
//! `byzantine_probability`, `hourly_cost`), `nodes`, an optional `domains`
//! object (`racks`, `shock_probability`) with `placements`
//! (`"same-rack"` / `"cross-rack"`), and a `target` (`{"protocol":...}` as in
//! queries, or `{"quorum_size":k}` for durability). The `config` object takes
//! `target_nines` plus optional `screen_samples`, `refine_samples`, `seed`,
//! `rare_event_threshold` and `repair` (`mttr_hours`, `mission_hours`). The
//! response is one `optimize` event carrying the full report (Pareto frontier
//! plus every evaluated candidate), then a `done` summary.
//!
//! Queries submitted before a previous one finishes run **concurrently** on the
//! shared worker pool (each plan is submitted as an owned task; its work items
//! interleave with every other plan's). `shutdown` drains in-flight queries
//! before the final event is written. Every malformed line, rejected request
//! and failed plan produces one `error` event and never takes the connection
//! down.
//!
//! # Output path
//!
//! Producers never touch a socket. Each connection has one `Outbox`: an event
//! is rendered as one compact line and appended to its buffer under its lock,
//! and one writer thread per TCP / stdio connection swaps the buffer out and
//! writes whatever accumulated in a single call. The batching window is the
//! writer's wake-up plus its previous write — no timer, no size threshold — so
//! the first event of a long sweep leaves as soon as it exists, and the events
//! of a fast response leave together. TCP streams run with `TCP_NODELAY`: a
//! response is small writes followed by a read, the pattern on which Nagle's
//! algorithm waits for the peer's delayed ACK (measured: 44 ms per request).
//! A peer that stops reading is cut off, not waited for: past
//! `TCP_WRITE_TIMEOUT` without progress, or `MAX_OUTBOX_BYTES` queued, the
//! connection is declared dead, its socket shut down and its further events
//! dropped. The `stats` event's `wire` object counts events, writes and bytes
//! handed to peers.
//!
//! The streamed cell records are produced by the same execution path as the
//! one-shot CLI (`QueryPlan::execute_streaming`), so a streamed report
//! re-assembled by index is byte-identical to a one-shot run of the same query
//! (modulo the measured `wall_ns` fields).

mod exchange;
mod transport;
mod wire;

pub use exchange::{Server, ServerStats};
pub use transport::{run_exchange, serve_stdio, serve_tcp};
pub use wire::{parse_optimize, parse_query, ParsedOptimize, ParsedQuery};

#[cfg(test)]
mod tests {
    use std::io::BufReader;
    use std::sync::Arc;

    use prob_consensus::json::JsonValue;
    use prob_consensus::optimize::TargetSpec;
    use prob_consensus::query::{AnalysisSession, ProtocolSpec};

    use super::*;
    use crate::transport::{emit, serve_connection, Outbox, MAX_REQUEST_LINE_BYTES};
    use crate::wire::read_request;

    /// Events of one exchange, parsed line by line.
    fn events(output: &str) -> Vec<JsonValue> {
        output
            .lines()
            .map(|line| JsonValue::parse(line).expect("every output line is one JSON object"))
            .collect()
    }

    pub(crate) fn events_for<'a>(
        events: &'a [JsonValue],
        id: &str,
        kind: &str,
    ) -> Vec<&'a JsonValue> {
        events
            .iter()
            .filter(|e| {
                e.get("id").and_then(|v| v.as_str()) == Some(id)
                    && e.get("event").and_then(|v| v.as_str()) == Some(kind)
            })
            .collect()
    }

    /// Recursively zeroes every measured `wall_ns` member so two runs of the
    /// same query compare byte-identically.
    fn zero_wall_ns(value: &mut JsonValue) {
        match value {
            JsonValue::Object(members) => {
                for (key, member) in members {
                    if key == "wall_ns" {
                        *member = JsonValue::number(0.0);
                    } else {
                        zero_wall_ns(member);
                    }
                }
            }
            JsonValue::Array(items) => items.iter_mut().for_each(zero_wall_ns),
            _ => {}
        }
    }

    pub(crate) const MIXED_QUERY: &str = r#"{"protocols":["raft","pbft"],"nodes":[4,7],"fault_probs":[0.01,0.05],"samples":20000,"seed":7,"cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[0,1,2]}},"deployment":{"uniform_crash":{"n":8,"p":0.02}}}],"repairable_cells":[{"label":"repairable-5","n":5,"lambda":1e-4,"mu":0.1,"tolerated_failures":2}]}"#;

    /// Builds the same query through the library front door.
    fn mixed_query_library() -> ParsedQuery {
        parse_query(&JsonValue::parse(MIXED_QUERY).unwrap()).expect("fixture parses")
    }

    #[test]
    fn streamed_cells_reassemble_into_the_one_shot_report() {
        let server = Arc::new(Server::new());
        let input = format!(
            "{{\"id\":\"q1\",\"op\":\"query\",\"query\":{MIXED_QUERY}}}\n{{\"id\":\"bye\",\"op\":\"shutdown\"}}\n"
        );
        let output = run_exchange(&server, &input);
        let events = events(&output);

        // One-shot reference run of the identical query on a fresh session.
        let reference = AnalysisSession::new()
            .run(&mixed_query_library().query)
            .expect("reference run succeeds");
        let expected = reference.to_json_value();
        let expected_cells = expected.get("cells").unwrap().as_array().unwrap();
        let expected_trajectories = expected.get("trajectories").unwrap().as_array().unwrap();

        let done = events_for(&events, "q1", "done");
        assert_eq!(done.len(), 1, "exactly one done event: {output}");
        assert_eq!(
            done[0].get("cells").unwrap().as_f64().unwrap() as usize,
            expected_cells.len()
        );
        assert!(done[0].get("wall_ms").unwrap().as_f64().unwrap() > 0.0);

        let cell_events = events_for(&events, "q1", "cell");
        assert_eq!(cell_events.len(), expected_cells.len());
        let mut seen = vec![false; expected_cells.len()];
        for event in cell_events {
            let index = event.get("index").unwrap().as_f64().unwrap() as usize;
            assert!(
                !std::mem::replace(&mut seen[index], true),
                "index {index} emitted twice"
            );
            let mut streamed = event.get("cell").unwrap().clone();
            let mut expected_cell = expected_cells[index].clone();
            zero_wall_ns(&mut streamed);
            zero_wall_ns(&mut expected_cell);
            // Byte-identical serialization, not just structural equality.
            assert_eq!(
                streamed.to_compact_string(),
                expected_cell.to_compact_string(),
                "cell {index} differs from the one-shot run"
            );
        }

        let trajectory_events = events_for(&events, "q1", "trajectory");
        assert_eq!(trajectory_events.len(), expected_trajectories.len());
        for event in trajectory_events {
            let index = event.get("index").unwrap().as_f64().unwrap() as usize;
            assert_eq!(
                event.get("trajectory").unwrap().to_compact_string(),
                expected_trajectories[index].to_compact_string()
            );
        }

        // The shutdown acknowledgment is the last line (drain before ack).
        let last = events.last().unwrap();
        assert_eq!(last.get("event").unwrap().as_str(), Some("shutdown"));
        assert_eq!(last.get("id").unwrap().as_str(), Some("bye"));
    }

    #[test]
    fn concurrent_queries_all_complete_and_match() {
        let server = Arc::new(Server::new());
        // Two copies of the same plan plus a distinct one, all submitted before
        // any finishes; the shared cache must not corrupt either result.
        let other =
            r#"{"protocols":["raft"],"nodes":[9],"fault_probs":[0.02],"samples":30000,"seed":11}"#;
        let input = format!(
            "{{\"id\":\"a\",\"op\":\"query\",\"query\":{MIXED_QUERY}}}\n\
             {{\"id\":\"b\",\"op\":\"query\",\"query\":{other}}}\n\
             {{\"id\":\"c\",\"op\":\"query\",\"query\":{MIXED_QUERY}}}\n\
             {{\"id\":\"bye\",\"op\":\"shutdown\"}}\n"
        );
        let output = run_exchange(&server, &input);
        let events = events(&output);
        for id in ["a", "b", "c"] {
            assert_eq!(
                events_for(&events, id, "done").len(),
                1,
                "query {id}: {output}"
            );
            assert!(
                events_for(&events, id, "error").is_empty(),
                "query {id} errored"
            );
        }
        // The identical plans a and c stream byte-identical cells (the cache
        // shares their scratch; determinism survives the interleaving).
        let collect = |id: &str| -> Vec<String> {
            let mut cells: Vec<(usize, String)> = events_for(&events, id, "cell")
                .iter()
                .map(|e| {
                    let mut cell = e.get("cell").unwrap().clone();
                    zero_wall_ns(&mut cell);
                    (
                        e.get("index").unwrap().as_f64().unwrap() as usize,
                        cell.to_compact_string(),
                    )
                })
                .collect();
            cells.sort();
            cells.into_iter().map(|(_, cell)| cell).collect()
        };
        assert_eq!(collect("a"), collect("c"));
    }

    #[test]
    fn stats_request_reports_cache_counters_and_wall_time() {
        let server = Arc::new(Server::new());
        let input = format!(
            "{{\"id\":\"q\",\"op\":\"query\",\"query\":{MIXED_QUERY}}}\n\
             {{\"id\":\"bye\",\"op\":\"shutdown\"}}\n"
        );
        run_exchange(&server, &input);
        // The connection drained before returning, so stats on a second
        // connection see the completed plan.
        let output = run_exchange(&server, "{\"id\":\"s\",\"op\":\"stats\"}\n");
        let events = events(&output);
        let stats = events_for(&events, "s", "stats");
        assert_eq!(stats.len(), 1);
        let cache = stats[0].get("cache").unwrap();
        assert!(cache.get("misses").unwrap().as_f64().unwrap() > 0.0);
        assert!(cache.get("entries").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            stats[0].get("queries_completed").unwrap().as_f64().unwrap(),
            1.0
        );
        assert!(
            stats[0]
                .get("plan_wall_ms")
                .unwrap()
                .get("total")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        // A repeated identical query is the dominant server workload: it must
        // hit the warm cache.
        run_exchange(
            &server,
            &format!("{{\"id\":\"q2\",\"op\":\"query\",\"query\":{MIXED_QUERY}}}\n"),
        );
        assert!(server.session().cache_stats().hits > 0);
    }

    #[test]
    fn oversized_request_lines_error_and_close_cleanly() {
        let server = Arc::new(Server::new());
        // A request line one byte over the cap, with a well-formed query queued
        // behind it: the oversized line produces an `error` event and closes the
        // connection — the trailing request is never read.
        let mut input = String::new();
        input.push_str("{\"id\":\"big\",\"op\":\"query\",\"query\":{\"pad\":\"");
        input.push_str(&"x".repeat(MAX_REQUEST_LINE_BYTES + 1 - input.len()));
        input.push_str("\nafter-the-close not json\n");
        let output = run_exchange(&server, &input);
        let emitted = events(&output);
        assert_eq!(emitted.len(), 1, "exactly one event, got: {output}");
        assert_eq!(
            emitted[0].get("event").and_then(|v| v.as_str()),
            Some("error")
        );
        let message = emitted[0]
            .get("message")
            .and_then(|v| v.as_str())
            .expect("error events carry a message");
        assert!(message.contains("exceeds"), "{message}");
        // A line at exactly the cap is still served (the error it draws is the
        // parser's, not the reader's — proving the read path let it through).
        let mut exact = String::from("{\"id\":\"fits\",\"op\":\"nope\"");
        exact.push_str(&" ".repeat(MAX_REQUEST_LINE_BYTES - exact.len() - 1));
        exact.push('}');
        assert_eq!(exact.len(), MAX_REQUEST_LINE_BYTES);
        exact.push('\n');
        let output = run_exchange(&server, &exact);
        let emitted = events(&output);
        assert_eq!(emitted.len(), 1);
        assert_eq!(
            emitted[0].get("id").and_then(|v| v.as_str()),
            Some("fits"),
            "{output}"
        );
    }

    /// A reader that yields some lines, then fails like a TCP read timeout.
    struct TimingOutReader {
        data: std::io::Cursor<Vec<u8>>,
        timed_out: bool,
    }

    impl std::io::Read for TimingOutReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.data.read(buf)?;
            if n == 0 {
                if self.timed_out {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "simulated read timeout",
                    ));
                }
                self.timed_out = true;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "simulated read timeout",
                ));
            }
            Ok(n)
        }
    }

    #[test]
    fn read_timeouts_error_and_close_cleanly() {
        // A connection that answers one request and then goes silent past the
        // read timeout: the timeout becomes an `error` event and a clean close
        // (Ok(false) — not an IO failure, not a shutdown), after the completed
        // query's events have all streamed.
        let server = Arc::new(Server::new());
        let reader = BufReader::new(TimingOutReader {
            data: std::io::Cursor::new(
                b"{\"id\":\"q\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01]}}\n"
                    .to_vec(),
            ),
            timed_out: false,
        });
        let outbox = Arc::new(Outbox::new(usize::MAX, None));
        let shutdown = serve_connection(&server, reader, &outbox)
            .expect("a read timeout is not an IO failure");
        assert!(!shutdown);
        let output = outbox.take();
        let events = events(&output);
        assert_eq!(events_for(&events, "q", "done").len(), 1, "{output}");
        let timeouts: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("event").and_then(|v| v.as_str()) == Some("error")
                    && e.get("message")
                        .and_then(|v| v.as_str())
                        .is_some_and(|m| m.contains("timed out"))
            })
            .collect();
        assert_eq!(timeouts.len(), 1, "{output}");
    }

    #[test]
    fn a_non_utf8_request_line_is_one_error_event_and_the_next_line_is_served() {
        // The bad line was read whole, so nothing needs resyncing: it draws one
        // `error` event and the connection goes on to the next request.
        let server = Arc::new(Server::new());
        let outbox = Arc::new(Outbox::new(usize::MAX, None));
        let input: &[u8] = b"\xff\xfe\n{\"id\":\"s\",\"op\":\"stats\"}\n";
        let shutdown = serve_connection(&server, input, &outbox).expect("no IO failure");
        assert!(!shutdown);
        let output = outbox.take();
        let events = events(&output);
        assert_eq!(events.len(), 2, "{output}");
        assert_eq!(events[0].get("id"), Some(&JsonValue::Null), "{output}");
        assert_eq!(
            events[0].get("event").and_then(|v| v.as_str()),
            Some("error")
        );
        let message = events[0].get("message").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains("not UTF-8"), "{message}");
        assert_eq!(events_for(&events, "s", "stats").len(), 1, "{output}");
    }

    #[test]
    fn blank_lines_draw_nothing_and_a_final_unterminated_line_is_served() {
        // Empty and whitespace-only lines are skipped without an event, and a
        // last request with no `\n` before EOF is still answered.
        let server = Arc::new(Server::new());
        let output = run_exchange(&server, "\n   \n\t \r\n{\"id\":\"s\",\"op\":\"stats\"}");
        let events = events(&output);
        assert_eq!(events.len(), 1, "{output}");
        assert_eq!(events_for(&events, "s", "stats").len(), 1, "{output}");
    }

    #[test]
    fn malformed_requests_produce_error_events_not_crashes() {
        let server = Arc::new(Server::new());
        let input = "not json at all\n\
                     {\"id\":\"x\",\"op\":\"frobnicate\"}\n\
                     {\"id\":\"y\",\"op\":\"query\"}\n\
                     {\"id\":\"z\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01],\"unknown_axis\":1}}\n\
                     {\"id\":\"w\",\"op\":\"query\",\"query\":{\"protocols\":[{\"raft_flexible\":{\"q_per\":9,\"q_vc\":9}}],\"nodes\":[3],\"fault_probs\":[0.01]}}\n\
                     {\"id\":\"p\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01],\"posterior\":{\"draws\":0,\"alpha\":3.5,\"beta\":60}}}\n\
                     {\"id\":\"h\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01],\"posterior\":{\"draws\":8,\"alpha\":-1,\"beta\":60}}}\n\
                     {\"id\":\"ok\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01]}}\n\
                     {\"id\":\"bye\",\"op\":\"shutdown\"}\n";
        let output = run_exchange(&server, input);
        let events = events(&output);
        // Six failures, each its own error event...
        assert_eq!(events_for(&events, "x", "error").len(), 1);
        assert_eq!(events_for(&events, "y", "error").len(), 1);
        assert_eq!(events_for(&events, "z", "error").len(), 1);
        assert_eq!(events_for(&events, "w", "error").len(), 1, "{output}");
        // Malformed posterior budgets reach plan-time validation instead of
        // panicking a worker: zero draws and bad hyperparameters each draw a
        // diagnosable error event.
        for (id, needle) in [("p", "draws"), ("h", "hyperparameters")] {
            let errors = events_for(&events, id, "error");
            assert_eq!(errors.len(), 1, "{output}");
            let message = errors[0].get("message").unwrap().as_str().unwrap();
            assert!(message.contains(needle), "{message}");
        }
        // ...and the well-formed query after them still runs to completion.
        assert_eq!(events_for(&events, "ok", "done").len(), 1);
        assert_eq!(events_for(&events, "ok", "cell").len(), 1);
    }

    #[test]
    fn an_overlong_time_axis_is_an_error_event_not_an_abort() {
        // 1e12 hours at 0.001-hour steps is 1e15 sample times: 8e15 bytes on the
        // worker running the repairable cell, an allocation failure that aborts
        // the process. Planning must refuse the axis as one error event, and the
        // connection must go on to serve the next line.
        let server = Arc::new(Server::new());
        let input = "{\"id\":\"long\",\"op\":\"query\",\"query\":{\"time_axis\":{\"horizon_hours\":1e12,\"step_hours\":0.001},\"repairable_cells\":[{\"label\":\"r\",\"n\":5,\"lambda\":1e-4,\"mu\":0.1,\"tolerated_failures\":2}]}}\n\
                     {\"id\":\"ok\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01]}}\n";
        let output = run_exchange(&server, input);
        let events = events(&output);
        let long: Vec<_> = events
            .iter()
            .filter(|e| e.get("id").and_then(|v| v.as_str()) == Some("long"))
            .collect();
        assert_eq!(long.len(), 1, "{output}");
        assert_eq!(long[0].get("event").and_then(|v| v.as_str()), Some("error"));
        let message = long[0].get("message").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains("sample times"), "{message}");
        assert_eq!(events_for(&events, "ok", "done").len(), 1, "{output}");
    }

    /// Sends `request` (with id `bad`) and then a well-formed query on one
    /// connection: `bad` draws exactly one event, an error containing
    /// `needle`, and the next line is still served.
    fn rejected_then_served(request: &str, needle: &str) {
        let server = Arc::new(Server::new());
        let ok = r#"{"id":"ok","op":"query","query":{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01]}}"#;
        let output = run_exchange(&server, &format!("{request}\n{ok}\n"));
        let events = events(&output);
        let bad: Vec<_> = events
            .iter()
            .filter(|e| e.get("id").and_then(|v| v.as_str()) == Some("bad"))
            .collect();
        assert_eq!(bad.len(), 1, "{output}");
        assert_eq!(bad[0].get("event").and_then(|v| v.as_str()), Some("error"));
        let message = bad[0].get("message").and_then(|v| v.as_str()).unwrap();
        assert!(message.contains(needle), "{message}");
        assert_eq!(events_for(&events, "ok", "done").len(), 1, "{output}");
    }

    fn bad_query(body: &str) -> String {
        format!(r#"{{"id":"bad","op":"query","query":{body}}}"#)
    }

    // The four requests below each aborted the process on an allocation it
    // could not make (4e9 draws, 3e9 nodes, 4e9 logspace points, a 200 000-node
    // repairable group's step matrix): an abort is not a panic, so no
    // `catch_unwind` sees it.

    #[test]
    fn oversized_posteriors_are_an_error_event_not_an_abort() {
        rejected_then_served(
            &bad_query(
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"posterior":{"draws":4000000000,"alpha":2,"beta":50}}"#,
            ),
            "epistemic.draws must be at most 4096",
        );
    }

    #[test]
    fn oversized_clusters_are_an_error_event_not_an_abort() {
        rejected_then_served(
            &bad_query(r#"{"protocols":["raft"],"nodes":[3000000000],"fault_probs":[0.01]}"#),
            "nodes must be at most 4096",
        );
    }

    #[test]
    fn oversized_logspace_axes_are_an_error_event_not_an_abort() {
        rejected_then_served(
            &bad_query(
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":{"logspace":{"lo":1e-4,"hi":1e-1,"count":4000000000}}}"#,
            ),
            "'count' must be a non-negative integer in [1, 4096]",
        );
    }

    #[test]
    fn fault_probs_outside_the_unit_interval_are_reader_errors() {
        // Each of these reached the fault-profile constructor's assert inside
        // `plan`, which answered only because the panic unwound.
        for fault_probs in [
            "[1.5]",
            "[-0.5]",
            r#"{"logspace":{"lo":0.5,"hi":4,"count":3}}"#,
        ] {
            rejected_then_served(
                &bad_query(&format!(
                    r#"{{"protocols":["raft"],"nodes":[3],"fault_probs":{fault_probs}}}"#
                )),
                "query: 'fault_probs' must be a probability in [0, 1]",
            );
        }
    }

    #[test]
    fn oversized_repairable_groups_are_an_error_event_not_an_abort() {
        rejected_then_served(
            &bad_query(
                r#"{"repairable_cells":[{"label":"r","n":200000,"lambda":1e-4,"mu":0.1,"tolerated_failures":2}]}"#,
            ),
            "repairable n must be at most 4096",
        );
    }

    #[test]
    fn overflowing_repairable_rates_are_an_error_event_not_a_hang() {
        // 200·1e306 overflows, and 1e300 over a 1e10-hour step is an infinite
        // number of expected jumps: either would saturate the step matrix's
        // squaring count and keep a worker busy for good.
        rejected_then_served(
            &bad_query(
                r#"{"repairable_cells":[{"label":"r","n":200,"lambda":1e306,"mu":0.1,"tolerated_failures":2}]}"#,
            ),
            "group rates n·λ and n·μ must be finite",
        );
        rejected_then_served(
            &bad_query(
                r#"{"time_axis":{"horizon_hours":1e11,"step_hours":1e10},"repairable_cells":[{"label":"r","n":1,"lambda":1e300,"mu":0,"tolerated_failures":0}]}"#,
            ),
            "transitions per step overflow",
        );
    }

    #[test]
    fn majority_tolerance_repairable_groups_answer_finite_exact_numbers() {
        // A 15-node group tolerating 7 failures: its mean time to an 8th
        // concurrent failure is ~2e20 hours, and its long-run unavailability and
        // early unreliability sit far below 1e-16.
        let server = Arc::new(Server::new());
        let input = r#"{"id":"r","op":"query","query":{"repairable_cells":[{"label":"r","n":15,"lambda":1e-4,"mu":0.1,"tolerated_failures":7}]}}"#;
        let output = run_exchange(&server, &format!("{input}\n"));
        let events = events(&output);
        let trajectories = events_for(&events, "r", "trajectory");
        assert_eq!(trajectories.len(), 1, "{output}");
        let record = trajectories[0].get("trajectory").unwrap();
        let number = |key: &str| record.get(key).and_then(|v| v.as_f64());
        let mttf = number("mean_time_to_threshold_hours").expect("a finite MTTF");
        // 1.974101e20 to the printed digits; the birth–death closed form.
        let expected = 1.974_101_244_289_675_8e20;
        assert!((mttf - expected).abs() <= 1e-9 * expected, "{mttf:e}");
        let minutes = number("unavailability_minutes_per_year").unwrap();
        assert!(minutes > 0.0 && minutes < 1e-12, "{minutes:e}");
        let points: Vec<f64> = record
            .get("points")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|p| p.get("probability").and_then(|v| v.as_f64()).unwrap())
            .collect();
        assert_eq!(points.len(), 21);
        assert!(points.windows(2).all(|w| w[1] <= w[0]), "{points:?}");
    }

    #[test]
    fn misread_requests_are_each_one_error_event() {
        for (body, needle) in MISREAD_QUERIES {
            rejected_then_served(&bad_query(body), needle);
        }
        let (request, needle) = MISREAD_TARGET;
        let request = format!(r#"{{"id":"bad","op":"optimize",{}"#, &request[1..]);
        rejected_then_served(&request, needle);
        rejected_then_served(r#"{"id":"bad","op":"stats","extra":1}"#, "'extra'");
    }

    #[test]
    fn constructor_asserts_while_reading_are_error_events_not_crashes() {
        // Cell models and deployments are built as the request is read; a
        // quorum larger than the cell, or fault probabilities summing past one,
        // trip their constructors' asserts.
        rejected_then_served(
            &bad_query(
                r#"{"cells":[{"label":"c","model":{"raft_flexible":{"q_per":9,"q_vc":9}},"deployment":{"uniform_crash":{"n":3,"p":0.01}}}]}"#,
            ),
            "Q_per",
        );
        rejected_then_served(
            &bad_query(
                r#"{"cells":[{"label":"c","model":"pbft","deployment":{"uniform_mixed":{"n":4,"crash":0.6,"byzantine":0.6}}}]}"#,
            ),
            "must not exceed 1",
        );
        // Grid models and profiles are built by `plan`, past the reader, so
        // the reader refuses what their constructors would assert.
        rejected_then_served(
            &bad_query(
                r#"{"protocols":[{"raft_flexible":{"q_per":2,"q_vc":5}}],"nodes":[9,3],"fault_probs":[0.01]}"#,
            ),
            "raft_flexible: 'q_vc' must be a non-negative integer in [1, 3], got 5 for 3 nodes",
        );
        rejected_then_served(
            &bad_query(
                r#"{"protocols":["pbft"],"nodes":[4],"fault_probs":[0.01,0.9],"faults":{"mixed":{"byzantine":0.3}}}"#,
            ),
            "query: crash + byzantine must not exceed 1 (got 1.2)",
        );
    }

    #[test]
    fn posterior_queries_stream_epistemic_cells() {
        let server = Arc::new(Server::new());
        let query = r#"{"protocols":["raft"],"nodes":[5],"fault_probs":[0.05],"seed":5,"posterior":{"draws":16,"alpha":3.5,"beta":60.0,"level":0.9}}"#;
        let input = format!(
            "{{\"id\":\"q\",\"op\":\"query\",\"query\":{query}}}\n{{\"id\":\"bye\",\"op\":\"shutdown\"}}\n"
        );
        let output = run_exchange(&server, &input);
        let emitted = events(&output);
        let cells = events_for(&emitted, "q", "cell");
        assert_eq!(cells.len(), 1, "{output}");
        let streamed = cells[0].get("cell").unwrap();
        let epistemic = streamed
            .get("epistemic")
            .expect("second-order cells carry an epistemic member");
        let lower = epistemic.get("epistemic_lower").unwrap().as_f64().unwrap();
        let upper = epistemic.get("epistemic_upper").unwrap().as_f64().unwrap();
        assert!(lower < upper, "epistemic interval must be non-degenerate");
        assert_eq!(
            epistemic.get("draws").unwrap().as_array().unwrap().len(),
            16
        );
        // Byte-identical to the one-shot library run of the same query.
        let reference = AnalysisSession::new()
            .run(
                &parse_query(&JsonValue::parse(query).unwrap())
                    .expect("fixture parses")
                    .query,
            )
            .expect("reference run succeeds")
            .to_json_value();
        let mut expected = reference.get("cells").unwrap().as_array().unwrap()[0].clone();
        let mut streamed = streamed.clone();
        zero_wall_ns(&mut streamed);
        zero_wall_ns(&mut expected);
        assert_eq!(
            streamed.to_compact_string(),
            expected.to_compact_string(),
            "streamed second-order cell differs from the one-shot run"
        );
        // The stats surface counts the second-order work.
        let stats_output = run_exchange(&server, "{\"id\":\"s\",\"op\":\"stats\"}\n");
        let stats_events = events(&stats_output);
        let stats = events_for(&stats_events, "s", "stats");
        assert_eq!(stats.len(), 1);
        assert_eq!(
            stats[0].get("epistemic_cells").unwrap().as_f64().unwrap(),
            1.0
        );
        assert_eq!(
            stats[0].get("posterior_draws").unwrap().as_f64().unwrap(),
            16.0
        );
    }

    #[test]
    fn over_deep_nesting_is_an_error_event_not_a_stack_overflow() {
        // ROADMAP item 3's live crash: 500 000 brackets fit the 1 MiB line cap
        // and used to recurse the parser off the stack, aborting the process.
        let server = Arc::new(Server::new());
        let input = format!(
            "{{\"id\":1,\"op\":\"query\",\"query\":{}}}\n\
             {{\"id\":2,\"op\":\"query\",\"query\":{}}}\n\
             {{\"id\":\"ok\",\"op\":\"query\",\"query\":{{\"protocols\":[\"raft\"],\"nodes\":[3],\"fault_probs\":[0.01]}}}}\n",
            "[".repeat(500_000),
            "{\"a\":".repeat(150_000),
        );
        let output = run_exchange(&server, &input);
        let events = events(&output);
        let errors: Vec<_> = events
            .iter()
            .filter(|e| e.get("event").and_then(|v| v.as_str()) == Some("error"))
            .collect();
        assert_eq!(errors.len(), 2, "one error event per deep line: {output}");
        for error in errors {
            let message = error.get("message").unwrap().as_str().unwrap();
            assert!(message.contains("nesting"), "{message}");
        }
        assert_eq!(events_for(&events, "ok", "done").len(), 1, "{output}");
        assert_eq!(events.len(), 4, "{output}");
    }

    #[test]
    fn outbox_over_its_limit_declares_the_peer_dead_and_drops_events() {
        // No writer drains this outbox, as with a peer that stopped reading.
        let outbox = Outbox::new(64, None);
        let line = JsonValue::string("x".repeat(30));
        for _ in 0..2 {
            emit(&outbox, &line);
            assert!(!outbox.is_dead());
        }
        // 66 bytes wait, over the limit: the next event finds the peer dead.
        emit(&outbox, &line);
        assert!(outbox.is_dead());
        emit(&outbox, &line);
        assert_eq!(outbox.take(), "");
        // An empty outbox takes one event of any size.
        let outbox = Outbox::new(64, None);
        emit(&outbox, &JsonValue::string("x".repeat(1000)));
        assert!(!outbox.is_dead());
        assert_eq!(outbox.take().len(), 1003);
    }

    /// Query bodies a reader that skips what it does not know would answer as
    /// if they were valid, each with a needle of its rejection.
    const MISREAD_QUERIES: [(&str, &str); 9] = [
        (
            r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"metrics":{"safe_and_liv":false}}"#,
            "unknown metrics key 'safe_and_liv'",
        ),
        (
            r#"{"time_axis":{"horizon_hours":100,"step_hours":10,"window_hour":50},"repairable_cells":[{"label":"r","n":3,"lambda":1e-3,"mu":0.1,"tolerated_failures":1}]}"#,
            "unknown time_axis key 'window_hour'",
        ),
        (
            r#"{"cells":[{"label":"c","model":"raft","deployment":{"uniform_crash":{"n":3,"p":0.01,"byzantine":0.01}}}]}"#,
            "unknown uniform_crash key 'byzantine'",
        ),
        (
            r#"{"cells":[{"label":"c","model":"raft","deployment":{"uniform_crash":{"n":3,"p":0.01}},"colour":"red"}]}"#,
            "unknown cell key 'colour'",
        ),
        (
            r#"{"protocols":[{"raft_flexible":{"q_per":2,"q_vc":2,"q_typo":3}}],"nodes":[3],"fault_probs":[0.01]}"#,
            "unknown raft_flexible key 'q_typo'",
        ),
        (
            r#"{"protocols":["raft"],"nodes":[3],"fault_probs":{"logspace":{"lo":1e-3,"hi":1e-1,"count":3,"base":10}}}"#,
            "unknown logspace key 'base'",
        ),
        (
            r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"faults":{"mixed":{"byzantine":0.01,"crash":0.02}}}"#,
            "unknown mixed faults key 'crash'",
        ),
        (
            r#"{"repairable_cells":[{"label":"r","n":3,"lambda":1e-3,"mu":0.1,"tolerated_failures":1,"extra":1}]}"#,
            "unknown repairable cell key 'extra'",
        ),
        (
            r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"correlations":[{"rack_shock":{"racks":2,"probability":0.01},"cluster_shock":{"probability":0.01}}]}"#,
            "correlation must have exactly one member",
        ),
    ];

    /// The optimize misreading: a target naming both kinds of target.
    const MISREAD_TARGET: (&str, &str) = (
        r#"{"space":{"instances":[],"nodes":[3],"target":{"protocol":"raft","quorum_size":2}},"config":{"target_nines":3.0}}"#,
        "target must have exactly one member",
    );

    /// A query using every member the grammar accepts.
    const FULL_QUERY: &str = r#"{"protocols":["raft",{"raft_flexible":{"q_per":4,"q_vc":3}},"pbft"],
        "nodes":[4,7],
        "fault_probs":{"logspace":{"lo":1e-4,"hi":1e-1,"count":4}},
        "faults":{"mixed":{"byzantine":0.001}},
        "correlations":["independent",{"cluster_shock":{"probability":0.01}},{"rack_shock":{"racks":3,"probability":0.02}}],
        "samples":5000,"seed":9,"samples_sweep":[1000,5000],
        "posterior":{"draws":4,"alpha":2.5,"beta":60,"level":0.8},
        "validate":false,
        "environments":["clean","gray-primary"],
        "metrics":{"safe":true,"live":false,"safe_and_live":true},
        "time_axis":{"horizon_hours":20000,"step_hours":5000,"window_hours":2500,"target_nines":3.0},
        "cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[0,1]}},"deployment":{"uniform_mixed":{"n":4,"crash":0.01,"byzantine":0.001}}},
                 {"label":"flex","model":{"raft_flexible":{"q_per":2,"q_vc":2}},"deployment":{"uniform_byzantine":{"n":3,"p":0.01}}},
                 {"label":"pbft","model":"pbft","deployment":{"uniform_crash":{"n":4,"p":0.01}}}],
        "repairable_cells":[{"label":"r","n":5,"lambda":1e-4,"mu":0.1,"tolerated_failures":2}]}"#;

    /// An optimize request using every member the grammar accepts; the
    /// protocol target is [`OPTIMIZE_PROTOCOL_TARGET`]'s.
    const FULL_OPTIMIZE: &str = r#"{"space":{"instances":[{"name":"spot","fault_probability":0.08,"byzantine_probability":0.001,"hourly_cost":0.10}],
                     "nodes":[3,5],
                     "domains":{"racks":4,"shock_probability":0.02},
                     "placements":["same-rack","cross-rack"],
                     "target":{"quorum_size":2}},
            "config":{"target_nines":3.5,"screen_samples":5000,"refine_samples":20000,"seed":9,
                      "rare_event_threshold":1e-7,
                      "repair":{"mttr_hours":12.0,"mission_hours":8766.0}}}"#;

    const OPTIMIZE_PROTOCOL_TARGET: &str = r#"{"space":{"instances":[{"name":"a","fault_probability":0.01,"hourly_cost":1.0}],
                     "nodes":[5],"target":{"protocol":{"raft_flexible":{"q_per":2,"q_vc":4}}}},
            "config":{"target_nines":2.0}}"#;

    #[test]
    fn parse_query_covers_every_axis() {
        let parsed =
            parse_query(&JsonValue::parse(FULL_QUERY).unwrap()).expect("full-axis query parses");
        // 3 protocols x 2 nodes x 4 probs x 3 correlations x 2 sample budgets
        // x 2 fault environments, plus the explicit cells.
        assert_eq!(parsed.query.cell_count(), 288 + 3);
        assert_eq!(parsed.query.trajectory_count(), 1);
        assert!(!parsed.metrics.live && parsed.metrics.safe);
        let epistemic = parsed
            .query
            .base_budget()
            .epistemic
            .expect("posterior read");
        assert_eq!((epistemic.draws, epistemic.level), (4, 0.8));
    }

    /// A validated Raft-only query over every fault environment.
    const VALIDATED_RAFT: &str = r#"{"protocols":["raft"],"nodes":[4],"fault_probs":[0.05],"validate":true,
        "environments":["clean","gray-primary","partition-heal","wan-lossy"]}"#;

    /// Byte gate for the wire: [`FULL_QUERY`], [`FULL_OPTIMIZE`],
    /// [`OPTIMIZE_PROTOCOL_TARGET`] and [`VALIDATED_RAFT`], each through
    /// [`run_exchange`] on a fresh [`Server`], must answer exactly the lines of
    /// `tests/golden/wire.ndjson`. Every `wall_ns` and `wall_ms` is zeroed, and
    /// each request's `cell` and `trajectory` events are sorted by index (cells
    /// stream in completion order), with `done` kept last.
    ///
    /// The file is this test's own normalised output. On a mismatch the test
    /// writes what it built to `wire.ndjson` in the system temp directory; when
    /// a change of the wire bytes is intended, copy that file over the golden.
    #[test]
    fn wire_answers_match_the_golden_file() {
        let requests = [
            format!(r#"{{"id":"q","op":"query","query":{FULL_QUERY}}}"#),
            format!(r#"{{"id":"o","op":"optimize",{}"#, &FULL_OPTIMIZE[1..]),
            format!(
                r#"{{"id":"t","op":"optimize",{}"#,
                &OPTIMIZE_PROTOCOL_TARGET[1..]
            ),
            format!(r#"{{"id":"v","op":"query","query":{VALIDATED_RAFT}}}"#),
        ];
        let mut actual = String::new();
        for request in requests {
            // One request per line: the fixtures span several.
            let line = JsonValue::parse(&request).unwrap().to_compact_string();
            let mut events = events(&run_exchange(&Arc::new(Server::new()), &line));
            let rank = |e: &JsonValue| {
                let kind = e.get("event").and_then(JsonValue::as_str);
                let index = e.get("index").and_then(JsonValue::as_f64).unwrap_or(0.0);
                match kind {
                    Some("cell") => (0, index as usize),
                    Some("trajectory") => (1, index as usize),
                    _ => (2, 0),
                }
            };
            events.sort_by_key(rank);
            for mut event in events {
                zero_wall_ns(&mut event);
                if let JsonValue::Object(members) = &mut event {
                    for (key, member) in members {
                        if key == "wall_ms" {
                            *member = JsonValue::number(0.0);
                        }
                    }
                }
                actual.push_str(&event.to_compact_string());
                actual.push('\n');
            }
        }
        let golden = include_str!("../tests/golden/wire.ndjson");
        if actual != golden {
            let path = std::env::temp_dir().join("wire.ndjson");
            std::fs::write(&path, &actual).expect("the temp directory is writable");
            let first_diff = actual
                .lines()
                .zip(golden.lines())
                .position(|(a, g)| a != g)
                .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
            panic!(
                "the wire answers diverged from the golden file at line {} (actual output in {}):\n  golden: {:?}\n  actual: {:?}",
                first_diff + 1,
                path.display(),
                golden.lines().nth(first_diff),
                actual.lines().nth(first_diff)
            );
        }
    }

    /// Every path from the root of `value` to an object inside it, each step a
    /// member or entry index.
    fn object_paths(value: &JsonValue, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let children: Vec<&JsonValue> = match value {
            JsonValue::Object(members) => {
                out.push(path.clone());
                members.iter().map(|(_, v)| v).collect()
            }
            JsonValue::Array(items) => items.iter().collect(),
            _ => Vec::new(),
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            object_paths(child, path, out);
            path.pop();
        }
    }

    #[test]
    fn every_object_on_the_wire_rejects_an_unknown_key() {
        let requests = [
            format!(r#"{{"id":"q","op":"query","query":{FULL_QUERY}}}"#),
            format!(r#"{{"id":"o","op":"optimize",{}"#, &FULL_OPTIMIZE[1..]),
            format!(
                r#"{{"id":"o","op":"optimize",{}"#,
                &OPTIMIZE_PROTOCOL_TARGET[1..]
            ),
        ];
        for request in requests {
            let request = JsonValue::parse(&request).unwrap();
            assert!(read_request(&request).is_ok(), "fixture reads");
            let mut paths = Vec::new();
            object_paths(&request, &mut Vec::new(), &mut paths);
            assert!(paths.len() >= 7, "the walk finds the nested objects");
            for path in paths {
                let mut bad = request.clone();
                let node = path.iter().fold(&mut bad, |node, &i| match node {
                    JsonValue::Object(members) => &mut members[i].1,
                    JsonValue::Array(items) => &mut items[i],
                    _ => unreachable!("paths run through containers"),
                });
                let JsonValue::Object(members) = node else {
                    unreachable!("paths end at objects")
                };
                members.push(("zz".to_string(), JsonValue::number(0.0)));
                let err = read_request(&bad)
                    .err()
                    .unwrap_or_else(|| panic!("'zz' accepted at {path:?}"));
                assert!(err.contains("zz"), "error at {path:?} was '{err}'");
            }
        }
    }

    #[test]
    fn parse_query_rejects_unknown_keys_and_bad_values() {
        for (bad, needle) in [
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"typo":1}"#,
                "unknown query key",
            ),
            (
                r#"{"protocols":["paxos"],"nodes":[3],"fault_probs":[0.01]}"#,
                "unknown protocol",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"faults":"gamma-ray"}"#,
                "unknown fault axis",
            ),
            (r#"{"protocols":["raft"],"nodes":[3]}"#, "zero cells"),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":{"logspace":{"lo":0.1,"hi":0.001,"count":3}}}"#,
                "logspace",
            ),
            (
                r#"{"cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[0,0]}},"deployment":{"uniform_crash":{"n":4,"p":0.1}}}]}"#,
                "repeated",
            ),
            (
                r#"{"cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[9]}},"deployment":{"uniform_crash":{"n":4,"p":0.1}}}]}"#,
                "out of range",
            ),
            (
                r#"{"cells":[{"label":"c","model":"raft","deployment":{"uniform_crash":{"n":4,"p":1.5}}}]}"#,
                "probability",
            ),
            (
                r#"{"repairable_cells":[{"label":"r","n":3,"lambda":1e-4,"mu":0.1,"tolerated_failures":3}]}"#,
                "tolerated_failures",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"correlations":[{"cluster_shock":{"probability":2}}]}"#,
                "cluster_shock: 'probability' must be a probability in [0, 1], got 2",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"correlations":[{"rack_shock":{"racks":2,"probability":-0.5}}]}"#,
                "rack_shock: 'probability' must be a probability in [0, 1], got -0.5",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"environments":["solar-flare"]}"#,
                "unknown environment",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"environments":[7]}"#,
                "must be strings",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"posterior":5}"#,
                "must be an object",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"posterior":{"draws":8,"alpha":3.5}}"#,
                "missing 'beta'",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"posterior":{"draws":8,"alpha":3.5,"beta":60,"typo":1}}"#,
                "unknown posterior key",
            ),
            (
                r#"{"protocols":["raft"],"nodes":[3],"fault_probs":[0.01],"posterior":{"draws":8,"alpha":3.5,"beta":60,"level":"high"}}"#,
                "must be a number",
            ),
        ]
        .into_iter()
        .chain(MISREAD_QUERIES)
        {
            let err = parse_query(&JsonValue::parse(bad).unwrap())
                .err()
                .unwrap_or_else(|| panic!("{bad} should be rejected"));
            assert!(err.contains(needle), "error for {bad} was '{err}'");
        }
        // The request envelope is read by the same grammar.
        let envelope = JsonValue::parse(r#"{"op":"stats","extra":1}"#).unwrap();
        let err = read_request(&envelope)
            .err()
            .expect("an envelope key is checked");
        assert!(err.contains("unknown request key 'extra'"), "{err}");
    }

    #[test]
    fn parse_optimize_covers_every_knob() {
        let request = JsonValue::parse(FULL_OPTIMIZE).expect("fixture parses");
        let parsed = parse_optimize(&request).expect("fixture is a valid request");
        assert_eq!(parsed.space.instances.len(), 1);
        assert_eq!(parsed.space.nodes, vec![3, 5]);
        assert_eq!(parsed.space.placements.len(), 2);
        assert!(matches!(
            parsed.space.target,
            TargetSpec::PersistenceQuorum { quorum_size: 2 }
        ));
        assert!((parsed.config.target_nines - 3.5).abs() < 1e-12);
        assert_eq!(parsed.config.screen_samples, 5_000);
        assert_eq!(parsed.config.refine_samples, 20_000);
        assert!(parsed.config.repair.is_some());
        // A protocol target parses through the query-side protocol grammar.
        let request = JsonValue::parse(OPTIMIZE_PROTOCOL_TARGET).unwrap();
        let parsed = parse_optimize(&request).expect("flexible-quorum target parses");
        assert!(matches!(
            parsed.space.target,
            TargetSpec::Protocol(ProtocolSpec::RaftFlexible { q_per: 2, q_vc: 4 })
        ));
    }

    #[test]
    fn parse_optimize_rejects_unknown_keys_and_bad_values() {
        let valid_space = r#"{"instances":[{"name":"a","fault_probability":0.01,"hourly_cost":1.0}],"nodes":[3],"target":{"protocol":"raft"}}"#;
        for (bad, needle) in [
            (
                format!(r#"{{"space":{valid_space}}}"#),
                "missing 'config'".to_string(),
            ),
            (
                format!(r#"{{"space":{valid_space},"config":{{"target_nines":3.0,"scren_samples":1}}}}"#),
                "unknown config key 'scren_samples'".to_string(),
            ),
            (
                format!(r#"{{"space":{valid_space},"config":{{"target_nines":-1.0}}}}"#),
                "target_nines".to_string(),
            ),
            (
                format!(r#"{{"space":{valid_space},"config":{{"target_nines":3.0,"rare_event_threshold":0.0}}}}"#),
                "rare_event_threshold".to_string(),
            ),
            (
                format!(r#"{{"space":{valid_space},"config":{{"target_nines":3.0,"repair":{{"mttr_hours":12.0,"mission_hours":0.0}}}}}}"#),
                "positive".to_string(),
            ),
            (
                r#"{"space":{"instances":[{"name":"a","fault_probability":1.5,"hourly_cost":1.0}],"nodes":[3],"target":{"protocol":"raft"}},"config":{"target_nines":3.0}}"#.to_string(),
                "[0, 1]".to_string(),
            ),
            (
                r#"{"space":{"instances":[{"name":"a","fault_probability":0.01,"hourly_cost":1.0,"color":"red"}],"nodes":[3],"target":{"protocol":"raft"}},"config":{"target_nines":3.0}}"#.to_string(),
                "unknown instance key 'color'".to_string(),
            ),
            (
                r#"{"space":{"instances":[],"nodes":[3],"racks":4,"target":{"protocol":"raft"}},"config":{"target_nines":3.0}}"#.to_string(),
                "unknown space key 'racks'".to_string(),
            ),
            (
                r#"{"space":{"instances":[],"nodes":[3],"placements":["diagonal"],"target":{"protocol":"raft"}},"config":{"target_nines":3.0}}"#.to_string(),
                "same-rack".to_string(),
            ),
            (
                r#"{"space":{"instances":[],"nodes":[3],"target":{"tier":"gold"}},"config":{"target_nines":3.0}}"#.to_string(),
                "'protocol' or 'quorum_size'".to_string(),
            ),
            (
                r#"{"space":{"instances":[],"nodes":[3]},"config":{"target_nines":3.0}}"#.to_string(),
                "missing 'target'".to_string(),
            ),
            (MISREAD_TARGET.0.to_string(), MISREAD_TARGET.1.to_string()),
        ] {
            let err = parse_optimize(&JsonValue::parse(&bad).unwrap())
                .err()
                .unwrap_or_else(|| panic!("{bad} should be rejected"));
            assert!(err.contains(&needle), "error for {bad} was '{err}'");
        }
    }
}
