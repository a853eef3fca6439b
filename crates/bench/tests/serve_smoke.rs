//! Smoke test of the `repro serve` binary: two plans submitted concurrently
//! over the stdio NDJSON protocol must stream cells that re-assemble into
//! reports byte-identical to one-shot library execution, and the `stats`
//! request must expose non-zero cache counters and plan wall time.

use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::process::{ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prob_consensus::json::JsonValue;
use prob_consensus::query::AnalysisSession;

/// The two example plans: a mixed grid (counting + packed-MC cells) and a
/// rare-event persistence-quorum cell — together they cover all three engine
/// families the cache amortizes.
const GRID_QUERY: &str = r#"{"protocols":["raft","pbft"],"nodes":[5,9],"fault_probs":[0.01,0.05],"samples":20000,"seed":41}"#;
const DURABILITY_QUERY: &str = r#"{"cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[0,1,2,3]}},"deployment":{"uniform_crash":{"n":16,"p":0.01}}}],"samples":20000,"seed":41}"#;

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

/// One-shot reference cells for a query body, serialized compact with wall
/// clocks zeroed.
fn reference_cells(query_body: &str) -> Vec<String> {
    let spec = JsonValue::parse(query_body).expect("fixture parses");
    let parsed = repro_server::parse_query(&spec).expect("fixture is a valid query");
    let report = AnalysisSession::new()
        .run(&parsed.query)
        .expect("reference run succeeds");
    let json = report.to_json_value();
    json.get("cells")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|cell| {
            let mut cell = cell.clone();
            zero_wall_ns(&mut cell);
            cell.to_compact_string()
        })
        .collect()
}

/// Reads parsed events until `until` says stop (the matching event is kept).
fn read_until(
    lines: &mut Lines<BufReader<ChildStdout>>,
    events: &mut Vec<JsonValue>,
    until: impl Fn(&JsonValue) -> bool,
) {
    for line in lines.by_ref() {
        let line = line.expect("read event line");
        let event = JsonValue::parse(&line).expect("every event line is one JSON object");
        let stop = until(&event);
        events.push(event);
        if stop {
            return;
        }
    }
    panic!("server closed its output before the expected event");
}

fn is_event(event: &JsonValue, id: &str, kind: &str) -> bool {
    event.get("id").and_then(|v| v.as_str()) == Some(id)
        && event.get("event").and_then(|v| v.as_str()) == Some(kind)
}

#[test]
fn serve_streams_reports_matching_one_shot_execution() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repro serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut events = Vec::new();

    // Both plans in flight before either finishes; their cell events interleave
    // on the shared pool.
    write!(
        stdin,
        "{{\"id\":\"grid\",\"op\":\"query\",\"query\":{GRID_QUERY}}}\n\
         {{\"id\":\"durability\",\"op\":\"query\",\"query\":{DURABILITY_QUERY}}}\n"
    )
    .expect("submit queries");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "grid", "done"));
    if !events.iter().any(|e| is_event(e, "durability", "done")) {
        read_until(&mut lines, &mut events, |e| {
            is_event(e, "durability", "done")
        });
    }

    // Stats requested after both plans completed: every counter must be live.
    writeln!(stdin, "{{\"id\":\"s\",\"op\":\"stats\"}}").expect("submit stats");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "s", "stats"));

    writeln!(stdin, "{{\"id\":\"bye\",\"op\":\"shutdown\"}}").expect("submit shutdown");
    drop(stdin);
    read_until(&mut lines, &mut events, |e| is_event(e, "bye", "shutdown"));
    assert!(lines.next().is_none(), "no output after the shutdown ack");
    let status = child.wait().expect("repro serve exits");
    assert!(status.success(), "serve exited with {status}");

    let events_for = |id: &str, kind: &str| -> Vec<&JsonValue> {
        events.iter().filter(|e| is_event(e, id, kind)).collect()
    };

    // Streamed cells re-assemble (by index) into the one-shot report, byte for
    // byte once the measured wall clocks are zeroed.
    for (id, body) in [("grid", GRID_QUERY), ("durability", DURABILITY_QUERY)] {
        let expected = reference_cells(body);
        assert_eq!(events_for(id, "done").len(), 1, "query {id} finished once");
        assert!(events_for(id, "error").is_empty(), "query {id} errored");
        let cells = events_for(id, "cell");
        assert_eq!(
            cells.len(),
            expected.len(),
            "query {id} streamed every cell"
        );
        let mut reassembled = vec![None; expected.len()];
        for event in cells {
            let index = event.get("index").unwrap().as_f64().unwrap() as usize;
            let mut cell = event.get("cell").unwrap().clone();
            zero_wall_ns(&mut cell);
            assert!(
                reassembled[index]
                    .replace(cell.to_compact_string())
                    .is_none(),
                "query {id} cell {index} emitted twice"
            );
        }
        let reassembled: Vec<String> = reassembled.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            reassembled, expected,
            "query {id} diverged from one-shot run"
        );
    }

    // Observability: non-zero cache counters and per-plan wall time.
    let stats = events_for("s", "stats");
    assert_eq!(stats.len(), 1, "exactly one stats event");
    let cache = stats[0].get("cache").unwrap();
    assert!(cache.get("misses").unwrap().as_f64().unwrap() > 0.0);
    assert!(cache.get("entries").unwrap().as_f64().unwrap() > 0.0);
    assert_eq!(
        stats[0].get("queries_completed").unwrap().as_f64().unwrap(),
        2.0
    );
    let wall = stats[0].get("plan_wall_ms").unwrap();
    assert!(wall.get("last").unwrap().as_f64().unwrap() > 0.0);
    assert!(wall.get("total").unwrap().as_f64().unwrap() > 0.0);
}

/// The `optimize` op end to end: a deployment search submitted over the wire
/// must return the exact report an in-process [`prob_consensus::optimize`]
/// search produces (the frontier carries no wall clocks, so byte-identical),
/// reject malformed payloads with an `error` event instead of dying, and show
/// up in the `stats` counters.
#[test]
fn serve_optimize_matches_in_process_search() {
    // The placement-sensitive durability space from the optimizer test suite:
    // small enough for a smoke test, still exercises tier-2 IS refinement.
    let space = r#"{"instances":[{"name":"spot","fault_probability":0.1,"hourly_cost":0.1}],"nodes":[40],"domains":{"racks":8,"shock_probability":0.01},"placements":["same-rack","cross-rack"],"target":{"quorum_size":5}}"#;
    let config = r#"{"target_nines":4.0,"screen_samples":10000,"refine_samples":40000,"seed":7}"#;

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repro serve starts");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut events = Vec::new();

    write!(
        stdin,
        "{{\"id\":\"opt\",\"op\":\"optimize\",\"space\":{space},\"config\":{config}}}\n\
         {{\"id\":\"bad\",\"op\":\"optimize\",\"space\":{space},\"config\":{{\"target_nines\":4.0,\"scren_samples\":1}}}}\n"
    )
    .expect("submit optimize requests");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "opt", "done"));
    if !events.iter().any(|e| is_event(e, "bad", "error")) {
        read_until(&mut lines, &mut events, |e| is_event(e, "bad", "error"));
    }
    writeln!(stdin, "{{\"id\":\"s\",\"op\":\"stats\"}}").expect("submit stats");
    stdin.flush().unwrap();
    read_until(&mut lines, &mut events, |e| is_event(e, "s", "stats"));
    writeln!(stdin, "{{\"id\":\"bye\",\"op\":\"shutdown\"}}").expect("submit shutdown");
    drop(stdin);
    read_until(&mut lines, &mut events, |e| is_event(e, "bye", "shutdown"));
    assert!(child.wait().expect("repro serve exits").success());

    // The streamed report is byte-identical to the in-process search.
    let spec = JsonValue::parse(&format!("{{\"space\":{space},\"config\":{config}}}"))
        .expect("fixture parses");
    let parsed = repro_server::parse_optimize(&spec).expect("fixture is a valid request");
    let reference =
        prob_consensus::optimize::optimize(&AnalysisSession::new(), &parsed.space, &parsed.config)
            .expect("reference search succeeds");
    let reports: Vec<&JsonValue> = events
        .iter()
        .filter(|e| is_event(e, "opt", "optimize"))
        .collect();
    assert_eq!(reports.len(), 1, "exactly one optimize event");
    assert_eq!(
        reports[0].get("report").unwrap().to_compact_string(),
        reference.to_json_value().to_compact_string(),
        "wire report diverged from in-process search"
    );
    let done = events
        .iter()
        .find(|e| is_event(e, "opt", "done"))
        .expect("done event");
    assert_eq!(
        done.get("frontier").unwrap().as_f64().unwrap() as usize,
        reference.frontier.len()
    );
    assert_eq!(
        done.get("evaluated").unwrap().as_f64().unwrap() as usize,
        reference.evaluated.len()
    );

    // The misspelled knob drew an error, not a silent default — and never a
    // second done event.
    let bad_errors: Vec<&JsonValue> = events
        .iter()
        .filter(|e| is_event(e, "bad", "error"))
        .collect();
    assert_eq!(bad_errors.len(), 1);
    assert!(bad_errors[0]
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("scren_samples"));
    assert!(!events.iter().any(|e| is_event(e, "bad", "done")));

    // Observability: the search is counted separately from queries.
    let stats = events
        .iter()
        .find(|e| is_event(e, "s", "stats"))
        .expect("stats event");
    assert_eq!(
        stats
            .get("optimizations_completed")
            .unwrap()
            .as_f64()
            .unwrap(),
        1.0
    );
    assert_eq!(
        stats.get("queries_completed").unwrap().as_f64().unwrap(),
        0.0
    );
}

/// The warm-cache contract the server exists for: a second identical request
/// on a live server must hit the session cache (no recompilation, no repeated
/// pilots).
#[test]
fn repeated_requests_hit_the_shared_cache() {
    let server = Arc::new(repro_server::Server::new());
    let input = format!("{{\"id\":\"a\",\"op\":\"query\",\"query\":{DURABILITY_QUERY}}}\n");
    repro_server::run_exchange(&server, &input);
    let cold = server.session().cache_stats();
    assert_eq!(cold.hits, 0);
    assert!(cold.misses > 0);
    repro_server::run_exchange(&server, &input);
    let warm = server.session().cache_stats();
    assert!(warm.hits > 0, "second identical request missed the cache");
    assert_eq!(
        warm.misses, cold.misses,
        "second request recomputed scratch"
    );
}

/// Sends a `stats` request on a fresh connection and returns the event line,
/// retrying while the server is still shedding descriptors (a connection it
/// could not set up is closed without an answer).
fn stats_on_fresh_connection(addr: &str) -> JsonValue {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let answer = TcpStream::connect(addr).and_then(|mut stream| {
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.write_all(b"{\"id\":\"s\",\"op\":\"stats\"}\n")?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            Ok(line)
        });
        match answer {
            Ok(line) if !line.is_empty() => {
                return JsonValue::parse(&line).expect("the answer is one JSON object")
            }
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
            other => panic!("no stats answer within 30 s: {other:?}"),
        }
    }
}

/// `repro serve --tcp` out of file descriptors keeps serving: a failed
/// `accept` and a connection that cannot be set up each cost one stderr line,
/// never the process, and once the clients go away a new connection is
/// answered.
///
/// The server spends three descriptors per connection (the socket and two
/// clones), so whether the descriptor that runs out is `accept`'s own or a
/// clone's depends on the limit modulo three, offset by the descriptors the
/// process inherits. Three consecutive limits cover every case.
#[test]
fn serve_survives_running_out_of_file_descriptors() {
    for limit in 21..24 {
        let mut child = Command::new("sh")
            .arg("-c")
            .arg(format!(
                "ulimit -n {limit} && exec \"$0\" serve --tcp 127.0.0.1:0"
            ))
            .arg(env!("CARGO_BIN_EXE_repro"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh starts repro serve");
        let (line_tx, stderr_lines) = std::sync::mpsc::channel();
        let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
        let reader = std::thread::spawn(move || {
            for line in stderr.lines() {
                if line_tx.send(line.expect("read stderr")).is_err() {
                    break;
                }
            }
        });
        let first = stderr_lines
            .recv_timeout(Duration::from_secs(30))
            .expect("repro serve prints its address");
        let addr = first
            .strip_prefix("repro serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected first stderr line: {first:?}"))
            .to_string();

        // More connections than the server has descriptors; the kernel still
        // completes every handshake into the listen backlog. The first logged
        // failure says the server has run out; a server that exits instead
        // closes stderr without one.
        let clients: Vec<TcpStream> = (0..limit)
            .map(|_| TcpStream::connect(&addr).expect("connect"))
            .collect();
        let mut log = Vec::new();
        let ran_out = loop {
            let Ok(line) = stderr_lines.recv_timeout(Duration::from_secs(30)) else {
                break false;
            };
            let failure = line.starts_with("repro serve: ") && line.contains(" failed: ");
            log.push(line);
            if failure {
                break true;
            }
        };
        let exited = child.try_wait().expect("poll repro serve");
        drop(clients);
        let stats = (ran_out && exited.is_none()).then(|| stats_on_fresh_connection(&addr));
        child.kill().ok();
        child.wait().expect("reap repro serve");
        reader.join().expect("stderr reader");
        log.extend(stderr_lines.try_iter());

        assert!(
            ran_out && exited.is_none(),
            "fd limit {limit}: no logged failure, or repro serve exited ({exited:?}); stderr: {log:?}"
        );
        assert!(
            is_event(&stats.expect("asked"), "s", "stats"),
            "fd limit {limit}: no stats event"
        );
    }
}
