//! The traced run: the seeded request stream replayed in-process, once through
//! `run_exchange` and once stage by stage through the public functions the
//! server itself calls, with a span around every stage.
//!
//! Three fresh [`Server`]s are fed the identical sequence so their caches
//! evolve alike: one takes whole lines (`server.exchange`), one the staged
//! calls with spans on, one the staged calls with spans off (the difference
//! between the last two is the tracing overhead).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fault_model::correlation::{CorrelationGroup, CorrelationModel};
use fault_model::mode::FaultProfile;
use prob_consensus::engine::EngineChoice;
use prob_consensus::json::JsonValue;
use prob_consensus::montecarlo::{monte_carlo_reliability_par_kernel, McKernel};
use prob_consensus::optimize::optimize;
use prob_consensus::query::{AnalysisSession, CellRecord, StreamSink};
use prob_consensus::raft_model::RaftModel;
use repro_server::{parse_optimize, parse_query, run_exchange, Server};

use crate::stats::{median, percentile, sorted};
use crate::workloads::{Op, Request};

/// One timed interval. Spans of one request share `request`; `parent` is the
/// index (in the trace) of the span that caused this one.
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory; with spans off it only runs the closures.
struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        body: impl FnOnce(&mut Tracer, Option<usize>) -> R,
    ) -> R {
        let Some(spans) = &mut self.spans else {
            return body(self, None);
        };
        let me = spans.len();
        spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let result = body(self, Some(me));
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.as_mut().expect("spans are on")[me].end_ns = end_ns;
        result
    }
}

/// Counts taken at the stage boundaries of the staged pass.
#[derive(Default)]
struct Counts {
    bytes_in: usize,
    bytes_out: usize,
    cells: usize,
    trajectories: usize,
    /// Cells by what ran them: the planner's engine, split by kernel for
    /// Monte Carlo; `simulation` counts cells whose paired validation ran.
    engines: BTreeMap<&'static str, usize>,
    samples: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    entries_end: usize,
    first_cell_ns: Vec<f64>,
    is_samples: u64,
    is_ess: f64,
    is_wall_ns: u64,
    sim_trials: u64,
    sim_wall_ns: u64,
    epistemic_draws: u64,
    epistemic_wall_ns: u64,
    screened: usize,
    refined: usize,
}

/// Stamps the first completed cell of a plan.
struct FirstCell {
    started: Instant,
    first_ns: AtomicU64,
}

impl StreamSink for FirstCell {
    fn on_cell(&self, _index: usize, _record: &CellRecord) {
        // Relaxed: a statistic, read only after the plan has joined.
        self.first_ns
            .fetch_min(self.started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Counts {
    fn cell(&mut self, record: &CellRecord) {
        self.cells += 1;
        let engine = match (record.engine, record.kernel()) {
            (EngineChoice::Counting, _) => "counting",
            (EngineChoice::Enumeration, _) => "enumeration",
            (EngineChoice::ImportanceSampling, _) => "importance",
            (EngineChoice::MonteCarlo, Some(McKernel::Scalar)) => "scalar",
            (EngineChoice::MonteCarlo, _) => "packed",
            (EngineChoice::Simulation, _) => "simulation",
        };
        *self.engines.entry(engine).or_default() += 1;
        self.samples += record.samples_drawn().unwrap_or(0) as u64;
        if let Some(rare) = record.outcome.rare_event {
            self.is_samples += rare.samples as u64;
            self.is_ess += rare.ess;
            self.is_wall_ns += record.wall_ns;
        }
        if let Some(validation) = &record.validation {
            *self.engines.entry("simulation").or_default() += 1;
            self.sim_trials += validation.simulation.trials as u64;
            self.sim_wall_ns += record.wall_ns;
        }
        if let Some(epistemic) = &record.epistemic {
            self.epistemic_draws += epistemic.draws.len() as u64;
            self.epistemic_wall_ns += record.wall_ns;
        }
    }
}

/// The server's event wrapper, rebuilt here because `repro_server::event` is
/// private: `{"id":..,"event":kind,<rest>}`.
fn event(id: &JsonValue, kind: &str, rest: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut members = vec![
        ("id".to_string(), id.clone()),
        ("event".to_string(), JsonValue::string(kind)),
    ];
    members.extend(rest.into_iter().map(|(k, v)| (k.to_string(), v)));
    JsonValue::Object(members)
}

/// Serialises one event the way the server's sink does: the record's JSON
/// value (`record`), then the compact line (`json.write`).
fn serialise(
    tracer: &mut Tracer,
    index: usize,
    parent: Option<usize>,
    counts: &mut Counts,
    build: impl FnOnce() -> JsonValue,
) {
    let value = build();
    let line = tracer.span("json.write", index, parent, |_, _| {
        value.to_compact_string()
    });
    counts.bytes_out += line.len() + 1;
    std::hint::black_box(line);
}

/// The hand-off `handle_line` pays per plan: it submits the plan as one owned
/// pool task and the connection joins it. An empty task through the same two
/// calls stands in for it here, where the stages run on the calling thread.
fn dispatch(tracer: &mut Tracer, index: usize, parent: Option<usize>) {
    tracer.span("server.dispatch", index, parent, |_, _| {
        rayon::submit_tasks(1, Arc::new(|_| {})).join();
    });
}

/// One request through the stages `handle_line` runs, each under its span.
fn staged(
    server: &Arc<Server>,
    request: &Request,
    index: usize,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    counts.bytes_in += request.line.len() + 1;
    tracer.span("request", index, None, |tracer, root| {
        let parsed = tracer.span("json.parse", index, root, |_, _| {
            JsonValue::parse(&request.line)
        });
        let value = parsed.map_err(|e| format!("{}: {e}", request.id))?;
        let id = value.get("id").cloned().unwrap_or(JsonValue::Null);
        let session = server.session();
        match request.op {
            Op::Stats => {
                tracer.span("stats", index, root, |_, _| {
                    std::hint::black_box((session.cache_stats(), server.stats()));
                });
            }
            Op::Optimize => {
                let parsed = tracer.span("server.parse_request", index, root, |_, _| {
                    parse_optimize(&value)
                })?;
                dispatch(tracer, index, root);
                let report = tracer
                    .span("optimize", index, root, |_, _| {
                        optimize(session, &parsed.space, &parsed.config)
                    })
                    .map_err(|e| format!("{}: {e}", request.id))?;
                counts.screened += report.screened;
                counts.refined += report.refined;
                tracer.span("record", index, root, |tracer, me| {
                    serialise(tracer, index, me, counts, || {
                        event(&id, "optimize", vec![("report", report.to_json_value())])
                    });
                });
            }
            _ => {
                let spec = value.get("query").ok_or("query request missing 'query'")?;
                let parsed = tracer.span("server.parse_request", index, root, |_, _| {
                    parse_query(spec)
                })?;
                let before = session.cache_stats();
                let plan = tracer
                    .span("plan", index, root, |_, _| session.plan(&parsed.query))
                    .map_err(|e| format!("{}: {e}", request.id))?;
                let after = session.cache_stats();
                counts.hits += after.hits - before.hits;
                counts.misses += after.misses - before.misses;
                counts.evictions += after.evictions - before.evictions;
                counts.entries_end = after.entries;
                dispatch(tracer, index, root);
                let sink = FirstCell {
                    started: Instant::now(),
                    first_ns: AtomicU64::new(u64::MAX),
                };
                let report =
                    tracer.span("execute", index, root, |_, _| plan.execute_streaming(&sink));
                let first = sink.first_ns.load(Ordering::Relaxed);
                if first != u64::MAX {
                    counts.first_cell_ns.push(first as f64);
                }
                tracer.span("record", index, root, |tracer, me| {
                    for (i, cell) in report.cells().iter().enumerate() {
                        counts.cell(cell);
                        serialise(tracer, index, me, counts, || {
                            event(
                                &id,
                                "cell",
                                vec![
                                    ("index", JsonValue::number(i as f64)),
                                    ("cell", cell.to_json_value(parsed.metrics)),
                                ],
                            )
                        });
                    }
                    for (i, trajectory) in report.trajectories().iter().enumerate() {
                        counts.trajectories += 1;
                        serialise(tracer, index, me, counts, || {
                            event(
                                &id,
                                "trajectory",
                                vec![
                                    ("index", JsonValue::number(i as f64)),
                                    ("trajectory", trajectory.to_json_value()),
                                ],
                            )
                        });
                    }
                });
            }
        }
        Ok(())
    })
}

/// Per-layer figures of one traced run, by metric name, plus the spans.
pub struct Traced {
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub requests: usize,
}

/// Durations (ns) of the spans called `name`, summed per request: one value
/// per request that has such a span.
fn per_request(spans: &[Span], name: &str) -> Vec<f64> {
    let mut totals: BTreeMap<usize, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *totals.entry(span.request).or_default() += span.ns() as f64;
    }
    sorted(totals.into_values().collect())
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Replays `requests` and derives the in-process per-layer metrics. The first
/// `warmup` requests go to each pass's server untimed, as in the socket run;
/// of the rest, as many are traced as one pass serves within `pass_limit`.
pub fn run(requests: &[Request], warmup: usize, pass_limit: Duration) -> Result<Traced, String> {
    let (warmup, timed) = requests.split_at(warmup.min(requests.len()));
    let exchange_line = |server: &Arc<Server>, request: &Request| -> Result<(), String> {
        let mut line = request.line.clone();
        line.push('\n');
        if run_exchange(server, &line).contains("\"event\":\"error\"") {
            return Err(format!("{}: traced exchange drew an error", request.id));
        }
        Ok(())
    };
    let origin = Instant::now();
    let mut silent = Tracer {
        origin,
        spans: None,
    };

    // Pass 1: whole lines through `run_exchange`. Its time limit fixes how
    // many requests the staged passes replay.
    let server = Arc::new(Server::new());
    for request in warmup {
        exchange_line(&server, request)?;
    }
    let mut spans = Vec::new();
    let started = Instant::now();
    for (index, request) in timed.iter().enumerate() {
        if started.elapsed() >= pass_limit {
            break;
        }
        let start_ns = origin.elapsed().as_nanos() as u64;
        exchange_line(&server, request)?;
        spans.push(Span {
            name: "server.exchange",
            request: warmup.len() + index,
            parent: None,
            start_ns,
            end_ns: origin.elapsed().as_nanos() as u64,
        });
    }
    let replayed = &timed[..spans.len()];
    let exchange = sorted(spans.iter().map(|s| s.ns() as f64).collect());
    let exchange_total: f64 = exchange.iter().sum();

    // Passes 2 and 3: the staged calls with spans on, then the same calls
    // untimed. Returns the pass's wall time.
    let mut staged_pass = |tracer: &mut Tracer, counts: &mut Counts| -> Result<f64, String> {
        let server = Arc::new(Server::new());
        for (index, request) in warmup.iter().enumerate() {
            staged(&server, request, index, &mut silent, &mut Counts::default())?;
        }
        let started = Instant::now();
        for (index, request) in replayed.iter().enumerate() {
            staged(&server, request, warmup.len() + index, tracer, counts)?;
        }
        Ok(started.elapsed().as_secs_f64())
    };
    let first_staged = spans.len();
    let mut counts = Counts::default();
    let mut tracer = Tracer {
        origin,
        spans: Some(spans),
    };
    let traced_wall = staged_pass(&mut tracer, &mut counts)?;
    let untraced_wall = staged_pass(
        &mut Tracer {
            origin,
            spans: None,
        },
        &mut Counts::default(),
    )?;
    let spans = tracer.spans.take().expect("spans were on");

    let staged_spans = &spans[first_staged..];
    const STAGES: [&str; 8] = [
        "json.parse",
        "server.parse_request",
        "server.dispatch",
        "plan",
        "execute",
        "optimize",
        "stats",
        "record",
    ];
    let stage_total = |name: &str| -> f64 {
        staged_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .sum()
    };
    let stage_sum: f64 = STAGES.iter().map(|name| stage_total(name)).sum();
    let us = |ns: f64| ns / 1e3;
    let p = |name: &str, pct: f64| us(percentile(&per_request(staged_spans, name), pct));
    let n = replayed.len() as f64;
    let cells = counts.cells as f64;
    let execute_s = (stage_total("execute") + stage_total("optimize")) / 1e9;
    let write_s = stage_total("json.write") / 1e9;
    let parse_s = stage_total("json.parse") / 1e9;

    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("json.parse_p50_us", p("json.parse", 50.0));
    put(
        "json.parse_mb_per_s",
        ratio(counts.bytes_in as f64 / 1e6, parse_s),
    );
    put("json.write_p50_us", p("json.write", 50.0));
    put(
        "json.write_mb_per_s",
        ratio(counts.bytes_out as f64 / 1e6, write_s),
    );
    put(
        "server.parse_request_p50_us",
        p("server.parse_request", 50.0),
    );
    put("server.dispatch_p50_us", p("server.dispatch", 50.0));
    put("server.exchange_p50_us", us(median(&exchange)));
    put("server.exchange_p90_us", us(percentile(&exchange, 90.0)));
    put(
        "server.stage_sum_over_exchange",
        ratio(stage_sum, exchange_total),
    );
    put("plan.p50_us", p("plan", 50.0));
    put("plan.p90_us", p("plan", 90.0));
    put("plan.share", ratio(stage_total("plan"), stage_sum));
    put("plan.cells_per_req", ratio(cells, n));
    for engine in [
        "counting",
        "enumeration",
        "packed",
        "scalar",
        "importance",
        "simulation",
    ] {
        let count = counts.engines.get(engine).copied().unwrap_or(0) as f64;
        put(&format!("plan.engine_share.{engine}"), ratio(count, cells));
    }
    put(
        "cache.hit_rate",
        ratio(counts.hits as f64, (counts.hits + counts.misses) as f64),
    );
    put("cache.misses_per_req", ratio(counts.misses as f64, n));
    put("cache.evictions_per_req", ratio(counts.evictions as f64, n));
    put("cache.entries_end", counts.entries_end as f64);
    put("execute.p50_us", p("execute", 50.0));
    put("execute.p90_us", p("execute", 90.0));
    put(
        "execute.share",
        ratio(stage_total("execute") + stage_total("optimize"), stage_sum),
    );
    put(
        "execute.first_cell_p50_us",
        us(median(&sorted(counts.first_cell_ns.clone()))),
    );
    put("execute.cells_per_s", ratio(cells, execute_s));
    put("execute.samples_per_req", ratio(counts.samples as f64, n));
    put(
        "execute.samples_per_s",
        ratio(counts.samples as f64, execute_s),
    );
    put("record.serialize_p50_us", p("record", 50.0));
    put("record.share", ratio(stage_total("record"), stage_sum));
    put(
        "record.bytes_per_cell",
        ratio(
            counts.bytes_out as f64,
            (counts.cells + counts.trajectories) as f64,
        ),
    );
    put(
        "rare_event.samples_per_s",
        ratio(counts.is_samples as f64, counts.is_wall_ns as f64 / 1e9),
    );
    put(
        "rare_event.ess_share",
        ratio(counts.is_ess, counts.is_samples as f64),
    );
    put(
        "simulation.traces_per_s",
        ratio(counts.sim_trials as f64, counts.sim_wall_ns as f64 / 1e9),
    );
    put(
        "epistemic.draws_per_s",
        ratio(
            counts.epistemic_draws as f64,
            counts.epistemic_wall_ns as f64 / 1e9,
        ),
    );
    put(
        "optimize.candidates_per_s",
        ratio(counts.screened as f64, stage_total("optimize") / 1e9),
    );
    put(
        "optimize.refined_share",
        ratio(counts.refined as f64, counts.screened as f64),
    );
    put(
        "trace.overhead_share",
        ratio(traced_wall - untraced_wall, untraced_wall),
    );
    put("trace.requests", n);

    Ok(Traced {
        metrics: m,
        spans,
        requests: replayed.len(),
    })
}

/// Median wall time of `body` over at least three runs (more while they fit
/// in 0.3 s), after one untimed run.
fn median_wall_s(mut body: impl FnMut()) -> f64 {
    body();
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < 3 || (started.elapsed() < Duration::from_millis(300) && walls.len() < 50) {
        let t = Instant::now();
        body();
        walls.push(t.elapsed().as_secs_f64());
    }
    median(&sorted(walls))
}

/// `scheduler.*`: one thread against all of them on the workload's own plan —
/// the first query of its stream.
pub fn scheduler_metrics(
    requests: &[Request],
    threads: usize,
) -> Result<BTreeMap<String, f64>, String> {
    let line = &requests
        .iter()
        .find(|r| !matches!(r.op, Op::Stats | Op::Optimize))
        .ok_or("the stream has no query to plan")?
        .line;
    let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let parsed = parse_query(value.get("query").ok_or("missing 'query'")?)?;
    let wall = |threads: usize| -> Result<f64, String> {
        let session = AnalysisSession::with_threads(threads);
        let plan = session.plan(&parsed.query).map_err(|e| e.to_string())?;
        Ok(median_wall_s(|| {
            std::hint::black_box(plan.execute());
        }))
    };
    let speedup = ratio(wall(1)?, wall(threads)?);
    Ok(BTreeMap::from([
        ("scheduler.speedup_nt".to_string(), speedup),
        ("scheduler.efficiency".to_string(), speedup / threads as f64),
    ]))
}

/// `packed.*` / `montecarlo.*`: direct kernel calls on Raft N=101 under a
/// whole-cluster shock, the largest scenario of `heavy-sweep`.
pub fn kernel_metrics(threads: usize) -> BTreeMap<String, f64> {
    const N: usize = 101;
    const PACKED_SAMPLES: usize = 1_000_000;
    const SCALAR_SAMPLES: usize = 50_000;
    let model = RaftModel::standard(N);
    let failures = CorrelationModel::independent(vec![FaultProfile::crash_only(0.05); N])
        .with_group(CorrelationGroup::crash_shock((0..N).collect(), 0.02));
    let rate = |threads: usize, kernel: McKernel, samples: usize| -> f64 {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds");
        let wall = pool.install(|| {
            median_wall_s(|| {
                std::hint::black_box(monte_carlo_reliability_par_kernel(
                    &model, &failures, samples, 17, kernel,
                ));
            })
        });
        samples as f64 / wall
    };
    BTreeMap::from([
        (
            "packed.samples_per_s_1t".to_string(),
            rate(1, McKernel::Packed, PACKED_SAMPLES),
        ),
        (
            "packed.samples_per_s_nt".to_string(),
            rate(threads, McKernel::Packed, PACKED_SAMPLES),
        ),
        (
            "montecarlo.scalar_samples_per_s".to_string(),
            rate(threads, McKernel::Scalar, SCALAR_SAMPLES),
        ),
    ])
}

/// Writes the spans as NDJSON, one per line, with each span's self time (its
/// duration minus its children's).
pub fn write_spans(path: &Path, spans: &[Span], requests: &[Request]) -> std::io::Result<()> {
    let mut children_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children_ns[parent] += span.ns();
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (index, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{index},\"name\":\"{}\",\"request\":\"{}\",\"parent\":{parent},\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            span.name,
            requests[span.request].id,
            span.start_ns,
            span.end_ns,
            span.ns().saturating_sub(children_ns[index]),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{interleaved, Workload};

    #[test]
    fn stage_spans_nest_under_their_request_and_sum_below_it() {
        let requests = interleaved(Workload::WarmLookup, 1, 2, 8);
        let traced = run(&requests, 0, Duration::from_secs(10)).unwrap();
        assert_eq!(traced.requests, 8);
        assert_eq!(traced.metrics["trace.requests"], 8.0);
        let roots: Vec<usize> = (0..traced.spans.len())
            .filter(|&i| traced.spans[i].name == "request")
            .collect();
        assert_eq!(roots.len(), 8);
        for &root in &roots {
            let children: u64 = traced
                .spans
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(Span::ns)
                .sum();
            assert!(children <= traced.spans[root].ns());
        }
        // The first 8 warm-up requests are distinct queries: all misses.
        assert_eq!(traced.metrics["cache.hit_rate"], 0.0);
        assert!(traced.metrics["plan.engine_share.counting"] > 0.0);
    }

    #[test]
    fn mixed_ops_reach_importance_sampling_simulation_and_the_optimizer() {
        let requests = interleaved(Workload::MixedOps, 1, 1, 6);
        let traced = run(&requests, 0, Duration::from_secs(60)).unwrap();
        for name in [
            "plan.engine_share.importance",
            "plan.engine_share.simulation",
            "optimize.candidates_per_s",
            "epistemic.draws_per_s",
        ] {
            assert!(traced.metrics[name] > 0.0, "{name} is zero");
        }
    }
}
