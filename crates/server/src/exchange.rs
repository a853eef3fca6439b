//! The server: one shared session, its stats, and what one request line does.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prob_consensus::json::JsonValue;
use prob_consensus::optimize::{optimize, OptimizeReport};
use prob_consensus::query::{
    AnalysisReport, AnalysisSession, CellRecord, Metrics, StreamSink, TrajectoryRecord,
};

use crate::transport::{emit, Outbox};
use crate::wire::{read_request, Request};

pub(crate) fn event(id: &JsonValue, kind: &str, rest: Vec<(&str, JsonValue)>) -> JsonValue {
    let head = [("id", id.clone()), ("event", JsonValue::string(kind))];
    let members = head.into_iter().chain(rest);
    JsonValue::Object(members.map(|(k, v)| (k.to_string(), v)).collect())
}

pub(crate) fn error_event(id: &JsonValue, message: impl Into<String>) -> JsonValue {
    event(id, "error", vec![("message", JsonValue::string(message))])
}

/// An object of numbers, in the order given.
fn numbers(members: &[(&str, f64)]) -> JsonValue {
    let members = members
        .iter()
        .map(|&(k, v)| (k.to_string(), JsonValue::number(v)));
    JsonValue::Object(members.collect())
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "internal error".to_string()
    }
}

/// Running totals behind the protocol's `stats` request — the first
/// observability hook for the service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Query requests that ran to completion (a `done` event was emitted).
    pub(crate) queries_completed: u64,
    /// Wall time of the last completed query execution or optimizer search, in ms.
    pub(crate) last_plan_wall_ms: f64,
    /// Total wall time of all completed query executions and optimizer searches, in ms.
    pub(crate) total_plan_wall_ms: f64,
    /// Second-order cells served (cells that carried an epistemic report).
    pub(crate) epistemic_cells: u64,
    /// Posterior draws executed across all second-order cells.
    pub(crate) posterior_draws: u64,
    /// Deployment-optimizer searches that ran to completion.
    pub(crate) optimizations_completed: u64,
    /// What the writer threads handed to peers, summed over connections.
    pub(crate) wire: WireStats,
}

/// Output-path totals: `events / writes` is how many event lines left per
/// socket write (in-memory exchanges have no peer and count nothing here).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WireStats {
    /// Event lines handed to peers.
    pub(crate) events: u64,
    /// Writes that carried them.
    pub(crate) writes: u64,
    /// Bytes handed to peers.
    pub(crate) bytes_out: u64,
}

/// The service: one shared [`AnalysisSession`] (scratch cache + worker pool)
/// serving any number of concurrent NDJSON connections and queries.
pub struct Server {
    session: Arc<AnalysisSession>,
    pub(crate) stats: Mutex<ServerStats>,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

/// How a handled request line affects the connection loop.
pub(crate) enum Action {
    /// Fully handled inline (stats, errors).
    Handled,
    /// A query was submitted; the connection tracks it for draining.
    Spawned(rayon::TaskSet),
    /// Drain in-flight queries, acknowledge, and close the connection.
    Shutdown(JsonValue),
}

/// The streaming sink of one in-flight query: every completed record becomes
/// one NDJSON event in the connection's outbox the moment it is final.
struct NdjsonSink {
    id: JsonValue,
    metrics: Metrics,
    writer: Arc<Outbox>,
}

impl StreamSink for NdjsonSink {
    fn on_cell(&self, index: usize, record: &CellRecord) {
        let index = ("index", JsonValue::number(index as f64));
        let cell = ("cell", record.to_json_value(self.metrics));
        emit(&self.writer, &event(&self.id, "cell", vec![index, cell]));
    }

    fn on_trajectory(&self, index: usize, record: &TrajectoryRecord) {
        let index = ("index", JsonValue::number(index as f64));
        let trajectory = ("trajectory", record.to_json_value());
        emit(
            &self.writer,
            &event(&self.id, "trajectory", vec![index, trajectory]),
        );
    }
}

impl Server {
    /// A server over a fresh session with the default cache capacity.
    pub fn new() -> Self {
        Self {
            session: Arc::new(AnalysisSession::new()),
            stats: Mutex::new(ServerStats::default()),
        }
    }

    /// The shared session behind every request.
    pub fn session(&self) -> &Arc<AnalysisSession> {
        &self.session
    }

    /// A snapshot of the per-plan wall-time counters.
    pub fn stats(&self) -> ServerStats {
        // Never poisoned: every stats guard only reads or bumps plain counters.
        *self.stats.lock().expect("stats lock")
    }

    fn stats_event(&self, id: &JsonValue) -> JsonValue {
        let (cache, stats) = (self.session.cache_stats(), self.stats());
        let count = |n: u64| JsonValue::number(n as f64);
        let members = vec![
            (
                "cache",
                numbers(&[
                    ("hits", cache.hits as f64),
                    ("misses", cache.misses as f64),
                    ("evictions", cache.evictions as f64),
                    ("entries", cache.entries as f64),
                    ("hit_rate", cache.hit_rate()),
                ]),
            ),
            ("queries_completed", count(stats.queries_completed)),
            ("epistemic_cells", count(stats.epistemic_cells)),
            ("posterior_draws", count(stats.posterior_draws)),
            (
                "optimizations_completed",
                count(stats.optimizations_completed),
            ),
            (
                "plan_wall_ms",
                numbers(&[
                    ("last", stats.last_plan_wall_ms),
                    ("total", stats.total_plan_wall_ms),
                ]),
            ),
            (
                "wire",
                numbers(&[
                    ("events", stats.wire.events as f64),
                    ("writes", stats.wire.writes as f64),
                    ("bytes_out", stats.wire.bytes_out as f64),
                ]),
            ),
        ];
        event(id, "stats", members)
    }
}

/// Runs `work`, turning a panic into an error like any other.
fn caught<T>(work: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| Err(panic_message(payload)))
}

/// A long request's result: what it adds to the stats and what it answers.
trait Finished {
    /// Adds this result to `stats`; its wall time is already counted.
    fn count(&self, stats: &mut ServerStats);
    /// The events before `done`, then the `done` event's members before
    /// `wall_ms`.
    fn answer(&self, id: &JsonValue) -> (Vec<JsonValue>, Vec<(&'static str, JsonValue)>);
}

impl Finished for AnalysisReport {
    fn count(&self, stats: &mut ServerStats) {
        stats.queries_completed += 1;
        for e in self.cells().iter().filter_map(|c| c.epistemic.as_ref()) {
            stats.epistemic_cells += 1;
            stats.posterior_draws += e.draws.len() as u64;
        }
    }

    fn answer(&self, _: &JsonValue) -> (Vec<JsonValue>, Vec<(&'static str, JsonValue)>) {
        let cells = JsonValue::number(self.cells().len() as f64);
        let trajectories = JsonValue::number(self.trajectories().len() as f64);
        (
            Vec::new(),
            vec![("cells", cells), ("trajectories", trajectories)],
        )
    }
}

impl Finished for OptimizeReport {
    fn count(&self, stats: &mut ServerStats) {
        stats.optimizations_completed += 1;
    }

    fn answer(&self, id: &JsonValue) -> (Vec<JsonValue>, Vec<(&'static str, JsonValue)>) {
        let report = event(id, "optimize", vec![("report", self.to_json_value())]);
        let frontier = JsonValue::number(self.frontier.len() as f64);
        let evaluated = JsonValue::number(self.evaluated.len() as f64);
        (
            vec![report],
            vec![("frontier", frontier), ("evaluated", evaluated)],
        )
    }
}

/// Submits `work` as one owned task on the shared pool, so many requests'
/// work items interleave on it (nested `for_each_task` inside is deadlock-free
/// by the pool's caller-helps design). The task times `work` and catches its
/// panics; a result is counted into the stats and answered with its events
/// and `done`, a failure with one `{failure} failed: …` error.
fn submit<T: Finished>(
    server: &Arc<Server>,
    writer: &Arc<Outbox>,
    id: JsonValue,
    failure: &'static str,
    work: impl Fn(&Server) -> Result<T, String> + Send + Sync + 'static,
) -> Action {
    let server = Arc::clone(server);
    let writer = Arc::clone(writer);
    let task: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_| {
        let start = Instant::now();
        match caught(|| work(&server)) {
            Ok(result) => {
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                {
                    // Never poisoned: every stats guard only reads or bumps plain counters.
                    let mut stats = server.stats.lock().expect("stats lock");
                    stats.last_plan_wall_ms = wall_ms;
                    stats.total_plan_wall_ms += wall_ms;
                    result.count(&mut stats);
                }
                let (events, mut done) = result.answer(&id);
                for e in &events {
                    emit(&writer, e);
                }
                done.push(("wall_ms", JsonValue::number(wall_ms)));
                emit(&writer, &event(&id, "done", done));
            }
            Err(err) => emit(
                &writer,
                &error_event(&id, format!("{failure} failed: {err}")),
            ),
        }
    });
    Action::Spawned(rayon::submit_tasks(1, task))
}

/// Handles one request line: plans and submits queries and searches
/// (returning the [`rayon::TaskSet`] handle so the connection can drain it),
/// answers `stats` inline, and turns every failure into an `error` event.
pub(crate) fn handle_line(server: &Arc<Server>, line: &str, writer: &Arc<Outbox>) -> Action {
    let fail = |id: &JsonValue, message: String| {
        emit(writer, &error_event(id, message));
        Action::Handled
    };
    let request = match JsonValue::parse(line) {
        Ok(v) => v,
        Err(err) => return fail(&JsonValue::Null, format!("bad JSON: {err}")),
    };
    let id = request.get("id").cloned().unwrap_or(JsonValue::Null);
    // Reading builds deployments and cell models, and planning builds grid
    // models: their constructors assert, and no request may kill the
    // connection.
    match caught(|| read_request(&request)) {
        Err(err) => fail(&id, err),
        Ok(Request::Query(parsed)) => {
            let plan = caught(|| {
                server
                    .session
                    .plan(&parsed.query)
                    .map_err(|e| e.to_string())
            });
            let plan = match plan {
                Ok(plan) => plan,
                Err(err) => return fail(&id, format!("plan failed: {err}")),
            };
            let sink = NdjsonSink {
                id: id.clone(),
                metrics: parsed.metrics,
                writer: Arc::clone(writer),
            };
            submit(server, writer, id, "execution", move |_| {
                Ok(plan.execute_streaming(&sink))
            })
        }
        Ok(Request::Optimize(parsed)) => submit(server, writer, id, "optimize", move |server| {
            optimize(server.session(), &parsed.space, &parsed.config).map_err(|e| e.to_string())
        }),
        Ok(Request::Stats) => {
            emit(writer, &server.stats_event(&id));
            Action::Handled
        }
        Ok(Request::Shutdown) => Action::Shutdown(id),
    }
}
