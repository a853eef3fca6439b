//! Analysis-as-a-service: the long-running front end behind `repro serve`.
//!
//! The paper's pitch is operational — operators ask "what reliability does this
//! deployment give?" continuously as telemetry shifts, not once per offline run.
//! This crate keeps one [`AnalysisSession`] (and therefore one scratch cache of
//! converted correlation models, compiled packed kernels, selector pilots and
//! learned IS proposals) alive across requests and exposes it over a newline-
//! delimited JSON protocol on stdio or TCP.
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
//! A `posterior` member turns the query second-order: every cell re-runs under
//! `draws` deterministic Beta(`alpha`, `beta`) posterior draws and its record
//! gains an `epistemic` object separating the parameter-uncertainty credible
//! interval from the sampling interval (optional `level`, default 0.9; see
//! `prob_consensus::epistemic`). Malformed posterior payloads — zero draws,
//! non-positive hyperparameters, a level outside (0, 1) — draw an `error` event
//! at plan time and never take the connection down.
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
//! same cache queries use, under the optimizer's own key namespace. The
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
//! before the final event is written. Malformed lines and failed plans produce
//! an `error` event and never take the server down.
//!
//! # Output path
//!
//! Producers never touch a socket. Each connection has one [`Outbox`]: an event
//! is rendered as one compact line and appended to its buffer under its lock,
//! and one writer thread per TCP / stdio connection swaps the buffer out and
//! writes whatever accumulated in a single call. The batching window is the
//! writer's wake-up plus its previous write — no timer, no size threshold — so
//! the first event of a long sweep leaves as soon as it exists, and the events
//! of a fast response leave together. TCP streams run with `TCP_NODELAY`: a
//! response is small writes followed by a read, the pattern on which Nagle's
//! algorithm waits for the peer's delayed ACK (measured: 44 ms per request).
//! A peer that stops reading is cut off, not waited for: past
//! [`TCP_WRITE_TIMEOUT`] without progress, or [`MAX_OUTBOX_BYTES`] queued, the
//! connection is declared dead, its socket shut down and its further events
//! dropped. The `stats` event's `wire` object counts events, writes and bytes
//! handed to peers.
//!
//! The streamed cell records are produced by the same execution path as the
//! one-shot CLI (`QueryPlan::execute_streaming`), so a streamed report
//! re-assembled by index is byte-identical to a one-shot run of the same query
//! (modulo the measured `wall_ns` fields).

use std::io::{BufRead, BufReader, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fault_model::markov::RepairableGroup;
use fault_model::mode::FaultProfile;
use prob_consensus::deployment::Deployment;
use prob_consensus::durability::PersistenceQuorumModel;
use prob_consensus::engine::{Budget, EpistemicBudget, FaultEnvironment};
use prob_consensus::json::JsonValue;
use prob_consensus::optimize::{
    optimize, DeploymentSpace, FailureDomains, NodeType, OptimizerConfig, Placement, RepairPolicy,
    TargetSpec,
};
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{
    AnalysisSession, CellRecord, CorrelationSpec, FaultAxis, Metrics, ProtocolSpec, Query,
    StreamSink, TimeAxis, TrajectoryRecord,
};

/// Upper bound on the bytes a connection may have queued for a peer that is
/// not taking them. A peer this far behind has stopped reading; holding more
/// for it would let one connection exhaust server memory. The check runs
/// before an event is appended, so one event of any size passes an empty
/// outbox.
pub const MAX_OUTBOX_BYTES: usize = 16 << 20;

/// Per-connection write timeout for TCP connections: how long one socket
/// write may make no progress (the peer's window closed, its application not
/// reading) before the connection is given up. Without it the writer thread of
/// a wedged peer, and the connection thread joining it, would never end.
pub const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// The output side of one connection. `emit` renders each event as one
/// compact, newline-terminated line and appends it to the buffer under the
/// lock, so concurrent plans never interleave *within* a line and no producer
/// ever touches the socket. A front end with a peer runs [`Outbox::drain`] on
/// a writer thread, which swaps the buffer out and hands the peer everything
/// that accumulated in one write; an in-memory exchange just takes the buffer.
pub struct Outbox {
    state: Mutex<OutboxState>,
    /// Signalled when the buffer stops being empty, and on close.
    ready: Condvar,
    limit: usize,
    /// The peer's socket, kept only to shut it down when the connection dies,
    /// which ends both the writer's blocked write and the reader loop.
    peer: Option<TcpStream>,
}

#[derive(Default)]
struct OutboxState {
    buf: String,
    /// Events rendered into `buf`.
    events: u64,
    /// No further events will come; the writer drains `buf` and returns.
    closed: bool,
    /// The peer is gone or stopped reading. A dead peer is not a server
    /// error: its events are dropped and the server keeps serving.
    dead: bool,
}

impl Outbox {
    /// An outbox that declares its peer dead once more than `limit` bytes wait
    /// in it, shutting `peer` down when it does.
    pub fn new(limit: usize, peer: Option<TcpStream>) -> Self {
        Self {
            state: Mutex::new(OutboxState::default()),
            ready: Condvar::new(),
            limit,
            peer,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxState> {
        self.state.lock().expect("outbox lock")
    }

    fn kill(&self, state: &mut OutboxState) {
        state.dead = true;
        state.buf = String::new();
        if let Some(peer) = &self.peer {
            let _ = peer.shutdown(Shutdown::Both);
        }
    }

    /// Whether the peer was declared dead (write failure, write timeout, or
    /// more than the limit queued).
    pub fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// No further events will be emitted: lets [`Outbox::drain`] return once
    /// the buffer is written out.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// Takes everything emitted and not yet drained.
    pub fn take(&self) -> String {
        std::mem::take(&mut self.lock().buf)
    }

    /// The writer loop: waits for events, swaps the buffer out and writes it
    /// to `sink` in one call, counting it in the server's `wire` totals first
    /// (so a peer that has read an event finds it counted). Whatever was
    /// emitted while the previous write was in the kernel leaves with the next
    /// one; there is no timer and no size threshold. Returns after
    /// [`Outbox::close`] with the buffer written out, or with the error that
    /// killed the connection.
    pub fn drain(&self, server: &Server, mut sink: impl Write) -> std::io::Result<()> {
        let mut batch = String::new();
        loop {
            let events = {
                let mut state = self.lock();
                while state.buf.is_empty() && !state.closed && !state.dead {
                    state = self.ready.wait(state).expect("outbox lock");
                }
                if state.dead {
                    return Err(std::io::Error::other(format!(
                        "peer left more than {} bytes unread",
                        self.limit
                    )));
                }
                if state.buf.is_empty() {
                    return Ok(());
                }
                std::mem::swap(&mut state.buf, &mut batch);
                std::mem::take(&mut state.events)
            };
            {
                let mut stats = server.stats.lock().expect("stats lock");
                stats.wire.events += events;
                stats.wire.writes += 1;
                stats.wire.bytes_out += batch.len() as u64;
            }
            if let Err(err) = sink.write_all(batch.as_bytes()).and_then(|()| sink.flush()) {
                self.kill(&mut self.lock());
                return Err(err);
            }
            batch.clear();
        }
    }
}

fn emit(outbox: &Outbox, value: &JsonValue) {
    // Rendered before the lock is taken: plans of one connection emit from
    // several workers at once, and the lock is held for one append.
    let mut line = value.to_compact_string();
    line.push('\n');
    let mut state = outbox.lock();
    if state.dead {
        return;
    }
    if state.buf.len() > outbox.limit {
        outbox.kill(&mut state);
        return;
    }
    // The writer waits only on an empty buffer, so only the event that ends
    // the emptiness has anyone to wake.
    let wake = state.buf.is_empty();
    state.buf.push_str(&line);
    state.events += 1;
    drop(state);
    if wake {
        outbox.ready.notify_one();
    }
}

fn event(id: &JsonValue, kind: &str, rest: Vec<(String, JsonValue)>) -> JsonValue {
    let mut members = vec![
        ("id".to_string(), id.clone()),
        ("event".to_string(), JsonValue::string(kind)),
    ];
    members.extend(rest);
    JsonValue::Object(members)
}

fn error_event(id: &JsonValue, message: impl Into<String>) -> JsonValue {
    event(
        id,
        "error",
        vec![("message".to_string(), JsonValue::string(message.into()))],
    )
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

// ---------------------------------------------------------------------------
// Query JSON → `Query`
// ---------------------------------------------------------------------------

fn as_bool(v: &JsonValue) -> Option<bool> {
    match v {
        JsonValue::Bool(b) => Some(*b),
        _ => None,
    }
}

fn as_usize(v: &JsonValue) -> Option<usize> {
    let f = v.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= u32::MAX as f64).then_some(f as usize)
}

fn as_u64(v: &JsonValue) -> Option<u64> {
    let f = v.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= 2f64.powi(53)).then_some(f as u64)
}

fn field<'a>(obj: &'a JsonValue, key: &str, what: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what}: missing '{key}'"))
}

fn num_field(obj: &JsonValue, key: &str, what: &str) -> Result<f64, String> {
    field(obj, key, what)?
        .as_f64()
        .ok_or_else(|| format!("{what}: '{key}' must be a number"))
}

fn usize_field(obj: &JsonValue, key: &str, what: &str) -> Result<usize, String> {
    field(obj, key, what)?
        .as_usize()
        .ok_or_else(|| format!("{what}: '{key}' must be a non-negative integer"))
}

trait JsonExt {
    fn as_usize(&self) -> Option<usize>;
}

impl JsonExt for JsonValue {
    fn as_usize(&self) -> Option<usize> {
        as_usize(self)
    }
}

fn parse_protocol(v: &JsonValue) -> Result<ProtocolSpec, String> {
    match v.as_str() {
        Some("raft") => return Ok(ProtocolSpec::Raft),
        Some("pbft") => return Ok(ProtocolSpec::Pbft),
        Some(other) => return Err(format!("unknown protocol '{other}'")),
        None => {}
    }
    if let Some(flex) = v.get("raft_flexible") {
        return Ok(ProtocolSpec::RaftFlexible {
            q_per: usize_field(flex, "q_per", "raft_flexible")?,
            q_vc: usize_field(flex, "q_vc", "raft_flexible")?,
        });
    }
    Err("protocol must be \"raft\", \"pbft\" or {\"raft_flexible\":{...}}".to_string())
}

fn parse_faults(v: &JsonValue) -> Result<FaultAxis, String> {
    match v.as_str() {
        Some("crash") => return Ok(FaultAxis::Crash),
        Some("byzantine") => return Ok(FaultAxis::Byzantine),
        Some(other) => return Err(format!("unknown fault axis '{other}'")),
        None => {}
    }
    if let Some(mixed) = v.get("mixed") {
        return Ok(FaultAxis::Mixed {
            byzantine: num_field(mixed, "byzantine", "mixed faults")?,
        });
    }
    Err("faults must be \"crash\", \"byzantine\" or {\"mixed\":{\"byzantine\":p}}".to_string())
}

fn parse_correlation(v: &JsonValue) -> Result<CorrelationSpec, String> {
    match v.as_str() {
        Some("independent") => return Ok(CorrelationSpec::Independent),
        Some(other) => return Err(format!("unknown correlation '{other}'")),
        None => {}
    }
    if let Some(shock) = v.get("cluster_shock") {
        return Ok(CorrelationSpec::ClusterShock {
            probability: num_field(shock, "probability", "cluster_shock")?,
        });
    }
    if let Some(shock) = v.get("rack_shock") {
        return Ok(CorrelationSpec::RackShock {
            racks: usize_field(shock, "racks", "rack_shock")?,
            probability: num_field(shock, "probability", "rack_shock")?,
        });
    }
    Err(
        "correlation must be \"independent\", {\"cluster_shock\":{...}} or {\"rack_shock\":{...}}"
            .to_string(),
    )
}

fn parse_fault_probs(v: &JsonValue) -> Result<Vec<f64>, String> {
    if let Some(items) = v.as_array() {
        return items
            .iter()
            .map(|p| {
                p.as_f64()
                    .ok_or_else(|| "fault_probs: not a number".to_string())
            })
            .collect();
    }
    if let Some(spec) = v.get("logspace") {
        let lo = num_field(spec, "lo", "logspace")?;
        let hi = num_field(spec, "hi", "logspace")?;
        let count = usize_field(spec, "count", "logspace")?;
        if !(lo > 0.0 && hi >= lo && lo.is_finite() && hi.is_finite() && count >= 1) {
            return Err(format!(
                "logspace needs 0 < lo <= hi and count >= 1, got [{lo}, {hi}] x{count}"
            ));
        }
        return Ok(prob_consensus::query::logspace(lo, hi, count));
    }
    Err(
        "fault_probs must be an array of numbers or {\"logspace\":{\"lo\",\"hi\",\"count\"}}"
            .to_string(),
    )
}

fn parse_deployment(v: &JsonValue) -> Result<Deployment, String> {
    if let Some(spec) = v.get("uniform_crash") {
        let n = usize_field(spec, "n", "uniform_crash")?;
        let p = num_field(spec, "p", "uniform_crash")?;
        check_probability(p, "uniform_crash p")?;
        return Ok(Deployment::uniform_crash(n, p));
    }
    if let Some(spec) = v.get("uniform_byzantine") {
        let n = usize_field(spec, "n", "uniform_byzantine")?;
        let p = num_field(spec, "p", "uniform_byzantine")?;
        check_probability(p, "uniform_byzantine p")?;
        return Ok(Deployment::uniform_byzantine(n, p));
    }
    if let Some(spec) = v.get("uniform_mixed") {
        let n = usize_field(spec, "n", "uniform_mixed")?;
        let crash = num_field(spec, "crash", "uniform_mixed")?;
        let byzantine = num_field(spec, "byzantine", "uniform_mixed")?;
        check_probability(crash, "uniform_mixed crash")?;
        check_probability(byzantine, "uniform_mixed byzantine")?;
        return Ok(Deployment::uniform_mixed(n, crash, byzantine));
    }
    Err(
        "deployment must be {\"uniform_crash\"|\"uniform_byzantine\"|\"uniform_mixed\":{...}}"
            .to_string(),
    )
}

fn check_probability(p: f64, what: &str) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{what} must be a probability in [0, 1], got {p}"))
    }
}

fn parse_cell_model(
    v: &JsonValue,
    n: usize,
) -> Result<Arc<dyn ProtocolModel + Send + Sync>, String> {
    if let Some(spec) = v.get("persistence_quorum") {
        let quorum: Vec<usize> = spec
            .get("quorum")
            .and_then(|q| q.as_array())
            .ok_or("persistence_quorum: 'quorum' must be an array of node indices")?
            .iter()
            .map(|m| as_usize(m).ok_or("persistence_quorum: bad member index".to_string()))
            .collect::<Result<_, _>>()?;
        if quorum.is_empty() {
            return Err("persistence_quorum: quorum cannot be empty".to_string());
        }
        let mut seen = vec![false; n];
        for &m in &quorum {
            if m >= n {
                return Err(format!(
                    "persistence_quorum: member {m} out of range for {n} nodes"
                ));
            }
            if std::mem::replace(&mut seen[m], true) {
                return Err(format!("persistence_quorum: member {m} repeated"));
            }
        }
        return Ok(Arc::new(PersistenceQuorumModel::new(n, quorum)));
    }
    // Everything else is a grid protocol spec instantiated at the cell's size.
    Ok(parse_protocol(v)?.build(n))
}

fn parse_time_axis(v: &JsonValue) -> Result<TimeAxis, String> {
    let horizon = num_field(v, "horizon_hours", "time_axis")?;
    let step = num_field(v, "step_hours", "time_axis")?;
    if !(horizon >= 0.0 && horizon.is_finite() && step > 0.0 && step.is_finite()) {
        return Err(format!(
            "time_axis needs horizon >= 0 and step > 0, got {horizon}/{step}"
        ));
    }
    let mut axis = TimeAxis::new(horizon, step);
    if let Some(window) = v.get("window_hours") {
        let w = window
            .as_f64()
            .ok_or("time_axis: 'window_hours' must be a number")?;
        if !(w > 0.0 && w.is_finite()) {
            return Err(format!("time_axis window must be positive, got {w}"));
        }
        axis = axis.with_window(w);
    }
    if let Some(target) = v.get("target_nines") {
        let t = target
            .as_f64()
            .ok_or("time_axis: 'target_nines' must be a number")?;
        axis = axis.with_target_nines(t);
    }
    Ok(axis)
}

/// A parsed `query` request body: the [`Query`] plus the metrics selection the
/// streaming sink needs to serialize cell records exactly as the report would.
pub struct ParsedQuery {
    /// The query, ready for [`AnalysisSession::plan`].
    pub query: Query,
    /// The report metrics selection (default: all three guarantees).
    pub metrics: Metrics,
}

/// Parses the `query` object of a `{"op":"query"}` request into a [`Query`].
///
/// Unknown keys are rejected — a misspelled axis silently defaulting would be
/// the worst possible failure mode for an operator tool.
pub fn parse_query(spec: &JsonValue) -> Result<ParsedQuery, String> {
    let JsonValue::Object(members) = spec else {
        return Err("query must be an object".to_string());
    };
    let mut query = Query::new();
    let mut budget = Budget::default();
    let mut metrics = Metrics::default();
    for (key, value) in members {
        match key.as_str() {
            "protocols" => {
                let specs: Vec<ProtocolSpec> = value
                    .as_array()
                    .ok_or("protocols must be an array")?
                    .iter()
                    .map(parse_protocol)
                    .collect::<Result<_, _>>()?;
                query = query.protocols(specs);
            }
            "nodes" => {
                let nodes: Vec<usize> = value
                    .as_array()
                    .ok_or("nodes must be an array")?
                    .iter()
                    .map(|n| as_usize(n).ok_or("nodes: not a non-negative integer".to_string()))
                    .collect::<Result<_, _>>()?;
                query = query.nodes(nodes);
            }
            "fault_probs" => query = query.fault_probs(parse_fault_probs(value)?),
            "faults" => query = query.faults(parse_faults(value)?),
            "correlations" => {
                let specs: Vec<CorrelationSpec> = value
                    .as_array()
                    .ok_or("correlations must be an array")?
                    .iter()
                    .map(parse_correlation)
                    .collect::<Result<_, _>>()?;
                query = query.correlations(specs);
            }
            "samples" => {
                budget = budget.with_samples(as_usize(value).ok_or("samples must be an integer")?);
            }
            "seed" => budget = budget.with_seed(as_u64(value).ok_or("seed must be an integer")?),
            "posterior" => {
                let JsonValue::Object(posterior_members) = value else {
                    return Err("posterior must be an object".to_string());
                };
                for (sub, _) in posterior_members {
                    if !matches!(sub.as_str(), "draws" | "alpha" | "beta" | "level") {
                        return Err(format!("unknown posterior key '{sub}'"));
                    }
                }
                let draws = usize_field(value, "draws", "posterior")?;
                let alpha = num_field(value, "alpha", "posterior")?;
                let beta = num_field(value, "beta", "posterior")?;
                // The builder is assert-free: hyperparameter/level sanity is
                // plan-time validation, so a hostile payload draws an `error`
                // event instead of panicking a worker.
                let mut epistemic = EpistemicBudget::new(draws, alpha, beta);
                if let Some(level) = value.get("level") {
                    epistemic = epistemic.with_level(
                        level
                            .as_f64()
                            .ok_or("posterior: 'level' must be a number")?,
                    );
                }
                budget = budget.with_epistemic(epistemic);
            }
            "samples_sweep" => {
                let sweep: Vec<usize> = value
                    .as_array()
                    .ok_or("samples_sweep must be an array")?
                    .iter()
                    .map(|s| as_usize(s).ok_or("samples_sweep: not an integer".to_string()))
                    .collect::<Result<_, _>>()?;
                query = query.samples_sweep(sweep);
            }
            "validate" => {
                if as_bool(value).ok_or("validate must be a boolean")? {
                    query = query.validate_with_simulation();
                }
            }
            "environments" => {
                let environments: Vec<FaultEnvironment> = value
                    .as_array()
                    .ok_or("environments must be an array")?
                    .iter()
                    .map(|e| {
                        let label = e
                            .as_str()
                            .ok_or_else(|| "environments: entries must be strings".to_string())?;
                        FaultEnvironment::from_label(label).ok_or_else(|| {
                            format!(
                                "environments: unknown environment '{label}' (one of: clean, \
                                 gray-primary, partition-heal, wan-lossy)"
                            )
                        })
                    })
                    .collect::<Result<_, _>>()?;
                query = query.fault_environments(environments);
            }
            "metrics" => {
                let m = Metrics {
                    safe: value.get("safe").map_or(Ok(true), |v| {
                        as_bool(v).ok_or("metrics.safe must be a boolean")
                    })?,
                    live: value.get("live").map_or(Ok(true), |v| {
                        as_bool(v).ok_or("metrics.live must be a boolean")
                    })?,
                    safe_and_live: value.get("safe_and_live").map_or(Ok(true), |v| {
                        as_bool(v).ok_or("metrics.safe_and_live must be a boolean")
                    })?,
                };
                metrics = m;
                query = query.metrics(m);
            }
            "time_axis" => query = query.time_horizon(parse_time_axis(value)?),
            "cells" => {
                for cell in value.as_array().ok_or("cells must be an array")? {
                    let label = field(cell, "label", "cell")?
                        .as_str()
                        .ok_or("cell: 'label' must be a string")?
                        .to_string();
                    let deployment = parse_deployment(field(cell, "deployment", "cell")?)?;
                    let model = parse_cell_model(field(cell, "model", "cell")?, deployment.len())?;
                    query = query.cell(label, model, deployment);
                }
            }
            "repairable_cells" => {
                for cell in value
                    .as_array()
                    .ok_or("repairable_cells must be an array")?
                {
                    let label = field(cell, "label", "repairable cell")?
                        .as_str()
                        .ok_or("repairable cell: 'label' must be a string")?
                        .to_string();
                    let n = usize_field(cell, "n", "repairable cell")?;
                    let lambda = num_field(cell, "lambda", "repairable cell")?;
                    let mu = num_field(cell, "mu", "repairable cell")?;
                    let tolerated = usize_field(cell, "tolerated_failures", "repairable cell")?;
                    if n == 0 || tolerated >= n {
                        return Err(format!(
                            "repairable cell needs 0 <= tolerated_failures < n, got {tolerated}/{n}"
                        ));
                    }
                    if !(lambda > 0.0 && lambda.is_finite() && mu >= 0.0 && mu.is_finite()) {
                        return Err(format!(
                            "repairable cell needs lambda > 0 and mu >= 0, got {lambda}/{mu}"
                        ));
                    }
                    query = query
                        .repairable_cell(label, RepairableGroup::new(n, lambda, mu, tolerated));
                }
            }
            other => return Err(format!("unknown query key '{other}'")),
        }
    }
    query = query.budget(budget);
    if query.cell_count() == 0 && query.trajectory_count() == 0 {
        return Err("query expands to zero cells".to_string());
    }
    Ok(ParsedQuery { query, metrics })
}

// ---------------------------------------------------------------------------
// Optimize JSON → `DeploymentSpace` + `OptimizerConfig`
// ---------------------------------------------------------------------------

/// A parsed `optimize` request body, ready for
/// [`prob_consensus::optimize::optimize`].
pub struct ParsedOptimize {
    /// The deployment search space.
    pub space: DeploymentSpace,
    /// The search configuration (target nines, tier budgets, seeds).
    pub config: OptimizerConfig,
}

fn parse_space(v: &JsonValue) -> Result<DeploymentSpace, String> {
    let JsonValue::Object(members) = v else {
        return Err("space must be an object".to_string());
    };
    let mut instances = Vec::new();
    let mut nodes = Vec::new();
    let mut domains = None;
    let mut placements = Vec::new();
    let mut target = None;
    for (key, value) in members {
        match key.as_str() {
            "instances" => {
                for instance in value.as_array().ok_or("instances must be an array")? {
                    if let JsonValue::Object(fields) = instance {
                        for (sub, _) in fields {
                            if !matches!(
                                sub.as_str(),
                                "name"
                                    | "fault_probability"
                                    | "byzantine_probability"
                                    | "hourly_cost"
                            ) {
                                return Err(format!("unknown instance key '{sub}'"));
                            }
                        }
                    }
                    let name = field(instance, "name", "instance")?
                        .as_str()
                        .ok_or("instance: 'name' must be a string")?
                        .to_string();
                    let crash = num_field(instance, "fault_probability", "instance")?;
                    let byzantine = match instance.get("byzantine_probability") {
                        Some(b) => b
                            .as_f64()
                            .ok_or("instance: 'byzantine_probability' must be a number")?,
                        None => 0.0,
                    };
                    let cost = num_field(instance, "hourly_cost", "instance")?;
                    if !((0.0..=1.0).contains(&crash)
                        && (0.0..=1.0).contains(&byzantine)
                        && crash + byzantine <= 1.0)
                    {
                        return Err(format!(
                            "instance '{name}': fault probabilities must lie in [0, 1] and sum \
                             to at most 1"
                        ));
                    }
                    if !(cost.is_finite() && cost >= 0.0) {
                        return Err(format!(
                            "instance '{name}': hourly_cost must be finite and non-negative"
                        ));
                    }
                    instances.push(NodeType::from_profile(
                        name,
                        FaultProfile::new(crash, byzantine),
                        cost,
                    ));
                }
            }
            "nodes" => {
                nodes = value
                    .as_array()
                    .ok_or("nodes must be an array")?
                    .iter()
                    .map(|n| as_usize(n).ok_or("nodes: not a non-negative integer".to_string()))
                    .collect::<Result<_, _>>()?;
            }
            "domains" => {
                if let JsonValue::Object(fields) = value {
                    for (sub, _) in fields {
                        if !matches!(sub.as_str(), "racks" | "shock_probability") {
                            return Err(format!("unknown domains key '{sub}'"));
                        }
                    }
                }
                let shock = num_field(value, "shock_probability", "domains")?;
                if !(0.0..=1.0).contains(&shock) {
                    return Err("domains: shock_probability must lie in [0, 1]".to_string());
                }
                domains = Some(FailureDomains {
                    racks: usize_field(value, "racks", "domains")?,
                    shock_probability: shock,
                });
            }
            "placements" => {
                placements = value
                    .as_array()
                    .ok_or("placements must be an array")?
                    .iter()
                    .map(|p| match p.as_str() {
                        Some("same-rack") => Ok(Placement::SameRack),
                        Some("cross-rack") => Ok(Placement::CrossRack),
                        _ => Err(
                            "placements: entries must be \"same-rack\" or \"cross-rack\""
                                .to_string(),
                        ),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "target" => {
                target = Some(if value.get("quorum_size").is_some() {
                    TargetSpec::PersistenceQuorum {
                        quorum_size: usize_field(value, "quorum_size", "target")?,
                    }
                } else if let Some(protocol) = value.get("protocol") {
                    TargetSpec::Protocol(parse_protocol(protocol)?)
                } else {
                    return Err("target must carry 'protocol' or 'quorum_size'".to_string());
                });
            }
            other => return Err(format!("unknown space key '{other}'")),
        }
    }
    Ok(DeploymentSpace {
        instances,
        nodes,
        domains,
        placements,
        target: target.ok_or("space: missing 'target'")?,
    })
}

fn parse_optimizer_config(v: &JsonValue) -> Result<OptimizerConfig, String> {
    let JsonValue::Object(members) = v else {
        return Err("config must be an object".to_string());
    };
    let target = num_field(v, "target_nines", "config")?;
    // The builder asserts on junk targets; a hostile payload must draw an
    // `error` event instead of panicking a worker.
    if !(target.is_finite() && target >= 0.0) {
        return Err("config: target_nines must be finite and non-negative".to_string());
    }
    let mut config = OptimizerConfig::new(target);
    for (key, value) in members {
        match key.as_str() {
            "target_nines" => {}
            "screen_samples" => {
                config = config.with_screen_samples(
                    as_usize(value)
                        .ok_or("config: 'screen_samples' must be a non-negative integer")?,
                );
            }
            "refine_samples" => {
                config = config.with_refine_samples(
                    as_usize(value)
                        .ok_or("config: 'refine_samples' must be a non-negative integer")?,
                );
            }
            "seed" => {
                config =
                    config.with_seed(as_u64(value).ok_or("config: 'seed' must be an integer")?);
            }
            "rare_event_threshold" => {
                let threshold = value
                    .as_f64()
                    .ok_or("config: 'rare_event_threshold' must be a number")?;
                if !(threshold > 0.0 && threshold < 1.0) {
                    return Err(
                        "config: rare_event_threshold must lie strictly in (0, 1)".to_string()
                    );
                }
                config = config.with_rare_event_threshold(threshold);
            }
            "repair" => {
                if let JsonValue::Object(fields) = value {
                    for (sub, _) in fields {
                        if !matches!(sub.as_str(), "mttr_hours" | "mission_hours") {
                            return Err(format!("unknown repair key '{sub}'"));
                        }
                    }
                }
                let mttr_hours = num_field(value, "mttr_hours", "repair")?;
                let mission_hours = num_field(value, "mission_hours", "repair")?;
                if !(mttr_hours > 0.0
                    && mttr_hours.is_finite()
                    && mission_hours > 0.0
                    && mission_hours.is_finite())
                {
                    return Err("repair: hours must be positive and finite".to_string());
                }
                config = config.with_repair(RepairPolicy {
                    mttr_hours,
                    mission_hours,
                });
            }
            other => return Err(format!("unknown config key '{other}'")),
        }
    }
    Ok(config)
}

/// Parses the `space` and `config` members of an `{"op":"optimize"}` request.
///
/// Like [`parse_query`], unknown keys anywhere in the payload are rejected: a
/// misspelled knob silently falling back to its default would hand an operator
/// a confidently wrong frontier.
pub fn parse_optimize(request: &JsonValue) -> Result<ParsedOptimize, String> {
    Ok(ParsedOptimize {
        space: parse_space(field(request, "space", "optimize request")?)?,
        config: parse_optimizer_config(field(request, "config", "optimize request")?)?,
    })
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Running totals behind the protocol's `stats` request — the first
/// observability hook for the service.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Query requests that ran to completion (a `done` event was emitted).
    pub queries_completed: u64,
    /// Wall time of the most recently completed plan, in milliseconds.
    pub last_plan_wall_ms: f64,
    /// Total wall time across all completed plans, in milliseconds.
    pub total_plan_wall_ms: f64,
    /// Second-order cells served (cells that carried an epistemic report).
    pub epistemic_cells: u64,
    /// Posterior draws executed across all second-order cells.
    pub posterior_draws: u64,
    /// Deployment-optimizer searches that ran to completion.
    pub optimizations_completed: u64,
    /// What the writer threads handed to peers, summed over connections.
    pub wire: WireStats,
}

/// Output-path totals: `events / writes` is how many event lines left per
/// socket write (in-memory exchanges have no peer and count nothing here).
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Event lines handed to peers.
    pub events: u64,
    /// Writes that carried them.
    pub writes: u64,
    /// Bytes handed to peers.
    pub bytes_out: u64,
}

/// The service: one shared [`AnalysisSession`] (scratch cache + worker pool)
/// serving any number of concurrent NDJSON connections and queries.
pub struct Server {
    session: Arc<AnalysisSession>,
    stats: Mutex<ServerStats>,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

/// How a handled request line affects the connection loop.
enum Action {
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
        emit(
            &self.writer,
            &event(
                &self.id,
                "cell",
                vec![
                    ("index".to_string(), JsonValue::number(index as f64)),
                    ("cell".to_string(), record.to_json_value(self.metrics)),
                ],
            ),
        );
    }

    fn on_trajectory(&self, index: usize, record: &TrajectoryRecord) {
        emit(
            &self.writer,
            &event(
                &self.id,
                "trajectory",
                vec![
                    ("index".to_string(), JsonValue::number(index as f64)),
                    ("trajectory".to_string(), record.to_json_value()),
                ],
            ),
        );
    }
}

impl Server {
    /// A server over a fresh session with the default cache capacity.
    pub fn new() -> Self {
        Self::with_session(Arc::new(AnalysisSession::new()))
    }

    /// A server over an existing session (shared cache across front ends).
    pub fn with_session(session: Arc<AnalysisSession>) -> Self {
        Self {
            session,
            stats: Mutex::new(ServerStats::default()),
        }
    }

    /// The shared session behind every request.
    pub fn session(&self) -> &Arc<AnalysisSession> {
        &self.session
    }

    /// A snapshot of the per-plan wall-time counters.
    pub fn stats(&self) -> ServerStats {
        *self.stats.lock().expect("stats lock")
    }

    fn stats_event(&self, id: &JsonValue) -> JsonValue {
        let cache = self.session.cache_stats();
        let stats = self.stats();
        event(
            id,
            "stats",
            vec![
                (
                    "cache".to_string(),
                    JsonValue::Object(vec![
                        ("hits".to_string(), JsonValue::number(cache.hits as f64)),
                        ("misses".to_string(), JsonValue::number(cache.misses as f64)),
                        (
                            "evictions".to_string(),
                            JsonValue::number(cache.evictions as f64),
                        ),
                        (
                            "entries".to_string(),
                            JsonValue::number(cache.entries as f64),
                        ),
                        ("hit_rate".to_string(), JsonValue::number(cache.hit_rate())),
                    ]),
                ),
                (
                    "queries_completed".to_string(),
                    JsonValue::number(stats.queries_completed as f64),
                ),
                (
                    "epistemic_cells".to_string(),
                    JsonValue::number(stats.epistemic_cells as f64),
                ),
                (
                    "posterior_draws".to_string(),
                    JsonValue::number(stats.posterior_draws as f64),
                ),
                (
                    "optimizations_completed".to_string(),
                    JsonValue::number(stats.optimizations_completed as f64),
                ),
                (
                    "plan_wall_ms".to_string(),
                    JsonValue::Object(vec![
                        (
                            "last".to_string(),
                            JsonValue::number(stats.last_plan_wall_ms),
                        ),
                        (
                            "total".to_string(),
                            JsonValue::number(stats.total_plan_wall_ms),
                        ),
                    ]),
                ),
                (
                    "wire".to_string(),
                    JsonValue::Object(vec![
                        (
                            "events".to_string(),
                            JsonValue::number(stats.wire.events as f64),
                        ),
                        (
                            "writes".to_string(),
                            JsonValue::number(stats.wire.writes as f64),
                        ),
                        (
                            "bytes_out".to_string(),
                            JsonValue::number(stats.wire.bytes_out as f64),
                        ),
                    ]),
                ),
            ],
        )
    }
}

/// Handles one request line: plans and submits queries (returning the
/// [`rayon::TaskSet`] handle so the connection can drain it), answers
/// `stats` inline, and turns every failure into an `error` event.
fn handle_line(server: &Arc<Server>, line: &str, writer: &Arc<Outbox>) -> Action {
    let request = match JsonValue::parse(line) {
        Ok(v) => v,
        Err(err) => {
            emit(
                writer,
                &error_event(&JsonValue::Null, format!("bad JSON: {err}")),
            );
            return Action::Handled;
        }
    };
    let id = request.get("id").cloned().unwrap_or(JsonValue::Null);
    match request.get("op").and_then(|op| op.as_str()) {
        Some("query") => {
            let Some(spec) = request.get("query") else {
                emit(writer, &error_event(&id, "query request missing 'query'"));
                return Action::Handled;
            };
            let parsed = match parse_query(spec) {
                Ok(parsed) => parsed,
                Err(err) => {
                    emit(writer, &error_event(&id, err));
                    return Action::Handled;
                }
            };
            // Planning validates budgets and may panic deep in model
            // constructors on adversarial input; neither may kill the
            // connection.
            let plan = match catch_unwind(AssertUnwindSafe(|| server.session.plan(&parsed.query))) {
                Ok(Ok(plan)) => plan,
                Ok(Err(err)) => {
                    emit(writer, &error_event(&id, format!("plan failed: {err}")));
                    return Action::Handled;
                }
                Err(payload) => {
                    emit(
                        writer,
                        &error_event(&id, format!("plan failed: {}", panic_message(payload))),
                    );
                    return Action::Handled;
                }
            };
            let server = Arc::clone(server);
            let writer = Arc::clone(writer);
            let metrics = parsed.metrics;
            // One owned task per plan: many plans' work-item DAGs interleave
            // on the one persistent pool (nested `for_each_task` inside the
            // plan is deadlock-free by the pool's caller-helps design).
            let task: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_| {
                let sink = NdjsonSink {
                    id: id.clone(),
                    metrics,
                    writer: Arc::clone(&writer),
                };
                let start = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| plan.execute_streaming(&sink))) {
                    Ok(report) => {
                        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                        let epistemic_cells = report
                            .cells()
                            .iter()
                            .filter(|c| c.epistemic.is_some())
                            .count() as u64;
                        let posterior_draws: u64 = report
                            .cells()
                            .iter()
                            .filter_map(|c| c.epistemic.as_ref())
                            .map(|e| e.draws.len() as u64)
                            .sum();
                        {
                            let mut stats = server.stats.lock().expect("stats lock");
                            stats.queries_completed += 1;
                            stats.last_plan_wall_ms = wall_ms;
                            stats.total_plan_wall_ms += wall_ms;
                            stats.epistemic_cells += epistemic_cells;
                            stats.posterior_draws += posterior_draws;
                        }
                        emit(
                            &writer,
                            &event(
                                &id,
                                "done",
                                vec![
                                    (
                                        "cells".to_string(),
                                        JsonValue::number(report.cells().len() as f64),
                                    ),
                                    (
                                        "trajectories".to_string(),
                                        JsonValue::number(report.trajectories().len() as f64),
                                    ),
                                    ("wall_ms".to_string(), JsonValue::number(wall_ms)),
                                ],
                            ),
                        );
                    }
                    Err(payload) => {
                        emit(
                            &writer,
                            &error_event(
                                &id,
                                format!("execution failed: {}", panic_message(payload)),
                            ),
                        );
                    }
                }
            });
            Action::Spawned(rayon::submit_tasks(1, task))
        }
        Some("optimize") => {
            let parsed = match parse_optimize(&request) {
                Ok(parsed) => parsed,
                Err(err) => {
                    emit(writer, &error_event(&id, err));
                    return Action::Handled;
                }
            };
            let server = Arc::clone(server);
            let writer = Arc::clone(writer);
            // Like queries, the search runs as one owned task on the shared
            // pool: its per-candidate cells are work-stealing items that
            // interleave with concurrent plans, and its scratch lands in the
            // shared cache (optimizer namespace).
            let task: Arc<dyn Fn(usize) + Send + Sync> = Arc::new(move |_| {
                let start = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| {
                    optimize(server.session(), &parsed.space, &parsed.config)
                })) {
                    Ok(Ok(report)) => {
                        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                        {
                            let mut stats = server.stats.lock().expect("stats lock");
                            stats.optimizations_completed += 1;
                            stats.last_plan_wall_ms = wall_ms;
                            stats.total_plan_wall_ms += wall_ms;
                        }
                        emit(
                            &writer,
                            &event(
                                &id,
                                "optimize",
                                vec![("report".to_string(), report.to_json_value())],
                            ),
                        );
                        emit(
                            &writer,
                            &event(
                                &id,
                                "done",
                                vec![
                                    (
                                        "frontier".to_string(),
                                        JsonValue::number(report.frontier.len() as f64),
                                    ),
                                    (
                                        "evaluated".to_string(),
                                        JsonValue::number(report.evaluated.len() as f64),
                                    ),
                                    ("wall_ms".to_string(), JsonValue::number(wall_ms)),
                                ],
                            ),
                        );
                    }
                    Ok(Err(err)) => {
                        emit(
                            &writer,
                            &error_event(&id, format!("optimize failed: {err}")),
                        );
                    }
                    Err(payload) => {
                        emit(
                            &writer,
                            &error_event(
                                &id,
                                format!("optimize failed: {}", panic_message(payload)),
                            ),
                        );
                    }
                }
            });
            Action::Spawned(rayon::submit_tasks(1, task))
        }
        Some("stats") => {
            emit(writer, &server.stats_event(&id));
            Action::Handled
        }
        Some("shutdown") => Action::Shutdown(id),
        Some(other) => {
            emit(writer, &error_event(&id, format!("unknown op '{other}'")));
            Action::Handled
        }
        None => {
            emit(writer, &error_event(&id, "request missing 'op'"));
            Action::Handled
        }
    }
}

/// Upper bound on one request line, in bytes. A line longer than this is not a
/// plausible query — it is a runaway or hostile client — and buffering it
/// unbounded would let one connection exhaust server memory. Oversized lines
/// produce an `error` event and a clean close (in-flight queries still drain).
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Per-connection read timeout for TCP connections. A peer that goes silent
/// mid-session (half-open connection, wedged client) would otherwise pin its
/// connection thread forever; after this long with no bytes, the connection
/// gets an `error` event and a clean close.
pub const TCP_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

/// Reads one newline-terminated request line of at most
/// [`MAX_REQUEST_LINE_BYTES`], without buffering more than that.
///
/// Returns `Ok(None)` on EOF, `Ok(Some(Err(())))` when the line exceeds the
/// bound, and propagates IO errors (including read timeouts) to the caller.
fn read_request_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<Result<(), ()>>> {
    buf.clear();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err),
        };
        if available.is_empty() {
            // EOF: a final unterminated line is still served if non-empty.
            return Ok(if buf.is_empty() { None } else { Some(Ok(())) });
        }
        let room = MAX_REQUEST_LINE_BYTES - buf.len();
        match available.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                let over = newline > room;
                buf.extend_from_slice(&available[..newline.min(room)]);
                reader.consume(newline + 1);
                return Ok(Some(if over { Err(()) } else { Ok(()) }));
            }
            None if available.len() > room => {
                // Over the cap with no line end in sight: stop buffering — the
                // connection is about to close, so nothing needs resyncing.
                let consumed = available.len();
                reader.consume(consumed);
                return Ok(Some(Err(())));
            }
            None => {
                let consumed = available.len();
                buf.extend_from_slice(available);
                reader.consume(consumed);
            }
        }
    }
}

/// Serves one connection: reads request lines until EOF or a `shutdown`
/// request, then drains every in-flight query before returning. Returns `true`
/// when the connection asked the server to shut down.
///
/// The read side is hardened against misbehaving peers: request lines are
/// bounded by [`MAX_REQUEST_LINE_BYTES`], and a read timeout on the underlying
/// stream (see [`TCP_READ_TIMEOUT`]) is treated as a protocol event, not an IO
/// failure — both emit an `error` event, drain in-flight queries, and close the
/// connection cleanly. A connection whose outbox was declared dead stops
/// taking requests: nobody is left to read their answers.
///
/// Events land in `writer`; the caller either runs [`Outbox::drain`] beside
/// this function and calls [`Outbox::close`] after it, or takes the buffer.
pub fn serve_connection(
    server: &Arc<Server>,
    mut reader: impl BufRead,
    writer: &Arc<Outbox>,
) -> std::io::Result<bool> {
    let mut in_flight: Vec<rayon::TaskSet> = Vec::new();
    let mut shutdown_id = None;
    let mut buf = Vec::new();
    while !writer.is_dead() {
        match read_request_line(&mut reader, &mut buf) {
            Ok(None) => break,
            Ok(Some(Err(()))) => {
                emit(
                    writer,
                    &error_event(
                        &JsonValue::Null,
                        format!(
                            "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes; closing \
                             connection"
                        ),
                    ),
                );
                break;
            }
            Ok(Some(Ok(()))) => {}
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                emit(
                    writer,
                    &error_event(&JsonValue::Null, "read timed out; closing connection"),
                );
                break;
            }
            Err(err) => return Err(err),
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            emit(
                writer,
                &error_event(
                    &JsonValue::Null,
                    "request line is not UTF-8; closing connection",
                ),
            );
            break;
        };
        if line.trim().is_empty() {
            continue;
        }
        match handle_line(server, line, writer) {
            Action::Handled => {}
            Action::Spawned(set) => {
                // Opportunistically shed finished handles so a long-lived
                // connection's drain list stays proportional to in-flight work.
                in_flight.retain(|s| !s.is_complete());
                in_flight.push(set);
            }
            Action::Shutdown(id) => {
                shutdown_id = Some(id);
                break;
            }
        }
    }
    // Graceful drain: in-flight plans stream out completely (the submitting
    // side helps execute them rather than just blocking).
    for set in in_flight {
        set.join();
    }
    match shutdown_id {
        Some(id) => {
            emit(writer, &event(&id, "shutdown", Vec::new()));
            Ok(true)
        }
        None => Ok(false),
    }
}

/// Serves one connection that has a peer: `reader` feeds
/// [`serve_connection`] on this thread while a writer thread drains `outbox`
/// into `sink`. Returns what the connection asked for and how its output side
/// ended.
fn serve_with_writer(
    server: &Arc<Server>,
    reader: impl BufRead,
    sink: impl Write + Send,
    outbox: Outbox,
) -> (std::io::Result<bool>, std::io::Result<()>) {
    let outbox = Arc::new(outbox);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| outbox.drain(server, sink));
        let served = serve_connection(server, reader, &outbox);
        outbox.close();
        (served, writer.join().expect("the writer thread panicked"))
    })
}

/// `repro serve`: the stdio front end — NDJSON requests on stdin, events on
/// stdout. Returns after EOF or a `shutdown` request, with all work drained
/// and written; a stdout that failed or stopped being read is an error.
pub fn serve_stdio(server: &Arc<Server>) -> std::io::Result<()> {
    let (served, written) = serve_with_writer(
        server,
        std::io::stdin().lock(),
        std::io::stdout(),
        Outbox::new(MAX_OUTBOX_BYTES, None),
    );
    served?;
    written
}

/// `repro serve --tcp ADDR`: the TCP front end. Every connection speaks the
/// same line protocol against the same shared session; a `shutdown` request on
/// any connection drains that connection, then stops accepting and waits for
/// the remaining connections to finish.
pub fn serve_tcp(server: &Arc<Server>, addr: impl ToSocketAddrs) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    eprintln!("repro serve: listening on {}", listener.local_addr()?);
    serve_listener(server, listener)
}

fn serve_listener(server: &Arc<Server>, listener: TcpListener) -> std::io::Result<()> {
    // Where a connection thread reaches this listener to wake it: accept
    // blocks, and cannot otherwise observe a shutdown requested on an
    // already-open connection.
    let local = listener.local_addr()?;
    let wake = SocketAddr::new(
        match local.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(ip) if ip.is_unspecified() => Ipv6Addr::LOCALHOST.into(),
            ip => ip,
        },
        local.port(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        let (stream, _peer) = listener.accept()?;
        if stop.load(Ordering::Acquire) {
            break;
        }
        connections.retain(|c| !c.is_finished());
        let server = Arc::clone(server);
        let stop = Arc::clone(&stop);
        connections.push(std::thread::spawn(move || {
            if let Ok(true) = handle_tcp_connection(&server, stream) {
                stop.store(true, Ordering::Release);
                if let Err(err) = TcpStream::connect(wake) {
                    eprintln!("repro serve: cannot wake the listener to stop it: {err}");
                }
            }
        }));
    }
    for connection in connections {
        let _ = connection.join();
    }
    Ok(())
}

fn handle_tcp_connection(server: &Arc<Server>, stream: TcpStream) -> std::io::Result<bool> {
    // Events are small writes answered by a read: with Nagle on, every write
    // after a connection's first waits for the client's delayed ACK (~40 ms).
    stream.set_nodelay(true)?;
    // A silent peer must not pin this connection thread forever; the timeout
    // surfaces in `serve_connection` as an `error` event plus a clean close.
    stream.set_read_timeout(Some(TCP_READ_TIMEOUT))?;
    stream.set_write_timeout(Some(TCP_WRITE_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    let outbox = Outbox::new(MAX_OUTBOX_BYTES, Some(stream.try_clone()?));
    // How the output side ended is the peer's business, not a server error.
    serve_with_writer(server, reader, stream, outbox).0
}

/// Runs one complete in-memory exchange against `server`: feeds `input` (one
/// request per line) through [`serve_connection`] and returns the emitted
/// NDJSON output. The backbone of the smoke tests and the `server-throughput`
/// bench.
pub fn run_exchange(server: &Arc<Server>, input: &str) -> String {
    let outbox = Arc::new(Outbox::new(usize::MAX, None));
    serve_connection(server, input.as_bytes(), &outbox)
        .expect("in-memory exchange cannot fail on IO");
    outbox.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events of one exchange, parsed line by line.
    fn events(output: &str) -> Vec<JsonValue> {
        output
            .lines()
            .map(|line| JsonValue::parse(line).expect("every output line is one JSON object"))
            .collect()
    }

    fn events_for<'a>(events: &'a [JsonValue], id: &str, kind: &str) -> Vec<&'a JsonValue> {
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

    const MIXED_QUERY: &str = r#"{"protocols":["raft","pbft"],"nodes":[4,7],"fault_probs":[0.01,0.05],"samples":20000,"seed":7,"cells":[{"label":"pq","model":{"persistence_quorum":{"quorum":[0,1,2]}},"deployment":{"uniform_crash":{"n":8,"p":0.02}}}],"repairable_cells":[{"label":"repairable-5","n":5,"lambda":1e-4,"mu":0.1,"tolerated_failures":2}]}"#;

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

    /// 2 protocols x 3 node counts x 5 fault probabilities: 30 exact cells,
    /// 31 events and about 14 KB per response.
    const GRID_QUERY: &str = r#"{"protocols":["raft","pbft"],"nodes":[4,7,10],"fault_probs":[0.001,0.01,0.02,0.05,0.1]}"#;

    /// Tests in one process share the worker pool; the test that floods it and
    /// the test that times exchanges on it take turns.
    static POOL_TIMING: Mutex<()> = Mutex::new(());

    /// [`serve_listener`] on an ephemeral loopback port, on its own thread.
    /// The receiver yields its result once it returns.
    fn spawn_tcp_server(
        server: &Arc<Server>,
    ) -> (SocketAddr, std::sync::mpsc::Receiver<std::io::Result<()>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let server = Arc::clone(server);
        std::thread::spawn(move || {
            let _ = tx.send(serve_listener(&server, listener));
        });
        (addr, rx)
    }

    /// A plain client: a read timeout so a hung server fails the test, and no
    /// `TCP_NODELAY` (the server's output path must not depend on the peer's).
    fn connect(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// Sends one `query` request in one write (several would wait on this
    /// side's own Nagle timer).
    fn send_query(client: &mut TcpStream, id: &str, query: &str) {
        let line = format!("{{\"id\":\"{id}\",\"op\":\"query\",\"query\":{query}}}\n");
        client.write_all(line.as_bytes()).unwrap();
    }

    /// Reads event lines up to and including the first of kind `last`.
    fn read_until(reader: &mut impl BufRead, last: &str) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("the server answers");
            assert!(n > 0, "connection closed before a '{last}' event");
            let done = line.contains(&format!("\"event\":\"{last}\""));
            lines.push(line);
            if done {
                return lines;
            }
        }
    }

    fn shut_down(
        mut client: TcpStream,
        mut reader: BufReader<TcpStream>,
        served: std::sync::mpsc::Receiver<std::io::Result<()>>,
    ) {
        client
            .write_all(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n")
            .unwrap();
        read_until(&mut reader, "shutdown");
        served
            .recv_timeout(Duration::from_secs(60))
            .expect("serve_tcp returns after a shutdown request")
            .expect("serve_tcp returns cleanly");
    }

    #[test]
    fn tcp_front_end_speaks_the_same_protocol() {
        let server = Arc::new(Server::new());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
        let addr = listener.local_addr().unwrap();
        let serve = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let (stream, _) = listener.accept().expect("client connects");
                handle_tcp_connection(&server, stream).expect("connection serves")
            })
        };
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .write_all(
                b"{\"id\":\"q\",\"op\":\"query\",\"query\":{\"protocols\":[\"raft\"],\"nodes\":[5],\"fault_probs\":[0.02]}}\n{\"id\":\"bye\",\"op\":\"shutdown\"}\n",
            )
            .unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(client.try_clone().unwrap()).lines() {
            lines.push(line.unwrap());
        }
        assert!(serve.join().unwrap(), "connection reported shutdown");
        let events: Vec<JsonValue> = lines.iter().map(|l| JsonValue::parse(l).unwrap()).collect();
        assert_eq!(events_for(&events, "q", "cell").len(), 1);
        assert_eq!(events_for(&events, "q", "done").len(), 1);
        assert_eq!(
            events.last().unwrap().get("event").unwrap().as_str(),
            Some("shutdown")
        );
    }

    #[test]
    fn socket_exchanges_do_not_wait_for_a_delayed_ack() {
        let _turn = POOL_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        let server = Arc::new(Server::new());
        let (addr, served) = spawn_tcp_server(&server);
        let (mut client, mut reader) = connect(addr);
        // A response is several small writes followed by a read. With Nagle on
        // and one segment per event, each exchange took a delayed ACK: 44 ms.
        let mut times = Vec::new();
        let (mut lines, mut bytes) = (0, 0);
        for i in 0..40 {
            let start = Instant::now();
            send_query(&mut client, &format!("q{i}"), GRID_QUERY);
            let response = read_until(&mut reader, "done");
            times.push(start.elapsed());
            assert_eq!(response.len(), 31);
            lines += response.len();
            bytes += response.iter().map(String::len).sum::<usize>();
        }
        times.sort();
        assert!(
            times[times.len() / 2] < Duration::from_millis(10),
            "median exchange took {:?}",
            times[times.len() / 2]
        );
        // The `wire` totals count what this client has read, and show the
        // coalescing: fewer writes than events.
        client
            .write_all(b"{\"id\":\"s\",\"op\":\"stats\"}\n")
            .unwrap();
        let stats = JsonValue::parse(&read_until(&mut reader, "stats")[0]).unwrap();
        let wire = |key: &str| {
            stats
                .get("wire")
                .unwrap()
                .get(key)
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(wire("events"), lines as f64);
        assert_eq!(wire("bytes_out"), bytes as f64);
        assert!(wire("writes") >= 40.0 && wire("writes") < wire("events"));
        assert_eq!(server.stats().wire.events, lines as u64 + 1);
        shut_down(client, reader, served);
    }

    #[test]
    fn pipelined_queries_stream_whole_lines_and_finish_with_done() {
        let server = Arc::new(Server::new());
        let (addr, served) = spawn_tcp_server(&server);
        let (mut client, mut reader) = connect(addr);
        // Eight queries in one write: their plans run concurrently and their
        // events interleave in the one outbox.
        let mut input = String::new();
        for i in 0..8 {
            let query = if i % 2 == 0 { GRID_QUERY } else { MIXED_QUERY };
            input.push_str(&format!(
                "{{\"id\":\"p{i}\",\"op\":\"query\",\"query\":{query}}}\n"
            ));
        }
        client.write_all(input.as_bytes()).unwrap();
        let mut finished = std::collections::BTreeMap::new();
        let mut records = std::collections::BTreeMap::new();
        while finished.len() < 8 {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "early close");
            let event = JsonValue::parse(&line).expect("every line parses on its own");
            let id = event.get("id").unwrap().as_str().unwrap().to_string();
            match event.get("event").unwrap().as_str().unwrap() {
                kind @ ("cell" | "trajectory") => {
                    assert!(!finished.contains_key(&id), "{kind} of {id} after its done");
                    *records.entry((id, kind == "cell")).or_insert(0usize) += 1;
                }
                "done" => {
                    let count = |key: &str| event.get(key).unwrap().as_f64().unwrap() as usize;
                    let previous = finished.insert(id, (count("cells"), count("trajectories")));
                    assert!(previous.is_none(), "two done events for one id");
                }
                other => panic!("unexpected event '{other}': {line}"),
            }
        }
        for (id, (cells, trajectories)) in finished {
            assert_eq!(
                records.get(&(id.clone(), true)).copied().unwrap_or(0),
                cells
            );
            assert_eq!(
                records.get(&(id, false)).copied().unwrap_or(0),
                trajectories
            );
        }
        shut_down(client, reader, served);
    }

    #[test]
    fn shutdown_wakes_the_blocked_accept() {
        let server = Arc::new(Server::new());
        let (addr, served) = spawn_tcp_server(&server);
        let (idle, _idle_reader) = connect(addr);
        let (mut client, mut reader) = connect(addr);
        client
            .write_all(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n")
            .unwrap();
        read_until(&mut reader, "shutdown");
        // Nobody connects again: only the connection's own wake-up can get the
        // listener out of `accept`. It then waits for the idle connection.
        drop(idle);
        drop(_idle_reader);
        served
            .recv_timeout(Duration::from_secs(60))
            .expect("serve_tcp returns with no further incoming connection")
            .expect("serve_tcp returns cleanly");
    }

    #[test]
    fn a_client_that_never_reads_is_cut_off_and_wedges_nobody() {
        let _turn = POOL_TIMING.lock().unwrap_or_else(|e| e.into_inner());
        let server = Arc::new(Server::new());
        let (addr, served) = spawn_tcp_server(&server);
        // One client pipelines grid queries and reads nothing. Once the socket
        // buffers are full its writer thread blocks, its outbox fills to the
        // bound, and the server shuts the connection: the writes start failing.
        let flood = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let line =
                format!("{{\"id\":\"f\",\"op\":\"query\",\"query\":{GRID_QUERY}}}\n").repeat(50);
            for sent in 0..2_000 {
                if stream.write_all(line.as_bytes()).is_err() {
                    return sent * 50;
                }
            }
            panic!("100 000 unread responses and the server still takes requests");
        });
        // Meanwhile another connection is served: `stats` inline, a query on
        // the pool the flood is queued on.
        let (mut client, mut reader) = connect(addr);
        client
            .write_all(b"{\"id\":\"s\",\"op\":\"stats\"}\n")
            .unwrap();
        assert_eq!(read_until(&mut reader, "stats").len(), 1);
        send_query(&mut client, "q", GRID_QUERY);
        assert_eq!(read_until(&mut reader, "done").len(), 31);
        let sent = flood.join().expect("the flooding client was cut off");
        assert!(sent > 0);
        // The flooded connection is gone: shutdown has nothing to wait for.
        shut_down(client, reader, served);
    }

    #[test]
    fn parse_query_covers_every_axis() {
        let spec = JsonValue::parse(
            r#"{"protocols":["raft",{"raft_flexible":{"q_per":4,"q_vc":3}},"pbft"],
                "nodes":[4,7],
                "fault_probs":{"logspace":{"lo":1e-4,"hi":1e-1,"count":4}},
                "faults":{"mixed":{"byzantine":0.001}},
                "correlations":["independent",{"cluster_shock":{"probability":0.01}},{"rack_shock":{"racks":3,"probability":0.02}}],
                "samples":5000,"seed":9,"samples_sweep":[1000,5000],
                "validate":false,
                "environments":["clean","gray-primary"],
                "metrics":{"safe":true,"live":false,"safe_and_live":true},
                "time_axis":{"horizon_hours":20000,"step_hours":5000,"target_nines":3.0},
                "repairable_cells":[{"label":"r","n":5,"lambda":1e-4,"mu":0.1,"tolerated_failures":2}]}"#,
        )
        .unwrap();
        let parsed = parse_query(&spec).expect("full-axis query parses");
        // 3 protocols x 2 nodes x 4 probs x 3 correlations x 2 sample budgets
        // x 2 fault environments.
        assert_eq!(parsed.query.cell_count(), 288);
        assert_eq!(parsed.query.trajectory_count(), 1);
        assert!(!parsed.metrics.live && parsed.metrics.safe);
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
        ] {
            let err = parse_query(&JsonValue::parse(bad).unwrap())
                .err()
                .unwrap_or_else(|| panic!("{bad} should be rejected"));
            assert!(err.contains(needle), "error for {bad} was '{err}'");
        }
    }

    #[test]
    fn parse_optimize_covers_every_knob() {
        let request = JsonValue::parse(
            r#"{"space":{"instances":[{"name":"spot","fault_probability":0.08,"byzantine_probability":0.001,"hourly_cost":0.10}],
                         "nodes":[3,5],
                         "domains":{"racks":4,"shock_probability":0.02},
                         "placements":["same-rack","cross-rack"],
                         "target":{"quorum_size":2}},
                "config":{"target_nines":3.5,"screen_samples":5000,"refine_samples":20000,"seed":9,
                          "rare_event_threshold":1e-7,
                          "repair":{"mttr_hours":12.0,"mission_hours":8766.0}}}"#,
        )
        .expect("fixture parses");
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
        let request = JsonValue::parse(
            r#"{"space":{"instances":[{"name":"a","fault_probability":0.01,"hourly_cost":1.0}],
                         "nodes":[5],"target":{"protocol":{"raft_flexible":{"q_per":2,"q_vc":4}}}},
                "config":{"target_nines":2.0}}"#,
        )
        .unwrap();
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
        ] {
            let err = parse_optimize(&JsonValue::parse(&bad).unwrap())
                .err()
                .unwrap_or_else(|| panic!("{bad} should be rejected"));
            assert!(err.contains(&needle), "error for {bad} was '{err}'");
        }
    }
}
