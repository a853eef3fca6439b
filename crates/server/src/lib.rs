//! Analysis-as-a-service: the long-running front end behind `repro serve`.
//!
//! The paper's pitch is operational — operators ask "what reliability does this
//! deployment give?" continuously as telemetry shifts, not once per offline run.
//! This crate keeps one [`AnalysisSession`] (and therefore one scratch cache of
//! compiled packed kernels, counting results, selector pilots and learned IS
//! proposals) alive across requests and exposes it over a newline-
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

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::ops::RangeInclusive;
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
    optimize, DeploymentSpace, FailureDomains, NodeType, OptimizeReport, OptimizerConfig,
    Placement, RepairPolicy, TargetSpec,
};
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{
    logspace, AnalysisReport, AnalysisSession, CellRecord, CorrelationSpec, FaultAxis, Metrics,
    ProtocolSpec, Query, StreamSink, TimeAxis, TrajectoryRecord, MAX_AXIS_LEN, MAX_NODES,
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

fn event(id: &JsonValue, kind: &str, rest: Vec<(&str, JsonValue)>) -> JsonValue {
    let head = [("id", id.clone()), ("event", JsonValue::string(kind))];
    let members = head.into_iter().chain(rest);
    JsonValue::Object(members.map(|(k, v)| (k.to_string(), v)).collect())
}

fn error_event(id: &JsonValue, message: impl Into<String>) -> JsonValue {
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

// ---------------------------------------------------------------------------
// The wire grammar: one strict reader for every request object
// ---------------------------------------------------------------------------

/// A JSON value type a field can hold, named singular and plural in errors.
trait Wire<'a>: Sized {
    const NAME: [&'static str; 2];
    fn from_json(value: &'a JsonValue) -> Option<Self>;
}

macro_rules! wire {
    ($($t:ty: $one:literal, $many:literal, |$v:ident| $read:expr;)*) => {$(
        impl<'a> Wire<'a> for $t {
            const NAME: [&'static str; 2] = [$one, $many];
            fn from_json($v: &'a JsonValue) -> Option<Self> {
                $read
            }
        }
    )*};
}

/// A whole number from 0 to `limit`.
fn whole(value: &JsonValue, limit: f64) -> Option<f64> {
    let f = value.as_f64()?;
    (f >= 0.0 && f.fract() == 0.0 && f <= limit).then_some(f)
}

// Counts and sizes stop at `u32::MAX`, seeds at 2⁵³ (the largest integer a
// JSON number holds exactly); `&JsonValue` is for fields read further on.
wire! {
    f64: "a number", "numbers", |v| v.as_f64();
    usize: "a non-negative integer", "non-negative integers",
        |v| whole(v, u32::MAX as f64).map(|f| f as usize);
    u64: "an integer", "integers", |v| whole(v, 2f64.powi(53)).map(|f| f as u64);
    bool: "a boolean", "booleans", |v| match v {
        JsonValue::Bool(b) => Some(*b),
        _ => None,
    };
    &'a str: "a string", "strings", |v| v.as_str();
    &'a JsonValue: "a value", "values", |v| Some(v);
}

/// The smallest positive `f64`: as an inclusive lower bound, "above zero".
const ABOVE_ZERO: f64 = f64::from_bits(1);
/// The largest `f64` below one: as an inclusive upper bound, "below one".
const BELOW_ONE: f64 = 1.0 - f64::EPSILON / 2.0;
const PROBABILITY: RangeInclusive<f64> = 0.0..=1.0;
const NON_NEGATIVE: RangeInclusive<f64> = 0.0..=f64::MAX;
const POSITIVE: RangeInclusive<f64> = ABOVE_ZERO..=f64::MAX;

/// What a request can get wrong in its shape; [`wrong`] words every one.
enum Problem<'k> {
    NotObject,
    Missing(&'k str),
    UnknownKey(&'k str),
    Duplicate(&'k str),
    /// A key and the type its value must have; `Entries` for each array entry.
    Type(&'k str, &'static str),
    Entries(&'k str, &'static str),
    /// A key, its value, the range it missed and its type's name.
    Range(&'k str, f64, RangeInclusive<f64>, &'static str),
    /// An object that must have exactly one member, with its keys.
    Members(Vec<&'k str>),
    /// A tagged value with an unknown tag (and whether it was an object's
    /// key), and what was expected instead.
    UnknownTag(&'k str, bool, &'k str),
    /// A value of the wrong shape, and what was expected instead.
    Shape(&'k str),
}

/// The error text of `problem` in an object of kind `what`.
fn wrong(what: &str, problem: Problem<'_>) -> String {
    match problem {
        Problem::NotObject => format!("{what} must be an object"),
        Problem::Missing(key) => format!("{what}: missing '{key}'"),
        Problem::UnknownKey(key) => format!("unknown {what} key '{key}'"),
        Problem::Duplicate(key) => format!("{what}: duplicate key '{key}'"),
        Problem::Type(key, name) => format!("{what}: '{key}' must be {name}"),
        Problem::Entries(key, names) => format!("{what}: '{key}' entries must be {names}"),
        Problem::Range(key, value, range, name) => {
            // Real-valued ranges read as words; `ABOVE_ZERO`, `BELOW_ONE` and
            // `f64::MAX` stand for open and missing ends.
            let (lo, hi) = range.into_inner();
            let real = name == <f64 as Wire>::NAME[0];
            let range = match (real, lo == ABOVE_ZERO, hi) {
                (true, false, 1.0) if lo == 0.0 => "a probability in [0, 1]".to_string(),
                (true, true, f64::MAX) => "a positive finite number".to_string(),
                (true, false, f64::MAX) => format!("a finite number >= {lo}"),
                (true, true, BELOW_ONE) => "a number in (0, 1)".to_string(),
                _ => format!("{name} in [{lo}, {hi}]"),
            };
            format!("{what}: '{key}' must be {range}, got {value}")
        }
        Problem::Members(keys) => format!("{what} must have exactly one member, got {keys:?}"),
        Problem::UnknownTag(tag, false, expected) => {
            format!("unknown {what} '{tag}'; expected {expected}")
        }
        Problem::UnknownTag(key, true, expected) => {
            format!(
                "{}; expected {expected}",
                wrong(what, Problem::UnknownKey(key))
            )
        }
        Problem::Shape(expected) => format!("{what} must be {expected}"),
    }
}

/// Reads `value`, member `key` of a `what`, as type `T`.
fn typed<'a, T: Wire<'a>>(what: &str, key: &str, value: &'a JsonValue) -> Result<T, String> {
    T::from_json(value).ok_or_else(|| wrong(what, Problem::Type(key, T::NAME[0])))
}

/// Reads the array `value`, member `key` of a `what`: each entry as type `T`,
/// then through `each`.
fn entries<'a, T: Wire<'a>, U>(
    what: &str,
    key: &str,
    value: &'a JsonValue,
    mut each: impl FnMut(T) -> Result<U, String>,
) -> Result<Vec<U>, String> {
    let items = value.as_array();
    let items = items.ok_or_else(|| wrong(what, Problem::Type(key, "an array")))?;
    let entry =
        |item| T::from_json(item).ok_or_else(|| wrong(what, Problem::Entries(key, T::NAME[1])));
    items.iter().map(|item| each(entry(item)?)).collect()
}

/// Reads `value` as an object of kind `what` through `read`, then rejects
/// every member `read` did not take: the keys an object accepts are exactly
/// the keys its reader reads.
fn read_object<'a, T>(
    value: &'a JsonValue,
    what: &'static str,
    read: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
) -> Result<T, String> {
    let JsonValue::Object(members) = value else {
        return Err(wrong(what, Problem::NotObject));
    };
    let mut fields = Fields {
        what,
        members,
        taken: vec![false; members.len()],
    };
    let out = read(&mut fields)?;
    let Some(i) = fields.taken.iter().position(|taken| !taken) else {
        return Ok(out);
    };
    let key = &members[i].0;
    Err(wrong(
        what,
        match members[..i].iter().any(|(k, _)| k == key) {
            true => Problem::Duplicate(key),
            false => Problem::UnknownKey(key),
        },
    ))
}

/// Reads a tagged value: a bare name, or a one-variant object (exactly one
/// member, whose key is the tag and whose value is the body). The caller
/// matches the tag and hands one it does not know back to [`unknown_tag`];
/// `expected` is what the error text asks for instead.
fn tag<'a>(
    value: &'a JsonValue,
    what: &'static str,
    expected: &str,
) -> Result<(&'a str, Option<&'a JsonValue>), String> {
    match value {
        JsonValue::String(name) => Ok((name, None)),
        JsonValue::Object(members) => match members.as_slice() {
            [(key, body)] => Ok((key, Some(body))),
            _ => Err(wrong(
                what,
                Problem::Members(members.iter().map(|(k, _)| k.as_str()).collect()),
            )),
        },
        _ => Err(wrong(what, Problem::Shape(expected))),
    }
}

fn unknown_tag(what: &str, (tag, body): (&str, Option<&JsonValue>), expected: &str) -> String {
    wrong(what, Problem::UnknownTag(tag, body.is_some(), expected))
}

/// The members of one object being read; see [`read_object`].
struct Fields<'a> {
    what: &'static str,
    members: &'a [(String, JsonValue)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// An optional field of type `T`.
    fn opt<T: Wire<'a>>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(i) = self.members.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        self.taken[i] = true;
        typed(self.what, key, &self.members[i].1).map(Some)
    }

    /// A required field of type `T`.
    fn get<T: Wire<'a>>(&mut self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| wrong(self.what, Problem::Missing(key)))
    }

    /// An optional number in `range` (integers too: `T` decides the type).
    fn opt_within<T: Wire<'a>>(
        &mut self,
        key: &str,
        range: RangeInclusive<f64>,
    ) -> Result<Option<T>, String> {
        let value: Option<&JsonValue> = self.opt(key)?;
        if let Some(v) = value
            .and_then(JsonValue::as_f64)
            .filter(|v| !range.contains(v))
        {
            return Err(wrong(self.what, Problem::Range(key, v, range, T::NAME[0])));
        }
        value.map(|v| typed(self.what, key, v)).transpose()
    }

    /// A required number in `range`.
    fn within<T: Wire<'a>>(&mut self, key: &str, range: RangeInclusive<f64>) -> Result<T, String> {
        self.opt_within(key, range)?
            .ok_or_else(|| wrong(self.what, Problem::Missing(key)))
    }

    /// An optional array, each entry read as `T` and then through `each`.
    fn list<T: Wire<'a>, U>(
        &mut self,
        key: &str,
        each: impl FnMut(T) -> Result<U, String>,
    ) -> Result<Option<Vec<U>>, String> {
        let what = self.what;
        let value = self.opt(key)?;
        value.map(|v| entries(what, key, v, each)).transpose()
    }

    /// An optional nested object, read through `read` with its key as its kind.
    fn object<T>(
        &mut self,
        key: &'static str,
        read: impl FnOnce(&mut Fields<'a>) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let value = self.opt(key)?;
        value.map(|v| read_object(v, key, read)).transpose()
    }
}

fn protocol(value: &JsonValue) -> Result<ProtocolSpec, String> {
    const EXPECTED: &str = r#""raft", "pbft" or {"raft_flexible":{"q_per":..,"q_vc":..}}"#;
    match tag(value, "protocol", EXPECTED)? {
        ("raft", None) => Ok(ProtocolSpec::Raft),
        ("pbft", None) => Ok(ProtocolSpec::Pbft),
        ("raft_flexible", Some(body)) => read_object(body, "raft_flexible", |f| {
            let (q_per, q_vc) = (f.get("q_per")?, f.get("q_vc")?);
            Ok(ProtocolSpec::RaftFlexible { q_per, q_vc })
        }),
        other => Err(unknown_tag("protocol", other, EXPECTED)),
    }
}

/// Whether `spec`'s quorums fit a cluster of `n` nodes, as its model's
/// constructor asserts.
fn quorums_fit(spec: &ProtocolSpec, n: usize) -> Result<(), String> {
    let ProtocolSpec::RaftFlexible { q_per, q_vc } = *spec else {
        return Ok(());
    };
    for (key, q) in [("q_per", q_per), ("q_vc", q_vc)] {
        if !(1..=n).contains(&q) {
            let range = Problem::Range(key, q as f64, 1.0..=n as f64, <usize as Wire>::NAME[0]);
            return Err(format!("{} for {n} nodes", wrong("raft_flexible", range)));
        }
    }
    Ok(())
}

fn fault_axis(value: &JsonValue) -> Result<FaultAxis, String> {
    const EXPECTED: &str = r#""crash", "byzantine" or {"mixed":{"byzantine":p}}"#;
    match tag(value, "fault axis", EXPECTED)? {
        ("crash", None) => Ok(FaultAxis::Crash),
        ("byzantine", None) => Ok(FaultAxis::Byzantine),
        ("mixed", Some(body)) => read_object(body, "mixed faults", |f| {
            let byzantine = f.within("byzantine", PROBABILITY)?;
            Ok(FaultAxis::Mixed { byzantine })
        }),
        other => Err(unknown_tag("fault axis", other, EXPECTED)),
    }
}

fn correlation(value: &JsonValue) -> Result<CorrelationSpec, String> {
    const EXPECTED: &str = r#""independent", {"cluster_shock":{..}} or {"rack_shock":{..}}"#;
    match tag(value, "correlation", EXPECTED)? {
        ("independent", None) => Ok(CorrelationSpec::Independent),
        ("cluster_shock", Some(body)) => read_object(body, "cluster_shock", |f| {
            let probability = f.within("probability", PROBABILITY)?;
            Ok(CorrelationSpec::ClusterShock { probability })
        }),
        ("rack_shock", Some(body)) => read_object(body, "rack_shock", |f| {
            let (racks, probability) = (f.get("racks")?, f.within("probability", PROBABILITY)?);
            Ok(CorrelationSpec::RackShock { racks, probability })
        }),
        other => Err(unknown_tag("correlation", other, EXPECTED)),
    }
}

/// One `fault_probs` value, which must be a probability: past the reader, it
/// reaches the fault-profile constructors' asserts.
fn fault_prob(p: f64) -> Result<f64, String> {
    if PROBABILITY.contains(&p) {
        return Ok(p);
    }
    let range = Problem::Range("fault_probs", p, PROBABILITY, <f64 as Wire>::NAME[0]);
    Err(wrong("query", range))
}

fn fault_probs(value: &JsonValue) -> Result<Vec<f64>, String> {
    const EXPECTED: &str = r#"an array of numbers or {"logspace":{"lo":..,"hi":..,"count":..}}"#;
    if value.as_array().is_some() {
        return entries("query", "fault_probs", value, fault_prob);
    }
    match tag(value, "fault_probs", EXPECTED)? {
        // Built while the request is read, so its length is bounded here.
        ("logspace", Some(body)) => read_object(body, "logspace", |f| {
            let lo = f.within("lo", POSITIVE)?;
            let hi = fault_prob(f.within("hi", lo..=f64::MAX)?)?;
            Ok(logspace(
                lo,
                hi,
                f.within("count", 1.0..=MAX_AXIS_LEN as f64)?,
            ))
        }),
        other => Err(unknown_tag("fault_probs", other, EXPECTED)),
    }
}

fn environment(label: &str) -> Result<FaultEnvironment, String> {
    const EXPECTED: &str = "one of: clean, gray-primary, partition-heal, wan-lossy";
    FaultEnvironment::from_label(label)
        .ok_or_else(|| unknown_tag("environment", (label, None), EXPECTED))
}

fn deployment(value: &JsonValue) -> Result<Deployment, String> {
    const EXPECTED: &str = r#"{"uniform_crash"|"uniform_byzantine"|"uniform_mixed":{..}}"#;
    // Built while the request is read, so its size is bounded here.
    const NODES: RangeInclusive<f64> = 1.0..=MAX_NODES as f64;
    match tag(value, "deployment", EXPECTED)? {
        ("uniform_crash", Some(body)) => read_object(body, "uniform_crash", |f| {
            let n = f.within("n", NODES)?;
            Ok(Deployment::uniform_crash(n, f.within("p", PROBABILITY)?))
        }),
        ("uniform_byzantine", Some(body)) => read_object(body, "uniform_byzantine", |f| {
            let n = f.within("n", NODES)?;
            Ok(Deployment::uniform_byzantine(
                n,
                f.within("p", PROBABILITY)?,
            ))
        }),
        ("uniform_mixed", Some(body)) => read_object(body, "uniform_mixed", |f| {
            let (n, crash) = (f.within("n", NODES)?, f.within("crash", PROBABILITY)?);
            Ok(Deployment::uniform_mixed(
                n,
                crash,
                f.within("byzantine", PROBABILITY)?,
            ))
        }),
        other => Err(unknown_tag("deployment", other, EXPECTED)),
    }
}

/// A cell's model: a persistence quorum over the cell's `n` nodes, or any
/// protocol instantiated at that size.
fn cell_model(value: &JsonValue, n: usize) -> Result<Arc<dyn ProtocolModel + Send + Sync>, String> {
    const EXPECTED: &str = r#"a protocol or {"persistence_quorum":{"quorum":[..]}}"#;
    let quorum: Vec<usize> = match tag(value, "model", EXPECTED)? {
        ("persistence_quorum", Some(body)) => read_object(body, "persistence_quorum", |f| {
            entries("persistence_quorum", "quorum", f.get("quorum")?, Ok)
        })?,
        _ => return Ok(protocol(value)?.build(n)),
    };
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
    Ok(Arc::new(PersistenceQuorumModel::new(n, quorum)))
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
/// the worst possible failure mode for an operator tool. Range checks the
/// plan repeats are left to it ([`AnalysisSession::plan`]): the time axis,
/// the posterior, and the `MAX_*` limits of [`prob_consensus::query`].
pub fn parse_query(spec: &JsonValue) -> Result<ParsedQuery, String> {
    let parsed = read_object(spec, "query", |q| {
        let defaults = Budget::default();
        let epistemic = q.object("posterior", |p| {
            let draws = p.get("draws")?;
            let budget = EpistemicBudget::new(draws, p.get("alpha")?, p.get("beta")?);
            Ok(match p.opt("level")? {
                Some(level) => budget.with_level(level),
                None => budget,
            })
        })?;
        let budget = Budget {
            monte_carlo_samples: q.opt("samples")?.unwrap_or(defaults.monte_carlo_samples),
            seed: q.opt("seed")?.unwrap_or(defaults.seed),
            epistemic,
            ..defaults
        };
        let metrics = q.object("metrics", |m| {
            Ok(Metrics {
                safe: m.opt("safe")?.unwrap_or(true),
                live: m.opt("live")?.unwrap_or(true),
                safe_and_live: m.opt("safe_and_live")?.unwrap_or(true),
            })
        })?;
        let protocols = q.list("protocols", protocol)?.unwrap_or_default();
        let nodes = q.list("nodes", Ok)?.unwrap_or_default();
        let fault_probs = q.opt("fault_probs")?.map(fault_probs).transpose()?;
        let fault_probs = fault_probs.unwrap_or_default();
        let axis = q.opt("faults")?.map(fault_axis).transpose()?;
        // The grid's model and profile constructors assert these.
        if let Some(&n) = nodes.iter().min() {
            for spec in &protocols {
                quorums_fit(spec, n)?;
            }
        }
        if let Some(FaultAxis::Mixed { byzantine }) = axis {
            for &p in &fault_probs {
                FaultProfile::try_new(p, byzantine).map_err(|e| format!("query: {e}"))?;
            }
        }
        let mut query = Query::new()
            .protocols(protocols)
            .nodes(nodes)
            .fault_probs(fault_probs)
            .samples_sweep(q.list("samples_sweep", Ok)?.unwrap_or_default())
            .fault_environments(q.list("environments", environment)?.unwrap_or_default())
            .budget(budget)
            .metrics(metrics.unwrap_or_default());
        if let Some(axis) = axis {
            query = query.faults(axis);
        }
        if let Some(specs) = q.list("correlations", correlation)? {
            query = query.correlations(specs);
        }
        if q.opt("validate")?.unwrap_or(false) {
            query = query.validate_with_simulation();
        }
        let time_axis = q.object("time_axis", |t| {
            let (horizon_hours, step_hours) = (t.get("horizon_hours")?, t.get("step_hours")?);
            let window_hours = t.opt("window_hours")?.unwrap_or(step_hours);
            let target_nines = t.opt("target_nines")?;
            Ok(TimeAxis {
                horizon_hours,
                step_hours,
                window_hours,
                target_nines,
            })
        })?;
        if let Some(axis) = time_axis {
            query = query.time_horizon(axis);
        }
        let cells = q.list("cells", |cell| {
            read_object(cell, "cell", |c| {
                let label: &str = c.get("label")?;
                let deployment = deployment(c.get("deployment")?)?;
                let model = cell_model(c.get("model")?, deployment.len())?;
                Ok((label.to_string(), model, deployment))
            })
        })?;
        for (label, model, deployment) in cells.unwrap_or_default() {
            query = query.cell(label, model, deployment);
        }
        let groups = q.list("repairable_cells", |cell| {
            // The group's constructor asserts these; its size is the plan's.
            read_object(cell, "repairable cell", |c| {
                let label: &str = c.get("label")?;
                let n: usize = c.within("n", 1.0..=u32::MAX as f64)?;
                let lambda = c.within("lambda", POSITIVE)?;
                let mu = c.within("mu", NON_NEGATIVE)?;
                let tolerated = c.within("tolerated_failures", 0.0..=(n - 1) as f64)?;
                Ok((
                    label.to_string(),
                    RepairableGroup::new(n, lambda, mu, tolerated),
                ))
            })
        })?;
        for (label, group) in groups.unwrap_or_default() {
            query = query.repairable_cell(label, group);
        }
        Ok(ParsedQuery {
            query,
            metrics: metrics.unwrap_or_default(),
        })
    })?;
    if parsed.query.cell_count() == 0 && parsed.query.trajectory_count() == 0 {
        return Err("query expands to zero cells".to_string());
    }
    Ok(parsed)
}

/// A parsed `optimize` request body, ready for
/// [`prob_consensus::optimize::optimize`].
pub struct ParsedOptimize {
    /// The deployment search space.
    pub space: DeploymentSpace,
    /// The search configuration (target nines, tier budgets, seeds).
    pub config: OptimizerConfig,
}

fn space(f: &mut Fields<'_>) -> Result<DeploymentSpace, String> {
    const TARGETS: &str = "'protocol' or 'quorum_size'";
    let instances = f.list("instances", |instance| {
        read_object(instance, "instance", |i| {
            let name: &str = i.get("name")?;
            let crash = i.within("fault_probability", PROBABILITY)?;
            let byzantine = i.opt_within("byzantine_probability", PROBABILITY)?;
            let byzantine = byzantine.unwrap_or(0.0);
            let profile = FaultProfile::try_new(crash, byzantine)
                .map_err(|e| format!("instance '{name}': {e}"))?;
            let cost = i.within("hourly_cost", NON_NEGATIVE)?;
            Ok(NodeType::from_profile(name, profile, cost))
        })
    })?;
    let nodes = f.list("nodes", Ok)?;
    let domains = f.object("domains", |d| {
        let racks = d.get("racks")?;
        let shock_probability = d.within("shock_probability", PROBABILITY)?;
        Ok(FailureDomains {
            racks,
            shock_probability,
        })
    })?;
    let placements = f.list("placements", |label: &str| {
        let placement = [Placement::SameRack, Placement::CrossRack];
        let placement = placement.into_iter().find(|p| p.label() == label);
        placement.ok_or_else(|| {
            unknown_tag("placement", (label, None), r#""same-rack" or "cross-rack""#)
        })
    })?;
    let target = match tag(f.get("target")?, "target", TARGETS)? {
        ("protocol", Some(body)) => TargetSpec::Protocol(protocol(body)?),
        ("quorum_size", Some(body)) => TargetSpec::PersistenceQuorum {
            quorum_size: typed("target", "quorum_size", body)?,
        },
        other => return Err(unknown_tag("target", other, TARGETS)),
    };
    Ok(DeploymentSpace {
        instances: instances.unwrap_or_default(),
        nodes: nodes.unwrap_or_default(),
        domains,
        placements: placements.unwrap_or_default(),
        target,
    })
}

fn config(f: &mut Fields<'_>) -> Result<OptimizerConfig, String> {
    // The constructor asserts on the target, so it is checked here.
    let base = OptimizerConfig::new(f.within("target_nines", NON_NEGATIVE)?);
    let threshold = f.opt_within("rare_event_threshold", ABOVE_ZERO..=BELOW_ONE)?;
    Ok(OptimizerConfig {
        screen_samples: f.opt("screen_samples")?.unwrap_or(base.screen_samples),
        refine_samples: f.opt("refine_samples")?.unwrap_or(base.refine_samples),
        seed: f.opt("seed")?.unwrap_or(base.seed),
        rare_event_threshold: threshold.unwrap_or(base.rare_event_threshold),
        repair: f.object("repair", |r| {
            let mttr_hours = r.within("mttr_hours", POSITIVE)?;
            let mission_hours = r.within("mission_hours", POSITIVE)?;
            Ok(RepairPolicy {
                mttr_hours,
                mission_hours,
            })
        })?,
        ..base
    })
}

/// The `space` and `config` members of an optimize request.
fn optimize_members(f: &mut Fields<'_>) -> Result<ParsedOptimize, String> {
    Ok(ParsedOptimize {
        space: read_object(f.get("space")?, "space", space)?,
        config: read_object(f.get("config")?, "config", config)?,
    })
}

/// Parses the `space` and `config` members of an `{"op":"optimize"}` request
/// (with or without its `id` and `op`).
///
/// Like [`parse_query`], unknown keys anywhere in the payload are rejected: a
/// misspelled knob silently falling back to its default would hand an operator
/// a confidently wrong frontier.
pub fn parse_optimize(request: &JsonValue) -> Result<ParsedOptimize, String> {
    read_object(request, "optimize request", |f| {
        f.opt::<&JsonValue>("id")?;
        f.opt::<&str>("op")?;
        optimize_members(f)
    })
}

/// One request line, read.
enum Request {
    Query(Box<ParsedQuery>),
    Optimize(ParsedOptimize),
    Stats,
    Shutdown,
}

/// Reads a request: its envelope (`op`, and `id`, which is echoed back
/// whatever it holds) and the members its op takes.
fn read_request(request: &JsonValue) -> Result<Request, String> {
    const OPS: &str = "one of: query, optimize, stats, shutdown";
    read_object(request, "request", |f| {
        f.opt::<&JsonValue>("id")?;
        match f.get("op")? {
            "query" => Ok(Request::Query(Box::new(parse_query(f.get("query")?)?))),
            "optimize" => optimize_members(f).map(Request::Optimize),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(unknown_tag("op", (other, None), OPS)),
        }
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
    /// Wall time of the last completed query execution or optimizer search, in ms.
    pub last_plan_wall_ms: f64,
    /// Total wall time of all completed query executions and optimizer searches, in ms.
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
fn handle_line(server: &Arc<Server>, line: &str, writer: &Arc<Outbox>) -> Action {
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

/// Pause after a failed `accept` before the next one. Accept fails when the
/// process is out of file descriptors (`EMFILE`), and the pending connection
/// stays queued, so retrying at once would spin until a connection closes.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

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
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
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
        let line = match read_request_line(&mut reader, &mut buf) {
            Ok(None) => break,
            Ok(Some(Ok(()))) => {
                std::str::from_utf8(&buf).map_err(|_| "request line is not UTF-8".to_string())
            }
            Ok(Some(Err(()))) => Err(format!(
                "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
            )),
            Err(err) if matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err("read timed out".to_string())
            }
            Err(err) => return Err(err),
        };
        let line = match line {
            Ok(line) => line,
            Err(why) => {
                let message = format!("{why}; closing connection");
                emit(writer, &error_event(&JsonValue::Null, message));
                break;
            }
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
        // A failed accept (typically out of file descriptors) must not end
        // the service: log it, back off, and retry.
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(err) => {
                eprintln!("repro serve: accept failed: {err}");
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        connections.retain(|c| !c.is_finished());
        let server = Arc::clone(server);
        let stop = Arc::clone(&stop);
        connections.push(std::thread::spawn(move || {
            match handle_tcp_connection(&server, stream) {
                Ok(true) => {
                    stop.store(true, Ordering::Release);
                    if let Err(err) = TcpStream::connect(wake) {
                        eprintln!("repro serve: cannot wake the listener to stop it: {err}");
                    }
                }
                Ok(false) => {}
                Err(err) => eprintln!("repro serve: connection setup failed: {err}"),
            }
        }));
    }
    for connection in connections {
        let _ = connection.join();
    }
    Ok(())
}

/// Sets up and serves one TCP connection. Returns `true` when it asked the
/// server to shut down; an error means the connection could not be set up.
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
    // How the connection ended — a read error or a dead output side — is the
    // peer's business, not a server error.
    Ok(matches!(
        serve_with_writer(server, reader, stream, outbox).0,
        Ok(true)
    ))
}

/// Runs one complete in-memory exchange against `server`: feeds `input` (one
/// request per line) through [`serve_connection`] and returns the emitted
/// NDJSON output. The backbone of the smoke tests and of the bench crate's
/// warm-vs-cold server test.
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
