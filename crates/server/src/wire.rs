//! The wire grammar: one strict reader for every request object.

use std::ops::RangeInclusive;
use std::sync::Arc;

use fault_model::correlation::CorrelationModel;
use fault_model::markov::RepairableGroup;
use fault_model::mode::FaultProfile;
use prob_consensus::durability::PersistenceQuorumModel;
use prob_consensus::engine::{Budget, EpistemicBudget, FaultEnvironment};
use prob_consensus::json::JsonValue;
use prob_consensus::optimize::{
    DeploymentSpace, FailureDomains, NodeType, OptimizerConfig, Placement, RepairPolicy, TargetSpec,
};
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{
    logspace, CorrelationSpec, FaultAxis, Metrics, ProtocolSpec, Query, TimeAxis, MAX_AXIS_LEN,
    MAX_NODES,
};

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

fn deployment(value: &JsonValue) -> Result<CorrelationModel, String> {
    const EXPECTED: &str = r#"{"uniform_crash"|"uniform_byzantine"|"uniform_mixed":{..}}"#;
    // Built while the request is read, so its size is bounded here.
    const NODES: RangeInclusive<f64> = 1.0..=MAX_NODES as f64;
    let (n, profile) = match tag(value, "deployment", EXPECTED)? {
        ("uniform_crash", Some(body)) => read_object(body, "uniform_crash", |f| {
            let n = f.within("n", NODES)?;
            Ok((n, FaultProfile::crash_only(f.within("p", PROBABILITY)?)))
        })?,
        ("uniform_byzantine", Some(body)) => read_object(body, "uniform_byzantine", |f| {
            let n = f.within("n", NODES)?;
            Ok((n, FaultProfile::byzantine_only(f.within("p", PROBABILITY)?)))
        })?,
        ("uniform_mixed", Some(body)) => read_object(body, "uniform_mixed", |f| {
            let (n, crash) = (f.within("n", NODES)?, f.within("crash", PROBABILITY)?);
            Ok((
                n,
                FaultProfile::new(crash, f.within("byzantine", PROBABILITY)?),
            ))
        })?,
        other => return Err(unknown_tag("deployment", other, EXPECTED)),
    };
    Ok(CorrelationModel::uniform(n, profile))
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
    /// The query, ready for
    /// [`AnalysisSession::plan`](prob_consensus::query::AnalysisSession::plan).
    pub query: Query,
    /// The report metrics selection (default: all three guarantees).
    pub metrics: Metrics,
}

/// Parses the `query` object of a `{"op":"query"}` request into a [`Query`].
///
/// Unknown keys are rejected — a misspelled axis silently defaulting would be
/// the worst possible failure mode for an operator tool. Range checks the
/// plan repeats are left to it
/// ([`AnalysisSession::plan`](prob_consensus::query::AnalysisSession::plan)):
/// the time axis, the posterior, and the `MAX_*` limits of
/// [`prob_consensus::query`].
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
pub(crate) enum Request {
    Query(Box<ParsedQuery>),
    Optimize(ParsedOptimize),
    Stats,
    Shutdown,
}

/// Reads a request: its envelope (`op`, and `id`, which is echoed back
/// whatever it holds) and the members its op takes.
pub(crate) fn read_request(request: &JsonValue) -> Result<Request, String> {
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
