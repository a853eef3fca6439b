//! The repository benchmark: socket-driven workloads against `repro serve`,
//! plus an in-process traced run for the per-layer numbers. See README.md.
//!
//! ```text
//! repro-benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last line
//! repro-benchmark --seed N [--seconds S] [--runs K] [--smoke]     every workload -> out/result.json
//! repro-benchmark compare A.json B.json                          judge B against A
//! ```

mod client;
mod compare;
mod runner;
mod server_proc;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use prob_consensus::json::JsonValue;

use crate::runner::{Sample, SocketRun};
use crate::stats::{highest_supported_percentile, median, percentile, sorted, spread};
use crate::workloads::{interleaved, Op, Workload};

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end only).
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the harness reads: it owns the metric names,
/// units and bounds; the harness must emit exactly those names.
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    fn load(root: &Path) -> Result<Spec, String> {
        let path = root.join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let value = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| -> Result<&[JsonValue], String> {
            value
                .get(key)
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("BENCHMARK.json: missing '{key}'"))
        };
        let text_of = |item: &JsonValue, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(MetricSpec {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        lower_is_better: text_of(item, "better")? == "lower",
                        bound: item.get("bound").and_then(|b| b.as_f64()).unwrap_or(0.0),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: value
                .get("run_seconds")
                .and_then(|v| v.as_f64())
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The checkout this harness was built in: the parent of `benchmarks/`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmarks/ has a parent")
        .to_path_buf()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Builds `repro` from the checkout's source (release profile) and returns
/// the binary's path and the build's wall time, which no metric includes.
fn build_repro(root: &Path) -> Result<(PathBuf, f64), String> {
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "-p", "bench"])
        .args(["--bin", "repro", "--manifest-path"])
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building repro failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), PathBuf::from);
    let binary = target.join("release").join("repro");
    if !binary.is_file() {
        return Err(format!("no repro binary at {}", binary.display()));
    }
    Ok((binary, started.elapsed().as_secs_f64()))
}

/// What one run reports: the contract's result line plus what the humans and
/// `result.json` want beside it.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64)>,
    samples: usize,
    wall_s: f64,
}

struct Run<'a> {
    root: &'a Path,
    binary: &'a Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
}

impl Run<'_> {
    fn clients(&self) -> usize {
        self.workload.clients().min(nproc()).min(2)
    }
}

fn latencies(samples: &[Sample], pick: impl Fn(&Sample) -> Option<f64>) -> Vec<f64> {
    sorted(samples.iter().filter_map(pick).collect())
}

/// Prints what went wrong and wraps `metrics` with the run's counts.
fn outcome(socket: &SocketRun, metrics: Vec<(String, f64)>) -> Outcome {
    for message in socket.timed.messages.iter().chain(&socket.mismatches) {
        eprintln!("FAILED {message}");
    }
    let failed = socket.timed.failed + socket.mismatches.len();
    println!(
        "verified {} responses against one-shot references; {} of {} requests failed",
        socket.verified, failed, socket.timed.attempted
    );
    Outcome {
        correct: failed == 0,
        attempted: socket.timed.attempted,
        failed,
        metrics,
        samples: socket.timed.samples.len(),
        wall_s: socket.timed.wall_s,
    }
}

/// The untraced run: every end-to-end metric, from the socket alone.
fn end_to_end(run: &Run) -> Result<Outcome, String> {
    // Five set-ups per run: `setup_s` is their median. A young server may or
    // may not get both cores (`runner::SETTLE`), which makes single set-ups of
    // the compute-bound workloads fall into two modes 60% apart.
    let socket = runner::run(
        run.binary,
        run.workload,
        run.seed,
        run.clients(),
        run.seconds,
        5,
        false,
    )?;
    let all = latencies(&socket.timed.samples, |s| Some(s.latency_ms));
    if let Some(p) = highest_supported_percentile(all.len()) {
        println!(
            "{} latency samples; the highest percentile with ten samples beyond it is p{p}",
            all.len()
        );
    }
    let metrics = vec![
        (
            "setup_s".to_string(),
            median(&sorted(socket.setup_s.clone())),
        ),
        (
            "req_per_s".to_string(),
            all.len() as f64 / socket.timed.wall_s,
        ),
        ("lat_p50_ms".to_string(), median(&all)),
        ("lat_p90_ms".to_string(), percentile(&all, 90.0)),
    ];
    Ok(outcome(&socket, metrics))
}

/// The traced run: a shorter socket phase for the wire, per-op and process
/// figures, then the in-process replay for every layer behind the socket.
fn per_layer(run: &Run, traced_requests: usize) -> Result<Outcome, String> {
    let clients = run.clients();
    // Spawn this process's worker pool now: like the server's (see
    // `runner::SETTLE`), fresh workers share a core for their first seconds,
    // and the in-process measurements below must not start inside them.
    rayon::for_each_task(2, |_| {});
    let socket = runner::run(
        run.binary,
        run.workload,
        run.seed,
        clients,
        run.seconds / 4.0,
        1,
        true,
    )?;
    let warmup = run.workload.warmup(clients) * clients;
    let requests = interleaved(run.workload, run.seed, clients, warmup + traced_requests);
    let traced = trace::run(
        &requests,
        warmup,
        Duration::from_secs_f64(run.seconds / 4.0),
    )?;
    let path = run
        .root
        .join("benchmarks/out")
        .join(format!("trace-{}.ndjson", run.workload.name()));
    trace::write_spans(&path, &traced.spans, &requests)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} spans of {} requests written to {}",
        traced.spans.len(),
        traced.requests,
        path.display()
    );

    let mut m: BTreeMap<String, f64> = traced.metrics;
    m.extend(trace::scheduler_metrics(&requests, nproc())?);
    m.extend(trace::kernel_metrics(nproc()));

    let timed = &socket.timed;
    let all = latencies(&timed.samples, |s| Some(s.latency_ms));
    let first = latencies(&timed.samples, |s| Some(s.first_event_ms));
    let p50_of = |op: Op| {
        median(&latencies(&timed.samples, |s| {
            (s.op == op).then_some(s.latency_ms)
        }))
    };
    let attempted = timed.attempted.max(1) as f64;
    let exchange_p50_us = m["server.exchange_p50_us"];
    let usage = &socket.proc_usage;
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put(
        "wire.transport_p50_us",
        median(&all) * 1e3 - exchange_p50_us,
    );
    put("wire.first_event_p50_ms", median(&first));
    put("wire.lat_p99_ms", percentile(&all, 99.0));
    put("wire.lat_p999_ms", percentile(&all, 99.9));
    put("wire.events_per_req", timed.events as f64 / attempted);
    put("wire.bytes_in_per_req", timed.bytes_in as f64 / attempted);
    put("wire.bytes_out_per_req", timed.bytes_out as f64 / attempted);
    for op in [
        Op::Optimize,
        Op::Posterior,
        Op::Validate,
        Op::RareEvent,
        Op::Trajectory,
    ] {
        put(&format!("op.{}.p50_ms", op.label()), p50_of(op));
    }
    put("op.stats.p50_us", p50_of(Op::Stats) * 1e3);
    put(
        "cache.socket_hit_rate",
        socket
            .final_cache
            .get("hit_rate")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0),
    );
    put(
        "proc.cpu_ms_per_req",
        usage.cpu_s * 1e3 / all.len().max(1) as f64,
    );
    put("proc.cpu_util", usage.cpu_s / timed.wall_s / nproc() as f64);
    put("proc.peak_rss_mb", usage.peak_rss_mb);
    put("proc.threads_peak", usage.threads_peak);

    Ok(outcome(&socket, m.into_iter().collect()))
}

/// Orders `outcome`'s metrics as `specs` lists them; the two name sets must
/// be equal, so `BENCHMARK.json` and the harness cannot drift apart.
fn by_spec<'a>(
    outcome: &Outcome,
    specs: &'a [MetricSpec],
) -> Result<Vec<(&'a MetricSpec, f64)>, String> {
    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| !specs.iter().any(|s| &s.name == name))
    {
        return Err(format!("metric '{name}' is not declared in BENCHMARK.json"));
    }
    specs
        .iter()
        .map(|spec| {
            outcome
                .metrics
                .iter()
                .find(|(name, _)| name == &spec.name)
                .map(|(_, value)| (spec, *value))
                .ok_or_else(|| format!("metric '{}' was not measured", spec.name))
        })
        .collect()
}

fn print_metrics(metrics: &[(&MetricSpec, f64)]) {
    for (spec, value) in metrics {
        println!("{:<36} {value:>16.4} {}", spec.name, spec.unit);
    }
}

/// Prints every metric by name with its unit, then the contract's result
/// object as the last line.
fn print_outcome(outcome: &Outcome, specs: &[MetricSpec]) -> Result<(), String> {
    let metrics = by_spec(outcome, specs)?;
    print_metrics(&metrics);
    let members = metrics
        .into_iter()
        .map(|(spec, value)| {
            (
                spec.name.clone(),
                JsonValue::Object(vec![
                    ("value".to_string(), JsonValue::number(value)),
                    ("unit".to_string(), JsonValue::string(&spec.unit)),
                ]),
            )
        })
        .collect();
    let line = JsonValue::Object(vec![
        ("correct".to_string(), JsonValue::Bool(outcome.correct)),
        (
            "attempted".to_string(),
            JsonValue::number(outcome.attempted as f64),
        ),
        (
            "failed".to_string(),
            JsonValue::number(outcome.failed as f64),
        ),
        ("metrics".to_string(), JsonValue::Object(members)),
    ]);
    println!("{}", line.to_compact_string());
    Ok(())
}

fn command_output(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn number_object(pairs: impl IntoIterator<Item = (String, f64)>) -> JsonValue {
    JsonValue::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k, JsonValue::number(v)))
            .collect(),
    )
}

/// Every workload: `runs` untraced runs (seeds `seed`, `seed + 1`, ...) and
/// one traced run each, written to `benchmarks/out/result.json`.
fn run_all(
    root: &Path,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    runs: u64,
    traced_cap: Option<usize>,
) -> Result<bool, String> {
    let (binary, build_s) = build_repro(root)?;
    println!("built repro in {build_s:.1} s (not part of any metric)");
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in workloads::ALL {
        let mut run = Run {
            root,
            binary: &binary,
            workload,
            seed,
            seconds,
        };
        let mut run_values = Vec::new();
        let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for k in 0..runs {
            run.seed = seed + k;
            println!("== {} seed {} ==", workload.name(), run.seed);
            let outcome = end_to_end(&run)?;
            all_correct &= outcome.correct;
            let metrics = by_spec(&outcome, &spec.end_to_end)?;
            print_metrics(&metrics);
            for (spec, value) in metrics {
                by_metric.entry(&spec.name).or_default().push(value);
            }
            run_values.push(JsonValue::Object(vec![
                ("seed".to_string(), JsonValue::number(run.seed as f64)),
                (
                    "attempted".to_string(),
                    JsonValue::number(outcome.attempted as f64),
                ),
                (
                    "failed".to_string(),
                    JsonValue::number(outcome.failed as f64),
                ),
                (
                    "samples".to_string(),
                    JsonValue::number(outcome.samples as f64),
                ),
                ("wall_s".to_string(), JsonValue::number(outcome.wall_s)),
                ("metrics".to_string(), number_object(outcome.metrics)),
            ]));
        }
        if runs > 1 {
            for (name, values) in &by_metric {
                let values = sorted(values.clone());
                println!(
                    "{} {name}: median {:.4}, spread {:.4} over {runs} runs",
                    workload.name(),
                    median(&values),
                    spread(&values)
                );
            }
        }
        run.seed = seed;
        println!("== {} traced ==", workload.name());
        let cap = traced_cap.unwrap_or(workload.traced_requests());
        let traced = per_layer(&run, cap)?;
        all_correct &= traced.correct;
        print_metrics(&by_spec(&traced, &spec.per_layer)?);
        workloads.push((
            workload.name().to_string(),
            JsonValue::Object(vec![
                (
                    "clients".to_string(),
                    JsonValue::number(run.clients() as f64),
                ),
                ("runs".to_string(), JsonValue::Array(run_values)),
                ("per_layer".to_string(), number_object(traced.metrics)),
            ]),
        ));
    }
    let result = JsonValue::Object(vec![
        (
            "meta".to_string(),
            JsonValue::Object(vec![
                ("nproc".to_string(), JsonValue::number(nproc() as f64)),
                (
                    "rustc".to_string(),
                    JsonValue::string(command_output("rustc", &["--version"], root)),
                ),
                (
                    "commit".to_string(),
                    JsonValue::string(command_output("git", &["rev-parse", "HEAD"], root)),
                ),
                ("seed".to_string(), JsonValue::number(seed as f64)),
                ("seconds".to_string(), JsonValue::number(seconds)),
                ("runs".to_string(), JsonValue::number(runs as f64)),
                ("build_s".to_string(), JsonValue::number(build_s)),
            ]),
        ),
        ("workloads".to_string(), JsonValue::Object(workloads)),
    ]);
    let path = root.join("benchmarks/out/result.json");
    std::fs::create_dir_all(path.parent().expect("result.json has a directory"))
        .and_then(|()| std::fs::write(&path, format!("{result}\n")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

const USAGE: &str =
    "usage: repro-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       repro-benchmark --seed <n> [--seconds <s>] [--runs <k>] [--smoke]
       repro-benchmark compare <A.json> <B.json>";

/// `--flag value` pairs and bare `--smoke`, nothing else.
fn parse_flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut flags = BTreeMap::new();
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--smoke" => {
                flags.insert("--smoke", "1");
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--runs" => {
                let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(flags)
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    let spec = Spec::load(&root)?;
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.to_string());
        };
        let load = |path: &String| -> Result<JsonValue, String> {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        return compare::compare(&spec, &load(a)?, &load(b)?);
    }

    let flags = parse_flags(&args)?;
    let number = |flag: &str| -> Result<Option<f64>, String> {
        flags
            .get(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag}: '{v}' is not a number"))
            })
            .transpose()
    };
    let seed: u64 = flags
        .get("--seed")
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer".to_string())?;
    let smoke = flags.contains_key("--smoke");
    let seconds = match number("--seconds")? {
        Some(s) if s > 0.0 => s,
        Some(_) => return Err("--seconds must be positive".to_string()),
        None if smoke => 2.0,
        None => spec.run_seconds,
    };

    let Some(name) = flags.get("--workload") else {
        let runs = number("--runs")?.map_or(1, |r| r.max(1.0) as u64);
        return run_all(&root, &spec, seed, seconds, runs, smoke.then_some(32));
    };
    let workload =
        Workload::from_name(name).ok_or_else(|| format!("unknown workload '{name}'\n{USAGE}"))?;
    let (binary, build_s) = build_repro(&root)?;
    println!("built repro in {build_s:.1} s (not part of any metric)");
    let run = Run {
        root: &root,
        binary: &binary,
        workload,
        seed,
        seconds,
    };
    let traced = match flags.get("--trace").copied() {
        Some("1") => true,
        Some("0") | None => false,
        Some(other) => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let outcome = if traced {
        per_layer(&run, workload.traced_requests())?
    } else {
        end_to_end(&run)?
    };
    print_outcome(
        &outcome,
        if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        },
    )?;
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
