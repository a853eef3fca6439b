//! The socket run: spawn `repro serve`, warm it up, drive it in a closed loop
//! from `min(nproc, 2)` client threads for a fixed time, shut it down, and
//! verify what it answered.

use std::path::Path;
use std::time::{Duration, Instant};

use prob_consensus::json::JsonValue;

use crate::client::Connection;
use crate::server_proc::{cpu_seconds, status_field, ServerProcess};
use crate::verify;
use crate::workloads::{corpus, Op, Request, Workload};

/// One in this many timed responses is kept and deep-verified (every
/// `warm-lookup` warm-up response is, so the whole corpus gets checked).
const VERIFY_ONE_IN: u64 = 16;

/// The timed phase starts no sooner than this after the server was spawned.
/// Measured on the 2-core sandbox: for its first ~1.5 s a fresh `repro serve`
/// runs its two pool workers on one core (the same sweep costs 87 ms instead
/// of 44 ms at equal CPU time), whether it is busy or idle meanwhile.
const SETTLE: Duration = Duration::from_secs(3);

/// Failure messages kept per phase; the count is always exact.
const MAX_MESSAGES: usize = 8;

pub struct Sample {
    pub op: Op,
    pub latency_ms: f64,
    pub first_event_ms: f64,
}

/// What one client thread saw during one phase.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub attempted: usize,
    pub failed: usize,
    pub messages: Vec<String>,
    /// Requests whose event lines were kept, for deep verification.
    pub kept: Vec<(Request, Vec<String>)>,
    pub events: usize,
    pub bytes_in: usize,
    pub bytes_out: usize,
    pub wall_s: f64,
}

impl Phase {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(why);
        }
    }

    fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(MAX_MESSAGES);
        self.kept.extend(other.kept);
        self.events += other.events;
        self.bytes_in += other.bytes_in;
        self.bytes_out += other.bytes_out;
        self.wall_s = self.wall_s.max(other.wall_s);
    }
}

/// The server's CPU and memory over the timed phase.
#[derive(Default)]
pub struct ProcUsage {
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub threads_peak: f64,
}

pub struct SocketRun {
    /// Spawn to warm-up done, once per set-up performed.
    pub setup_s: Vec<f64>,
    pub timed: Phase,
    /// The `cache` object of a `stats` reply taken after the timed phase.
    pub final_cache: JsonValue,
    pub proc_usage: ProcUsage,
    /// Responses deep-verified, and those that differed from their reference.
    pub verified: usize,
    pub mismatches: Vec<String>,
}

struct Stream<'a> {
    workload: Workload,
    corpus: &'a [(Op, String)],
    seed: u64,
    clients: usize,
    client: usize,
}

impl Stream<'_> {
    fn request(&self, index: usize) -> Request {
        self.workload
            .request(self.corpus, self.seed, self.clients, self.client, index)
    }

    /// Whether response `index` is in the seeded 1-in-16 verification sample.
    fn sampled(&self, index: usize) -> bool {
        let mut rng = crate::workloads::Rng::new(
            self.seed
                ^ ((self.client as u64) << 48)
                ^ (index as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        rng.below(VERIFY_ONE_IN) == 0
    }
}

/// The closed loop of one client: request `index` goes out only after
/// `index - 1` has been answered. Runs while `keep_going(index)`.
fn drive(
    connection: &mut Connection,
    stream: &Stream,
    first_index: usize,
    keep_all: bool,
    keep_going: impl Fn(usize) -> bool,
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    let mut index = first_index;
    while keep_going(index) {
        let request = stream.request(index);
        let keep = request.op != Op::Stats && (keep_all || stream.sampled(index));
        phase.attempted += 1;
        phase.bytes_in += request.line.len() + 1;
        match connection.exchange(&request, keep) {
            Ok(mut exchange) => {
                phase.events += exchange.events;
                phase.bytes_out += exchange.bytes_out;
                match exchange.failure.take() {
                    Some(why) => phase.fail(format!("{}: {why}", request.id)),
                    None => {
                        phase.samples.push(Sample {
                            op: request.op,
                            latency_ms: exchange.latency_s * 1e3,
                            first_event_ms: exchange.first_event_s * 1e3,
                        });
                        if keep {
                            phase.kept.push((request, exchange.lines));
                        }
                    }
                }
            }
            Err(why) => {
                // The connection is out of step with the server: stop.
                phase.fail(why);
                break;
            }
        }
        index += 1;
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase
}

/// Runs `drive` on every connection at once and merges the phases; `poll`
/// runs every 50 ms meanwhile.
fn drive_all(
    connections: &mut [Connection],
    streams: &[Stream],
    first_index: usize,
    keep_all: bool,
    keep_going: impl Fn(usize) -> bool + Sync,
    mut poll: Option<&mut dyn FnMut()>,
) -> Phase {
    std::thread::scope(|scope| {
        let keep_going = &keep_going;
        let handles: Vec<_> = connections
            .iter_mut()
            .zip(streams)
            .map(|(connection, stream)| {
                scope.spawn(move || drive(connection, stream, first_index, keep_all, keep_going))
            })
            .collect();
        // Without a poll the main thread just joins, so it takes no CPU
        // from the clients and the server.
        while let Some(poll) = poll.as_mut() {
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
            poll();
            std::thread::sleep(Duration::from_millis(50));
        }
        let mut merged = Phase::default();
        for handle in handles {
            merged.merge(handle.join().expect("client thread panicked"));
        }
        merged
    })
}

/// Closes the session: the other connections first (the server waits for
/// them), then `shutdown` on the last and the process's exit.
fn shut_down(server: ServerProcess, mut connections: Vec<Connection>) -> Result<(), String> {
    let last = connections.pop().ok_or("no connection to shut down on")?;
    drop(connections);
    last.shutdown()?;
    server.wait_for_exit()
}

/// Drives `workload` over real sockets. `setups` servers are spawned and
/// warmed up in turn (each timed, for `setup_s`); the last one serves the
/// timed phase of `seconds`.
pub fn run(
    binary: &Path,
    workload: Workload,
    seed: u64,
    clients: usize,
    seconds: f64,
    setups: usize,
    sample_proc: bool,
) -> Result<SocketRun, String> {
    let corpus = corpus(seed);
    let streams: Vec<Stream> = (0..clients)
        .map(|client| Stream {
            workload,
            corpus: &corpus,
            seed,
            clients,
            client,
        })
        .collect();
    let warmup = workload.warmup(clients);

    let mut setup_s = Vec::new();
    let mut kept = Vec::new();
    let mut ready = None;
    for round in 0..setups {
        let started = Instant::now();
        let server = ServerProcess::spawn(binary)?;
        let mut connections = (0..clients)
            .map(|_| Connection::open(server.addr).map_err(|e| format!("connect failed: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let keep_all = workload == Workload::WarmLookup && round + 1 == setups;
        let phase = drive_all(
            &mut connections,
            &streams,
            0,
            keep_all,
            |i| i < warmup,
            None,
        );
        setup_s.push(started.elapsed().as_secs_f64());
        if phase.failed > 0 {
            return Err(format!("warm-up failed: {}", phase.messages.join("; ")));
        }
        if round + 1 < setups {
            shut_down(server, connections)?;
        } else {
            kept = phase.kept;
            // Not part of `setup_s`: the process is merely too young to time.
            std::thread::sleep(SETTLE.saturating_sub(started.elapsed()));
            ready = Some((server, connections));
        }
    }
    let (server, mut connections) = ready.ok_or("at least one set-up is needed")?;

    let pid = server.pid();
    let cpu_before = cpu_seconds(pid).unwrap_or(0.0);
    let mut threads_peak = status_field(pid, "Threads").unwrap_or(0.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut sample_threads =
        || threads_peak = threads_peak.max(status_field(pid, "Threads").unwrap_or(0.0));
    let mut timed = drive_all(
        &mut connections,
        &streams,
        warmup,
        false,
        |_| Instant::now() < deadline,
        sample_proc.then_some(&mut sample_threads as &mut dyn FnMut()),
    );
    let proc_usage = ProcUsage {
        cpu_s: cpu_seconds(pid).unwrap_or(0.0) - cpu_before,
        peak_rss_mb: status_field(pid, "VmHWM").unwrap_or(0.0) / 1024.0,
        threads_peak,
    };

    let stats = Request {
        id: "final-stats".to_string(),
        op: Op::Stats,
        line: "{\"id\":\"final-stats\",\"op\":\"stats\"}".to_string(),
    };
    let final_cache = connections[0]
        .exchange(&stats, false)?
        .terminal
        .get("cache")
        .cloned()
        .ok_or("stats reply without a 'cache' object")?;
    shut_down(server, connections)?;

    // The server is gone: deep verification cannot disturb the measurement.
    kept.append(&mut timed.kept);
    let (verified, mismatches) = verify::check_all(
        kept.iter()
            .map(|(request, lines)| (request.line.as_str(), lines.as_slice())),
    );
    Ok(SocketRun {
        setup_s,
        timed,
        final_cache,
        proc_usage,
        verified,
        mismatches,
    })
}
