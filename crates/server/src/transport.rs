//! The transport: outboxes, the line reader, and the stdio, TCP and in-memory front ends.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use prob_consensus::json::JsonValue;

use crate::exchange::{error_event, event, handle_line, Action, Server};

/// Upper bound on the bytes a connection may have queued for a peer that is
/// not taking them. A peer this far behind has stopped reading; holding more
/// for it would let one connection exhaust server memory. The check runs
/// before an event is appended, so one event of any size passes an empty
/// outbox.
pub(crate) const MAX_OUTBOX_BYTES: usize = 16 << 20;

/// Per-connection write timeout for TCP connections: how long one socket
/// write may make no progress (the peer's window closed, its application not
/// reading) before the connection is given up. Without it the writer thread of
/// a wedged peer, and the connection thread joining it, would never end.
pub(crate) const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// The output side of one connection. `emit` renders each event as one
/// compact, newline-terminated line and appends it to the buffer under the
/// lock, so concurrent plans never interleave *within* a line and no producer
/// ever touches the socket. A front end with a peer runs [`Outbox::drain`] on
/// a writer thread, which swaps the buffer out and hands the peer everything
/// that accumulated in one write; an in-memory exchange just takes the buffer.
pub(crate) struct Outbox {
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
    pub(crate) fn new(limit: usize, peer: Option<TcpStream>) -> Self {
        Self {
            state: Mutex::new(OutboxState::default()),
            ready: Condvar::new(),
            limit,
            peer,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, OutboxState> {
        // Never poisoned: every guard only sets flags, swaps or appends a String.
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
    pub(crate) fn is_dead(&self) -> bool {
        self.lock().dead
    }

    /// No further events will be emitted: lets [`Outbox::drain`] return once
    /// the buffer is written out.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_one();
    }

    /// Takes everything emitted and not yet drained.
    pub(crate) fn take(&self) -> String {
        std::mem::take(&mut self.lock().buf)
    }

    /// The writer loop: waits for events, swaps the buffer out and writes it
    /// to `sink` in one call, counting it in the server's `wire` totals first
    /// (so a peer that has read an event finds it counted). Whatever was
    /// emitted while the previous write was in the kernel leaves with the next
    /// one; there is no timer and no size threshold. Returns after
    /// [`Outbox::close`] with the buffer written out, or with the error that
    /// killed the connection.
    pub(crate) fn drain(&self, server: &Server, mut sink: impl Write) -> std::io::Result<()> {
        let mut batch = String::new();
        loop {
            let events = {
                let mut state = self.lock();
                while state.buf.is_empty() && !state.closed && !state.dead {
                    // Never poisoned, as in `Outbox::lock`.
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
                // Never poisoned: every stats guard only reads or bumps plain counters.
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

pub(crate) fn emit(outbox: &Outbox, value: &JsonValue) {
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

/// Upper bound on one request line, in bytes. A line longer than this is not a
/// plausible query — it is a runaway or hostile client — and buffering it
/// unbounded would let one connection exhaust server memory. Oversized lines
/// produce an `error` event and a clean close (in-flight queries still drain).
pub(crate) const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Per-connection read timeout for TCP connections. A peer that goes silent
/// mid-session (half-open connection, wedged client) would otherwise pin its
/// connection thread forever; after this long with no bytes, the connection
/// gets an `error` event and a clean close.
pub(crate) const TCP_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(300);

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
pub(crate) fn serve_connection(
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
            Ok(Some(Ok(()))) => match std::str::from_utf8(&buf) {
                Ok(line) => Ok(line),
                // Read whole, so nothing needs resyncing: one error, next line.
                Err(_) => {
                    let message = "request line is not UTF-8";
                    emit(writer, &error_event(&JsonValue::Null, message));
                    continue;
                }
            },
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
        // Cannot panic: `drain` takes only never-poisoned locks, and both sinks
        // (stdout, a TcpStream) report failures as errors.
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
/// request per line) through `serve_connection` and returns the emitted
/// NDJSON output. The backbone of the smoke tests and of the bench crate's
/// warm-vs-cold server test.
pub fn run_exchange(server: &Arc<Server>, input: &str) -> String {
    let outbox = Arc::new(Outbox::new(usize::MAX, None));
    // Cannot fail: `serve_connection` errs only when its reader does, and
    // reading a byte slice never does.
    serve_connection(server, input.as_bytes(), &outbox)
        .expect("in-memory exchange cannot fail on IO");
    outbox.take()
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use crate::tests::{events_for, MIXED_QUERY};

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
}
