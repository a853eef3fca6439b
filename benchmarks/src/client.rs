//! One client connection: sends a request line, reads its events up to the
//! terminal one, and checks the response's structure while it streams.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use prob_consensus::json::JsonValue;

use crate::server_proc::TIMEOUT;
use crate::workloads::{Op, Request};

/// What one request drew from the server.
pub struct Exchange {
    /// Request write started to terminal event line read, in seconds.
    pub latency_s: f64,
    /// Request write started to first event line read, in seconds.
    pub first_event_s: f64,
    pub events: usize,
    pub bytes_out: usize,
    /// Every event line, kept only when the caller asked for them.
    pub lines: Vec<String>,
    /// The terminal event, parsed.
    pub terminal: JsonValue,
    /// Why this response counts as failed, if it does.
    pub failure: Option<String>,
}

pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Splits an event line into its kind and the text after it, checking that
/// it opens with this request's id: `{"id":"<id>","event":"<kind>"<rest>`.
fn event_kind<'a>(line: &'a str, id: &str) -> Option<(&'a str, &'a str)> {
    let rest = line
        .strip_prefix("{\"id\":\"")?
        .strip_prefix(id)?
        .strip_prefix("\",\"event\":\"")?;
    rest.split_once('"')
}

/// The `index` of a `cell` / `trajectory` event: `,"index":<n>,...`.
fn event_index(rest: &str) -> Option<usize> {
    let digits = rest.strip_prefix(",\"index\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// Marks `index` seen; an index that repeats is a duplicated record.
fn mark(seen: &mut Vec<bool>, index: usize) -> bool {
    if seen.len() <= index {
        seen.resize(index + 1, false);
    }
    !std::mem::replace(&mut seen[index], true)
}

/// Checks the streamed record indices against the terminal event's counts:
/// every index below the count exactly once.
fn check_counts(done: &JsonValue, key: &str, seen: &[bool]) -> Result<(), String> {
    let count = done
        .get(key)
        .and_then(|v| v.as_f64())
        .ok_or_else(|| format!("done event lacks '{key}'"))? as usize;
    if seen.len() == count && seen.iter().all(|&s| s) {
        Ok(())
    } else {
        Err(format!(
            "done reports {count} {key} but {} distinct indices below {} streamed",
            seen.iter().filter(|&&s| s).count(),
            seen.len()
        ))
    }
}

impl Connection {
    /// Connects with `TCP_NODELAY` on this (the client's) side only, and a
    /// read timeout so a hung server fails the request instead of the harness.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        Ok(Connection {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends `request` and reads its response. `Err` means the connection is
    /// no longer usable (timeout, EOF, a line for another request).
    pub fn exchange(&mut self, request: &Request, keep_lines: bool) -> Result<Exchange, String> {
        let mut out = Vec::with_capacity(request.line.len() + 1);
        out.extend_from_slice(request.line.as_bytes());
        out.push(b'\n');
        // Stamped before the write: on loopback the server can answer while
        // this thread is still inside `write_all`, and a stamp taken after it
        // reads a `stats` reply as taking 2 us.
        let sent = Instant::now();
        self.writer
            .write_all(&out)
            .map_err(|e| format!("{}: write failed: {e}", request.id))?;

        let mut exchange = Exchange {
            latency_s: 0.0,
            first_event_s: 0.0,
            events: 0,
            bytes_out: 0,
            lines: Vec::new(),
            terminal: JsonValue::Null,
            failure: None,
        };
        let mut cells = Vec::new();
        let mut trajectories = Vec::new();
        let mut reports = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Err(format!("{}: connection closed mid-response", request.id)),
                Ok(n) => exchange.bytes_out += n,
                Err(e) => return Err(format!("{}: read failed: {e}", request.id)),
            }
            let now = sent.elapsed().as_secs_f64();
            if exchange.events == 0 {
                exchange.first_event_s = now;
            }
            exchange.events += 1;
            let text = line.trim_end();
            let (kind, rest) = event_kind(text, &request.id)
                .ok_or_else(|| format!("{}: unexpected line {text:.120}", request.id))?;
            let terminal = matches!(kind, "done" | "stats" | "error");
            let mut fail = |why: String| {
                exchange.failure.get_or_insert(why);
            };
            match kind {
                "cell" | "trajectory" => {
                    let seen = if kind == "cell" {
                        &mut cells
                    } else {
                        &mut trajectories
                    };
                    match event_index(rest) {
                        Some(index) if mark(seen, index) => {}
                        Some(index) => fail(format!("{kind} index {index} streamed twice")),
                        None => fail(format!("{kind} event without an index")),
                    }
                }
                "optimize" => reports += 1,
                "done" | "stats" | "error" => {}
                other => fail(format!("unknown event kind '{other}'")),
            }
            if keep_lines {
                exchange.lines.push(text.to_string());
            }
            if !terminal {
                continue;
            }
            exchange.latency_s = now;
            exchange.terminal =
                JsonValue::parse(text).map_err(|e| format!("{}: bad JSON: {e}", request.id))?;
            let verdict = match (kind, request.op) {
                ("error", _) => Err(format!("error event: {text:.200}")),
                ("stats", Op::Stats) => Ok(()),
                ("done", Op::Optimize) if reports == 1 => Ok(()),
                ("done", Op::Optimize) => Err(format!("{reports} optimize events, expected 1")),
                ("done", Op::Stats) | ("stats", _) => {
                    Err(format!("'{kind}' ended a {:?}", request.op))
                }
                ("done", _) => check_counts(&exchange.terminal, "cells", &cells)
                    .and_then(|()| check_counts(&exchange.terminal, "trajectories", &trajectories)),
                _ => unreachable!("terminal kinds are matched above"),
            };
            if let Err(why) = verdict {
                exchange.failure.get_or_insert(why);
            }
            return Ok(exchange);
        }
    }

    /// Sends `shutdown` and waits for its acknowledgement.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.writer
            .write_all(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: write failed: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("shutdown: read failed: {e}"))?;
        if line.trim_end() == "{\"id\":\"bye\",\"event\":\"shutdown\"}" {
            Ok(())
        } else {
            Err(format!("shutdown: unexpected reply {line:?}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lines_split_into_kind_and_index() {
        let line = r#"{"id":"c0-3","event":"cell","index":12,"cell":{}}"#;
        let (kind, rest) = event_kind(line, "c0-3").unwrap();
        assert_eq!(kind, "cell");
        assert_eq!(event_index(rest), Some(12));
        assert!(event_kind(line, "c0-4").is_none());
        assert!(event_kind(line, "c0-31").is_none());
    }

    #[test]
    fn lost_and_duplicated_indices_fail_the_count_check() {
        let done = JsonValue::parse(r#"{"cells":3,"trajectories":0}"#).unwrap();
        assert!(check_counts(&done, "cells", &[true, true, true]).is_ok());
        assert!(check_counts(&done, "cells", &[true, false, true]).is_err());
        assert!(check_counts(&done, "cells", &[true, true]).is_err());
        assert!(check_counts(&done, "trajectories", &[]).is_ok());
        let mut seen = Vec::new();
        assert!(mark(&mut seen, 1));
        assert!(!mark(&mut seen, 1));
    }
}
