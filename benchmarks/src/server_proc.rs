//! Lifecycle of the `repro serve` process under test, and its `/proc` counters.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a request, the listening line, or the exit after `shutdown` may
/// take before the server is declared hung and killed.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// Kernel clock ticks per second behind `/proc/<pid>/stat`'s utime/stime:
/// `USER_HZ`, 100 on every Linux architecture this repo builds on.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A running `repro serve --tcp 127.0.0.1:0`. Killed on drop, so no path out
/// of the harness (error, panic, timeout) leaves a `repro` process behind.
pub struct ServerProcess {
    child: Child,
    /// Drains the server's stderr to EOF, so a late diagnostic never hits a
    /// closed pipe; ends when the process does.
    stderr_reader: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Spawns the server on an ephemeral port and waits for its
    /// `repro serve: listening on <addr>` line on stderr.
    pub fn spawn(binary: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        // The server writes the line right after binding; a reader thread
        // turns "never writes it" into a timeout instead of a hang.
        let (tx, rx) = std::sync::mpsc::channel();
        let stderr_reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(stderr);
            let mut line = String::new();
            let _ = reader.read_line(&mut line);
            let _ = tx.send(line);
            let _ = std::io::copy(&mut reader, &mut std::io::sink());
        });
        let mut server = ServerProcess {
            child,
            stderr_reader: Some(stderr_reader),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = rx
            .recv_timeout(TIMEOUT)
            .map_err(|_| "server did not report a listening address".to_string())?;
        server.addr = parse_listening_line(&line)
            .ok_or_else(|| format!("unexpected first stderr line: {line:?}"))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the process to exit after a `shutdown` request was
    /// acknowledged; kills it if it lingers.
    pub fn wait_for_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() >= deadline => {
                    return Err("server did not exit after shutdown".to_string());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
    }
}

pub fn parse_listening_line(line: &str) -> Option<SocketAddr> {
    line.trim()
        .strip_prefix("repro serve: listening on ")?
        .parse()
        .ok()
}

/// CPU seconds (user + system) the process has used so far.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may contain spaces; fields resume after its
    // closing parenthesis, where utime and stime are the 12th and 13th.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM` in kB, `Threads`).
pub fn status_field(pid: u32, key: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_parses_to_the_bound_address() {
        let addr = parse_listening_line("repro serve: listening on 127.0.0.1:40123\n").unwrap();
        assert_eq!(addr.port(), 40123);
        assert!(parse_listening_line("error: address in use").is_none());
    }

    #[test]
    fn proc_counters_read_for_this_process() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(status_field(pid, "Threads").unwrap() >= 1.0);
        assert!(status_field(pid, "VmHWM").unwrap() > 0.0);
    }
}
