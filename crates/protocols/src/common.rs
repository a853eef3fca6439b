//! Types shared by the executable protocols.

use consensus_sim::actor::Actor;

/// An opaque client command (the payload being replicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Command(pub u64);

impl std::fmt::Display for Command {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cmd#{}", self.0)
    }
}

/// One replicated log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The term (Raft) or view (PBFT) in which the entry was created.
    pub term: u64,
    /// The replicated command.
    pub command: Command,
}

/// What the harness needs from a protocol node to drive and judge a cluster of them
/// without knowing which protocol it runs: how a client submits a command, what the
/// node has durably committed, and how often leadership moved.
pub trait ReplicatedLog: Actor<Self::Message> {
    /// The protocol's message type.
    type Message: Clone;

    /// The message a client sends a node to submit `command`.
    fn client_request(command: Command) -> Self::Message;

    /// The committed commands, in commit order.
    fn committed(&self) -> Vec<Command>;

    /// Leader changes this node has seen: zero while the initial leader (Raft) or
    /// primary (PBFT) was never displaced.
    fn leader_changes(&self) -> u64;
}

/// Checks that every pair of committed logs agrees: one must be a prefix of the other
/// (same commands in the same positions up to the shorter length).
pub fn logs_agree(logs: &[Vec<Command>]) -> bool {
    for (i, a) in logs.iter().enumerate() {
        for b in logs.iter().skip(i + 1) {
            let shorter = a.len().min(b.len());
            if a[..shorter] != b[..shorter] {
                return false;
            }
        }
    }
    true
}

/// Checks whether every log contains every expected command (in any position).
pub fn all_contain(logs: &[Vec<Command>], expected: &[Command]) -> bool {
    logs.iter()
        .all(|log| expected.iter().all(|c| log.contains(c)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmds(xs: &[u64]) -> Vec<Command> {
        xs.iter().map(|&x| Command(x)).collect()
    }

    #[test]
    fn prefix_consistent_logs_agree() {
        let logs = vec![cmds(&[1, 2, 3]), cmds(&[1, 2]), cmds(&[1, 2, 3, 4])];
        assert!(logs_agree(&logs));
    }

    #[test]
    fn conflicting_logs_do_not_agree() {
        let logs = vec![cmds(&[1, 2, 3]), cmds(&[1, 5])];
        assert!(!logs_agree(&logs));
    }

    #[test]
    fn empty_logs_trivially_agree() {
        assert!(logs_agree(&[vec![], cmds(&[1])]));
        assert!(logs_agree(&[]));
    }

    #[test]
    fn all_contain_checks_every_log() {
        let logs = vec![cmds(&[1, 2, 3]), cmds(&[3, 2, 1])];
        assert!(all_contain(&logs, &cmds(&[1, 3])));
        assert!(!all_contain(&logs, &cmds(&[4])));
    }

    #[test]
    fn command_display() {
        assert_eq!(format!("{}", Command(7)), "cmd#7");
    }
}
