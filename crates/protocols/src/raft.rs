//! An executable Raft implementation on the discrete-event simulator.
//!
//! The implementation follows the core of the Raft paper — randomized election
//! timeouts, term-based leader election with the log-up-to-date restriction, log
//! replication with conflict truncation, and majority commitment — with two
//! probabilistic-consensus extensions from §4 of the HotOS paper:
//!
//! * configurable persistence (`commit_quorum`) and election (`election_quorum`) sizes,
//!   so Flexible-Paxos style and dynamically-sized quorums can be exercised, and
//! * optional *election priorities*: a reliability ranking that staggers election
//!   timeouts so the most reliable node wins elections first (reliability-aware leader
//!   selection).

use consensus_sim::actor::{Actor, Context};
use consensus_sim::time::SimTime;
use fault_model::mode::FaultProfile;

use crate::byzantine::ByzantineBehavior;
use crate::common::{Command, LogEntry, ReplicatedLog};

/// Raft timer tags.
const ELECTION_TIMER: u64 = 1;
const HEARTBEAT_TIMER: u64 = 2;

/// The role a Raft node currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica following a leader.
    Follower,
    /// Competing for leadership in the current term.
    Candidate,
    /// The (unique, per term) leader.
    Leader,
}

/// Static configuration of a Raft cluster member.
#[derive(Debug, Clone, PartialEq)]
pub struct RaftConfig {
    /// Cluster size.
    pub n: usize,
    /// Number of replicas (including the leader) that must hold an entry before it
    /// commits — `|Q_per|` in the paper's notation. Majority by default.
    pub commit_quorum: usize,
    /// Number of votes (including the candidate) required to win an election —
    /// `|Q_vc|` in the paper's notation. Majority by default.
    pub election_quorum: usize,
    /// Lower bound of the randomized election timeout.
    pub election_timeout_min: SimTime,
    /// Upper bound of the randomized election timeout.
    pub election_timeout_max: SimTime,
    /// Heartbeat (empty AppendEntries) interval for leaders.
    pub heartbeat_interval: SimTime,
    /// Optional election priorities: `priority[i]` is node `i`'s rank (0 = preferred
    /// leader). Lower ranks use shorter election timeouts, so the most reliable node
    /// tends to win. `None` means uniform random timeouts (standard Raft).
    pub election_priority: Option<Vec<usize>>,
}

impl RaftConfig {
    /// The standard configuration: majority quorums, 150–300 ms election timeouts,
    /// 50 ms heartbeats.
    pub fn standard(n: usize) -> Self {
        assert!(n > 0);
        let majority = n / 2 + 1;
        Self {
            n,
            commit_quorum: majority,
            election_quorum: majority,
            election_timeout_min: SimTime::from_millis(150),
            election_timeout_max: SimTime::from_millis(300),
            heartbeat_interval: SimTime::from_millis(50),
            election_priority: None,
        }
    }

    /// Overrides the quorum sizes (Flexible-Paxos style).
    pub fn with_quorums(mut self, commit_quorum: usize, election_quorum: usize) -> Self {
        assert!((1..=self.n).contains(&commit_quorum));
        assert!((1..=self.n).contains(&election_quorum));
        self.commit_quorum = commit_quorum;
        self.election_quorum = election_quorum;
        self
    }

    /// Installs reliability-aware election priorities (rank per node, 0 = best).
    pub fn with_election_priority(mut self, priority: Vec<usize>) -> Self {
        assert_eq!(priority.len(), self.n, "need one rank per node");
        self.election_priority = Some(priority);
        self
    }

    /// The standard configuration for a deployment with these per-node fault
    /// profiles, with election priorities following its reliability ranking — the
    /// executable counterpart of the paper's "choose leaders among the most
    /// reliable nodes".
    pub fn reliability_aware(profiles: &[FaultProfile]) -> Self {
        Self::standard(profiles.len()).with_election_priority(election_priority(profiles))
    }
}

/// Ranks nodes by fault probability (most reliable first, ties by index) as the
/// per-node rank vector [`RaftConfig::with_election_priority`] expects
/// (`priority[i]` = rank of node `i`, 0 = preferred leader).
fn election_priority(profiles: &[FaultProfile]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    order.sort_by(|&a, &b| {
        profiles[a]
            .fault_probability()
            .partial_cmp(&profiles[b].fault_probability())
            .expect("fault probabilities are never NaN")
            .then(a.cmp(&b))
    });
    let mut priority = vec![0usize; profiles.len()];
    for (rank, &node) in order.iter().enumerate() {
        priority[node] = rank;
    }
    priority
}

/// Messages exchanged by Raft nodes. Client commands are injected as
/// [`RaftMessage::ClientRequest`].
#[derive(Debug, Clone)]
pub enum RaftMessage {
    /// A client asks the cluster to replicate a command (forwarded to the leader).
    ClientRequest(Command),
    /// A candidate requests a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: usize,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// A vote reply.
    Vote {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Log replication / heartbeat.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding `entries`.
        prev_log_index: usize,
        /// Term of that entry (0 for the empty prefix).
        prev_log_term: u64,
        /// Entries to append (empty for heartbeats).
        entries: Vec<LogEntry>,
        /// Leader's commit index.
        leader_commit: usize,
    },
    /// Reply to AppendEntries.
    AppendReply {
        /// Follower's current term.
        term: u64,
        /// Whether the append succeeded.
        success: bool,
        /// Highest log index known to match the leader (when `success`).
        match_index: usize,
    },
}

/// A Raft replica.
#[derive(Debug)]
pub struct RaftNode {
    config: RaftConfig,
    role: Role,
    current_term: u64,
    voted_for: Option<usize>,
    log: Vec<LogEntry>,
    commit_index: usize,
    /// Votes received in the current candidacy (including self).
    votes: Vec<bool>,
    /// Leader state: highest index known replicated on each peer.
    match_index: Vec<usize>,
    /// Commands waiting for a leader.
    pending: Vec<Command>,
    /// Monotonic counter distinguishing stale election timers.
    election_epoch: u64,
    /// Behaviour adopted if the fault injector flips this node.
    byzantine_plan: ByzantineBehavior,
    behavior: ByzantineBehavior,
}

impl RaftNode {
    /// Creates a node with the given configuration.
    pub fn new(config: RaftConfig) -> Self {
        let n = config.n;
        Self {
            config,
            role: Role::Follower,
            current_term: 0,
            voted_for: None,
            log: Vec::new(),
            commit_index: 0,
            votes: vec![false; n],
            match_index: vec![0; n],
            pending: Vec::new(),
            election_epoch: 0,
            byzantine_plan: ByzantineBehavior::Silent,
            behavior: ByzantineBehavior::Honest,
        }
    }

    /// Sets the behaviour this node will adopt if it is turned Byzantine.
    pub fn with_byzantine_plan(mut self, plan: ByzantineBehavior) -> Self {
        self.byzantine_plan = plan;
        self
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn current_term(&self) -> u64 {
        self.current_term
    }

    /// The full (not necessarily committed) log.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Number of committed entries.
    pub fn commit_index(&self) -> usize {
        self.commit_index
    }

    fn last_log_index(&self) -> usize {
        self.log.len()
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    fn election_timeout(&self, ctx: &mut Context<RaftMessage>) -> SimTime {
        let min = self.config.election_timeout_min.as_micros();
        let max = self.config.election_timeout_max.as_micros();
        let base = if max > min {
            SimTime::from_micros(ctx.gen_range(min, max))
        } else {
            self.config.election_timeout_min
        };
        match &self.config.election_priority {
            // Stagger by rank: the preferred leader times out first by a full window.
            Some(priority) => {
                let rank = priority[ctx.id()] as u64;
                base + SimTime::from_micros(rank * (max - min).max(1))
            }
            None => base,
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut Context<RaftMessage>) {
        self.election_epoch += 1;
        let timeout = self.election_timeout(ctx);
        ctx.set_timer(timeout, ELECTION_TIMER + (self.election_epoch << 8));
    }

    fn become_follower(&mut self, term: u64, ctx: &mut Context<RaftMessage>) {
        self.role = Role::Follower;
        if term > self.current_term {
            self.current_term = term;
            self.voted_for = None;
        }
        self.arm_election_timer(ctx);
    }

    fn become_candidate(&mut self, ctx: &mut Context<RaftMessage>) {
        self.role = Role::Candidate;
        self.current_term += 1;
        self.voted_for = Some(ctx.id());
        self.votes = vec![false; self.config.n];
        self.votes[ctx.id()] = true;
        ctx.broadcast(RaftMessage::RequestVote {
            term: self.current_term,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        });
        self.arm_election_timer(ctx);
        self.maybe_win_election(ctx);
    }

    fn maybe_win_election(&mut self, ctx: &mut Context<RaftMessage>) {
        if self.role != Role::Candidate {
            return;
        }
        let granted = self.votes.iter().filter(|&&v| v).count();
        if granted >= self.config.election_quorum {
            self.become_leader(ctx);
        }
    }

    fn become_leader(&mut self, ctx: &mut Context<RaftMessage>) {
        self.role = Role::Leader;
        self.match_index = vec![0; self.config.n];
        self.match_index[ctx.id()] = self.last_log_index();
        // Adopt any commands that queued up while there was no leader.
        let pending = std::mem::take(&mut self.pending);
        for command in pending {
            self.append_new_entry(command);
        }
        self.match_index[ctx.id()] = self.last_log_index();
        self.broadcast_append(ctx);
        ctx.set_timer(self.config.heartbeat_interval, HEARTBEAT_TIMER);
    }

    fn append_new_entry(&mut self, command: Command) {
        // Deduplicate client retries of a command that is already in the log.
        if self.log.iter().any(|e| e.command == command) {
            return;
        }
        self.log.push(LogEntry {
            term: self.current_term,
            command,
        });
    }

    fn broadcast_append(&mut self, ctx: &mut Context<RaftMessage>) {
        if self.behavior == ByzantineBehavior::Equivocate {
            // A Byzantine "leader" sends conflicting tails to different followers.
            for to in 0..self.config.n {
                if to == ctx.id() {
                    continue;
                }
                let poisoned = LogEntry {
                    term: self.current_term,
                    command: Command(1_000_000 + to as u64),
                };
                ctx.send(
                    to,
                    RaftMessage::AppendEntries {
                        term: self.current_term,
                        prev_log_index: 0,
                        prev_log_term: 0,
                        entries: vec![poisoned],
                        leader_commit: 1,
                    },
                );
            }
            return;
        }
        // Honest leaders send each follower everything (prev = empty prefix). This is a
        // simplification of per-follower nextIndex tracking that preserves Raft's
        // correctness argument: followers truncate conflicts and append.
        let entries = self.log.clone();
        for to in 0..self.config.n {
            if to == ctx.id() {
                continue;
            }
            ctx.send(
                to,
                RaftMessage::AppendEntries {
                    term: self.current_term,
                    prev_log_index: 0,
                    prev_log_term: 0,
                    entries: entries.clone(),
                    leader_commit: self.commit_index,
                },
            );
        }
    }

    fn advance_commit_index(&mut self) {
        // Find the highest index replicated on a commit quorum with an entry from the
        // current term.
        for index in ((self.commit_index + 1)..=self.last_log_index()).rev() {
            let replicas = self.match_index.iter().filter(|&&m| m >= index).count();
            if replicas >= self.config.commit_quorum
                && self.log[index - 1].term == self.current_term
            {
                self.commit_index = index;
                break;
            }
        }
    }

    fn handle_request_vote(
        &mut self,
        from: usize,
        term: u64,
        last_log_index: usize,
        last_log_term: u64,
        ctx: &mut Context<RaftMessage>,
    ) {
        if term > self.current_term {
            self.become_follower(term, ctx);
        }
        let log_ok = last_log_term > self.last_log_term()
            || (last_log_term == self.last_log_term() && last_log_index >= self.last_log_index());
        let granted = term == self.current_term
            && log_ok
            && (self.voted_for.is_none() || self.voted_for == Some(from));
        if granted {
            self.voted_for = Some(from);
            self.arm_election_timer(ctx);
        }
        // An equivocating Byzantine voter grants everything, enabling split brain when
        // quorums are undersized.
        let granted = granted || self.behavior == ByzantineBehavior::Equivocate;
        ctx.send(
            from,
            RaftMessage::Vote {
                term: self.current_term,
                granted,
            },
        );
    }

    fn handle_append(
        &mut self,
        from: usize,
        term: u64,
        entries: Vec<LogEntry>,
        leader_commit: usize,
        ctx: &mut Context<RaftMessage>,
    ) {
        if term < self.current_term {
            ctx.send(
                from,
                RaftMessage::AppendReply {
                    term: self.current_term,
                    success: false,
                    match_index: 0,
                },
            );
            return;
        }
        // A valid leader exists for this term.
        self.become_follower(term, ctx);
        // Entries are always rooted at the beginning of the log (see broadcast_append):
        // find the first divergence, truncate, and append the rest.
        let mut keep = 0;
        while keep < self.log.len() && keep < entries.len() && self.log[keep] == entries[keep] {
            keep += 1;
        }
        if keep < entries.len() {
            // Never truncate committed entries; if a conflicting leader tries, refuse
            // (this can only happen outside the safe quorum configurations).
            if keep >= self.commit_index {
                self.log.truncate(keep);
                self.log.extend_from_slice(&entries[keep..]);
            }
        }
        let match_index = self.log.len().min(entries.len());
        self.commit_index = self.commit_index.max(leader_commit.min(self.log.len()));
        ctx.send(
            from,
            RaftMessage::AppendReply {
                term: self.current_term,
                success: true,
                match_index,
            },
        );
    }
}

impl ReplicatedLog for RaftNode {
    type Message = RaftMessage;

    fn client_request(command: Command) -> RaftMessage {
        RaftMessage::ClientRequest(command)
    }

    /// The first election reaches term 1, so every term past it is a re-election.
    fn leader_changes(&self) -> u64 {
        self.current_term.saturating_sub(1)
    }

    fn committed(&self) -> Vec<Command> {
        self.log[..self.commit_index]
            .iter()
            .map(|e| e.command)
            .collect()
    }
}

impl Actor<RaftMessage> for RaftNode {
    fn on_start(&mut self, ctx: &mut Context<RaftMessage>) {
        self.arm_election_timer(ctx);
    }

    fn on_message(&mut self, from: usize, msg: RaftMessage, ctx: &mut Context<RaftMessage>) {
        if self.behavior == ByzantineBehavior::Silent {
            return;
        }
        match msg {
            RaftMessage::ClientRequest(command) => {
                if self.role == Role::Leader {
                    self.append_new_entry(command);
                    self.match_index[ctx.id()] = self.last_log_index();
                    self.advance_commit_index();
                    self.broadcast_append(ctx);
                } else {
                    // Queue until a leader picks it up (clients broadcast requests, so
                    // the leader sees its own copy).
                    self.pending.push(command);
                }
            }
            RaftMessage::RequestVote {
                term,
                last_log_index,
                last_log_term,
            } => self.handle_request_vote(from, term, last_log_index, last_log_term, ctx),
            RaftMessage::Vote { term, granted } => {
                if term > self.current_term {
                    self.become_follower(term, ctx);
                } else if term == self.current_term && granted && self.role == Role::Candidate {
                    self.votes[from] = true;
                    self.maybe_win_election(ctx);
                }
            }
            RaftMessage::AppendEntries {
                term,
                entries,
                leader_commit,
                ..
            } => self.handle_append(from, term, entries, leader_commit, ctx),
            RaftMessage::AppendReply {
                term,
                success,
                match_index,
            } => {
                if term > self.current_term {
                    self.become_follower(term, ctx);
                } else if self.role == Role::Leader && success {
                    self.match_index[from] = self.match_index[from].max(match_index);
                    self.advance_commit_index();
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<RaftMessage>) {
        if self.behavior == ByzantineBehavior::Silent {
            return;
        }
        match tag & 0xff {
            ELECTION_TIMER => {
                // Ignore stale election timers from earlier epochs.
                if (tag >> 8) != self.election_epoch {
                    return;
                }
                if self.role != Role::Leader {
                    self.become_candidate(ctx);
                }
            }
            HEARTBEAT_TIMER => {
                if self.role == Role::Leader {
                    self.advance_commit_index();
                    self.broadcast_append(ctx);
                    ctx.set_timer(self.config.heartbeat_interval, HEARTBEAT_TIMER);
                }
            }
            other => unreachable!("unknown raft timer tag {other}"),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<RaftMessage>) {
        // Volatile leadership state is lost; the durable log and term survive the crash.
        self.role = Role::Follower;
        self.pending.clear();
        self.arm_election_timer(ctx);
    }

    fn on_turn_byzantine(&mut self) {
        self.behavior = self.byzantine_plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_for<'a>(id: usize, n: usize, rng: &'a mut StdRng) -> Context<'a, RaftMessage> {
        Context::new(id, SimTime::ZERO, n, rng)
    }

    fn profiles() -> Vec<FaultProfile> {
        vec![
            FaultProfile::crash_only(0.08),
            FaultProfile::crash_only(0.01),
            FaultProfile::crash_only(0.04),
            FaultProfile::crash_only(0.02),
        ]
    }

    #[test]
    fn priorities_follow_reliability() {
        // Node 1 (1%) gets rank 0, node 3 (2%) rank 1, node 2 (4%) rank 2, node 0 rank 3.
        assert_eq!(election_priority(&profiles()), vec![3, 0, 2, 1]);
    }

    #[test]
    fn reliability_aware_config_embeds_priorities() {
        let config = RaftConfig::reliability_aware(&profiles());
        assert_eq!(config.election_priority, Some(vec![3, 0, 2, 1]));
        assert_eq!(config.n, 4);
    }

    #[test]
    fn ties_are_broken_by_index_for_determinism() {
        let equal = vec![FaultProfile::crash_only(0.05); 3];
        assert_eq!(election_priority(&equal), vec![0, 1, 2]);
    }

    #[test]
    fn candidate_with_quorum_becomes_leader() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut node = RaftNode::new(RaftConfig::standard(3));
        let mut ctx = ctx_for(0, 3, &mut rng);
        node.become_candidate(&mut ctx);
        assert_eq!(node.role(), Role::Candidate);
        assert_eq!(node.current_term(), 1);
        let mut ctx = ctx_for(0, 3, &mut rng);
        node.on_message(
            1,
            RaftMessage::Vote {
                term: 1,
                granted: true,
            },
            &mut ctx,
        );
        assert_eq!(node.role(), Role::Leader);
    }

    #[test]
    fn votes_from_stale_terms_are_ignored() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut node = RaftNode::new(RaftConfig::standard(5));
        let mut ctx = ctx_for(0, 5, &mut rng);
        node.become_candidate(&mut ctx);
        node.become_candidate(&mut ctx); // term 2 now
        let mut ctx = ctx_for(0, 5, &mut rng);
        node.on_message(
            1,
            RaftMessage::Vote {
                term: 1,
                granted: true,
            },
            &mut ctx,
        );
        node.on_message(
            2,
            RaftMessage::Vote {
                term: 1,
                granted: true,
            },
            &mut ctx,
        );
        assert_eq!(node.role(), Role::Candidate, "stale votes must not elect");
    }

    #[test]
    fn vote_is_denied_to_candidates_with_stale_logs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut node = RaftNode::new(RaftConfig::standard(3));
        node.current_term = 2;
        node.log.push(LogEntry {
            term: 2,
            command: Command(9),
        });
        let mut ctx = ctx_for(1, 3, &mut rng);
        node.handle_request_vote(0, 3, 0, 0, &mut ctx);
        // The reply is buffered in the context; inspect the decision via voted_for.
        assert_eq!(node.voted_for, None, "must not vote for a shorter log");
    }

    #[test]
    fn followers_truncate_conflicts_but_never_committed_entries() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut node = RaftNode::new(RaftConfig::standard(3));
        let mut ctx = ctx_for(1, 3, &mut rng);
        let entries = vec![
            LogEntry {
                term: 1,
                command: Command(1),
            },
            LogEntry {
                term: 1,
                command: Command(2),
            },
        ];
        node.handle_append(0, 1, entries.clone(), 2, &mut ctx);
        assert_eq!(node.committed(), vec![Command(1), Command(2)]);
        // A conflicting append from a later term cannot rewrite committed entries.
        let conflicting = vec![LogEntry {
            term: 2,
            command: Command(99),
        }];
        let mut ctx = ctx_for(1, 3, &mut rng);
        node.handle_append(2, 2, conflicting, 1, &mut ctx);
        assert_eq!(node.committed()[..2], [Command(1), Command(2)]);
    }

    #[test]
    fn leader_commits_only_with_a_commit_quorum() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut node = RaftNode::new(RaftConfig::standard(5));
        let mut ctx = ctx_for(0, 5, &mut rng);
        node.become_candidate(&mut ctx);
        for peer in 1..3 {
            let mut ctx = ctx_for(0, 5, &mut rng);
            node.on_message(
                peer,
                RaftMessage::Vote {
                    term: 1,
                    granted: true,
                },
                &mut ctx,
            );
        }
        assert_eq!(node.role(), Role::Leader);
        let mut ctx = ctx_for(0, 5, &mut rng);
        node.on_message(0, RaftMessage::ClientRequest(Command(7)), &mut ctx);
        assert_eq!(node.commit_index(), 0, "not yet replicated");
        // Two acks (plus the leader itself) reach the majority of 3.
        for peer in 1..3 {
            let mut ctx = ctx_for(0, 5, &mut rng);
            node.on_message(
                peer,
                RaftMessage::AppendReply {
                    term: 1,
                    success: true,
                    match_index: 1,
                },
                &mut ctx,
            );
        }
        assert_eq!(node.commit_index(), 1);
        assert_eq!(node.committed(), vec![Command(7)]);
    }

    #[test]
    fn client_retries_are_deduplicated() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut node = RaftNode::new(RaftConfig::standard(3));
        let mut ctx = ctx_for(0, 3, &mut rng);
        node.become_candidate(&mut ctx);
        let mut ctx = ctx_for(0, 3, &mut rng);
        node.on_message(
            1,
            RaftMessage::Vote {
                term: 1,
                granted: true,
            },
            &mut ctx,
        );
        for _ in 0..3 {
            let mut ctx = ctx_for(0, 3, &mut rng);
            node.on_message(0, RaftMessage::ClientRequest(Command(5)), &mut ctx);
        }
        assert_eq!(node.log().len(), 1);
    }

    #[test]
    fn election_priority_staggers_timeouts() {
        let config = RaftConfig::standard(3).with_election_priority(vec![0, 1, 2]);
        let mut rng = StdRng::seed_from_u64(7);
        let preferred = RaftNode::new(config.clone());
        let backup = RaftNode::new(config);
        let mut ctx0 = ctx_for(0, 3, &mut rng);
        let t0 = preferred.election_timeout(&mut ctx0);
        let mut rng2 = StdRng::seed_from_u64(8);
        let mut ctx2 = ctx_for(2, 3, &mut rng2);
        let t2 = backup.election_timeout(&mut ctx2);
        assert!(t2 > t0, "lower-ranked node must wait longer: {t0} vs {t2}");
    }

    #[test]
    fn silent_byzantine_nodes_stop_responding() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut node = RaftNode::new(RaftConfig::standard(3));
        node.on_turn_byzantine();
        let mut ctx = ctx_for(1, 3, &mut rng);
        node.on_message(0, RaftMessage::ClientRequest(Command(1)), &mut ctx);
        assert!(node.pending.is_empty(), "silent nodes ignore traffic");
    }
}
