//! A PBFT-style BFT replication protocol on the discrete-event simulator.
//!
//! The implementation follows the structure §3.1 of the paper describes: a
//! non-equivocation/prepare phase, a persistence/commit phase, and view changes with a
//! trigger quorum, each with configurable sizes (`|Q_eq|`, `|Q_per|`, `|Q_vc|`,
//! `|Q_vc_t|`). It is deliberately compact — no checkpoints, no watermarks, single-shot
//! sequence numbers — but preserves the quorum logic the paper's Theorem 3.1 reasons
//! about, which is what the simulation-validation experiments exercise.

use std::collections::{BTreeMap, HashMap, HashSet};

use consensus_sim::actor::{Actor, Context};
use consensus_sim::time::SimTime;

use crate::byzantine::ByzantineBehavior;
use crate::common::{Command, ReplicatedLog};

/// Timer tag used for the liveness / view-change watchdog.
const PROGRESS_TIMER: u64 = 11;

/// Static configuration of a PBFT replica.
#[derive(Debug, Clone, PartialEq)]
pub struct PbftConfig {
    /// Cluster size.
    pub n: usize,
    /// Prepare (non-equivocation) quorum size, `|Q_eq|`.
    pub prepare_quorum: usize,
    /// Commit (persistence) quorum size, `|Q_per|`.
    pub commit_quorum: usize,
    /// View-change quorum size, `|Q_vc|`.
    pub view_change_quorum: usize,
    /// View-change trigger quorum size, `|Q_vc_t|`.
    pub view_change_trigger: usize,
    /// How long a replica waits for progress before voting for a view change.
    pub view_timeout: SimTime,
}

impl PbftConfig {
    /// The standard PBFT configuration for `n = 3f + 1`-style clusters (the Table 1
    /// layout): `|Q_eq| = |Q_per| = |Q_vc| = N − f`, `|Q_vc_t| = f + 1`.
    pub fn standard(n: usize) -> Self {
        assert!(n >= 4, "PBFT needs at least 4 nodes");
        let f = (n - 1) / 3;
        Self {
            n,
            prepare_quorum: n - f,
            commit_quorum: n - f,
            view_change_quorum: n - f,
            view_change_trigger: f + 1,
            view_timeout: SimTime::from_millis(300),
        }
    }
}

/// Messages exchanged by PBFT replicas.
#[derive(Debug, Clone)]
pub enum PbftMessage {
    /// A client submits a command (injected to every replica).
    ClientRequest(Command),
    /// The primary assigns a sequence number to a command.
    PrePrepare {
        /// View in which the assignment was made.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// The command.
        command: Command,
    },
    /// A replica acknowledges a pre-prepare (the non-equivocation phase).
    Prepare {
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// The command being prepared.
        command: Command,
    },
    /// A replica has collected a prepare quorum (the persistence phase).
    Commit {
        /// View.
        view: u64,
        /// Sequence number.
        seq: u64,
        /// The command being committed.
        command: Command,
    },
    /// A replica votes to move to a new view, carrying its prepared entries.
    ViewChange {
        /// The proposed new view.
        new_view: u64,
        /// Entries this replica has prepared: `(seq, command, view)`.
        prepared: Vec<(u64, Command, u64)>,
    },
    /// The new primary announces the new view and the entries to re-propose.
    NewView {
        /// The new view.
        view: u64,
        /// Entries carried over from prepared certificates.
        proposals: Vec<(u64, Command)>,
    },
}

/// Per-sequence-number bookkeeping.
#[derive(Debug, Default, Clone)]
struct Slot {
    /// The command this replica accepted a pre-prepare for (per view).
    accepted: Option<(u64, Command)>,
    /// Prepare votes seen, keyed by command.
    prepares: HashMap<Command, HashSet<usize>>,
    /// Commit votes seen, keyed by command.
    commits: HashMap<Command, HashSet<usize>>,
    /// Whether this replica reached the prepared state, and for which command/view.
    prepared: Option<(u64, Command)>,
    /// Whether a commit quorum was observed, and for which command.
    committed: Option<Command>,
    /// Whether this replica already broadcast its commit vote.
    commit_sent: bool,
}

/// A PBFT replica.
#[derive(Debug)]
pub struct PbftNode {
    config: PbftConfig,
    view: u64,
    next_seq: u64,
    slots: BTreeMap<u64, Slot>,
    /// Commands waiting to be assigned a sequence number.
    pending: Vec<Command>,
    /// Commands already assigned (to avoid double-assignment by the primary).
    assigned: HashSet<Command>,
    /// View-change votes seen per proposed view.
    view_change_votes: HashMap<u64, HashSet<usize>>,
    /// Prepared entries carried by view-change votes, per proposed view.
    view_change_prepared: HashMap<u64, Vec<(u64, Command, u64)>>,
    /// Whether this replica already voted for a given new view.
    voted_view_change: HashSet<u64>,
    /// Progress watchdog: number of executed entries at the last timer tick.
    last_progress: usize,
    byzantine_plan: ByzantineBehavior,
    behavior: ByzantineBehavior,
}

impl PbftNode {
    /// Creates a replica with the given configuration.
    pub fn new(config: PbftConfig) -> Self {
        Self {
            config,
            view: 0,
            next_seq: 0,
            slots: BTreeMap::new(),
            pending: Vec::new(),
            assigned: HashSet::new(),
            view_change_votes: HashMap::new(),
            view_change_prepared: HashMap::new(),
            voted_view_change: HashSet::new(),
            last_progress: 0,
            byzantine_plan: ByzantineBehavior::Silent,
            behavior: ByzantineBehavior::Honest,
        }
    }

    /// Sets the behaviour this node adopts if it is turned Byzantine.
    pub fn with_byzantine_plan(mut self, plan: ByzantineBehavior) -> Self {
        self.byzantine_plan = plan;
        self
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// The primary of the current view.
    pub fn primary(&self) -> usize {
        (self.view as usize) % self.config.n
    }

    /// Whether this node is the current primary.
    pub fn is_primary(&self, id: usize) -> bool {
        self.primary() == id
    }

    fn slot(&mut self, seq: u64) -> &mut Slot {
        self.slots.entry(seq).or_default()
    }

    /// Commands committed in contiguous sequence order.
    fn executed(&self) -> Vec<Command> {
        let mut out = Vec::new();
        let mut seq = 1;
        while let Some(slot) = self.slots.get(&seq) {
            match slot.committed {
                Some(command) => out.push(command),
                None => break,
            }
            seq += 1;
        }
        out
    }

    fn propose_pending(&mut self, ctx: &mut Context<PbftMessage>) {
        if !self.is_primary(ctx.id()) {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for command in pending {
            if self.assigned.contains(&command) {
                continue;
            }
            self.assigned.insert(command);
            self.next_seq += 1;
            let seq = self.next_seq;
            if self.behavior == ByzantineBehavior::Equivocate {
                // Send a different command to each replica for the same sequence number.
                for to in 0..self.config.n {
                    if to == ctx.id() {
                        continue;
                    }
                    ctx.send(
                        to,
                        PbftMessage::PrePrepare {
                            view: self.view,
                            seq,
                            command: Command(2_000_000 + to as u64),
                        },
                    );
                }
                continue;
            }
            ctx.broadcast(PbftMessage::PrePrepare {
                view: self.view,
                seq,
                command,
            });
            // The primary's pre-prepare doubles as its own accept + prepare vote.
            self.accept_preprepare(ctx.id(), self.view, seq, command, ctx);
        }
    }

    fn accept_preprepare(
        &mut self,
        self_id: usize,
        view: u64,
        seq: u64,
        command: Command,
        ctx: &mut Context<PbftMessage>,
    ) {
        if view != self.view {
            return;
        }
        let slot = self.slot(seq);
        // Non-equivocation: accept at most one command per (view, seq).
        if let Some((v, accepted)) = slot.accepted {
            if v == view && accepted != command {
                return;
            }
        }
        slot.accepted = Some((view, command));
        // Record our own prepare vote and tell everyone else.
        self.record_prepare(self_id, view, seq, command, ctx);
        ctx.broadcast(PbftMessage::Prepare { view, seq, command });
    }

    fn record_prepare(
        &mut self,
        from: usize,
        view: u64,
        seq: u64,
        command: Command,
        ctx: &mut Context<PbftMessage>,
    ) {
        if view != self.view {
            return;
        }
        let prepare_quorum = self.config.prepare_quorum;
        let slot = self.slot(seq);
        slot.prepares.entry(command).or_default().insert(from);
        let votes = slot.prepares[&command].len();
        let already_prepared = slot.prepared.is_some();
        if votes >= prepare_quorum && !already_prepared {
            slot.prepared = Some((view, command));
            // Our own commit vote.
            let slot = self.slot(seq);
            if !slot.commit_sent {
                slot.commit_sent = true;
                ctx.broadcast(PbftMessage::Commit { view, seq, command });
                let self_id = ctx.id();
                self.record_commit(self_id, view, seq, command);
            }
        }
    }

    fn record_commit(&mut self, from: usize, _view: u64, seq: u64, command: Command) {
        let commit_quorum = self.config.commit_quorum;
        let slot = self.slot(seq);
        slot.commits.entry(command).or_default().insert(from);
        if slot.commits[&command].len() >= commit_quorum && slot.committed.is_none() {
            slot.committed = Some(command);
        }
    }

    fn vote_view_change(&mut self, new_view: u64, ctx: &mut Context<PbftMessage>) {
        if self.voted_view_change.contains(&new_view) || new_view <= self.view {
            return;
        }
        self.voted_view_change.insert(new_view);
        let prepared: Vec<(u64, Command, u64)> = self
            .slots
            .iter()
            .filter_map(|(&seq, slot)| slot.prepared.map(|(v, c)| (seq, c, v)))
            .collect();
        let self_id = ctx.id();
        self.record_view_change(self_id, new_view, prepared.clone(), ctx);
        ctx.broadcast(PbftMessage::ViewChange { new_view, prepared });
    }

    fn record_view_change(
        &mut self,
        from: usize,
        new_view: u64,
        prepared: Vec<(u64, Command, u64)>,
        ctx: &mut Context<PbftMessage>,
    ) {
        if new_view <= self.view {
            return;
        }
        self.view_change_votes
            .entry(new_view)
            .or_default()
            .insert(from);
        self.view_change_prepared
            .entry(new_view)
            .or_default()
            .extend(prepared);
        let votes = self.view_change_votes[&new_view].len();
        // Join the view change once the trigger quorum is reached.
        if votes >= self.config.view_change_trigger {
            self.vote_view_change(new_view, ctx);
        }
        // The new primary installs the view once the full view-change quorum is reached.
        let is_new_primary = (new_view as usize) % self.config.n == ctx.id();
        if is_new_primary && votes >= self.config.view_change_quorum {
            self.install_view(new_view, ctx);
        }
    }

    fn install_view(&mut self, new_view: u64, ctx: &mut Context<PbftMessage>) {
        if new_view <= self.view {
            return;
        }
        // Select, per sequence number, the prepared command from the highest view.
        let mut carried: BTreeMap<u64, (u64, Command)> = BTreeMap::new();
        if let Some(entries) = self.view_change_prepared.get(&new_view) {
            for &(seq, command, view) in entries {
                let keep = carried
                    .get(&seq)
                    .is_none_or(|&(existing_view, _)| view > existing_view);
                if keep {
                    carried.insert(seq, (view, command));
                }
            }
        }
        let proposals: Vec<(u64, Command)> =
            carried.iter().map(|(&seq, &(_, c))| (seq, c)).collect();
        self.adopt_view(new_view, &proposals, ctx);
        ctx.broadcast(PbftMessage::NewView {
            view: new_view,
            proposals,
        });
        // Re-propose anything still pending under the new view.
        self.propose_pending(ctx);
    }

    fn adopt_view(
        &mut self,
        new_view: u64,
        proposals: &[(u64, Command)],
        ctx: &mut Context<PbftMessage>,
    ) {
        self.view = new_view;
        self.next_seq = self
            .next_seq
            .max(proposals.iter().map(|&(s, _)| s).max().unwrap_or(0));
        // Treat carried proposals as fresh pre-prepares in the new view so they can
        // (re-)commit.
        for &(seq, command) in proposals {
            let slot = self.slot(seq);
            if slot.committed.is_none() {
                slot.accepted = None;
                slot.prepared = None;
                slot.commit_sent = false;
                let self_id = ctx.id();
                self.accept_preprepare(self_id, new_view, seq, command, ctx);
            }
        }
        ctx.set_timer(self.config.view_timeout, PROGRESS_TIMER);
    }

    fn has_unfinished_work(&self) -> bool {
        !self.pending.is_empty()
            || self
                .slots
                .values()
                .any(|s| s.accepted.is_some() && s.committed.is_none())
    }
}

impl ReplicatedLog for PbftNode {
    type Message = PbftMessage;

    fn client_request(command: Command) -> PbftMessage {
        PbftMessage::ClientRequest(command)
    }

    /// Views start at 0, so the view number counts the view changes.
    fn leader_changes(&self) -> u64 {
        self.view
    }

    fn committed(&self) -> Vec<Command> {
        self.executed()
    }
}

impl Actor<PbftMessage> for PbftNode {
    fn on_start(&mut self, ctx: &mut Context<PbftMessage>) {
        ctx.set_timer(self.config.view_timeout, PROGRESS_TIMER);
    }

    fn on_message(&mut self, from: usize, msg: PbftMessage, ctx: &mut Context<PbftMessage>) {
        if self.behavior == ByzantineBehavior::Silent {
            return;
        }
        match msg {
            PbftMessage::ClientRequest(command) => {
                if !self.assigned.contains(&command) {
                    self.pending.push(command);
                }
                self.propose_pending(ctx);
            }
            PbftMessage::PrePrepare { view, seq, command } => {
                // Only the primary of `view` may assign sequence numbers.
                if from == (view as usize) % self.config.n {
                    self.accept_preprepare(ctx.id(), view, seq, command, ctx);
                }
            }
            PbftMessage::Prepare { view, seq, command } => {
                self.record_prepare(from, view, seq, command, ctx);
            }
            PbftMessage::Commit { view, seq, command } => {
                if view == self.view {
                    self.record_commit(from, view, seq, command);
                }
            }
            PbftMessage::ViewChange { new_view, prepared } => {
                self.record_view_change(from, new_view, prepared, ctx);
            }
            PbftMessage::NewView { view, proposals } => {
                if from == (view as usize) % self.config.n && view > self.view {
                    self.adopt_view(view, &proposals, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Context<PbftMessage>) {
        if self.behavior == ByzantineBehavior::Silent {
            return;
        }
        if tag != PROGRESS_TIMER {
            return;
        }
        let executed = self.executed().len();
        if self.has_unfinished_work() && executed == self.last_progress {
            // No progress since the last tick: vote to change the view. If earlier view
            // changes went nowhere (e.g. the next primary is also down), keep escalating.
            let highest_voted = self.voted_view_change.iter().max().copied().unwrap_or(0);
            let next = self.view.max(highest_voted) + 1;
            self.vote_view_change(next, ctx);
        }
        self.last_progress = executed;
        ctx.set_timer(self.config.view_timeout, PROGRESS_TIMER);
    }

    fn on_recover(&mut self, ctx: &mut Context<PbftMessage>) {
        ctx.set_timer(self.config.view_timeout, PROGRESS_TIMER);
    }

    fn on_turn_byzantine(&mut self) {
        self.behavior = self.byzantine_plan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_sim::actor::Context;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_for<'a>(id: usize, n: usize, rng: &'a mut StdRng) -> Context<'a, PbftMessage> {
        Context::new(id, SimTime::ZERO, n, rng)
    }

    #[test]
    fn standard_config_matches_table1_quorums() {
        let c = PbftConfig::standard(7);
        assert_eq!(c.prepare_quorum, 5);
        assert_eq!(c.commit_quorum, 5);
        assert_eq!(c.view_change_quorum, 5);
        assert_eq!(c.view_change_trigger, 3);
    }

    #[test]
    fn primary_rotates_with_the_view() {
        let mut node = PbftNode::new(PbftConfig::standard(4));
        assert_eq!(node.primary(), 0);
        node.view = 5;
        assert_eq!(node.primary(), 1);
    }

    #[test]
    fn a_slot_commits_after_prepare_and_commit_quorums() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = PbftConfig::standard(4);
        let mut node = PbftNode::new(config);
        // Node 1 accepts a pre-prepare from the primary (node 0).
        let mut ctx = ctx_for(1, 4, &mut rng);
        node.on_message(
            0,
            PbftMessage::PrePrepare {
                view: 0,
                seq: 1,
                command: Command(9),
            },
            &mut ctx,
        );
        // Prepares from nodes 0 and 2 (plus our own) reach the quorum of 3.
        for from in [0usize, 2] {
            let mut ctx = ctx_for(1, 4, &mut rng);
            node.on_message(
                from,
                PbftMessage::Prepare {
                    view: 0,
                    seq: 1,
                    command: Command(9),
                },
                &mut ctx,
            );
        }
        assert!(node.slots[&1].prepared.is_some());
        // Commits from nodes 0 and 2 (plus our own) reach the quorum of 3.
        for from in [0usize, 2] {
            let mut ctx = ctx_for(1, 4, &mut rng);
            node.on_message(
                from,
                PbftMessage::Commit {
                    view: 0,
                    seq: 1,
                    command: Command(9),
                },
                &mut ctx,
            );
        }
        assert_eq!(node.committed(), vec![Command(9)]);
    }

    #[test]
    fn conflicting_preprepare_for_same_slot_is_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut node = PbftNode::new(PbftConfig::standard(4));
        let mut ctx = ctx_for(1, 4, &mut rng);
        node.on_message(
            0,
            PbftMessage::PrePrepare {
                view: 0,
                seq: 1,
                command: Command(1),
            },
            &mut ctx,
        );
        let mut ctx = ctx_for(1, 4, &mut rng);
        node.on_message(
            0,
            PbftMessage::PrePrepare {
                view: 0,
                seq: 1,
                command: Command(2),
            },
            &mut ctx,
        );
        assert_eq!(node.slots[&1].accepted, Some((0, Command(1))));
    }

    #[test]
    fn preprepare_from_non_primary_is_ignored() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut node = PbftNode::new(PbftConfig::standard(4));
        let mut ctx = ctx_for(1, 4, &mut rng);
        node.on_message(
            2,
            PbftMessage::PrePrepare {
                view: 0,
                seq: 1,
                command: Command(5),
            },
            &mut ctx,
        );
        assert!(node.slots.get(&1).is_none_or(|s| s.accepted.is_none()));
    }

    #[test]
    fn commit_requires_the_full_commit_quorum() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut node = PbftNode::new(PbftConfig::standard(7));
        let mut ctx = ctx_for(1, 7, &mut rng);
        node.on_message(
            0,
            PbftMessage::PrePrepare {
                view: 0,
                seq: 1,
                command: Command(3),
            },
            &mut ctx,
        );
        // Only 3 commit votes (quorum is 5): must not commit.
        for from in [0usize, 2, 3] {
            let mut ctx = ctx_for(1, 7, &mut rng);
            node.on_message(
                from,
                PbftMessage::Commit {
                    view: 0,
                    seq: 1,
                    command: Command(3),
                },
                &mut ctx,
            );
        }
        assert!(node.committed().is_empty());
    }

    #[test]
    fn view_change_trigger_quorum_makes_nodes_join() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut node = PbftNode::new(PbftConfig::standard(4));
        // f+1 = 2 view-change votes from others make this node join even though its own
        // timer never fired.
        for from in [1usize, 2] {
            let mut ctx = ctx_for(3, 4, &mut rng);
            node.on_message(
                from,
                PbftMessage::ViewChange {
                    new_view: 1,
                    prepared: vec![],
                },
                &mut ctx,
            );
        }
        assert!(node.voted_view_change.contains(&1));
    }

    #[test]
    fn new_primary_installs_view_after_quorum() {
        let mut rng = StdRng::seed_from_u64(6);
        // Node 1 is the primary of view 1.
        let mut node = PbftNode::new(PbftConfig::standard(4));
        for from in [0usize, 2, 3] {
            let mut ctx = ctx_for(1, 4, &mut rng);
            node.on_message(
                from,
                PbftMessage::ViewChange {
                    new_view: 1,
                    prepared: vec![(1, Command(8), 0)],
                },
                &mut ctx,
            );
        }
        assert_eq!(node.view(), 1);
        // The prepared entry is carried over and re-accepted in the new view.
        assert_eq!(node.slots[&1].accepted, Some((1, Command(8))));
    }

    #[test]
    fn silent_byzantine_nodes_ignore_everything() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut node = PbftNode::new(PbftConfig::standard(4));
        node.on_turn_byzantine();
        let mut ctx = ctx_for(1, 4, &mut rng);
        node.on_message(0, PbftMessage::ClientRequest(Command(1)), &mut ctx);
        assert!(node.pending.is_empty());
    }
}
