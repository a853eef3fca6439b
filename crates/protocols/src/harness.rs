//! Cluster harnesses: build a simulated cluster, drive a workload, check the outcome.
//!
//! The harness is what turns the executable protocols into *experiments*: it submits a
//! batch of client commands, runs the simulation under a fault schedule, and then checks
//! exactly the two properties the paper's probabilistic analysis quantifies — agreement
//! among correct nodes (safety) and commitment of every submitted command at every
//! correct node (liveness/progress).

use consensus_sim::fault::FaultSchedule;
use consensus_sim::network::NetworkConfig;
use consensus_sim::runtime::Simulation;
use consensus_sim::time::SimTime;
use consensus_sim::trace::TraceStats;

use crate::byzantine::ByzantineBehavior;
use crate::common::{all_contain, logs_agree, Command, ReplicatedLog};
use crate::pbft::{PbftConfig, PbftMessage, PbftNode};
use crate::raft::{RaftConfig, RaftMessage, RaftNode};

/// The verdict of one harness run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Whether the committed logs of all correct nodes are prefix-consistent.
    pub agreement: bool,
    /// Whether every submitted command was committed at every correct node.
    pub all_committed: bool,
    /// Committed log length per correct node.
    pub committed_lengths: Vec<usize>,
    /// Ids of the nodes that were still correct at the end of the run.
    pub correct_nodes: Vec<usize>,
    /// Total messages delivered during the run (a cost proxy).
    pub messages_delivered: u64,
}

impl ClusterOutcome {
    /// Whether the run was both safe and live — the paper's "safe and live"
    /// configuration notion, observed empirically.
    pub fn safe_and_live(&self) -> bool {
        self.agreement && self.all_committed
    }
}

fn evaluate<M, A>(sim: &Simulation<M, A>, submitted: &[Command]) -> ClusterOutcome
where
    M: Clone,
    A: consensus_sim::actor::Actor<M> + ReplicatedLog,
{
    let correct = sim.correct_nodes();
    let logs: Vec<Vec<Command>> = correct.iter().map(|&i| sim.node(i).committed()).collect();
    ClusterOutcome {
        agreement: logs_agree(&logs),
        all_committed: !logs.is_empty() && all_contain(&logs, submitted),
        committed_lengths: logs.iter().map(Vec::len).collect(),
        correct_nodes: correct,
        messages_delivered: sim.stats().messages_delivered,
    }
}

/// A Raft cluster harness.
pub struct RaftHarness {
    sim: Simulation<RaftMessage, RaftNode>,
    submitted: Vec<Command>,
    next_command: u64,
}

impl RaftHarness {
    /// Builds a standard Raft cluster of `n` nodes.
    pub fn new(n: usize, network: NetworkConfig, seed: u64) -> Self {
        Self::with_config(RaftConfig::standard(n), network, seed)
    }

    /// Builds a Raft cluster with a custom per-node configuration.
    pub fn with_config(config: RaftConfig, network: NetworkConfig, seed: u64) -> Self {
        let nodes = (0..config.n)
            .map(|_| RaftNode::new(config.clone()))
            .collect();
        Self {
            sim: Simulation::new(nodes, network, seed),
            submitted: Vec::new(),
            next_command: 0,
        }
    }

    /// Builds a Raft cluster whose nodes adopt the given behaviour when turned Byzantine.
    pub fn with_byzantine_plan(
        config: RaftConfig,
        plan: ByzantineBehavior,
        network: NetworkConfig,
        seed: u64,
    ) -> Self {
        let nodes = (0..config.n)
            .map(|_| RaftNode::new(config.clone()).with_byzantine_plan(plan))
            .collect();
        Self {
            sim: Simulation::new(nodes, network, seed),
            submitted: Vec::new(),
            next_command: 0,
        }
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, schedule: &FaultSchedule) -> Self {
        self.sim = self.sim.with_fault_schedule(schedule);
        self
    }

    /// Submits `count` fresh commands; clients broadcast each request to every node.
    pub fn submit_commands(&mut self, count: usize) {
        for _ in 0..count {
            self.next_command += 1;
            let command = Command(self.next_command);
            self.submitted.push(command);
            for node in 0..self.sim.num_nodes() {
                self.sim.inject(node, RaftMessage::ClientRequest(command));
            }
        }
    }

    /// Runs the cluster for `millis` of virtual time and evaluates the outcome.
    pub fn run_for_millis(&mut self, millis: u64) -> ClusterOutcome {
        let deadline = self.sim.now() + SimTime::from_millis(millis);
        self.sim.run_until(deadline);
        evaluate(&self.sim, &self.submitted)
    }

    /// The underlying simulation (for inspection in tests).
    pub fn sim(&self) -> &Simulation<RaftMessage, RaftNode> {
        &self.sim
    }

    /// The commands submitted so far.
    pub fn submitted(&self) -> &[Command] {
        &self.submitted
    }
}

/// Which executable protocol a batched simulation trial runs.
///
/// This is the unit of the batch-trial API ([`run_trial`]) that the analysis
/// layer's simulation engine fans out in parallel: a plain value describing the
/// protocol configuration, so thousands of independent trials can be spawned from
/// one spec without sharing any simulator state.
#[derive(Debug, Clone)]
pub enum TrialProtocol {
    /// Raft with the given configuration (quorum sizes, timeouts, priorities).
    Raft(RaftConfig),
    /// PBFT with the given configuration; injected Byzantine nodes stay silent.
    Pbft(PbftConfig),
}

/// One batched simulation trial: which protocol to run, over which network, with
/// how much workload and virtual time.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// The protocol and its configuration.
    pub protocol: TrialProtocol,
    /// The network model every trial runs on.
    pub network: NetworkConfig,
    /// Number of client commands submitted at the start of the trial.
    pub commands: usize,
    /// Virtual time the trial runs for, in milliseconds.
    pub duration_millis: u64,
}

impl TrialSpec {
    /// A standard-quorum Raft trial over a LAN: `commands` client commands with
    /// `duration_millis` of virtual time to commit them.
    pub fn raft(n: usize, commands: usize, duration_millis: u64) -> Self {
        Self {
            protocol: TrialProtocol::Raft(RaftConfig::standard(n)),
            network: NetworkConfig::lan(),
            commands,
            duration_millis,
        }
    }

    /// A standard PBFT trial over a LAN.
    pub fn pbft(n: usize, commands: usize, duration_millis: u64) -> Self {
        Self {
            protocol: TrialProtocol::Pbft(PbftConfig::standard(n)),
            network: NetworkConfig::lan(),
            commands,
            duration_millis,
        }
    }

    /// Replaces the network model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Pins node 0 as the preferred leader: for Raft, installs the identity
    /// election priority so node 0 wins the first election (and re-elections
    /// prefer the lowest-ranked live node); PBFT already starts with node 0 as
    /// the view-0 primary, so this is a no-op there. Fault environments that
    /// target "the primary" use this so gray failures land on the node that
    /// actually leads.
    pub fn with_pinned_leader(mut self) -> Self {
        if let TrialProtocol::Raft(config) = self.protocol {
            let n = config.n;
            self.protocol = TrialProtocol::Raft(config.with_election_priority((0..n).collect()));
        }
        self
    }

    /// Cluster size of the trial.
    pub fn num_nodes(&self) -> usize {
        match &self.protocol {
            TrialProtocol::Raft(config) => config.n,
            TrialProtocol::Pbft(config) => config.n,
        }
    }
}

/// The verdict of one batched trial, with the trace-derived statistics the
/// time-domain analysis layer aggregates across a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutcome {
    /// The safety/liveness verdict and per-node commit state.
    pub outcome: ClusterOutcome,
    /// Leader elections (Raft: highest term reached; PBFT: highest view reached)
    /// among nodes still correct at the end of the run. Zero means the initial
    /// leader/primary was never displaced.
    pub leader_changes: u64,
    /// Commands decided at *every* correct node (the shortest committed log).
    pub decided_commands: usize,
    /// The simulator's counters (messages, drops, timer fires, fault events).
    pub stats: TraceStats,
}

/// Runs one deterministic simulation trial: builds the cluster described by
/// `spec`, installs `schedule`, submits the workload, runs the virtual clock out,
/// and evaluates the outcome. Identical `(spec, schedule, seed)` triples produce
/// identical outcomes, which is what lets a batch of trials be fanned out across
/// threads and still be reproducible.
pub fn run_trial(spec: &TrialSpec, schedule: &FaultSchedule, seed: u64) -> TrialOutcome {
    match &spec.protocol {
        TrialProtocol::Raft(config) => {
            let mut harness = RaftHarness::with_config(config.clone(), spec.network.clone(), seed)
                .with_faults(schedule);
            harness.submit_commands(spec.commands);
            let outcome = harness.run_for_millis(spec.duration_millis);
            let leader_changes = outcome
                .correct_nodes
                .iter()
                .map(|&i| harness.sim().node(i).current_term())
                .max()
                .unwrap_or(0)
                .saturating_sub(1);
            let decided_commands = outcome.committed_lengths.iter().min().copied().unwrap_or(0);
            TrialOutcome {
                leader_changes,
                decided_commands,
                stats: harness.sim().stats(),
                outcome,
            }
        }
        TrialProtocol::Pbft(config) => {
            let mut harness = PbftHarness::with_config(
                config.clone(),
                ByzantineBehavior::Silent,
                spec.network.clone(),
                seed,
            )
            .with_faults(schedule);
            harness.submit_commands(spec.commands);
            let outcome = harness.run_for_millis(spec.duration_millis);
            let leader_changes = outcome
                .correct_nodes
                .iter()
                .map(|&i| harness.sim().node(i).view())
                .max()
                .unwrap_or(0);
            let decided_commands = outcome.committed_lengths.iter().min().copied().unwrap_or(0);
            TrialOutcome {
                leader_changes,
                decided_commands,
                stats: harness.sim().stats(),
                outcome,
            }
        }
    }
}

/// A PBFT cluster harness.
pub struct PbftHarness {
    sim: Simulation<PbftMessage, PbftNode>,
    submitted: Vec<Command>,
    next_command: u64,
}

impl PbftHarness {
    /// Builds a standard PBFT cluster of `n` nodes.
    pub fn new(n: usize, network: NetworkConfig, seed: u64) -> Self {
        Self::with_config(
            PbftConfig::standard(n),
            ByzantineBehavior::Silent,
            network,
            seed,
        )
    }

    /// Builds a PBFT cluster with a custom configuration and Byzantine plan.
    pub fn with_config(
        config: PbftConfig,
        plan: ByzantineBehavior,
        network: NetworkConfig,
        seed: u64,
    ) -> Self {
        let nodes = (0..config.n)
            .map(|_| PbftNode::new(config.clone()).with_byzantine_plan(plan))
            .collect();
        Self {
            sim: Simulation::new(nodes, network, seed),
            submitted: Vec::new(),
            next_command: 0,
        }
    }

    /// Installs a fault schedule.
    pub fn with_faults(mut self, schedule: &FaultSchedule) -> Self {
        self.sim = self.sim.with_fault_schedule(schedule);
        self
    }

    /// Submits `count` fresh commands; clients broadcast each request to every replica.
    pub fn submit_commands(&mut self, count: usize) {
        for _ in 0..count {
            self.next_command += 1;
            let command = Command(self.next_command);
            self.submitted.push(command);
            for node in 0..self.sim.num_nodes() {
                self.sim.inject(node, PbftMessage::ClientRequest(command));
            }
        }
    }

    /// Runs the cluster for `millis` of virtual time and evaluates the outcome.
    pub fn run_for_millis(&mut self, millis: u64) -> ClusterOutcome {
        let deadline = self.sim.now() + SimTime::from_millis(millis);
        self.sim.run_until(deadline);
        evaluate(&self.sim, &self.submitted)
    }

    /// The underlying simulation (for inspection in tests).
    pub fn sim(&self) -> &Simulation<PbftMessage, PbftNode> {
        &self.sim
    }

    /// The commands submitted so far.
    pub fn submitted(&self) -> &[Command] {
        &self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_raft_cluster_commits_everything() {
        let mut h = RaftHarness::new(5, NetworkConfig::lan(), 1);
        h.submit_commands(20);
        let outcome = h.run_for_millis(3_000);
        assert!(outcome.agreement);
        assert!(
            outcome.all_committed,
            "lengths {:?}",
            outcome.committed_lengths
        );
        assert!(outcome.safe_and_live());
        assert_eq!(outcome.correct_nodes.len(), 5);
    }

    #[test]
    fn raft_survives_a_minority_of_crashes() {
        let schedule = FaultSchedule::none()
            .crash_at(3, SimTime::from_millis(10))
            .crash_at(4, SimTime::from_millis(400));
        let mut h = RaftHarness::new(5, NetworkConfig::lan(), 2).with_faults(&schedule);
        h.submit_commands(10);
        let outcome = h.run_for_millis(4_000);
        assert!(outcome.agreement);
        assert!(outcome.all_committed);
        assert_eq!(outcome.correct_nodes, vec![0, 1, 2]);
    }

    #[test]
    fn raft_loses_liveness_but_not_safety_under_majority_crashes() {
        let schedule = FaultSchedule::none()
            .crash_at(2, SimTime::from_millis(5))
            .crash_at(3, SimTime::from_millis(5))
            .crash_at(4, SimTime::from_millis(5));
        let mut h = RaftHarness::new(5, NetworkConfig::lan(), 3).with_faults(&schedule);
        h.submit_commands(5);
        let outcome = h.run_for_millis(3_000);
        assert!(outcome.agreement, "crashes must never break agreement");
        assert!(
            !outcome.all_committed,
            "a majority is gone; nothing can commit"
        );
    }

    #[test]
    fn raft_elects_a_new_leader_when_the_leader_crashes() {
        // Let a leader emerge and replicate, then kill it mid-run.
        let schedule = FaultSchedule::none().crash_at(0, SimTime::from_millis(1_000));
        let config = RaftConfig::standard(5).with_election_priority(vec![0, 1, 2, 3, 4]);
        let mut h =
            RaftHarness::with_config(config, NetworkConfig::lan(), 4).with_faults(&schedule);
        h.submit_commands(5);
        h.run_for_millis(900);
        h.submit_commands(5);
        let outcome = h.run_for_millis(5_000);
        assert!(outcome.agreement);
        assert!(
            outcome.all_committed,
            "lengths {:?}",
            outcome.committed_lengths
        );
        assert!(!outcome.correct_nodes.contains(&0));
    }

    #[test]
    fn healthy_pbft_cluster_commits_everything() {
        let mut h = PbftHarness::new(4, NetworkConfig::lan(), 5);
        h.submit_commands(10);
        let outcome = h.run_for_millis(4_000);
        assert!(outcome.agreement);
        assert!(
            outcome.all_committed,
            "lengths {:?}",
            outcome.committed_lengths
        );
    }

    #[test]
    fn pbft_survives_f_silent_byzantine_nodes() {
        let schedule = FaultSchedule::none().byzantine_at(3, SimTime::from_millis(1));
        let mut h = PbftHarness::with_config(
            PbftConfig::standard(4),
            ByzantineBehavior::Silent,
            NetworkConfig::lan(),
            6,
        )
        .with_faults(&schedule);
        h.submit_commands(8);
        let outcome = h.run_for_millis(5_000);
        assert!(outcome.agreement);
        assert!(
            outcome.all_committed,
            "lengths {:?}",
            outcome.committed_lengths
        );
        assert_eq!(outcome.correct_nodes, vec![0, 1, 2]);
    }

    #[test]
    fn pbft_changes_view_when_the_primary_crashes() {
        let schedule = FaultSchedule::none().crash_at(0, SimTime::from_millis(1));
        let mut h = PbftHarness::new(4, NetworkConfig::lan(), 7).with_faults(&schedule);
        h.submit_commands(5);
        let outcome = h.run_for_millis(8_000);
        assert!(outcome.agreement);
        assert!(
            outcome.all_committed,
            "lengths {:?}",
            outcome.committed_lengths
        );
        // Some correct node moved past view 0.
        assert!(outcome
            .correct_nodes
            .iter()
            .any(|&i| h.sim().node(i).view() > 0));
    }

    #[test]
    fn raft_reelects_away_from_a_gray_leader() {
        // Node 0 wins the first election (priority), replicates a batch, then goes
        // gray at t=1s: alive, correct, but 1000x slow. Its heartbeats stop arriving
        // within the followers' 150–300 ms election timeout, so the cluster must
        // re-elect — without ever marking node 0 faulty.
        let schedule = FaultSchedule::none().slow_down_at(0, 1_000.0, SimTime::from_millis(1_000));
        let config = RaftConfig::standard(5).with_election_priority(vec![0, 1, 2, 3, 4]);
        let mut h =
            RaftHarness::with_config(config, NetworkConfig::lan(), 21).with_faults(&schedule);
        h.submit_commands(5);
        h.run_for_millis(900);
        h.submit_commands(5);
        let outcome = h.run_for_millis(6_000);
        assert!(outcome.agreement, "gray failure must never break safety");
        assert_eq!(
            outcome.correct_nodes,
            vec![0, 1, 2, 3, 4],
            "a slow node is still correct"
        );
        let max_term = (0..5)
            .map(|i| h.sim().node(i).current_term())
            .max()
            .unwrap();
        assert!(
            max_term > 1,
            "followers must elect a new leader away from the gray one, term {max_term}"
        );
        // The healthy majority keeps committing; the gray node itself lags behind —
        // progress is made, just not by everyone.
        assert_eq!(*outcome.committed_lengths.iter().max().unwrap(), 10);
    }

    #[test]
    fn raft_partition_heal_restores_progress() {
        // A 2/3 split of a 5-node cluster with the pinned leader in the minority:
        // no quorum on the leader's side, so commits stall until the scheduled heal.
        let schedule = FaultSchedule::none()
            .partition_at(vec![vec![0, 1], vec![2, 3, 4]], SimTime::from_millis(700))
            .heal_at(SimTime::from_millis(2_500));
        let config = RaftConfig::standard(5).with_election_priority(vec![0, 1, 2, 3, 4]);
        let mut h =
            RaftHarness::with_config(config, NetworkConfig::lan(), 22).with_faults(&schedule);
        h.submit_commands(5);
        h.run_for_millis(800); // past the partition start
        h.submit_commands(5);
        let mid = h.run_for_millis(1_500); // now at 2.3s, partition still active
        assert!(
            !mid.all_committed,
            "the second batch cannot commit across the partition, lengths {:?}",
            mid.committed_lengths
        );
        let outcome = h.run_for_millis(6_000);
        assert!(outcome.agreement);
        assert!(
            outcome.all_committed,
            "after the heal every node catches up, lengths {:?}",
            outcome.committed_lengths
        );
    }

    #[test]
    fn pbft_gray_primary_trips_the_view_change_watchdog() {
        // The view-0 primary goes gray immediately: alive but 1000x slow, so its
        // pre-prepares arrive long after the replicas' 300 ms progress watchdog
        // fires. The watchdog path — not crash detection — must rotate the view.
        let schedule = FaultSchedule::none().slow_down_at(0, 1_000.0, SimTime::from_millis(1));
        let mut h = PbftHarness::new(4, NetworkConfig::lan(), 23).with_faults(&schedule);
        h.submit_commands(5);
        let outcome = h.run_for_millis(8_000);
        assert!(outcome.agreement, "gray primary must never break safety");
        assert_eq!(
            outcome.correct_nodes,
            vec![0, 1, 2, 3],
            "the gray primary is never marked faulty"
        );
        assert!(
            (1..4).any(|i| h.sim().node(i).view() > 0),
            "replicas must vote the gray primary out via the watchdog"
        );
        // The three healthy replicas form a quorum and keep deciding; given a long
        // enough horizon even the gray node's stretched deliveries land.
        assert!(
            outcome.all_committed,
            "view changes restore progress, lengths {:?}",
            outcome.committed_lengths
        );
    }

    #[test]
    fn pbft_partition_heal_restores_progress() {
        // Isolate the primary, then heal: the majority side changes view and
        // commits; after the heal the old primary rejoins without breaking safety.
        let schedule = FaultSchedule::none()
            .partition_at(vec![vec![0], vec![1, 2, 3]], SimTime::from_millis(1))
            .heal_at(SimTime::from_millis(3_000));
        let mut h = PbftHarness::new(4, NetworkConfig::lan(), 24).with_faults(&schedule);
        h.submit_commands(5);
        let outcome = h.run_for_millis(10_000);
        assert!(outcome.agreement);
        assert!(
            (1..4).any(|i| h.sim().node(i).view() > 0),
            "the majority side must move past the isolated primary's view"
        );
        assert!(
            outcome.committed_lengths.iter().any(|&l| l >= 5),
            "the healed cluster commits the workload, lengths {:?}",
            outcome.committed_lengths
        );
    }

    #[test]
    fn pbft_stays_safe_under_an_equivocating_primary() {
        let schedule = FaultSchedule::none().byzantine_at(0, SimTime::from_millis(1));
        let mut h = PbftHarness::with_config(
            PbftConfig::standard(4),
            ByzantineBehavior::Equivocate,
            NetworkConfig::lan(),
            8,
        )
        .with_faults(&schedule);
        h.submit_commands(5);
        let outcome = h.run_for_millis(10_000);
        assert!(outcome.agreement, "equivocation must not break agreement");
        assert!(outcome.all_committed, "view change should restore progress");
    }

    #[test]
    fn raft_agreement_breaks_with_a_byzantine_leader() {
        // Raft is a CFT protocol: a Byzantine (equivocating) leader violates agreement,
        // which is exactly why RaftModel::is_safe requires zero Byzantine nodes. Turn the
        // preferred leader Byzantine before anything commits.
        let schedule = FaultSchedule::none().byzantine_at(0, SimTime::from_millis(1));
        let config = RaftConfig::standard(3).with_election_priority(vec![0, 1, 2]);
        let mut h = RaftHarness::with_byzantine_plan(
            config,
            ByzantineBehavior::Equivocate,
            NetworkConfig::lan(),
            9,
        )
        .with_faults(&schedule);
        h.submit_commands(3);
        let outcome = h.run_for_millis(4_000);
        // The Byzantine node is excluded from the correct set; the remaining followers
        // were fed conflicting logs by the equivocating leader.
        assert!(
            !outcome.agreement || !outcome.all_committed,
            "a Byzantine leader must damage agreement or progress"
        );
    }

    #[test]
    fn outcome_reports_message_costs() {
        let mut h = RaftHarness::new(3, NetworkConfig::lan(), 10);
        h.submit_commands(2);
        let outcome = h.run_for_millis(1_000);
        assert!(outcome.messages_delivered > 0);
    }

    #[test]
    fn run_trial_is_deterministic_per_seed() {
        let spec = TrialSpec::raft(5, 4, 3_000);
        let schedule = FaultSchedule::none().crash_at(1, SimTime::from_millis(200));
        let a = run_trial(&spec, &schedule, 42);
        let b = run_trial(&spec, &schedule, 42);
        assert_eq!(a, b);
        assert!(a.outcome.safe_and_live());
        assert_eq!(a.decided_commands, 4);
        assert!(a.stats.messages_delivered > 0);
        assert_eq!(a.stats.crashes, 1);
    }

    #[test]
    fn raft_trial_counts_leader_displacements() {
        // A healthy run elects once (term 1) and never displaces: zero changes.
        let healthy = run_trial(&TrialSpec::raft(3, 2, 2_000), &FaultSchedule::none(), 11);
        assert_eq!(healthy.leader_changes, 0);
        // Killing the preferred leader mid-run forces a re-election (term >= 2).
        let config = RaftConfig::standard(5).with_election_priority(vec![0, 1, 2, 3, 4]);
        let spec = TrialSpec {
            protocol: TrialProtocol::Raft(config),
            network: NetworkConfig::lan(),
            commands: 3,
            duration_millis: 5_000,
        };
        let schedule = FaultSchedule::none().crash_at(0, SimTime::from_millis(1_000));
        let displaced = run_trial(&spec, &schedule, 12);
        assert!(
            displaced.leader_changes >= 1,
            "a crashed leader must force an election: {displaced:?}"
        );
    }

    #[test]
    fn pbft_trial_reports_views_and_quorum_loss() {
        let spec = TrialSpec::pbft(4, 3, 6_000);
        // Crashing the primary forces at least one view change.
        let schedule = FaultSchedule::none().crash_at(0, SimTime::from_millis(1));
        let trial = run_trial(&spec, &schedule, 13);
        assert!(trial.outcome.agreement);
        assert!(
            trial.leader_changes >= 1,
            "primary crash forces a view change"
        );
        // 2f + 1 crashes kill liveness; the trial records the shortfall.
        let fatal = FaultSchedule::none()
            .crash_at(0, SimTime::from_millis(1))
            .crash_at(1, SimTime::from_millis(1));
        let stalled = run_trial(&spec, &fatal, 14);
        assert!(stalled.outcome.agreement);
        assert!(!stalled.outcome.all_committed);
        assert_eq!(stalled.decided_commands, 0);
    }

    #[test]
    fn trial_spec_reports_cluster_size() {
        assert_eq!(TrialSpec::raft(7, 1, 100).num_nodes(), 7);
        assert_eq!(TrialSpec::pbft(4, 1, 100).num_nodes(), 4);
    }
}
