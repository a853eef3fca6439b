//! The simulation event loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Context};
use crate::fault::{FaultKind, FaultSchedule, NetEventKind};
use crate::network::NetworkConfig;
use crate::time::SimTime;
use crate::trace::TraceStats;

/// What a queued event does when its time comes.
#[derive(Debug)]
enum Payload<M> {
    Deliver { from: usize, to: usize, msg: M },
    Timer { node: usize, tag: u64 },
    Fault { node: usize, kind: FaultKind },
    Net { kind: NetEventKind },
}

/// Stretches a duration by a gray-failure factor. The identity factor is the common
/// case and must stay bit-exact, so it short-circuits before any float arithmetic.
fn stretch(t: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        return t;
    }
    SimTime::from_micros((t.as_micros() as f64 * factor).round() as u64)
}

/// A deterministic discrete-event simulation of `A` actors exchanging messages of type
/// `M` over a configurable network, with optional fault injection.
pub struct Simulation<M, A> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
    payloads: Vec<Option<Payload<M>>>,
    nodes: Vec<A>,
    crashed: Vec<bool>,
    byzantine: Vec<bool>,
    slow_factor: Vec<f64>,
    network: NetworkConfig,
    net_rng: StdRng,
    node_rngs: Vec<StdRng>,
    stats: TraceStats,
}

impl<M: Clone, A: Actor<M>> Simulation<M, A> {
    /// Creates a simulation over the given actors and network, seeded for determinism,
    /// and invokes every actor's `on_start`.
    pub fn new(actors: Vec<A>, network: NetworkConfig, seed: u64) -> Self {
        assert!(!actors.is_empty(), "simulation needs at least one node");
        let n = actors.len();
        let mut master = StdRng::seed_from_u64(seed);
        let node_rngs = (0..n)
            .map(|_| StdRng::seed_from_u64(master.gen()))
            .collect();
        let mut sim = Self {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            payloads: Vec::new(),
            nodes: actors,
            crashed: vec![false; n],
            byzantine: vec![false; n],
            slow_factor: vec![1.0; n],
            network,
            net_rng: StdRng::seed_from_u64(master.gen()),
            node_rngs,
            stats: TraceStats::default(),
        };
        for i in 0..n {
            sim.invoke(i, |actor, ctx| actor.on_start(ctx));
        }
        sim
    }

    /// Installs a fault schedule (typically before running). Both lanes are queued:
    /// per-node fault events and whole-network events (partitions, heals, link
    /// overrides), so a schedule alone can reconfigure the network mid-run without
    /// any out-of-band `set_network` calls.
    pub fn with_fault_schedule(mut self, schedule: &FaultSchedule) -> Self {
        for event in schedule.events() {
            assert!(
                event.node < self.nodes.len(),
                "fault event node out of range"
            );
            self.push_event(
                event.time,
                Payload::Fault {
                    node: event.node,
                    kind: event.kind,
                },
            );
        }
        for event in schedule.net_events() {
            self.push_event(
                event.time,
                Payload::Net {
                    kind: event.kind.clone(),
                },
            );
        }
        self
    }

    /// Replaces the network configuration (e.g. to create or heal a partition mid-run).
    pub fn set_network(&mut self, network: NetworkConfig) {
        self.network = network;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node's actor state.
    pub fn node(&self, id: usize) -> &A {
        &self.nodes[id]
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, id: usize) -> bool {
        self.crashed[id]
    }

    /// Whether a node has been turned Byzantine by the fault injector.
    pub fn is_byzantine(&self, id: usize) -> bool {
        self.byzantine[id]
    }

    /// The node's current gray-failure stretch factor (1.0 when healthy).
    pub fn slow_factor(&self, id: usize) -> f64 {
        self.slow_factor[id]
    }

    /// Whether a node is currently gray-failed (slowed). Note this is deliberately
    /// *not* part of [`Simulation::correct_nodes`]: a slow node is correct, which is
    /// the whole point of gray failures.
    pub fn is_slowed(&self, id: usize) -> bool {
        self.slow_factor[id] != 1.0
    }

    /// Ids of nodes that are neither crashed nor Byzantine.
    pub fn correct_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !self.crashed[i] && !self.byzantine[i])
            .collect()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Injects a message from the outside world (e.g. a client) into a node, delivered
    /// after normal network latency.
    pub fn inject(&mut self, to: usize, msg: M) {
        assert!(to < self.nodes.len(), "destination out of range");
        let latency = self.network.sample_latency(&mut self.net_rng);
        self.stats.messages_sent += 1;
        // A gray-failed destination receives late, like every message it handles.
        let at = self.now + stretch(latency, self.slow_factor[to]);
        // External clients are node-less; use the destination as the nominal sender.
        self.push_event(at, Payload::Deliver { from: to, to, msg });
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse((time, _, idx))) = self.queue.pop() else {
            return false;
        };
        let payload = self.payloads[idx].take().expect("payload already consumed");
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        match payload {
            Payload::Deliver { from, to, msg } => {
                if self.crashed[to] {
                    self.stats.messages_to_crashed += 1;
                } else {
                    self.stats.messages_delivered += 1;
                    self.invoke(to, |actor, ctx| actor.on_message(from, msg, ctx));
                }
            }
            Payload::Timer { node, tag } => {
                if !self.crashed[node] {
                    self.stats.timers_fired += 1;
                    self.invoke(node, |actor, ctx| actor.on_timer(tag, ctx));
                }
            }
            Payload::Fault { node, kind } => self.apply_fault(node, kind),
            Payload::Net { kind } => self.apply_net(kind),
        }
        true
    }

    /// Runs the simulation until the event queue is exhausted or virtual time would pass
    /// `deadline`; afterwards `now()` is exactly `deadline` (unless already past it).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse((time, _, _))) = self.queue.peek() {
            if *time > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs until the event queue is completely drained (use with care: protocols with
    /// periodic timers never drain).
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events && self.step() {
            processed += 1;
        }
        processed
    }

    fn push_event(&mut self, at: SimTime, payload: Payload<M>) {
        let idx = self.payloads.len();
        self.payloads.push(Some(payload));
        self.seq += 1;
        self.queue.push(Reverse((at, self.seq, idx)));
    }

    fn apply_fault(&mut self, node: usize, kind: FaultKind) {
        match kind {
            FaultKind::Crash => {
                if !self.crashed[node] {
                    self.crashed[node] = true;
                    self.stats.crashes += 1;
                    self.nodes[node].on_crash();
                }
            }
            FaultKind::Recover => {
                if self.crashed[node] {
                    self.crashed[node] = false;
                    self.stats.recoveries += 1;
                    self.invoke(node, |actor, ctx| actor.on_recover(ctx));
                }
            }
            FaultKind::TurnByzantine => {
                if !self.byzantine[node] {
                    self.byzantine[node] = true;
                    self.stats.byzantine_turns += 1;
                    self.nodes[node].on_turn_byzantine();
                }
            }
            // Gray failures: the node is never told — there is no actor callback,
            // because a real gray-failed node does not know it is slow. Only the
            // environment (latencies, timer delays) changes.
            FaultKind::SlowDown { factor } => {
                assert!(
                    factor > 0.0 && factor.is_finite(),
                    "slow-down factor must be positive and finite"
                );
                self.slow_factor[node] = factor;
                self.stats.slow_downs += 1;
            }
            FaultKind::SpeedUp => {
                if self.slow_factor[node] != 1.0 {
                    self.slow_factor[node] = 1.0;
                    self.stats.speed_ups += 1;
                }
            }
        }
    }

    fn apply_net(&mut self, kind: NetEventKind) {
        match kind {
            NetEventKind::PartitionStart { groups } => {
                self.network = std::mem::take(&mut self.network).with_partition(groups);
                self.stats.partitions_started += 1;
            }
            NetEventKind::PartitionHeal => {
                self.network = std::mem::take(&mut self.network).healed();
                self.stats.partitions_healed += 1;
            }
            NetEventKind::LinkOverride { from, to, quality } => {
                self.network.set_link_override(from, to, quality);
                self.stats.link_overrides += 1;
            }
            NetEventKind::ClearLinkOverrides => self.network.clear_link_overrides(),
        }
    }

    /// Runs `f` against node `id` with a fresh context, then applies the buffered
    /// effects (messages through the network model, timers into the queue).
    fn invoke(&mut self, id: usize, f: impl FnOnce(&mut A, &mut Context<M>)) {
        let n = self.nodes.len();
        let now = self.now;
        let mut ctx = Context::new(id, now, n, &mut self.node_rngs[id]);
        f(&mut self.nodes[id], &mut ctx);
        let outbox = std::mem::take(&mut ctx.outbox);
        let timers = std::mem::take(&mut ctx.timers);
        drop(ctx);
        for (to, msg) in outbox {
            self.stats.messages_sent += 1;
            if !self.network.connected(id, to) {
                self.stats.messages_partitioned += 1;
                continue;
            }
            if self.network.sample_link_drop(id, to, &mut self.net_rng) {
                self.stats.messages_dropped += 1;
                continue;
            }
            let latency = self.network.sample_link_latency(id, to, &mut self.net_rng);
            // A gray failure on either endpoint stretches the exchange: a slow
            // sender flushes late, a slow receiver processes late.
            let factor = self.slow_factor[id].max(self.slow_factor[to]);
            self.push_event(
                now + stretch(latency, factor),
                Payload::Deliver { from: id, to, msg },
            );
        }
        for (delay, tag) in timers {
            // A gray-failed node's clock effectively runs slow: its timers fire late.
            let delay = stretch(delay, self.slow_factor[id]);
            self.push_event(now + delay, Payload::Timer { node: id, tag });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that counts everything it sees and gossips a token around a ring.
    struct Counter {
        received: u64,
        timer_fired: bool,
        crashes_seen: u64,
        recovered: bool,
        byzantine: bool,
    }

    impl Counter {
        fn new() -> Self {
            Self {
                received: 0,
                timer_fired: false,
                crashes_seen: 0,
                recovered: false,
                byzantine: false,
            }
        }
    }

    #[derive(Clone, Debug)]
    struct Token(u64);

    impl Actor<Token> for Counter {
        fn on_start(&mut self, ctx: &mut Context<Token>) {
            if ctx.id() == 0 {
                let next = (ctx.id() + 1) % ctx.num_nodes();
                ctx.send(next, Token(1));
            }
            ctx.set_timer(SimTime::from_millis(5), 7);
        }

        fn on_message(&mut self, _from: usize, msg: Token, ctx: &mut Context<Token>) {
            self.received += 1;
            if msg.0 < 20 {
                let next = (ctx.id() + 1) % ctx.num_nodes();
                ctx.send(next, Token(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, tag: u64, _ctx: &mut Context<Token>) {
            assert_eq!(tag, 7);
            self.timer_fired = true;
        }

        fn on_crash(&mut self) {
            self.crashes_seen += 1;
        }

        fn on_recover(&mut self, _ctx: &mut Context<Token>) {
            self.recovered = true;
        }

        fn on_turn_byzantine(&mut self) {
            self.byzantine = true;
        }
    }

    fn cluster(n: usize) -> Vec<Counter> {
        (0..n).map(|_| Counter::new()).collect()
    }

    #[test]
    fn ring_token_passes_through_all_nodes() {
        let mut sim = Simulation::new(cluster(4), NetworkConfig::default(), 1);
        sim.run_until(SimTime::from_secs(1));
        let total: u64 = (0..4).map(|i| sim.node(i).received).sum();
        assert_eq!(total, 20, "token hops 20 times");
        assert!((0..4).all(|i| sim.node(i).timer_fired));
        assert_eq!(sim.stats().timers_fired, 4);
        assert!(sim.stats().delivery_ratio() > 0.99);
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = |seed| {
            let mut sim = Simulation::new(cluster(5), NetworkConfig::default(), seed);
            sim.run_until(SimTime::from_secs(1));
            (sim.stats(), sim.now())
        };
        assert_eq!(run(42), run(42));
        assert_eq!(run(42).0.messages_delivered, 20);
    }

    #[test]
    fn crashed_nodes_stop_participating() {
        let schedule = FaultSchedule::none().crash_at(1, SimTime::ZERO);
        let mut sim =
            Simulation::new(cluster(4), NetworkConfig::default(), 3).with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_secs(1));
        // The token dies when it reaches node 1.
        assert_eq!(sim.node(1).received, 0);
        assert!(sim.is_crashed(1));
        assert_eq!(sim.node(1).crashes_seen, 1);
        assert!(sim.stats().messages_to_crashed >= 1);
        assert_eq!(sim.correct_nodes(), vec![0, 2, 3]);
    }

    #[test]
    fn recovery_reinvokes_the_actor() {
        let schedule = FaultSchedule::none()
            .crash_at(2, SimTime::from_millis(1))
            .recover_at(2, SimTime::from_millis(50));
        let mut sim =
            Simulation::new(cluster(3), NetworkConfig::default(), 4).with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_secs(1));
        assert!(!sim.is_crashed(2));
        assert!(sim.node(2).recovered);
        assert_eq!(sim.stats().recoveries, 1);
    }

    #[test]
    fn byzantine_turns_are_reported_to_the_actor() {
        let schedule = FaultSchedule::none().byzantine_at(0, SimTime::from_millis(1));
        let mut sim =
            Simulation::new(cluster(2), NetworkConfig::default(), 5).with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_millis(10));
        assert!(sim.is_byzantine(0));
        assert!(sim.node(0).byzantine);
        assert_eq!(sim.correct_nodes(), vec![1]);
    }

    #[test]
    fn partitions_block_progress_until_healed() {
        let net = NetworkConfig::default().with_partition(vec![vec![0], vec![1, 2, 3]]);
        let mut sim = Simulation::new(cluster(4), net, 6);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(sim.node(1).received, 0, "token blocked at the partition");
        assert!(sim.stats().messages_partitioned >= 1);
        // Heal and re-inject.
        sim.set_network(NetworkConfig::default());
        sim.inject(0, Token(1));
        sim.run_until(SimTime::from_secs(1));
        let total: u64 = (0..4).map(|i| sim.node(i).received).sum();
        assert!(total >= 20);
    }

    #[test]
    fn drops_reduce_delivery_ratio() {
        let net = NetworkConfig::default().with_drop_probability(0.5);
        let mut sim = Simulation::new(cluster(4), net, 7);
        for _ in 0..50 {
            // Fresh tokens keep hopping (and getting dropped) around the ring.
            sim.inject(0, Token(1));
        }
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.stats().messages_dropped > 0);
        assert!(sim.stats().delivery_ratio() < 0.95);
    }

    #[test]
    fn run_to_completion_processes_remaining_events() {
        let mut sim = Simulation::new(cluster(3), NetworkConfig::default(), 9);
        let processed = sim.run_to_completion(10_000);
        assert!(processed > 0);
        assert!(!sim.step(), "queue should be drained");
    }

    #[test]
    fn slow_nodes_stay_alive_but_fall_behind() {
        // Slow node 1 by 100x from the start: the ring token keeps circulating (no
        // message is lost — gray nodes are alive), it just takes far longer, so at a
        // deadline that comfortably finishes a healthy run the slowed ring has made
        // less progress.
        let schedule = FaultSchedule::none().slow_down_at(1, 100.0, SimTime::ZERO);
        let mut sim = Simulation::new(cluster(4), NetworkConfig::default(), 11)
            .with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_millis(20));
        let slowed: u64 = (0..4).map(|i| sim.node(i).received).sum();
        assert!(sim.is_slowed(1));
        assert_eq!(sim.slow_factor(1), 100.0);
        assert_eq!(sim.stats().slow_downs, 1);
        assert!(slowed < 20, "slowed ring should not finish, saw {slowed}");
        // The node still counts as correct: gray is not faulty.
        assert_eq!(sim.correct_nodes(), vec![0, 1, 2, 3]);
        // Let it run long enough and every hop completes — nothing was lost.
        sim.run_until(SimTime::from_secs(5));
        let total: u64 = (0..4).map(|i| sim.node(i).received).sum();
        assert_eq!(total, 20, "gray failure delays but never loses the token");
    }

    #[test]
    fn speed_up_restores_normal_timing() {
        let schedule = FaultSchedule::none()
            .slow_down_at(0, 50.0, SimTime::ZERO)
            .speed_up_at(0, SimTime::from_millis(10));
        let mut sim = Simulation::new(cluster(3), NetworkConfig::default(), 12)
            .with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_millis(5));
        assert!(sim.is_slowed(0));
        sim.run_until(SimTime::from_secs(2));
        assert!(!sim.is_slowed(0));
        assert_eq!(sim.stats().speed_ups, 1);
        let total: u64 = (0..3).map(|i| sim.node(i).received).sum();
        assert_eq!(total, 20);
    }

    /// Sets a 5 ms timer whenever a message arrives; records whether it fired.
    struct Pinger {
        received: bool,
        timer_fired: bool,
    }

    impl Actor<Token> for Pinger {
        fn on_start(&mut self, _ctx: &mut Context<Token>) {}

        fn on_message(&mut self, _from: usize, _msg: Token, ctx: &mut Context<Token>) {
            self.received = true;
            ctx.set_timer(SimTime::from_millis(5), 1);
        }

        fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<Token>) {
            self.timer_fired = true;
        }
    }

    #[test]
    fn slow_timers_fire_late() {
        // A 100x slow-down on node 0, then a message whose handler arms a 5 ms timer:
        // the timer is stretched to 500 ms (and the inject latency to 10–100 ms).
        let actors = (0..2)
            .map(|_| Pinger {
                received: false,
                timer_fired: false,
            })
            .collect();
        let schedule = FaultSchedule::none().slow_down_at(0, 100.0, SimTime::ZERO);
        let mut sim: Simulation<Token, Pinger> =
            Simulation::new(actors, NetworkConfig::default(), 13).with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_millis(1));
        sim.inject(0, Token(0));
        sim.run_until(SimTime::from_millis(300));
        assert!(sim.node(0).received, "message arrives (late, not lost)");
        assert!(
            !sim.node(0).timer_fired,
            "stretched timer must not fire yet"
        );
        sim.run_until(SimTime::from_millis(700));
        assert!(sim.node(0).timer_fired);
    }

    #[test]
    fn scheduled_partition_blocks_and_heal_restores() {
        // No manual set_network: the schedule itself drives the partition lifecycle.
        // The start-of-run token hop 0→1 is already in flight when the partition
        // lands, so it delivers; the ring then runs 1→2→3 inside the majority group
        // and dies at the 3→0 group boundary.
        let schedule = FaultSchedule::none()
            .partition_at(vec![vec![0], vec![1, 2, 3]], SimTime::ZERO)
            .heal_at(SimTime::from_millis(100));
        let mut sim = Simulation::new(cluster(4), NetworkConfig::default(), 14)
            .with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.node(0).received, 0, "token blocked at the partition");
        assert!(sim.stats().messages_partitioned >= 1);
        assert_eq!(sim.stats().partitions_started, 1);
        // After the scheduled heal, a fresh token makes the full circuit.
        sim.run_until(SimTime::from_millis(150));
        assert_eq!(sim.stats().partitions_healed, 1);
        sim.inject(0, Token(1));
        sim.run_until(SimTime::from_secs(1));
        let total: u64 = (0..4).map(|i| sim.node(i).received).sum();
        assert!(total >= 20);
    }

    #[test]
    fn scheduled_link_override_drops_one_direction() {
        use crate::network::LinkQuality;
        // Node 0 → 1 becomes fully lossy at t=0. The start-of-run hop 0→1 is already
        // in flight so it delivers; the token circles once and the second 0→1 send
        // is dropped, stalling the ring — while the 1→0-free path kept working.
        let schedule =
            FaultSchedule::none().link_override_at(0, 1, LinkQuality::lossy(1.0), SimTime::ZERO);
        let mut sim = Simulation::new(cluster(3), NetworkConfig::default(), 15)
            .with_fault_schedule(&schedule);
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.node(1).received, 1, "only the pre-override hop lands");
        assert!(sim.stats().messages_dropped >= 1);
        assert_eq!(sim.stats().link_overrides, 1);
    }

    #[test]
    fn gray_failures_and_net_events_are_deterministic() {
        let run = |seed| {
            let schedule = FaultSchedule::none()
                .slow_down_at(2, 7.5, SimTime::from_millis(1))
                .partition_at(vec![vec![0, 1], vec![2, 3]], SimTime::from_millis(5))
                .heal_at(SimTime::from_millis(40))
                .speed_up_at(2, SimTime::from_millis(60));
            let mut sim = Simulation::new(cluster(4), NetworkConfig::wan_heavy_tailed(), seed)
                .with_fault_schedule(&schedule);
            sim.run_until(SimTime::from_secs(2));
            (sim.stats(), sim.now())
        };
        assert_eq!(run(99), run(99));
    }
}
