//! Fault schedules: when nodes crash, recover, turn Byzantine, or go gray — and when
//! the network itself partitions, heals, or degrades per link.
//!
//! A schedule can be written explicitly (for targeted tests) or sampled from a joint
//! failure model (matching the analysis window semantics of the `prob-consensus`
//! crate; see [`FaultSchedule::sample_from_correlation`]). Besides per-node
//! fault events, a schedule carries a second lane of [`NetEvent`]s that reconfigure the
//! network mid-run: partitions that later heal, and asymmetric per-link loss/delay
//! overrides — the fault classes a fixed-`f` model cannot express.

use fault_model::correlation::CorrelationModel;
use fault_model::mode::NodeState;
use rand::Rng;

use crate::network::LinkQuality;
use crate::time::SimTime;

/// What happens to a node at a scheduled time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node stops: no messages sent or received, timers do not fire.
    Crash,
    /// The node resumes from a crash (volatile state is the actor's responsibility).
    Recover,
    /// The node starts behaving maliciously (actors decide what that means).
    TurnByzantine,
    /// Gray failure: the node stays alive and correct, but everything it does is
    /// stretched by `factor` — outgoing and incoming message latencies and its own
    /// timer delays. The node itself has no idea it is slow; nothing in the actor API
    /// reports it. This is the slow-but-alive case fixed-`f` fault models miss.
    SlowDown {
        /// Multiplier (> 0) applied to the node's message latencies and timer delays.
        /// Values above 1 slow the node down; the identity factor 1.0 is a no-op.
        factor: f64,
    },
    /// Ends a gray failure: the node's timing returns to normal (factor 1.0).
    SpeedUp,
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the event takes effect.
    pub time: SimTime,
    /// Which node it affects.
    pub node: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A scheduled change to the network as a whole (as opposed to a single node).
#[derive(Debug, Clone, PartialEq)]
pub enum NetEventKind {
    /// Partition the network into the given groups: messages flow only within a
    /// group, and nodes not listed in any group are isolated.
    PartitionStart {
        /// The partition groups.
        groups: Vec<Vec<usize>>,
    },
    /// Heal any partition: the network becomes fully connected again.
    PartitionHeal,
    /// Install (or replace) a directed per-link quality override from `from` to
    /// `to`. Overrides are asymmetric: the reverse direction is unaffected unless
    /// it is overridden separately.
    LinkOverride {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Loss/extra-delay parameters for the link.
        quality: LinkQuality,
    },
    /// Remove every per-link override installed so far.
    ClearLinkOverrides,
}

/// One scheduled network event.
#[derive(Debug, Clone, PartialEq)]
pub struct NetEvent {
    /// When the event takes effect.
    pub time: SimTime,
    /// What changes.
    pub kind: NetEventKind,
}

/// An ordered list of fault and network events to inject into a simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    net_events: Vec<NetEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no injected faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an event, keeping the vector time-ordered.
    ///
    /// Insertion is ordered (binary search for the slot, one `Vec::insert`) rather
    /// than push-then-sort, so building an `n`-event schedule costs O(n log n)
    /// comparisons instead of the O(n² log n) of re-sorting per insertion. Events
    /// with equal timestamps keep their insertion order — the same guarantee the
    /// previous stable sort gave — so iteration order never depends on how a
    /// schedule was built.
    pub fn add(&mut self, event: FaultEvent) {
        let at = self.events.partition_point(|e| e.time <= event.time);
        self.events.insert(at, event);
    }

    /// Adds a network event, keeping the network lane time-ordered with the same
    /// equal-timestamp insertion-order guarantee as [`FaultSchedule::add`].
    pub fn add_net(&mut self, event: NetEvent) {
        let at = self.net_events.partition_point(|e| e.time <= event.time);
        self.net_events.insert(at, event);
    }

    /// Convenience: crash `node` at `time`.
    pub fn crash_at(mut self, node: usize, time: SimTime) -> Self {
        self.add(FaultEvent {
            time,
            node,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Convenience: recover `node` at `time`.
    pub fn recover_at(mut self, node: usize, time: SimTime) -> Self {
        self.add(FaultEvent {
            time,
            node,
            kind: FaultKind::Recover,
        });
        self
    }

    /// Convenience: turn `node` Byzantine at `time`.
    pub fn byzantine_at(mut self, node: usize, time: SimTime) -> Self {
        self.add(FaultEvent {
            time,
            node,
            kind: FaultKind::TurnByzantine,
        });
        self
    }

    /// Convenience: gray-fail `node` at `time`, stretching its latencies and timer
    /// delays by `factor`.
    pub fn slow_down_at(mut self, node: usize, factor: f64, time: SimTime) -> Self {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slow-down factor must be positive and finite"
        );
        self.add(FaultEvent {
            time,
            node,
            kind: FaultKind::SlowDown { factor },
        });
        self
    }

    /// Convenience: end a gray failure on `node` at `time`.
    pub fn speed_up_at(mut self, node: usize, time: SimTime) -> Self {
        self.add(FaultEvent {
            time,
            node,
            kind: FaultKind::SpeedUp,
        });
        self
    }

    /// Convenience: partition the network into `groups` at `time`.
    pub fn partition_at(mut self, groups: Vec<Vec<usize>>, time: SimTime) -> Self {
        self.add_net(NetEvent {
            time,
            kind: NetEventKind::PartitionStart { groups },
        });
        self
    }

    /// Convenience: heal any partition at `time`.
    pub fn heal_at(mut self, time: SimTime) -> Self {
        self.add_net(NetEvent {
            time,
            kind: NetEventKind::PartitionHeal,
        });
        self
    }

    /// Convenience: install a directed link-quality override at `time`.
    pub fn link_override_at(
        mut self,
        from: usize,
        to: usize,
        quality: LinkQuality,
        time: SimTime,
    ) -> Self {
        self.add_net(NetEvent {
            time,
            kind: NetEventKind::LinkOverride { from, to, quality },
        });
        self
    }

    /// The scheduled per-node fault events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The scheduled network events in time order.
    pub fn net_events(&self) -> &[NetEvent] {
        &self.net_events
    }

    /// Number of scheduled per-node fault events (network events not included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty (no fault events and no network events).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.net_events.is_empty()
    }

    /// Samples a schedule from a joint (possibly correlated) failure model over a
    /// horizon: one failure configuration is drawn from the model — independent
    /// per-node outcomes plus any common-cause correlation-group shocks — and every
    /// faulty node receives its fault (crash, or Byzantine turn) at a uniformly
    /// random time within the horizon, never recovering.
    ///
    /// An independent deployment is the model with no groups. With or without
    /// groups, the realized end-of-horizon configuration is distributed exactly as
    /// the analysis layer's Monte Carlo samples, so empirical safety/liveness rates
    /// measured under these schedules are directly comparable with analytic (and
    /// sampled) probabilities — including under rack- or cluster-level shocks no
    /// independent sampler can express.
    pub fn sample_from_correlation<R: Rng + ?Sized>(
        model: &CorrelationModel,
        horizon: SimTime,
        rng: &mut R,
    ) -> Self {
        let mut schedule = Self::none();
        for (node, state) in model.sample(rng).into_iter().enumerate() {
            let kind = match state {
                NodeState::Correct => continue,
                NodeState::Crashed => FaultKind::Crash,
                NodeState::Byzantine => FaultKind::TurnByzantine,
            };
            let at = SimTime::from_micros(rng.gen_range(0..=horizon.as_micros()));
            schedule.add(FaultEvent {
                time: at,
                node,
                kind,
            });
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Context};
    use crate::network::NetworkConfig;
    use crate::runtime::Simulation;
    use fault_model::mode::FaultProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A node that does nothing, so a run applies the schedule and nothing else.
    struct Idle;

    impl Actor<()> for Idle {
        fn on_start(&mut self, _ctx: &mut Context<()>) {}
        fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Context<()>) {}
        fn on_timer(&mut self, _tag: u64, _ctx: &mut Context<()>) {}
    }

    /// The nodes the simulator leaves crashed or Byzantine once it has applied all
    /// of `schedule`: the failure configuration the schedule realizes.
    fn eventually_faulty(schedule: &FaultSchedule, num_nodes: usize) -> Vec<usize> {
        let idle = (0..num_nodes).map(|_| Idle).collect();
        let mut sim =
            Simulation::new(idle, NetworkConfig::default(), 0).with_fault_schedule(schedule);
        sim.run_until(SimTime::from_secs(1));
        (0..num_nodes)
            .filter(|&i| sim.is_crashed(i) || sim.is_byzantine(i))
            .collect()
    }

    #[test]
    fn builder_orders_events_by_time() {
        let s = FaultSchedule::none()
            .crash_at(2, SimTime::from_millis(50))
            .crash_at(0, SimTime::from_millis(10))
            .recover_at(0, SimTime::from_millis(30));
        let times: Vec<u64> = s.events().iter().map(|e| e.time.as_micros()).collect();
        assert_eq!(times, vec![10_000, 30_000, 50_000]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn same_timestamp_events_keep_insertion_order() {
        // Three events at the same instant plus one earlier and one later, inserted in
        // a scrambled order: the equal-timestamp trio must come back in insertion
        // order (crash 0, recover 1, byzantine 2), pinned so iteration order can
        // never depend on how the sort/insert is implemented.
        let t = SimTime::from_millis(20);
        let s = FaultSchedule::none()
            .crash_at(9, SimTime::from_millis(90))
            .crash_at(0, t)
            .recover_at(1, t)
            .byzantine_at(2, t)
            .crash_at(8, SimTime::from_millis(1));
        let order: Vec<(u64, usize)> = s
            .events()
            .iter()
            .map(|e| (e.time.as_micros(), e.node))
            .collect();
        assert_eq!(
            order,
            vec![
                (1_000, 8),
                (20_000, 0),
                (20_000, 1),
                (20_000, 2),
                (90_000, 9)
            ]
        );
    }

    #[test]
    fn same_timestamp_net_events_keep_insertion_order() {
        let t = SimTime::from_millis(5);
        let s = FaultSchedule::none()
            .heal_at(SimTime::from_millis(50))
            .partition_at(vec![vec![0], vec![1, 2]], t)
            .heal_at(t);
        assert_eq!(s.net_events().len(), 3);
        assert!(matches!(
            s.net_events()[0].kind,
            NetEventKind::PartitionStart { .. }
        ));
        assert!(matches!(
            s.net_events()[1].kind,
            NetEventKind::PartitionHeal
        ));
        assert_eq!(s.net_events()[2].time, SimTime::from_millis(50));
    }

    #[test]
    fn eventually_faulty_accounts_for_recovery() {
        let s = FaultSchedule::none()
            .crash_at(0, SimTime::from_millis(10))
            .recover_at(0, SimTime::from_millis(20))
            .crash_at(1, SimTime::from_millis(10))
            .byzantine_at(2, SimTime::from_millis(5));
        assert_eq!(eventually_faulty(&s, 4), vec![1, 2]);
    }

    #[test]
    fn eventually_faulty_crash_recover_crash_is_faulty() {
        let s = FaultSchedule::none()
            .crash_at(0, SimTime::from_millis(10))
            .recover_at(0, SimTime::from_millis(20))
            .crash_at(0, SimTime::from_millis(30));
        assert_eq!(eventually_faulty(&s, 2), vec![0]);
    }

    #[test]
    fn eventually_faulty_recover_without_prior_crash_is_correct() {
        let s = FaultSchedule::none().recover_at(1, SimTime::from_millis(10));
        assert!(eventually_faulty(&s, 3).is_empty());
    }

    #[test]
    fn gray_events_do_not_count_as_eventually_faulty() {
        let s = FaultSchedule::none()
            .slow_down_at(0, 16.0, SimTime::from_millis(10))
            .slow_down_at(1, 4.0, SimTime::from_millis(5))
            .speed_up_at(1, SimTime::from_millis(50))
            .partition_at(vec![vec![0], vec![1, 2]], SimTime::from_millis(1))
            .heal_at(SimTime::from_millis(40));
        assert!(eventually_faulty(&s, 3).is_empty());
        // ... even interleaved with real faults the gray events change nothing.
        let s = s.crash_at(2, SimTime::from_millis(20));
        assert_eq!(eventually_faulty(&s, 3), vec![2]);
    }

    #[test]
    fn profile_sampling_matches_probabilities() {
        // Each node crashes with 0.2 and turns Byzantine with 0.1.
        let model = CorrelationModel::independent(vec![FaultProfile::new(0.2, 0.1); 4]);
        let mut rng = StdRng::seed_from_u64(9);
        let (mut crashes, mut byzantine) = (0usize, 0usize);
        let trials = 5_000;
        for _ in 0..trials {
            let s =
                FaultSchedule::sample_from_correlation(&model, SimTime::from_secs(10), &mut rng);
            for e in s.events() {
                match e.kind {
                    FaultKind::Crash => crashes += 1,
                    FaultKind::TurnByzantine => byzantine += 1,
                    other => panic!("unexpected event {other:?}"),
                }
            }
        }
        let rate = |count: usize| count as f64 / (trials * 4) as f64;
        assert!(
            (rate(crashes) - 0.2).abs() < 0.02,
            "observed {}",
            rate(crashes)
        );
        assert!(
            (rate(byzantine) - 0.1).abs() < 0.02,
            "observed {}",
            rate(byzantine)
        );
    }

    #[test]
    fn profile_sampling_distinguishes_byzantine_from_crash() {
        let model = CorrelationModel::independent(vec![FaultProfile::new(0.0, 1.0)]);
        let mut rng = StdRng::seed_from_u64(2);
        let s = FaultSchedule::sample_from_correlation(&model, SimTime::from_secs(1), &mut rng);
        assert_eq!(s.events()[0].kind, FaultKind::TurnByzantine);
    }

    #[test]
    fn correlation_sampling_reflects_shock_probability() {
        use fault_model::correlation::CorrelationGroup;
        // Nodes never fail independently; a 30% whole-group crash shock is the only
        // fault source, so schedules are either empty or crash every member.
        let model = CorrelationModel::independent(vec![FaultProfile::crash_only(0.0); 4])
            .with_group(CorrelationGroup::crash_shock((0..4).collect(), 0.3));
        let mut rng = StdRng::seed_from_u64(5);
        let horizon = SimTime::from_secs(10);
        let trials = 4_000;
        let mut shocked = 0usize;
        for _ in 0..trials {
            let s = FaultSchedule::sample_from_correlation(&model, horizon, &mut rng);
            assert!(s.is_empty() || s.len() == 4, "shock is all-or-nothing");
            assert!(s.events().iter().all(|e| e.kind == FaultKind::Crash));
            assert!(s.events().iter().all(|e| e.time <= horizon));
            if !s.is_empty() {
                shocked += 1;
            }
        }
        let rate = shocked as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed shock rate {rate}");
    }

    #[test]
    fn correlation_sampling_preserves_byzantine_outcomes() {
        use fault_model::correlation::CorrelationGroup;
        let model = CorrelationModel::independent(vec![FaultProfile::byzantine_only(1.0); 2])
            .with_group(CorrelationGroup::crash_shock(vec![0, 1], 1.0));
        let mut rng = StdRng::seed_from_u64(6);
        let s = FaultSchedule::sample_from_correlation(&model, SimTime::from_secs(1), &mut rng);
        // Byzantine dominates the crash shock, exactly as in the analysis sampler.
        assert_eq!(s.len(), 2);
        assert!(s
            .events()
            .iter()
            .all(|e| e.kind == FaultKind::TurnByzantine));
    }

    #[test]
    fn groupless_correlation_sampling_matches_profile_marginals() {
        let profiles = vec![FaultProfile::crash_only(0.25); 5];
        let model = CorrelationModel::independent(profiles);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 4_000;
        let mut crashes = 0usize;
        for _ in 0..trials {
            crashes +=
                FaultSchedule::sample_from_correlation(&model, SimTime::from_secs(1), &mut rng)
                    .len();
        }
        let rate = crashes as f64 / (trials * 5) as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed {rate}");
    }
}
