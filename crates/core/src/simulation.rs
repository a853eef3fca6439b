//! The discrete-event simulation engine: empirical validation of the analytic
//! guarantees (§3's method, closed into a loop).
//!
//! The four analytic engines compute what the protocol *model* implies; this fifth
//! engine measures what the executable *system* does. [`SimulationEngine`] fans out
//! deterministic [`consensus_sim::Simulation`] traces — one independent cluster per
//! trial, built from the model's [`crate::protocol::ExecutableSpec`]
//! — under fault schedules sampled from the scenario's correlation model
//! ([`FaultSchedule::sample_from_correlation`]), and reports the empirical
//! safety/liveness frequencies with Wilson confidence intervals plus trace-derived
//! statistics (messages delivered, leader elections, decided commands, injected
//! faults).
//!
//! # Parallelism and determinism
//!
//! Trials are embarrassingly parallel and fan out across the persistent rayon pool.
//! Determinism follows the same construction as [`crate::montecarlo`]: trial `i`'s
//! RNG is seeded from `(budget seed, i)` by the same SplitMix64 finalizer that seeds
//! Monte Carlo chunks (salted, so the two samplers draw decorrelated streams), the
//! per-trial simulator seed is drawn from that RNG, and the per-trial verdicts are
//! integer tallies whose sum is order-independent. A fixed seed therefore yields a
//! bit-identical [`SimulationReport`] at any thread count, asserted by
//! `tests/engine_agreement.rs`.
//!
//! # Selection
//!
//! The engine implements [`AnalysisEngine`] but is **never auto-selected**: a
//! simulation trial costs milliseconds where an analytic sample costs nanoseconds,
//! and its verdict is an empirical measurement, not a model evaluation. It runs when
//! pinned explicitly, or — the intended front door — when a query requests paired
//! cross-validation ([`crate::query::Query::validate_with_simulation`]), which
//! reports per-cell analytic-vs-empirical agreement as z-scores.
//!
//! # Example
//!
//! ```
//! use prob_consensus::deployment::Deployment;
//! use prob_consensus::engine::{AnalysisEngine, Budget, EngineChoice, Scenario};
//! use prob_consensus::raft_model::RaftModel;
//! use prob_consensus::simulation::SimulationEngine;
//!
//! let model = RaftModel::standard(3);
//! let deployment = Deployment::uniform_crash(3, 0.2);
//! let budget = Budget::default().with_seed(7).with_sim_trials(12);
//! assert!(SimulationEngine.supports(&model, Scenario::Independent(&deployment), &budget));
//! let outcome = SimulationEngine.run(&model, Scenario::Independent(&deployment), &budget);
//! assert_eq!(outcome.engine, EngineChoice::Simulation);
//! let report = outcome.simulation.expect("simulation outcomes carry trial stats");
//! assert_eq!(report.trials, 12);
//! // Crash faults can stall progress but never break Raft's agreement.
//! assert_eq!(report.safe.value, 1.0);
//! assert!(report.mean_messages_delivered > 0.0);
//! ```

use consensus_protocols::harness::{run_trial, TrialProtocol, TrialSpec};
use consensus_protocols::pbft::PbftConfig;
use consensus_protocols::raft::RaftConfig;
use consensus_sim::fault::FaultSchedule;
use consensus_sim::network::{LinkQuality, NetworkConfig};
use consensus_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::engine::{
    AnalysisEngine, AnalysisOutcome, Budget, EngineChoice, FaultEnvironment, Scenario,
};
use crate::montecarlo::Estimate;
use crate::protocol::{ExecutableSpec, ProtocolModel};
use crate::scratch::GroupScratch;

/// Salt XOR-ed into the budget seed before deriving per-trial RNGs, so the
/// simulation engine and the Monte Carlo samplers draw decorrelated streams from
/// the same budget seed.
const SIM_SEED_SALT: u64 = 0x51D0_7EAC_E5EE_D001;

/// Stretch factor applied to the pinned leader under
/// [`FaultEnvironment::GrayPrimary`]: large enough that a sub-millisecond LAN
/// hop stretches past any multi-second horizon, so the gray node — provably
/// alive, never marked faulty — cannot catch up on replicated entries within
/// the mission window. ×1,000 is not enough: a 100 µs hop stretched to 100 ms
/// still commits inside a 2 s horizon, which is precisely the insidious
/// "slow but technically working" regime; ×100,000 pins the divergence.
pub const GRAY_SLOW_FACTOR: f64 = 100_000.0;

/// Virtual time each trial runs for, in milliseconds: long enough for several
/// election timeouts and view changes to play out after injected faults.
const HORIZON_MILLIS: u64 = 2_500;

/// Prefix of the horizon (milliseconds) within which sampled fault events land.
/// Faults arrive early — mirroring the analysis-window semantics, where a
/// configuration's faults are in place when its guarantees are judged — and the
/// rest of the horizon lets elections and view changes play out.
const FAULT_WINDOW_MILLIS: u64 = 200;

/// Client commands submitted at the start of each trial — the workload whose
/// commitment defines empirical liveness.
const COMMANDS: usize = 3;

/// Drop probability of the asymmetric link override injected by
/// [`FaultEnvironment::WanLossy`] (one direction of the 0→1 link; the reverse
/// direction stays at the base WAN loss).
const WAN_LOSSY_LINK_DROP: f64 = 0.25;

/// Empirical reliability measured over a batch of discrete-event simulation trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationReport {
    /// Fraction of trials whose correct nodes stayed in agreement, with a 95%
    /// Wilson interval.
    pub safe: Estimate,
    /// Fraction of trials in which every submitted command committed at every
    /// correct node.
    pub live: Estimate,
    /// Fraction of trials that were both safe and live.
    pub safe_and_live: Estimate,
    /// Number of trials run.
    pub trials: usize,
    /// Mean messages delivered per trial (a cost proxy).
    pub mean_messages_delivered: f64,
    /// Mean leader elections per trial beyond the initial one (Raft: term
    /// displacements; PBFT: view changes).
    pub mean_leader_changes: f64,
    /// Mean commands decided at every correct node per trial.
    pub mean_decided_commands: f64,
    /// Total fault events (crashes and Byzantine turns) injected across all trials.
    pub total_faults_injected: u64,
    /// Total gray-failure events (slow-downs and speed-ups) applied across all
    /// trials. Always zero under [`FaultEnvironment::Clean`].
    pub total_gray_events: u64,
    /// Total scheduled network events (partitions, heals, link overrides) applied
    /// across all trials. Always zero under [`FaultEnvironment::Clean`].
    pub total_net_events: u64,
}

/// Integer per-trial tallies; their sum is associative and commutative, which is
/// what makes the parallel reduction thread-count-independent.
#[derive(Debug, Clone, Copy, Default)]
struct TrialTally {
    safe: usize,
    live: usize,
    both: usize,
    messages_delivered: u64,
    leader_changes: u64,
    decided_commands: u64,
    faults_injected: u64,
    gray_events: u64,
    net_events: u64,
}

impl std::ops::Add for TrialTally {
    type Output = TrialTally;

    fn add(self, other: TrialTally) -> TrialTally {
        TrialTally {
            safe: self.safe + other.safe,
            live: self.live + other.live,
            both: self.both + other.both,
            messages_delivered: self.messages_delivered + other.messages_delivered,
            leader_changes: self.leader_changes + other.leader_changes,
            decided_commands: self.decided_commands + other.decided_commands,
            faults_injected: self.faults_injected + other.faults_injected,
            gray_events: self.gray_events + other.gray_events,
            net_events: self.net_events + other.net_events,
        }
    }
}

/// Builds the per-trial workload for an executable configuration, specialized to
/// the fault environment: the network model it implies, and — for environments
/// that target "the primary" — a pinned leader so the targeted node is the one
/// that actually leads.
fn trial_spec(spec: ExecutableSpec, environment: FaultEnvironment) -> TrialSpec {
    let protocol = match spec {
        ExecutableSpec::Raft {
            n,
            commit_quorum,
            election_quorum,
        } => TrialProtocol::Raft(
            RaftConfig::standard(n).with_quorums(commit_quorum, election_quorum),
        ),
        ExecutableSpec::Pbft { n } => TrialProtocol::Pbft(PbftConfig::standard(n)),
    };
    let base = TrialSpec {
        protocol,
        network: NetworkConfig::lan(),
        commands: COMMANDS,
        duration_millis: HORIZON_MILLIS,
    };
    match environment {
        FaultEnvironment::Clean => base,
        FaultEnvironment::GrayPrimary | FaultEnvironment::PartitionHeal => {
            base.with_pinned_leader()
        }
        FaultEnvironment::WanLossy => base.with_network(NetworkConfig::wan_heavy_tailed()),
    }
}

/// Appends the environment's scheduled events to a sampled crash/Byzantine
/// schedule, drawing event times from the per-trial RNG — the same RNG, in the
/// same order, at every thread count, which is what keeps environment cells
/// bit-identical under parallel fan-out. [`FaultEnvironment::Clean`] draws
/// nothing, so clean cells reproduce pre-environment results bit-for-bit.
fn apply_environment(
    environment: FaultEnvironment,
    n: usize,
    schedule: FaultSchedule,
    rng: &mut StdRng,
) -> FaultSchedule {
    let window_micros = SimTime::from_millis(FAULT_WINDOW_MILLIS).as_micros();
    match environment {
        FaultEnvironment::Clean => schedule,
        FaultEnvironment::GrayPrimary => {
            // The pinned leader goes gray at a sampled time inside the fault
            // window and never recovers: alive, correct, and useless.
            let at = SimTime::from_micros(rng.gen_range(0..=window_micros));
            schedule.slow_down_at(0, GRAY_SLOW_FACTOR, at)
        }
        FaultEnvironment::PartitionHeal => {
            // Split with the pinned leader on the minority side, heal at half the
            // horizon (never before the partition starts): the empirical question
            // is whether the remaining half-horizon is enough to recover.
            let at = SimTime::from_micros(rng.gen_range(0..=window_micros));
            let heal = SimTime::from_millis(HORIZON_MILLIS / 2).max(at);
            let minority: Vec<usize> = (0..n / 2).collect();
            let majority: Vec<usize> = (n / 2..n).collect();
            schedule
                .partition_at(vec![minority, majority], at)
                .heal_at(heal)
        }
        FaultEnvironment::WanLossy => {
            // One direction of the 0→1 link turns lossy at a sampled time; the
            // reverse direction keeps the base WAN loss — asymmetric degradation
            // on top of the heavy-tailed delay distribution.
            let at = SimTime::from_micros(rng.gen_range(0..=window_micros));
            schedule.link_override_at(0, 1, LinkQuality::lossy(WAN_LOSSY_LINK_DROP), at)
        }
    }
}

/// Runs `budget.sim.trials` deterministic simulation trials of `model` under fault
/// schedules sampled from the scenario and aggregates the verdicts — the body of
/// [`SimulationEngine::run`], exposed for benches and tests that want the report
/// without the [`AnalysisOutcome`] wrapper.
///
/// Fault schedules are sampled over the first `FAULT_WINDOW_MILLIS` (200 ms) of
/// virtual time — mirroring the mission-window semantics of the analysis layer,
/// where a configuration's faults are in place when its liveness is judged — and
/// each trial then runs for the full `HORIZON_MILLIS` (2.5 s) horizon, giving
/// elections and view changes time to play out.
///
/// # Panics
///
/// Panics if the model has no executable counterpart
/// ([`ProtocolModel::executable`]) or disagrees with the scenario on the cluster
/// size; callers go through [`AnalysisEngine::supports`] (or the query API, which
/// validates cells at plan time).
pub fn simulate_reliability(
    model: &dyn ProtocolModel,
    scenario: Scenario<'_>,
    budget: &Budget,
) -> SimulationReport {
    let spec = model
        .executable()
        .expect("simulation requires an executable protocol model");
    assert_eq!(
        spec.num_nodes(),
        scenario.len(),
        "model and scenario disagree on the cluster size"
    );
    let target = scenario.to_correlation_model();
    let workload = trial_spec(spec, budget.sim.environment);
    let trials = budget.sim.trials.max(1);
    let fault_window = SimTime::from_millis(FAULT_WINDOW_MILLIS);
    let tally = (0..trials)
        .into_par_iter()
        .map(|index| {
            let mut rng = StdRng::seed_from_u64(crate::montecarlo::chunk_seed(
                budget.seed ^ SIM_SEED_SALT,
                index as u64,
            ));
            let schedule = FaultSchedule::sample_from_correlation(&target, fault_window, &mut rng);
            let schedule =
                apply_environment(budget.sim.environment, spec.num_nodes(), schedule, &mut rng);
            let sim_seed: u64 = rng.gen();
            let trial = run_trial(&workload, &schedule, sim_seed);
            TrialTally {
                safe: trial.outcome.agreement as usize,
                live: trial.outcome.all_committed as usize,
                both: trial.outcome.safe_and_live() as usize,
                messages_delivered: trial.outcome.messages_delivered,
                leader_changes: trial.leader_changes,
                decided_commands: trial.decided_commands as u64,
                faults_injected: trial.stats.crashes + trial.stats.byzantine_turns,
                gray_events: trial.stats.slow_downs + trial.stats.speed_ups,
                net_events: trial.stats.partitions_started
                    + trial.stats.partitions_healed
                    + trial.stats.link_overrides,
            }
        })
        .collect::<Vec<_>>()
        .into_iter()
        .fold(TrialTally::default(), std::ops::Add::add);
    let per_trial = |total: u64| total as f64 / trials as f64;
    SimulationReport {
        safe: Estimate::from_counts(tally.safe, trials),
        live: Estimate::from_counts(tally.live, trials),
        safe_and_live: Estimate::from_counts(tally.both, trials),
        trials,
        mean_messages_delivered: per_trial(tally.messages_delivered),
        mean_leader_changes: per_trial(tally.leader_changes),
        mean_decided_commands: per_trial(tally.decided_commands),
        total_faults_injected: tally.faults_injected,
        total_gray_events: tally.gray_events,
        total_net_events: tally.net_events,
    }
}

/// The fifth engine: empirical discrete-event simulation of the executable
/// protocol (see the module docs for semantics, determinism and when it runs).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulationEngine;

impl AnalysisEngine for SimulationEngine {
    fn choice(&self) -> EngineChoice {
        EngineChoice::Simulation
    }

    fn supports_prepared(
        &self,
        model: &dyn ProtocolModel,
        scenario: Scenario<'_>,
        _budget: &Budget,
        _scratch: &GroupScratch,
    ) -> bool {
        model
            .executable()
            .is_some_and(|spec| spec.num_nodes() == scenario.len())
    }

    fn run_prepared(
        &self,
        model: &dyn ProtocolModel,
        scenario: Scenario<'_>,
        budget: &Budget,
        _scratch: &GroupScratch,
    ) -> AnalysisOutcome {
        let report = simulate_reliability(model, scenario, budget);
        AnalysisOutcome {
            simulation: Some(report),
            ..AnalysisOutcome::new(
                EngineChoice::Simulation,
                report.safe.value,
                report.live.value,
                report.safe_and_live.value,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Deployment;
    use crate::durability::PersistenceQuorumModel;
    use crate::pbft_model::PbftModel;
    use crate::raft_model::RaftModel;
    use fault_model::correlation::{CorrelationGroup, CorrelationModel};
    use fault_model::mode::FaultProfile;

    fn quick_budget(trials: usize) -> Budget {
        Budget::default().with_seed(11).with_sim_trials(trials)
    }

    #[test]
    fn executable_models_are_supported_and_abstract_models_are_not() {
        let budget = Budget::default();
        let raft = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let scenario = Scenario::Independent(&deployment);
        assert!(SimulationEngine.supports(&raft, scenario, &budget));
        let flexible = RaftModel::flexible(5, 2, 4);
        assert!(SimulationEngine.supports(&flexible, scenario, &budget));
        let pbft = PbftModel::standard(5);
        assert!(SimulationEngine.supports(&pbft, scenario, &budget));
        // Placement-sensitive models have no executable counterpart.
        let durability = PersistenceQuorumModel::new(5, vec![0, 1]);
        assert!(!SimulationEngine.supports(&durability, scenario, &budget));
        // A size mismatch between model and scenario is not supported either.
        let tiny = Deployment::uniform_crash(3, 0.05);
        assert!(!SimulationEngine.supports(&raft, Scenario::Independent(&tiny), &budget));
    }

    #[test]
    fn healthy_cluster_simulates_fully_reliable() {
        let model = RaftModel::standard(3);
        let deployment = Deployment::uniform_crash(3, 0.0);
        let outcome =
            SimulationEngine.run(&model, Scenario::Independent(&deployment), &quick_budget(8));
        assert_eq!(outcome.engine, EngineChoice::Simulation);
        assert!(outcome.is_empirical() && !outcome.is_exact());
        let report = outcome.simulation.expect("simulation report attached");
        assert_eq!(report.trials, 8);
        assert_eq!(report.safe_and_live.value, 1.0);
        assert_eq!(report.total_faults_injected, 0);
        assert_eq!(report.mean_decided_commands, COMMANDS as f64);
        assert!(report.mean_messages_delivered > 0.0);
    }

    #[test]
    fn injected_faults_show_up_in_the_trace_statistics() {
        // A guaranteed whole-cluster shock: every trial crashes all three nodes, so
        // liveness is lost in every trial while agreement (crash-only) holds.
        let profiles = vec![FaultProfile::crash_only(0.0); 3];
        let target = CorrelationModel::independent(profiles)
            .with_group(CorrelationGroup::crash_shock((0..3).collect(), 1.0));
        let model = RaftModel::standard(3);
        let outcome = SimulationEngine.run(&model, Scenario::Correlated(&target), &quick_budget(6));
        let report = outcome.simulation.expect("simulation report attached");
        assert_eq!(report.total_faults_injected, 18, "3 crashes x 6 trials");
        assert_eq!(report.live.value, 0.0);
        assert_eq!(report.safe.value, 1.0, "crashes never break agreement");
    }

    #[test]
    fn zero_trial_budget_saturates_to_one_trial() {
        let model = RaftModel::standard(3);
        let deployment = Deployment::uniform_crash(3, 0.1);
        let budget = Budget::default().with_seed(3).with_sim_trials(0);
        let report = simulate_reliability(&model, Scenario::Independent(&deployment), &budget);
        assert_eq!(report.trials, 1);
        for e in [report.safe, report.live, report.safe_and_live] {
            assert!(0.0 <= e.lower && e.lower <= e.value && e.value <= e.upper && e.upper <= 1.0);
        }
    }

    #[test]
    fn reports_are_deterministic_per_seed_and_sensitive_to_it() {
        let model = RaftModel::standard(3);
        let deployment = Deployment::uniform_crash(3, 0.3);
        let scenario = Scenario::Independent(&deployment);
        let a = simulate_reliability(&model, scenario, &quick_budget(16));
        let b = simulate_reliability(&model, scenario, &quick_budget(16));
        assert_eq!(a, b);
        let other_seed = quick_budget(16).with_seed(99);
        let c = simulate_reliability(&model, scenario, &other_seed);
        assert_ne!(
            a, c,
            "a different seed must sample different fault schedules"
        );
    }

    #[test]
    #[should_panic(expected = "executable protocol model")]
    fn running_an_abstract_model_panics_with_a_clear_message() {
        let model = PersistenceQuorumModel::new(5, vec![0, 1]);
        let deployment = Deployment::uniform_crash(5, 0.05);
        simulate_reliability(&model, Scenario::Independent(&deployment), &quick_budget(1));
    }

    #[test]
    fn gray_primary_environment_stalls_liveness_the_analytic_model_cannot_see() {
        // Zero crash probability: the analytic model calls this deployment perfectly
        // reliable. The gray-primary environment slows the pinned leader without
        // ever marking it faulty — empirical liveness collapses while safety holds.
        // This asymmetry is the known-divergent cell of ROADMAP item 3.
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.0);
        let scenario = Scenario::Independent(&deployment);
        let clean = simulate_reliability(&model, scenario, &quick_budget(12));
        let gray_budget = quick_budget(12).with_fault_environment(FaultEnvironment::GrayPrimary);
        let gray = simulate_reliability(&model, scenario, &gray_budget);
        assert_eq!(clean.total_gray_events, 0);
        assert_eq!(gray.total_gray_events, 12, "one slow-down per trial");
        assert_eq!(gray.safe.value, 1.0, "gray failure must never break safety");
        assert!(
            gray.live.value < clean.live.value,
            "a gray leader must cost liveness: clean {} vs gray {}",
            clean.live.value,
            gray.live.value
        );
        assert_eq!(
            gray.total_faults_injected, 0,
            "gray events are not boolean faults"
        );
    }

    #[test]
    fn partition_heal_environment_injects_net_events_every_trial() {
        let model = PbftModel::standard(4);
        let deployment = Deployment::uniform_crash(4, 0.0);
        let scenario = Scenario::Independent(&deployment);
        let budget = quick_budget(8).with_fault_environment(FaultEnvironment::PartitionHeal);
        let report = simulate_reliability(&model, scenario, &budget);
        assert_eq!(
            report.total_net_events, 16,
            "one partition and one heal per trial"
        );
        assert_eq!(report.safe.value, 1.0, "partitions must never break safety");
    }

    #[test]
    fn wan_lossy_environment_runs_heavy_tailed_and_overrides_a_link() {
        let model = RaftModel::standard(3);
        let deployment = Deployment::uniform_crash(3, 0.0);
        let scenario = Scenario::Independent(&deployment);
        let budget = quick_budget(6).with_fault_environment(FaultEnvironment::WanLossy);
        let report = simulate_reliability(&model, scenario, &budget);
        assert_eq!(report.total_net_events, 6, "one link override per trial");
        assert_eq!(report.safe.value, 1.0);
    }

    #[test]
    fn environment_reports_are_deterministic_per_seed() {
        let model = RaftModel::standard(5);
        let deployment = Deployment::uniform_crash(5, 0.05);
        let scenario = Scenario::Independent(&deployment);
        for environment in FaultEnvironment::ALL {
            let budget = quick_budget(10).with_fault_environment(environment);
            let a = simulate_reliability(&model, scenario, &budget);
            let b = simulate_reliability(&model, scenario, &budget);
            assert_eq!(a, b, "environment {environment} must be deterministic");
        }
    }
}
