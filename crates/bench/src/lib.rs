//! Experiment implementations behind the `repro` harness.
//!
//! Every table and quantitative claim in the paper's evaluation has a function here that
//! recomputes it and returns a formatted [`Table`] (see DESIGN.md for the experiment
//! index). The `repro` binary prints them; the unit tests in this crate and the
//! integration tests at the workspace root assert the headline numbers.

// Documentation is part of this crate's contract: every public item is
// documented, and CI builds rustdoc with `-D warnings` (see the `docs` job).
#![warn(missing_docs)]
use fault_model::correlation::{CorrelationGroup, CorrelationModel};
use fault_model::curve::WeibullCurve;
use fault_model::metrics::{Nines, HOURS_PER_YEAR};
use fault_model::mode::FaultProfile;
use fault_model::node::{Fleet, NodeSpec};
use prob_consensus::analyzer::{analyze_auto, analyze_scenario};
use prob_consensus::deployment::Deployment;
use prob_consensus::durability::{
    durability_claim, quorum_durability, DurabilityClaim, PersistenceQuorumModel,
};
use prob_consensus::engine::{AnalysisOutcome, Budget, EngineChoice};
use prob_consensus::json::JsonValue;
use prob_consensus::montecarlo::{monte_carlo_reliability_par_kernel, McKernel};
use prob_consensus::optimize::{
    default_catalogue, optimize, DeploymentSpace, FailureDomains, NodeType, OptimizeReport,
    OptimizerConfig, Placement, TargetSpec,
};
use prob_consensus::packed::PackedKernel;
use prob_consensus::pbft_model::PbftModel;
use prob_consensus::query::{
    AnalysisReport, AnalysisSession, CellRecord, CorrelationSpec, FaultAxis, ProtocolSpec, Query,
    TimeAxis,
};
use prob_consensus::raft_model::RaftModel;
use prob_consensus::report::{percent, Table};
use prob_consensus::scratch::GroupScratch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Experiment `table1`: PBFT reliability at uniform p_u = 1% (Table 1 of the paper).
/// The N sweep runs as one planned batch through the query API.
pub fn table1() -> Table {
    let session = AnalysisSession::new();
    let report = session
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Pbft])
                .nodes([4usize, 5, 7, 8])
                .fault_probs([0.01])
                .faults(FaultAxis::Byzantine),
        )
        .expect("well-formed Table 1 sweep");
    let mut table = Table::new(
        "Table 1: PBFT reliability, uniform p_u = 1%",
        &[
            "N",
            "|Q_eq|",
            "|Q_per|",
            "|Q_vc|",
            "|Q_vc_t|",
            "Safe %",
            "Live %",
            "Safe and Live %",
        ],
    );
    for cell in report.cells() {
        let model = PbftModel::standard(cell.nodes);
        table.push_row(vec![
            cell.nodes.to_string(),
            model.q_eq().to_string(),
            model.q_per().to_string(),
            model.q_vc().to_string(),
            model.q_vc_t().to_string(),
            cell.outcome.report.safe.as_percent(),
            cell.outcome.report.live.as_percent(),
            cell.outcome.report.safe_and_live.as_percent(),
        ]);
    }
    table
}

/// Experiment `table2`: Raft reliability for uniform node failure p_u (Table 2).
/// The N × p grid runs as one planned batch through the query API.
pub fn table2() -> Table {
    const NS: [usize; 4] = [3, 5, 7, 9];
    const PS: [f64; 4] = [0.01, 0.02, 0.04, 0.08];
    let session = AnalysisSession::new();
    let report = session
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes(NS)
                .fault_probs(PS),
        )
        .expect("well-formed Table 2 sweep");
    let mut table = Table::new(
        "Table 2: Raft reliability for uniform node failure p_u",
        &[
            "N", "|Q_per|", "|Q_vc|", "S&L p=1%", "S&L p=2%", "S&L p=4%", "S&L p=8%",
        ],
    );
    for (i, n) in NS.into_iter().enumerate() {
        let model = RaftModel::standard(n);
        let mut row = vec![
            n.to_string(),
            model.q_per().to_string(),
            model.q_vc().to_string(),
        ];
        // Grid cells are in axis-nesting order: the p-axis is the inner loop.
        for j in 0..PS.len() {
            let cell = report.cell(i * PS.len() + j);
            debug_assert_eq!(cell.nodes, n);
            row.push(cell.outcome.report.safe_and_live.as_percent());
        }
        table.push_row(row);
    }
    table
}

/// Experiment `claim-three-nines`: "Raft with N = 3 is only 3 nines safe and live".
pub fn claim_three_nines() -> Table {
    let mut table = Table::new(
        "Claim: f-threshold protocols are not 100% reliable (Raft N=3, p_u=1%)",
        &["Metric", "Value"],
    );
    let report = analyze_auto(
        &RaftModel::standard(3),
        &Deployment::uniform_crash(3, 0.01),
        &Budget::default(),
    )
    .report;
    table.push_row(vec!["Safe".into(), report.safe.as_percent()]);
    table.push_row(vec!["Live".into(), report.live.as_percent()]);
    table.push_row(vec![
        "Safe and live".into(),
        report.safe_and_live.as_percent(),
    ]);
    table.push_row(vec![
        "Nines (safe and live)".into(),
        format!("{:.2}", report.safe_and_live.nines()),
    ]);
    table
}

/// Experiment `claim-cheap-nodes`: nine 8% spot nodes match three 1% on-demand nodes at
/// roughly a third of the cost. The two guarantees are explicit query cells. Returns
/// the table and the cost reduction factor (baseline $/h over alternative $/h).
pub fn claim_cheap_nodes() -> (Table, f64) {
    let catalogue = default_catalogue();
    let (on_demand, spot) = (&catalogue[0], &catalogue[1]);
    let cluster =
        |node: &NodeType, n: usize| Deployment::uniform_crash(n, node.profile.fault_probability());
    let [baseline, alternative] = raft_safe_and_live([
        (on_demand.name.as_str(), cluster(on_demand, 3)),
        (spot.name.as_str(), cluster(spot, 9)),
    ]);
    let baseline_cost = on_demand.hourly_cost * 3.0;
    let alternative_cost = spot.hourly_cost * 9.0;
    let factor = baseline_cost / alternative_cost;
    let mut table = Table::new(
        "Claim: larger networks of less reliable nodes can help",
        &["Deployment", "S&L", "$ / hour", "Cost vs baseline"],
    );
    table.push_row(vec![
        format!("3 x {} (p=1%)", on_demand.name),
        baseline.as_percent(),
        format!("{baseline_cost:.2}"),
        "1.00x".into(),
    ]);
    table.push_row(vec![
        format!("9 x {} (p=8%)", spot.name),
        alternative.as_percent(),
        format!("{alternative_cost:.2}"),
        format!("{factor:.2}x cheaper"),
    ]);
    (table, factor)
}

/// Experiment `claim-quorum-overkill`: linear-size trigger quorums vs probabilistic
/// sampling at N = 100, p_u = 1%. Returns the table and the two trigger-quorum sizes,
/// `(f-threshold, probabilistic)`.
pub fn claim_quorum_overkill() -> (Table, (usize, usize)) {
    const N: usize = 100;
    const P: f64 = 0.01;
    const TARGET: f64 = 1.0 - 1e-10;
    // The f-threshold model asks for f + 1 nodes; a sample of k independent nodes
    // holds a correct one with probability 1 − p^k, so the smallest k meeting the
    // target is enough.
    let f_threshold = (N - 1) / 3 + 1;
    let probabilistic = (1..=N)
        .find(|&k| 1.0 - P.powi(k as i32) >= TARGET)
        .unwrap_or(N);
    let mut table = Table::new(
        "Claim: linear size quorums can be overkill (N=100, p_u=1%)",
        &["Rule", "|Q_vc_t|", "P(contains a correct node)"],
    );
    table.push_row(vec![
        "f-threshold (f+1)".into(),
        f_threshold.to_string(),
        "1 (worst-case guarantee)".into(),
    ]);
    table.push_row(vec![
        "probabilistic sample".into(),
        probabilistic.to_string(),
        percent(1.0 - P.powi(probabilistic as i32)),
    ]);
    (table, (f_threshold, probabilistic))
}

/// The four numbers of the `claim-heterogeneous` experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeterogeneityClaim {
    /// Safe-and-live probability of seven 8% nodes.
    pub baseline_safe_and_live: Nines,
    /// Safe-and-live probability after the three least reliable nodes become 1% nodes.
    pub upgraded_safe_and_live: Nines,
    /// Durability of a persistence quorum of the four least reliable upgraded nodes —
    /// the worst case for a protocol oblivious to fault curves.
    pub oblivious_durability: Nines,
    /// Durability of a persistence quorum that must include the most reliable node,
    /// the other three still the least reliable.
    pub aware_durability: Nines,
}

/// Safe-and-live probability of majority-quorum Raft on each labelled deployment,
/// evaluated as the explicit cells of one query.
fn raft_safe_and_live<const K: usize>(cells: [(&str, Deployment); K]) -> [Nines; K] {
    let query = cells
        .into_iter()
        .fold(Query::new(), |query, (label, deployment)| {
            query.cell(
                label,
                Arc::new(RaftModel::standard(deployment.len())),
                deployment,
            )
        });
    let report = AnalysisSession::new()
        .run(&query)
        .expect("well-formed Raft cells");
    std::array::from_fn(|i| report.cell(i).outcome.report.safe_and_live)
}

/// Experiment `claim-heterogeneous`: the 7-node heterogeneous Raft example of §3.2.
/// The two safe-and-live numbers are explicit query cells; the two durabilities are
/// closed forms over quorums picked from the reliability ranking.
pub fn claim_heterogeneous() -> (Table, HeterogeneityClaim) {
    let baseline = Deployment::uniform_crash(7, 0.08);
    // Replace the three least reliable nodes with 1% machines.
    let upgraded = baseline.nodes_by_reliability()[4..]
        .iter()
        .fold(baseline.clone(), |d, &node| {
            d.with_profile(node, FaultProfile::crash_only(0.01))
        });
    // A 4-node persistence quorum: the least reliable nodes, or the most reliable
    // node and the three least reliable.
    let ranked = upgraded.nodes_by_reliability();
    let oblivious_durability = quorum_durability(&upgraded, &ranked[3..]);
    let aware_durability = quorum_durability(&upgraded, &[&ranked[..1], &ranked[4..]].concat());
    let [baseline_safe_and_live, upgraded_safe_and_live] =
        raft_safe_and_live([("baseline", baseline), ("upgraded", upgraded)]);
    let analysis = HeterogeneityClaim {
        baseline_safe_and_live,
        upgraded_safe_and_live,
        oblivious_durability,
        aware_durability,
    };
    let mut table = Table::new(
        "Claim: Raft and PBFT underutilize reliable nodes (7-node Raft)",
        &["Configuration", "Value"],
    );
    for (label, value) in [
        ("S&L, 7 x 8% nodes", baseline_safe_and_live),
        ("S&L, 3 nodes upgraded to 1%", upgraded_safe_and_live),
        (
            "Durability, fault-curve-oblivious quorum",
            oblivious_durability,
        ),
        (
            "Durability, quorum must include a reliable node",
            aware_durability,
        ),
    ] {
        table.push_row(vec![label.into(), value.as_percent()]);
    }
    (table, analysis)
}

/// Experiment `claim-tradeoff`: the hidden safety/liveness trade-off between 4-, 5- and
/// 7-node PBFT at p_u = 1%, as one planned sweep. Returns the table and the sweep
/// (cells in N order); deployment cost is proportional to N.
pub fn claim_tradeoff() -> (Table, AnalysisReport) {
    let report = AnalysisSession::new()
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Pbft])
                .nodes([4usize, 5, 7])
                .fault_probs([0.01])
                .faults(FaultAxis::Byzantine),
        )
        .expect("well-formed trade-off sweep");
    let mut table = Table::new(
        "Claim: hidden safety/liveness trade-off (PBFT, p_u = 1%)",
        &["N", "Safe %", "Live %", "Relative cost"],
    );
    let (four, five) = (report.cell(0), report.cell(1));
    for cell in report.cells() {
        table.push_row(vec![
            cell.nodes.to_string(),
            cell.outcome.report.safe.as_percent(),
            cell.outcome.report.live.as_percent(),
            format!("{:.2}x", cell.nodes as f64 / four.nodes as f64),
        ]);
    }
    let (a, b) = (&four.outcome.report, &five.outcome.report);
    table.push_row(vec![
        "5 vs 4".into(),
        format!("{:.0}x safer", a.unsafety() / b.unsafety()),
        format!("{:.2}x less live", b.unliveness() / a.unliveness()),
        format!("{:.2}x", five.nodes as f64 / four.nodes as f64),
    ]);
    (table, report)
}

/// Experiment `claim-durability`: the §4 durability argument at N = 100, |Q_per| = 10,
/// p_u = 10%.
pub fn claim_durability() -> (Table, DurabilityClaim) {
    let deployment = Deployment::uniform_crash(100, 0.10);
    let claim = durability_claim(&deployment, 10);
    let mut table = Table::new(
        "Claim: |Q_per| faults rarely mean data loss (N=100, |Q_per|=10, p_u=10%)",
        &["Quantity", "Probability"],
    );
    table.push_row(vec![
        "At least |Q_per| simultaneous faults".into(),
        format!("{:.3}", claim.p_threshold_exceeded),
    ]);
    table.push_row(vec![
        "Faults cover the last persistence quorum".into(),
        format!("{:.2e}", claim.p_data_loss),
    ]);
    table.push_row(vec![
        "Pessimism factor".into(),
        format!("{:.2e}", claim.pessimism_factor()),
    ]);
    (table, claim)
}

/// Cluster size of the `claim-durability-correlated` experiment (§4 scale).
pub const DURABILITY_N: usize = 100;
/// Persistence-quorum size of the experiment (the paper's |Q_per| = 10).
pub const DURABILITY_QUORUM: usize = 10;
/// Per-node fault probability of the experiment (the paper's p_u = 10%).
pub const DURABILITY_P: f64 = 0.10;
/// Rack count: 10 racks of 10 nodes, each a crash-shock correlation group.
pub const DURABILITY_RACKS: usize = 10;
/// Probability that a whole rack fails together within the window.
pub const DURABILITY_RACK_SHOCK: f64 = 0.01;
/// Sample budget of each estimated cell.
pub const DURABILITY_SAMPLES: usize = 80_000;
/// Seed of the experiment (fixed for reproducibility; like any fixed-seed 95% CI,
/// an unlucky seed can put the truth just outside the interval — this one does not).
pub const DURABILITY_SEED: u64 = 2026;

/// One analyzed cell of the correlated-durability experiment: the engine the
/// auto-selector picked, its loss estimate with CI, and how many plain Monte Carlo
/// samples would be needed for the same CI width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityEstimate {
    /// Closed-form data-loss probability of this cell (all cells here factorize).
    pub exact: f64,
    /// The engine `analyze_scenario` auto-selected.
    pub engine: EngineChoice,
    /// Estimated data-loss probability (complement of the safety estimate).
    pub p_loss: f64,
    /// Lower bound of the 95% CI on the loss probability.
    pub ci_lower: f64,
    /// Upper bound of the 95% CI on the loss probability.
    pub ci_upper: f64,
    /// Samples the sampling engine drew.
    pub samples: usize,
    /// Effective sample size (importance sampling only).
    pub ess: Option<f64>,
    /// Samples plain Monte Carlo would need for an equal-width 95% interval at this
    /// loss probability: `z²·p̂(1−p̂)/h²` with `h` the CI half-width.
    pub mc_equivalent_samples: f64,
}

impl DurabilityEstimate {
    /// Whether the reported interval contains the closed-form answer.
    pub fn ci_contains_exact(&self) -> bool {
        self.ci_lower <= self.exact && self.exact <= self.ci_upper
    }

    /// Sample-efficiency factor over plain Monte Carlo at equal CI width.
    pub fn efficiency_factor(&self) -> f64 {
        self.mc_equivalent_samples / self.samples as f64
    }
}

/// The three cells of the `claim-durability-correlated` experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelatedDurability {
    /// No correlation: the paper's own §4 setting, loss = p_u^|Q| = 1e-10.
    pub independent: DurabilityEstimate,
    /// Racks shocked, quorum packed into one rack: loss ≈ the rack shock (1e-2).
    pub same_rack: DurabilityEstimate,
    /// Racks shocked, quorum spread one-per-rack: loss ≈ (marginal p)^|Q| ≈ 2.4e-10.
    pub cross_rack: DurabilityEstimate,
}

/// Samples plain Monte Carlo would need for a 95% interval of half-width
/// `half_width` at proportion `p`: `z²·p·(1−p)/h²` (infinite for a degenerate
/// interval). The one definition behind the experiment table, the
/// `rare_event_sample_efficiency` baseline number and the tests that assert it.
fn mc_equivalent_samples(p: f64, half_width: f64) -> f64 {
    if half_width <= 0.0 {
        return f64::INFINITY;
    }
    let z = prob_consensus::montecarlo::Z_95;
    z * z * p * (1.0 - p) / (half_width * half_width)
}

fn durability_cell(record: &CellRecord, exact: f64) -> DurabilityEstimate {
    let (Some([safe, _, _]), Some(samples)) =
        (record.outcome.sampled_estimates(), record.samples_drawn())
    else {
        unreachable!("durability cells are too large for the exact engines")
    };
    let (p_loss, ci_lower, ci_upper) = (1.0 - safe.value, 1.0 - safe.upper, 1.0 - safe.lower);
    DurabilityEstimate {
        exact,
        engine: record.outcome.engine,
        p_loss,
        ci_lower,
        ci_upper,
        samples,
        ess: record.ess(),
        mc_equivalent_samples: mc_equivalent_samples(p_loss, (ci_upper - ci_lower) / 2.0),
    }
}

/// Experiment `claim-durability-correlated`: the §4 durability argument re-run where
/// plain Monte Carlo cannot go — as a placement-sensitive model (loss of one
/// *specific* quorum, not a fault count) at N = 100, with and without rack-level
/// correlated shocks.
///
/// The independent cell reproduces the counting-engine-era 1e-10 answer from ~1e5
/// weighted samples where plain sampling would need ~1e12; the correlated cells show
/// what the exact engines can never see: the same quorum packed into one rack is
/// *eight orders of magnitude* less durable than spread across racks.
pub fn claim_durability_correlated() -> (Table, CorrelatedDurability) {
    let budget = Budget::default()
        .with_samples(DURABILITY_SAMPLES)
        .with_seed(DURABILITY_SEED);
    let rack = DURABILITY_N / DURABILITY_RACKS;
    let profiles = vec![FaultProfile::crash_only(DURABILITY_P); DURABILITY_N];

    let deployment = Deployment::from_profiles(profiles.clone());
    let quorum: Vec<usize> = (0..DURABILITY_QUORUM).collect();
    let packed_model: Arc<dyn prob_consensus::ProtocolModel + Send + Sync> =
        Arc::new(PersistenceQuorumModel::new(DURABILITY_N, quorum));

    // Rack-correlated failure model: nodes 10r..10r+10 share a crash shock.
    let mut correlated = CorrelationModel::independent(profiles);
    for r in 0..DURABILITY_RACKS {
        correlated = correlated.with_group(CorrelationGroup::crash_shock(
            (r * rack..(r + 1) * rack).collect(),
            DURABILITY_RACK_SHOCK,
        ));
    }
    let spread: Vec<usize> = (0..DURABILITY_QUORUM).map(|i| i * rack).collect();
    let spread_model: Arc<dyn prob_consensus::ProtocolModel + Send + Sync> =
        Arc::new(PersistenceQuorumModel::new(DURABILITY_N, spread));

    // The three cells as one planned batch: (1) independent, quorum = the first
    // |Q| nodes, loss = p^|Q|; (2) quorum packed into rack 0, loss =
    // shock + (1-shock)·p^|Q|; (3) quorum spread one node per rack, members
    // independent of each other with the shock folded into the marginal, loss =
    // (1-(1-p)(1-shock))^|Q|.
    let session = AnalysisSession::new();
    let report = session
        .run(
            &Query::new()
                .budget(budget)
                .cell("independent", packed_model.clone(), deployment)
                .cell_correlated("same-rack", packed_model, correlated.clone())
                .cell_correlated("cross-rack", spread_model, correlated),
        )
        .expect("well-formed durability cells");
    let marginal = 1.0 - (1.0 - DURABILITY_P) * (1.0 - DURABILITY_RACK_SHOCK);
    let independent = durability_cell(report.cell(0), DURABILITY_P.powi(DURABILITY_QUORUM as i32));
    let same_rack = durability_cell(
        report.cell(1),
        DURABILITY_RACK_SHOCK
            + (1.0 - DURABILITY_RACK_SHOCK) * DURABILITY_P.powi(DURABILITY_QUORUM as i32),
    );
    let cross_rack = durability_cell(report.cell(2), marginal.powi(DURABILITY_QUORUM as i32));

    let mut table = Table::new(
        format!(
            "Claim: durability under correlated racks (N={DURABILITY_N}, |Q_per|={DURABILITY_QUORUM}, p_u={}%, rack shock {}%)",
            DURABILITY_P * 100.0,
            DURABILITY_RACK_SHOCK * 100.0
        ),
        &[
            "Scenario",
            "Engine",
            "Exact P(loss)",
            "Estimate",
            "95% CI",
            "ESS",
            "MC-equivalent samples",
        ],
    );
    for (label, cell) in [
        ("independent", &independent),
        ("correlated, quorum on one rack", &same_rack),
        ("correlated, quorum across racks", &cross_rack),
    ] {
        table.push_row(vec![
            label.into(),
            cell.engine.to_string(),
            format!("{:.2e}", cell.exact),
            format!("{:.2e}", cell.p_loss),
            format!("[{:.2e}, {:.2e}]", cell.ci_lower, cell.ci_upper),
            cell.ess.map_or("-".into(), |e| format!("{e:.0}")),
            format!(
                "{:.1e} ({:.0}x fewer drawn)",
                cell.mc_equivalent_samples,
                cell.efficiency_factor()
            ),
        ]);
    }
    (
        table,
        CorrelatedDurability {
            independent,
            same_rack,
            cross_rack,
        },
    )
}

/// The result of one simulation-validation cell: analytic prediction vs. empirical rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationCell {
    /// Cluster size.
    pub n: usize,
    /// Per-node fault probability.
    pub p: f64,
    /// Analytic P[safe ∧ live] from the counting engine.
    pub analytic: f64,
    /// Empirical fraction of simulated runs that were safe and live.
    pub empirical: f64,
    /// Number of simulated runs.
    pub trials: usize,
    /// Standardized analytic-vs-empirical disagreement, from the query API's
    /// paired [`prob_consensus::query::ValidationRecord`].
    pub z_score: f64,
}

/// Experiment `sim-validation`: the paper's validation loop as one query — each
/// analytic cell of the Raft sweep requests a paired simulation run
/// ([`Query::validate_with_simulation`]), and the report's per-cell z-scores
/// quantify analytic-vs-empirical agreement.
pub fn sim_validation(
    ns: &[usize],
    p: f64,
    trials: usize,
    seed: u64,
) -> (Table, Vec<ValidationCell>) {
    let mut table = Table::new(
        format!("Simulation validation: Raft, p_u = {}%", p * 100.0),
        &["N", "Analytic S&L", "Empirical S&L", "Trials", "z"],
    );
    let report = AnalysisSession::new()
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes(ns.iter().copied())
                .fault_probs([p])
                .budget(Budget::default().with_seed(seed).with_sim_trials(trials))
                .validate_with_simulation(),
        )
        .expect("well-formed validation sweep");
    let mut cells = Vec::new();
    for (index, &n) in ns.iter().enumerate() {
        let cell = report.cell(index);
        let validation = cell
            .validation
            .expect("every Raft cell has an executable counterpart");
        table.push_row(vec![
            n.to_string(),
            percent(validation.analytic),
            percent(validation.simulation.safe_and_live.value),
            validation.simulation.trials.to_string(),
            format!("{:+.2}", validation.z_score),
        ]);
        cells.push(ValidationCell {
            n,
            p,
            analytic: validation.analytic,
            empirical: validation.simulation.safe_and_live.value,
            trials: validation.simulation.trials,
            z_score: validation.z_score,
        });
    }
    (table, cells)
}

/// Experiment `native-quorum`: dynamic quorum sizing on fleets of different reliability.
/// One planned sweep over every intersecting flexible Raft quorum pair at N = 9; per
/// fleet, the smallest pair in (|Q_per|, |Q_vc|) order that meets three nines.
pub fn native_quorum() -> Table {
    const N: usize = 9;
    const FLEETS: [(&str, f64); 3] = [("p=0.1%", 0.001), ("p=1%", 0.01), ("p=4%", 0.04)];
    let pairs: Vec<(usize, usize)> = (1..=N)
        .flat_map(|q_per| (1..=N).map(move |q_vc| (q_per, q_vc)))
        .filter(|&(q_per, q_vc)| RaftModel::flexible(N, q_per, q_vc).quorums_intersect())
        .collect();
    let report = AnalysisSession::new()
        .run(
            &Query::new()
                .protocols(
                    pairs
                        .iter()
                        .map(|&(q_per, q_vc)| ProtocolSpec::RaftFlexible { q_per, q_vc }),
                )
                .nodes([N])
                .fault_probs(FLEETS.map(|(_, p)| p)),
        )
        .expect("well-formed quorum sweep");
    let mut table = Table::new(
        "Probability-native: smallest Raft quorums meeting 3 nines (N = 9)",
        &["Fleet", "|Q_per|", "|Q_vc|", "Achieved S&L"],
    );
    for (j, (label, _)) in FLEETS.into_iter().enumerate() {
        // Grid cells are in axis-nesting order: one chunk of fleets per quorum pair.
        let ((q_per, q_vc), cells) = pairs
            .iter()
            .zip(report.cells().chunks(FLEETS.len()))
            .find(|(_, cells)| cells[j].outcome.report.safe_and_live.meets(3.0))
            .expect("N = 9 reaches three nines on every fleet");
        table.push_row(vec![
            label.to_string(),
            q_per.to_string(),
            q_vc.to_string(),
            percent(cells[j].outcome.report.safe_and_live.probability()),
        ]);
    }
    table
}

/// Experiment `native-leader`: reliability-aware vs oblivious leader selection — the
/// fleet-average, best and worst fault probability a leader can have.
pub fn native_leader() -> Table {
    let faults = [0.08, 0.08, 0.04, 0.01, 0.01];
    let mean = faults.iter().sum::<f64>() / faults.len() as f64;
    let best = faults.into_iter().fold(f64::INFINITY, f64::min);
    let worst = faults.into_iter().fold(0.0, f64::max);
    let mut table = Table::new(
        "Probability-native: leader selection policies (5-node heterogeneous fleet)",
        &["Policy", "P(leader fails within the window)"],
    );
    for (label, probability) in [
        ("oblivious (fleet average)", mean),
        ("most reliable node", best),
        ("worst case", worst),
    ] {
        table.push_row(vec![label.to_string(), format!("{probability:.3}")]);
    }
    table
}

/// Experiment `native-committee`: running consensus on a committee of the five most
/// reliable nodes instead of the whole 15-node fleet, as two explicit query cells.
pub fn native_committee() -> Table {
    const COMMITTEE: usize = 5;
    let mut profiles = vec![FaultProfile::crash_only(0.005); 5];
    profiles.extend(vec![FaultProfile::crash_only(0.08); 10]);
    let fleet = Deployment::from_profiles(profiles);
    let members = &fleet.nodes_by_reliability()[..COMMITTEE];
    let committee = Deployment::from_profiles(members.iter().map(|&i| fleet.profile(i)).collect());
    let participation = COMMITTEE as f64 / fleet.len() as f64;
    let [full, committee] = raft_safe_and_live([("full fleet", fleet), ("committee", committee)]);
    let mut table = Table::new(
        "Probability-native: committee of reliable nodes vs full 15-node fleet",
        &["Configuration", "S&L", "Participation"],
    );
    table.push_row(vec![
        "full fleet (15 nodes)".into(),
        full.as_percent(),
        "100%".into(),
    ]);
    table.push_row(vec![
        "committee (5 most reliable)".into(),
        committee.as_percent(),
        format!("{:.0}%", participation * 100.0),
    ]);
    table
}

/// Experiment `fault-curves`: time-varying guarantees on an aging fleet and the impact of
/// correlated failures. The trajectory is one fleet trajectory cell.
pub fn fault_curves() -> Table {
    // An aging 5-node fleet on a wear-out Weibull curve.
    let fleet: Fleet = (0..5)
        .map(|i| {
            NodeSpec::with_constant_crash(i, 0.0, HOURS_PER_YEAR)
                .with_crash_curve(Arc::new(WeibullCurve::new(3.0, 70_000.0)))
                .with_age(10_000.0)
        })
        .collect();
    let axis = TimeAxis::new(5.0 * HOURS_PER_YEAR, HOURS_PER_YEAR)
        .with_window(HOURS_PER_YEAR / 4.0)
        .with_target_nines(3.0);
    let report = AnalysisSession::new()
        .run(&Query::new().time_horizon(axis).trajectory_cell(
            "aging-fleet",
            Arc::new(RaftModel::standard(5)),
            fleet,
        ))
        .expect("well-formed fleet trajectory");
    let trajectory = report.trajectory(0);
    let mut table = Table::new(
        "Fault curves: quarterly S&L of an aging 5-node Raft fleet (wear-out Weibull)",
        &["Years from now", "S&L over the next quarter"],
    );
    for point in &trajectory.points {
        table.push_row(vec![
            format!("{:.0}", point.at_hours / HOURS_PER_YEAR),
            Nines::from_probability(point.probability).as_percent(),
        ]);
    }
    table.push_row(vec![
        "worst point".into(),
        format!(
            "{} (target held: {})",
            percent(trajectory.worst_probability),
            trajectory.first_below_target_hours.is_none()
        ),
    ]);
    table
}

/// Cross-check used by `fault-curves`/tests: parallel Monte Carlo agrees with the
/// engine the auto-selector picks (counting, for these models). Pinning the sampling
/// engine is deliberate here — the point is cross-engine agreement.
pub fn monte_carlo_crosscheck(n: usize, p: f64, samples: usize, seed: u64) -> (f64, f64) {
    let deployment = Deployment::uniform_crash(n, p);
    let model = RaftModel::standard(n);
    let analytic = analyze_auto(&model, &deployment, &Budget::default())
        .report
        .safe_and_live
        .probability();
    let failure_model = CorrelationModel::from(&deployment);
    let mc =
        monte_carlo_reliability_par_kernel(&model, &failure_model, samples, seed, McKernel::Auto);
    (analytic, mc.safe_and_live.value)
}

/// One wall-clock measurement of an analysis hot path, for the `repro --bench`
/// baseline (`BENCH_analysis.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchMeasurement {
    /// Benchmark id: one of [`BENCHMARK_IDS`].
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Iterations measured (after one warm-up iteration).
    pub iters: usize,
}

/// Times `f` for roughly `budget_ms` of wall clock.
///
/// One warm-up iteration calibrates a batch size (~1/50 of the budget per batch), and
/// the deadline is only checked between batches, so the clock reads stay out of the
/// measured mean even for nanosecond-scale `f`.
fn time_one<T>(id: &str, budget_ms: u64, mut f: impl FnMut() -> T) -> BenchMeasurement {
    use std::time::{Duration, Instant};
    let warmup_start = Instant::now();
    std::hint::black_box(f());
    let one = warmup_start.elapsed();
    let batch_budget = Duration::from_millis(budget_ms.max(1)) / 50;
    let batch =
        ((batch_budget.as_nanos().max(1) / one.as_nanos().max(1)) as usize).clamp(1, 1_000_000);

    let deadline = Instant::now() + Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut iters = 0usize;
    while iters < 3 * batch || Instant::now() < deadline {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        iters += batch;
    }
    BenchMeasurement {
        id: id.to_string(),
        mean_ns: start.elapsed().as_nanos() as f64 / iters as f64,
        iters,
    }
}

/// Benchmark id of the production Monte Carlo engine — the bit-sliced packed kernel
/// across the persistent pool — on the raft-9 workload: the row behind
/// `monte_carlo_samples_per_sec` in `BENCH_analysis.json`.
pub const MC_PARALLEL_ID: &str = "monte-carlo/raft-9-parallel";
/// Benchmark id of the scalar kernel run across the same pool; its ratio to
/// [`MC_PARALLEL_ID`] is `packed_kernel_speedup`.
pub const MC_SCALAR_PARALLEL_ID: &str = "monte-carlo/raft-9-scalar-parallel";
/// Sample budget of the speedup workload.
pub const MC_SPEEDUP_SAMPLES: usize = 200_000;
/// Seed of the speedup workload.
pub const MC_SPEEDUP_SEED: u64 = 7;

/// The model/deployment pair of the Monte Carlo kernel workload (9-node Raft at
/// p_u = 8%).
pub fn mc_speedup_workload() -> (RaftModel, Deployment) {
    (RaftModel::standard(9), Deployment::uniform_crash(9, 0.08))
}

/// Benchmark id of the scalar kernel on mixed-mode 7-node PBFT (p_crash = 5%,
/// p_byzantine = 1%), across the pool.
pub const MC_MIXED_SCALAR_ID: &str = "monte-carlo/pbft-7-mixed-scalar";
/// Benchmark id of the packed kernel on the same workload: its `(crashed,
/// byzantine)` lookup-table plan, which crash-only Raft never reaches.
pub const MC_MIXED_PACKED_ID: &str = "monte-carlo/pbft-7-mixed-packed";

/// Benchmark id of the importance-sampling run on the p ≈ 1e-8 workload.
pub const RARE_EVENT_IS_ID: &str = "rare-event/quorum-1e8-importance";
/// Benchmark id of the plain Monte Carlo run on the same workload (same sample
/// count — it measures per-sample cost; at this event probability it will see zero
/// hits, which is exactly the point).
pub const RARE_EVENT_MC_ID: &str = "rare-event/quorum-1e8-naive";
/// Sample budget of the rare-event workload.
pub const RARE_EVENT_SAMPLES: usize = 65_536;
/// Seed of the rare-event workload.
pub const RARE_EVENT_SEED: u64 = 17;

/// The p ≈ 1e-8 rare-event workload: a 16-node deployment at p_u = 1% whose
/// persistence quorum is 4 specific nodes, so P\[loss\] = 0.01⁴ = 1e-8 — one hit
/// per hundred million plain draws.
pub fn rare_event_workload() -> (PersistenceQuorumModel, Deployment) {
    (
        PersistenceQuorumModel::new(16, (0..4).collect()),
        Deployment::uniform_crash(16, 0.01),
    )
}

/// Sample-efficiency of importance sampling on the p ≈ 1e-8 workload: how many
/// plain Monte Carlo samples an equal-width 95% CI would cost, divided by the
/// samples actually drawn. Tracked in `BENCH_analysis.json` across PRs; the
/// acceptance floor is 100x.
pub fn rare_event_sample_efficiency() -> f64 {
    let (model, deployment) = rare_event_workload();
    let budget = Budget::default()
        .with_samples(RARE_EVENT_SAMPLES)
        .with_seed(RARE_EVENT_SEED);
    let outcome = EngineChoice::ImportanceSampling.run(
        &model,
        &CorrelationModel::from(&deployment),
        &budget,
        &GroupScratch::default(),
    );
    let report = outcome.rare_event.expect("importance sampling ran");
    let p_loss = 1.0 - report.safe.value;
    mc_equivalent_samples(p_loss, report.safe.half_width()) / report.samples as f64
}

/// Cluster size of the sweep-amortization workload.
pub const SWEEP_NODES: usize = 25;
/// Per-node crash probability of the workload.
pub const SWEEP_P: f64 = 0.05;
/// Whole-cluster crash-shock probability: makes the scenario correlated, so the
/// exact engines cannot take it and every cell lands on the packed Monte Carlo
/// kernel — the packed-kernel-eligible subset the amortization headline is about.
pub const SWEEP_SHOCK: f64 = 0.02;
/// Seed of the sweep workload.
pub const SWEEP_SEED: u64 = 41;
/// The convergence axis: per-cell sample budgets of the sweep (CI width vs. spend).
pub const SWEEP_SAMPLE_AXIS: [usize; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];

/// The sweep-amortization query: a correlated Raft scenario swept over the sample
/// budget. All five cells share one (model, scenario) signature, so the planned
/// batch runs the rare-event selector pilot and compiles the packed kernel once,
/// where the naive loop pays for both per cell.
pub fn sweep_query() -> Query {
    Query::new()
        .protocols([ProtocolSpec::Raft])
        .nodes([SWEEP_NODES])
        .fault_probs([SWEEP_P])
        .correlations([CorrelationSpec::ClusterShock {
            probability: SWEEP_SHOCK,
        }])
        .samples_sweep(SWEEP_SAMPLE_AXIS)
        .budget(Budget::default().with_seed(SWEEP_SEED))
}

/// The correlated failure model of the sweep workload (what the naive loop passes
/// to `analyze_scenario` per cell).
pub fn sweep_failure_model() -> CorrelationModel {
    CorrelationModel::independent(vec![FaultProfile::crash_only(SWEEP_P); SWEEP_NODES]).with_group(
        CorrelationGroup::crash_shock((0..SWEEP_NODES).collect(), SWEEP_SHOCK),
    )
}

/// One planned-batch run of the sweep, on a fresh session (so the measured
/// amortization is within one batch, not across benchmark iterations).
pub fn sweep_planned_batch() -> AnalysisReport {
    AnalysisSession::new()
        .run(&sweep_query())
        .expect("well-formed sweep query")
}

/// The naive per-cell loop over the same grid: one front-door call per cell, each
/// re-running engine selection (selector pilot included) and kernel compilation.
pub fn sweep_naive_loop() -> Vec<AnalysisOutcome> {
    let model = RaftModel::standard(SWEEP_NODES);
    let failure_model = sweep_failure_model();
    SWEEP_SAMPLE_AXIS
        .iter()
        .map(|&samples| {
            analyze_scenario(
                &model,
                &failure_model,
                &Budget::default()
                    .with_seed(SWEEP_SEED)
                    .with_samples(samples),
            )
            .expect("well-formed sweep cell")
        })
        .collect()
}

/// The mixed sweep query: the independent correlation axis lands on the exact
/// counting engine, the cluster-shock axis on the packed Monte Carlo kernel — the
/// sweep shape the scheduler's cost-ordered decomposition exists for (exact long
/// poles interleaved with individually stealable sample chunks).
pub fn sweep_mixed_query() -> Query {
    Query::new()
        .protocols([ProtocolSpec::Raft])
        .nodes([SWEEP_NODES])
        .fault_probs([SWEEP_P])
        .correlations([
            CorrelationSpec::Independent,
            CorrelationSpec::ClusterShock {
                probability: SWEEP_SHOCK,
            },
        ])
        .samples_sweep(SWEEP_SAMPLE_AXIS)
        .budget(Budget::default().with_seed(SWEEP_SEED))
}

/// One scheduled run of the mixed sweep, on a fresh session.
pub fn sweep_mixed_batch() -> AnalysisReport {
    AnalysisSession::new()
        .run(&sweep_mixed_query())
        .expect("well-formed mixed sweep query")
}

/// The cell-at-a-time reference over the same mixed grid, in the plan's cell
/// order (correlation variants outer, sample budgets inner).
pub fn sweep_mixed_naive_loop() -> Vec<AnalysisOutcome> {
    let model = RaftModel::standard(SWEEP_NODES);
    let deployment = Deployment::uniform_crash(SWEEP_NODES, SWEEP_P);
    let failure_model = sweep_failure_model();
    let mut out = Vec::with_capacity(2 * SWEEP_SAMPLE_AXIS.len());
    for &samples in &SWEEP_SAMPLE_AXIS {
        let budget = Budget::default()
            .with_seed(SWEEP_SEED)
            .with_samples(samples);
        out.push(analyze_auto(&model, &deployment, &budget));
    }
    for &samples in &SWEEP_SAMPLE_AXIS {
        let budget = Budget::default()
            .with_seed(SWEEP_SEED)
            .with_samples(samples);
        out.push(
            analyze_scenario(&model, &failure_model, &budget)
                .expect("well-formed mixed sweep cell"),
        );
    }
    out
}

/// The request line of the service workload: a mixed query touching
/// all three engine families the session cache amortizes — an exact counting
/// cell (independent axis), a packed Monte Carlo cell (cluster-shock axis) and
/// an importance-sampling persistence-quorum cell — at a deliberately small
/// sample budget, so per-request setup dominates and the cache either pays or
/// it does not.
pub const SERVER_BENCH_REQUEST: &str = concat!(
    "{\"id\":\"bench\",\"op\":\"query\",\"query\":{",
    "\"protocols\":[\"raft\"],\"nodes\":[25],\"fault_probs\":[0.05],",
    "\"correlations\":[\"independent\",{\"cluster_shock\":{\"probability\":0.02}}],",
    "\"samples\":500,\"seed\":43,",
    "\"cells\":[{\"label\":\"pq\",",
    "\"model\":{\"persistence_quorum\":{\"quorum\":[0,1,2,3]}},",
    "\"deployment\":{\"uniform_crash\":{\"n\":24,\"p\":0.01}}}]}}\n"
);

/// One cold exchange: a fresh server (empty session cache) serves
/// [`SERVER_BENCH_REQUEST`] end to end. Returns the NDJSON output.
pub fn server_query_cold() -> String {
    let server = Arc::new(repro_server::Server::new());
    repro_server::run_exchange(&server, SERVER_BENCH_REQUEST)
}

/// One warm exchange: `server` (prime it with one unmeasured call) serves the
/// same request out of its session cache.
pub fn server_query_warm(server: &Arc<repro_server::Server>) -> String {
    repro_server::run_exchange(server, SERVER_BENCH_REQUEST)
}

/// Cluster size of the epistemic workload. Small on purpose: at five nodes the
/// per-node fault probability drives the safe-and-live answer (three crashes
/// break the quorum at realistic rates), so the posterior draws actually spread
/// the estimate — at [`SWEEP_NODES`] the correlated shock dominates and every
/// draw would return the same number.
pub const EPISTEMIC_NODES: usize = 5;
/// Posterior draws per cell of the epistemic workload.
pub const EPISTEMIC_DRAWS: usize = 64;
/// Beta posterior alpha of the workload: 8 observed failures under a Jeffreys
/// prior (8 + 0.5).
pub const EPISTEMIC_ALPHA: f64 = 8.5;
/// Beta posterior beta of the workload: 191 survivals under a Jeffreys prior,
/// so the posterior mean sits near the [`SWEEP_P`] point estimate.
pub const EPISTEMIC_BETA: f64 = 191.5;
/// Seed of the epistemic workload.
pub const EPISTEMIC_SEED: u64 = 47;
/// Per-draw sample budget of the epistemic workload: small enough that a run is
/// dominated by per-draw scheduling, not raw kernel throughput.
pub const EPISTEMIC_SAMPLES: usize = 4_000;

/// The epistemic query: a correlated five-node Raft cell re-run under a
/// fleet-telemetry posterior (Beta(8.5, 191.5), mean ≈ [`SWEEP_P`]). Every
/// posterior draw is an independently scheduled packed Monte Carlo run, so this
/// workload measures the full second-order loop: draw planning, per-draw cache
/// keying, scheduling and the epistemic/aleatoric interval split.
pub fn epistemic_query() -> Query {
    Query::new()
        .protocols([ProtocolSpec::Raft])
        .nodes([EPISTEMIC_NODES])
        .fault_probs([SWEEP_P])
        .correlations([CorrelationSpec::ClusterShock {
            probability: SWEEP_SHOCK,
        }])
        .budget(
            Budget::default()
                .with_seed(EPISTEMIC_SEED)
                .with_samples(EPISTEMIC_SAMPLES),
        )
        .posterior(EPISTEMIC_DRAWS, EPISTEMIC_ALPHA, EPISTEMIC_BETA)
}

/// One scheduled run of the epistemic workload, on a fresh session.
pub fn epistemic_sweep_batch() -> AnalysisReport {
    AnalysisSession::new()
        .run(&epistemic_query())
        .expect("well-formed epistemic query")
}

/// The epistemic credible-interval width of the workload's single cell.
/// Deterministic (fixed seed, fixed posterior), so the number is reproducible
/// anywhere.
pub fn epistemic_interval_width() -> f64 {
    let report = epistemic_sweep_batch();
    report.cells()[0]
        .epistemic
        .as_ref()
        .expect("the epistemic workload always carries a posterior report")
        .epistemic_width()
}

/// Cluster sizes of the optimizer workload.
pub const OPTIMIZER_NODES: [usize; 4] = [3, 5, 7, 9];
/// Candidates in the optimizer workload grid: the three catalogue instance
/// types × [`OPTIMIZER_NODES`].
pub const OPTIMIZER_CANDIDATES: usize = 12;
/// Reliability target of the optimizer workload, in nines.
pub const OPTIMIZER_TARGET_NINES: f64 = 3.0;
/// Seed of the optimizer workloads.
pub const OPTIMIZER_SEED: u64 = 2026;

/// The optimizer workload space: every [`default_catalogue`] instance type at
/// every [`OPTIMIZER_NODES`] Raft cluster size. All candidates resolve exactly
/// through the counting engine, so a search exercises the search machinery (grid
/// expansion, one planned sweep, ranking, frontier extraction), not sampling.
pub fn optimizer_space() -> DeploymentSpace {
    DeploymentSpace {
        instances: default_catalogue(),
        nodes: OPTIMIZER_NODES.to_vec(),
        domains: None,
        placements: Vec::new(),
        target: TargetSpec::Protocol(ProtocolSpec::Raft),
    }
}

/// The optimizer workload config: small tier budgets (exact cells ignore them)
/// and the fixed [`OPTIMIZER_SEED`].
pub fn optimizer_config() -> OptimizerConfig {
    OptimizerConfig::new(OPTIMIZER_TARGET_NINES)
        .with_screen_samples(4_000)
        .with_refine_samples(16_000)
        .with_seed(OPTIMIZER_SEED)
}

/// One full optimizer search on a fresh session.
pub fn optimizer_batch() -> OptimizeReport {
    optimize(
        &AnalysisSession::new(),
        &optimizer_space(),
        &optimizer_config(),
    )
    .expect("the optimizer workload space is well-formed")
}

/// Experiment `optimize-durability`: the `claim-durability-correlated`
/// comparison generalized into a search. 100 spot nodes across 10 racks with
/// correlated rack shocks, quorum placement as a search axis; the optimizer
/// must rediscover cross-rack placement as the only feasible deployment at
/// eight nines, refining the deep-tail candidate with importance sampling.
pub fn optimize_durability() -> (Table, OptimizeReport) {
    let space = DeploymentSpace {
        instances: vec![NodeType::new("spot", 0.10, 0.10)],
        nodes: vec![100],
        domains: Some(FailureDomains {
            racks: 10,
            shock_probability: 0.01,
        }),
        placements: vec![Placement::SameRack, Placement::CrossRack],
        target: TargetSpec::PersistenceQuorum { quorum_size: 10 },
    };
    let config = OptimizerConfig::new(8.0)
        .with_screen_samples(20_000)
        .with_refine_samples(80_000)
        .with_seed(OPTIMIZER_SEED);
    let report = optimize(&AnalysisSession::new(), &space, &config)
        .expect("the durability search space is well-formed");
    (report.to_table(), report)
}

/// Benchmark id of one `PackedKernel::sample_chunk` call on the calling thread,
/// on the [`mc_speedup_workload`]: the row behind the absolute
/// `packed_samples_per_sec` baseline in `BENCH_analysis.json`. The id keeps the
/// pass width (8 `u64` words, 512 lanes per pass) it has always been recorded at.
pub const PACKED_WIDTH_PRODUCTION_ID: &str = "packed-width/w8";

/// Every row of `BENCH_analysis.json`, in the order [`analysis_benchmarks`] times
/// them: the engines and kernels that the socket harness in `benchmarks/` cannot
/// time in isolation. Whole requests (sweeps, the service, posteriors, the
/// optimizer, simulation) are timed there, end to end.
pub const BENCHMARK_IDS: [&str; 10] = [
    "counting/raft-9",
    "counting/raft-100",
    "enumeration/raft-13",
    MC_SCALAR_PARALLEL_ID,
    MC_PARALLEL_ID,
    MC_MIXED_SCALAR_ID,
    MC_MIXED_PACKED_ID,
    PACKED_WIDTH_PRODUCTION_ID,
    RARE_EVENT_IS_ID,
    RARE_EVENT_MC_ID,
];

/// The analysis-engine baseline suite behind `repro --bench`: one measurement per
/// [`BENCHMARK_IDS`] entry, in that order.
pub fn analysis_benchmarks(budget_ms: u64) -> Vec<BenchMeasurement> {
    let budget = Budget::default();
    let [counting9, counting100, enumeration13, ..] = BENCHMARK_IDS;
    let mut out = Vec::new();

    let d9 = Deployment::uniform_crash(9, 0.02);
    let m9 = RaftModel::standard(9);
    out.push(time_one(counting9, budget_ms, || {
        analyze_auto(&m9, &d9, &budget)
    }));
    let d100 = Deployment::uniform_crash(100, 0.02);
    let m100 = RaftModel::standard(100);
    out.push(time_one(counting100, budget_ms, || {
        analyze_auto(&m100, &d100, &budget)
    }));

    let s13 = CorrelationModel::from(&Deployment::uniform_crash(13, 0.02));
    let m13 = RaftModel::standard(13);
    out.push(time_one(enumeration13, budget_ms, || {
        EngineChoice::Enumeration.run(&m13, &s13, &budget, &GroupScratch::default())
    }));

    let (m_mc, d_mc) = mc_speedup_workload();
    let fm_mc = CorrelationModel::from(&d_mc);
    for (id, kernel) in [
        (MC_SCALAR_PARALLEL_ID, McKernel::Scalar),
        (MC_PARALLEL_ID, McKernel::Auto),
    ] {
        out.push(time_one(id, budget_ms, || {
            monte_carlo_reliability_par_kernel(
                &m_mc,
                &fm_mc,
                MC_SPEEDUP_SAMPLES,
                MC_SPEEDUP_SEED,
                kernel,
            )
        }));
    }

    let pbft = PbftModel::standard(7);
    let mixed = CorrelationModel::from(&Deployment::uniform_mixed(7, 0.05, 0.01));
    for (id, kernel) in [
        (MC_MIXED_SCALAR_ID, McKernel::Scalar),
        (MC_MIXED_PACKED_ID, McKernel::Packed),
    ] {
        out.push(time_one(id, budget_ms, || {
            monte_carlo_reliability_par_kernel(&pbft, &mixed, 50_000, MC_SPEEDUP_SEED, kernel)
        }));
    }

    // The packed kernel on the calling thread (same workload and seed as the
    // parallel row).
    let packed_mc = PackedKernel::new(&m_mc, &fm_mc);
    out.push(time_one(PACKED_WIDTH_PRODUCTION_ID, budget_ms, || {
        let mut rng = StdRng::seed_from_u64(MC_SPEEDUP_SEED);
        packed_mc.sample_chunk(&mut rng, MC_SPEEDUP_SAMPLES)
    }));

    // The rare-event pair: tilted vs. naive sampling at the same sample count. The
    // wall-clock ratio is the *overhead* of weighting (adaptive pilot included); the
    // ≥100x win is in samples needed, tracked by `rare_event_sample_efficiency`.
    let (m_re, d_re) = rare_event_workload();
    let re_budget = Budget::default()
        .with_samples(RARE_EVENT_SAMPLES)
        .with_seed(RARE_EVENT_SEED);
    let fm_re = CorrelationModel::from(&d_re);
    out.push(time_one(RARE_EVENT_IS_ID, budget_ms, || {
        EngineChoice::ImportanceSampling.run(&m_re, &fm_re, &re_budget, &GroupScratch::default())
    }));
    out.push(time_one(RARE_EVENT_MC_ID, budget_ms, || {
        monte_carlo_reliability_par_kernel(
            &m_re,
            &fm_re,
            RARE_EVENT_SAMPLES,
            RARE_EVENT_SEED,
            McKernel::Auto,
        )
    }));
    assert!(
        out.iter().map(|m| m.id.as_str()).eq(BENCHMARK_IDS),
        "the suite must time exactly BENCHMARK_IDS, in order"
    );
    out
}

/// Renders the [`analysis_benchmarks`] rows as the `BENCH_analysis.json` baseline,
/// with the kernel figures derived from them and `rare_event_efficiency` (the
/// [`rare_event_sample_efficiency`] number, computed once by the caller: it is not
/// a timing). Figures keep four significant digits.
pub fn benchmarks_to_json(measurements: &[BenchMeasurement], rare_event_efficiency: f64) -> String {
    let mean_ns = |id: &str| {
        let row = measurements.iter().find(|m| m.id == id);
        row.expect("the baseline suite times every row a figure is derived from")
            .mean_ns
    };
    let per_sec = |id: &str| figure(MC_SPEEDUP_SAMPLES as f64 * 1e9 / mean_ns(id));
    let rows = measurements.iter().map(|m| {
        object([
            ("id", JsonValue::string(m.id.as_str())),
            ("mean_ns", figure(m.mean_ns)),
            ("iters", JsonValue::number(m.iters as f64)),
        ])
    });
    let threads = rayon::current_num_threads() as f64;
    let document = object([
        ("threads", JsonValue::number(threads)),
        // The packed kernel across the pool, and its edge over the scalar kernel
        // at equal thread count (a within-run ratio, so comparable across hosts).
        ("monte_carlo_samples_per_sec", per_sec(MC_PARALLEL_ID)),
        (
            "packed_kernel_speedup",
            figure(mean_ns(MC_SCALAR_PARALLEL_ID) / mean_ns(MC_PARALLEL_ID)),
        ),
        // One `sample_chunk` call on the calling thread.
        (
            "packed_samples_per_sec",
            per_sec(PACKED_WIDTH_PRODUCTION_ID),
        ),
        (
            "rare_event_sample_efficiency",
            figure(rare_event_efficiency),
        ),
        ("benchmarks", JsonValue::Array(rows.collect())),
    ]);
    format!("{document}\n")
}

/// A JSON object of `members`, in order.
fn object<const N: usize>(members: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(members.map(|(key, value)| (key.to_string(), value)).into())
}

/// `x` rounded to four significant digits, the most a wall-clock figure carries.
fn figure(x: f64) -> JsonValue {
    let rounded = format!("{x:.3e}")
        .parse()
        .expect("a formatted float parses");
    JsonValue::number(rounded)
}

/// All experiment ids understood by the `repro` binary, in DESIGN.md order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "table1",
    "table2",
    "claim-three-nines",
    "claim-cheap-nodes",
    "claim-quorum-overkill",
    "claim-heterogeneous",
    "claim-tradeoff",
    "claim-durability",
    "claim-durability-correlated",
    "optimize-durability",
    "sim-validation",
    "native-quorum",
    "native-leader",
    "native-committee",
    "fault-curves",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_rows_matching_the_paper() {
        let t = table1();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.rows()[0][5], "99.94%");
        assert_eq!(t.rows()[1][5], "99.9990%");
        assert_eq!(t.rows()[2][7], "99.997%");
    }

    #[test]
    fn table2_has_four_rows_matching_the_paper() {
        let t = table2();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(t.rows()[0][3], "99.97%");
        assert_eq!(t.rows()[3][6], "99.97%");
    }

    #[test]
    fn cheap_nodes_claim_holds() {
        let (table, factor) = claim_cheap_nodes();
        assert!(factor > 3.0, "cost reduction {factor}");
        assert!(table.rows().iter().all(|row| row[1] == "99.97%"));
    }

    #[test]
    fn heterogeneous_claim_shape_holds() {
        let (_, a) = claim_heterogeneous();
        assert!(a.upgraded_safe_and_live.probability() > a.baseline_safe_and_live.probability());
        assert!(a.aware_durability.probability() > a.oblivious_durability.probability());
    }

    #[test]
    fn durability_claim_matches_paper_orders_of_magnitude() {
        let (_, c) = claim_durability();
        assert!((c.p_threshold_exceeded - 0.5).abs() < 0.1);
        assert!((c.p_data_loss - 1e-10).abs() < 1e-11);
    }

    #[test]
    fn correlated_durability_claim_reproduces_exact_answers_within_ci() {
        let (table, c) = claim_durability_correlated();
        assert_eq!(table.num_rows(), 3);
        for (label, cell) in [
            ("independent", c.independent),
            ("same-rack", c.same_rack),
            ("cross-rack", c.cross_rack),
        ] {
            assert!(
                cell.ci_contains_exact(),
                "{label}: exact {:.3e} outside CI [{:.3e}, {:.3e}]",
                cell.exact,
                cell.ci_lower,
                cell.ci_upper
            );
        }
        // The independent cell is the §4 claim itself: 1e-10 from ~1e5 weighted
        // samples — at most 1% of what plain Monte Carlo would need for this CI.
        assert!((c.independent.exact - 1e-10).abs() < 1e-12);
        assert_eq!(c.independent.engine, EngineChoice::ImportanceSampling);
        assert!(
            c.independent.efficiency_factor() >= 100.0,
            "sample efficiency only {:.1}x",
            c.independent.efficiency_factor()
        );
        // Spreading the quorum across racks is *orders of magnitude* more durable
        // than packing it into one — the correlation-aware placement story.
        assert!(c.same_rack.exact > 1e6 * c.cross_rack.exact);
        assert!(c.same_rack.p_loss > 1e6 * c.cross_rack.p_loss);
        // The common-mode cell is not rare, so the selector stays with plain MC.
        assert_eq!(c.same_rack.engine, EngineChoice::MonteCarlo);
        assert_eq!(c.cross_rack.engine, EngineChoice::ImportanceSampling);
    }

    #[test]
    fn rare_event_workload_beats_plain_monte_carlo_hundredfold() {
        let efficiency = rare_event_sample_efficiency();
        assert!(
            efficiency >= 100.0,
            "importance sampling must need >=100x fewer samples, got {efficiency:.1}x"
        );
    }

    #[test]
    fn quorum_overkill_table_contains_both_rules() {
        let (t, _) = claim_quorum_overkill();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.rows()[0][1], "34");
        assert_eq!(t.rows()[1][1], "5");
    }

    #[test]
    fn monte_carlo_crosscheck_is_close() {
        let (analytic, empirical) = monte_carlo_crosscheck(5, 0.05, 100_000, 3);
        assert!((analytic - empirical).abs() < 0.01);
    }

    #[test]
    fn sim_validation_tracks_analytic_predictions() {
        let (table, cells) = sim_validation(&[3], 0.1, 60, 11);
        let cell = cells[0];
        // With 60 trials the binomial standard error is ~4 points; allow a wide band.
        assert!(
            (cell.analytic - cell.empirical).abs() < 0.12,
            "analytic {} vs empirical {}",
            cell.analytic,
            cell.empirical
        );
        // The query API's paired z-score tells the same story in σ units.
        assert!(
            cell.z_score.abs() < 4.0,
            "validation z-score {:.2} out of range",
            cell.z_score
        );
        assert_eq!(
            table.rows()[0].len(),
            5,
            "N, analytic, empirical, trials, z"
        );
    }

    /// Retries a timing probe a few times before failing: wall-clock ratios on a
    /// loaded shared CI runner can dip on one attempt, while a real regression
    /// fails every attempt. Release builds only, like the ratio tests that use it.
    #[cfg(not(debug_assertions))]
    fn assert_timing_ratio(floor: f64, what: &str, mut probe: impl FnMut() -> f64) {
        let mut last = 0.0;
        for _attempt in 0..3 {
            last = probe();
            if last > floor {
                return;
            }
        }
        panic!("{what}: ratio {last:.2}x below the {floor}x floor on every attempt");
    }

    /// The packed kernel's throughput edge over the scalar kernel on the same
    /// workload and thread count. The committed baseline records ~7x in release
    /// mode; assert a loose 2x floor (best of three probes). Release builds only —
    /// debug codegen distorts the kernel ratio and the default CI test job runs
    /// debug, where a wall-clock assertion would be a flake vector (the
    /// deterministic committed-baseline check below covers CI).
    #[cfg(not(debug_assertions))]
    #[test]
    fn packed_kernel_outruns_the_scalar_kernel() {
        let (model, deployment) = mc_speedup_workload();
        let fm = CorrelationModel::from(&deployment);
        let samples = 20_000;
        let time_kernel = |kernel: McKernel| {
            super::time_one("kernel-probe", 40, || {
                monte_carlo_reliability_par_kernel(&model, &fm, samples, MC_SPEEDUP_SEED, kernel)
            })
            .mean_ns
        };
        assert_timing_ratio(2.0, "packed kernel vs scalar kernel", || {
            time_kernel(McKernel::Scalar) / time_kernel(McKernel::Packed)
        });
    }

    /// The scalar kernel across the pool vs. on one thread — the chunked
    /// scheduling must buy a real speedup once the pool has workers to steal with
    /// (≥ 2x floor at 4+ workers, best of three probes). On the 1- and 2-core
    /// runners a pool cannot double a single thread, so only the
    /// no-pathological-overhead floor (0.9) applies there; the committed
    /// `BENCH_analysis.json` row records the measured ratio either way. Release
    /// builds only, like the other wall-clock ratio tests.
    #[cfg(not(debug_assertions))]
    #[test]
    fn scalar_parallel_kernel_scales_with_the_pool() {
        let threads = rayon::current_num_threads();
        let floor = if threads >= 4 { 2.0 } else { 0.9 };
        let (model, deployment) = mc_speedup_workload();
        let fm = CorrelationModel::from(&deployment);
        let samples = 40_000;
        let scalar = || {
            monte_carlo_reliability_par_kernel(
                &model,
                &fm,
                samples,
                MC_SPEEDUP_SEED,
                McKernel::Scalar,
            )
        };
        let one_thread = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("pool");
        assert_timing_ratio(floor, "scalar kernel: parallel vs sequential", || {
            let seq = one_thread.install(|| super::time_one("scalar-seq-probe", 40, scalar));
            let par = super::time_one("scalar-par-probe", 40, scalar);
            seq.mean_ns / par.mean_ns
        });
    }

    /// The sweep contract: the planned batch must produce bit-identical outcomes
    /// to the naive per-cell loop (the amortization is free of behavioural drift),
    /// and every cell of this workload must actually land on the packed kernel —
    /// the subset the amortization is about.
    #[test]
    fn sweep_planned_batch_is_bit_identical_to_the_naive_loop() {
        let planned = sweep_planned_batch();
        let naive = sweep_naive_loop();
        assert_eq!(planned.cells().len(), naive.len());
        for (cell, expected) in planned.cells().iter().zip(&naive) {
            assert_eq!(&cell.outcome, expected, "{} diverged", cell.label);
            assert_eq!(cell.engine, EngineChoice::MonteCarlo);
            assert_eq!(cell.kernel(), Some(McKernel::Packed));
        }
    }

    /// Same contract for the mixed workload the work-stealing scheduler targets:
    /// exact counting cells and packed Monte Carlo cells in one plan must come
    /// out bit-identical to the cell-at-a-time front-door loop, and the grid must
    /// actually be mixed (both engines present) or the benchmark measures the
    /// wrong thing.
    #[test]
    fn mixed_sweep_batch_is_bit_identical_to_the_naive_loop() {
        let batch = sweep_mixed_batch();
        let naive = sweep_mixed_naive_loop();
        assert_eq!(batch.cells().len(), naive.len());
        for (cell, expected) in batch.cells().iter().zip(&naive) {
            assert_eq!(&cell.outcome, expected, "{} diverged", cell.label);
        }
        let engines: Vec<EngineChoice> = batch.cells().iter().map(|c| c.engine).collect();
        assert!(engines.contains(&EngineChoice::Counting));
        assert!(engines.contains(&EngineChoice::MonteCarlo));
    }

    /// The epistemic workload's floor: the posterior sweep must produce a real
    /// second-order report — [`EPISTEMIC_DRAWS`] resolved draws, an epistemic
    /// credible interval strictly wider than zero, and an aleatoric interval
    /// alongside it — and the whole thing must be deterministic (byte-identical
    /// JSON across fresh sessions).
    #[test]
    fn epistemic_sweep_reports_a_deterministic_interval() {
        let report = epistemic_sweep_batch();
        assert_eq!(report.cells().len(), 1);
        let cell = &report.cells()[0];
        let ep = cell
            .epistemic
            .as_ref()
            .expect("the posterior budget must surface an epistemic report");
        assert_eq!(ep.draws.len(), EPISTEMIC_DRAWS);
        assert!(
            ep.epistemic_width() > 0.0,
            "second-order mode must widen the answer: {ep:?}"
        );
        assert!(
            ep.aleatoric_width() > 0.0,
            "the Monte Carlo cell must keep its sampling interval: {ep:?}"
        );
        assert_eq!(epistemic_interval_width(), ep.epistemic_width());
        let again = epistemic_sweep_batch();
        assert_eq!(
            report.zero_wall_clock().to_json(),
            again.zero_wall_clock().to_json(),
            "the epistemic workload must be deterministic across sessions"
        );
    }

    /// The optimizer workload: the catalogue grid must expand to the documented
    /// candidate count, resolve exactly (no sampling tier on exact cells), and
    /// emit a non-empty deterministic frontier.
    #[test]
    fn optimizer_workload_is_deterministic_with_a_real_frontier() {
        let report = optimizer_batch();
        assert_eq!(report.evaluated.len(), OPTIMIZER_CANDIDATES);
        assert_eq!(report.screened, OPTIMIZER_CANDIDATES);
        assert_eq!(report.refined, 0, "exact candidates never need refinement");
        assert!(report.evaluated.iter().all(|r| r.exact));
        assert!(
            !report.frontier.is_empty(),
            "the catalogue grid must reach {OPTIMIZER_TARGET_NINES} nines"
        );
        assert_eq!(
            report.to_json(),
            optimizer_batch().to_json(),
            "the exact search must be bit-reproducible"
        );
    }

    /// The `optimize-durability` experiment holds the paper's claim: the search
    /// rediscovers cross-rack placement with an orders-of-magnitude durability
    /// gap over same-rack.
    #[test]
    fn optimize_durability_experiment_rediscovers_cross_rack() {
        let (_, report) = optimize_durability();
        let winner = report.cheapest().expect("cross-rack is feasible");
        assert_eq!(winner.placement, Some(Placement::CrossRack));
        let loser = report
            .evaluated
            .iter()
            .find(|r| r.placement == Some(Placement::SameRack))
            .expect("same-rack is still evaluated");
        assert!(!loser.feasible);
        assert!(loser.failure_probability() / winner.failure_probability() > 1e6);
    }

    /// The planned batch must amortize per-cell setup (selector pilot, scenario
    /// conversion, kernel compilation) into a real per-cell speedup. Release
    /// builds only, best of three probes, with a floor low enough that a loaded
    /// runner cannot flake.
    #[cfg(not(debug_assertions))]
    #[test]
    fn planned_sweep_amortizes_per_cell_setup() {
        assert_timing_ratio(1.1, "planned batch vs naive per-cell loop", || {
            let naive = super::time_one("sweep-probe-naive", 60, sweep_naive_loop).mean_ns;
            let planned = super::time_one("sweep-probe-planned", 60, sweep_planned_batch).mean_ns;
            naive / planned
        });
    }

    /// The service workload must actually stream: all three cells (counting,
    /// packed MC, importance-sampling quorum) arrive as `cell` events followed
    /// by exactly one `done`, with no `error` events — cold and warm alike.
    #[test]
    fn server_exchange_streams_every_cell() {
        let count = |output: &str, kind: &str| {
            output
                .lines()
                .filter(|l| l.contains(&format!("\"event\":\"{kind}\"")))
                .count()
        };
        let server = Arc::new(repro_server::Server::new());
        for pass in ["cold", "warm"] {
            let output = server_query_warm(&server);
            assert_eq!(count(&output, "cell"), 3, "{pass}: {output}");
            assert_eq!(count(&output, "done"), 1, "{pass}: {output}");
            assert_eq!(count(&output, "error"), 0, "{pass}: {output}");
        }
        assert!(
            server.session().cache_stats().hits > 0,
            "the warm pass must hit the session cache"
        );
    }

    /// The service headline: a long-lived server answering the mixed workload
    /// out of its warm session cache must beat a fresh-session-per-request
    /// server by ≥1.3x (the request is setup-dominated by construction).
    /// Release builds only, best of three probes, like the other wall-clock
    /// ratio tests.
    #[cfg(not(debug_assertions))]
    #[test]
    fn server_warm_cache_beats_cold() {
        assert_timing_ratio(1.3, "warm server vs fresh session per request", || {
            let cold = super::time_one("server-probe-cold", 60, server_query_cold).mean_ns;
            let server = Arc::new(repro_server::Server::new());
            server_query_warm(&server);
            let warm =
                super::time_one("server-probe-warm", 60, || server_query_warm(&server)).mean_ns;
            cold / warm
        });
    }

    /// The committed `BENCH_analysis.json`, parsed.
    fn committed_baseline() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
        let text = std::fs::read_to_string(path).expect("BENCH_analysis.json is committed");
        JsonValue::parse(&text).expect("BENCH_analysis.json is valid JSON")
    }

    /// A top-level number of the committed baseline.
    fn baseline_field(name: &str) -> f64 {
        committed_baseline()
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("baseline records {name}"))
    }

    /// The committed `BENCH_analysis.json` must report speedups that are actually
    /// speedups. This reads the checked-in baseline (deterministic — no timing in
    /// CI), so a regression can only land by committing a bad baseline.
    #[test]
    fn committed_baseline_reports_a_real_parallel_speedup() {
        // The kernel ratio is measured within one run on one machine, so unlike an
        // absolute samples-per-second floor it stays meaningful no matter what
        // hardware regenerates the baseline.
        let kernel_speedup = baseline_field("packed_kernel_speedup");
        assert!(
            kernel_speedup >= 2.0,
            "committed baseline's packed kernel only {kernel_speedup:.2}x the scalar kernel"
        );
        // Recorded, not floored: the pool's absolute throughput depends on the host.
        baseline_field("monte_carlo_samples_per_sec");
        // The multi-word packed kernel's absolute throughput at the production
        // width (W=8, 512 lanes/pass). The floor is 4x the single-word kernel's
        // original 1.67e8 samples/sec: regenerating the baseline on a machine
        // where the wide kernel cannot clear that bar is a regression.
        let packed_rate = baseline_field("packed_samples_per_sec");
        assert!(
            packed_rate >= 6.68e8,
            "committed baseline's W=8 packed kernel only {packed_rate:.3e} samples/sec (floor 6.68e8)"
        );
    }

    /// The committed baseline lists exactly the rows the suite times, in order:
    /// adding or removing a row without regenerating the file fails here.
    #[test]
    fn committed_baseline_rows_match_the_suite() {
        let baseline = committed_baseline();
        let ids: Vec<&str> = baseline
            .get("benchmarks")
            .and_then(JsonValue::as_array)
            .expect("baseline records a benchmarks array")
            .iter()
            .map(|row| {
                row.get("id")
                    .and_then(JsonValue::as_str)
                    .expect("every row has an id")
            })
            .collect();
        assert_eq!(ids, BENCHMARK_IDS);
    }

    #[test]
    fn every_experiment_id_is_unique() {
        let mut ids = EXPERIMENT_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENT_IDS.len());
    }
}
