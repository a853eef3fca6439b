//! Integration tests for the sweep-native query API: plan shapes, budget
//! validation, and the JSON serialization contract (round-trip precision,
//! `NaN`/`inf` → `null`).

use std::sync::Arc;

use prob_consensus::analyzer::AnalysisError;
use prob_consensus::deployment::Deployment;
use prob_consensus::durability::PersistenceQuorumModel;
use prob_consensus::engine::{Budget, EngineChoice, EpistemicBudget, InvalidBudget};
use prob_consensus::json::JsonValue;
use prob_consensus::protocol::ProtocolModel;
use prob_consensus::query::{
    logspace, AnalysisSession, CorrelationSpec, Metrics, ProtocolSpec, Query,
};

/// A sweep mixing exact, packed Monte Carlo and importance-sampling cells, small
/// enough for CI: the JSON tests below inspect all three shapes.
fn mixed_report() -> prob_consensus::query::AnalysisReport {
    let rare: Arc<dyn ProtocolModel + Send + Sync> =
        Arc::new(PersistenceQuorumModel::new(24, (0..4).collect()));
    AnalysisSession::new()
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([5usize])
                .fault_probs([0.02])
                .correlations([
                    CorrelationSpec::Independent,
                    CorrelationSpec::ClusterShock { probability: 0.02 },
                ])
                .budget(Budget::default().with_samples(8_000).with_seed(11))
                .cell("rare", rare, Deployment::uniform_crash(24, 0.05)),
        )
        .expect("well-formed query")
}

#[test]
fn report_json_round_trips_probabilities_bit_exactly() {
    let report = mixed_report();
    let parsed = JsonValue::parse(&report.to_json()).expect("report emits valid JSON");
    let cells = parsed.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), report.cells().len());
    for (cell_json, cell) in cells.iter().zip(report.cells()) {
        assert_eq!(
            cell_json.get("label").and_then(JsonValue::as_str),
            Some(cell.label.as_str())
        );
        assert_eq!(
            cell_json.get("engine").and_then(JsonValue::as_str),
            Some(cell.engine.to_string().as_str())
        );
        // Every probability survives the text round trip bit-for-bit (shortest
        // f64 representation — the serializer's contract).
        for (key, truth) in [
            ("safe", cell.outcome.report.safe.probability()),
            ("live", cell.outcome.report.live.probability()),
            (
                "safe_and_live",
                cell.outcome.report.safe_and_live.probability(),
            ),
        ] {
            let value = cell_json
                .get(key)
                .unwrap()
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("metric value present");
            assert_eq!(
                value.to_bits(),
                truth.to_bits(),
                "{}/{key} drifted through JSON",
                cell.label
            );
        }
        // Interval bounds: null exactly for the exact engines, numbers otherwise.
        let lower = cell_json
            .get("safe_and_live")
            .unwrap()
            .get("lower")
            .unwrap();
        assert_eq!(lower.is_null(), cell.outcome.is_exact(), "{}", cell.label);
        // ESS: a number exactly for importance-sampling cells.
        let ess = cell_json.get("ess").unwrap();
        assert_eq!(
            ess.as_f64().is_some(),
            cell.engine == EngineChoice::ImportanceSampling,
            "{}",
            cell.label
        );
    }
}

#[test]
fn non_finite_values_serialize_as_null() {
    // The serialization policy, end to end: JSON has no NaN/Infinity literal, so
    // the writer emits null and the parser never sees a malformed token.
    for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let doc = JsonValue::Object(vec![("x".into(), JsonValue::number(v))]);
        let rendered = doc.to_string();
        assert!(rendered.contains("null"), "{v} must render as null");
        let parsed = JsonValue::parse(&rendered).expect("valid JSON");
        assert!(parsed.get("x").unwrap().is_null());
    }
    // Finite values stay numbers, including subnormals and negative zero.
    for v in [0.0, -0.0, f64::MIN_POSITIVE / 2.0, 1e308] {
        let back = JsonValue::parse(&JsonValue::number(v).to_string())
            .unwrap()
            .as_f64()
            .unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }
}

#[test]
fn plan_selects_engines_up_front_without_executing() {
    let session = AnalysisSession::new();
    let plan = session
        .plan(
            &Query::new()
                .protocols([ProtocolSpec::Raft, ProtocolSpec::Pbft])
                .nodes([5usize])
                .fault_probs(logspace(1e-3, 1e-1, 3)),
        )
        .expect("well-formed query");
    assert_eq!(plan.len(), 6);
    assert!(!plan.is_empty());
    assert!(plan.engines().iter().all(|&e| e == EngineChoice::Counting));
}

#[test]
fn budget_builders_produce_plannable_budgets() {
    // Interior builder values pass the plan-time validator.
    for budget in [
        Budget::default(),
        Budget::default().with_rare_event_threshold(0.5),
        Budget::default().with_samples(0),
        Budget::default().with_posterior(8, 2.0, 50.0),
    ] {
        assert_eq!(budget.validate(), Ok(()), "{budget:?}");
    }
    // The builder's closed boundaries are engine-layer conveniences (threshold 0
    // disables the rare-event engine, 1 always prefers it) that the stricter
    // plan-time validator deliberately rejects — the divergence is documented on
    // the builder.
    assert!(Budget::default()
        .with_rare_event_threshold(0.0)
        .validate()
        .is_err());
    assert!(Budget::default()
        .with_rare_event_threshold(1.0)
        .validate()
        .is_err());
}

proptest::proptest! {
    /// Property: `validate` accepts exactly the documented region — a threshold
    /// strictly inside (0, 1), a credible level strictly inside (0, 1) — over a
    /// wide sampled space of knob values.
    #[test]
    fn budget_validator_accepts_exactly_the_documented_region(
        threshold in -0.5f64..1.5,
        level in -0.5f64..1.5,
    ) {
        let budget = Budget {
            rare_event_threshold: threshold,
            epistemic: Some(EpistemicBudget::new(8, 2.0, 50.0).with_level(level)),
            ..Budget::default()
        };
        let expected_ok = threshold > 0.0 && threshold < 1.0 && level > 0.0 && level < 1.0;
        proptest::prop_assert_eq!(budget.validate().is_ok(), expected_ok);
        // The error always names the offending knob and value.
        if let Err(invalid) = budget.validate() {
            let message = invalid.to_string();
            proptest::prop_assert!(
                message.contains("rare_event_threshold") || message.contains("epistemic.level")
            );
        }
    }

    /// Property: non-finite knob values are always rejected, whichever knob.
    #[test]
    fn budget_validator_rejects_non_finite_knobs(which in 0usize..3, sign in 0usize..2) {
        let bad = if sign == 0 { f64::NAN } else { f64::INFINITY };
        let mut budget = Budget::default();
        let mut epistemic = EpistemicBudget::new(8, 2.0, 50.0);
        match which {
            0 => budget.rare_event_threshold = bad,
            1 => epistemic.alpha = bad,
            _ => epistemic.level = bad,
        }
        budget.epistemic = Some(epistemic);
        let err = budget.validate().expect_err("non-finite knobs are invalid");
        let expected = match which {
            0 => matches!(err, InvalidBudget::RareEventThreshold(_)),
            1 => matches!(err, InvalidBudget::EpistemicHyperparameters { .. }),
            _ => matches!(err, InvalidBudget::EpistemicLevel(_)),
        };
        proptest::prop_assert!(expected, "wrong variant: {err:?}");
    }
}

#[test]
fn invalid_budget_surfaces_through_the_session_front_door() {
    let session = AnalysisSession::new();
    let budget = Budget {
        rare_event_threshold: -3.0,
        ..Budget::default()
    };
    let err = session
        .plan(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([3usize])
                .fault_probs([0.01])
                .budget(budget),
        )
        .expect_err("negative threshold must not plan");
    assert!(matches!(
        err,
        AnalysisError::InvalidBudget(InvalidBudget::RareEventThreshold(t)) if t == -3.0
    ));
    assert!(err.to_string().contains("rare_event_threshold"));
}

#[test]
fn metrics_selection_prunes_json_members() {
    let report = AnalysisSession::new()
        .run(
            &Query::new()
                .protocols([ProtocolSpec::Raft])
                .nodes([3usize])
                .fault_probs([0.01])
                .metrics(Metrics {
                    safe: true,
                    live: false,
                    safe_and_live: false,
                }),
        )
        .expect("well-formed query");
    let parsed = JsonValue::parse(&report.to_json()).unwrap();
    let cell = &parsed.get("cells").unwrap().as_array().unwrap()[0];
    assert!(cell.get("safe").is_some());
    assert!(cell.get("live").is_none());
    assert!(cell.get("safe_and_live").is_none());
}
