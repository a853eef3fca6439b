//! Protocol reliability models.
//!
//! A protocol reliability model answers, for one failure configuration, the two questions
//! the paper's analysis needs (§3): "We deem a configuration *safe* if all of its system
//! runs ensure agreement across non-failed nodes. We consider a configuration *live* if
//! in all runs, all non-failed nodes eventually commit all operations."

use consensus_protocols::harness::TrialProtocol;

use crate::failure::FailureConfig;

/// The safety/liveness predicate of a consensus protocol over failure configurations.
///
/// Models are required to be `Sync` so the analysis engines can evaluate their
/// predicates from worker threads (see [`crate::montecarlo`]); they are plain
/// reliability predicates, so this is not a real restriction.
pub trait ProtocolModel: Sync {
    /// Short human-readable name ("Raft", "PBFT", ...).
    fn name(&self) -> String;

    /// Number of nodes in the protocol configuration.
    fn num_nodes(&self) -> usize;

    /// Whether every run under `config` preserves agreement among non-failed nodes.
    fn is_safe(&self, config: &FailureConfig) -> bool;

    /// Whether every run under `config` eventually commits all operations at non-failed
    /// nodes.
    fn is_live(&self, config: &FailureConfig) -> bool;

    /// Whether the configuration is both safe and live.
    fn is_safe_and_live(&self, config: &FailureConfig) -> bool {
        self.is_safe(config) && self.is_live(config)
    }

    /// The counting-model view of this model, if its predicates depend only on fault
    /// *counts* (see [`CountingModel`]).
    ///
    /// The engine auto-selector ([`crate::analyzer::analyze_auto`]) uses this to route
    /// counting models to the exact O(N³) engine; implementors of [`CountingModel`]
    /// should override it to return `Some(self)`.
    fn as_counting(&self) -> Option<&dyn CountingModel> {
        None
    }

    /// The executable counterpart of this model, if an implementation of the
    /// protocol exists on the discrete-event simulator: the `consensus-protocols`
    /// configuration of a [`num_nodes`](Self::num_nodes)-node cluster at this
    /// model's quorums.
    ///
    /// The time-domain simulation engine
    /// ([`EngineChoice::Simulation`](crate::engine::EngineChoice::Simulation)) uses
    /// this to decide whether a model's predictions can be validated empirically,
    /// and runs one independent cluster per trial from it:
    /// [`crate::raft_model`] and [`crate::pbft_model`] override it; abstract models
    /// (placement-sensitive durability, custom quorum policies) keep the `None`
    /// default and stay analytic-only.
    fn executable(&self) -> Option<TrialProtocol> {
        None
    }

    /// A stable *content fingerprint* identifying this model for cross-request
    /// scratch caching (see [`crate::cache`]).
    ///
    /// Two models may return the same fingerprint **only if** their safety and
    /// liveness predicates are identical on every failure configuration — the
    /// session cache will hand both the same compiled kernels and learned
    /// proposals. To make collisions structurally impossible, implementations
    /// encode their full defining content (type tag plus every parameter), not a
    /// hash of it; the cache compares fingerprints in full.
    ///
    /// `None` (the default) means the model has no stable identity, and every
    /// plan that uses it gets private, plan-local scratch — always correct, just
    /// not amortized across requests. [`crate::raft_model::RaftModel`],
    /// [`crate::pbft_model::PbftModel`] and
    /// [`crate::durability::PersistenceQuorumModel`] opt in.
    fn cache_signature(&self) -> Option<Vec<u64>> {
        None
    }
}

/// Type tags namespacing [`ProtocolModel::cache_signature`] fingerprints, so two
/// different model types can never encode the same words. New implementations
/// must take a fresh tag.
pub mod signature_tags {
    /// [`crate::raft_model::RaftModel`].
    pub const RAFT: u64 = 1;
    /// [`crate::pbft_model::PbftModel`].
    pub const PBFT: u64 = 2;
    /// [`crate::durability::PersistenceQuorumModel`].
    pub const PERSISTENCE_QUORUM: u64 = 3;
}

/// A protocol model whose predicates depend only on *how many* nodes crashed and how many
/// are Byzantine — not on *which* nodes they are.
///
/// Both Theorem 3.1 (PBFT) and Theorem 3.2 (Raft) have this form, which makes an exact
/// O(N³) dynamic-programming analysis possible even for heterogeneous per-node
/// probabilities (see [`crate::counting`]). Models that place requirements on specific
/// nodes (e.g. "quorums must contain a reliable node") are not counting models.
pub trait CountingModel: ProtocolModel {
    /// Safety predicate over fault counts.
    fn is_safe_counts(&self, crashed: usize, byzantine: usize) -> bool;

    /// Liveness predicate over fault counts.
    fn is_live_counts(&self, crashed: usize, byzantine: usize) -> bool;

    /// Combined predicate over fault counts.
    fn is_safe_and_live_counts(&self, crashed: usize, byzantine: usize) -> bool {
        self.is_safe_counts(crashed, byzantine) && self.is_live_counts(crashed, byzantine)
    }
}

/// Blanket check used by tests and debug assertions: a counting model must agree with its
/// configuration-level predicates on every configuration handed to it.
pub fn counting_model_is_consistent<M: CountingModel>(model: &M, config: &FailureConfig) -> bool {
    let crashed = config.num_crashed();
    let byz = config.num_byzantine();
    model.is_safe(config) == model.is_safe_counts(crashed, byz)
        && model.is_live(config) == model.is_live_counts(crashed, byz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbft_model::PbftModel;
    use crate::raft_model::RaftModel;
    use fault_model::mode::NodeState;
    use proptest::prelude::*;

    fn arbitrary_config(n: usize) -> impl Strategy<Value = FailureConfig> {
        proptest::collection::vec(0u8..3, n).prop_map(|v| {
            FailureConfig::new(
                v.into_iter()
                    .map(|x| match x {
                        0 => NodeState::Correct,
                        1 => NodeState::Crashed,
                        _ => NodeState::Byzantine,
                    })
                    .collect(),
            )
        })
    }

    proptest! {
        #[test]
        fn raft_counting_model_is_consistent(config in arbitrary_config(7)) {
            let model = RaftModel::standard(7);
            prop_assert!(counting_model_is_consistent(&model, &config));
        }

        #[test]
        fn pbft_counting_model_is_consistent(config in arbitrary_config(7)) {
            let model = PbftModel::standard(7);
            prop_assert!(counting_model_is_consistent(&model, &config));
        }
    }
}
