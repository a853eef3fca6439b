//! Failure configurations.
//!
//! §3: "there are 2^N possible combinations of machine failures (failure
//! configurations)... By calculating how likely each failure configuration is, we can
//! compute the overall probability that an algorithm guarantees safety and liveness."
//! With both crash and Byzantine faults in play the space is 3^N; a [`FailureConfig`]
//! is one point of that space.

use fault_model::mode::NodeState;

/// One joint assignment of a state (correct / crashed / Byzantine) to every node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FailureConfig {
    states: Vec<NodeState>,
}

impl FailureConfig {
    /// Creates a configuration from explicit per-node states.
    pub fn new(states: Vec<NodeState>) -> Self {
        assert!(!states.is_empty(), "configuration needs at least one node");
        Self { states }
    }

    /// The all-correct configuration over `n` nodes.
    pub fn all_correct(n: usize) -> Self {
        Self::new(vec![NodeState::Correct; n])
    }

    /// A configuration where exactly the nodes in `crashed` crashed.
    pub fn with_crashed(n: usize, crashed: &[usize]) -> Self {
        let mut states = vec![NodeState::Correct; n];
        for &i in crashed {
            states[i] = NodeState::Crashed;
        }
        Self::new(states)
    }

    /// A configuration where exactly the nodes in `byzantine` are Byzantine.
    pub fn with_byzantine(n: usize, byzantine: &[usize]) -> Self {
        let mut states = vec![NodeState::Correct; n];
        for &i in byzantine {
            states[i] = NodeState::Byzantine;
        }
        Self::new(states)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the configuration covers no nodes (never true).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Per-node states.
    pub fn states(&self) -> &[NodeState] {
        &self.states
    }

    /// Mutable per-node states, for samplers that reuse one configuration as a
    /// scratch buffer instead of allocating per draw (the node count is fixed; only
    /// the states can be rewritten).
    pub fn states_mut(&mut self) -> &mut [NodeState] {
        &mut self.states
    }

    /// State of one node.
    pub fn state(&self, node: usize) -> NodeState {
        self.states[node]
    }

    /// Number of crashed nodes.
    pub fn num_crashed(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == NodeState::Crashed)
            .count()
    }

    /// Number of Byzantine nodes.
    pub fn num_byzantine(&self) -> usize {
        self.states
            .iter()
            .filter(|&&s| s == NodeState::Byzantine)
            .count()
    }
}

impl std::fmt::Display for FailureConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.states {
            let c = match s {
                NodeState::Correct => 'C',
                NodeState::Crashed => 'X',
                NodeState::Byzantine => 'B',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_helpers() {
        let c = FailureConfig::new(vec![
            NodeState::Correct,
            NodeState::Crashed,
            NodeState::Byzantine,
            NodeState::Correct,
        ]);
        assert_eq!(c.num_crashed(), 1);
        assert_eq!(c.num_byzantine(), 1);
        assert_eq!(format!("{c}"), "CXBC");
    }

    #[test]
    fn constructors() {
        let crashed = FailureConfig::with_crashed(5, &[1, 3]);
        assert_eq!(crashed.num_crashed(), 2);
        let byz = FailureConfig::with_byzantine(5, &[0]);
        assert_eq!(byz.num_byzantine(), 1);
        let healthy = FailureConfig::all_correct(4);
        assert_eq!(healthy.num_crashed() + healthy.num_byzantine(), 0);
    }
}
