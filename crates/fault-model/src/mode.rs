//! Failure modes and per-node fault profiles.
//!
//! §2(4) of the paper observes that "most nodes fail by crashing but from time to time
//! exhibit malicious behavior": e.g. a 4% annual crash rate alongside a 0.01% rate of
//! Byzantine "mercurial core" corruption. A [`FaultProfile`] captures both probabilities
//! for one analysis window, and is the unit the reliability analyzer consumes.

/// How a node deviates from correct behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// The node stops taking steps (fail-stop).
    Crash,
    /// The node deviates arbitrarily from the protocol.
    Byzantine,
}

impl FailureMode {
    /// All failure modes, in severity order.
    pub const ALL: [FailureMode; 2] = [FailureMode::Crash, FailureMode::Byzantine];
}

impl std::fmt::Display for FailureMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureMode::Crash => write!(f, "crash"),
            FailureMode::Byzantine => write!(f, "byzantine"),
        }
    }
}

/// The state of one node in a failure configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// The node follows the protocol.
    Correct,
    /// The node has crashed.
    Crashed,
    /// The node behaves arbitrarily.
    Byzantine,
}

impl NodeState {
    /// Whether the node is correct (neither crashed nor Byzantine).
    pub fn is_correct(&self) -> bool {
        matches!(self, NodeState::Correct)
    }

    /// Whether the node is faulty in any way.
    pub fn is_faulty(&self) -> bool {
        !self.is_correct()
    }
}

/// Per-node failure probabilities for one analysis window.
///
/// The two probabilities describe *disjoint* outcomes: with probability `crash` the node
/// crashes, with probability `byzantine` it turns Byzantine, and with the remaining
/// probability it stays correct. Their sum must therefore not exceed 1.
///
/// # Examples
///
/// ```
/// use fault_model::mode::FaultProfile;
///
/// // The paper's "mercurial core" example: 4% AFR crashes, 0.01% Byzantine corruption.
/// let p = FaultProfile::new(0.04, 0.0001);
/// assert!((p.correct_probability() - 0.9599).abs() < 1e-12);
/// assert!((p.fault_probability() - 0.0401).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    crash: f64,
    byzantine: f64,
}

impl FaultProfile {
    /// Creates a profile from a crash probability and a Byzantine probability.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]` or their sum exceeds 1.
    pub fn new(crash: f64, byzantine: f64) -> Self {
        Self::try_new(crash, byzantine).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FaultProfile::new`] for untrusted input: the reason instead of a panic.
    pub fn try_new(crash: f64, byzantine: f64) -> Result<Self, String> {
        if !(0.0..=1.0).contains(&crash) {
            return Err(format!("crash probability out of range: {crash}"));
        }
        if !(0.0..=1.0).contains(&byzantine) {
            return Err(format!("byzantine probability out of range: {byzantine}"));
        }
        if crash + byzantine > 1.0 + 1e-12 {
            return Err(format!(
                "crash + byzantine must not exceed 1 (got {})",
                crash + byzantine
            ));
        }
        Ok(Self { crash, byzantine })
    }

    /// A node that only ever crashes (the CFT analysis setting of §3).
    pub fn crash_only(p: f64) -> Self {
        Self::new(p, 0.0)
    }

    /// A node whose only failure mode is Byzantine (the BFT analysis setting of §3).
    pub fn byzantine_only(p: f64) -> Self {
        Self::new(0.0, p)
    }

    /// A perfectly reliable node.
    pub fn reliable() -> Self {
        Self::new(0.0, 0.0)
    }

    /// Probability of crashing within the window.
    pub fn crash_probability(&self) -> f64 {
        self.crash
    }

    /// Probability of turning Byzantine within the window.
    pub fn byzantine_probability(&self) -> f64 {
        self.byzantine
    }

    /// Probability of any fault (crash or Byzantine).
    pub fn fault_probability(&self) -> f64 {
        self.crash + self.byzantine
    }

    /// Probability of remaining correct.
    pub fn correct_probability(&self) -> f64 {
        1.0 - self.fault_probability()
    }

    /// Probability of the given node state.
    pub fn probability_of(&self, state: NodeState) -> f64 {
        match state {
            NodeState::Correct => self.correct_probability(),
            NodeState::Crashed => self.crash,
            NodeState::Byzantine => self.byzantine,
        }
    }

    /// Scales both probabilities by `factor`, clamping the sum at 1. Useful for
    /// sensitivity sweeps ("what if everything is twice as flaky?").
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        let crash = (self.crash * factor).min(1.0);
        let byz = (self.byzantine * factor).min(1.0 - crash);
        Self::new(crash, byz)
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::reliable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crash_only_profile() {
        let p = FaultProfile::crash_only(0.08);
        assert_eq!(p.crash_probability(), 0.08);
        assert_eq!(p.byzantine_probability(), 0.0);
        assert!((p.correct_probability() - 0.92).abs() < 1e-12);
    }

    #[test]
    fn byzantine_only_profile() {
        let p = FaultProfile::byzantine_only(0.01);
        assert_eq!(p.byzantine_probability(), 0.01);
        assert_eq!(p.probability_of(NodeState::Byzantine), 0.01);
        assert_eq!(p.probability_of(NodeState::Crashed), 0.0);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let p = FaultProfile::new(0.04, 0.0001);
        let total: f64 = [NodeState::Correct, NodeState::Crashed, NodeState::Byzantine]
            .iter()
            .map(|&s| p.probability_of(s))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn rejects_overfull_profile() {
        FaultProfile::new(0.7, 0.5);
    }

    #[test]
    fn node_state_predicates() {
        assert!(NodeState::Correct.is_correct());
        assert!(NodeState::Crashed.is_faulty());
        assert!(NodeState::Byzantine.is_faulty());
    }

    #[test]
    fn scaling_clamps_at_one() {
        let p = FaultProfile::new(0.4, 0.1).scaled(3.0);
        assert!(p.fault_probability() <= 1.0 + 1e-12);
    }

    proptest! {
        #[test]
        fn profile_probabilities_always_valid(crash in 0.0..0.6f64, byz in 0.0..0.4f64) {
            let p = FaultProfile::new(crash, byz);
            prop_assert!(p.correct_probability() >= -1e-12);
            prop_assert!(p.fault_probability() <= 1.0 + 1e-12);
            let total = p.correct_probability() + p.crash_probability() + p.byzantine_probability();
            prop_assert!((total - 1.0).abs() < 1e-9);
        }

        #[test]
        fn scaling_by_small_factor_reduces_fault_probability(
            crash in 0.0..0.5f64, byz in 0.0..0.3f64, factor in 0.0..1.0f64
        ) {
            let p = FaultProfile::new(crash, byz);
            prop_assert!(p.scaled(factor).fault_probability() <= p.fault_probability() + 1e-12);
        }
    }
}
