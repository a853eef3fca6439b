//! Byzantine behaviours.
//!
//! §2(4) of the paper: most nodes crash, but from time to time a node "exhibits malicious
//! behavior" (mercurial cores, compromised TEEs). When the fault injector turns a node
//! Byzantine, the node adopts one of these strategies.

/// The strategy a Byzantine node follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineBehavior {
    /// Not Byzantine: follow the protocol.
    #[default]
    Honest,
    /// Stop responding entirely (indistinguishable from a crash to the others).
    Silent,
    /// Actively try to break agreement: as a leader/primary, propose conflicting values
    /// to different replicas; as a follower, vote for conflicting proposals.
    Equivocate,
}

impl std::fmt::Display for ByzantineBehavior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ByzantineBehavior::Honest => write!(f, "honest"),
            ByzantineBehavior::Silent => write!(f, "silent"),
            ByzantineBehavior::Equivocate => write!(f, "equivocate"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(ByzantineBehavior::default(), ByzantineBehavior::Honest);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", ByzantineBehavior::Equivocate), "equivocate");
    }
}
