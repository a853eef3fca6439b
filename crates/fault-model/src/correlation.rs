//! Correlated-failure models.
//!
//! §2(3): "faults often are correlated or planned" — software rollouts, shared racks,
//! shared TEE vulnerabilities. The analysis in §3 assumes independence; this module
//! provides the machinery to relax that assumption: correlation groups with a
//! common-cause ("beta factor") shock, and a sampler producing joint failure
//! configurations for Monte Carlo analysis.

use rand::Rng;

use crate::mode::{FaultProfile, NodeState};

/// A group of nodes that share a common failure cause (same rack, same rollout wave,
/// same TEE platform, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationGroup {
    /// Indices (into the deployment's node list) of the members of this group.
    pub members: Vec<usize>,
    /// Probability that the common cause fires within the analysis window, failing every
    /// member of the group simultaneously.
    pub shock_probability: f64,
    /// Failure mode of a common-cause shock.
    pub shock_mode: NodeState,
}

impl CorrelationGroup {
    /// Creates a correlation group that crashes all `members` together with probability
    /// `shock_probability`.
    pub fn crash_shock(members: Vec<usize>, shock_probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&shock_probability));
        Self {
            members,
            shock_probability,
            shock_mode: NodeState::Crashed,
        }
    }

    /// Creates a correlation group whose shock turns all members Byzantine (e.g. a shared
    /// SGX/SEV vulnerability being exploited).
    pub fn byzantine_shock(members: Vec<usize>, shock_probability: f64) -> Self {
        assert!((0.0..=1.0).contains(&shock_probability));
        Self {
            members,
            shock_probability,
            shock_mode: NodeState::Byzantine,
        }
    }
}

/// A joint failure model: independent per-node fault profiles plus common-cause
/// correlation groups layered on top (a Marshall–Olkin style construction).
#[derive(Debug, Clone, Default)]
pub struct CorrelationModel {
    profiles: Vec<FaultProfile>,
    groups: Vec<CorrelationGroup>,
    /// Per-group membership bitsets (`membership[g][i / 64] >> (i % 64) & 1`), built
    /// once in [`CorrelationModel::with_group`] so per-node membership tests are O(1)
    /// word ops instead of `Vec::contains` scans in the analysis inner loops.
    membership: Vec<Box<[u64]>>,
}

impl CorrelationModel {
    /// Creates a model with the given independent per-node profiles and no correlation.
    pub fn independent(profiles: Vec<FaultProfile>) -> Self {
        Self {
            profiles,
            groups: Vec::new(),
            membership: Vec::new(),
        }
    }

    /// `n` independent nodes sharing one profile and no correlation: §3's "every
    /// machine u has a constant probability p_u of failing" (crash-only for Table 2,
    /// Byzantine-only for Table 1, both for the mercurial cores of §2(4)).
    pub fn uniform(n: usize, profile: FaultProfile) -> Self {
        Self::independent(vec![profile; n])
    }

    /// Adds a correlation group. Member indices must be valid for the profile list.
    pub fn with_group(mut self, group: CorrelationGroup) -> Self {
        assert!(
            group.members.iter().all(|&m| m < self.profiles.len()),
            "group member index out of range"
        );
        let mut bits = vec![0u64; self.profiles.len().div_ceil(64)].into_boxed_slice();
        for &m in &group.members {
            bits[m / 64] |= 1u64 << (m % 64);
        }
        self.membership.push(bits);
        self.groups.push(group);
        self
    }

    /// The membership bitset of group `g` (little-endian words over node indices).
    /// Internal: the bitsets back [`CorrelationModel::marginal_fault_probabilities`]
    /// and the tests; samplers iterate the member lists directly.
    #[cfg(test)]
    fn group_member_bits(&self, g: usize) -> &[u64] {
        &self.membership[g]
    }

    /// Number of nodes in the model.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether the model contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The independent per-node profiles.
    pub fn profiles(&self) -> &[FaultProfile] {
        &self.profiles
    }

    /// The configured correlation groups.
    pub fn groups(&self) -> &[CorrelationGroup] {
        &self.groups
    }

    /// Whether any correlation group is configured.
    pub fn is_correlated(&self) -> bool {
        !self.groups.is_empty()
    }

    /// The *effective* marginal fault probability of each node, including the chance of
    /// being taken out by any of its correlation groups.
    pub fn marginal_fault_probabilities(&self) -> Vec<f64> {
        (0..self.profiles.len())
            .map(|i| {
                let mut survive = self.profiles[i].correct_probability();
                for (g, bits) in self.groups.iter().zip(&self.membership) {
                    if bits[i / 64] >> (i % 64) & 1 == 1 {
                        survive *= 1.0 - g.shock_probability;
                    }
                }
                1.0 - survive
            })
            .collect()
    }

    /// Samples one joint failure configuration into a caller-provided buffer,
    /// allocation-free. This is the Monte Carlo hot path: the scalar sampling engine
    /// reuses one scratch buffer per work chunk (see `prob-consensus`'s
    /// `montecarlo` module).
    ///
    /// Each node first draws its independent outcome from its profile; each correlation
    /// group then fires independently with its shock probability and overrides its
    /// members' states (Byzantine shocks dominate crash outcomes).
    pub fn sample_into<R: Rng + ?Sized>(&self, states: &mut [NodeState], rng: &mut R) {
        assert_eq!(
            states.len(),
            self.profiles.len(),
            "scratch buffer and model disagree on the cluster size"
        );
        for (slot, p) in states.iter_mut().zip(&self.profiles) {
            let u: f64 = rng.gen();
            *slot = if u < p.byzantine_probability() {
                NodeState::Byzantine
            } else if u < p.fault_probability() {
                NodeState::Crashed
            } else {
                NodeState::Correct
            };
        }
        for g in &self.groups {
            if rng.gen::<f64>() < g.shock_probability {
                for &m in &g.members {
                    states[m] = match (states[m], g.shock_mode) {
                        // A Byzantine outcome is never downgraded to a crash.
                        (NodeState::Byzantine, _) => NodeState::Byzantine,
                        (_, mode) => mode,
                    };
                }
            }
        }
    }

    /// Samples one joint failure configuration (allocating; see
    /// [`CorrelationModel::sample_into`] for the reusable-buffer form).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<NodeState> {
        let mut states = vec![NodeState::Correct; self.profiles.len()];
        self.sample_into(&mut states, rng);
        states
    }

    /// Estimates, by sampling, the probability that at least `k` nodes are faulty
    /// simultaneously. Used to quantify how much correlation inflates tail risk relative
    /// to the independent model.
    pub fn estimate_tail_probability<R: Rng + ?Sized>(
        &self,
        k: usize,
        samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(samples > 0);
        let mut scratch = vec![NodeState::Correct; self.profiles.len()];
        let mut hits = 0usize;
        for _ in 0..samples {
            self.sample_into(&mut scratch, rng);
            if scratch.iter().filter(|s| s.is_faulty()).count() >= k {
                hits += 1;
            }
        }
        hits as f64 / samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform(n: usize, p: f64) -> Vec<FaultProfile> {
        vec![FaultProfile::crash_only(p); n]
    }

    #[test]
    fn uniform_crash_model() {
        let model = CorrelationModel::uniform(5, FaultProfile::crash_only(0.02));
        assert_eq!(model.len(), 5);
        assert_eq!(model.profiles(), &[FaultProfile::crash_only(0.02); 5]);
        assert!(!model.is_correlated());
    }

    #[test]
    fn uniform_byzantine_model() {
        let model = CorrelationModel::uniform(4, FaultProfile::byzantine_only(0.01));
        assert!(model
            .profiles()
            .iter()
            .all(|p| p.crash_probability() == 0.0));
        assert_eq!(model.profiles()[3].byzantine_probability(), 0.01);
        assert!(!model.is_correlated());
    }

    #[test]
    fn mixed_uniform_model_has_both_modes() {
        let model = CorrelationModel::uniform(3, FaultProfile::new(0.04, 0.0001));
        assert_eq!(model.profiles(), &[FaultProfile::new(0.04, 0.0001); 3]);
        assert!(!model.is_correlated());
    }

    #[test]
    fn independent_model_marginals_match_profiles() {
        let model = CorrelationModel::independent(uniform(4, 0.05));
        for p in model.marginal_fault_probabilities() {
            assert!((p - 0.05).abs() < 1e-12);
        }
        assert!(!model.is_correlated());
    }

    #[test]
    fn shock_raises_marginal_probability_of_members_only() {
        let model = CorrelationModel::independent(uniform(4, 0.01))
            .with_group(CorrelationGroup::crash_shock(vec![0, 1], 0.1));
        let marginals = model.marginal_fault_probabilities();
        let expected_member = 1.0 - 0.99 * 0.9;
        assert!((marginals[0] - expected_member).abs() < 1e-12);
        assert!((marginals[1] - expected_member).abs() < 1e-12);
        assert!((marginals[2] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn sampling_reflects_shock_probability() {
        let model = CorrelationModel::independent(uniform(3, 0.0))
            .with_group(CorrelationGroup::crash_shock(vec![0, 1, 2], 0.5));
        let mut rng = StdRng::seed_from_u64(1);
        let p_all_down = model.estimate_tail_probability(3, 20_000, &mut rng);
        assert!((p_all_down - 0.5).abs() < 0.02, "got {p_all_down}");
    }

    #[test]
    fn byzantine_shock_overrides_crash_but_not_vice_versa() {
        let profiles = vec![
            FaultProfile::crash_only(1.0),
            FaultProfile::byzantine_only(1.0),
        ];
        let model = CorrelationModel::independent(profiles)
            .with_group(CorrelationGroup::byzantine_shock(vec![0], 1.0))
            .with_group(CorrelationGroup::crash_shock(vec![1], 1.0));
        let mut rng = StdRng::seed_from_u64(2);
        let states = model.sample(&mut rng);
        assert_eq!(states[0], NodeState::Byzantine);
        assert_eq!(
            states[1],
            NodeState::Byzantine,
            "byzantine is never downgraded"
        );
    }

    #[test]
    fn correlation_inflates_tail_risk_versus_independent() {
        let independent = CorrelationModel::independent(uniform(6, 0.05));
        let correlated = CorrelationModel::independent(uniform(6, 0.05))
            .with_group(CorrelationGroup::crash_shock((0..6).collect(), 0.02));
        let mut rng = StdRng::seed_from_u64(3);
        let p_ind = independent.estimate_tail_probability(4, 50_000, &mut rng);
        let p_cor = correlated.estimate_tail_probability(4, 50_000, &mut rng);
        assert!(
            p_cor > p_ind * 5.0,
            "independent {p_ind} vs correlated {p_cor}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_members() {
        CorrelationModel::independent(uniform(2, 0.01))
            .with_group(CorrelationGroup::crash_shock(vec![5], 0.1));
    }

    #[test]
    fn membership_bitsets_match_the_member_lists() {
        // 70 nodes straddles a bitset word boundary.
        let model = CorrelationModel::independent(uniform(70, 0.01))
            .with_group(CorrelationGroup::crash_shock(vec![0, 63, 64, 69], 0.1))
            .with_group(CorrelationGroup::byzantine_shock(vec![1, 2, 65], 0.05));
        for (g, group) in model.groups().iter().enumerate() {
            let bits = model.group_member_bits(g);
            for i in 0..model.len() {
                let in_bits = bits[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(
                    in_bits,
                    group.members.contains(&i),
                    "group {g} node {i}: bitset disagrees with the member list"
                );
            }
        }
        // The bitset-backed marginals match a naive contains-based computation.
        let naive: Vec<f64> = (0..model.len())
            .map(|i| {
                let mut survive = model.profiles()[i].correct_probability();
                for g in model.groups() {
                    if g.members.contains(&i) {
                        survive *= 1.0 - g.shock_probability;
                    }
                }
                1.0 - survive
            })
            .collect();
        for (a, b) in model.marginal_fault_probabilities().iter().zip(&naive) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn sample_into_matches_sample_for_a_shared_seed() {
        let model = CorrelationModel::independent(uniform(9, 0.1))
            .with_group(CorrelationGroup::crash_shock(vec![0, 1, 2], 0.05))
            .with_group(CorrelationGroup::byzantine_shock(vec![3, 4], 0.02));
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        let mut scratch = vec![NodeState::Correct; 9];
        for _ in 0..200 {
            let allocated = model.sample(&mut rng_a);
            model.sample_into(&mut scratch, &mut rng_b);
            assert_eq!(
                allocated, scratch,
                "the two sampling paths share one stream"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the cluster size")]
    fn sample_into_rejects_a_mis_sized_buffer() {
        let model = CorrelationModel::independent(uniform(3, 0.1));
        let mut scratch = vec![NodeState::Correct; 4];
        model.sample_into(&mut scratch, &mut StdRng::seed_from_u64(1));
    }
}
