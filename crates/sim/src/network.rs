//! The network model: latency distributions, loss, partitions, and per-link overrides.

use rand::rngs::StdRng;
use rand::Rng;

use crate::time::SimTime;

/// How one-way message latencies are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDistribution {
    /// Uniform on `[min_latency, max_latency]` — the LAN-style default.
    Uniform,
    /// Bounded Pareto, the WAN-style heavy tail: latencies start at `min_latency`
    /// (the scale), decay with shape `alpha`, and are capped at `cap`. Smaller
    /// `alpha` means a heavier tail; `alpha` around 1–2 matches measured wide-area
    /// RTT tails where the odd message takes 10–50x the median. `max_latency` is
    /// ignored under this distribution.
    Pareto {
        /// Tail shape (> 0); smaller is heavier.
        alpha: f64,
        /// Hard cap on a single latency sample.
        cap: SimTime,
    },
}

/// Directed link quality override: extra loss and delay applied to one `from → to`
/// direction only, on top of the base network. This is how asymmetric degradation —
/// a link lossy one way, clean the other — is expressed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// Probability of losing each message on this directed link (replaces the base
    /// `drop_probability` for the link).
    pub drop_probability: f64,
    /// Extra one-way delay added to every surviving message on this directed link.
    pub extra_delay: SimTime,
}

impl LinkQuality {
    /// A lossy link: the given drop probability, no extra delay.
    pub fn lossy(drop_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_probability),
            "drop probability must be in [0,1]"
        );
        Self {
            drop_probability,
            extra_delay: SimTime::from_micros(0),
        }
    }

    /// A slow link: the given extra delay, no added loss.
    pub fn delayed(extra_delay: SimTime) -> Self {
        Self {
            drop_probability: 0.0,
            extra_delay,
        }
    }
}

/// Configuration of the simulated network.
///
/// Latency is drawn from `delay` (uniform `[min_latency, max_latency]` by default, or
/// a heavy-tailed bounded Pareto) per message; messages are dropped independently with
/// `drop_probability`; when partition groups are set, messages only flow between nodes
/// in the same group; directed per-link overrides replace the drop probability and add
/// delay for individual `from → to` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Minimum one-way latency.
    pub min_latency: SimTime,
    /// Maximum one-way latency.
    pub max_latency: SimTime,
    /// Independent probability of losing each message.
    pub drop_probability: f64,
    /// Latency distribution.
    pub delay: DelayDistribution,
    /// Partition groups; `None` means fully connected.
    partition_groups: Option<Vec<Vec<usize>>>,
    /// Directed per-link overrides, keyed by `(from, to)`; last write per key wins.
    link_overrides: Vec<(usize, usize, LinkQuality)>,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            min_latency: SimTime::from_micros(100),
            max_latency: SimTime::from_micros(1_000),
            drop_probability: 0.0,
            delay: DelayDistribution::Uniform,
            partition_groups: None,
            link_overrides: Vec::new(),
        }
    }
}

impl NetworkConfig {
    /// A LAN-like network: 0.1–1 ms latency, no loss.
    pub fn lan() -> Self {
        Self::default()
    }

    /// A WAN-like network: 20–80 ms latency, light loss.
    pub fn wan() -> Self {
        Self {
            min_latency: SimTime::from_millis(20),
            max_latency: SimTime::from_millis(80),
            drop_probability: 0.001,
            ..Self::default()
        }
    }

    /// A WAN with a heavy-tailed delay distribution: bounded Pareto starting at
    /// 20 ms with shape 1.5, capped at 2 s, and light loss. The median latency is
    /// close to [`NetworkConfig::wan`]'s floor, but the tail routinely produces
    /// 10–50x stragglers — the regime where timeout-based failure detectors
    /// misclassify slow nodes as dead.
    pub fn wan_heavy_tailed() -> Self {
        Self {
            min_latency: SimTime::from_millis(20),
            max_latency: SimTime::from_millis(80),
            drop_probability: 0.001,
            delay: DelayDistribution::Pareto {
                alpha: 1.5,
                cap: SimTime::from_secs(2),
            },
            ..Self::default()
        }
    }

    /// Sets the latency range.
    pub fn with_latency(mut self, min: SimTime, max: SimTime) -> Self {
        assert!(max >= min, "max latency must be >= min latency");
        self.min_latency = min;
        self.max_latency = max;
        self
    }

    /// Sets the message-drop probability.
    pub fn with_drop_probability(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_probability = p;
        self
    }

    /// Partitions the network into the given groups: messages are only delivered between
    /// nodes of the same group. Nodes not listed in any group are isolated.
    pub fn with_partition(mut self, groups: Vec<Vec<usize>>) -> Self {
        self.partition_groups = Some(groups);
        self
    }

    /// Heals any partition.
    pub fn healed(mut self) -> Self {
        self.partition_groups = None;
        self
    }

    /// Installs (or replaces) a directed `from → to` link override.
    pub fn with_link_override(mut self, from: usize, to: usize, quality: LinkQuality) -> Self {
        self.set_link_override(from, to, quality);
        self
    }

    /// In-place form of [`NetworkConfig::with_link_override`].
    pub fn set_link_override(&mut self, from: usize, to: usize, quality: LinkQuality) {
        if let Some(slot) = self
            .link_overrides
            .iter_mut()
            .find(|(f, t, _)| *f == from && *t == to)
        {
            slot.2 = quality;
        } else {
            self.link_overrides.push((from, to, quality));
        }
    }

    /// Removes every per-link override.
    pub fn clear_link_overrides(&mut self) {
        self.link_overrides.clear();
    }

    /// The directed override for `from → to`, if any.
    pub fn link_override(&self, from: usize, to: usize) -> Option<LinkQuality> {
        self.link_overrides
            .iter()
            .find(|(f, t, _)| *f == from && *t == to)
            .map(|(_, _, q)| *q)
    }

    /// Whether a message from `from` to `to` can currently be delivered.
    pub fn connected(&self, from: usize, to: usize) -> bool {
        match &self.partition_groups {
            None => true,
            Some(groups) => groups.iter().any(|g| g.contains(&from) && g.contains(&to)),
        }
    }

    /// Samples a one-way latency for a message from the base distribution.
    pub fn sample_latency(&self, rng: &mut StdRng) -> SimTime {
        match self.delay {
            DelayDistribution::Uniform => {
                let lo = self.min_latency.as_micros();
                let hi = self.max_latency.as_micros();
                if hi == lo {
                    return self.min_latency;
                }
                SimTime::from_micros(rng.gen_range(lo..=hi))
            }
            DelayDistribution::Pareto { alpha, cap } => {
                // Bounded Pareto: scale / (1-u)^(1/alpha), clamped to the cap. The
                // scale is the minimum latency (floored at 1 µs so a zero-latency
                // config still produces positive samples).
                let scale = self.min_latency.as_micros().max(1) as f64;
                let u: f64 = rng.gen();
                let raw = scale * (1.0 - u).powf(-1.0 / alpha);
                let capped = raw.min(cap.as_micros() as f64);
                SimTime::from_micros(capped as u64)
            }
        }
    }

    /// Samples a one-way latency for a message on the directed link `from → to`:
    /// the base distribution plus any override's extra delay.
    pub fn sample_link_latency(&self, from: usize, to: usize, rng: &mut StdRng) -> SimTime {
        let base = self.sample_latency(rng);
        match self.link_override(from, to) {
            Some(q) => base + q.extra_delay,
            None => base,
        }
    }

    /// Samples whether a message is dropped (base drop probability).
    pub fn sample_drop(&self, rng: &mut StdRng) -> bool {
        self.drop_probability > 0.0 && rng.gen::<f64>() < self.drop_probability
    }

    /// Samples whether a message on the directed link `from → to` is dropped: an
    /// override's drop probability replaces the base one for that direction.
    pub fn sample_link_drop(&self, from: usize, to: usize, rng: &mut StdRng) -> bool {
        let p = self
            .link_override(from, to)
            .map_or(self.drop_probability, |q| q.drop_probability);
        p > 0.0 && rng.gen::<f64>() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_network_is_fully_connected_and_lossless() {
        let net = NetworkConfig::default();
        assert!(net.connected(0, 5));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!net.sample_drop(&mut rng));
    }

    #[test]
    fn latency_samples_stay_in_range() {
        let net =
            NetworkConfig::default().with_latency(SimTime::from_millis(2), SimTime::from_millis(4));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1000 {
            let l = net.sample_latency(&mut rng);
            assert!(l >= SimTime::from_millis(2) && l <= SimTime::from_millis(4));
        }
    }

    #[test]
    fn degenerate_latency_range_is_constant() {
        let net =
            NetworkConfig::default().with_latency(SimTime::from_millis(3), SimTime::from_millis(3));
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(net.sample_latency(&mut rng), SimTime::from_millis(3));
    }

    #[test]
    fn drop_probability_is_respected_statistically() {
        let net = NetworkConfig::default().with_drop_probability(0.25);
        let mut rng = StdRng::seed_from_u64(4);
        let drops = (0..10_000).filter(|_| net.sample_drop(&mut rng)).count();
        let frac = drops as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "observed {frac}");
    }

    #[test]
    fn partitions_block_cross_group_traffic() {
        let net = NetworkConfig::default().with_partition(vec![vec![0, 1], vec![2, 3, 4]]);
        assert!(net.connected(0, 1));
        assert!(net.connected(3, 4));
        assert!(!net.connected(1, 2));
        // Unlisted nodes are isolated.
        assert!(!net.connected(0, 5));
        let healed = net.healed();
        assert!(healed.connected(1, 2));
    }

    #[test]
    fn wan_profile_has_higher_latency_than_lan() {
        assert!(NetworkConfig::wan().min_latency > NetworkConfig::lan().max_latency);
    }

    #[test]
    fn pareto_latencies_respect_scale_and_cap_and_have_a_heavy_tail() {
        let net = NetworkConfig::wan_heavy_tailed();
        let cap = SimTime::from_secs(2);
        let mut rng = StdRng::seed_from_u64(8);
        let mut over_10x = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let l = net.sample_latency(&mut rng);
            assert!(
                l >= net.min_latency && l <= cap,
                "sample {l:?} out of range"
            );
            if l >= SimTime::from_millis(200) {
                over_10x += 1;
            }
        }
        // Pr[X > 10·scale] = 10^-1.5 ≈ 3.2% for alpha = 1.5 — a tail a uniform
        // [20,80] ms distribution produces exactly never.
        let frac = over_10x as f64 / n as f64;
        assert!(frac > 0.01 && frac < 0.08, "tail fraction {frac}");
    }

    #[test]
    fn link_overrides_are_directional_and_replace_base_loss() {
        let net = NetworkConfig::default()
            .with_drop_probability(0.5)
            .with_link_override(0, 1, LinkQuality::lossy(0.0));
        let mut rng = StdRng::seed_from_u64(9);
        // Overridden direction never drops; the reverse keeps the base rate.
        assert!((0..1000).all(|_| !net.sample_link_drop(0, 1, &mut rng)));
        let reverse = (0..1000)
            .filter(|_| net.sample_link_drop(1, 0, &mut rng))
            .count();
        assert!(reverse > 400 && reverse < 600, "observed {reverse}");
    }

    #[test]
    fn link_override_extra_delay_is_added_one_way() {
        let extra = SimTime::from_millis(10);
        let net = NetworkConfig::default()
            .with_latency(SimTime::from_millis(1), SimTime::from_millis(1))
            .with_link_override(2, 3, LinkQuality::delayed(extra));
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(
            net.sample_link_latency(2, 3, &mut rng),
            SimTime::from_millis(11)
        );
        assert_eq!(
            net.sample_link_latency(3, 2, &mut rng),
            SimTime::from_millis(1)
        );
    }

    #[test]
    fn link_override_replacement_keeps_last_write() {
        let mut net = NetworkConfig::default().with_link_override(0, 1, LinkQuality::lossy(0.9));
        net.set_link_override(0, 1, LinkQuality::lossy(0.1));
        assert_eq!(net.link_override(0, 1).unwrap().drop_probability, 0.1);
        net.clear_link_overrides();
        assert!(net.link_override(0, 1).is_none());
    }
}
