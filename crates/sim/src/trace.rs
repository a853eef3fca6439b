//! Execution statistics.

/// Counters accumulated while a simulation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Messages handed to the network by actors.
    pub messages_sent: u64,
    /// Messages delivered to actors.
    pub messages_delivered: u64,
    /// Messages lost to random drops.
    pub messages_dropped: u64,
    /// Messages blocked by a partition.
    pub messages_partitioned: u64,
    /// Messages discarded because the destination (or source) was crashed.
    pub messages_to_crashed: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Crash events applied.
    pub crashes: u64,
    /// Recovery events applied.
    pub recoveries: u64,
    /// Byzantine-turn events applied.
    pub byzantine_turns: u64,
    /// Gray slow-down events applied.
    pub slow_downs: u64,
    /// Gray speed-up (recovery-from-slow) events applied.
    pub speed_ups: u64,
    /// Scheduled partitions started.
    pub partitions_started: u64,
    /// Scheduled partition heals applied.
    pub partitions_healed: u64,
    /// Per-link quality overrides installed by scheduled events.
    pub link_overrides: u64,
}

impl TraceStats {
    /// Fraction of sent messages that were delivered.
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_handles_zero_sends() {
        let stats = TraceStats::default();
        assert_eq!(stats.delivery_ratio(), 1.0);
        let stats = TraceStats {
            messages_sent: 10,
            messages_delivered: 7,
            ..Default::default()
        };
        assert!((stats.delivery_ratio() - 0.7).abs() < 1e-12);
    }
}
