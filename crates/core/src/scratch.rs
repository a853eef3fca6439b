//! Per-(model, scenario) prepared scratch — what every engine runs on.
//!
//! A [`GroupScratch`] memoizes everything expensive that is a pure function of the
//! cell signature: the scenario converted to the samplers' form, the compiled
//! bit-sliced kernel, the selector-pilot estimate per seed, and the
//! importance-sampling proposal per seed. It knows what it holds, not how
//! to compute it — each slot is filled lazily, at most once per key, by the first
//! engine call that needs it.
//!
//! [`AnalysisEngine`](crate::engine::AnalysisEngine)'s required methods take a
//! scratch, so there is one engine body whether the scratch is shared or not: the
//! query planner hands every cell of a group the same scratch from the session
//! cache ([`crate::cache`]), and the three-argument front doors pass a throwaway
//! one. Every slot holds exactly what the engine would have computed on the spot,
//! so sharing changes cost, never results.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use fault_model::correlation::CorrelationModel;

use crate::engine::Scenario;
use crate::packed::PackedKernel;
use crate::rare_event::Proposal;

/// The maps only ever gain one complete entry at a time under their lock, so a
/// panicking holder cannot leave one half-written.
const POISONED: &str = "scratch map lock poisoned";

/// Reusable per-(model, scenario) scratch; see the module docs. `Default` is the
/// empty scratch. A scratch must only ever be used for one (model, scenario) pair.
#[derive(Default)]
pub struct GroupScratch {
    /// The scenario converted to the samplers' form (one profile clone per group
    /// instead of one per cell).
    target: OnceLock<CorrelationModel>,
    /// The compiled bit-sliced kernel (fixed-point thresholds + LUT), for counting
    /// models routed to the packed Monte Carlo kernel.
    packed: OnceLock<PackedKernel>,
    /// Selector-pilot failure estimates keyed by budget seed (the estimate is a
    /// deterministic function of (model, scenario, seed)).
    pilots: Mutex<HashMap<u64, f64>>,
    /// Importance-sampling proposals keyed by budget seed (the adaptive proposal
    /// is a deterministic function of (model, scenario, seed)).
    proposals: Mutex<HashMap<u64, Arc<Proposal>>>,
}

impl GroupScratch {
    pub(crate) fn target(&self, scenario: Scenario<'_>) -> &CorrelationModel {
        self.target.get_or_init(|| scenario.to_correlation_model())
    }

    pub(crate) fn packed_kernel(&self, compile: impl FnOnce() -> PackedKernel) -> &PackedKernel {
        self.packed.get_or_init(compile)
    }

    /// The pilot estimate for `seed`. `pilot` runs outside the lock: it is a pure
    /// function of the key, so a racing duplicate computes the same value.
    pub(crate) fn pilot_estimate(&self, seed: u64, pilot: impl FnOnce() -> f64) -> f64 {
        if let Some(&estimate) = self.pilots.lock().expect(POISONED).get(&seed) {
            return estimate;
        }
        let estimate = pilot();
        self.pilots.lock().expect(POISONED).insert(seed, estimate);
        estimate
    }

    /// The proposal for `seed`; `learn` runs outside the lock, like
    /// [`pilot_estimate`](Self::pilot_estimate)'s pilot.
    pub(crate) fn proposal(&self, seed: u64, learn: impl FnOnce() -> Proposal) -> Arc<Proposal> {
        if let Some(proposal) = self.proposals.lock().expect(POISONED).get(&seed) {
            return proposal.clone();
        }
        let proposal = Arc::new(learn());
        self.proposals
            .lock()
            .expect(POISONED)
            .entry(seed)
            .or_insert(proposal)
            .clone()
    }
}
