//! The concurrent cross-request session cache.
//!
//! An [`AnalysisSession`](crate::query::AnalysisSession) amortizes per-cell setup —
//! scenario conversion, packed-kernel compilation, selector pilots, learned
//! importance-sampling proposals, exact counting results — by keying
//! reusable [`GroupScratch`] off the cell's content: a fingerprint of the
//! (model, scenario) pair. Before the service layer existed, one plan at a
//! time touched that map and a plain `Mutex<HashMap>` with clear-on-cap was
//! enough. A long-running `repro serve` process executes many plans concurrently,
//! so the map here is a real cache:
//!
//! * **Sharded.** Keys hash to one of up to `SessionCache::MAX_SHARDS` (16)
//!   independently locked shards, so simultaneous `plan`/`execute` calls from many
//!   requests contend only when they touch the same shard, not on one global lock.
//! * **Size-bounded with LRU eviction.** Each shard holds at most
//!   `capacity / shards` entries; inserting past the bound evicts that shard's
//!   least-recently-used entry (a per-shard clock stamps every touch). Scratch is
//!   a pure cache — everything in it is a deterministic function of the key — so
//!   eviction can never change results, only cost recomputation. Plans in flight
//!   hold their own `Arc`s, so evicting an entry never invalidates planned work.
//! * **Observable.** Hit / miss / eviction counters ([`CacheStats`]) are the
//!   service's first observability hook, exposed through the server protocol's
//!   `stats` request and [`AnalysisSession::cache_stats`](crate::query::AnalysisSession::cache_stats).
//!
//! # Key construction and collision safety
//!
//! A `CacheKey` is a flat word vector, compared in full — the map never equates
//! two keys whose contents differ, so *distinct models can never share scratch*
//! (pinned by tests). There is one encoding, the cell's content: the model's
//! [`cache_signature`](crate::protocol::ProtocolModel::cache_signature) (a
//! length-prefixed content fingerprint) followed by the full scenario content —
//! every per-node profile's probability bits plus every correlation group's
//! members, shock-probability bits and shock mode, with equal neighbouring
//! nodes and consecutive members written as runs so a uniform grid cell's key
//! stays a few words at any N. Grid cells, explicit cells,
//! optimizer candidates and posterior draws (keyed by their scaled scenario) all
//! use it, so equal content shares one entry however it was asked for: every
//! slot is a pure function of the content (and of the seed, for the per-seed
//! slots). Models without a stable signature (`cache_signature() == None`) fall
//! back to plan-local scratch — correctness never depends on a model opting in.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::scratch::GroupScratch;

/// A point-in-time snapshot of the cache counters, the service layer's first
/// observability surface (rendered by the server protocol's `stats` request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an existing scratch group.
    pub hits: u64,
    /// Lookups that inserted a fresh scratch group.
    pub misses: u64,
    /// Entries dropped to keep a shard within its capacity bound.
    pub evictions: u64,
    /// Scratch groups currently resident across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups so far (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The structural identity of a cell's (model, scenario) pair: a flat word
/// vector compared in full, so keys collide only when their entire content is
/// identical. See the module docs for the encodings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey(Box<[u64]>);

impl CacheKey {
    /// Wraps an already-encoded key. The encoding must be self-delimiting
    /// (length-prefix every variable-length section followed by more content).
    pub(crate) fn from_words(words: Vec<u64>) -> Self {
        Self(words.into_boxed_slice())
    }

    /// The shard a key lands in: a seeded multiplicative hash folded over the
    /// words, reduced modulo `shards`. (The per-shard `HashMap` re-hashes with
    /// its own `RandomState`, so shard choice and bucket choice stay independent.)
    fn shard(&self, shards: usize) -> usize {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.0.hash(&mut hasher);
        (hasher.finish() % shards as u64) as usize
    }
}

/// One resident scratch group plus its recency stamp.
struct Entry {
    scratch: Arc<GroupScratch>,
    last_used: u64,
}

/// One independently locked slice of the key space.
#[derive(Default)]
struct Shard {
    entries: HashMap<CacheKey, Entry>,
    /// Monotonic per-shard clock; every touch stamps the entry, so the minimum
    /// stamp identifies the least-recently-used entry at eviction time.
    clock: u64,
}

/// The sharded, size-bounded, LRU-evicting concurrent scratch cache behind
/// [`AnalysisSession`](crate::query::AnalysisSession). See the module docs.
pub(crate) struct SessionCache {
    shards: Box<[Mutex<Shard>]>,
    /// Per-shard entry bound (`capacity.div_ceil(shards)`).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SessionCache {
    /// Upper bound on the shard count; small capacities use fewer shards so the
    /// total entry bound stays exactly `capacity` for `capacity <= MAX_SHARDS`.
    const MAX_SHARDS: usize = 16;

    /// A cache bounded to roughly `capacity` total entries (exactly `capacity`
    /// when `capacity` is a multiple of the shard count). A zero capacity is
    /// treated as one: the cache always admits the entry it is about to return.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = capacity.min(Self::MAX_SHARDS);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: capacity.div_ceil(shards),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The scratch group for `key`, inserting a fresh one (and evicting the
    /// shard's least-recently-used entry if the shard is full) on miss.
    ///
    /// Only the key's shard is locked, and only for the duration of the map
    /// operation — never while scratch contents are being computed, so
    /// simultaneous `execute` calls from many requests serialize on the shard
    /// lock for nanoseconds, not for kernel-compilation times.
    pub(crate) fn get_or_insert(&self, key: CacheKey) -> Arc<GroupScratch> {
        let mut shard = self.shards[key.shard(self.shards.len())].lock().unwrap();
        shard.clock += 1;
        let clock = shard.clock;
        if let Some(entry) = shard.entries.get_mut(&key) {
            entry.last_used = clock;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return entry.scratch.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if shard.entries.len() >= self.shard_capacity {
            if let Some(victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let scratch = Arc::new(GroupScratch::default());
        shard.entries.insert(
            key,
            Entry {
                scratch: scratch.clone(),
                last_used: clock,
            },
        );
        scratch
    }

    /// A snapshot of the counters and the current resident-entry count.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|shard| shard.lock().unwrap().entries.len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(words: &[u64]) -> CacheKey {
        CacheKey::from_words(words.to_vec())
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let cache = SessionCache::new(8);
        let a = cache.get_or_insert(key(&[1, 2, 3]));
        let b = cache.get_or_insert(key(&[1, 2, 3]));
        let c = cache.get_or_insert(key(&[4, 5, 6]));
        assert!(Arc::ptr_eq(&a, &b), "identical keys share one scratch");
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys get distinct scratch");
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 0);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounds_resident_entries_and_evicts_lru() {
        // Capacity below MAX_SHARDS: the total bound is exactly the capacity.
        let cache = SessionCache::new(2);
        let a = cache.get_or_insert(key(&[1]));
        let _b = cache.get_or_insert(key(&[2]));
        // Touch [1] so [2] becomes the least recently used of its shard.
        let a2 = cache.get_or_insert(key(&[1]));
        assert!(Arc::ptr_eq(&a, &a2));
        // Insert keys until something must be evicted.
        for w in 3..40 {
            cache.get_or_insert(key(&[w]));
            assert!(
                cache.stats().entries <= 2,
                "resident entries exceeded the capacity bound"
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "a full cache must evict");
        // The cache still serves after heavy eviction, re-inserting on demand.
        let a3 = cache.get_or_insert(key(&[1]));
        assert!(!Arc::ptr_eq(&a, &a3) || stats.evictions == 0);
    }

    #[test]
    fn lru_victim_is_the_least_recently_used() {
        // One shard (capacity 1 shard via capacity=1? use capacity 3 => 3 shards
        // of 1)... force a single shard by using capacity 1 and checking the
        // reinsert cycle instead: with shard capacity 1 every distinct insert
        // evicts the previous occupant of that shard.
        let cache = SessionCache::new(1);
        let a = cache.get_or_insert(key(&[10]));
        let _ = cache.get_or_insert(key(&[11]));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 1);
        let a2 = cache.get_or_insert(key(&[10]));
        assert!(
            !Arc::ptr_eq(&a, &a2),
            "the evicted entry must have been recomputed"
        );
    }

    #[test]
    fn concurrent_lookups_converge_on_one_scratch_per_key() {
        let cache = std::sync::Arc::new(SessionCache::new(64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = cache.clone();
            handles.push(std::thread::spawn(move || {
                let mut ptrs = Vec::new();
                for i in 0..100u64 {
                    let scratch = cache.get_or_insert(key(&[i % 16]));
                    ptrs.push((i % 16, Arc::as_ptr(&scratch) as usize));
                    std::hint::black_box(t);
                }
                ptrs
            }));
        }
        let mut by_key: HashMap<u64, usize> = HashMap::new();
        for handle in handles {
            for (k, ptr) in handle.join().unwrap() {
                // No evictions happen at this capacity, so every thread must see
                // the same scratch allocation for a given key.
                let entry = by_key.entry(k).or_insert(ptr);
                assert_eq!(*entry, ptr, "threads disagree on the scratch for {k}");
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 800);
        assert_eq!(stats.entries, 16);
    }
}
