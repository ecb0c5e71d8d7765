//! Content-addressed plan cache: sharded, bounded, LRU-evicting.
//!
//! A streaming plan is a pure function of its inputs — the target CF
//! vector, the demand `D`, the base algorithm, the scheduler, the mixer
//! budget `Mc`, the storage budget `q'` and the reuse policy (the mixing
//! -graph literature models graph construction as a pure function of the
//! target ratio). [`PlanKey`] captures exactly that tuple, so two requests
//! with equal keys are guaranteed to produce byte-identical plans and the
//! second one never needs to plan at all.
//!
//! The cache stores plans behind [`Arc`], so a hit is a pointer clone:
//! callers that keep the `Arc` (see
//! [`crate::StreamingEngine::plan_shared`]) can even observe hits by
//! [`Arc::ptr_eq`]. The store is **bounded**: it holds at most
//! [`PlanCache::capacity`] plans and evicts the least-recently-used entry
//! when a store would exceed it, so a long-lived process (the
//! `dmfstream serve` planning service, a batch daemon) has a hard memory
//! ceiling instead of the unbounded growth the original `HashMap` had.
//!
//! # Sharding and the read-mostly hit path
//!
//! The cache is split into [`PlanCache::shard_count`] independent shards,
//! selected by `PlanKey::fingerprint() % shards` — the same stable FNV-1a
//! digest that names plans on disk. Each shard owns its slice of the
//! capacity (the first `capacity % shards` shards hold one extra slot)
//! behind its own `RwLock`, so concurrent requests for different keys
//! contend only when they land on the same shard. A **hit never takes a
//! write lock**: recency is a per-entry relaxed atomic stamp bumped under
//! the shard's *read* lock (a deferred touch), and hit/miss/eviction
//! totals are per-shard relaxed atomics. Only a store — which must be
//! able to evict — takes the shard's write lock, and eviction picks the
//! entry with the smallest stamp, preserving LRU semantics per shard.
//!
//! [`CacheStats`] aggregates the shards; `cache.hits` / `cache.misses` /
//! `cache.evictions` are exported through `dmf-obs` whenever the global
//! recorder is enabled.

use crate::{EngineConfig, StreamPlan};
use dmf_hash::{Fnv64, FnvBuildHasher};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default [`PlanCache`] capacity (plans, not bytes). Generous for every
/// workload in this repository while still bounding a long-lived process.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// Upper bound on the shard count: beyond this, extra shards only cost
/// memory — lock contention is already negligible.
pub const MAX_PLAN_CACHE_SHARDS: usize = 64;

/// The default shard count for new caches: the machine's available
/// parallelism, clamped to `1..=`[`MAX_PLAN_CACHE_SHARDS`]. One shard per
/// hardware thread is enough for stores to (almost) never contend.
#[must_use]
pub fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .clamp(1, MAX_PLAN_CACHE_SHARDS)
}

/// The content address of a plan: every input [`crate::StreamingEngine`]
/// folds into its output.
///
/// Equal keys imply byte-identical plans; the [`PlanKey::fingerprint`]
/// digest is stable across processes (unseeded FNV-1a), so it can name
/// plan artifacts on disk or across runs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    config: EngineConfig,
    accuracy: u32,
    parts: Vec<u64>,
    demand: u64,
}

impl PlanKey {
    /// The content address of planning `demand` droplets of `target`
    /// under `config`.
    pub fn new(config: &EngineConfig, target: &dmf_ratio::TargetRatio, demand: u64) -> Self {
        PlanKey {
            config: *config,
            accuracy: target.accuracy(),
            parts: target.parts().to_vec(),
            demand,
        }
    }

    /// A stable 64-bit FNV-1a digest of this key — identical across
    /// processes and runs for equal keys. Doubles as the shard selector
    /// (see [`PlanCache::shard_index`]).
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Cumulative counters of one [`PlanCache`]'s behaviour, aggregated over
/// every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Cached plans right now.
    pub len: usize,
    /// Maximum plans the cache will hold.
    pub capacity: usize,
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Plans evicted to stay within the capacity.
    pub evictions: u64,
}

/// One cached plan plus its recency stamp. The stamp is atomic so a hit
/// can refresh it under the shard's *read* lock (deferred touch); larger
/// stamp = more recently used. Stamps are unique within a shard (they
/// come off the shard's monotonic clock), so eviction order is total.
#[derive(Debug)]
struct Entry {
    plan: Arc<StreamPlan>,
    stamp: AtomicU64,
}

/// One independently locked slice of the cache.
#[derive(Debug)]
struct Shard {
    /// Plans this shard may hold (always ≥ 1).
    capacity: usize,
    /// Monotonic recency clock; bumped on every hit and store.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    map: RwLock<HashMap<PlanKey, Entry, FnvBuildHasher>>,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            map: RwLock::new(HashMap::default()),
        }
    }

    // A poisoned lock only means another worker panicked mid-operation;
    // the map itself is never left half-written (inserts and removals are
    // atomic at this level), so recover the guard instead of propagating.
    fn read(&self) -> RwLockReadGuard<'_, HashMap<PlanKey, Entry, FnvBuildHasher>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<PlanKey, Entry, FnvBuildHasher>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn next_stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A thread-safe, content-addressed, **bounded** store of finished plans,
/// sharded for parallel access (see the module docs).
///
/// Clone-free on hits (plans are handed out as [`Arc`]); safe to share
/// across the [`crate::plan_batch`] worker pool and the `dmfstream serve`
/// request threads. Each shard's map uses the deterministic FNV hasher,
/// so cache behavior does not depend on process-seeded hash state. When a
/// store would push a shard past its slice of the capacity, that shard's
/// least-recently-used plan is dropped and counted in
/// [`CacheStats::evictions`] (and the `cache.evictions` dmf-obs counter).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    shards: Box<[Shard]>,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity_and_shards(DEFAULT_PLAN_CACHE_CAPACITY, default_shard_count())
    }
}

impl PlanCache {
    /// An empty cache with the default capacity
    /// ([`DEFAULT_PLAN_CACHE_CAPACITY`]) and the default shard count
    /// ([`default_shard_count`]).
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// An empty cache holding at most `capacity` plans across `shards`
    /// independently locked shards. A capacity of zero is clamped to one
    /// (a cache that cannot hold anything would turn every warm lookup
    /// into a replan, silently).
    ///
    /// The shard count is clamped to `1..=`[`MAX_PLAN_CACHE_SHARDS`] and
    /// never exceeds the capacity, so every shard holds at least one
    /// plan. The capacity is divided evenly; the remainder policy gives
    /// the first `capacity % shards` shards one extra slot, so the
    /// per-shard capacities always sum to exactly `capacity`.
    #[must_use]
    pub fn with_capacity_and_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let count = shards.clamp(1, MAX_PLAN_CACHE_SHARDS).min(capacity);
        let base = capacity / count;
        let extra = capacity % count;
        let shards: Box<[Shard]> =
            (0..count).map(|i| Shard::new(base + usize::from(i < extra))).collect();
        PlanCache { capacity, shards }
    }

    /// An empty default-capacity cache ready to share across engines and
    /// worker threads.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(PlanCache::new())
    }

    /// An empty bounded cache with an explicit shard count (see
    /// [`PlanCache::with_capacity_and_shards`]), ready to share.
    #[must_use]
    pub fn shared_with_capacity_and_shards(capacity: usize, shards: usize) -> Arc<Self> {
        Arc::new(PlanCache::with_capacity_and_shards(capacity, shards))
    }

    /// Maximum number of plans this cache will hold, over all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of independently locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard capacities, in shard order. They sum to
    /// [`PlanCache::capacity`]; the first `capacity % shards` entries are
    /// one larger than the rest (the remainder policy).
    pub fn shard_capacities(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.capacity).collect()
    }

    /// The shard `key` lives on: `fingerprint() % shard_count`. Stable
    /// across processes (the fingerprint is unseeded FNV-1a), so a key's
    /// shard assignment is reproducible.
    pub fn shard_index(&self, key: &PlanKey) -> usize {
        (key.fingerprint() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &PlanKey) -> &Shard {
        &self.shards[self.shard_index(key)]
    }

    /// Looks `key` up, counting `cache.hits` / `cache.misses`. A hit also
    /// marks the entry most recently used — without taking a write lock:
    /// the recency stamp is a relaxed atomic refreshed under the shard's
    /// read lock, so concurrent hits on one shard proceed in parallel.
    pub fn lookup(&self, key: &PlanKey) -> Option<Arc<StreamPlan>> {
        let shard = self.shard(key);
        let found = {
            let map = shard.read();
            map.get(key).map(|entry| {
                entry.stamp.store(shard.next_stamp(), Ordering::Relaxed);
                Arc::clone(&entry.plan)
            })
        };
        if found.is_some() {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        let obs = dmf_obs::global();
        if obs.is_enabled() {
            obs.count(if found.is_some() { "cache.hits" } else { "cache.misses" }, 1);
        }
        found
    }

    /// Stores a finished plan under `key`, evicting the shard's
    /// least-recently-used entries while the shard is over its slice of
    /// the capacity. Concurrent writers may race on the same key; both
    /// plans are byte-identical by construction, so either insert is
    /// correct.
    pub fn store(&self, key: PlanKey, plan: Arc<StreamPlan>) {
        let shard = self.shard(&key);
        let stamp = shard.next_stamp();
        let evicted = {
            let mut map = shard.write();
            if let Some(entry) = map.get_mut(&key) {
                // Refresh in place — a single entry-based update:
                // byte-identical by construction, so only the plan slot
                // and the recency stamp change.
                entry.plan = plan;
                entry.stamp.store(stamp, Ordering::Relaxed);
                0
            } else {
                map.insert(key, Entry { plan, stamp: AtomicU64::new(stamp) });
                let mut evicted = 0u64;
                while map.len() > shard.capacity {
                    // Smallest stamp = least recently used. Stamps only
                    // move under this shard's locks, and we hold the
                    // write lock, so the scan is race-free; stamps are
                    // unique, so the victim is unambiguous.
                    let victim = map
                        .iter()
                        .min_by_key(|(_, entry)| entry.stamp.load(Ordering::Relaxed))
                        .map(|(k, _)| k.clone());
                    let Some(victim) = victim else { break };
                    map.remove(&victim);
                    evicted += 1;
                }
                shard.evictions.fetch_add(evicted, Ordering::Relaxed);
                evicted
            }
        };
        if evicted > 0 {
            let obs = dmf_obs::global();
            if obs.is_enabled() {
                obs.count("cache.evictions", evicted);
            }
        }
    }

    /// Number of cached plans, over all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Cumulative hit/miss/eviction counters plus the current occupancy,
    /// aggregated across shards.
    ///
    /// The snapshot is consistent enough for capacity accounting: each
    /// shard's length is read under its lock (a store holds the write
    /// lock through its eviction loop, so an over-capacity shard is never
    /// observable), which makes `len <= capacity` an invariant of the
    /// reported stats — asserted here.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats { capacity: self.capacity, ..CacheStats::default() };
        for shard in self.shards.iter() {
            let len = shard.read().len();
            debug_assert!(len <= shard.capacity, "shard over capacity: {len} > {}", shard.capacity);
            stats.len += len;
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
        }
        assert!(
            stats.len <= stats.capacity,
            "cache stats invariant violated: len {} > capacity {}",
            stats.len,
            stats.capacity
        );
        stats
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, StreamingEngine};
    use dmf_ratio::TargetRatio;

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
    }

    fn plan_arc(demand: u64) -> Arc<StreamPlan> {
        Arc::new(StreamingEngine::new(EngineConfig::default()).plan(&pcr_d4(), demand).unwrap())
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let config = EngineConfig::default();
        let a = PlanKey::new(&config, &pcr_d4(), 20);
        let b = PlanKey::new(&config, &pcr_d4(), 20);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Every component of the tuple must perturb the address.
        assert_ne!(a.fingerprint(), PlanKey::new(&config, &pcr_d4(), 22).fingerprint());
        let mms = config.with_scheduler(dmf_sched::SchedulerKind::Mms);
        assert_ne!(a.fingerprint(), PlanKey::new(&mms, &pcr_d4(), 20).fingerprint());
        let limited = config.with_storage_limit(5);
        assert_ne!(a.fingerprint(), PlanKey::new(&limited, &pcr_d4(), 20).fingerprint());
        let other = TargetRatio::new(vec![1, 1, 1, 1, 1, 1, 10]).unwrap();
        assert_ne!(a.fingerprint(), PlanKey::new(&config, &other, 20).fingerprint());
    }

    /// Fingerprints name cache shards and appear in serve replies, so the
    /// way algorithm and scheduler handles hash must never move them.
    #[test]
    fn fingerprints_are_pinned() {
        use dmf_mixalgo::AlgorithmId;
        use dmf_sched::SchedulerKind;
        let default = EngineConfig::default();
        let rma = default.with_algorithm(AlgorithmId::Rma);
        for (config, expected) in [
            (default, 0x6027_73dc_cefb_0836_u64),
            (default.with_scheduler(SchedulerKind::Mms), 0x84c3_f56a_c3d7_68a5),
            (rma, 0x972e_6807_0eee_48c2),
            (
                rma.with_scheduler(SchedulerKind::Mms).with_mixers(3).with_storage_limit(5),
                0xc836_9d04_b8a1_31b7,
            ),
        ] {
            let key = PlanKey::new(&config, &pcr_d4(), 20);
            assert_eq!(key.fingerprint(), expected, "{config:?}");
        }
    }

    #[test]
    fn lookup_store_round_trip() {
        let cache = PlanCache::new();
        assert_eq!(cache.capacity(), DEFAULT_PLAN_CACHE_CAPACITY);
        let config = EngineConfig::default();
        let key = PlanKey::new(&config, &pcr_d4(), 20);
        assert!(cache.lookup(&key).is_none());
        let plan = plan_arc(20);
        cache.store(key.clone(), Arc::clone(&plan));
        let hit = cache.lookup(&key).unwrap();
        assert!(Arc::ptr_eq(&hit, &plan));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_bounds_the_cache_under_churn() {
        // One shard: the exact global-LRU expectations below require a
        // single recency domain.
        let cache = PlanCache::with_capacity_and_shards(4, 1);
        let config = EngineConfig::default();
        let plan = plan_arc(2);
        for demand in 1..=100u64 {
            cache.store(PlanKey::new(&config, &pcr_d4(), demand), Arc::clone(&plan));
            assert!(cache.len() <= 4, "cache exceeded its capacity");
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 4);
        assert_eq!(stats.evictions, 96);
        // The survivors are exactly the four most recent keys.
        for demand in 97..=100u64 {
            assert!(cache.lookup(&PlanKey::new(&config, &pcr_d4(), demand)).is_some());
        }
        assert!(cache.lookup(&PlanKey::new(&config, &pcr_d4(), 96)).is_none());
    }

    #[test]
    fn sharded_churn_is_bounded_with_exact_eviction_accounting() {
        // Whatever the key → shard spread, distinct-key stores obey
        // `evictions == stores - len` and the bound holds per shard.
        let cache = PlanCache::with_capacity_and_shards(4, 4);
        let config = EngineConfig::default();
        let plan = plan_arc(2);
        for demand in 1..=100u64 {
            cache.store(PlanKey::new(&config, &pcr_d4(), demand), Arc::clone(&plan));
            assert!(cache.len() <= 4, "cache exceeded its capacity");
        }
        let stats = cache.stats();
        assert!(stats.len <= 4);
        assert_eq!(stats.evictions, 100 - stats.len as u64);
    }

    #[test]
    fn lru_eviction_respects_lookup_recency() {
        // One shard, so all three keys compete for the same two slots.
        let cache = PlanCache::with_capacity_and_shards(2, 1);
        let config = EngineConfig::default();
        let key_a = PlanKey::new(&config, &pcr_d4(), 2);
        let key_b = PlanKey::new(&config, &pcr_d4(), 4);
        let key_c = PlanKey::new(&config, &pcr_d4(), 6);
        let plan = plan_arc(2);
        cache.store(key_a.clone(), Arc::clone(&plan));
        cache.store(key_b.clone(), Arc::clone(&plan));
        // Touch A so B becomes the least recently used…
        assert!(cache.lookup(&key_a).is_some());
        cache.store(key_c.clone(), Arc::clone(&plan));
        // …and is therefore the entry C evicted.
        assert!(cache.lookup(&key_b).is_none(), "LRU entry must be evicted");
        assert!(cache.lookup(&key_a).is_some());
        assert!(cache.lookup(&key_c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn storing_an_existing_key_does_not_evict() {
        let cache = PlanCache::with_capacity_and_shards(2, 1);
        let config = EngineConfig::default();
        let key_a = PlanKey::new(&config, &pcr_d4(), 2);
        let key_b = PlanKey::new(&config, &pcr_d4(), 4);
        let plan = plan_arc(2);
        cache.store(key_a.clone(), Arc::clone(&plan));
        cache.store(key_b, Arc::clone(&plan));
        cache.store(key_a, plan);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = PlanCache::with_capacity_and_shards(0, 2);
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.shard_count(), 1);
        let config = EngineConfig::default();
        let plan = plan_arc(2);
        cache.store(PlanKey::new(&config, &pcr_d4(), 2), Arc::clone(&plan));
        cache.store(PlanKey::new(&config, &pcr_d4(), 4), plan);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_divides_across_shards_with_remainder_policy() {
        let cache = PlanCache::with_capacity_and_shards(10, 4);
        assert_eq!(cache.shard_count(), 4);
        assert_eq!(cache.capacity(), 10);
        assert_eq!(cache.shard_capacities(), vec![3, 3, 2, 2]);
        let even = PlanCache::with_capacity_and_shards(8, 4);
        assert_eq!(even.shard_capacities(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn shard_count_clamps_to_capacity_so_every_shard_holds_a_plan() {
        let cache = PlanCache::with_capacity_and_shards(2, 8);
        assert_eq!(cache.shard_count(), 2);
        assert_eq!(cache.shard_capacities(), vec![1, 1]);
        assert_eq!(PlanCache::with_capacity_and_shards(1024, 0).shard_count(), 1);
        assert_eq!(
            PlanCache::with_capacity_and_shards(1 << 20, 1 << 20).shard_count(),
            MAX_PLAN_CACHE_SHARDS
        );
    }

    #[test]
    fn shard_index_is_stable_and_in_range() {
        let cache = PlanCache::with_capacity_and_shards(16, 4);
        let config = EngineConfig::default();
        for demand in 1..=32u64 {
            let key = PlanKey::new(&config, &pcr_d4(), demand);
            let idx = cache.shard_index(&key);
            assert!(idx < cache.shard_count());
            assert_eq!(idx, cache.shard_index(&key), "shard assignment must be stable");
            assert_eq!(idx, (key.fingerprint() % 4) as usize);
        }
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let cache = PlanCache::with_capacity_and_shards(16, 4);
        let config = EngineConfig::default();
        let plan = plan_arc(2);
        let keys: Vec<PlanKey> =
            (1..=8u64).map(|demand| PlanKey::new(&config, &pcr_d4(), demand)).collect();
        for key in &keys {
            assert!(cache.lookup(key).is_none()); // 8 misses
            cache.store(key.clone(), Arc::clone(&plan));
        }
        for key in &keys {
            assert!(cache.lookup(key).is_some()); // 8 hits
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (8, 8, 0));
        assert_eq!(stats.len, 8);
        assert!(stats.len <= stats.capacity);
    }
}
