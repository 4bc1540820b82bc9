//! The in-memory tier: a sharded LRU keyed by [`CacheKey`] value, shared
//! by plan outcomes and cached lint reports.
//!
//! Recency is a global atomic tick, bumped on every touch; eviction removes
//! the smallest tick *within the full shard*. Sharding makes eviction
//! approximate LRU globally (each shard only sees its own keys), which is
//! the standard trade for lock-free-reads-between-shards — exact LRU would
//! reintroduce the single lock the shards exist to avoid.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use powerlens::PlanOutcome;
use powerlens_obs as obs;
use powerlens_par::Sharded;

#[derive(Debug)]
struct Slot<V> {
    last_used: u64,
    value: V,
}

/// Sharded in-memory LRU; values are plan outcomes unless stated otherwise.
#[derive(Debug)]
pub struct MemTier<V = PlanOutcome> {
    shards: Sharded<HashMap<u64, Slot<V>>>,
    per_shard_cap: usize,
    tick: AtomicU64,
}

impl<V: Clone> MemTier<V> {
    /// An LRU holding at most `capacity` values (at least 1), spread over
    /// a default shard count.
    pub fn new(capacity: usize) -> Self {
        // More shards than entries would make per-shard capacity meaningless;
        // eight is plenty to decorrelate batch workers.
        Self::with_shards(capacity, capacity.clamp(1, 8))
    }

    /// An LRU with an explicit shard count (tests use one shard to make the
    /// eviction order exact).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        MemTier {
            shards: Sharded::new(shards, HashMap::new),
            per_shard_cap: capacity.max(1).div_ceil(shards),
            tick: AtomicU64::new(0),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns a clone of the cached value and marks it most recent.
    pub fn get(&self, key: u64) -> Option<V> {
        let tick = self.next_tick();
        self.shards.with(key, |map| {
            map.get_mut(&key).map(|slot| {
                slot.last_used = tick;
                slot.value.clone()
            })
        })
    }

    /// Inserts (or refreshes) a value, evicting the least recently used
    /// entry of the target shard when it is full.
    pub fn insert(&self, key: u64, value: V) {
        let tick = self.next_tick();
        let cap = self.per_shard_cap;
        self.shards.with(key, |map| {
            if !map.contains_key(&key) && map.len() >= cap {
                if let Some(victim) = map
                    .iter()
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(k, _)| *k)
                {
                    map.remove(&victim);
                    obs::counter("store.evictions", 1);
                }
            }
            map.insert(
                key,
                Slot {
                    last_used: tick,
                    value,
                },
            );
        });
    }

    /// `true` if `key` is resident, *without* touching its recency.
    pub fn contains(&self, key: u64) -> bool {
        self.shards.with(key, |map| map.contains_key(&key))
    }

    /// Number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.fold(0, |acc, map| acc + map.len())
    }

    /// `true` if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens::WorkflowTimings;
    use powerlens_cluster::{PowerBlock, PowerView};
    use powerlens_platform::{InstrumentationPlan, InstrumentationPoint};

    fn outcome(tag: usize) -> PlanOutcome {
        PlanOutcome {
            view: PowerView::new(vec![PowerBlock { start: 0, end: 2 }]),
            plan: InstrumentationPlan::new(
                vec![InstrumentationPoint {
                    layer: 0,
                    gpu_level: tag,
                }],
                0,
            ),
            scheme_index: tag,
            timings: WorkflowTimings::default(),
        }
    }

    #[test]
    fn get_returns_what_insert_stored() {
        let tier = MemTier::new(4);
        assert!(tier.get(1).is_none());
        tier.insert(1, outcome(7));
        assert_eq!(tier.get(1).unwrap().scheme_index, 7);
        assert_eq!(tier.len(), 1);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        // One shard ⇒ the eviction order is the exact global LRU order.
        let tier = MemTier::with_shards(2, 1);
        tier.insert(1, outcome(1));
        tier.insert(2, outcome(2));
        assert!(tier.get(1).is_some()); // touch 1: now 2 is the LRU entry
        tier.insert(3, outcome(3));
        assert!(tier.contains(1), "recently used entry survived");
        assert!(!tier.contains(2), "LRU entry evicted");
        assert!(tier.contains(3));
        assert_eq!(tier.len(), 2);
    }

    #[test]
    fn refreshing_a_resident_key_does_not_evict() {
        let tier = MemTier::with_shards(2, 1);
        tier.insert(1, outcome(1));
        tier.insert(2, outcome(2));
        tier.insert(1, outcome(9)); // overwrite, shard already full
        assert!(tier.contains(2));
        assert_eq!(tier.get(1).unwrap().scheme_index, 9);
        assert_eq!(tier.len(), 2);
    }

    #[test]
    fn concurrent_hits_and_misses_stay_consistent() {
        let tier = MemTier::new(64);
        for k in 0..32u64 {
            tier.insert(k, outcome(k as usize));
        }
        let results = powerlens_par::map_range(64, 8, |i| {
            let k = (i as u64) % 48; // keys 32..47 are guaranteed misses
            tier.get(k).map(|o| o.scheme_index)
        });
        for (i, r) in results.iter().enumerate() {
            let k = (i as u64) % 48;
            if k < 32 {
                assert_eq!(*r, Some(k as usize));
            } else {
                assert_eq!(*r, None);
            }
        }
        assert_eq!(tier.len(), 32);
    }
}
