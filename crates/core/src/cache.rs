//! Fixed-size, direct-mapped compute caches.
//!
//! The compute caches memoise recursive DD operations. Unbounded maps keep
//! every result alive until a wholesale clear, which costs memory, hashing
//! time and latency spikes; a direct-mapped cache with power-of-two slots
//! simply overwrites on collision (lossy memoisation is always sound — a
//! miss only costs recomputation), never rehashes, and keeps the working
//! set hot. The same design is used by the major BDD/DD packages.

use std::hash::Hash;

use crate::fxhash::fx_hash;

/// Hit/miss/eviction counters for one compute cache.
///
/// Invariant: `lookups == hits + misses`; `insertions == evictions +
/// updates + cleared + (currently occupied slots)` — entries dropped by a
/// wholesale cache `clear` are counted in `cleared`, so
/// every insert is accounted for across the cache's lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total `get` calls.
    pub lookups: u64,
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed (empty slot, or slot held a different key).
    pub misses: u64,
    /// Total `insert` calls.
    pub insertions: u64,
    /// Insertions that overwrote a *different* live key.
    pub evictions: u64,
    /// Insertions that overwrote the *same* key (never happens from the
    /// engine — an insert follows a miss — but counted so the accounting
    /// identity above is exact).
    pub updates: u64,
    /// Live entries dropped by wholesale clears (including the implicit
    /// clear during [`Manager::try_compact`](crate::Manager::try_compact)).
    pub cleared: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Merges counters (used to carry statistics across compactions and
    /// to aggregate per-job statistics into session/service totals).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.updates += other.updates;
        self.cleared += other.cleared;
    }
}

/// A direct-mapped lossy cache: each key hashes to exactly one slot, and a
/// colliding insert overwrites the previous occupant.
#[derive(Debug, Clone)]
pub(crate) struct LossyCache<K, V> {
    /// Slot array, allocated lazily on first use (compaction creates fresh
    /// managers frequently; empty caches must be free).
    slots: Vec<Option<(K, V)>>,
    /// Power-of-two slot count.
    capacity: usize,
    /// Currently occupied slots (so clears can account for dropped
    /// entries without scanning).
    len: usize,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash, V: Copy> LossyCache<K, V> {
    /// Creates a cache with `capacity` slots (rounded up to a power of two,
    /// minimum 2).
    pub fn new(capacity: usize) -> Self {
        LossyCache {
            slots: Vec::new(),
            capacity: capacity.next_power_of_two().max(2),
            len: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn slot_of(&self, key: &K) -> usize {
        (fx_hash(key) as usize) & (self.capacity - 1)
    }

    /// Looks up `key`, counting the hit or miss.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.stats.lookups += 1;
        let hit = if self.slots.is_empty() {
            None
        } else {
            match &self.slots[self.slot_of(key)] {
                Some((k, v)) if k == key => Some(*v),
                _ => None,
            }
        };
        if hit.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// Inserts `key -> value`, overwriting (and counting as an eviction)
    /// any different key occupying the slot.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) {
        if self.slots.is_empty() {
            self.slots = vec![None; self.capacity];
        }
        let i = self.slot_of(&key);
        self.stats.insertions += 1;
        match &self.slots[i] {
            Some((k, _)) if *k != key => self.stats.evictions += 1,
            None => self.len += 1,
            _ => self.stats.updates += 1, // same-key overwrite
        }
        self.slots[i] = Some((key, value));
    }

    /// Drops all entries, counting them in [`CacheStats::cleared`]
    /// (lookup/insert counters describe the lifetime of the cache, not its
    /// current contents, and are kept).
    pub fn clear(&mut self) {
        self.stats.cleared += self.len as u64;
        self.len = 0;
        self.slots.clear();
        self.slots.shrink_to_fit();
    }

    /// Empties the cache and zeroes its counters, keeping the slot
    /// allocation. Session resets use this so the next job starts with
    /// pristine per-job statistics without paying a fresh allocation;
    /// contents never affect results (lossy memoisation is sound), so
    /// dropping entries here cannot change what the next job computes.
    pub fn reset(&mut self) {
        self.slots.fill(None);
        self.len = 0;
        self.stats = CacheStats::default();
    }

    /// Currently occupied slots.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Adds another cache's counters (statistics survive compaction).
    pub fn absorb_stats(&mut self, other: &CacheStats) {
        self.stats.absorb(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The documented accounting identity, checked after every scenario.
    fn assert_invariants<K: Copy + Eq + Hash, V: Copy>(c: &LossyCache<K, V>) {
        let s = c.stats();
        assert_eq!(s.lookups, s.hits + s.misses, "lookup identity: {s:?}");
        assert_eq!(
            s.insertions,
            s.evictions + s.updates + s.cleared + c.len() as u64,
            "insert identity: {s:?} with {} occupied slots",
            c.len()
        );
    }

    #[test]
    fn get_insert_and_counters() {
        let mut c: LossyCache<u64, u64> = LossyCache::new(8);
        assert_eq!(c.get(&1), None);
        c.insert(1, 10);
        assert_eq!(c.get(&1), Some(10));
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_invariants(&c);
    }

    #[test]
    fn eviction_on_slot_collision() {
        // capacity 2: plenty of keys share slots
        let mut c: LossyCache<u64, u64> = LossyCache::new(2);
        for k in 0..100 {
            c.insert(k, k);
        }
        let s = c.stats();
        assert_eq!(s.insertions, 100);
        assert!(s.evictions >= 90, "almost every insert evicts: {s:?}");
        assert_invariants(&c);
        // the cache stays bounded: at most 2 keys can hit
        let mut live = 0;
        for k in 0..100 {
            if c.get(&k).is_some() {
                live += 1;
            }
        }
        assert!(live <= 2);
        assert_eq!(c.len(), live, "len must track the occupied slots");
    }

    #[test]
    fn reinserting_same_key_is_not_an_eviction() {
        let mut c: LossyCache<u64, u64> = LossyCache::new(8);
        c.insert(7, 1);
        c.insert(7, 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&7), Some(2));
        assert_eq!(c.len(), 1);
        assert_invariants(&c);
    }

    #[test]
    fn clear_counts_dropped_entries_and_keeps_counters() {
        let mut c: LossyCache<u64, u64> = LossyCache::new(8);
        c.insert(1, 1);
        c.insert(2, 2);
        let _ = c.get(&1);
        c.clear();
        assert_eq!(c.get(&1), None);
        let s = c.stats();
        assert_eq!(s.insertions, 2);
        assert_eq!(s.cleared, 2, "live entries dropped by clear are counted");
        assert_eq!(s.lookups, 2);
        assert_eq!(c.len(), 0);
        assert_invariants(&c);
        // refilling after a clear keeps the identity
        c.insert(3, 3);
        assert_invariants(&c);
        c.clear();
        assert_eq!(c.stats().cleared, 3);
        assert_invariants(&c);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let c: LossyCache<u64, u64> = LossyCache::new(100);
        assert_eq!(c.capacity, 128);
        let c: LossyCache<u64, u64> = LossyCache::new(0);
        assert_eq!(c.capacity, 2);
    }
}
