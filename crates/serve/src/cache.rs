//! Content-addressed result cache: repeated submissions of the same
//! simulation short-circuit before the queue.
//!
//! Simulation results are a pure function of (circuit, start state,
//! scheme, extraction width) — the engine's lossy compute caches never
//! change results, and the scheme label encodes ε for numeric jobs. The
//! cache key therefore addresses *content*: the canonical circuit
//! fingerprint plus every request parameter that can alter the reply a
//! client sees — including the job kind: a seeded sampling job and a
//! plain run over the same circuit carry a `JobKind` discriminant (with
//! the sampler's `shots` and `seed`) so they can never answer for each
//! other. Two budgets that differ only within the same
//! power-of-two **budget class** are considered equivalent: a completed
//! outcome proves the work fit the smaller budget of the class, and
//! quantizing keeps near-miss budgets from fragmenting the cache.
//! Wall-clock deadlines are deliberately **excluded** from the key — a
//! cached hit costs no engine time, so any deadline is trivially met.
//!
//! Only *completed, non-resumed* outcomes are cached: aborted outcomes
//! depend on wall-clock and checkpoint paths, and resumed jobs start from
//! snapshot state the key cannot see.
//!
//! Eviction is least-recently-used over a monotonic touch tick, bounded
//! by a fixed capacity. Hit/miss/insert/evict counters feed the `metrics`
//! verb.

use std::collections::HashMap;

use aq_circuits::Circuit;
use aq_dd::RunBudget;
use aq_sim::{circuit_fingerprint, JobOutcome, SampleParams, SchemeSpec};

/// The job-kind tag inside a [`CacheKey`]: a plain simulation run and a
/// seeded sampling job over the *same* circuit produce different replies
/// (amplitudes vs a histogram), so the kind — and for sampling, the
/// exact `(shots, seed)` pair — is part of the cache identity. Two
/// sampling submissions hit the same entry only when their histograms
/// are guaranteed bit-identical.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JobKind {
    /// Full simulation reporting `top_k` amplitudes.
    Run,
    /// Seeded shot sampling.
    Sample {
        /// Shots drawn.
        shots: u64,
        /// Sampler RNG seed.
        seed: u64,
    },
}

/// Identity of one cacheable simulation request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical circuit fingerprint (gate-by-gate FNV over the ops).
    circuit: u64,
    /// Scheme label — encodes the kind *and* ε for numeric schemes.
    scheme: String,
    /// Start basis state.
    start: u64,
    /// Measurement extraction width.
    top_k: usize,
    /// Power-of-two quantized (max_nodes, max_distinct_weights,
    /// max_weight_bits); `u64::MAX` encodes "unlimited".
    budget_class: [u64; 3],
    /// Run vs sample discriminant (with the sampler's shots and seed).
    kind: JobKind,
}

impl CacheKey {
    /// Builds the key for one submission; `sample` is `Some` exactly for
    /// sampling jobs.
    pub fn new(
        circuit: &Circuit,
        start: u64,
        scheme: &SchemeSpec,
        top_k: usize,
        budget: &RunBudget,
        sample: Option<SampleParams>,
    ) -> CacheKey {
        let quantize = |v: Option<u64>| match v {
            None => u64::MAX,
            Some(0) => 0,
            Some(n) => n.next_power_of_two(),
        };
        CacheKey {
            circuit: circuit_fingerprint(circuit),
            scheme: scheme.label(),
            start,
            top_k,
            budget_class: [
                quantize(budget.max_nodes.map(|n| n as u64)),
                quantize(budget.max_distinct_weights.map(|n| n as u64)),
                quantize(budget.max_weight_bits),
            ],
            kind: match sample {
                None => JobKind::Run,
                Some(p) => JobKind::Sample {
                    shots: p.shots,
                    seed: p.seed,
                },
            },
        }
    }
}

/// Lifetime counters of the result cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Lookups that found a memoized outcome.
    pub hits: u64,
    /// Lookups that found nothing (the job went to the queue).
    pub misses: u64,
    /// Completed outcomes stored.
    pub insertions: u64,
    /// Entries dropped to make room (LRU order).
    pub evictions: u64,
}

impl ResultCacheStats {
    /// Hit rate in `[0, 1]`; `0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    outcome: JobOutcome,
    /// Last-touched tick (insert or hit), for LRU eviction.
    touched: u64,
}

/// A bounded LRU of completed [`JobOutcome`]s keyed by [`CacheKey`].
/// Capacity 0 disables the cache entirely (every lookup misses, nothing
/// is stored) — sessions-only benchmarking and bit-identity tests use
/// that mode.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<CacheKey, Entry>,
    capacity: usize,
    tick: u64,
    stats: ResultCacheStats,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` outcomes.
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            map: HashMap::new(),
            capacity,
            tick: 0,
            stats: ResultCacheStats::default(),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Memoized outcomes currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }

    /// Looks up a memoized outcome, counting the hit or miss and
    /// refreshing the entry's LRU position on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<JobOutcome> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.touched = tick;
                self.stats.hits += 1;
                Some(entry.outcome.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a completed outcome, evicting the least-recently-used entry
    /// when full. Callers must only pass completed, non-resumed outcomes
    /// (see the module docs); a no-op at capacity 0.
    pub fn insert(&mut self, key: CacheKey, outcome: JobOutcome) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.outcome = outcome;
            entry.touched = tick;
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&lru);
                self.stats.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                outcome,
                touched: tick,
            },
        );
        self.stats.insertions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::EngineStatistics;

    fn outcome(gates: usize) -> JobOutcome {
        JobOutcome {
            gates_applied: gates,
            seconds: 0.0,
            final_nodes: 1,
            statistics: EngineStatistics::default(),
            top_probabilities: vec![(0, 1.0)],
            resumed: false,
            sample: None,
            aborted: None,
        }
    }

    fn key(marked: u64) -> CacheKey {
        let c = aq_circuits::grover(3, marked);
        CacheKey::new(
            &c,
            0,
            &SchemeSpec::Qomega,
            4,
            &RunBudget::unlimited().with_max_nodes(1000),
            None,
        )
    }

    #[test]
    fn keys_distinguish_circuit_scheme_start_and_budget_class() {
        let c = aq_circuits::grover(3, 1);
        let b = RunBudget::unlimited().with_max_nodes(1000);
        let base = CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, None);
        assert_eq!(base, CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, None));
        // same power-of-two budget class coalesces
        let near = RunBudget::unlimited().with_max_nodes(600);
        assert_eq!(
            base,
            CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &near, None)
        );
        // a different class does not
        let far = RunBudget::unlimited().with_max_nodes(100_000);
        assert_ne!(
            base,
            CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &far, None)
        );
        // deadlines are excluded from the key
        let dl = b.with_deadline(std::time::Duration::from_secs(1));
        assert_eq!(
            base,
            CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &dl, None)
        );
        // ε is part of the scheme label, so it is part of the key
        assert_ne!(
            CacheKey::new(&c, 0, &SchemeSpec::Numeric { eps: 0.0 }, 4, &b, None),
            CacheKey::new(&c, 0, &SchemeSpec::Numeric { eps: 1e-10 }, 4, &b, None),
        );
        assert_ne!(base, CacheKey::new(&c, 1, &SchemeSpec::Qomega, 4, &b, None));
        assert_ne!(base, CacheKey::new(&c, 0, &SchemeSpec::Qomega, 8, &b, None));
        let c2 = aq_circuits::grover(3, 2);
        assert_ne!(
            base,
            CacheKey::new(&c2, 0, &SchemeSpec::Qomega, 4, &b, None)
        );
    }

    /// Regression: a `run` and a `sample` over the same circuit, scheme
    /// and budget must never answer for each other — a histogram reply
    /// served where amplitudes were asked (or vice versa) would be a
    /// protocol corruption the client cannot detect.
    #[test]
    fn run_and_sample_keys_never_collide() {
        let c = aq_circuits::grover(3, 1);
        let b = RunBudget::unlimited().with_max_nodes(1000);
        let sp = |shots, seed| Some(SampleParams { shots, seed });
        let run = CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, None);
        let sample = CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, sp(1024, 0));
        assert_ne!(run, sample);
        // equal sampling parameters coalesce (bit-identical histograms)…
        assert_eq!(
            sample,
            CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, sp(1024, 0))
        );
        // …but shots and seed are both part of the identity
        assert_ne!(
            sample,
            CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, sp(2048, 0))
        );
        assert_ne!(
            sample,
            CacheKey::new(&c, 0, &SchemeSpec::Qomega, 4, &b, sp(1024, 1))
        );
    }

    #[test]
    fn lru_eviction_and_counters() {
        let mut cache = ResultCache::new(2);
        cache.insert(key(1), outcome(1));
        cache.insert(key(2), outcome(2));
        assert!(cache.get(&key(1)).is_some(), "touch 1 so 2 becomes LRU");
        cache.insert(key(3), outcome(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2)).is_none(), "2 was evicted as LRU");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        let s = cache.stats();
        assert_eq!(s.insertions, 3);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn capacity_zero_disables_storage() {
        let mut cache = ResultCache::new(0);
        cache.insert(key(1), outcome(1));
        assert!(cache.is_empty());
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().insertions, 0);
        assert_eq!(cache.stats().misses, 1);
    }
}
