//! Versioned result cache: rows with zero execution.
//!
//! The plan cache amortizes *planning*; this cache amortizes *execution*.
//! It is the serving-side analogue of reusing decompositions across
//! isomorphic instances: the key is
//! `(DbFingerprint, Fingerprint, Method, seed)` — a *content hash* of
//! the relations the query's atoms name
//! ([`crate::catalog::fingerprint_relations`]) crossed with the
//! canonical query identity — so a repeated query — under any variable
//! renaming or atom reordering, against the same database or any whose
//! read relations have the same content (another name, another load
//! order, other unread relations, a recovered post-crash catalog) —
//! returns its rows without touching the executor, and **a mutation
//! invalidates exactly what it must**: a `load`/`add` that changes a
//! relation's content changes the key of every query that reads it, the
//! next such request computes a key nobody has written, and the stale
//! entry simply ages out of the LRU; queries over other relations keep
//! their keys and stay warm. There is no purge logic to get wrong — and
//! nothing to *wrongly* purge: a restart or a no-op mutation keeps the
//! fingerprint, so warm entries survive both.
//!
//! Results (unlike plans) have data-dependent size, so the cache is an
//! [`Lru`] budgeted in **bytes**: [`CachedResult::approx_bytes`].
//!
//! An entry is an `Arc<CachedResult>` shared, not copied: the engine
//! inserts the same `Arc` its miss answered with, and a hit's
//! [`Lru::get`] hands back a clone of the `Arc` the worker encodes the
//! reply from. Rows are copied only where a result leaves the crate as
//! an owned [`crate::engine::Response`].
//!
//! Budgets are deliberately *not* part of the key: execution budgets
//! bound work, successful results are budget-independent (an exhausted
//! budget is an error, never a truncation), and a hit does no work at
//! all, so it cannot exceed any budget.

use std::sync::Arc;

use ppr_core::methods::Method;
use ppr_query::Fingerprint;
use ppr_relalg::{ExecStats, Value};

use crate::catalog::DbFingerprint;
use crate::lru::{self, CacheStats, CacheValue, Lru};

/// Key of the result and plan caches: which data (content hash of the
/// relations the query reads), which query (canonical fingerprint), and
/// which plan family (method + tie-breaking seed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Content fingerprint of the relations the query reads, as they
    /// were when the entry was computed.
    pub data: DbFingerprint,
    /// Canonical query fingerprint.
    pub fingerprint: Fingerprint,
    /// Planning method.
    pub method: Method,
    /// Effective planner seed.
    pub seed: u64,
}

/// The cached outcome of one successful evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult {
    /// Output column names of the query that produced the rows. Cached
    /// per *fingerprint*, so a renamed variant of the query receives the
    /// original's column names; positions (and rows) are identical.
    pub columns: Vec<String>,
    /// Result rows, byte-identical to cold execution at this version.
    pub rows: Vec<Box<[Value]>>,
    /// Stats of the execution that originally produced the rows.
    pub stats: ExecStats,
}

impl CachedResult {
    /// Approximate footprint as a cache entry, used for the byte budget.
    /// Counts the row payload exactly, the per-row/column overheads
    /// approximately, and the cache's own `ENTRY_OVERHEAD`; the budget
    /// is a sizing knob, not an allocator audit.
    pub fn approx_bytes(&self) -> usize {
        let row_overhead = std::mem::size_of::<Box<[Value]>>();
        let rows: usize = self
            .rows
            .iter()
            .map(|r| r.len() * std::mem::size_of::<Value>() + row_overhead)
            .sum();
        let columns: usize = self.columns.iter().map(|c| c.len() + 24).sum();
        rows + columns + std::mem::size_of::<Self>() + ENTRY_OVERHEAD
    }
}

/// What the cache spends on an entry beside the result. A Boolean result
/// is smaller than this, so a budget that left it out would be spent
/// mostly on bookkeeping it never counted.
const ENTRY_OVERHEAD: usize = lru::entry_overhead::<ResultKey, Arc<CachedResult>>();

impl CacheValue for Arc<CachedResult> {
    type Stats = ResultCacheStats;

    fn weight(&self) -> usize {
        self.approx_bytes()
    }
}

/// Thread-safe, byte-budgeted LRU cache from [`ResultKey`] to rows.
/// A zero budget disables caching entirely (every lookup misses, every
/// insert is dropped) — useful for isolating the plan cache in tests.
pub type ResultCache = Lru<ResultKey, Arc<CachedResult>>;

/// Counter snapshot (plus occupancy) of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    /// [`CacheStats::hits`].
    pub hits: u64,
    /// [`CacheStats::misses`].
    pub misses: u64,
    /// [`CacheStats::evictions`].
    pub evictions: u64,
    /// [`CacheStats::collisions`].
    pub collisions: u64,
    /// [`CacheStats::oversized`].
    pub oversized: u64,
    /// [`CacheStats::len`].
    pub len: usize,
    /// Bytes currently cached, by [`CachedResult::approx_bytes`].
    pub bytes: usize,
    /// The byte budget (0 = caching disabled).
    pub capacity_bytes: usize,
}

impl ResultCacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

impl From<CacheStats> for ResultCacheStats {
    fn from(s: CacheStats) -> Self {
        ResultCacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            collisions: s.collisions,
            oversized: s.oversized,
            len: s.len,
            bytes: s.weight,
            capacity_bytes: s.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::tests::{other_shape, shape};

    fn key(data: u128, fp: u128) -> ResultKey {
        ResultKey {
            data: DbFingerprint(data),
            fingerprint: Fingerprint(fp),
            method: Method::Straightforward,
            seed: 0,
        }
    }

    fn result(rows: usize, tag: u32) -> Arc<CachedResult> {
        Arc::new(CachedResult {
            columns: vec!["x".into()],
            rows: (0..rows as Value)
                .map(|i| vec![tag as Value, i].into_boxed_slice())
                .collect(),
            stats: ExecStats::default(),
        })
    }

    #[test]
    fn hit_returns_rows_and_counts() {
        let c = ResultCache::new(1 << 16);
        assert!(c.get(&key(1, 7), &shape()).is_none());
        c.insert(key(1, 7), shape(), result(3, 9));
        let hit = c.get(&key(1, 7), &shape()).unwrap();
        assert_eq!(hit.rows.len(), 3);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert!(s.bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn data_fingerprint_is_part_of_the_key() {
        let c = ResultCache::new(1 << 16);
        c.insert(key(1, 7), shape(), result(3, 9));
        assert!(
            c.get(&key(2, 7), &shape()).is_none(),
            "a content change must miss"
        );
        // …but the same content under any other name/version hits: only
        // the fingerprint identifies the data.
        assert!(c.get(&key(1, 7), &shape()).is_some());
    }

    #[test]
    fn shape_mismatch_is_a_collision() {
        let c = ResultCache::new(1 << 16);
        c.insert(key(1, 7), shape(), result(2, 1));
        assert!(c.get(&key(1, 7), &other_shape()).is_none());
        let s = c.stats();
        assert_eq!((s.collisions, s.misses), (1, 1));
        // The colliding query's result displaces the entry.
        c.insert(key(1, 7), other_shape(), result(5, 2));
        assert_eq!(c.get(&key(1, 7), &other_shape()).unwrap().rows.len(), 5);
        assert_eq!(c.stats().len, 1);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let one = result(10, 0).approx_bytes();
        let c = ResultCache::new(one * 2 + one / 2); // fits 2, not 3
        c.insert(key(1, 1), shape(), result(10, 1));
        c.insert(key(1, 2), shape(), result(10, 2));
        assert!(c.get(&key(1, 1), &shape()).is_some()); // 2 is LRU
        c.insert(key(1, 3), shape(), result(10, 3));
        assert!(c.get(&key(1, 2), &shape()).is_none(), "LRU evicted");
        assert!(c.get(&key(1, 1), &shape()).is_some());
        assert!(c.get(&key(1, 3), &shape()).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= s.capacity_bytes);
    }

    #[test]
    fn budget_counts_the_entry_bookkeeping() {
        let boolean = CachedResult {
            columns: Vec::new(),
            rows: vec![Vec::new().into_boxed_slice()],
            stats: ExecStats::default(),
        };
        assert!(boolean.approx_bytes() > std::mem::size_of::<CachedResult>() + ENTRY_OVERHEAD);
        // The slab slot and key-map pair; a change moves how many results
        // fit a given budget.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(ENTRY_OVERHEAD, 192);
    }

    #[test]
    fn oversized_results_are_refused_without_flushing() {
        let small = result(2, 0).approx_bytes();
        let c = ResultCache::new(small + small / 2);
        c.insert(key(1, 1), shape(), result(2, 1));
        c.insert(key(1, 2), shape(), result(10_000, 2));
        let s = c.stats();
        assert_eq!(s.oversized, 1);
        assert_eq!(s.evictions, 0, "the oversized insert must not evict");
        assert!(c.get(&key(1, 1), &shape()).is_some());
    }

    #[test]
    fn zero_budget_disables() {
        let c = ResultCache::new(0);
        assert!(!c.enabled());
        c.insert(key(1, 1), shape(), result(2, 1));
        assert!(c.get(&key(1, 1), &shape()).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (0, 0, 0));
    }

    #[test]
    fn same_shape_race_keeps_first() {
        let c = ResultCache::new(1 << 16);
        c.insert(key(1, 1), shape(), result(2, 1));
        c.insert(key(1, 1), shape(), result(9, 2));
        assert_eq!(c.get(&key(1, 1), &shape()).unwrap().rows.len(), 2);
        assert_eq!(c.stats().len, 1);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let c = Arc::new(ResultCache::new(1 << 14));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
                    let k = key(1, ((t * 4 + i) % 16) as u128);
                    if c.get(&k, &shape()).is_none() {
                        c.insert(k, shape(), result(3, i as u32));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert!(s.bytes <= s.capacity_bytes);
    }

    #[test]
    fn colliding_insert_stays_within_the_byte_budget() {
        // Two small entries, then a colliding result under the first key
        // that fits the budget alone but not beside the second.
        let small = result(2, 0).approx_bytes();
        let big = result(40, 0).approx_bytes();
        let c = ResultCache::new(big + small / 2);
        c.insert(key(1, 1), shape(), result(2, 1));
        c.insert(key(1, 2), shape(), result(2, 2));
        c.insert(key(1, 1), other_shape(), result(40, 3));
        let s = c.stats();
        assert!(s.bytes <= s.capacity_bytes, "over budget: {s:?}");
        assert_eq!((s.len, s.evictions), (1, 1));
        assert_eq!(c.get(&key(1, 1), &other_shape()).unwrap().rows.len(), 40);
    }

    #[test]
    fn evicted_results_are_dropped() {
        let small = result(2, 0).approx_bytes();
        let c = ResultCache::new(4 * small);
        let held: Vec<_> = (0..4).map(|i| result(2, i)).collect();
        for (i, r) in held.iter().enumerate() {
            c.insert(key(1, i as u128), shape(), r.clone());
        }
        // One insert that pushes out at least two of them.
        let big = (2..)
            .map(|n| result(n, 9))
            .find(|r| r.approx_bytes() > 2 * small);
        c.insert(key(1, 9), shape(), big.unwrap());
        let evicted = c.stats().evictions as usize;
        assert!(evicted >= 2);
        for r in &held[..evicted] {
            assert_eq!(Arc::strong_count(r), 1, "an evicted result is still held");
        }
    }
}
