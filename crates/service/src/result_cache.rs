//! Versioned result cache: rows with zero execution.
//!
//! The plan cache amortizes *planning*; this cache amortizes *execution*.
//! It is the serving-side analogue of reusing decompositions across
//! isomorphic instances: the key is
//! `(DbFingerprint, Fingerprint, Method, seed)` — a *content hash* of
//! the database crossed with the canonical query identity — so a
//! repeated query — under any variable renaming or atom reordering,
//! against the same database or any content-identical one (another name,
//! another load order, a recovered post-crash catalog) — returns its
//! rows without touching the executor, and **any content-changing
//! mutation invalidates naturally**: a `load`/`add` that changes the data
//! changes the fingerprint, the next request computes a key nobody has
//! written, and the stale entry simply ages out of the LRU. There is no
//! purge logic to get wrong — and nothing to *wrongly* purge: a restart
//! or a no-op mutation keeps the fingerprint, so warm entries survive
//! both.
//!
//! Results (unlike plans) have data-dependent size, so the budget is in
//! **bytes** (rows plus the cache's own per-entry bookkeeping), not
//! entries: strict LRU eviction runs until the cache fits, and an entry
//! bigger than the whole budget is refused outright (counted in
//! [`ResultCacheStats::oversized`]) rather than flushing everything
//! else. Fingerprints are 1-WL invariants with constructible collisions,
//! so — exactly like the plan cache — every entry stores the
//! [`QueryShape`] that built it and a lookup only hits on a shape match;
//! a mismatch is a counted collision and a miss, never wrong rows.
//!
//! Budgets are deliberately *not* part of the key: execution budgets
//! bound work, successful results are budget-independent (an exhausted
//! budget is an error, never a truncation), and a hit does no work at
//! all, so it cannot exceed any budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ppr_core::methods::Method;
use ppr_query::{Fingerprint, QueryShape};
use ppr_relalg::{ExecStats, Value};
use rustc_hash::FxHashMap;

use crate::catalog::DbFingerprint;

/// Result-cache key: which data (content hash), which query (canonical
/// fingerprint), and which plan family (method + tie-breaking seed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// Content fingerprint of the database the rows were computed at.
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

/// What the cache spends on an entry beside the result: its LRU node and
/// its slot in the key map. A Boolean result is smaller than this, so a
/// budget that left it out would be spent mostly on bookkeeping it never
/// counted — and how far the key map has to grow under a stream of such
/// results would hang on a few bytes of `CachedResult` layout.
const ENTRY_OVERHEAD: usize =
    std::mem::size_of::<Node>() + std::mem::size_of::<(ResultKey, usize)>();

const NIL: usize = usize::MAX;

struct Node {
    key: ResultKey,
    shape: QueryShape,
    result: Arc<CachedResult>,
    bytes: usize,
    prev: usize,
    next: usize,
}

struct Inner {
    map: FxHashMap<ResultKey, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Inner {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// Counter snapshot (plus occupancy) of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResultCacheStats {
    /// Lookups that returned cached rows.
    pub hits: u64,
    /// Lookups that found nothing (or a version-stale key).
    pub misses: u64,
    /// Entries displaced by the byte budget.
    pub evictions: u64,
    /// Key matches whose [`QueryShape`] differed — fingerprint collisions
    /// between structurally different queries, counted as misses.
    pub collisions: u64,
    /// Results refused because they alone exceed the byte budget.
    pub oversized: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Bytes currently cached (approximate; see
    /// [`CachedResult::approx_bytes`]).
    pub bytes: usize,
    /// The byte budget (0 = caching disabled).
    pub capacity_bytes: usize,
}

impl ResultCacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Thread-safe, byte-budgeted LRU cache from [`ResultKey`] to rows.
/// A zero budget disables caching entirely (every lookup misses, every
/// insert is dropped) — useful for isolating the plan cache in tests.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    oversized: AtomicU64,
}

impl ResultCache {
    /// A cache holding at most `capacity_bytes` of results (0 disables).
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                bytes: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
        }
    }

    /// Whether caching is enabled at all.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes > 0
    }

    /// Looks up `key`, refreshing recency on a hit. A key match with a
    /// different stored [`QueryShape`] is a collision: counted, missed,
    /// and left for [`insert`](ResultCache::insert) to displace.
    pub fn get(&self, key: &ResultKey, shape: &QueryShape) -> Option<Arc<CachedResult>> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock().expect("result cache lock");
        match inner.map.get(key).copied() {
            Some(i) if inner.nodes[i].shape == *shape => {
                inner.unlink(i);
                inner.push_front(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(inner.nodes[i].result.clone())
            }
            Some(_) => {
                self.collisions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts `result` under `key`, evicting LRU entries until the byte
    /// budget holds. A result bigger than the whole budget is refused. On
    /// a same-shape race the existing entry wins; a different shape
    /// (collision) displaces it.
    pub fn insert(&self, key: ResultKey, shape: QueryShape, result: Arc<CachedResult>) {
        if !self.enabled() {
            return;
        }
        let bytes = result.approx_bytes();
        if bytes > self.capacity_bytes {
            self.oversized.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut inner = self.inner.lock().expect("result cache lock");
        if let Some(&i) = inner.map.get(&key) {
            if inner.nodes[i].shape != shape {
                inner.bytes = inner.bytes - inner.nodes[i].bytes + bytes;
                inner.nodes[i].shape = shape;
                inner.nodes[i].result = result;
                inner.nodes[i].bytes = bytes;
            }
            inner.unlink(i);
            inner.push_front(i);
        } else {
            while inner.bytes + bytes > self.capacity_bytes && inner.tail != NIL {
                let lru = inner.tail;
                inner.unlink(lru);
                let old_key = inner.nodes[lru].key.clone();
                inner.map.remove(&old_key);
                inner.bytes -= inner.nodes[lru].bytes;
                inner.free.push(lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            let node = Node {
                key: key.clone(),
                shape,
                result,
                bytes,
                prev: NIL,
                next: NIL,
            };
            let i = match inner.free.pop() {
                Some(i) => {
                    inner.nodes[i] = node;
                    i
                }
                None => {
                    inner.nodes.push(node);
                    inner.nodes.len() - 1
                }
            };
            inner.push_front(i);
            inner.map.insert(key, i);
            inner.bytes += bytes;
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> ResultCacheStats {
        let inner = self.inner.lock().expect("result cache lock");
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
            len: inner.map.len(),
            bytes: inner.bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::parse_query;

    fn key(data: u128, fp: u128) -> ResultKey {
        ResultKey {
            data: DbFingerprint(data),
            fingerprint: Fingerprint(fp),
            method: Method::Straightforward,
            seed: 0,
        }
    }

    fn shape() -> QueryShape {
        QueryShape::of(&parse_query("q(x) :- e(x, y)").unwrap())
    }

    fn other_shape() -> QueryShape {
        QueryShape::of(&parse_query("q(x) :- e(x, y), e(y, z)").unwrap())
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
}
