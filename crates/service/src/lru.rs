//! The one LRU behind all three caches.
//!
//! [`Lru`] maps a key to a value plus the [`QueryShape`] of the query
//! that built it. Every key here carries a 1-WL query fingerprint, which
//! non-isomorphic queries can share, so a lookup only hits on a shape
//! match. A mismatch counts as a miss and a `collision`, and the next
//! insert under the key displaces the entry: a collision costs
//! recomputation, never a wrong answer.
//!
//! One `Mutex` guards the counters, the key map, and a doubly-linked
//! list threaded through a slab, so `get` and `insert` are O(1). Each
//! entry weighs [`CacheValue::weight`] against the budget (1 for plans
//! and orders, bytes for results); an insert evicts from the cold end
//! until the budget holds, and refuses a value heavier than the whole
//! budget (`oversized`). A zero budget holds and counts nothing.

use std::hash::Hash;
use std::sync::Mutex;

use ppr_query::QueryShape;
use rustc_hash::FxHashMap;

/// A value an [`Lru`] can hold.
pub trait CacheValue: Clone {
    /// What [`Lru::stats`] reports for a cache of these values.
    type Stats: From<CacheStats>;

    /// Weight against the budget; the default 1 makes it an entry count.
    fn weight(&self) -> usize {
        1
    }
}

/// Counter snapshot (plus occupancy) of an [`Lru`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry for the query's shape.
    pub hits: u64,
    /// Lookups that found none.
    pub misses: u64,
    /// Entries displaced by budget pressure.
    pub evictions: u64,
    /// Key matches with another [`QueryShape`]; each is also a miss.
    pub collisions: u64,
    /// Inserts refused because the value alone exceeds the budget.
    pub oversized: u64,
    /// Entries currently cached.
    pub len: usize,
    /// Summed weight of the cached entries.
    pub weight: usize,
    /// The budget, in units of [`CacheValue::weight`].
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// What a cache spends on one entry beside its value: the slab slot and
/// the key map's `(key, slot)` pair.
pub(crate) const fn entry_overhead<K, V>() -> usize {
    std::mem::size_of::<Option<Node<K, V>>>() + std::mem::size_of::<(K, usize)>()
}

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    shape: QueryShape,
    value: V,
    weight: usize,
    prev: usize,
    next: usize,
}

struct Inner<K, V> {
    map: FxHashMap<K, usize>,
    /// `None` is a free slot: eviction drops the value at once.
    nodes: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    /// The counters, the budget, and the live weight; `len` is the map's.
    stats: CacheStats,
}

impl<K: Eq + Hash, V> Inner<K, V> {
    fn node(&mut self, i: usize) -> &mut Node<K, V> {
        self.nodes[i].as_mut().expect("linked slot is live")
    }

    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = *self.node(i);
        if prev == NIL {
            self.head = next;
        } else {
            self.node(prev).next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.node(next).prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        let head = self.head;
        (self.node(i).prev, self.node(i).next) = (NIL, head);
        if head == NIL {
            self.tail = i;
        } else {
            self.node(head).prev = i;
        }
        self.head = i;
    }

    /// Marks `i` most recently used.
    fn touch(&mut self, i: usize) -> &mut Node<K, V> {
        self.unlink(i);
        self.push_front(i);
        self.node(i)
    }

    /// Unlinks and frees slot `i`, dropping its value at once.
    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let node = self.nodes[i].take().expect("linked slot is live");
        self.map.remove(&node.key);
        self.stats.weight -= node.weight;
        self.free.push(i);
    }
}

/// Thread-safe, shape-checked, weight-budgeted LRU from `K` to `V`.
pub struct Lru<K, V> {
    inner: Mutex<Inner<K, V>>,
    budget: usize,
}

impl<K: Eq + Hash + Clone, V: CacheValue> Lru<K, V> {
    /// A cache holding entries of summed weight at most `budget`.
    pub fn new(budget: usize) -> Self {
        Lru {
            inner: Mutex::new(Inner {
                map: FxHashMap::default(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                stats: CacheStats {
                    capacity: budget,
                    ..CacheStats::default()
                },
            }),
            budget,
        }
    }

    /// Whether the budget admits anything at all.
    pub fn enabled(&self) -> bool {
        self.budget > 0
    }

    /// Whether [`insert`](Lru::insert) would keep `value` rather than
    /// refuse it as heavier than the whole budget.
    pub fn admits(&self, value: &V) -> bool {
        value.weight() <= self.budget
    }

    /// The value under `key` if it was built for `shape`, refreshing its
    /// recency; a key match for another shape is a counted collision.
    pub fn get(&self, key: &K, shape: &QueryShape) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let found = inner.map.get(key).copied();
        let Some(i) = found.filter(|&i| inner.node(i).shape == *shape) else {
            inner.stats.misses += 1;
            inner.stats.collisions += found.is_some() as u64;
            return None;
        };
        inner.stats.hits += 1;
        Some(inner.touch(i).value.clone())
    }

    /// Makes `value` the most recently used entry under `key`, evicts
    /// until the budget holds, and returns the value now resident: a
    /// same-shape entry already there wins (racing requests for one query
    /// share one value), another shape is displaced, and a value heavier
    /// than the budget is refused and handed back.
    pub fn insert(&self, key: K, shape: QueryShape, value: V) -> V {
        let weight = value.weight();
        let mut inner = self.inner.lock().expect("cache lock");
        if weight > self.budget {
            inner.stats.oversized += self.enabled() as u64;
            return value;
        }
        if let Some(i) = inner.map.get(&key).copied() {
            if inner.node(i).shape == shape {
                return inner.touch(i).value.clone();
            }
            inner.remove(i);
        }
        // Evict first, so the key map never outgrows what stays. The new
        // entry fits alone, so the list cannot run dry before it fits.
        while inner.stats.weight + weight > self.budget {
            let lru = inner.tail;
            inner.remove(lru);
            inner.stats.evictions += 1;
        }
        let i = inner.free.pop().unwrap_or(inner.nodes.len());
        if i == inner.nodes.len() {
            inner.nodes.push(None);
        }
        inner.nodes[i] = Some(Node {
            key: key.clone(),
            shape,
            value: value.clone(),
            weight,
            prev: NIL,
            next: NIL,
        });
        inner.map.insert(key, i);
        inner.stats.weight += weight;
        inner.push_front(i);
        value
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> V::Stats {
        let inner = self.inner.lock().expect("cache lock");
        let len = inner.map.len();
        CacheStats { len, ..inner.stats }.into()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::collections::VecDeque;

    use super::*;
    use ppr_query::parse_query;
    use proptest::prelude::*;

    pub(crate) fn shape() -> QueryShape {
        QueryShape::of(&parse_query("q(x) :- e(x, y)").unwrap())
    }

    pub(crate) fn other_shape() -> QueryShape {
        QueryShape::of(&parse_query("q(x) :- e(x, y), e(y, z)").unwrap())
    }

    /// `(id, weight)`.
    impl CacheValue for (usize, usize) {
        type Stats = CacheStats;
        fn weight(&self) -> usize {
            self.1
        }
    }

    /// [`Lru`]'s rules the slow way: `(key, shape, value)`, hottest first.
    #[derive(Default)]
    struct Model {
        budget: usize,
        entries: VecDeque<(u8, usize, (usize, usize))>,
        stats: CacheStats,
    }

    impl Model {
        fn weight(&self) -> usize {
            self.entries.iter().map(|e| e.2 .1).sum()
        }

        fn get(&mut self, key: u8, shape: usize) -> Option<(usize, usize)> {
            if self.budget == 0 {
                return None;
            }
            let found = self.entries.iter().position(|e| e.0 == key);
            let Some(i) = found.filter(|&i| self.entries[i].1 == shape) else {
                self.stats.misses += 1;
                self.stats.collisions += found.is_some() as u64;
                return None;
            };
            self.stats.hits += 1;
            let entry = self.entries.remove(i)?;
            self.entries.push_front(entry);
            Some(entry.2)
        }

        fn insert(&mut self, key: u8, shape: usize, value: (usize, usize)) -> (usize, usize) {
            if value.1 > self.budget {
                self.stats.oversized += (self.budget > 0) as u64;
                return value;
            }
            let i = self.entries.iter().position(|e| e.0 == key);
            let old = i.and_then(|i| self.entries.remove(i));
            let entry = old.filter(|e| e.1 == shape).unwrap_or((key, shape, value));
            self.entries.push_front(entry);
            while self.weight() > self.budget {
                self.entries.pop_back();
                self.stats.evictions += 1;
            }
            self.entries[0].2
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Gets and inserts over six keys and two shapes match the model under
        /// a count-like (every weight 1), a weighted, and a zero budget.
        #[test]
        fn matches_the_model(
            mode in 0u32..3,
            budget in 1usize..=12,
            ops in prop::collection::vec((prop::bool::ANY, 0u8..6, 0usize..2, 1usize..=5), 1..80),
        ) {
            let shapes = [shape(), other_shape()];
            let budget = if mode == 2 { 0 } else { budget };
            let lru = Lru::<u8, (usize, usize)>::new(budget);
            let mut model = Model { budget, ..Model::default() };
            for (id, &(is_get, key, s, weight)) in ops.iter().enumerate() {
                let value = (id, if mode == 0 { 1 } else { weight });
                if is_get {
                    prop_assert_eq!(lru.get(&key, &shapes[s]), model.get(key, s));
                } else {
                    prop_assert_eq!(lru.insert(key, shapes[s].clone(), value), model.insert(key, s, value));
                }
                let (len, weight) = (model.entries.len(), model.weight());
                prop_assert_eq!(lru.stats(), CacheStats { len, weight, capacity: budget, ..model.stats });
                prop_assert!(weight <= budget);
            }
        }
    }
}
