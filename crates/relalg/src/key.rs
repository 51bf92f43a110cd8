//! Zero-allocation join keys for the materialized operators.
//!
//! Every hash join, semijoin, and `DISTINCT` projection in [`crate::ops`]
//! keys tuples by a fixed set of column positions. (The executor in
//! [`crate::exec`] does not use this module: its materialization
//! boundaries hash row slices in place.) The paper's workloads (3-COLOR
//! and SAT encodings of random graphs) join almost exclusively on one or
//! two variables, so the common case is a key of one or two [`Value`]s —
//! small enough to pack into a single `u64` instead of heap-allocating a
//! `Vec<Value>` per tuple.
//!
//! [`JoinKey`] is the canonical owned representation: keys of width ≤
//! [`INLINE_WIDTH`] are packed inline ([`JoinKey::Inline`]), wider keys
//! spill to one boxed slice ([`JoinKey::Spill`]). [`KeyedMap`] and
//! [`KeyedSet`] are hash containers specialized by key width at
//! construction time: the inline variant hashes bare `u64`s, and even the
//! wide variant probes without allocating by looking up `&[Value]` slices
//! through a caller-provided scratch buffer (`Box<[Value]>: Borrow<[Value]>`).
//! Wide *inserts* allocate only on the first occurrence of each distinct
//! key, never per probing tuple.

use rustc_hash::{FxHashMap, FxHashSet};

use crate::value::Value;

/// Widest key (in values) that packs inline without heap allocation.
///
/// [`Value`] is `u32`, so two values fill a `u64` exactly.
pub const INLINE_WIDTH: usize = 2;

/// An owned join key: the values of one tuple at the key positions.
///
/// Keys of width ≤ [`INLINE_WIDTH`] are packed into a `u64` and never
/// touch the heap; wider keys own one boxed slice. Within a single hash
/// table every key has the same width, so the packed representation is
/// unambiguous (width 1 packs as `v0`, width 2 as `v0 << 32 | v1`) and
/// `Ord` on the packed word is exactly the lexicographic order of the
/// extracted values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JoinKey {
    /// Key of ≤ [`INLINE_WIDTH`] values, packed big-endian into one word.
    Inline(u64),
    /// Key wider than [`INLINE_WIDTH`], spilled to the heap.
    Spill(Box<[Value]>),
}

impl JoinKey {
    /// Extracts the key of `row` at `positions`.
    #[inline]
    pub fn from_row(positions: &[usize], row: &[Value]) -> JoinKey {
        if positions.len() <= INLINE_WIDTH {
            JoinKey::Inline(pack(positions, row))
        } else {
            JoinKey::Spill(positions.iter().map(|&p| row[p]).collect())
        }
    }

    /// Whether this key is packed inline (no heap allocation).
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self, JoinKey::Inline(_))
    }
}

/// Packs ≤ [`INLINE_WIDTH`] values of `row` into one word. The width-0 key
/// (cross products) packs as `0`; all rows share it, which is exactly the
/// cross-product semantics.
#[inline]
pub fn pack(positions: &[usize], row: &[Value]) -> u64 {
    match positions {
        [] => 0,
        [a] => row[*a] as u64,
        [a, b] => ((row[*a] as u64) << 32) | row[*b] as u64,
        _ => panic!("pack called with key width > {INLINE_WIDTH}"),
    }
}

/// Fills `scratch` with the key values of `row` at `positions` and returns
/// it as a slice (the wide-key probe path).
#[inline]
fn extract<'a>(positions: &[usize], row: &[Value], scratch: &'a mut Vec<Value>) -> &'a [Value] {
    scratch.clear();
    scratch.extend(positions.iter().map(|&p| row[p]));
    scratch
}

/// A hash map keyed by join keys, representation-specialized by key width.
#[derive(Debug, Clone)]
pub enum KeyedMap<V> {
    /// Keys of width ≤ [`INLINE_WIDTH`]: bare packed words.
    Inline(FxHashMap<u64, V>),
    /// Wider keys: boxed slices, probed allocation-free via `&[Value]`.
    Wide(FxHashMap<Box<[Value]>, V>),
}

impl<V> KeyedMap<V> {
    /// An empty map for keys of `width` values, sized for `capacity`
    /// entries.
    pub fn with_capacity(width: usize, capacity: usize) -> Self {
        if width <= INLINE_WIDTH {
            let mut m = FxHashMap::default();
            m.reserve(capacity);
            KeyedMap::Inline(m)
        } else {
            let mut m = FxHashMap::default();
            m.reserve(capacity);
            KeyedMap::Wide(m)
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        match self {
            KeyedMap::Inline(m) => m.len(),
            KeyedMap::Wide(m) => m.len(),
        }
    }

    /// Whether the map holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether keys are packed inline.
    pub fn is_inline(&self) -> bool {
        matches!(self, KeyedMap::Inline(_))
    }

    /// The value slot for `row`'s key at `positions`, inserting a default
    /// on first occurrence. The wide path allocates only for keys not yet
    /// present; `scratch` is reused across calls.
    pub fn entry_or_default(
        &mut self,
        positions: &[usize],
        row: &[Value],
        scratch: &mut Vec<Value>,
    ) -> &mut V
    where
        V: Default,
    {
        match self {
            KeyedMap::Inline(m) => m.entry(pack(positions, row)).or_default(),
            KeyedMap::Wide(m) => {
                let key = extract(positions, row, scratch);
                if !m.contains_key(key) {
                    m.insert(key.into(), V::default());
                }
                m.get_mut(&scratch[..]).expect("just inserted")
            }
        }
    }

    /// Looks up `row`'s key at `positions`. Never allocates: the wide path
    /// probes with a `&[Value]` slice built in `scratch`.
    #[inline]
    pub fn get(&self, positions: &[usize], row: &[Value], scratch: &mut Vec<Value>) -> Option<&V> {
        match self {
            KeyedMap::Inline(m) => m.get(&pack(positions, row)),
            KeyedMap::Wide(m) => m.get(extract(positions, row, scratch)),
        }
    }
}

/// A hash set of join keys, representation-specialized by key width.
#[derive(Debug, Clone)]
pub enum KeyedSet {
    /// Keys of width ≤ [`INLINE_WIDTH`]: bare packed words.
    Inline(FxHashSet<u64>),
    /// Wider keys: boxed slices, probed allocation-free via `&[Value]`.
    Wide(FxHashSet<Box<[Value]>>),
}

impl KeyedSet {
    /// An empty set for keys of `width` values, sized for `capacity`
    /// entries.
    pub fn with_capacity(width: usize, capacity: usize) -> Self {
        if width <= INLINE_WIDTH {
            let mut s = FxHashSet::default();
            s.reserve(capacity);
            KeyedSet::Inline(s)
        } else {
            let mut s = FxHashSet::default();
            s.reserve(capacity);
            KeyedSet::Wide(s)
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        match self {
            KeyedSet::Inline(s) => s.len(),
            KeyedSet::Wide(s) => s.len(),
        }
    }

    /// Whether the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `row`'s key at `positions`; returns `true` if it was new.
    /// The wide path allocates only when the key was absent.
    #[inline]
    pub fn insert(&mut self, positions: &[usize], row: &[Value], scratch: &mut Vec<Value>) -> bool {
        match self {
            KeyedSet::Inline(s) => s.insert(pack(positions, row)),
            KeyedSet::Wide(s) => {
                let key = extract(positions, row, scratch);
                if s.contains(key) {
                    false
                } else {
                    s.insert(key.into())
                }
            }
        }
    }

    /// Whether `row`'s key at `positions` is present. Never allocates.
    #[inline]
    pub fn contains(&self, positions: &[usize], row: &[Value], scratch: &mut Vec<Value>) -> bool {
        match self {
            KeyedSet::Inline(s) => s.contains(&pack(positions, row)),
            KeyedSet::Wide(s) => s.contains(extract(positions, row, scratch)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_keys_pack_inline_without_allocation() {
        // The representation guarantee the operators rely on: keys of 0,
        // 1, or 2 values never spill to the heap.
        let row = [7u32, 8, 9, 10];
        assert!(JoinKey::from_row(&[], &row).is_inline());
        assert!(JoinKey::from_row(&[1], &row).is_inline());
        assert!(JoinKey::from_row(&[0, 3], &row).is_inline());
        assert!(!JoinKey::from_row(&[0, 1, 2], &row).is_inline());
        // Inline holds a bare u64: the whole enum fits in two words, with
        // no pointer to follow.
        assert!(std::mem::size_of::<JoinKey>() <= 2 * std::mem::size_of::<usize>());
    }

    #[test]
    fn packing_is_injective_per_width() {
        let a = [1u32, 2];
        let b = [2u32, 1];
        assert_ne!(pack(&[0, 1], &a), pack(&[0, 1], &b));
        assert_eq!(pack(&[0, 1], &a), pack(&[1, 0], &b));
        assert_eq!(pack(&[], &a), pack(&[], &b));
    }

    #[test]
    fn inline_order_is_lexicographic() {
        let lo = JoinKey::from_row(&[0, 1], &[1u32, 9]);
        let hi = JoinKey::from_row(&[0, 1], &[2u32, 0]);
        assert!(lo < hi);
    }

    #[test]
    fn keyed_map_inline_and_wide_agree() {
        for width in [1usize, 2, 3] {
            let positions: Vec<usize> = (0..width).collect();
            let mut map: KeyedMap<Vec<usize>> = KeyedMap::with_capacity(width, 4);
            assert_eq!(map.is_inline(), width <= INLINE_WIDTH);
            let mut scratch = Vec::new();
            let rows: Vec<Vec<Value>> = vec![vec![1; width], vec![2; width], vec![1; width]];
            for (i, row) in rows.iter().enumerate() {
                map.entry_or_default(&positions, row, &mut scratch).push(i);
            }
            assert_eq!(map.len(), 2);
            assert_eq!(
                map.get(&positions, &rows[0], &mut scratch),
                Some(&vec![0usize, 2])
            );
            assert_eq!(map.get(&positions, &vec![9u32; width], &mut scratch), None);
        }
    }

    #[test]
    fn keyed_set_inline_and_wide_agree() {
        for width in [1usize, 2, 3] {
            let positions: Vec<usize> = (0..width).collect();
            let mut set = KeyedSet::with_capacity(width, 4);
            let mut scratch = Vec::new();
            assert!(set.insert(&positions, &vec![5u32; width], &mut scratch));
            assert!(!set.insert(&positions, &vec![5u32; width], &mut scratch));
            assert!(set.contains(&positions, &vec![5u32; width], &mut scratch));
            assert!(!set.contains(&positions, &vec![6u32; width], &mut scratch));
            assert_eq!(set.len(), 1);
        }
    }
}
