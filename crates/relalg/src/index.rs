//! Per-column secondary indexes over materialized relations.
//!
//! A [`ColumnIndex`] maps each value of one column to the (ascending) row
//! positions holding it. The streaming executor probes these instead of
//! building a per-query hash table: the index is built **lazily** on first
//! use and cached on the [`crate::relation::Relation`] itself, so every
//! query running against the same `Arc`-shared snapshot reuses it. The
//! catalog's copy-on-write updates keep this sound — cloning a relation
//! starts with a cold cache, and in-place mutation clears it.
//!
//! An index is a hash-join build keyed on its one column: the column is
//! copied into a one-column row buffer and grouped by the routine that
//! builds a join's build side (`rows::Buffers::group`), so the executor
//! has one grouping table. Its postings are ascending row positions, which
//! is what lets the streaming executor's `IxJoin` reproduce a per-query
//! hash join's output byte for byte: probing an index yields matches in
//! exactly the order a per-query build table would have recorded them.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::relation::Relation;
use crate::rows::{Buffers, GroupIndex};
use crate::value::Value;

/// A secondary index on one column: value → ascending row positions.
pub struct ColumnIndex {
    /// Distinct key values in first-occurrence row order — exactly the
    /// result of `SELECT DISTINCT col` under the executor's
    /// first-occurrence dedup, which is what `IxScan` streams.
    first_keys: Vec<Value>,
    /// The column's values grouped by value.
    groups: GroupIndex,
}

impl ColumnIndex {
    /// Builds the index over column `col` of `rel`: one copy of the column
    /// and one grouping pass over it.
    pub fn build(rel: &Relation, col: usize) -> ColumnIndex {
        assert!(
            col < rel.arity(),
            "column {col} out of range for arity {}",
            rel.arity()
        );
        let mut buffers = Buffers::default();
        let column = buffers.column(rel.rows().map(|row| row[col]));
        let mut groups = buffers.group(column, &[0]);
        groups.shrink_to_fit();
        let first_keys = groups.first_rows().map(|row| row[0]).collect();
        ColumnIndex { first_keys, groups }
    }

    /// Row positions holding `v`, ascending; empty when `v` is absent.
    #[inline]
    pub fn postings(&self, v: Value) -> &[u32] {
        self.groups.get(&[0], &[0], &[v])
    }

    /// Distinct key values in first-occurrence row order.
    #[inline]
    pub fn first_keys(&self) -> &[Value] {
        &self.first_keys
    }
}

impl fmt::Debug for ColumnIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColumnIndex({} keys)", self.first_keys.len())
    }
}

/// Lazily-populated per-column index slots carried by every
/// [`Relation`]. Thread-safe through `OnceLock` so concurrent queries
/// against one shared snapshot race at most on who builds first.
///
/// `Clone` deliberately yields a **cold** cache: a cloned relation may be
/// mutated (the catalog's copy-on-write path), and stale postings must
/// never survive that.
pub(crate) struct IndexCache {
    slots: OnceLock<Box<[OnceLock<Arc<ColumnIndex>>]>>,
}

impl IndexCache {
    /// The slot for column `col`, allocating the slot array (sized by
    /// `arity`) on first use.
    pub(crate) fn slot(&self, arity: usize, col: usize) -> &OnceLock<Arc<ColumnIndex>> {
        let slots = self
            .slots
            .get_or_init(|| (0..arity).map(|_| OnceLock::new()).collect());
        &slots[col]
    }

    /// Number of indexes currently built.
    pub(crate) fn built(&self) -> usize {
        self.slots
            .get()
            .map_or(0, |s| s.iter().filter(|l| l.get().is_some()).count())
    }
}

impl Default for IndexCache {
    fn default() -> Self {
        IndexCache {
            slots: OnceLock::new(),
        }
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache::default()
    }
}

impl fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IndexCache({} built)", self.built())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, Schema};
    use crate::value::tuple;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn rel(rows: &[[Value; 2]]) -> Relation {
        Relation::new(
            "r",
            Schema::new(vec![AttrId(0), AttrId(1)]),
            rows.iter().map(|r| tuple(r)).collect(),
        )
    }

    #[test]
    fn postings_are_ascending_and_complete() {
        let r = rel(&[[1, 10], [2, 20], [1, 30], [2, 40], [1, 50]]);
        let ix = ColumnIndex::build(&r, 0);
        assert_eq!(ix.postings(1), &[0, 2, 4]);
        assert_eq!(ix.postings(2), &[1, 3]);
        assert_eq!(ix.postings(9), &[] as &[u32]);
    }

    #[test]
    fn first_keys_preserve_first_occurrence_order() {
        let r = rel(&[[3, 0], [1, 0], [3, 0], [2, 0], [1, 0]]);
        let ix = ColumnIndex::build(&r, 0);
        assert_eq!(ix.first_keys(), &[3, 1, 2]);
    }

    #[test]
    fn second_column_indexes_independently() {
        let r = rel(&[[1, 7], [2, 7], [3, 8]]);
        let ix = ColumnIndex::build(&r, 1);
        assert_eq!(ix.postings(7), &[0, 1]);
        assert_eq!(ix.first_keys(), &[7, 8]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Up to 9 000 rows, so relations on both sides of 4 096 rows (where
        /// an earlier layout switched representation) are drawn, over
        /// domains from one key to nearly all-distinct keys.
        #[test]
        fn postings_and_first_keys_match_a_btreemap_model(
            cells in prop::collection::vec(0u32..u32::MAX, 0..=9000),
            domain in 1u32..6000,
            col in 0usize..2,
        ) {
            let rows: Vec<[Value; 2]> = cells.iter().map(|&c| [c % domain, c / domain]).collect();
            let ix = ColumnIndex::build(&rel(&rows), col);
            let mut model: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
            let mut first_keys = Vec::new();
            for (id, row) in rows.iter().enumerate() {
                let ids = model.entry(row[col]).or_default();
                if ids.is_empty() {
                    first_keys.push(row[col]);
                }
                ids.push(id as u32);
            }
            for (&key, ids) in &model {
                let postings = ix.postings(key);
                prop_assert!(postings.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(postings, ids.as_slice());
            }
            let absent = (0..).find(|v| !model.contains_key(v)).expect("a free value");
            prop_assert!(ix.postings(absent).is_empty());
            prop_assert!(ix.postings(Value::MAX).is_empty());
            prop_assert_eq!(ix.first_keys(), first_keys.as_slice());
        }
    }
}
