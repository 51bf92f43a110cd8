//! Flat row storage and row-id hash tables — what a materialization
//! boundary is made of inside the executor.
//!
//! [`Rows`] keeps a boundary's rows back to back in one `Vec<Value>`, so
//! materializing a row costs amortised vector growth instead of a `malloc`.
//! [`RowSet`] (the `DISTINCT` sink) and [`GroupIndex`] (the hash-join build)
//! are open-addressing tables of `u32` row ids *into* that buffer: they own
//! no keys, hashing and comparing the row slices in place. Row ids are `u32`
//! like [`crate::index::ColumnIndex`] postings; the sink refuses to grow a
//! boundary past [`MAX_ROWS`] (see [`crate::exec::Sink`]).

use std::hash::Hasher;

use rustc_hash::FxHasher;

use crate::value::{Tuple, Value};

/// `len` rows of `arity` values each, stored contiguously. `len` is explicit
/// because Boolean subqueries have arity 0: rows that occupy no values.
#[derive(Debug)]
pub(crate) struct Rows {
    arity: usize,
    len: usize,
    data: Vec<Value>,
}

impl Rows {
    pub(crate) fn new(arity: usize) -> Rows {
        Rows {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Single-column rows, one per value.
    pub(crate) fn from_column(values: &[Value]) -> Rows {
        Rows {
            arity: 1,
            len: values.len(),
            data: values.to_vec(),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        debug_assert!(i < self.len);
        &self.data[i * self.arity..][..self.arity]
    }

    /// Appends one row; `values` must yield exactly `arity` values.
    #[inline]
    pub(crate) fn push(&mut self, values: impl IntoIterator<Item = Value>) {
        self.data.extend(values);
        self.len += 1;
        debug_assert_eq!(self.data.len(), self.len * self.arity);
    }

    fn pop(&mut self) {
        self.len -= 1;
        self.data.truncate(self.len * self.arity);
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// The rows as owned tuples — the one per-row allocation, paid at the
    /// plan root where a [`crate::Relation`] is built.
    pub(crate) fn into_tuples(self) -> Vec<Tuple> {
        self.iter().map(Box::from).collect()
    }
}

#[inline]
fn hash_values(values: impl Iterator<Item = Value>) -> u64 {
    let mut hasher = FxHasher::default();
    for v in values {
        hasher.write_u32(v);
    }
    hasher.finish()
}

const EMPTY: u32 = u32::MAX;
const MIN_SLOTS: usize = 8;

/// Most rows a buffer may hold and still have every row id below [`EMPTY`].
pub(crate) const MAX_ROWS: usize = EMPTY as usize;

/// Linear-probing table of row ids at ≤ 1/2 load. What an id's key is — the
/// whole row, some of its columns — is the caller's business, supplied as
/// hash and match closures. Allocates nothing until the first insert.
#[derive(Debug, Default)]
struct IdTable {
    /// Empty or a power of two long.
    slots: Vec<u32>,
    used: usize,
}

impl IdTable {
    /// Makes room for one more id, doubling the table (and re-placing every
    /// id by `hash_of`) when that would pass half load.
    fn reserve_one(&mut self, hash_of: impl Fn(u32) -> u64) {
        if (self.used + 1) * 2 <= self.slots.len() {
            return;
        }
        let grown = vec![EMPTY; (self.slots.len() * 2).max(MIN_SLOTS)];
        for id in std::mem::replace(&mut self.slots, grown) {
            if id != EMPTY {
                let slot = self
                    .find(hash_of(id), |_| false)
                    .expect_err("nothing matches");
                self.slots[slot] = id;
            }
        }
    }

    /// The stored id `is_match` accepts, or else the empty slot that ended
    /// the probe — where [`IdTable::occupy`] puts a new id. The table must
    /// not be empty.
    #[inline]
    fn find(&self, hash: u64, is_match: impl Fn(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                id if is_match(id) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `id` in the slot a failed [`IdTable::find`] returned, after a
    /// [`IdTable::reserve_one`].
    #[inline]
    fn occupy(&mut self, slot: usize, id: u32) {
        self.slots[slot] = id;
        self.used += 1;
    }
}

/// The set of distinct rows of a [`Rows`] buffer, as ids into it.
#[derive(Debug, Default)]
pub(crate) struct RowSet(IdTable);

impl RowSet {
    /// De-duplicates `rows`' last row against the rows before it (all of
    /// which went through this call): pops it and returns `false` when an
    /// equal row is already there, so first occurrences stay in push order.
    #[inline]
    pub(crate) fn keep_last_if_new(&mut self, rows: &mut Rows) -> bool {
        let hash_of = |id: u32| hash_values(rows.row(id as usize).iter().copied());
        self.0.reserve_one(hash_of);
        let id = (rows.len() - 1) as u32;
        let last = rows.row(id as usize);
        match self.0.find(hash_of(id), |r| rows.row(r as usize) == last) {
            Ok(_) => {
                rows.pop();
                false
            }
            Err(slot) => {
                self.0.occupy(slot, id);
                true
            }
        }
    }
}

/// A hash-join build side: rows grouped by their key columns into a CSR
/// `offsets`/`postings` pair. Postings are ascending row ids — the order a
/// per-key `Vec` filled in row order would hold — which is what keeps join
/// output order (and so every budget trip point) independent of this layout.
#[derive(Debug)]
pub(crate) struct GroupIndex {
    rows: Rows,
    key_pos: Vec<usize>,
    /// First row id of each group, keyed by that row's key columns.
    firsts: IdTable,
    /// Row id → group number (groups are numbered by first occurrence).
    group_of: Vec<u32>,
    /// Group `g`'s row ids are `postings[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    postings: Vec<u32>,
}

impl GroupIndex {
    /// Groups `rows` (at most [`MAX_ROWS`]) by the columns `key_pos`.
    pub(crate) fn build(rows: Rows, key_pos: Vec<usize>) -> GroupIndex {
        let (all, pos) = (&rows, &key_pos);
        let key = |id: u32| pos.iter().map(move |&p| all.row(id as usize)[p]);
        let mut firsts = IdTable::default();
        let mut group_of: Vec<u32> = Vec::with_capacity(rows.len());
        // Group sizes first, turned into start offsets below.
        let mut offsets: Vec<u32> = Vec::new();
        for id in 0..rows.len() as u32 {
            firsts.reserve_one(|r| hash_values(key(r)));
            let group = match firsts.find(hash_values(key(id)), |r| key(r).eq(key(id))) {
                Ok(first) => group_of[first as usize],
                Err(slot) => {
                    firsts.occupy(slot, id);
                    offsets.push(0);
                    (offsets.len() - 1) as u32
                }
            };
            group_of.push(group);
            offsets[group as usize] += 1;
        }
        // Counting sort: running ends, then fill each group from its end
        // backwards in descending row order, leaving `offsets` at the starts.
        let mut end = 0;
        for size in &mut offsets {
            end += *size;
            *size = end;
        }
        let mut postings = vec![0; rows.len()];
        for (id, &group) in group_of.iter().enumerate().rev() {
            let at = &mut offsets[group as usize];
            *at -= 1;
            postings[*at as usize] = id as u32;
        }
        offsets.push(end);
        GroupIndex {
            rows,
            key_pos,
            firsts,
            group_of,
            offsets,
            postings,
        }
    }

    #[inline]
    pub(crate) fn row(&self, id: u32) -> &[Value] {
        self.rows.row(id as usize)
    }

    /// Ids of the rows whose key columns equal `buf` at `probe_pos`,
    /// ascending; empty when there are none.
    #[inline]
    pub(crate) fn get(&self, probe_pos: &[usize], buf: &[Value]) -> &[u32] {
        if self.postings.is_empty() {
            return &[];
        }
        let probe = || probe_pos.iter().map(|&p| buf[p]);
        let found = self.firsts.find(hash_values(probe()), |r| {
            let row = self.row(r);
            self.key_pos.iter().map(|&p| row[p]).eq(probe())
        });
        match found {
            Ok(first) => {
                let group = self.group_of[first as usize] as usize;
                &self.postings[self.offsets[group] as usize..self.offsets[group + 1] as usize]
            }
            Err(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashSet};

    /// Arity in {0, 1, 2, 3, 12} and up to 300 rows over a `domain`-value
    /// domain: duplicates and slot collisions are the common case, and the
    /// tables double several times from `MIN_SLOTS`.
    fn rows_of(pick: u8, domain: Value, cells: &[Value]) -> (usize, Vec<Vec<Value>>) {
        let arity = [0, 1, 2, 3, 12][pick as usize % 5];
        let count = cells.len() / 12;
        let row = |i: usize| {
            cells[i * 12..][..arity]
                .iter()
                .map(|v| v % domain)
                .collect()
        };
        (arity, (0..count).map(row).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn row_set_keeps_first_occurrences_in_order(
            pick in 0u8..5,
            domain in 2u32..=3,
            cells in prop::collection::vec(0u32..6, 0..=3600),
        ) {
            let (arity, input) = rows_of(pick, domain, &cells);
            let (mut rows, mut set) = (Rows::new(arity), RowSet::default());
            let (mut model, mut expected) = (HashSet::new(), Vec::new());
            for row in &input {
                rows.push(row.iter().copied());
                let fresh = model.insert(row.clone());
                prop_assert_eq!(set.keep_last_if_new(&mut rows), fresh);
                if fresh {
                    expected.push(row.clone().into_boxed_slice());
                }
                prop_assert_eq!(rows.len(), expected.len());
            }
            prop_assert_eq!(rows.into_tuples(), expected);
        }

        #[test]
        fn group_index_postings_match_a_btreemap(
            pick in 0u8..5,
            domain in 2u32..=3,
            cells in prop::collection::vec(0u32..6, 0..=3600),
            mask in 0u16..4096,
        ) {
            let (arity, input) = rows_of(pick, domain, &cells);
            let key_pos: Vec<usize> = (0..arity).rev().filter(|&p| mask >> p & 1 == 1).collect();
            let key_of = |row: &[Value]| key_pos.iter().map(|&p| row[p]).collect::<Vec<_>>();
            let mut rows = Rows::new(arity);
            let mut model: BTreeMap<Vec<Value>, Vec<u32>> = BTreeMap::new();
            for (id, row) in input.iter().enumerate() {
                rows.push(row.iter().copied());
                model.entry(key_of(row)).or_default().push(id as u32);
            }
            let index = GroupIndex::build(rows, key_pos.clone());
            // Probe from a wider buffer through its own positions, as a
            // pipeline stage does.
            let probe_pos: Vec<usize> = (0..key_pos.len()).map(|i| i + 1).collect();
            for (key, ids) in &model {
                let buf: Vec<Value> = std::iter::once(9).chain(key.iter().copied()).collect();
                prop_assert_eq!(index.get(&probe_pos, &buf), ids.as_slice());
            }
            if !key_pos.is_empty() {
                let absent = vec![domain; key_pos.len() + 1];
                prop_assert!(index.get(&probe_pos, &absent).is_empty());
            }
        }
    }
}
