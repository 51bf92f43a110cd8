//! Flat row storage and row-id hash tables — what a materialization
//! boundary is made of inside the executor.
//!
//! [`Rows`] keeps a boundary's rows back to back in one `Vec<Value>`, so
//! materializing a row costs amortised vector growth instead of a `malloc`.
//! [`RowSet`] (the `DISTINCT` sink) and [`GroupIndex`] (the hash-join build)
//! are open-addressing tables of `u32` ids *into* that buffer — row ids in
//! a `RowSet`, group numbers in a built `GroupIndex`, whose groups' first
//! rows hold their keys: they own no keys, comparing the row slices in
//! place. Each slot keeps its id's 32-bit key hash beside the id, so a row
//! is hashed once: growth moves `(hash, id)` pairs, and a probe compares
//! rows only when the hashes agree.
//! A `DISTINCT` sink's table is already a whole-row index of its rows, so a
//! hash join keyed on the whole row adopts it ([`Buffers::build`]) instead
//! of building a second one. [`Buffers::group`] is the executor's one
//! grouping routine: it builds the hash joins' build sides and the base
//! relations' cached [`crate::index::ColumnIndex`]es alike.
//!
//! [`Buffers`] hands the buffers of consumed boundaries to the next ones, so
//! the pipelines of one execution reuse what the pipelines before them grew.
//! Row ids are `u32`; the sink refuses to grow a boundary past [`MAX_ROWS`]
//! (see [`crate::exec::Sink`]).

use std::hash::Hasher;

use rustc_hash::FxHasher;

use crate::value::Value;

/// `len` rows of `arity` values each, stored contiguously. `len` is explicit
/// because Boolean subqueries have arity 0: rows that occupy no values.
/// A base [`crate::Relation`] is a list of these, shared between snapshots.
#[derive(Debug, Clone)]
pub(crate) struct Rows {
    arity: usize,
    len: usize,
    data: Vec<Value>,
}

impl Rows {
    /// An empty buffer with room for `rows` rows of `arity`.
    pub(crate) fn with_capacity(arity: usize, rows: usize) -> Rows {
        Rows {
            arity,
            len: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    /// Every row's values, back to back.
    #[inline]
    pub(crate) fn values(&self) -> &[Value] {
        &self.data
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

    /// Appends one row, growing the buffer by doubling but never past room
    /// for `max_rows` rows.
    pub(crate) fn push_within(&mut self, row: &[Value], max_rows: usize) {
        debug_assert!(self.len < max_rows);
        if self.data.len() + self.arity > self.data.capacity() {
            let rows = (self.len * 2).clamp(1, max_rows);
            self.data.reserve_exact(rows * self.arity - self.data.len());
        }
        self.push(row.iter().copied());
    }

    fn pop(&mut self) {
        self.len -= 1;
        self.data.truncate(self.len * self.arity);
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &[Value]> {
        (0..self.len).map(|i| self.row(i))
    }
}

/// The 32-bit key hash a table slot keeps: of the whole row for a
/// [`RowSet`], of the key columns in row order for a [`GroupIndex`].
#[inline]
fn hash_values(values: impl Iterator<Item = Value>) -> u32 {
    let mut hasher = FxHasher::default();
    for v in values {
        hasher.write_u32(v);
    }
    hasher.finish() as u32
}

/// Whether `row`'s values at `row_pos` equal `buf`'s at `buf_pos`, in one
/// inline loop: keys are a few values, too short to pay for a `memcmp`
/// call or `Iterator::eq_by` per probe.
#[inline]
fn keys_eq(row: &[Value], row_pos: &[usize], buf: &[Value], buf_pos: &[usize]) -> bool {
    for (&r, &b) in row_pos.iter().zip(buf_pos) {
        if row[r] != buf[b] {
            return false;
        }
    }
    true
}

const EMPTY: u32 = u32::MAX;
const MIN_SLOTS: usize = 8;
/// Most slots a table starts with: enough that small boundaries never
/// grow, few enough to clear fast, and few enough that grouping many rows
/// under few keys (a column index) never allocates a table for one key
/// per row.
const START_SLOTS: usize = 256;

/// Most rows a buffer may hold and still have every row id below [`EMPTY`].
pub(crate) const MAX_ROWS: usize = EMPTY as usize;

/// A table slot: a row id (or [`EMPTY`]) and the hash of its key.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const FREE: Slot = Slot { hash: 0, id: EMPTY };

/// Linear-probing table of row ids at ≤ 1/2 load. What an id's key is — the
/// whole row, some of its columns — is the caller's business: it supplies
/// the key's hash and a match closure.
#[derive(Debug)]
struct IdTable {
    /// A power of two long, at least [`MIN_SLOTS`].
    slots: Vec<Slot>,
    used: usize,
}

impl IdTable {
    /// An empty table of `len` slots (a power of two) in `buf`'s memory.
    fn in_buffer(mut buf: Vec<Slot>, len: usize) -> IdTable {
        debug_assert!(len.is_power_of_two() && len >= MIN_SLOTS);
        buf.clear();
        buf.resize(len, FREE);
        IdTable {
            slots: buf,
            used: 0,
        }
    }

    /// Makes room for one more id, doubling the table when that would pass
    /// half load. Growth moves the stored `(hash, id)` pairs; no row is
    /// hashed again.
    fn reserve_one(&mut self) {
        if (self.used + 1) * 2 <= self.slots.len() {
            return;
        }
        let grown = vec![FREE; self.slots.len() * 2];
        let mask = grown.len() - 1;
        for slot in std::mem::replace(&mut self.slots, grown) {
            if slot.id != EMPTY {
                let mut at = slot.hash as usize & mask;
                while self.slots[at].id != EMPTY {
                    at = (at + 1) & mask;
                }
                self.slots[at] = slot;
            }
        }
    }

    /// The slot of the stored id whose hash is `hash` and which `is_match`
    /// accepts, or else the empty slot that ended the probe — where
    /// [`IdTable::occupy`] puts a new id.
    #[inline]
    fn find(&self, hash: u32, is_match: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.id == EMPTY {
                return Err(at);
            }
            if slot.hash == hash && is_match(slot.id) {
                return Ok(at);
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores `id` in the slot a failed [`IdTable::find`] returned, after a
    /// [`IdTable::reserve_one`] or sizing for it.
    #[inline]
    fn occupy(&mut self, at: usize, hash: u32, id: u32) {
        self.slots[at] = Slot { hash, id };
        self.used += 1;
    }
}

/// The set of distinct rows of a [`Rows`] buffer, as ids into it.
#[derive(Debug)]
pub(crate) struct RowSet(IdTable);

impl RowSet {
    /// De-duplicates `rows`' last row against the rows before it (all of
    /// which went through this call): pops it and returns `false` when an
    /// equal row is already there, so first occurrences stay in push order.
    #[inline]
    pub(crate) fn keep_last_if_new(&mut self, rows: &mut Rows) -> bool {
        self.0.reserve_one();
        let id = rows.len() - 1;
        let last = rows.row(id);
        let hash = hash_values(last.iter().copied());
        let found = self.0.find(hash, |r| {
            let row = rows.row(r as usize);
            row.iter().zip(last).all(|(a, b)| a == b)
        });
        match found {
            Ok(_) => {
                rows.pop();
                false
            }
            Err(at) => {
                self.0.occupy(at, hash, id as u32);
                true
            }
        }
    }
}

/// How a [`GroupIndex`]'s groups, which its table slots hold by number,
/// map to rows.
#[derive(Debug)]
enum Groups {
    /// The table holds every row, keyed by the whole row: group `g` is row
    /// `g`.
    Singletons,
    /// Groups are numbered by first occurrence. Postings are ascending row
    /// ids — the order a per-key `Vec` filled in row order would hold —
    /// which is what keeps join output order (and so every budget trip
    /// point) independent of this layout.
    Csr {
        /// Group `g`'s row ids are `postings[offsets[g]..offsets[g + 1]]`.
        offsets: Vec<u32>,
        postings: Vec<u32>,
    },
}

/// A hash-join build side: rows grouped by their key columns, probed with
/// the key columns' positions in the rows and, in the same order, in the
/// probing buffer.
#[derive(Debug)]
pub(crate) struct GroupIndex {
    rows: Rows,
    table: IdTable,
    groups: Groups,
}

impl GroupIndex {
    #[inline]
    pub(crate) fn row(&self, id: u32) -> &[Value] {
        self.rows.row(id as usize)
    }

    /// The first row of group `group`.
    #[inline]
    fn first_row(&self, group: u32) -> &[Value] {
        match &self.groups {
            Groups::Singletons => self.row(group),
            Groups::Csr { offsets, postings } => {
                self.row(postings[offsets[group as usize] as usize])
            }
        }
    }

    /// Ids of the rows whose columns `key_pos` equal `buf` at `probe_pos`,
    /// ascending; empty when there are none.
    #[inline]
    pub(crate) fn get(&self, key_pos: &[usize], probe_pos: &[usize], buf: &[Value]) -> &[u32] {
        if self.rows.len() == 0 {
            return &[];
        }
        let hash = hash_values(probe_pos.iter().map(|&p| buf[p]));
        let found = self.table.find(hash, |g| {
            keys_eq(self.first_row(g), key_pos, buf, probe_pos)
        });
        let Ok(at) = found else {
            return &[];
        };
        let group = &self.table.slots[at].id;
        match &self.groups {
            Groups::Singletons => std::slice::from_ref(group),
            Groups::Csr { offsets, postings } => {
                let g = *group as usize;
                &postings[offsets[g] as usize..offsets[g + 1] as usize]
            }
        }
    }

    /// The first row of each group, groups in first-occurrence order.
    pub(crate) fn first_rows(&self) -> impl Iterator<Item = &[Value]> {
        let count = match &self.groups {
            Groups::Singletons => self.rows.len(),
            Groups::Csr { offsets, .. } => offsets.len() - 1,
        };
        (0..count as u32).map(|group| self.first_row(group))
    }

    /// Gives back the capacity its group offsets reserved for one group a
    /// row, for a build that is kept rather than recycled.
    pub(crate) fn shrink_to_fit(&mut self) {
        if let Groups::Csr { offsets, .. } = &mut self.groups {
            offsets.shrink_to_fit();
        }
    }
}

/// The buffers of the boundaries an execution has consumed, handed to the
/// ones it builds next.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    values: Vec<Vec<Value>>,
    ids: Vec<Vec<u32>>,
    slots: Vec<Vec<Slot>>,
}

impl Buffers {
    /// An empty row buffer of `arity`.
    pub(crate) fn rows(&mut self, arity: usize) -> Rows {
        Rows {
            arity,
            len: 0,
            data: self.values.pop().unwrap_or_default(),
        }
    }

    /// Single-column rows, one per value.
    pub(crate) fn column(&mut self, values: impl Iterator<Item = Value>) -> Rows {
        let mut rows = self.rows(1);
        rows.data.extend(values);
        rows.len = rows.data.len();
        rows
    }

    /// An empty `DISTINCT` table, as large as a recycled buffer allows up
    /// to [`START_SLOTS`].
    pub(crate) fn row_set(&mut self) -> RowSet {
        let buf = self.slots.pop().unwrap_or_default();
        let room = buf.capacity().min(START_SLOTS);
        let len = if room < MIN_SLOTS {
            MIN_SLOTS
        } else {
            1 << room.ilog2()
        };
        RowSet(IdTable::in_buffer(buf, len))
    }

    fn ids(&mut self, len: usize) -> Vec<u32> {
        let mut ids = self.ids.pop().unwrap_or_default();
        ids.clear();
        ids.resize(len, 0);
        ids
    }

    /// The build side of a hash join over `rows` (at most [`MAX_ROWS`]),
    /// keyed on the columns `key_pos`. When the key is the whole row in
    /// column order and `set` is the table that de-duplicated `rows`, the
    /// build adopts that table: no row is hashed again. Otherwise `set` is
    /// recycled and the rows are grouped afresh.
    pub(crate) fn build(
        &mut self,
        rows: Rows,
        key_pos: &[usize],
        set: Option<RowSet>,
    ) -> GroupIndex {
        match set {
            Some(set) if key_pos.iter().copied().eq(0..rows.arity) => GroupIndex {
                rows,
                table: set.0,
                groups: Groups::Singletons,
            },
            set => {
                if let Some(set) = set {
                    self.recycle_set(set);
                }
                self.group(rows, key_pos)
            }
        }
    }

    /// Groups `rows` by the columns `key_pos`. The id buffers are sized for
    /// `rows` up front; the table starts at up to [`START_SLOTS`] and
    /// doubles as groups arrive. Groups are numbered by first occurrence.
    /// While grouping, a table slot holds its group's first row and
    /// `group_of` maps rows to groups; once the postings are laid out, each
    /// slot holds its group's number and `group_of` goes back to the pool.
    pub(crate) fn group(&mut self, rows: Rows, key_pos: &[usize]) -> GroupIndex {
        let len = (rows.len() * 2)
            .next_power_of_two()
            .clamp(MIN_SLOTS, START_SLOTS);
        let mut table = IdTable::in_buffer(self.slots.pop().unwrap_or_default(), len);
        let mut group_of = self.ids(rows.len());
        // Group sizes first, turned into start offsets below.
        let mut offsets = self.ids(0);
        offsets.reserve(rows.len() + 1);
        for id in 0..rows.len() {
            table.reserve_one();
            let row = rows.row(id);
            let hash = hash_values(key_pos.iter().map(|&p| row[p]));
            let found = table.find(hash, |r| {
                keys_eq(rows.row(r as usize), key_pos, row, key_pos)
            });
            let group = match found {
                Ok(at) => group_of[table.slots[at].id as usize],
                Err(at) => {
                    table.occupy(at, hash, id as u32);
                    offsets.push(0);
                    (offsets.len() - 1) as u32
                }
            };
            group_of[id] = group;
            offsets[group as usize] += 1;
        }
        // Counting sort: running ends, then fill each group from its end
        // backwards in descending row order, leaving `offsets` at the starts.
        let mut end = 0;
        for size in &mut offsets {
            end += *size;
            *size = end;
        }
        let mut postings = self.ids(rows.len());
        for (id, &group) in group_of.iter().enumerate().rev() {
            let at = &mut offsets[group as usize];
            *at -= 1;
            postings[*at as usize] = id as u32;
        }
        offsets.push(end);
        for slot in table.slots.iter_mut().filter(|slot| slot.id != EMPTY) {
            slot.id = group_of[slot.id as usize];
        }
        keep(&mut self.ids, group_of);
        GroupIndex {
            rows,
            table,
            groups: Groups::Csr { offsets, postings },
        }
    }

    pub(crate) fn recycle_rows(&mut self, rows: Rows) {
        keep(&mut self.values, rows.data);
    }

    pub(crate) fn recycle_set(&mut self, set: RowSet) {
        keep(&mut self.slots, set.0.slots);
    }

    pub(crate) fn recycle_group(&mut self, index: GroupIndex) {
        self.recycle_rows(index.rows);
        keep(&mut self.slots, index.table.slots);
        if let Groups::Csr { offsets, postings } = index.groups {
            keep(&mut self.ids, offsets);
            keep(&mut self.ids, postings);
        }
    }
}

/// Largest buffer [`Buffers`] keeps for reuse. Larger ones go back to the
/// allocator, which returns memory of that size to the system, so a big
/// boundary does not stay resident for the rest of its execution.
const MAX_KEPT_BYTES: usize = 64 << 10;

fn keep<T>(pool: &mut Vec<Vec<T>>, mut buf: Vec<T>) {
    if buf.capacity() * std::mem::size_of::<T>() <= MAX_KEPT_BYTES {
        buf.clear();
        pool.push(buf);
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

    /// `input`'s distinct rows in first-occurrence order, and the table
    /// that de-duplicated them, as a `DISTINCT` sink leaves them.
    fn distinct(buffers: &mut Buffers, arity: usize, input: &[Vec<Value>]) -> (Rows, RowSet) {
        let (mut rows, mut set) = (buffers.rows(arity), buffers.row_set());
        for row in input {
            rows.push(row.iter().copied());
            set.keep_last_if_new(&mut rows);
        }
        (rows, set)
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
            let mut buffers = Buffers::default();
            let (mut rows, mut set) = (buffers.rows(arity), buffers.row_set());
            let (mut model, mut expected) = (HashSet::new(), Vec::new());
            for row in &input {
                rows.push(row.iter().copied());
                let fresh = model.insert(row.clone());
                prop_assert_eq!(set.keep_last_if_new(&mut rows), fresh);
                if fresh {
                    expected.push(row.clone());
                }
                prop_assert_eq!(rows.len(), expected.len());
            }
            prop_assert_eq!(rows.iter().map(<[Value]>::to_vec).collect::<Vec<_>>(), expected);
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
            let mut buffers = Buffers::default();
            let mut rows = buffers.rows(arity);
            let mut model: BTreeMap<Vec<Value>, Vec<u32>> = BTreeMap::new();
            let mut firsts = Vec::new();
            for (id, row) in input.iter().enumerate() {
                rows.push(row.iter().copied());
                let ids = model.entry(key_of(row)).or_default();
                if ids.is_empty() {
                    firsts.push(row.clone());
                }
                ids.push(id as u32);
            }
            let index = buffers.build(rows, &key_pos, None);
            prop_assert_eq!(index.first_rows().map(<[Value]>::to_vec).collect::<Vec<_>>(), firsts);
            // Probe from a wider buffer through its own positions, as a
            // pipeline stage does.
            let probe_pos: Vec<usize> = (0..key_pos.len()).map(|i| i + 1).collect();
            for (key, ids) in &model {
                let buf: Vec<Value> = std::iter::once(9).chain(key.iter().copied()).collect();
                prop_assert_eq!(index.get(&key_pos, &probe_pos, &buf), ids.as_slice());
            }
            if !key_pos.is_empty() {
                let absent = vec![domain; key_pos.len() + 1];
                prop_assert!(index.get(&key_pos, &probe_pos, &absent).is_empty());
            }
            // A recycled build answers the same from reused buffers.
            buffers.recycle_group(index);
            let mut rows = buffers.rows(arity);
            for row in &input {
                rows.push(row.iter().copied());
            }
            let again = buffers.build(rows, &key_pos, None);
            for (key, ids) in &model {
                let buf: Vec<Value> = std::iter::once(9).chain(key.iter().copied()).collect();
                prop_assert_eq!(again.get(&key_pos, &probe_pos, &buf), ids.as_slice());
            }
        }

        /// A build adopted from a `DISTINCT` sink's table has the postings
        /// a fresh build over the same rows keyed on the whole row has.
        #[test]
        fn adopted_build_has_the_postings_of_a_fresh_one(
            pick in 0u8..5,
            domain in 2u32..=3,
            cells in prop::collection::vec(0u32..6, 0..=3600),
            absent in prop::collection::vec(3u32..5, 12),
        ) {
            let (arity, input) = rows_of(pick, domain, &cells);
            let mut buffers = Buffers::default();
            let key_pos: Vec<usize> = (0..arity).collect();
            let (rows, set) = distinct(&mut buffers, arity, &input);
            let adopted = buffers.build(rows, &key_pos, Some(set));
            prop_assert!(matches!(adopted.groups, Groups::Singletons));
            let (rows, _) = distinct(&mut buffers, arity, &input);
            let fresh = buffers.build(rows, &key_pos, None);
            prop_assert!(adopted.first_rows().eq(fresh.first_rows()));
            // Probe through a buffer holding the key columns reversed.
            let probe_pos: Vec<usize> = (0..arity).rev().collect();
            let miss = absent[..arity].to_vec();
            for row in input.iter().chain([&miss]) {
                let buf: Vec<Value> = row.iter().rev().copied().collect();
                let got = adopted.get(&key_pos, &probe_pos, &buf);
                prop_assert_eq!(got, fresh.get(&key_pos, &probe_pos, &buf));
                prop_assert!(got.len() <= 1);
            }
        }
    }
}
