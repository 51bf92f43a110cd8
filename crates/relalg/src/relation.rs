//! Materialized relations.
//!
//! A relation's rows live in flat chunks of [`CHUNK_ROWS`] rows, each an
//! `Arc`-shared row buffer: a clone copies the chunk handles and shares the
//! rows, and an append copies at most the last chunk (`Arc::make_mut`).
//! That is what makes the catalog's copy-on-write `add` cost one chunk
//! rather than the relation, while the snapshots readers hold stay intact.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashSet;

use crate::index::{ColumnIndex, IndexCache};
use crate::rows::Rows;
use crate::schema::Schema;
use crate::value::{Tuple, Value};

/// `log2` of [`CHUNK_ROWS`].
const CHUNK_SHIFT: u32 = 10;

/// Rows a relation chunk holds. A power of two, so row `i` is row
/// `i % CHUNK_ROWS` of chunk `i / CHUNK_ROWS`: a shift and a mask.
pub const CHUNK_ROWS: usize = 1 << CHUNK_SHIFT;

/// A named, materialized relation: a schema plus a bag of tuples.
///
/// Relations produced by `SELECT DISTINCT` boundaries are sets; the engine
/// tracks set-ness in [`Relation::is_deduped`] so repeated de-duplication is
/// skipped. Base relations in the paper's workloads (the six-tuple `edge`
/// relation, SAT clause relations) are always sets.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    schema: Schema,
    /// The rows, [`CHUNK_ROWS`] a chunk: every chunk but the last is full
    /// and none is empty. Clones share the chunks.
    chunks: Vec<Arc<Rows>>,
    deduped: bool,
    /// Lazily-built per-column secondary indexes. Cloning starts cold;
    /// in-place mutation ([`Relation::insert`], [`Relation::dedup`])
    /// clears it, so a cached index always describes the current tuples.
    indexes: IndexCache,
    /// Lazily computed content digest. Unlike the indexes it survives a
    /// clone, and [`Relation::insert`] keeps it current in O(1).
    digest: OnceLock<RelationDigest>,
}

/// An order-independent content digest of a relation's rows: the row
/// count and, for each of two seeded passes, the wrapping sum of every
/// row's SipHash (`DefaultHasher::new`, stable across processes of one
/// build). Adding a row adds its hashes, so the digest of a grown
/// relation costs O(1) given the digest of the old one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RelationDigest {
    /// Number of rows summed.
    pub count: u64,
    /// Per pass, the wrapping sum of the rows' hashes.
    pub sums: [u64; 2],
}

impl RelationDigest {
    fn of<'a>(rows: impl Iterator<Item = &'a [Value]>) -> Self {
        let mut digest = RelationDigest::default();
        for row in rows {
            digest.add(row);
        }
        digest
    }

    /// Hashes `row` as a slice, which hashes exactly as the boxed
    /// [`Tuple`] of the same values: digests do not depend on storage.
    fn add(&mut self, row: &[Value]) {
        self.count += 1;
        for (pass, sum) in self.sums.iter_mut().enumerate() {
            let mut h = DefaultHasher::new();
            (pass as u64).hash(&mut h);
            row.hash(&mut h);
            *sum = sum.wrapping_add(h.finish());
        }
    }
}

/// `rows` of `arity` values cut into chunks, each sized for what the
/// iterator says is left, at most [`CHUNK_ROWS`].
fn chunked<'a>(arity: usize, rows: impl Iterator<Item = &'a [Value]>) -> Vec<Arc<Rows>> {
    let mut left = rows.size_hint().1.unwrap_or(0);
    let mut chunks = Vec::with_capacity(left.div_ceil(CHUNK_ROWS));
    let mut last = Rows::with_capacity(arity, 0);
    for row in rows {
        if last.len() == CHUNK_ROWS {
            chunks.push(Arc::new(last));
            last = Rows::with_capacity(arity, 0);
        }
        if last.len() == 0 {
            last = Rows::with_capacity(arity, left.clamp(1, CHUNK_ROWS));
        }
        last.push_within(row, CHUNK_ROWS);
        left = left.saturating_sub(1);
    }
    if last.len() > 0 {
        chunks.push(Arc::new(last));
    }
    chunks
}

impl Relation {
    /// Creates a relation from rows, verifying each row's width. Does not
    /// de-duplicate; use [`Relation::dedup`] or construct via
    /// [`Relation::from_distinct_rows`].
    pub fn new(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        for t in &tuples {
            assert_eq!(
                t.len(),
                schema.arity(),
                "tuple width {} does not match schema arity {}",
                t.len(),
                schema.arity()
            );
        }
        let chunks = chunked(schema.arity(), tuples.iter().map(|t| &**t));
        Relation::of_chunks(name.into(), schema, chunks, false)
    }

    /// A relation holding `rows`, which must have the schema's arity: the
    /// executor's result, kept flat. A buffer of at most [`CHUNK_ROWS`]
    /// rows becomes the one chunk as it is.
    pub(crate) fn from_rows(name: impl Into<String>, schema: Schema, rows: Rows) -> Self {
        assert_eq!(rows.arity(), schema.arity(), "rows of another arity");
        let chunks = match rows.len() {
            0 => Vec::new(),
            n if n <= CHUNK_ROWS => vec![Arc::new(rows)],
            _ => chunked(rows.arity(), rows.iter()),
        };
        Relation::of_chunks(name.into(), schema, chunks, false)
    }

    fn of_chunks(name: String, schema: Schema, chunks: Vec<Arc<Rows>>, deduped: bool) -> Self {
        Relation {
            name,
            schema,
            chunks,
            deduped,
            indexes: IndexCache::default(),
            digest: OnceLock::new(),
        }
    }

    /// Creates a relation and de-duplicates its rows.
    pub fn from_distinct_rows(name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        let mut r = Relation::new(name, schema, tuples);
        r.dedup();
        r
    }

    /// An empty relation over `schema`.
    pub fn empty(name: impl Into<String>, schema: Schema) -> Self {
        Relation::of_chunks(name.into(), schema, Vec::new(), true)
    }

    /// The relation name (used by SQL emission and Display only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row `i`, `0 <= i < len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        self.chunks[i >> CHUNK_SHIFT].row(i & (CHUNK_ROWS - 1))
    }

    /// The rows in order, as slices of the stored chunks.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Value]> + DoubleEndedIterator {
        (0..self.len()).map(|i| self.row(i))
    }

    /// A copy of the rows as owned tuples, one allocation a row: for the
    /// boundaries that hand rows out (replies, tests), never for reading.
    pub fn tuples(&self) -> Vec<Tuple> {
        self.rows().map(Box::from).collect()
    }

    /// Number of tuples (bag cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK_ROWS + last.len())
    }

    /// True when the relation holds no tuples. A Boolean project-join query
    /// is *false* iff its result relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Whether the rows are known to be distinct.
    pub fn is_deduped(&self) -> bool {
        self.deduped
    }

    /// Whether some row equals `row`: one flat scan of the chunks, which
    /// compares a row's first value before the rest.
    pub fn contains(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        let Some((first, rest)) = row.split_first() else {
            return !self.is_empty();
        };
        self.chunks.iter().any(|chunk| {
            chunk
                .values()
                .chunks_exact(row.len())
                .any(|r| r[0] == *first && r[1..] == *rest)
        })
    }

    /// Adds a row unless it is already present, keeping the rows
    /// distinct: de-duplicates first if they are not known distinct,
    /// then checks membership and appends to the last chunk, which is
    /// copied first if a clone shares it. Returns whether the row was
    /// added. A new row clears the cached indexes and updates a computed
    /// digest in O(1); a duplicate changes nothing.
    pub fn insert(&mut self, row: &[Value]) -> bool {
        assert_eq!(row.len(), self.schema.arity());
        self.dedup();
        if self.contains(row) {
            return false;
        }
        if let Some(digest) = self.digest.get_mut() {
            digest.add(row);
        }
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK_ROWS => {
                Arc::make_mut(last).push_within(row, CHUNK_ROWS);
            }
            _ => {
                let mut chunk = Rows::with_capacity(row.len(), 1);
                chunk.push_within(row, CHUNK_ROWS);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.indexes = IndexCache::default();
        true
    }

    /// The content digest of the rows as stored (duplicates included),
    /// computed on first use and cached.
    pub fn digest(&self) -> RelationDigest {
        *self.digest.get_or_init(|| RelationDigest::of(self.rows()))
    }

    /// Consumes the relation, yielding its rows as owned tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples()
    }

    /// Marks rows as distinct without scanning. Callers must guarantee it.
    pub(crate) fn assume_deduped(&mut self) {
        debug_assert!({
            let set: FxHashSet<&[Value]> = self.rows().collect();
            set.len() == self.len()
        });
        self.deduped = true;
    }

    /// Removes duplicate rows in place (hash-based, preserves first
    /// occurrence order). Rows that are already distinct stay where they
    /// are; otherwise the distinct ones are copied into fresh chunks.
    pub fn dedup(&mut self) {
        if self.deduped {
            return;
        }
        self.deduped = true;
        let mut seen: FxHashSet<&[Value]> = FxHashSet::default();
        seen.reserve(self.len());
        if self.rows().all(|row| seen.insert(row)) {
            return;
        }
        seen.clear();
        let kept = chunked(self.arity(), self.rows().filter(|row| seen.insert(row)));
        drop(seen);
        self.chunks = kept;
        self.indexes = IndexCache::default();
        self.digest = OnceLock::new();
    }

    /// Wraps the relation for cheap sharing between plans.
    pub fn into_shared(self) -> Arc<Relation> {
        Arc::new(self)
    }

    /// The secondary index on column `col`, building and caching it on
    /// first use. The second element is `true` iff this call built the
    /// index (a cache miss); a hit returns the shared `Arc` for free.
    ///
    /// The cache lives on the relation value itself, so every query
    /// holding the same `Arc`-shared snapshot reuses one build. Under
    /// concurrent first use, `OnceLock` guarantees exactly one thread
    /// builds while the others wait and report a hit.
    pub fn column_index(&self, col: usize) -> (Arc<ColumnIndex>, bool) {
        assert!(
            col < self.arity(),
            "column {col} out of range for arity {}",
            self.arity()
        );
        let mut built = false;
        let ix = self.indexes.slot(self.schema.arity(), col).get_or_init(|| {
            built = true;
            Arc::new(ColumnIndex::build(self, col))
        });
        (Arc::clone(ix), built)
    }

    /// Number of column indexes currently built and cached.
    pub fn indexed_columns(&self) -> usize {
        self.indexes.built()
    }

    /// Set-semantics equality: same schema (same attribute order) and same
    /// set of rows.
    pub fn set_eq(&self, other: &Relation) -> bool {
        if self.schema != other.schema {
            return false;
        }
        let a: FxHashSet<&[Value]> = self.rows().collect();
        let b: FxHashSet<&[Value]> = other.rows().collect();
        a == b
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}{} [{} rows]", self.name, self.schema, self.len())?;
        for t in self.rows().take(20) {
            writeln!(f, "  {t:?}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... ({} more)", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrId;
    use crate::value::tuple;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn schema2() -> Schema {
        Schema::new(vec![AttrId(0), AttrId(1)])
    }

    #[test]
    fn new_checks_width() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "tuple width")]
    fn new_rejects_bad_width() {
        Relation::new("r", schema2(), vec![tuple(&[1])]);
    }

    #[test]
    fn dedup_removes_duplicates_keeps_order() {
        let mut r = Relation::new(
            "r",
            schema2(),
            vec![tuple(&[1, 2]), tuple(&[3, 4]), tuple(&[1, 2])],
        );
        assert!(!r.is_deduped());
        r.dedup();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuples()[0], tuple(&[1, 2]));
        assert_eq!(r.tuples()[1], tuple(&[3, 4]));
        assert!(r.is_deduped());
    }

    #[test]
    fn insert_keeps_rows_distinct() {
        let mut r = Relation::new("r", schema2(), vec![tuple(&[1, 2]), tuple(&[1, 2])]);
        assert!(r.insert(&[3, 4]));
        assert!(!r.insert(&[1, 2]));
        assert_eq!(r.tuples(), &[tuple(&[1, 2]), tuple(&[3, 4])]);
        assert!(r.is_deduped());
    }

    #[test]
    fn duplicate_insert_changes_nothing() {
        let mut r = Relation::from_distinct_rows("r", schema2(), vec![tuple(&[1, 2])]);
        let digest = r.digest();
        let (ix, _) = r.column_index(0);
        assert!(!r.insert(&[1, 2]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.digest(), digest);
        assert_eq!(r.indexed_columns(), 1);
        let (again, built) = r.column_index(0);
        assert!(!built);
        assert!(Arc::ptr_eq(&ix, &again));
    }

    #[test]
    fn incremental_digest_matches_a_recomputed_one() {
        let mut r = Relation::empty("r", schema2());
        assert_eq!(r.digest(), RelationDigest::default());
        for (a, b) in [(1, 2), (3, 4), (1, 2), (2, 1), (3, 4), (0, 0)] {
            r.insert(&[a, b]);
            let fresh = Relation::new("r", schema2(), r.tuples().to_vec());
            assert_eq!(r.digest(), fresh.digest());
        }
        assert_eq!(r.digest().count, 4);
        // Row order does not matter; the seeded passes are independent.
        let reversed: Vec<Tuple> = r.tuples().iter().rev().cloned().collect();
        assert_eq!(Relation::new("s", schema2(), reversed).digest(), r.digest());
        assert_ne!(r.digest().sums[0], r.digest().sums[1]);
    }

    #[test]
    fn dedup_that_removes_rows_recomputes_the_digest() {
        let mut r = Relation::new("r", schema2(), vec![tuple(&[1, 2]), tuple(&[1, 2])]);
        assert_eq!(r.digest().count, 2, "the digest covers rows as stored");
        r.dedup();
        let fresh = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        assert_eq!(r.digest(), fresh.digest());
    }

    #[test]
    fn set_eq_ignores_row_order_and_duplicates() {
        let a = Relation::new("a", schema2(), vec![tuple(&[1, 2]), tuple(&[3, 4])]);
        let b = Relation::new(
            "b",
            schema2(),
            vec![tuple(&[3, 4]), tuple(&[1, 2]), tuple(&[1, 2])],
        );
        assert!(a.set_eq(&b));
    }

    #[test]
    fn set_eq_requires_same_schema() {
        let a = Relation::new("a", schema2(), vec![tuple(&[1, 2])]);
        let b = Relation::new(
            "b",
            Schema::new(vec![AttrId(1), AttrId(0)]),
            vec![tuple(&[1, 2])],
        );
        assert!(!a.set_eq(&b));
    }

    #[test]
    fn empty_is_deduped_and_empty() {
        let r = Relation::empty("r", schema2());
        assert!(r.is_empty());
        assert!(r.is_deduped());
    }

    #[test]
    fn column_index_is_built_once_and_shared() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2]), tuple(&[1, 3])]);
        assert_eq!(r.indexed_columns(), 0);
        let (ix, built) = r.column_index(0);
        assert!(built);
        assert_eq!(ix.postings(1), &[0, 1]);
        let (again, built_again) = r.column_index(0);
        assert!(!built_again);
        assert!(Arc::ptr_eq(&ix, &again));
        assert_eq!(r.indexed_columns(), 1);
    }

    #[test]
    fn mutation_invalidates_cached_indexes() {
        let mut r = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        let _ = r.column_index(0);
        assert_eq!(r.indexed_columns(), 1);
        assert!(r.insert(&[1, 9]));
        assert_eq!(r.indexed_columns(), 0);
        let (ix, built) = r.column_index(0);
        assert!(built);
        assert_eq!(ix.postings(1), &[0, 1]);
    }

    #[test]
    fn clones_start_with_a_cold_index_cache() {
        let r = Relation::new("r", schema2(), vec![tuple(&[1, 2])]);
        let _ = r.column_index(1);
        let c = r.clone();
        assert_eq!(r.indexed_columns(), 1);
        assert_eq!(c.indexed_columns(), 0);
    }

    #[test]
    fn arity_zero_rows_are_counted() {
        let unit = || Schema::new(vec![]);
        let mut r = Relation::new("u", unit(), vec![Box::default(), Box::default()]);
        assert_eq!((r.len(), r.row(1)), (2, &[][..]));
        r.dedup();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]) && !r.insert(&[]));
        let mut empty = Relation::empty("e", unit());
        assert!(!empty.contains(&[]) && empty.insert(&[]));
        assert_eq!(empty.len(), 1);
    }

    /// Row counts on both sides of one and of several chunk boundaries.
    const SIZES: [usize; 6] = [
        0,
        1,
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        CHUNK_ROWS + 1,
        3 * CHUNK_ROWS + 5,
    ];

    /// `rel` against `model`, its rows in order: the chunk layout, `len`,
    /// `row(i)`, `rows()`, membership, the digest against one recomputed
    /// from the model, and every column's index postings.
    fn check(rel: &Relation, model: &[Vec<Value>]) -> Result<(), TestCaseError> {
        let (last, full) = rel
            .chunks
            .split_last()
            .map_or((0, &[][..]), |(l, f)| (l.len(), f));
        prop_assert!(full.iter().all(|chunk| chunk.len() == CHUNK_ROWS));
        prop_assert_eq!(last > 0, !model.is_empty());
        prop_assert_eq!(rel.len(), model.len());
        for (i, row) in model.iter().enumerate() {
            prop_assert_eq!(rel.row(i), row.as_slice());
        }
        prop_assert!(rel.rows().eq(model.iter().map(Vec::as_slice)));
        prop_assert_eq!(
            rel.digest(),
            RelationDigest::of(model.iter().map(Vec::as_slice))
        );
        for col in 0..rel.arity() {
            let mut postings: BTreeMap<Value, Vec<u32>> = BTreeMap::new();
            for (i, row) in model.iter().enumerate() {
                postings.entry(row[col]).or_default().push(i as u32);
            }
            let (index, _) = rel.column_index(col);
            for (&v, ids) in &postings {
                prop_assert_eq!(index.postings(v), ids.as_slice());
            }
        }
        Ok(())
    }

    /// Inserts `row` into both, as a set: the model appends it unless
    /// present, and `insert` must agree on whether it was new.
    fn insert_both(
        rel: &mut Relation,
        model: &mut Vec<Vec<Value>>,
        row: &[Value],
    ) -> Result<(), TestCaseError> {
        let fresh = !model.iter().any(|r| r == row);
        prop_assert_eq!(rel.contains(row), !fresh);
        prop_assert_eq!(rel.insert(row), fresh);
        if fresh {
            model.push(row.to_vec());
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `SIZES[pick]` distinct rows (row `i` starts with `i`), copies of
        /// some of them, then a few inserted rows over a small domain that
        /// repeat stored rows and each other.
        #[test]
        fn chunked_relation_matches_a_vec_model(
            pick in 0usize..SIZES.len(),
            arity in 1usize..=3,
            copies in prop::collection::vec(0usize..4096, 0..=8),
            inserted in prop::collection::vec(0u32..4, 3..=36),
        ) {
            let size = SIZES[pick];
            let distinct: Vec<Vec<Value>> = (0..size as Value)
                .map(|i| [i, i % 3, i % 5][..arity].to_vec())
                .collect();
            let mut model = distinct.clone();
            if size > 0 {
                model.extend(copies.iter().map(|&c| distinct[c % size].clone()));
            }
            let tuples = model.iter().map(|row| tuple(row)).collect();
            let schema = Schema::new((0..arity as u32).map(AttrId).collect());
            let mut rel = Relation::new("r", schema, tuples);
            check(&rel, &model)?;
            rel.dedup();
            check(&rel, &distinct)?;
            let mut model = distinct;
            for row in inserted.chunks_exact(arity) {
                insert_both(&mut rel, &mut model, row)?;
            }
            check(&rel, &model)?;
        }

        /// After `b = a.clone()`, inserts into either side leave the
        /// other's rows, length, digest and cached indexes as they were.
        #[test]
        fn clones_share_chunks_copy_on_write(
            pick in 0usize..SIZES.len(),
            inserted in prop::collection::vec(0u32..4, 2..=24),
        ) {
            let rows = (0..SIZES[pick] as Value).map(|i| tuple(&[i, i % 3])).collect();
            let mut a = Relation::from_distinct_rows("a", schema2(), rows);
            let mut a_model: Vec<Vec<Value>> = a.rows().map(<[Value]>::to_vec).collect();
            check(&a, &a_model)?;
            let mut b = a.clone();
            let mut b_model = a_model.clone();
            prop_assert_eq!(b.digest(), a.digest());
            for (i, row) in inserted.chunks_exact(2).enumerate() {
                let (index, _) = a.column_index(1);
                let (digest, len) = (a.digest(), a.len());
                insert_both(&mut b, &mut b_model, row)?;
                prop_assert_eq!((a.digest(), a.len()), (digest, len));
                prop_assert!(Arc::ptr_eq(&a.column_index(1).0, &index));
                check(&a, &a_model)?;
                check(&b, &b_model)?;
                // Then the other way round, with a row shifted off the
                // domain of the first so the sides drift apart.
                let (index, _) = b.column_index(0);
                let (digest, len) = (b.digest(), b.len());
                insert_both(&mut a, &mut a_model, &[row[0] + 4, i as Value])?;
                prop_assert_eq!((b.digest(), b.len()), (digest, len));
                prop_assert!(Arc::ptr_eq(&b.column_index(0).0, &index));
                check(&a, &a_model)?;
                check(&b, &b_model)?;
            }
        }
    }
}
