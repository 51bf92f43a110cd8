//! Materialized relations.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use rustc_hash::FxHashSet;

use crate::index::{ColumnIndex, IndexCache};
use crate::schema::Schema;
use crate::value::{Tuple, Value};

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
    tuples: Vec<Tuple>,
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
    fn of(tuples: &[Tuple]) -> Self {
        let mut digest = RelationDigest::default();
        for t in tuples {
            digest.add(t);
        }
        digest
    }

    fn add(&mut self, t: &[Value]) {
        self.count += 1;
        for (pass, sum) in self.sums.iter_mut().enumerate() {
            let mut h = DefaultHasher::new();
            (pass as u64).hash(&mut h);
            t.hash(&mut h);
            *sum = sum.wrapping_add(h.finish());
        }
    }
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
        Relation {
            name: name.into(),
            schema,
            tuples,
            deduped: false,
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
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            deduped: true,
            indexes: IndexCache::default(),
            digest: OnceLock::new(),
        }
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

    /// The tuples.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples (bag cardinality).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when the relation holds no tuples. A Boolean project-join query
    /// is *false* iff its result relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
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

    /// Adds a row unless it is already present, keeping the rows
    /// distinct: de-duplicates first if they are not known distinct,
    /// then checks membership and appends. Returns whether the row was
    /// added. A new row clears the cached indexes and updates a computed
    /// digest in O(1); a duplicate changes nothing.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(t.len(), self.schema.arity());
        self.dedup();
        if self.tuples.contains(&t) {
            return false;
        }
        if let Some(digest) = self.digest.get_mut() {
            digest.add(&t);
        }
        self.tuples.push(t);
        self.indexes = IndexCache::default();
        true
    }

    /// The content digest of the rows as stored (duplicates included),
    /// computed on first use and cached.
    pub fn digest(&self) -> RelationDigest {
        *self.digest.get_or_init(|| RelationDigest::of(&self.tuples))
    }

    /// Consumes the relation, yielding its rows.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Marks rows as distinct without scanning. Callers must guarantee it.
    pub(crate) fn assume_deduped(&mut self) {
        debug_assert!({
            let set: FxHashSet<&Tuple> = self.tuples.iter().collect();
            set.len() == self.tuples.len()
        });
        self.deduped = true;
    }

    /// Removes duplicate rows in place (hash-based, preserves first
    /// occurrence order).
    pub fn dedup(&mut self) {
        if self.deduped {
            return;
        }
        let mut seen: FxHashSet<Tuple> = FxHashSet::default();
        seen.reserve(self.tuples.len());
        let before = self.tuples.len();
        self.tuples.retain(|t| seen.insert(t.clone()));
        self.deduped = true;
        if self.tuples.len() != before {
            self.indexes = IndexCache::default();
            self.digest = OnceLock::new();
        }
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
        let a: FxHashSet<&Tuple> = self.tuples.iter().collect();
        let b: FxHashSet<&Tuple> = other.tuples.iter().collect();
        a == b
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}{} [{} rows]", self.name, self.schema, self.len())?;
        for t in self.tuples.iter().take(20) {
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
        assert!(r.insert(tuple(&[3, 4])));
        assert!(!r.insert(tuple(&[1, 2])));
        assert_eq!(r.tuples(), &[tuple(&[1, 2]), tuple(&[3, 4])]);
        assert!(r.is_deduped());
    }

    #[test]
    fn duplicate_insert_changes_nothing() {
        let mut r = Relation::from_distinct_rows("r", schema2(), vec![tuple(&[1, 2])]);
        let digest = r.digest();
        let (ix, _) = r.column_index(0);
        assert!(!r.insert(tuple(&[1, 2])));
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
            r.insert(tuple(&[a, b]));
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
        assert!(r.insert(tuple(&[1, 9])));
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
}
