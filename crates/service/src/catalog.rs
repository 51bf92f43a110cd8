//! A multi-database catalog with copy-on-write versioned snapshots,
//! content-hash identities, and optional durability.
//!
//! The paper's regime is many queries over *tiny* databases, and a
//! long-lived server wants to hold many such databases at once — one per
//! tenant, workload, or experiment — and mutate them over the wire
//! without pausing query traffic. The [`Catalog`] is that collection:
//!
//! * Every database carries a [`DbVersion`] that increases monotonically
//!   across the whole catalog on every mutation (`create`, `load`, `add`,
//!   `insert`) — the number clients see in `ok db=… version=…` acks and
//!   the slow-query log. With a durable catalog the version is persisted
//!   and resumes above its pre-crash high-water mark.
//! * Every snapshot also carries a [`DbFingerprint`]: a 128-bit
//!   **content hash** of the database (relation names, arities, and
//!   tuple *sets* — independent of load order, database name, and
//!   internal column ids), built from each relation's cached digest in
//!   O(#relations). The result and plan caches key on the same hash
//!   taken over only the relations a query reads
//!   ([`fingerprint_relations`]), so an `add` invalidates only the
//!   entries of queries that read the grown relation, content-identical
//!   relations share entries, and a recovered database resumes its
//!   pre-crash cache identity — a restart (or a re-load of identical
//!   data under another name) does not re-plan or re-execute anything
//!   the cache still holds.
//! * Reads are **copy-on-write snapshots**: [`Catalog::snapshot`] hands
//!   back an `Arc<Database>` plus its version and fingerprint, and
//!   in-flight requests keep that consistent snapshot for as long as
//!   they need it. Writers build the successor database beside the
//!   current one (a [`Database`] clone is cheap — a map of
//!   `Arc<Relation>` handles — and an `add` clones the one relation it
//!   grows, which shares its row chunks and copies only the last one)
//!   and publish it with a brief map-lock swap, so **writers never block
//!   readers** — not even on the durable catalog's commit `fsync`, which
//!   happens outside the map lock. A replaced database is freed after
//!   the map lock is released, never under it.
//! * Writers are serialized against each other by a separate mutex, so
//!   two concurrent `add`s both land (no lost read-modify-write).
//!
//! ## Durability
//!
//! [`Catalog::open`] recovers a catalog from a data directory and hands
//! every mutation to its [`DurableStore`]. The writer builds the
//! post-mutation database first; the store logs the mutation — and
//! under the default sync policy `fsync`s it — *before* the database is
//! published, so a client that saw `ok` will see the mutation after a
//! crash. When its cadence says so, the store checkpoints that same
//! database: the published database is the only copy in memory. A
//! persist failure aborts the mutation with [`CatalogError::Persist`];
//! the in-memory state never runs ahead of the log. Catalogs built with
//! [`Catalog::new`] / [`Catalog::with_default`] have no store and behave
//! exactly as before — memory-only mode is byte-for-byte unchanged on
//! the wire.
//!
//! Relations created over the wire get fresh [`AttrId`] columns from a
//! catalog-wide allocator, far above the interned query-variable space,
//! so wire-loaded schemas can never collide with query variables or the
//! CLI's `--rel` columns. Attribute ids are *not* persisted — recovery
//! re-allocates them — which is safe because query evaluation binds
//! columns by position and the fingerprint deliberately excludes them.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ppr_durability::{
    DbContents, DurabilityStats, DurableStore, PersistError, RecoveryError, RecoveryReport,
    StoreOptions,
};
use ppr_query::Database;
use ppr_relalg::{AttrId, Relation, Schema, Value};
use rustc_hash::FxHashMap;

/// The database every request runs against when it does not name one.
pub const DEFAULT_DB: &str = "default";

/// First column id handed to wire-created relations. Above the CLI's
/// `--rel` base (10M) and far above interned query variables (which start
/// at 0), so the three id spaces never collide.
const WIRE_COL_BASE: u32 = 20_000_000;

/// A monotonically increasing database version. Bumped by every mutation
/// and unique across the catalog's lifetime (two live databases never
/// share a version). Durable catalogs persist it, so versions keep
/// increasing across restarts. The caches key on content
/// ([`fingerprint_relations`]), not on this — the version is the
/// *observable* mutation counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DbVersion(pub u64);

impl fmt::Display for DbVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A 128-bit content hash of one database: relation names, arities, and
/// tuple sets, combined order-independently. Two databases with the same
/// content — regardless of name, load order, or internal column ids —
/// get the same fingerprint, and any content change (including via
/// crash recovery replaying a different history) changes it.
///
/// The hash is two independently-seeded passes of the standard library's
/// deterministic SipHash (`DefaultHasher::new`), so it is stable across
/// processes of the same build — which is what lets a recovered database
/// resume its pre-crash cache identity. It is *not* cryptographic:
/// collisions are astronomically unlikely by accident but constructible
/// on purpose, the same stance the query-fingerprint caches take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DbFingerprint(pub u128);

impl fmt::Display for DbFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Content hash of `db`: [`fingerprint_relations`] over every relation.
pub fn fingerprint_db(db: &Database) -> DbFingerprint {
    fingerprint_relations(db, &db.names())
}

/// Content hash of the relations `names` of `db`, which must be sorted,
/// distinct and present. Each pass hashes every relation's name, arity,
/// row count and order-independent row-hash sum, so the result depends
/// only on the logical content of those relations. The sums come from
/// each relation's cached [`RelationDigest`](ppr_relalg::relation::RelationDigest),
/// so the cost is O(#relations) once the digests exist. A query's
/// answer depends only on the relations its atoms name, which is why the
/// result and plan caches key on this over those relations alone.
pub fn fingerprint_relations(db: &Database, names: &[&str]) -> DbFingerprint {
    let mut words = [0u64; 2];
    for (pass, word) in words.iter_mut().enumerate() {
        let mut h = DefaultHasher::new();
        // Domain-separate the two passes so they are independent.
        (0x7072_7062_6466_7030u64 + pass as u64).hash(&mut h);
        names.len().hash(&mut h);
        for name in names {
            let rel = db.get(name).expect("fingerprinted relation exists");
            let digest = rel.digest();
            name.hash(&mut h);
            rel.arity().hash(&mut h);
            digest.count.hash(&mut h);
            digest.sums[pass].hash(&mut h);
        }
        *word = h.finish();
    }
    DbFingerprint(((words[0] as u128) << 64) | words[1] as u128)
}

/// A consistent read view of one database: the shared data plus the
/// version and content fingerprint it was published under. Requests hold
/// one snapshot end to end, so a concurrent mutation can never tear a
/// single evaluation.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    /// The shared, immutable database at this version.
    pub db: Arc<Database>,
    /// The version the snapshot was published under.
    pub version: DbVersion,
    /// Content hash of all of `db` — what `dbs` reports. The caches key
    /// on [`fingerprint_relations`] over a query's own relations instead.
    pub fingerprint: DbFingerprint,
}

/// One row of [`Catalog::list`] — what the `dbs` wire verb reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbInfo {
    /// Database name.
    pub name: String,
    /// Current version.
    pub version: DbVersion,
    /// Current content fingerprint.
    pub fingerprint: DbFingerprint,
    /// Number of relations.
    pub relations: usize,
}

/// Why a catalog operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The named database does not exist.
    UnknownDatabase(String),
    /// `create` targeted a name that already exists.
    DatabaseExists(String),
    /// A tuple's arity disagreed with the relation (or with the other
    /// tuples in the same `load`).
    ArityMismatch {
        /// The relation being mutated.
        relation: String,
        /// Arity the relation (or the load's first tuple) has.
        have: usize,
        /// Arity the offending tuple carried.
        got: usize,
    },
    /// A bulk load carried no tuples, so the relation's arity is unknown.
    EmptyLoad(String),
    /// The durable catalog could not commit the mutation to its log; the
    /// mutation was not applied (in-memory state never runs ahead of the
    /// write-ahead log).
    Persist(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownDatabase(n) => write!(f, "unknown database: {n}"),
            CatalogError::DatabaseExists(n) => write!(f, "database already exists: {n}"),
            CatalogError::ArityMismatch {
                relation,
                have,
                got,
            } => write!(f, "{relation} has arity {have}, tuple has {got}"),
            CatalogError::EmptyLoad(r) => {
                write!(f, "load of {r} carries no tuples (arity unknown)")
            }
            CatalogError::Persist(e) => write!(f, "mutation not applied: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<PersistError> for CatalogError {
    fn from(e: PersistError) -> Self {
        CatalogError::Persist(e.to_string())
    }
}

/// A named collection of versioned databases, shared between the engine's
/// workers (readers) and the wire mutation verbs (writers).
pub struct Catalog {
    /// Name → current published snapshot. Held only for O(1) get/swap.
    map: Mutex<FxHashMap<String, DbSnapshot>>,
    /// Serializes writers so concurrent mutations cannot lose updates.
    /// Writers do their tuple work (and commit fsyncs) while holding only
    /// this, not `map`.
    write: Mutex<()>,
    /// Catalog-wide version fountain.
    ticks: AtomicU64,
    /// Column-id allocator for wire-created relations.
    next_col: AtomicU32,
    /// The durable store; `None` for memory-only catalogs.
    store: Option<DurableStore>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty, memory-only catalog (no databases, not even
    /// [`DEFAULT_DB`]; nothing survives the process).
    pub fn new() -> Self {
        Catalog {
            map: Mutex::new(FxHashMap::default()),
            write: Mutex::new(()),
            ticks: AtomicU64::new(0),
            next_col: AtomicU32::new(WIRE_COL_BASE),
            store: None,
        }
    }

    /// A memory-only catalog whose [`DEFAULT_DB`] is `db` — the migration
    /// path for everything that used to call `Engine::start(db, …)`.
    pub fn with_default(db: Database) -> Self {
        let catalog = Catalog::new();
        catalog
            .insert(DEFAULT_DB, db)
            .expect("memory-only insert cannot fail");
        catalog
    }

    /// Opens a durable catalog rooted at `data_dir` with the default
    /// store options (fsync on every commit): recovers every database
    /// from its newest snapshot plus write-ahead-log replay, resumes the
    /// version fountain above the recovered high-water mark, and hooks
    /// the store into every subsequent mutation.
    ///
    /// Recovery truncates torn log tails (unacknowledged residue of a
    /// crash) and refuses with a typed [`RecoveryError`] on anything
    /// worse — serving a wrong database is never an option.
    pub fn open(data_dir: impl Into<PathBuf>) -> Result<(Catalog, RecoveryReport), RecoveryError> {
        Catalog::open_with(data_dir, StoreOptions::default())
    }

    /// [`Catalog::open`] with explicit store tuning (sync policy,
    /// checkpoint cadence) — the bench's persistence axis and the tests
    /// use this.
    pub fn open_with(
        data_dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<(Catalog, RecoveryReport), RecoveryError> {
        let (store, recovered, report) = DurableStore::open(data_dir, options)?;
        let mut catalog = Catalog::new();
        catalog.ticks = AtomicU64::new(report.max_version);
        {
            let mut map = catalog.map.lock().expect("catalog map lock");
            for db in recovered {
                let database = catalog.rebuild(db.contents);
                let fingerprint = fingerprint_db(&database);
                map.insert(
                    db.name,
                    DbSnapshot {
                        db: Arc::new(database),
                        version: DbVersion(db.version),
                        fingerprint,
                    },
                );
            }
        }
        catalog.store = Some(store);
        Ok((catalog, report))
    }

    /// Converts recovered contents back into a [`Database`], allocating
    /// fresh column ids (ids are not persisted; evaluation binds columns
    /// by position).
    fn rebuild(&self, contents: DbContents) -> Database {
        let mut database = Database::new();
        for rel in contents.relations {
            let mut relation = Relation::new(&rel.name, self.fresh_schema(rel.arity), rel.tuples);
            relation.dedup();
            database.add(relation);
        }
        database
    }

    /// `arity` columns no other relation uses.
    fn fresh_schema(&self, arity: usize) -> Schema {
        let base = self.next_col.fetch_add(arity as u32, Ordering::Relaxed);
        Schema::new((0..arity as u32).map(|i| AttrId(base + i)).collect())
    }

    /// The durable store, if this catalog persists (set by
    /// [`Catalog::open`]).
    pub fn persister(&self) -> Option<&DurableStore> {
        self.store.as_ref()
    }

    /// Durability counters, if this catalog persists.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.store.as_ref().map(DurableStore::stats)
    }

    fn next_version(&self) -> DbVersion {
        DbVersion(self.ticks.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Publishes `db` under `name`, creating or wholesale-replacing it.
    /// This is the embedded (in-process) entry point; the wire verbs go
    /// through [`create`](Catalog::create) / [`load`](Catalog::load) /
    /// [`add`](Catalog::add). Returns the new version. On a durable
    /// catalog the whole database is checkpointed first; a persist
    /// failure leaves the catalog unchanged.
    pub fn insert(&self, name: impl Into<String>, db: Database) -> Result<DbVersion, CatalogError> {
        let name = name.into();
        let _w = self.write.lock().expect("catalog write lock");
        let version = self.next_version();
        if let Some(store) = &self.store {
            store.record_insert(&name, &relations(&db), version.0)?;
        }
        self.publish_at(&name, db, version);
        Ok(version)
    }

    /// Creates an empty database. Fails if the name is taken (use
    /// [`insert`](Catalog::insert) to replace).
    pub fn create(&self, name: &str) -> Result<DbVersion, CatalogError> {
        let _w = self.write.lock().expect("catalog write lock");
        if self
            .map
            .lock()
            .expect("catalog map lock")
            .contains_key(name)
        {
            return Err(CatalogError::DatabaseExists(name.to_string()));
        }
        let version = self.next_version();
        if let Some(store) = &self.store {
            store.record_create(name, version.0)?;
        }
        self.publish_at(name, Database::new(), version);
        Ok(version)
    }

    /// Removes a database. In-flight requests holding its snapshot finish
    /// normally; only new snapshots fail. On a durable catalog the drop
    /// is made durable before it is visible.
    pub fn drop_db(&self, name: &str) -> Result<(), CatalogError> {
        let _w = self.write.lock().expect("catalog write lock");
        if !self
            .map
            .lock()
            .expect("catalog map lock")
            .contains_key(name)
        {
            return Err(CatalogError::UnknownDatabase(name.to_string()));
        }
        let version = self.next_version();
        if let Some(store) = &self.store {
            store.record_drop(name, version.0)?;
        }
        let dropped = self.map.lock().expect("catalog map lock").remove(name);
        // Freed, if no reader holds it, only now that the map lock is
        // released: every worker's `snapshot` takes that lock.
        drop(dropped);
        Ok(())
    }

    /// The current snapshot of `name`, or `None` if absent. O(1): an Arc
    /// clone under a briefly-held lock.
    pub fn snapshot(&self, name: &str) -> Option<DbSnapshot> {
        self.map
            .lock()
            .expect("catalog map lock")
            .get(name)
            .cloned()
    }

    /// Bulk-loads `rel` in database `db`, **replacing** any existing
    /// relation of that name. All tuples must share one arity; at least
    /// one tuple is required (an empty load has no arity to infer).
    /// Returns the database's new version.
    pub fn load(
        &self,
        db: &str,
        rel: &str,
        tuples: Vec<Box<[Value]>>,
    ) -> Result<DbVersion, CatalogError> {
        let Some(first) = tuples.first() else {
            return Err(CatalogError::EmptyLoad(rel.to_string()));
        };
        let arity = first.len();
        for t in &tuples {
            if t.len() != arity {
                return Err(CatalogError::ArityMismatch {
                    relation: rel.to_string(),
                    have: arity,
                    got: t.len(),
                });
            }
        }
        let _w = self.write.lock().expect("catalog write lock");
        let current = self
            .snapshot(db)
            .ok_or_else(|| CatalogError::UnknownDatabase(db.to_string()))?;
        // Tuple work happens here, outside the map lock: readers snapshot
        // the *old* version undisturbed until the swap below.
        let mut relation = Relation::new(rel, self.fresh_schema(arity), tuples);
        relation.dedup();
        let mut next = (*current.db).clone();
        next.add(relation);
        let version = self.next_version();
        if let Some(store) = &self.store {
            // The log stores the post-dedup rows in relation order, so
            // replay reconstructs byte-identical scans.
            let loaded = next.get(rel).expect("just added");
            store.record_load(db, loaded, version.0, &relations(&next))?;
        }
        self.publish_at(db, next, version);
        Ok(version)
    }

    /// Appends one tuple to `rel` in database `db`, creating the relation
    /// (with the tuple's arity) if it does not exist yet. Returns the
    /// database's new version.
    pub fn add(&self, db: &str, rel: &str, tuple: Box<[Value]>) -> Result<DbVersion, CatalogError> {
        let _w = self.write.lock().expect("catalog write lock");
        let current = self
            .snapshot(db)
            .ok_or_else(|| CatalogError::UnknownDatabase(db.to_string()))?;
        if let Some(existing) = current.db.get(rel) {
            if existing.arity() != tuple.len() {
                return Err(CatalogError::ArityMismatch {
                    relation: rel.to_string(),
                    have: existing.arity(),
                    got: tuple.len(),
                });
            }
        }
        // The clone shares the relation's row chunks, so `insert` copies
        // at most the last one, and keeps its digest, which `insert`
        // updates in O(1): publishing re-fingerprints no rows.
        let mut relation = match current.db.get(rel) {
            Some(existing) => (**existing).clone(),
            None => Relation::empty(rel, self.fresh_schema(tuple.len())),
        };
        relation.insert(&tuple);
        let mut next = (*current.db).clone();
        next.add(relation);
        let version = self.next_version();
        if let Some(store) = &self.store {
            store.record_add(db, rel, &tuple, version.0, &relations(&next))?;
        }
        self.publish_at(db, next, version);
        Ok(version)
    }

    /// Swaps in `next` under `version`, fingerprinting its content.
    /// Caller holds `write` and has already persisted the mutation.
    fn publish_at(&self, name: &str, next: Database, version: DbVersion) {
        let fingerprint = fingerprint_db(&next);
        let snapshot = DbSnapshot {
            db: Arc::new(next),
            version,
            fingerprint,
        };
        let replaced = self
            .map
            .lock()
            .expect("catalog map lock")
            .insert(name.to_string(), snapshot);
        // A temporary of the statement above would be dropped before the
        // guard is, freeing the replaced database (when no reader holds
        // it) under the lock every worker's `snapshot` takes.
        drop(replaced);
    }

    /// Database names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .map
            .lock()
            .expect("catalog map lock")
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// One [`DbInfo`] per database, sorted by name — the `dbs` verb's
    /// payload.
    pub fn list(&self) -> Vec<DbInfo> {
        let mut infos: Vec<DbInfo> = self
            .map
            .lock()
            .expect("catalog map lock")
            .iter()
            .map(|(name, snap)| DbInfo {
                name: name.clone(),
                version: snap.version,
                fingerprint: snap.fingerprint,
                relations: snap.db.len(),
            })
            .collect();
        infos.sort_unstable_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Number of databases.
    pub fn len(&self) -> usize {
        self.map.lock().expect("catalog map lock").len()
    }

    /// True when the catalog holds no databases.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `db`'s relations in name order: what the store logs and checkpoints
/// (it persists names, arities and rows, never column ids).
fn relations(db: &Database) -> Vec<&Relation> {
    db.names()
        .into_iter()
        .map(|name| &**db.get(name).expect("name came from names()"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use proptest::prelude::*;

    fn tuple(vals: &[Value]) -> Box<[Value]> {
        vals.to_vec().into_boxed_slice()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppr-catalog-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn versions_are_monotonic_and_catalog_unique() {
        let c = Catalog::new();
        let v1 = c.create("a").unwrap();
        let v2 = c.create("b").unwrap();
        let v3 = c.load("a", "e", vec![tuple(&[1, 2])]).unwrap();
        assert!(v1 < v2 && v2 < v3);
        // Drop + recreate never revisits an old version.
        c.drop_db("a").unwrap();
        let v4 = c.create("a").unwrap();
        assert!(v4 > v3);
    }

    #[test]
    fn snapshots_are_stable_under_mutation() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2])]).unwrap();
        let before = c.snapshot("g").unwrap();
        c.add("g", "e", tuple(&[2, 3])).unwrap();
        let after = c.snapshot("g").unwrap();
        // The old snapshot still sees one tuple; the new one sees two.
        assert_eq!(before.db.expect("e").len(), 1);
        assert_eq!(after.db.expect("e").len(), 2);
        assert!(after.version > before.version);
        assert_ne!(after.fingerprint, before.fingerprint);
    }

    #[test]
    fn load_replaces_add_appends_and_dedups() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
            .unwrap();
        c.load("g", "e", vec![tuple(&[7, 8])]).unwrap();
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 1);
        let v1 = c.add("g", "e", tuple(&[7, 8])).unwrap(); // duplicate
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 1);
        let v2 = c.add("g", "e", tuple(&[8, 9])).unwrap();
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 2);
        // Even the no-op duplicate bumped the version (cheap, and keeps
        // the observable mutation counter honest)…
        assert!(v2 > v1);
    }

    #[test]
    fn noop_mutation_keeps_the_fingerprint() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "e", vec![tuple(&[1, 2])]).unwrap();
        let before = c.snapshot("g").unwrap();
        c.add("g", "e", tuple(&[1, 2])).unwrap(); // duplicate: no content change
        let after = c.snapshot("g").unwrap();
        assert!(after.version > before.version, "version still bumps");
        assert_eq!(
            after.fingerprint, before.fingerprint,
            "content unchanged ⇒ cache identity unchanged ⇒ warm entries survive"
        );
    }

    #[test]
    fn isomorphic_databases_share_a_fingerprint() {
        let c = Catalog::new();
        // Same content under different names, loaded in different order,
        // through different verbs (⇒ different AttrIds internally).
        c.create("a").unwrap();
        c.load("a", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
            .unwrap();
        c.load("a", "f", vec![tuple(&[9])]).unwrap();
        c.create("b").unwrap();
        c.load("b", "f", vec![tuple(&[9])]).unwrap();
        c.add("b", "e", tuple(&[2, 3])).unwrap();
        c.add("b", "e", tuple(&[1, 2])).unwrap();
        let (a, b) = (c.snapshot("a").unwrap(), c.snapshot("b").unwrap());
        assert_eq!(a.fingerprint, b.fingerprint);
        // And content differences do split them.
        c.add("b", "e", tuple(&[3, 4])).unwrap();
        assert_ne!(
            c.snapshot("a").unwrap().fingerprint,
            c.snapshot("b").unwrap().fingerprint
        );
        // The empty database has a fingerprint too, distinct per content.
        c.create("empty").unwrap();
        assert_ne!(c.snapshot("empty").unwrap().fingerprint, a.fingerprint);
    }

    #[test]
    fn fingerprint_of_a_fixed_database_is_pinned() {
        // Recovery identity and `dbs` replies depend on this exact value.
        let mut db = Database::new();
        db.add(Relation::new(
            "edge",
            Schema::new(vec![AttrId(1), AttrId(2)]),
            vec![tuple(&[1, 2]), tuple(&[2, 3]), tuple(&[3, 1])],
        ));
        db.add(Relation::new(
            "color",
            Schema::new(vec![AttrId(3)]),
            vec![tuple(&[7]), tuple(&[9])],
        ));
        let pinned = DbFingerprint(0x8da8_d921_6a84_3d4c_3e00_a9e0_cea9_d5f0);
        assert_eq!(fingerprint_db(&db), pinned);
        assert_eq!(fingerprint_relations(&db, &["color", "edge"]), pinned);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every `load`/`add` of a random script (duplicates
        /// frequent), the catalog's incrementally maintained fingerprint
        /// equals `fingerprint_db` of the same content rebuilt from
        /// scratch in reverse row order.
        #[test]
        fn fingerprint_matches_a_rebuild_from_scratch(
            script in prop::collection::vec(
                (0u8..4, 0usize..3, prop::collection::vec((0u32..4, 0u32..4), 1..5)),
                1..24,
            ),
        ) {
            let c = Catalog::new();
            c.create("g").unwrap();
            let mut model: BTreeMap<&str, Vec<Box<[Value]>>> = BTreeMap::new();
            for (verb, rel, rows) in script {
                let (name, arity) = [("a", 1), ("b", 2), ("c", 2)][rel];
                let rows: Vec<Box<[Value]>> =
                    rows.iter().map(|&(x, y)| [x, y][..arity].into()).collect();
                let kept = if verb == 0 {
                    c.load("g", name, rows.clone()).unwrap();
                    model.insert(name, Vec::new());
                    rows
                } else {
                    c.add("g", name, rows[0].clone()).unwrap();
                    vec![rows[0].clone()]
                };
                let distinct = model.entry(name).or_default();
                for t in kept {
                    if !distinct.contains(&t) {
                        distinct.push(t);
                    }
                }

                let snap = c.snapshot("g").unwrap();
                let mut rebuilt = Database::new();
                for (name, rows) in &model {
                    let stored = snap.db.expect(name);
                    prop_assert_eq!(stored.tuples(), rows.as_slice());
                    let schema = Schema::new((0..rows[0].len() as u32).map(AttrId).collect());
                    let reversed = rows.iter().rev().cloned().collect();
                    rebuilt.add(Relation::new(*name, schema, reversed));
                }
                prop_assert_eq!(snap.fingerprint, fingerprint_db(&rebuilt));
                prop_assert_eq!(
                    fingerprint_relations(&snap.db, &snap.db.names()),
                    snap.fingerprint
                );
            }
        }
    }

    #[test]
    fn add_creates_missing_relation_with_tuple_arity() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.add("g", "t", tuple(&[1, 2, 3])).unwrap();
        let snap = c.snapshot("g").unwrap();
        assert_eq!(snap.db.expect("t").arity(), 3);
    }

    #[test]
    fn typed_errors() {
        let c = Catalog::new();
        c.create("g").unwrap();
        assert_eq!(c.create("g"), Err(CatalogError::DatabaseExists("g".into())));
        assert_eq!(
            c.load("nope", "e", vec![tuple(&[1])]),
            Err(CatalogError::UnknownDatabase("nope".into()))
        );
        assert_eq!(
            c.load("g", "e", Vec::new()),
            Err(CatalogError::EmptyLoad("e".into()))
        );
        assert!(matches!(
            c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[1])]),
            Err(CatalogError::ArityMismatch { .. })
        ));
        c.load("g", "e", vec![tuple(&[1, 2])]).unwrap();
        assert!(matches!(
            c.add("g", "e", tuple(&[1, 2, 3])),
            Err(CatalogError::ArityMismatch { .. })
        ));
        assert_eq!(
            c.drop_db("missing"),
            Err(CatalogError::UnknownDatabase("missing".into()))
        );
    }

    #[test]
    fn wire_created_schemas_never_collide() {
        let c = Catalog::new();
        c.create("g").unwrap();
        c.load("g", "a", vec![tuple(&[1, 2])]).unwrap();
        c.load("g", "b", vec![tuple(&[3])]).unwrap();
        let snap = c.snapshot("g").unwrap();
        let a: Vec<AttrId> = snap.db.expect("a").schema().attrs().to_vec();
        let b: Vec<AttrId> = snap.db.expect("b").schema().attrs().to_vec();
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn concurrent_writers_lose_no_updates() {
        let c = Arc::new(Catalog::new());
        c.create("g").unwrap();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25u32 {
                    c.add("g", "e", tuple(&[t, i])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot("g").unwrap();
        assert_eq!(snap.db.expect("e").len(), 100, "every add must land");
        assert_eq!(snap.version, DbVersion(101), "100 adds + 1 create");
    }

    #[test]
    fn durable_catalog_recovers_content_version_and_fingerprint() {
        let dir = tmpdir("recover");
        let (before_v, before_fp);
        {
            let (c, report) = Catalog::open(&dir).unwrap();
            assert_eq!(report.databases, 0);
            c.create("g").unwrap();
            c.load("g", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
                .unwrap();
            c.add("g", "e", tuple(&[3, 1])).unwrap();
            let snap = c.snapshot("g").unwrap();
            before_v = snap.version;
            before_fp = snap.fingerprint;
        }
        let (c, report) = Catalog::open(&dir).unwrap();
        assert_eq!(report.databases, 1);
        let snap = c.snapshot("g").unwrap();
        assert_eq!(snap.version, before_v, "version resumes, not resets");
        assert_eq!(
            snap.fingerprint, before_fp,
            "recovered database keeps its cache identity"
        );
        assert_eq!(
            snap.db.expect("e").tuples(),
            &[tuple(&[1, 2]), tuple(&[2, 3]), tuple(&[3, 1])],
            "row order is replayed exactly (byte-identical scans)"
        );
        // New mutations continue above the recovered high-water mark.
        let v = c.add("g", "e", tuple(&[9, 9])).unwrap();
        assert!(v > before_v);
    }

    #[test]
    fn durable_drop_does_not_resurrect() {
        let dir = tmpdir("drop");
        {
            let (c, _) = Catalog::open(&dir).unwrap();
            c.create("keep").unwrap();
            c.create("gone").unwrap();
            c.load("gone", "e", vec![tuple(&[1, 1])]).unwrap();
            c.drop_db("gone").unwrap();
        }
        let (c, _) = Catalog::open(&dir).unwrap();
        assert_eq!(c.names(), vec!["keep".to_string()]);
    }

    #[test]
    fn durable_insert_checkpoints_wholesale() {
        let dir = tmpdir("insert");
        let mut db = Database::new();
        db.add(Relation::new(
            "edge",
            Schema::new(vec![AttrId(1), AttrId(2)]),
            vec![tuple(&[4, 5])],
        ));
        let fp = fingerprint_db(&db);
        {
            let (c, _) = Catalog::open(&dir).unwrap();
            c.insert(DEFAULT_DB, db).unwrap();
            assert!(c.durability_stats().unwrap().snapshot_writes >= 1);
        }
        let (c, report) = Catalog::open(&dir).unwrap();
        assert_eq!(report.snapshots_loaded, 1);
        let snap = c.snapshot(DEFAULT_DB).unwrap();
        assert_eq!(snap.fingerprint, fp, "fingerprint ignores column ids");
        assert_eq!(snap.db.expect("edge").len(), 1);
    }

    /// Copies a live data directory, so recovery can run beside the
    /// catalog still writing the original.
    fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
        let _ = std::fs::remove_dir_all(to);
        for db in std::fs::read_dir(from).unwrap() {
            let db = db.unwrap();
            std::fs::create_dir_all(to.join(db.file_name())).unwrap();
            for file in std::fs::read_dir(db.path()).unwrap() {
                let file = file.unwrap();
                let target = to.join(db.file_name()).join(file.file_name());
                std::fs::copy(file.path(), target).unwrap();
            }
        }
    }

    /// Every database of `got` matches `want`: names, versions,
    /// fingerprints, and every relation's rows in order.
    fn assert_same_catalog(got: &Catalog, want: &Catalog, step: &str) {
        assert_eq!(got.names(), want.names(), "after {step}");
        for name in want.names() {
            let (g, w) = (got.snapshot(&name).unwrap(), want.snapshot(&name).unwrap());
            assert_eq!(g.version, w.version, "{name} after {step}");
            assert_eq!(g.fingerprint, w.fingerprint, "{name} after {step}");
            assert_eq!(g.db.names(), w.db.names(), "{name} after {step}");
            for rel in w.db.names() {
                let (gr, wr) = (g.db.expect(rel), w.db.expect(rel));
                assert_eq!(gr.tuples(), wr.tuples(), "{name}.{rel} after {step}");
            }
        }
    }

    #[test]
    fn every_checkpoint_holds_the_published_database() {
        // With a checkpoint after every record, each mutation's snapshot
        // replaces the log: a snapshot of the wrong database would lose
        // an acknowledged write at the very next reopen.
        let dir = tmpdir("checkpoint-every");
        let copy = tmpdir("checkpoint-every-copy");
        let options = StoreOptions {
            sync: ppr_durability::SyncPolicy::Never,
            snapshot_every: 1,
            snapshot_bytes: 1 << 20,
        };
        let (c, _) = Catalog::open_with(&dir, options).unwrap();
        let reopened_matches = |step: &str| {
            copy_dir(&dir, &copy);
            let (recovered, _) = Catalog::open_with(&copy, options).unwrap();
            assert_same_catalog(&recovered, &c, step);
        };
        c.create("a").unwrap();
        c.create("b").unwrap();
        reopened_matches("create");
        c.load("a", "e", vec![tuple(&[1, 2]), tuple(&[2, 3])])
            .unwrap();
        c.load("b", "f", vec![tuple(&[9])]).unwrap();
        reopened_matches("load");
        c.add("a", "e", tuple(&[3, 1])).unwrap();
        reopened_matches("add");
        c.add("a", "g", tuple(&[7])).unwrap();
        reopened_matches("add to a new relation");
        c.add("a", "e", tuple(&[1, 2])).unwrap();
        reopened_matches("duplicate add");
        c.load("a", "e", vec![tuple(&[8, 8])]).unwrap();
        reopened_matches("re-load");
        let mut replaced = Database::new();
        replaced.add(Relation::new(
            "edge",
            Schema::new(vec![AttrId(1), AttrId(2)]),
            vec![tuple(&[4, 5]), tuple(&[5, 4])],
        ));
        c.insert("b", replaced).unwrap();
        reopened_matches("insert");
        c.add("b", "edge", tuple(&[6, 6])).unwrap();
        reopened_matches("add after insert");
        c.drop_db("a").unwrap();
        reopened_matches("drop");
        assert_eq!(c.durability_stats().unwrap().snapshot_writes, 8);
    }

    #[test]
    fn a_name_the_log_cannot_hold_is_refused_not_a_panic() {
        let dir = tmpdir("long-name");
        let (c, _) = Catalog::open(&dir).unwrap();
        c.create("g").unwrap();
        let long = "r".repeat(70_000);
        assert!(matches!(
            c.add("g", &long, tuple(&[1, 2])),
            Err(CatalogError::Persist(_))
        ));
        assert!(matches!(
            c.load("g", &long, vec![tuple(&[1, 2])]),
            Err(CatalogError::Persist(_))
        ));
        let mut db = Database::new();
        db.add(Relation::new(
            &long,
            Schema::new(vec![AttrId(1)]),
            vec![tuple(&[1])],
        ));
        assert!(matches!(c.insert("h", db), Err(CatalogError::Persist(_))));
        assert!(c.snapshot("h").is_none());
        assert!(c.snapshot("g").unwrap().db.is_empty(), "nothing published");

        // The catalog is not poisoned: the next mutation goes through.
        c.add("g", "e", tuple(&[1, 2])).unwrap();
        drop(c);
        let (c, _) = Catalog::open(&dir).unwrap();
        assert_eq!(c.names(), vec!["g".to_string()]);
        assert_eq!(c.snapshot("g").unwrap().db.expect("e").len(), 1);
    }

    #[test]
    fn list_reports_versions_and_relation_counts() {
        let c = Catalog::new();
        c.create("b").unwrap();
        c.create("a").unwrap();
        c.load("a", "e", vec![tuple(&[1, 2])]).unwrap();
        let infos = c.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a");
        assert_eq!(infos[0].relations, 1);
        assert_eq!(infos[1].name, "b");
        assert_eq!(infos[1].relations, 0);
        assert_eq!(infos[0].fingerprint, c.snapshot("a").unwrap().fingerprint);
    }
}
