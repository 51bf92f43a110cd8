//! Durable storage for the serving catalog: write-ahead commit logs,
//! full snapshots, and crash recovery.
//!
//! The serving stack evaluates queries over a multi-database catalog
//! that — before this crate — lived only in memory: a restart lost every
//! database and every warm cache entry. This crate gives each database an
//! **append-only, length-prefixed, checksummed write-ahead commit log**
//! (one `wal.log` per database directory) recording the catalog
//! mutations (`create` / `load` / `add`; `drop` retires the whole
//! directory), plus **periodic full snapshots** that truncate the log,
//! plus **startup recovery** that replays the log over the newest valid
//! snapshot. The split mirrors SpacetimeDB's `commitlog` / `snapshot` /
//! `datastore` layering: the log is the source of truth for recent
//! commits, snapshots bound replay time, and the recovered catalog is a
//! pure function of the two.
//!
//! Design points, in the order they matter:
//!
//! * **Ack implies durable.** With [`SyncPolicy::Always`] (the serving
//!   default) every commit record is `fsync`ed before the mutation is
//!   published — a client that saw `ok` will see the mutation again after
//!   a crash. [`SyncPolicy::Never`] keeps the same format but leaves
//!   flushing to the OS; it exists for the bench's persistence axis.
//! * **Torn tails are normal, mid-log corruption is not.** A crash can
//!   leave a half-written record at the *end* of the log; recovery
//!   truncates it away (it was never acknowledged). A bad checksum with
//!   more log *after* it means the disk lied about history, and recovery
//!   refuses to start with a typed [`RecoveryError`] rather than serve a
//!   wrong database. See `docs/DURABILITY.md` for the full corruption
//!   matrix.
//! * **One copy of every database.** The catalog's published database
//!   is the only copy in memory. The catalog builds the post-mutation
//!   database first and hands its relations (`ppr_relalg` [`Relation`]s,
//!   by reference) to the store, which logs the mutation from their rows
//!   and, when its cadence says so, checkpoints them. Recovery hands back
//!   plain [`DbContents`] — names, arities and rows, free of column ids —
//!   which `ppr-service` turns back into schemas.
//!
//! The catalog owns the [`DurableStore`] and calls one `record_*` hook
//! per mutating path, inside its writer lock, *before* publishing the
//! mutation.
//!
//! [`Relation`]: ppr_relalg::Relation

mod snapshot;
pub mod store;
mod wal;

use std::fmt;

use ppr_obs::HistSnapshot;
pub use ppr_relalg::value::{tuple, Tuple};
pub use ppr_relalg::Value;

pub use store::{
    DurableStore, RecoveredDb, RecoveryError, RecoveryReport, StoreOptions, SyncPolicy,
};

/// One relation's data, free of schema identity: recovery re-allocates
/// attribute ids, so only the name, arity, and rows are persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationData {
    /// Relation name (unique within a database).
    pub name: String,
    /// Number of columns; every tuple has exactly this many values.
    pub arity: usize,
    /// Rows, duplicate-free, in first-occurrence order. Order is
    /// persisted and replayed exactly so recovered query results are
    /// byte-identical to the pre-crash server's.
    pub tuples: Vec<Tuple>,
}

/// A whole database's data as recovery returns it: the snapshot's
/// relations in the order the snapshot stores them, then the relations
/// the log's replay created. The order is deterministic, though nothing
/// downstream depends on it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DbContents {
    /// The database's relations.
    pub relations: Vec<RelationData>,
}

impl DbContents {
    /// The relation named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&RelationData> {
        self.relations.iter().find(|r| r.name == name)
    }

    /// Replaces (or creates) `rel` with exactly `tuples` — the `load`
    /// verb's semantics, replayed. Tuples are pre-deduplicated: the
    /// catalog logged them after its own dedup.
    pub(crate) fn apply_load(&mut self, rel: &str, arity: usize, tuples: Vec<Tuple>) {
        match self.relations.iter_mut().find(|r| r.name == rel) {
            Some(r) => {
                r.arity = arity;
                r.tuples = tuples;
            }
            None => self.relations.push(RelationData {
                name: rel.to_string(),
                arity,
                tuples,
            }),
        }
    }

    /// Appends one tuple to `rel`, creating the relation with the
    /// tuple's arity if absent — the `add` verb's semantics, replayed,
    /// including its first-occurrence dedup (a duplicate add is a no-op).
    pub(crate) fn apply_add(&mut self, rel: &str, tuple: Tuple) {
        match self.relations.iter_mut().find(|r| r.name == rel) {
            Some(r) => {
                if !r.tuples.contains(&tuple) {
                    r.tuples.push(tuple);
                }
            }
            None => self.relations.push(RelationData {
                name: rel.to_string(),
                arity: tuple.len(),
                tuples: vec![tuple],
            }),
        }
    }
}

/// Why a mutation could not be made durable. The catalog refuses the
/// mutation (nothing is published) when a store hook returns this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// The operation that failed (`create`, `append`, `snapshot`, …).
    pub op: &'static str,
    /// Human-readable cause, usually the underlying I/O error.
    pub detail: String,
}

impl PersistError {
    pub(crate) fn io(op: &'static str, err: &std::io::Error) -> Self {
        PersistError {
            op,
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "durability {} failed: {}", self.op, self.detail)
    }
}

impl std::error::Error for PersistError {}

/// Counter snapshot of a store's activity since open, plus what recovery
/// did at open. The same counters are on `/metrics` via
/// [`DurableStore::render_prometheus`].
#[derive(Debug, Clone, Default)]
pub struct DurabilityStats {
    /// WAL records appended (commits logged).
    pub wal_appends: u64,
    /// Bytes appended to WALs.
    pub wal_bytes: u64,
    /// `fsync` calls issued on commit paths.
    pub fsyncs: u64,
    /// Commit-path `fsync` latency distribution, in microseconds.
    pub fsync_us: HistSnapshot,
    /// Full snapshot files written (checkpoints + wholesale inserts).
    pub snapshot_writes: u64,
    /// What recovery found at open.
    pub recovery: RecoveryReport,
}
