//! The durable store: one directory per database, recovery at open,
//! and the commit hooks the catalog calls on every mutation.
//!
//! ## On-disk layout
//!
//! ```text
//! <data_dir>/
//!   <db-name>/                 one directory per database
//!     wal.log                  commit log (see wal.rs)
//!     snap.<seq 020d>          newest checkpoint (older ones are GC'd)
//!     snap.tmp                 in-progress checkpoint (transient)
//!   #trash.<db>.<version>/     renamed-away drop awaiting deletion
//! ```
//!
//! Database names are already restricted by the wire protocol to
//! `[A-Za-z0-9_.-]`, so a name is always a safe single path component
//! and can never collide with `#trash.*` (names cannot contain `#`).
//! The store re-checks this on every write path rather than trusting
//! callers.
//!
//! ## Commit and checkpoint protocol
//!
//! Every mutation appends one record and (under [`SyncPolicy::Always`])
//! fsyncs before returning — the catalog publishes only after the hook
//! succeeds, so an acknowledged mutation is always on disk. The store
//! holds no rows of its own: the catalog builds the post-mutation
//! database first and hands its relations to the hook. After
//! [`StoreOptions::snapshot_every`] records (or
//! [`StoreOptions::snapshot_bytes`] of log), the store checkpoints those
//! relations: it writes `snap.tmp`, fsyncs, renames to `snap.<seq>`,
//! fsyncs the directory, *then* truncates the log and deletes older
//! snapshots. A wholesale `insert` is the same checkpoint, taken at
//! once. Each step is safe to crash in: recovery ignores `snap.tmp`,
//! skips log records a snapshot already covers, and uses the newest
//! readable snapshot.
//!
//! `drop` renames the directory to `#trash.<db>.<version>` (atomic),
//! fsyncs the data dir, then deletes the trash best-effort; recovery
//! sweeps leftovers. `create`'s mkdir + first record are not atomic —
//! a crash between them leaves a directory with no acknowledged record,
//! which recovery deletes (the create was never acked).

use std::borrow::Cow;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ppr_obs::{Counter, Histogram, Registry};
use ppr_relalg::value::Tuple;
use ppr_relalg::Relation;
use rustc_hash::FxHashMap;

use crate::snapshot::{parse_snapshot_name, read_snapshot, write_snapshot, SNAP_TMP};
use crate::wal::{scan_wal, LoadRows, WalRecord, WalWriter, MAX_NAME};
use crate::{DbContents, DurabilityStats, PersistError};

/// Name of the commit log within a database directory.
pub const WAL_FILE: &str = "wal.log";

/// Prefix marking a directory as a dropped database awaiting deletion.
const TRASH_PREFIX: &str = "#trash.";

/// When commit records reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fsync` on every commit (and around every checkpoint / create /
    /// drop). An `ok` on the wire implies the mutation survives a crash.
    /// The serving default.
    Always,
    /// Write through the OS page cache and let the kernel flush. Same
    /// formats, same recovery — but a crash can lose the most recent
    /// acknowledged commits. Exists for the bench's persistence axis.
    Never,
}

impl SyncPolicy {
    fn on(self) -> bool {
        matches!(self, SyncPolicy::Always)
    }
}

/// Store tuning. Defaults are the serving configuration; tests shrink
/// the checkpoint cadence to exercise snapshots.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Commit fsync policy.
    pub sync: SyncPolicy,
    /// Checkpoint after this many log records.
    pub snapshot_every: u64,
    /// …or after this many log bytes, whichever comes first.
    pub snapshot_bytes: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync: SyncPolicy::Always,
            snapshot_every: 256,
            snapshot_bytes: 8 << 20,
        }
    }
}

/// One database as recovery handed it back: contents plus the catalog
/// version it was last acknowledged at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredDb {
    /// Database name (the directory name).
    pub name: String,
    /// Full contents after snapshot + log replay.
    pub contents: DbContents,
    /// Catalog version of the last recovered mutation.
    pub version: u64,
}

/// What recovery did at [`DurableStore::open`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Databases recovered.
    pub databases: u64,
    /// WAL records replayed on top of snapshots.
    pub replayed_records: u64,
    /// Snapshot files loaded.
    pub snapshots_loaded: u64,
    /// Torn WAL tails truncated (unacknowledged residue of a crash).
    pub torn_tails: u64,
    /// Unacked half-created database directories swept away.
    pub swept_dirs: u64,
    /// Highest catalog version seen anywhere (the version fountain
    /// resumes above this).
    pub max_version: u64,
    /// Wall-clock recovery time, microseconds.
    pub duration_us: u64,
}

/// Why recovery refused to start. Every variant means the on-disk state
/// contradicts the store's invariants in a way a crash cannot explain —
/// serving would risk returning a wrong database.
#[derive(Debug)]
pub enum RecoveryError {
    /// A WAL record *before* the end of its file failed checksum,
    /// decoding, or sequence contiguity.
    CorruptWal {
        /// Database whose log is bad.
        db: String,
        /// Byte offset of the bad frame.
        offset: u64,
        /// What was wrong.
        detail: String,
    },
    /// A published `snap.<seq>` file failed its checksum or decode.
    CorruptSnapshot {
        /// Database whose checkpoint is bad.
        db: String,
        /// The unreadable file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
    /// A file or directory the store never writes was found.
    UnexpectedEntry {
        /// The stray path.
        path: PathBuf,
    },
    /// An I/O error while reading or repairing.
    Io {
        /// Path being touched.
        path: PathBuf,
        /// The underlying error.
        detail: String,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::CorruptWal { db, offset, detail } => write!(
                f,
                "database {db}: corrupt WAL record at byte {offset} ({detail}); \
                 refusing to serve a partial history"
            ),
            RecoveryError::CorruptSnapshot { db, path, detail } => write!(
                f,
                "database {db}: unreadable snapshot {} ({detail})",
                path.display()
            ),
            RecoveryError::UnexpectedEntry { path } => write!(
                f,
                "unexpected entry {} in data dir; refusing to guess",
                path.display()
            ),
            RecoveryError::Io { path, detail } => {
                write!(f, "i/o on {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

pub(crate) fn io_err(path: &Path, e: io::Error) -> RecoveryError {
    RecoveryError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// A database name that is safe as a single path component and cannot
/// collide with the store's own file names. Mirrors the wire protocol's
/// `check_name` but is enforced independently here.
fn safe_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
        && name != "."
        && name != ".."
}

/// A relation name the log and snapshot formats can hold.
fn check_relation(rel: &str) -> Result<(), PersistError> {
    if rel.len() <= MAX_NAME {
        Ok(())
    } else {
        Err(PersistError {
            op: "name",
            detail: format!("relation name of {} bytes exceeds {MAX_NAME}", rel.len()),
        })
    }
}

/// Per-database writer state: the open log and the counters that drive
/// the checkpoint cadence.
struct DbState {
    wal: WalWriter,
    next_seq: u64,
    records_since_snapshot: u64,
}

/// The durable store. One instance per `--data-dir`, owned by the
/// catalog, which calls one `record_*` hook per mutation.
pub struct DurableStore {
    dir: PathBuf,
    opts: StoreOptions,
    dbs: Mutex<FxHashMap<String, DbState>>,
    registry: Registry,
    wal_appends: Arc<Counter>,
    wal_bytes: Arc<Counter>,
    fsyncs: Arc<Counter>,
    fsync_us: Arc<Histogram>,
    snapshot_writes: Arc<Counter>,
    recovery: RecoveryReport,
}

impl DurableStore {
    /// Opens (creating if needed) a data directory, runs recovery, and
    /// returns the store plus every database it found. The caller
    /// rebuilds its catalog from the [`RecoveredDb`]s; after that, every
    /// mutation must flow through the `record_*` hooks.
    pub fn open(
        dir: impl Into<PathBuf>,
        opts: StoreOptions,
    ) -> Result<(DurableStore, Vec<RecoveredDb>, RecoveryReport), RecoveryError> {
        let dir = dir.into();
        let started = Instant::now();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;

        let mut report = RecoveryReport::default();
        let mut recovered = Vec::new();
        let mut states = FxHashMap::default();

        let mut entries: Vec<_> = fs::read_dir(&dir)
            .map_err(|e| io_err(&dir, e))?
            .collect::<Result<_, _>>()
            .map_err(|e| io_err(&dir, e))?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with(TRASH_PREFIX) {
                // A drop that crashed between rename and delete.
                fs::remove_dir_all(&path).map_err(|e| io_err(&path, e))?;
                report.swept_dirs += 1;
                continue;
            }
            if !path.is_dir() || !safe_name(&name) {
                return Err(RecoveryError::UnexpectedEntry { path });
            }
            match Self::recover_db(&path, &name, &mut report)? {
                Some((db, state)) => {
                    report.databases += 1;
                    report.max_version = report.max_version.max(db.version);
                    recovered.push(db);
                    states.insert(name, state);
                }
                None => {
                    // Residue of an unacknowledged create: sweep it.
                    fs::remove_dir_all(&path).map_err(|e| io_err(&path, e))?;
                    report.swept_dirs += 1;
                }
            }
        }
        report.duration_us = started.elapsed().as_micros() as u64;

        let registry = Registry::new();
        let store = DurableStore {
            wal_appends: registry.counter(
                "ppr_wal_appends_total",
                "Commit records appended to write-ahead logs",
            ),
            wal_bytes: registry
                .counter("ppr_wal_bytes_total", "Bytes appended to write-ahead logs"),
            fsyncs: registry.counter("ppr_wal_fsyncs_total", "Commit-path fsync calls"),
            fsync_us: registry.histogram("ppr_wal_fsync_us", "Commit-path fsync latency (µs)"),
            snapshot_writes: registry
                .counter("ppr_snapshot_writes_total", "Full snapshot files written"),
            registry,
            dir,
            opts,
            dbs: Mutex::new(states),
            recovery: report.clone(),
        };
        for (name, help, v) in [
            (
                "ppr_recovery_duration_us",
                "Startup recovery wall-clock time (µs)",
                report.duration_us,
            ),
            (
                "ppr_recovery_replayed_records",
                "WAL records replayed at startup",
                report.replayed_records,
            ),
            (
                "ppr_recovery_snapshots_loaded",
                "Snapshot files loaded at startup",
                report.snapshots_loaded,
            ),
            (
                "ppr_recovery_databases",
                "Databases recovered at startup",
                report.databases,
            ),
            (
                "ppr_recovery_torn_tails",
                "Torn WAL tails truncated at startup",
                report.torn_tails,
            ),
        ] {
            store.registry.gauge(name, help).set(v);
        }
        Ok((store, recovered, report))
    }

    /// Recovers one database directory: newest snapshot, then the log
    /// suffix past it. `Ok(None)` means the directory holds no
    /// acknowledged state (a torn create) and should be swept.
    fn recover_db(
        path: &Path,
        name: &str,
        report: &mut RecoveryReport,
    ) -> Result<Option<(RecoveredDb, DbState)>, RecoveryError> {
        let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
        let mut wal_path: Option<PathBuf> = None;
        for entry in fs::read_dir(path).map_err(|e| io_err(path, e))? {
            let entry = entry.map_err(|e| io_err(path, e))?;
            let fname = entry.file_name().to_string_lossy().into_owned();
            let fpath = entry.path();
            if fname == WAL_FILE {
                wal_path = Some(fpath);
            } else if fname == SNAP_TMP {
                // In-progress checkpoint that never got renamed.
                fs::remove_file(&fpath).map_err(|e| io_err(&fpath, e))?;
            } else if let Some(seq) = parse_snapshot_name(&fname) {
                snaps.push((seq, fpath));
            } else {
                return Err(RecoveryError::UnexpectedEntry { path: fpath });
            }
        }
        snaps.sort_unstable_by_key(|(seq, _)| *seq);

        // Newest snapshot is the base; a published-but-unreadable one is
        // corruption (tmp+rename means crashes never publish partials).
        let base = match snaps.last() {
            Some((_, p)) => Some(read_snapshot(p, name)?),
            None => None,
        };
        let had_snapshot = base.is_some();
        report.snapshots_loaded += u64::from(had_snapshot);
        // Older snapshots are superseded; finish the interrupted GC.
        for (_, p) in snaps.iter().rev().skip(1) {
            fs::remove_file(p).map_err(|e| io_err(p, e))?;
        }

        let (mut contents, mut version, snap_seq) = match base {
            Some(s) => (s.contents, s.version, s.seq),
            None => (DbContents::default(), 0, 0),
        };

        let (records, wal) = match wal_path {
            Some(wp) => {
                let scan = scan_wal(&wp, name)?;
                if scan.torn_at.is_some() {
                    report.torn_tails += 1;
                }
                let writer = WalWriter::open(&wp, scan.valid_len).map_err(|e| io_err(&wp, e))?;
                (scan.records, writer)
            }
            None => {
                if !had_snapshot {
                    // Neither a snapshot nor a log: nothing was ever
                    // acknowledged here.
                    return Ok(None);
                }
                // A snapshot with no log: older builds' `insert` wrote
                // the snapshot first and could crash before creating
                // the log. Start a fresh one.
                let wp = path.join(WAL_FILE);
                let writer = WalWriter::create(&wp).map_err(|e| io_err(&wp, e))?;
                (Vec::new(), writer)
            }
        };

        if !had_snapshot && records.is_empty() {
            // A log with only a magic and no snapshot: torn create.
            return Ok(None);
        }
        let mut last_seq = snap_seq;
        let mut replayed = 0u64;
        for rec in records {
            // Records a snapshot already covers linger until the next
            // checkpoint truncates the log; skip them.
            if rec.seq() <= snap_seq {
                continue;
            }
            version = rec.version();
            last_seq = rec.seq();
            replayed += 1;
            match rec {
                WalRecord::Create { .. } => {}
                WalRecord::Load {
                    rel, arity, tuples, ..
                } => contents.apply_load(&rel, arity as usize, tuples.into_tuples()),
                WalRecord::Add { rel, tuple, .. } => contents.apply_add(&rel, tuple.into_owned()),
            }
        }
        report.replayed_records += replayed;

        let state = DbState {
            wal,
            next_seq: last_seq + 1,
            records_since_snapshot: replayed,
        };
        Ok(Some((
            RecoveredDb {
                name: name.to_string(),
                contents,
                version,
            },
            state,
        )))
    }

    fn db_dir(&self, db: &str) -> PathBuf {
        self.dir.join(db)
    }

    fn check_name(&self, db: &str) -> Result<(), PersistError> {
        if safe_name(db) {
            Ok(())
        } else {
            Err(PersistError {
                op: "name",
                detail: format!("{db:?} is not a safe database name"),
            })
        }
    }

    /// fsyncs a directory so a rename / mkdir within it is durable.
    fn sync_dir(&self, path: &Path) -> Result<(), PersistError> {
        if !self.opts.sync.on() {
            return Ok(());
        }
        File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| PersistError::io("dir fsync", &e))
    }

    /// A database was created empty.
    pub fn record_create(&self, db: &str, version: u64) -> Result<(), PersistError> {
        self.check_name(db)?;
        let mut dbs = self.dbs.lock().expect("store lock");
        if dbs.contains_key(db) {
            return Err(PersistError {
                op: "create",
                detail: format!("database {db} already has durable state"),
            });
        }
        let dir = self.db_dir(db);
        fs::create_dir_all(&dir).map_err(|e| PersistError::io("create", &e))?;
        let wal_path = dir.join(WAL_FILE);
        let mut wal = WalWriter::create(&wal_path).map_err(|e| PersistError::io("create", &e))?;
        self.commit(&mut wal, &WalRecord::Create { seq: 1, version })?;
        self.sync_dir(&dir)?;
        self.sync_dir(&self.dir)?;
        dbs.insert(
            db.to_string(),
            DbState {
                wal,
                next_seq: 2,
                records_since_snapshot: 1,
            },
        );
        Ok(())
    }

    /// A database was dropped. Durable before it returns: a recovered
    /// catalog never resurrects the name.
    pub fn record_drop(&self, db: &str, version: u64) -> Result<(), PersistError> {
        self.check_name(db)?;
        let mut dbs = self.dbs.lock().expect("store lock");
        if dbs.remove(db).is_none() {
            return Err(PersistError {
                op: "drop",
                detail: format!("database {db} has no durable state"),
            });
        }
        let dir = self.db_dir(db);
        let trash = self.dir.join(format!("{TRASH_PREFIX}{db}.{version}"));
        fs::rename(&dir, &trash).map_err(|e| PersistError::io("drop", &e))?;
        self.sync_dir(&self.dir)?;
        // The rename made the drop durable; deleting the bytes is
        // best-effort (recovery sweeps any leftover trash).
        let _ = fs::remove_dir_all(&trash);
        Ok(())
    }

    /// `load`: `rel` now holds exactly its (distinct) rows, and
    /// `relations` is the whole database after the load. The log record
    /// is encoded straight from `rel`'s rows.
    pub fn record_load(
        &self,
        db: &str,
        rel: &Relation,
        version: u64,
        relations: &[&Relation],
    ) -> Result<(), PersistError> {
        check_relation(rel.name())?;
        self.append(db, relations, |seq| WalRecord::Load {
            seq,
            version,
            rel: Cow::Borrowed(rel.name()),
            arity: rel.arity() as u32,
            tuples: LoadRows::Relation(rel),
        })
    }

    /// `add`: `tuple` appended to `rel` (created if absent), and
    /// `relations` is the whole database after the add.
    pub fn record_add(
        &self,
        db: &str,
        rel: &str,
        tuple: &Tuple,
        version: u64,
        relations: &[&Relation],
    ) -> Result<(), PersistError> {
        check_relation(rel)?;
        self.append(db, relations, |seq| WalRecord::Add {
            seq,
            version,
            rel: Cow::Borrowed(rel),
            tuple: Cow::Borrowed(tuple),
        })
    }

    /// Wholesale create-or-replace of a database with `relations` (the
    /// embedded `Catalog::insert` path): a checkpoint taken at once.
    pub fn record_insert(
        &self,
        db: &str,
        relations: &[&Relation],
        version: u64,
    ) -> Result<(), PersistError> {
        self.check_name(db)?;
        for rel in relations {
            check_relation(rel.name())?;
        }
        let mut dbs = self.dbs.lock().expect("store lock");
        if let Some(state) = dbs.get_mut(db) {
            return self.checkpoint(db, state, version, relations);
        }
        let dir = self.db_dir(db);
        fs::create_dir_all(&dir).map_err(|e| PersistError::io("insert", &e))?;
        let wal =
            WalWriter::create(&dir.join(WAL_FILE)).map_err(|e| PersistError::io("insert", &e))?;
        let mut state = DbState {
            wal,
            next_seq: 1,
            records_since_snapshot: 0,
        };
        self.checkpoint(db, &mut state, version, relations)?;
        self.sync_dir(&self.dir)?;
        dbs.insert(db.to_string(), state);
        Ok(())
    }

    /// Appends the record `make` builds at `db`'s next sequence number,
    /// and checkpoints `relations` if the cadence says so.
    fn append<'a>(
        &self,
        db: &str,
        relations: &[&Relation],
        make: impl FnOnce(u64) -> WalRecord<'a>,
    ) -> Result<(), PersistError> {
        self.check_name(db)?;
        let mut dbs = self.dbs.lock().expect("store lock");
        let state = dbs.get_mut(db).ok_or_else(|| PersistError {
            op: "append",
            detail: format!("database {db} has no durable state (missed create?)"),
        })?;
        let record = make(state.next_seq);
        self.commit(&mut state.wal, &record)?;
        state.next_seq += 1;
        state.records_since_snapshot += 1;
        if state.records_since_snapshot >= self.opts.snapshot_every
            || state.wal.len >= self.opts.snapshot_bytes
        {
            self.checkpoint(db, state, record.version(), relations)?;
        }
        Ok(())
    }

    /// Appends `record` to `wal`, fsyncs per policy, and counts both.
    fn commit(&self, wal: &mut WalWriter, record: &WalRecord) -> Result<(), PersistError> {
        let bytes = wal
            .append(record)
            .map_err(|e| PersistError::io("append", &e))?;
        if self.opts.sync.on() {
            let t = Instant::now();
            wal.sync().map_err(|e| PersistError::io("fsync", &e))?;
            self.fsync_us.record(t.elapsed().as_micros() as u64);
            self.fsyncs.inc();
        }
        self.wal_appends.inc();
        self.wal_bytes.add(bytes);
        Ok(())
    }

    /// Writes `relations` as a snapshot covering every record logged so
    /// far, then truncates the log and deletes older snapshots.
    fn checkpoint(
        &self,
        db: &str,
        state: &mut DbState,
        version: u64,
        relations: &[&Relation],
    ) -> Result<(), PersistError> {
        let dir = self.db_dir(db);
        let seq = state.next_seq - 1;
        write_snapshot(&dir, seq, version, relations, self.opts.sync.on())
            .map_err(|e| PersistError::io("snapshot", &e))?;
        self.snapshot_writes.inc();
        // The snapshot is durable; everything below is cleanup that
        // recovery can redo.
        state
            .wal
            .truncate_to_header()
            .map_err(|e| PersistError::io("truncate", &e))?;
        state.records_since_snapshot = 0;
        for entry in fs::read_dir(&dir).map_err(|e| PersistError::io("snapshot gc", &e))? {
            let entry = entry.map_err(|e| PersistError::io("snapshot gc", &e))?;
            if let Some(s) = parse_snapshot_name(&entry.file_name().to_string_lossy()) {
                if s < seq {
                    fs::remove_file(entry.path())
                        .map_err(|e| PersistError::io("snapshot gc", &e))?;
                }
            }
        }
        Ok(())
    }

    /// Activity counters since open, plus what recovery did.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_appends: self.wal_appends.get(),
            wal_bytes: self.wal_bytes.get(),
            fsyncs: self.fsyncs.get(),
            fsync_us: self.fsync_us.snapshot(),
            snapshot_writes: self.snapshot_writes.get(),
            recovery: self.recovery.clone(),
        }
    }

    /// Prometheus exposition of the store's metrics, appended to the
    /// engine's `/metrics` page.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use ppr_relalg::{AttrId, Schema};

    use super::*;

    fn t(vals: &[u32]) -> Tuple {
        vals.to_vec().into_boxed_slice()
    }

    fn rel(name: &str, rows: &[&[u32]]) -> Relation {
        let arity = rows[0].len() as u32;
        let schema = Schema::new((0..arity).map(AttrId).collect());
        Relation::new(name, schema, rows.iter().map(|r| t(r)).collect())
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ppr-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(every: u64) -> StoreOptions {
        StoreOptions {
            sync: SyncPolicy::Always,
            snapshot_every: every,
            snapshot_bytes: 1 << 20,
        }
    }

    fn reopen(dir: &Path) -> (DurableStore, Vec<RecoveredDb>, RecoveryReport) {
        DurableStore::open(dir, opts(1000)).unwrap()
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = tmpdir("basic");
        {
            let (store, recovered, _) = DurableStore::open(&dir, opts(1000)).unwrap();
            assert!(recovered.is_empty());
            store.record_create("g", 1).unwrap();
            let mut edge = rel("edge", &[&[1, 2], &[2, 3]]);
            store.record_load("g", &edge, 2, &[&edge]).unwrap();
            edge.insert(&[3, 1]);
            store
                .record_add("g", "edge", &t(&[3, 1]), 3, &[&edge])
                .unwrap();
            // A duplicate: logged, but the relation is unchanged.
            store
                .record_add("g", "edge", &t(&[1, 2]), 4, &[&edge])
                .unwrap();
        }
        let (_, recovered, report) = reopen(&dir);
        assert_eq!(recovered.len(), 1);
        let g = &recovered[0];
        assert_eq!(g.name, "g");
        assert_eq!(g.version, 4);
        let edge = g.contents.get("edge").unwrap();
        assert_eq!(edge.tuples, vec![t(&[1, 2]), t(&[2, 3]), t(&[3, 1])]);
        assert_eq!(report.replayed_records, 4);
    }

    #[test]
    fn checkpoint_truncates_log_and_recovers_from_snapshot() {
        let dir = tmpdir("checkpoint");
        {
            let (store, _, _) = DurableStore::open(&dir, opts(3)).unwrap();
            store.record_create("g", 1).unwrap();
            let mut e = Relation::empty("e", Schema::new(vec![AttrId(0), AttrId(1)]));
            for i in 0..10u32 {
                e.insert(&[i, i + 1]);
                store
                    .record_add("g", "e", &t(&[i, i + 1]), 2 + i as u64, &[&e])
                    .unwrap();
            }
            let stats = store.stats();
            assert!(stats.snapshot_writes >= 2, "cadence of 3 over 11 records");
        }
        // Log shrank: records since the last snapshot only.
        let wal_len = fs::metadata(dir.join("g").join(WAL_FILE)).unwrap().len();
        assert!(wal_len < 200, "wal was truncated, len {wal_len}");
        let snaps: Vec<_> = fs::read_dir(dir.join("g"))
            .unwrap()
            .filter_map(|e| parse_snapshot_name(&e.unwrap().file_name().to_string_lossy()))
            .collect();
        assert_eq!(snaps.len(), 1, "older snapshots GC'd: {snaps:?}");

        let (_, recovered, report) = reopen(&dir);
        assert_eq!(recovered[0].version, 11);
        assert_eq!(recovered[0].contents.get("e").unwrap().tuples.len(), 10);
        assert_eq!(report.snapshots_loaded, 1);
        assert!(report.replayed_records < 11);
    }

    #[test]
    fn drop_is_durable_and_trash_is_swept() {
        let dir = tmpdir("drop");
        {
            let (store, _, _) = DurableStore::open(&dir, opts(1000)).unwrap();
            store.record_create("a", 1).unwrap();
            store.record_create("b", 2).unwrap();
            store.record_drop("a", 3).unwrap();
        }
        let (_, recovered, _) = reopen(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].name, "b");

        // Simulate a crash mid-drop: trash dir left behind.
        let trash = dir.join(format!("{TRASH_PREFIX}b.9"));
        fs::rename(dir.join("b"), &trash).unwrap();
        let (_, recovered, report) = reopen(&dir);
        assert!(recovered.is_empty());
        assert_eq!(report.swept_dirs, 1);
        assert!(!trash.exists());
    }

    #[test]
    fn insert_then_mutate_round_trips() {
        let dir = tmpdir("insert");
        {
            let (store, _, _) = DurableStore::open(&dir, opts(1000)).unwrap();
            let edge = rel("edge", &[&[5, 6]]);
            store.record_insert("default", &[&edge], 7).unwrap();
            let mut grown = edge.clone();
            grown.insert(&[6, 7]);
            store
                .record_add("default", "edge", &t(&[6, 7]), 8, &[&grown])
                .unwrap();
            // Wholesale replace resets the log.
            store.record_insert("default", &[&edge], 9).unwrap();
            let mut grown = edge.clone();
            grown.insert(&[9, 9]);
            store
                .record_add("default", "edge", &t(&[9, 9]), 10, &[&grown])
                .unwrap();
        }
        let (_, recovered, _) = reopen(&dir);
        assert_eq!(recovered[0].version, 10);
        assert_eq!(
            recovered[0].contents.get("edge").unwrap().tuples,
            vec![t(&[5, 6]), t(&[9, 9])]
        );
    }

    #[test]
    fn unacked_create_residue_is_swept() {
        let dir = tmpdir("residue");
        {
            let (store, _, _) = DurableStore::open(&dir, opts(1000)).unwrap();
            store.record_create("real", 1).unwrap();
        }
        fs::create_dir(dir.join("halfmade")).unwrap();
        let (_, recovered, report) = reopen(&dir);
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].name, "real");
        assert_eq!(report.swept_dirs, 1);
        assert!(!dir.join("halfmade").exists());
    }

    #[test]
    fn stray_files_refuse_startup() {
        let dir = tmpdir("stray");
        {
            DurableStore::open(&dir, opts(1000)).unwrap();
        }
        fs::write(dir.join("notes.txt"), b"hello").unwrap();
        assert!(matches!(
            DurableStore::open(&dir, opts(1000)),
            Err(RecoveryError::UnexpectedEntry { .. })
        ));
    }

    #[test]
    fn unsafe_names_are_refused() {
        let dir = tmpdir("names");
        let (store, _, _) = DurableStore::open(&dir, opts(1000)).unwrap();
        for bad in ["", "..", "a/b", "a\\b", "#x", "x y"] {
            assert!(store.record_create(bad, 1).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn unencodable_relation_names_are_refused_before_anything_is_written() {
        let dir = tmpdir("long-names");
        let (store, _, _) = DurableStore::open(&dir, opts(1)).unwrap();
        store.record_create("g", 1).unwrap();
        let long = "r".repeat(MAX_NAME + 1);
        let wal_len = || fs::metadata(dir.join("g").join(WAL_FILE)).unwrap().len();
        let before = wal_len();
        let bad = rel(&long, &[&[1, 2]]);
        let refused = [
            store.record_load("g", &bad, 2, &[&bad]),
            store.record_add("g", &long, &t(&[1, 2]), 3, &[&bad]),
            store.record_insert("g", &[&bad], 4),
            store.record_insert("fresh", &[&bad], 5),
        ];
        for result in refused {
            assert_eq!(result.unwrap_err().op, "name");
        }
        assert_eq!(wal_len(), before, "nothing appended");
        assert!(!dir.join("fresh").exists(), "nothing created");
        assert_eq!(store.stats().snapshot_writes, 0);

        // The longest encodable name still round-trips.
        let longest = rel(&"r".repeat(MAX_NAME), &[&[1, 2]]);
        store.record_load("g", &longest, 6, &[&longest]).unwrap();
        drop(store);
        let (_, recovered, _) = reopen(&dir);
        assert_eq!(recovered[0].contents.relations[0].name.len(), MAX_NAME);
    }

    #[test]
    fn fsync_metrics_move_under_always() {
        let dir = tmpdir("metrics");
        let (store, _, _) = DurableStore::open(&dir, opts(1000)).unwrap();
        store.record_create("g", 1).unwrap();
        let e = rel("e", &[&[1, 2]]);
        store.record_add("g", "e", &t(&[1, 2]), 2, &[&e]).unwrap();
        let s = store.stats();
        assert_eq!(s.wal_appends, 2);
        assert!(s.fsyncs >= 2);
        assert!(!s.fsync_us.is_empty());
        let prom = store.render_prometheus();
        assert!(prom.contains("ppr_wal_appends_total 2"));
        assert!(prom.contains("ppr_recovery_databases 0"));
    }
}
