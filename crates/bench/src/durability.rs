//! Durability-axis microbenchmark: what does persistence cost, and how
//! fast does a catalog come back?
//!
//! Two sweeps, reported together in `results/BENCH_durability.json`:
//!
//! * **Mutation path** — the same `add` workload against a memory-only
//!   catalog (`off`), a durable catalog that appends to the WAL without
//!   syncing (`wal`), and one that `fsync`s every commit (`wal_fsync`).
//!   Per-mutation p50/p95 latencies isolate the write-ahead logging and
//!   fsync overheads; the WAL/fsync/snapshot counters from
//!   [`DurabilityStats`] are recorded alongside so a surprising latency
//!   can be traced to the checkpoint it paid for.
//! * **Recovery time vs database size** — durable directories populated
//!   at increasing tuple counts are reopened cold; each row records the
//!   store-level replay time ([`RecoveryReport::duration_us`]) and the
//!   full [`Catalog::open_with`] wall time, which adds relation
//!   rebuilding and content fingerprinting on top. Reopen wall times are
//!   the median of [`RECOVERY_REPS`] cold opens.
//!
//! All three persistence modes share one on-disk format — `wal` vs
//! `wal_fsync` differ only in commit-time `fsync`, so recovery is
//! measured once (under `wal`; syncing while *populating* would only
//! slow the setup, not change what recovery reads).
//!
//! [`DurabilityStats`]: ppr_durability::DurabilityStats
//! [`RecoveryReport::duration_us`]: ppr_durability::store::RecoveryReport
//! [`Catalog::open_with`]: ppr_service::Catalog::open_with

use std::path::PathBuf;
use std::time::Instant;

use ppr_durability::{StoreOptions, SyncPolicy};
use ppr_relalg::Value;
use ppr_service::Catalog;

use crate::figures::Config;
use crate::harness::{host_cpus, host_os};

/// Cold reopens per recovery point; the reported wall time is the median.
pub const RECOVERY_REPS: usize = 3;

const DB: &str = "bench";
const REL: &str = "edge";

/// The persistence axis of the sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persistence {
    /// Memory-only catalog — the pre-durability baseline.
    Off,
    /// WAL appends on every commit, no `fsync` (crash-unsafe but
    /// kill-safe at the process level).
    Wal,
    /// WAL appends with `fsync` on every commit — the `ppr serve
    /// --data-dir` default.
    WalFsync,
}

impl Persistence {
    /// Stable identifier used in the TSV and JSON artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Persistence::Off => "off",
            Persistence::Wal => "wal",
            Persistence::WalFsync => "wal_fsync",
        }
    }
}

/// One mutation-path measurement: `mutations` acknowledged `add`s under
/// one persistence mode.
#[derive(Debug, Clone)]
pub struct MutationRow {
    /// Which persistence mode ran.
    pub persistence: Persistence,
    /// Acknowledged mutations measured.
    pub mutations: usize,
    /// Median per-mutation latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-mutation latency, microseconds.
    pub p95_us: f64,
    /// Wall clock for the whole run, milliseconds.
    pub total_ms: f64,
    /// WAL records appended (0 when persistence is off).
    pub wal_appends: u64,
    /// Commit-path fsyncs issued (0 unless `wal_fsync`).
    pub fsyncs: u64,
    /// Checkpoint snapshots written during the run.
    pub snapshot_writes: u64,
}

/// One recovery measurement: a durable directory holding `tuples` rows
/// reopened cold.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Database size at the crash point, tuples.
    pub tuples: usize,
    /// WAL records replayed over the newest snapshot.
    pub replayed_records: u64,
    /// Snapshot files loaded.
    pub snapshots_loaded: u64,
    /// Store-level recovery time (scan + replay), microseconds.
    pub store_us: u64,
    /// Full `Catalog::open_with` wall time (adds relation rebuild and
    /// fingerprinting), microseconds; median of [`RECOVERY_REPS`] opens.
    pub open_us: u64,
}

/// Both sweeps, ready for printing and the JSON artifact.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Mutation-path rows, one per persistence mode.
    pub mutation: Vec<MutationRow>,
    /// Recovery rows, one per database size.
    pub recovery: Vec<RecoveryRow>,
}

fn tmpdir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ppr-bench-durability-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn options(sync: SyncPolicy) -> StoreOptions {
    StoreOptions {
        sync,
        ..StoreOptions::default()
    }
}

fn tuple(i: usize) -> Box<[Value]> {
    vec![i as Value, i as Value + 1].into_boxed_slice()
}

fn mutations_per_mode(cfg: &Config) -> usize {
    if cfg.quick {
        64
    } else {
        512
    }
}

fn recovery_sizes(cfg: &Config) -> Vec<usize> {
    if cfg.quick {
        vec![100]
    } else if cfg.full {
        vec![100, 1_000, 10_000, 100_000]
    } else {
        vec![100, 1_000, 10_000]
    }
}

fn percentile_us(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Times `count` acknowledged `add`s under one persistence mode.
fn mutation_row(mode: Persistence, count: usize) -> MutationRow {
    let dir = tmpdir(mode.name());
    let catalog = match mode {
        Persistence::Off => Catalog::new(),
        Persistence::Wal => {
            Catalog::open_with(&dir, options(SyncPolicy::Never))
                .expect("fresh bench dir")
                .0
        }
        Persistence::WalFsync => {
            Catalog::open_with(&dir, options(SyncPolicy::Always))
                .expect("fresh bench dir")
                .0
        }
    };
    catalog.create(DB).expect("create bench db");
    // A short untimed warmup absorbs the first-touch costs (directory
    // creation, WAL header, allocator warm-up) every mode pays once.
    for i in 0..16 {
        catalog
            .add(DB, REL, tuple(1_000_000 + i))
            .expect("warmup add");
    }
    let mut lat_us: Vec<f64> = Vec::with_capacity(count);
    let started = Instant::now();
    for i in 0..count {
        let t = Instant::now();
        catalog.add(DB, REL, tuple(i)).expect("acknowledged add");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = catalog.durability_stats();
    let (wal_appends, fsyncs, snapshot_writes) = stats
        .map(|s| (s.wal_appends, s.fsyncs, s.snapshot_writes))
        .unwrap_or((0, 0, 0));
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let row = MutationRow {
        persistence: mode,
        mutations: count,
        p50_us: percentile_us(&lat_us, 0.50),
        p95_us: percentile_us(&lat_us, 0.95),
        total_ms,
        wal_appends,
        fsyncs,
        snapshot_writes,
    };
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Populates a durable directory with `size` tuples (one wholesale load
/// plus a tail of single adds, so recovery exercises both the snapshot
/// and the replay path), then measures cold reopens.
fn recovery_row(size: usize) -> RecoveryRow {
    let dir = tmpdir("recover");
    {
        // An aggressive checkpoint cadence during populate leaves the
        // steady-state layout behind: a full snapshot plus a short WAL
        // tail, so recovery exercises both the snapshot-load and the
        // replay path.
        let opts = StoreOptions {
            sync: SyncPolicy::Never,
            snapshot_every: 64,
            ..StoreOptions::default()
        };
        let (catalog, _) = Catalog::open_with(&dir, opts).expect("fresh bench dir");
        catalog.create(DB).expect("create bench db");
        // The bulk goes in as one load; the last up-to-100 tuples arrive
        // as individual adds so the WAL holds records to replay.
        let adds = size.min(100);
        let bulk: Vec<Box<[Value]>> = (0..size - adds).map(tuple).collect();
        if !bulk.is_empty() {
            catalog.load(DB, REL, bulk).expect("bulk load");
        }
        for i in size - adds..size {
            catalog.add(DB, REL, tuple(i)).expect("tail add");
        }
    }
    let mut open_us: Vec<u64> = Vec::with_capacity(RECOVERY_REPS);
    let mut last = None;
    for _ in 0..RECOVERY_REPS {
        let t = Instant::now();
        let (catalog, report) =
            Catalog::open_with(&dir, options(SyncPolicy::Never)).expect("reopen bench dir");
        open_us.push(t.elapsed().as_micros() as u64);
        assert_eq!(
            catalog
                .snapshot(DB)
                .expect("recovered db")
                .db
                .get(REL)
                .map(|r| r.len())
                .unwrap_or(0),
            size,
            "recovery must restore every tuple"
        );
        last = Some(report);
    }
    let report = last.expect("RECOVERY_REPS >= 1");
    open_us.sort_unstable();
    let row = RecoveryRow {
        tuples: size,
        replayed_records: report.replayed_records,
        snapshots_loaded: report.snapshots_loaded,
        store_us: report.duration_us,
        open_us: open_us[open_us.len() / 2],
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Runs both sweeps.
pub fn durability_rows(cfg: &Config) -> DurabilityReport {
    let count = mutations_per_mode(cfg);
    let mutation = [Persistence::Off, Persistence::Wal, Persistence::WalFsync]
        .into_iter()
        .map(|mode| mutation_row(mode, count))
        .collect();
    let recovery = recovery_sizes(cfg).into_iter().map(recovery_row).collect();
    DurabilityReport { mutation, recovery }
}

/// Prints both sweeps as TSV (measurement stays separate so the harness
/// persists the JSON artifact before touching stdout).
pub fn print_durability_rows(w: &mut impl std::io::Write, report: &DurabilityReport) {
    writeln!(
        w,
        "persistence\tmutations\tp50_us\tp95_us\ttotal_ms\twal_appends\tfsyncs\tsnapshot_writes"
    )
    .expect("write");
    for r in &report.mutation {
        writeln!(
            w,
            "{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\t{}",
            r.persistence.name(),
            r.mutations,
            r.p50_us,
            r.p95_us,
            r.total_ms,
            r.wal_appends,
            r.fsyncs,
            r.snapshot_writes
        )
        .expect("write");
    }
    writeln!(w).expect("write");
    writeln!(
        w,
        "tuples\treplayed_records\tsnapshots_loaded\tstore_recovery_us\tcatalog_open_us"
    )
    .expect("write");
    for r in &report.recovery {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            r.tuples, r.replayed_records, r.snapshots_loaded, r.store_us, r.open_us
        )
        .expect("write");
    }
}

/// Machine-readable report for `results/BENCH_durability.json`
/// (hand-rolled, like the serve report — no JSON dependency in the
/// tree).
pub fn durability_report_json(cfg: &Config, report: &DurabilityReport) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"durability\",\n");
    s.push_str(&format!(
        "  \"host\": {{\"cpus\": {}, \"os\": \"{}\"}},\n",
        host_cpus(),
        host_os()
    ));
    s.push_str(&format!("  \"quick\": {},\n", cfg.quick));
    s.push_str(&format!(
        "  \"mutations_per_mode\": {},\n",
        mutations_per_mode(cfg)
    ));
    s.push_str(&format!("  \"recovery_reps\": {RECOVERY_REPS},\n"));
    s.push_str("  \"mutation\": [\n");
    for (i, r) in report.mutation.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"persistence\": \"{}\", \"mutations\": {}, \"p50_us\": {:.1}, \
             \"p95_us\": {:.1}, \"total_ms\": {:.1}, \"wal_appends\": {}, \
             \"fsyncs\": {}, \"snapshot_writes\": {}}}{}\n",
            r.persistence.name(),
            r.mutations,
            r.p50_us,
            r.p95_us,
            r.total_ms,
            r.wal_appends,
            r.fsyncs,
            r.snapshot_writes,
            if i + 1 == report.mutation.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"recovery\": [\n");
    for (i, r) in report.recovery.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"tuples\": {}, \"replayed_records\": {}, \"snapshots_loaded\": {}, \
             \"store_recovery_us\": {}, \"catalog_open_us\": {}}}{}\n",
            r.tuples,
            r.replayed_records,
            r.snapshots_loaded,
            r.store_us,
            r.open_us,
            if i + 1 == report.recovery.len() {
                ""
            } else {
                ","
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full quick sweep runs, keeps modes ordered, and produces JSON
    /// with every section present.
    #[test]
    fn quick_sweep_produces_all_rows_and_json() {
        let cfg = Config {
            quick: true,
            ..Config::default()
        };
        let report = durability_rows(&cfg);
        assert_eq!(report.mutation.len(), 3);
        assert_eq!(report.mutation[0].persistence, Persistence::Off);
        assert_eq!(report.mutation[0].wal_appends, 0, "off mode never logs");
        assert!(report.mutation[1].wal_appends > 0, "wal mode must log");
        assert_eq!(report.mutation[1].fsyncs, 0, "wal mode never syncs");
        assert!(report.mutation[2].fsyncs > 0, "wal_fsync must sync");
        assert_eq!(report.recovery.len(), 1);
        assert!(report.recovery[0].open_us > 0);
        let json = durability_report_json(&cfg, &report);
        for key in ["\"mutation\": [", "\"recovery\": [", "\"cpus\":"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let mut tsv = Vec::new();
        print_durability_rows(&mut tsv, &report);
        let text = String::from_utf8(tsv).expect("utf8");
        assert!(text.contains("wal_fsync"));
    }
}
