//! Crash-safety property tests: recovery never invents history.
//!
//! Each case drives a [`DurableStore`] through a random acknowledged
//! mutation sequence (create, then loads/adds, with a small checkpoint
//! cadence so snapshots and WAL truncation are exercised), remembers the
//! database contents after **every** acknowledged step, then corrupts the
//! on-disk state the way a crash or a lying disk would:
//!
//! * **Truncation at an arbitrary WAL byte offset** (what a crash
//!   mid-append leaves behind): recovery must yield *some acknowledged
//!   prefix* of the history — possibly strengthened by a checkpoint that
//!   already made later mutations durable — or sweep the database
//!   entirely when even its creation never reached the disk. Never an
//!   error, never a state that was not acknowledged.
//! * **A single flipped byte at an arbitrary WAL offset** (what a lying
//!   disk does): recovery must either return an acknowledged prefix
//!   (flips in the tail are indistinguishable from a torn append and are
//!   truncated away) or refuse with a typed [`RecoveryError`]. It must
//!   **never** serve contents that differ from every acknowledged state.
//!
//! The store is driven directly through its `record_*` hooks — this
//! suite is deliberately below the catalog, so it pins the durability
//! contract itself, not the service wiring over it. The acknowledged
//! states come from a model local to this file (a load replaces a
//! relation; an add appends unless the row is present), not from the
//! replay code under test, and the store checkpoints the model's
//! relations just as it checkpoints the catalog's.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ppr_durability::store::WAL_FILE;
use ppr_durability::{DbContents, DurableStore, StoreOptions, SyncPolicy, Tuple};
use ppr_relalg::{AttrId, Relation, Schema};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DB: &str = "g";

/// Checkpoint aggressively so most sequences cross at least one
/// snapshot + WAL truncation.
fn opts() -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Never, // identical formats; keeps the suite fast
        snapshot_every: 5,
        snapshot_bytes: 1 << 20,
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ppr-crash-prop-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone)]
enum Mutation {
    Load {
        rel: String,
        arity: usize,
        tuples: Vec<Tuple>,
    },
    Add {
        rel: String,
        tuple: Tuple,
    },
}

/// A deterministic random mutation sequence. Relations keep a fixed
/// arity per name within one sequence (the catalog would enforce that).
fn mutations(seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let arities: Vec<usize> = (0..3).map(|_| rng.random_range(1..=3)).collect();
    let count = rng.random_range(1..=16);
    (0..count)
        .map(|_| {
            let which = rng.random_range(0..3usize);
            let (rel, arity) = (format!("r{which}"), arities[which]);
            let tuple = |rng: &mut StdRng| -> Tuple {
                (0..arity).map(|_| rng.random_range(0..30u32)).collect()
            };
            if rng.random_bool(0.4) {
                let rows = rng.random_range(1..=6);
                let mut tuples: Vec<Tuple> = Vec::new();
                for _ in 0..rows {
                    let t = tuple(&mut rng);
                    if !tuples.contains(&t) {
                        tuples.push(t); // the catalog dedups before logging
                    }
                }
                Mutation::Load { rel, arity, tuples }
            } else {
                Mutation::Add {
                    rel,
                    tuple: tuple(&mut rng),
                }
            }
        })
        .collect()
}

/// The oracle: relation name → (arity, rows in first-occurrence order).
type Model = BTreeMap<String, (usize, Vec<Tuple>)>;

/// The model's relations as the catalog would hold them.
fn relations(model: &Model) -> Vec<Relation> {
    model
        .iter()
        .map(|(name, (arity, rows))| {
            let schema = Schema::new((0..*arity as u32).map(AttrId).collect());
            Relation::new(name.as_str(), schema, rows.clone())
        })
        .collect()
}

fn model_of(contents: DbContents) -> Model {
    contents
        .relations
        .into_iter()
        .map(|r| (r.name, (r.arity, r.tuples)))
        .collect()
}

/// Runs the sequence against a fresh store in `dir`, returning the
/// acknowledged `(model, version)` after every step. `states[0]` is
/// the freshly created empty database; `states[i]` is after mutation
/// `i`. Versions are `i + 1` by construction (one catalog tick each).
fn run_sequence(dir: &Path, muts: &[Mutation]) -> Vec<(Model, u64)> {
    let (store, recovered, _) = DurableStore::open(dir, opts()).unwrap();
    assert!(recovered.is_empty());
    let mut states = Vec::with_capacity(muts.len() + 1);
    let mut model = Model::new();
    store.record_create(DB, 1).unwrap();
    states.push((model.clone(), 1));
    for (i, m) in muts.iter().enumerate() {
        let version = i as u64 + 2;
        match m {
            Mutation::Load { rel, arity, tuples } => {
                model.insert(rel.clone(), (*arity, tuples.clone()));
            }
            Mutation::Add { rel, tuple } => {
                let (_, rows) = model
                    .entry(rel.clone())
                    .or_insert_with(|| (tuple.len(), Vec::new()));
                if !rows.contains(tuple) {
                    rows.push(tuple.clone());
                }
            }
        }
        let rels = relations(&model);
        let after: Vec<&Relation> = rels.iter().collect();
        match m {
            Mutation::Load { rel, .. } => {
                let loaded = rels.iter().find(|r| r.name() == rel).unwrap();
                store.record_load(DB, loaded, version, &after).unwrap();
            }
            Mutation::Add { rel, tuple } => {
                store.record_add(DB, rel, tuple, version, &after).unwrap();
            }
        }
        states.push((model.clone(), version));
    }
    states
}

/// Which acknowledged state (if any) the recovered directory holds.
/// `Ok(None)` = the database was swept (nothing acknowledged survived the
/// corruption point — only legal when the creation itself was cut off).
fn recover(dir: &Path) -> Result<Option<(Model, u64)>, ppr_durability::RecoveryError> {
    let (_store, recovered, _) = DurableStore::open(dir, opts())?;
    let mut it = recovered.into_iter();
    let db = it.next();
    assert!(it.next().is_none(), "only one database in play");
    Ok(db.map(|d| {
        assert_eq!(d.name, DB);
        (model_of(d.contents), d.version)
    }))
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join(DB).join(WAL_FILE)
}

/// True when the database directory holds a published `snap.<seq>` file.
fn has_snapshot(dir: &Path) -> bool {
    std::fs::read_dir(dir.join(DB))
        .map(|it| {
            it.flatten()
                .any(|e| e.file_name().to_string_lossy().starts_with("snap."))
        })
        .unwrap_or(false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A clean shutdown/reopen recovers exactly the final acknowledged
    /// state and version.
    #[test]
    fn clean_reopen_is_lossless(seed in 0u64..10_000) {
        let dir = tmpdir("clean");
        let states = run_sequence(&dir, &mutations(seed));
        let got = recover(&dir).unwrap();
        prop_assert_eq!(got.as_ref(), states.last());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the WAL at any byte offset (a crash mid-append)
    /// recovers an acknowledged state — never an error, never invented
    /// contents. A checkpoint may have made later mutations durable
    /// independently of the log, so the outcome is "some acknowledged
    /// state", at least as new as the newest snapshot.
    #[test]
    fn truncation_anywhere_yields_an_acknowledged_state(
        seed in 0u64..10_000,
        cut in 0u64..=1000,
    ) {
        let dir = tmpdir("cut");
        let states = run_sequence(&dir, &mutations(seed));
        let had_snapshot = has_snapshot(&dir);
        let wal = wal_path(&dir);
        let len = std::fs::metadata(&wal).unwrap().len();
        let keep = len * cut / 1000;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(keep)
            .unwrap();
        match recover(&dir).unwrap() {
            Some(got) => prop_assert!(
                states.contains(&got),
                "recovered a state that was never acknowledged: {got:?}"
            ),
            // Swept entirely: legal only if nothing was checkpointed (a
            // snapshot would have preserved acknowledged state on its own).
            None => prop_assert!(
                !had_snapshot,
                "database swept despite a surviving checkpoint"
            ),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping one byte anywhere in the WAL (a lying disk) either
    /// recovers an acknowledged state (tail flips are truncated as torn)
    /// or refuses with a typed error. It never serves wrong contents.
    #[test]
    fn flipped_byte_recovers_a_prefix_or_refuses(
        seed in 0u64..10_000,
        at_frac in 0u64..=1000,
        bit in 0u32..8,
    ) {
        let dir = tmpdir("flip");
        let states = run_sequence(&dir, &mutations(seed));
        let had_snapshot = has_snapshot(&dir);
        let wal = wal_path(&dir);
        let mut bytes = std::fs::read(&wal).unwrap();
        prop_assume!(!bytes.is_empty());
        let at = ((bytes.len() - 1) as u64 * at_frac / 1000) as usize;
        bytes[at] ^= 1 << bit;
        std::fs::write(&wal, &bytes).unwrap();
        match recover(&dir) {
            Ok(Some(got)) => prop_assert!(
                states.contains(&got),
                "flip at byte {at} recovered unacknowledged state: {got:?}"
            ),
            Ok(None) => prop_assert!(
                !had_snapshot,
                "database swept despite a surviving checkpoint"
            ),
            Err(_) => {} // typed refusal is always acceptable
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
