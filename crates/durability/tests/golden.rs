//! The on-disk format is frozen: `tests/golden/` is a data directory
//! written by an earlier build of the store, and every later build must
//! recover it to the same rows, in the same order, at the same versions.
//!
//! * `snapped/` holds a checkpoint (`snap.<seq>`) followed by a log of
//!   `load`, `add` and duplicate-`add` records past it.
//! * `walonly/` holds only a log: create, load, adds (one a duplicate),
//!   a re-load that replaces the relation, and one more add.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use ppr_durability::{DurableStore, StoreOptions, Tuple};

/// Recovery may repair what it reads, so it runs on a copy.
fn copy_of_golden() -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let dst = std::env::temp_dir().join(format!("ppr-golden-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dst);
    for db in fs::read_dir(&src).unwrap() {
        let db = db.unwrap();
        fs::create_dir_all(dst.join(db.file_name())).unwrap();
        for file in fs::read_dir(db.path()).unwrap() {
            let file = file.unwrap();
            fs::copy(file.path(), dst.join(db.file_name()).join(file.file_name())).unwrap();
        }
    }
    dst
}

fn rows(rows: &[&[u32]]) -> Vec<Tuple> {
    rows.iter().map(|r| r.to_vec().into_boxed_slice()).collect()
}

#[test]
fn golden_data_dir_recovers_to_the_listed_rows_and_versions() {
    let dir = copy_of_golden();
    let (_store, recovered, report) = DurableStore::open(&dir, StoreOptions::default()).unwrap();
    let dbs: BTreeMap<&str, _> = recovered
        .iter()
        .map(|db| {
            let relations: BTreeMap<&str, (usize, &[Tuple])> = db
                .contents
                .relations
                .iter()
                .map(|r| (r.name.as_str(), (r.arity, r.tuples.as_slice())))
                .collect();
            (db.name.as_str(), (db.version, relations))
        })
        .collect();
    assert_eq!(dbs.len(), 2);

    let (version, snapped) = &dbs["snapped"];
    assert_eq!(*version, 11);
    assert_eq!(snapped.len(), 3);
    let edge = rows(&[&[1, 2], &[2, 3], &[3, 1], &[4, 1], &[1, 4]]);
    assert_eq!(snapped["edge"], (2, edge.as_slice()));
    assert_eq!(snapped["color"], (1, rows(&[&[9], &[7]]).as_slice()));
    assert_eq!(snapped["tri"], (3, rows(&[&[1, 2, 3]]).as_slice()));

    let (version, walonly) = &dbs["walonly"];
    assert_eq!(*version, 13);
    assert_eq!(walonly.len(), 1);
    let e = rows(&[&[1, 0], &[5, 5], &[0, 1]]);
    assert_eq!(walonly["e"], (2, e.as_slice()));

    assert_eq!(report.databases, 2);
    assert_eq!(report.snapshots_loaded, 1);
    assert_eq!(report.replayed_records, 4 + 6);
    assert_eq!(report.torn_tails, 0);
    assert_eq!(report.max_version, 13);
    let _ = fs::remove_dir_all(&dir);
}
