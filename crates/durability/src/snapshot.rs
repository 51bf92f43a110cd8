//! Full-database snapshot files: the checkpoint half of the store.
//!
//! A snapshot captures one database's entire contents as of a WAL
//! sequence number, so recovery replays only the log suffix past it and
//! the log can be truncated. The file is
//!
//! ```text
//! [magic "PPRSNAP1"] [len: u32 LE] [crc: u32 LE] [body: len bytes]
//! ```
//!
//! with a single CRC-32 over the whole body:
//!
//! ```text
//! body := seq: u64 | version: u64 | rel_count: u32 | relation*
//! relation := name: (u16 len + utf-8) | arity: u32 | rows: u32 | values
//! ```
//!
//! Snapshots are written to `snap.tmp`, fsynced, then renamed to
//! `snap.<seq>` (zero-padded so lexicographic order is numeric order)
//! with a directory fsync — a crash can leave a stale `snap.tmp` (which
//! recovery deletes) but never a half-visible `snap.<seq>`. Because of
//! that, an unreadable `snap.<seq>` is not a crash artifact: it means
//! the disk lost a checkpoint the log no longer covers, and recovery
//! refuses to start.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use ppr_relalg::Relation;

use crate::store::{io_err, RecoveryError};
use crate::wal::{crc32, put_str, put_u32, put_u64, Cursor};
use crate::{DbContents, RelationData};

/// First 8 bytes of every snapshot file.
const SNAP_MAGIC: &[u8; 8] = b"PPRSNAP1";

/// Name of the in-progress temporary file within a database directory.
pub(crate) const SNAP_TMP: &str = "snap.tmp";

/// One database's checkpoint as read back: its contents as of WAL record
/// `seq`, published at catalog version `version`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotData {
    /// Last WAL sequence number the snapshot covers (0 = none).
    pub(crate) seq: u64,
    /// Catalog version of the covered state.
    pub(crate) version: u64,
    /// The database's full contents.
    pub(crate) contents: DbContents,
}

/// The canonical file name for a snapshot at `seq`.
fn snapshot_file_name(seq: u64) -> String {
    format!("snap.{seq:020}")
}

/// Parses a `snap.<seq>` file name back to its sequence number.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap.")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Serializes `relations` in the order given, into one exactly-sized
/// buffer.
fn encode_body(seq: u64, version: u64, relations: &[&Relation]) -> Vec<u8> {
    let size = relations
        .iter()
        .map(|r| 2 + r.name().len() + 8 + 4 * r.arity() * r.len())
        .sum::<usize>();
    let mut body = Vec::with_capacity(20 + size);
    put_u64(&mut body, seq);
    put_u64(&mut body, version);
    put_u32(&mut body, relations.len() as u32);
    for rel in relations {
        put_str(&mut body, rel.name());
        put_u32(&mut body, rel.arity() as u32);
        put_u32(&mut body, rel.len() as u32);
        for t in rel.rows() {
            for &v in t {
                put_u32(&mut body, v);
            }
        }
    }
    body
}

fn decode_body(body: &[u8]) -> Result<SnapshotData, String> {
    let mut c = Cursor { buf: body, at: 0 };
    let seq = c.u64()?;
    let version = c.u64()?;
    let rel_count = c.u32()?;
    let mut relations = Vec::with_capacity(rel_count as usize);
    for _ in 0..rel_count {
        let name = c.str()?;
        let arity = c.u32()? as usize;
        let rows = c.u32()? as usize;
        let need = arity.checked_mul(rows).ok_or("relation size overflow")?;
        if c.remaining() < need * 4 {
            return Err("relation body too short".into());
        }
        let mut tuples = Vec::with_capacity(rows);
        for _ in 0..rows {
            let mut t = Vec::with_capacity(arity);
            for _ in 0..arity {
                t.push(c.u32()?);
            }
            tuples.push(t.into_boxed_slice());
        }
        relations.push(RelationData {
            name,
            arity,
            tuples,
        });
    }
    if c.remaining() != 0 {
        return Err("trailing bytes after last relation".into());
    }
    Ok(SnapshotData {
        seq,
        version,
        contents: DbContents { relations },
    })
}

/// Writes `relations` as `snap.<seq>` in `dir` via tmp + rename. `sync`
/// controls whether the file and directory are fsynced (the store's
/// [`SyncPolicy`](crate::SyncPolicy)).
pub(crate) fn write_snapshot(
    dir: &Path,
    seq: u64,
    version: u64,
    relations: &[&Relation],
    sync: bool,
) -> io::Result<()> {
    let body = encode_body(seq, version, relations);
    let tmp = dir.join(SNAP_TMP);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(SNAP_MAGIC)?;
        f.write_all(&(body.len() as u32).to_le_bytes())?;
        f.write_all(&crc32(&body).to_le_bytes())?;
        f.write_all(&body)?;
        if sync {
            f.sync_data()?;
        }
    }
    fs::rename(&tmp, dir.join(snapshot_file_name(seq)))?;
    if sync {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Reads `db`'s snapshot file at `path` back. Bad magic, a bad checksum
/// or an undecodable body is corruption.
pub(crate) fn read_snapshot(path: &Path, db: &str) -> Result<SnapshotData, RecoveryError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, e))?;
    let corrupt = |detail: &str| RecoveryError::CorruptSnapshot {
        db: db.to_string(),
        path: path.to_path_buf(),
        detail: detail.to_string(),
    };
    if bytes.len() < SNAP_MAGIC.len() + 8 {
        return Err(corrupt("file too short"));
    }
    if &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let at = SNAP_MAGIC.len();
    let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
    let body = &bytes[at + 8..];
    if body.len() != len {
        return Err(corrupt("body length mismatch"));
    }
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch"));
    }
    decode_body(body).map_err(|e| corrupt(&e))
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use ppr_relalg::{AttrId, Schema};

    use super::*;

    fn t(vals: &[u32]) -> Box<[u32]> {
        vals.to_vec().into_boxed_slice()
    }

    fn sample() -> Vec<Relation> {
        let rel = |name: &str, arity: u32, rows: Vec<Box<[u32]>>| {
            Relation::new(name, Schema::new((0..arity).map(AttrId).collect()), rows)
        };
        vec![
            rel("edge", 2, vec![t(&[1, 2]), t(&[2, 3]), t(&[3, 1])]),
            rel("color", 1, vec![t(&[0]), t(&[1]), t(&[2])]),
        ]
    }

    fn write_sample(dir: &Path, sync: bool) -> PathBuf {
        let relations = sample();
        let refs: Vec<&Relation> = relations.iter().collect();
        write_snapshot(dir, 42, 1007, &refs, sync).unwrap();
        dir.join(snapshot_file_name(42))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppr-snap-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = write_sample(&dir, true);
        let back = read_snapshot(&path, "g").unwrap();
        assert_eq!((back.seq, back.version), (42, 1007));
        let expected: Vec<RelationData> = sample()
            .into_iter()
            .map(|r| RelationData {
                name: r.name().to_string(),
                arity: r.arity(),
                tuples: r.into_tuples(),
            })
            .collect();
        assert_eq!(
            back.contents.relations, expected,
            "relations in the order given"
        );
        assert!(!dir.join(SNAP_TMP).exists(), "tmp file renamed away");
    }

    #[test]
    fn body_is_sized_exactly() {
        let relations = sample();
        let refs: Vec<&Relation> = relations.iter().collect();
        let body = encode_body(1, 2, &refs);
        assert_eq!(body.len(), body.capacity());
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let dir = tmpdir("flip");
        let path = write_sample(&dir, false);
        let good = std::fs::read(&path).unwrap();
        // Every offset: magic, header, and body flips must all refuse.
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    read_snapshot(&path, "g"),
                    Err(RecoveryError::CorruptSnapshot { .. })
                ),
                "flip at byte {at} went undetected"
            );
        }
    }

    #[test]
    fn names_parse_back() {
        assert_eq!(parse_snapshot_name(&snapshot_file_name(7)), Some(7),);
        assert_eq!(parse_snapshot_name("snap.tmp"), None);
        assert_eq!(parse_snapshot_name("wal.log"), None);
        assert_eq!(parse_snapshot_name("snap.12"), None, "unpadded rejected");
    }
}
