//! The write-ahead commit log: format, writer, and scanner.
//!
//! One `wal.log` per database directory. The file is an 8-byte magic
//! (`PPRWAL1\n`) followed by records, each framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 (IEEE) of the payload. The payload starts
//! with a one-byte kind, then the record's per-database sequence number
//! and the catalog-wide version assigned to the mutation, then the
//! kind-specific body (see [`WalRecord`]). Sequence numbers increase by
//! exactly one per record, so replay can skip records already captured
//! by a snapshot and the scanner can reject spliced logs.
//!
//! The scanner's verdict for a bad byte depends on *where* it is:
//! anything wrong at the very end of the file (short header, length past
//! EOF, bad checksum or undecodable payload on the final record) is a
//! **torn tail** — the expected residue of a crash mid-append, carrying
//! only an unacknowledged commit — and is reported for truncation.
//! Anything wrong with more log after it is **corruption**: history the
//! store already acknowledged cannot be reread, so recovery refuses to
//! start rather than reconstruct a wrong database.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use ppr_relalg::value::{Tuple, Value};
use ppr_relalg::Relation;

use crate::store::{io_err, RecoveryError};

/// First 8 bytes of every WAL file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"PPRWAL1\n";

/// Hard cap on one record's payload; anything claiming more is treated
/// like a length past EOF (no allocation is attempted).
pub(crate) const MAX_RECORD: u32 = 1 << 28;

/// Longest relation name a record or snapshot can hold (its length is
/// stored as a `u16`).
pub(crate) const MAX_NAME: usize = u16::MAX as usize;

/// CRC-32 (IEEE 802.3, reflected, the zlib polynomial) over `bytes`.
/// Table-free bitwise form: the WAL's records are small and append-path
/// cost is dominated by `fsync`, so simplicity wins over a table.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The rows of a load record: the catalog's relation when the store
/// appends one, the decoded tuples when the scanner reads one back.
#[derive(Debug, Clone)]
pub(crate) enum LoadRows<'a> {
    Relation(&'a Relation),
    Tuples(Vec<Tuple>),
}

impl LoadRows<'_> {
    fn len(&self) -> usize {
        match self {
            LoadRows::Relation(rel) => rel.len(),
            LoadRows::Tuples(tuples) => tuples.len(),
        }
    }

    fn rows(&self) -> impl Iterator<Item = &[Value]> {
        let (rel, tuples) = match self {
            LoadRows::Relation(rel) => (Some(rel.rows()), None),
            LoadRows::Tuples(tuples) => (None, Some(tuples.iter().map(|t| &**t))),
        };
        rel.into_iter()
            .flatten()
            .chain(tuples.into_iter().flatten())
    }

    /// The rows as owned tuples, copied only if borrowed.
    pub(crate) fn into_tuples(self) -> Vec<Tuple> {
        match self {
            LoadRows::Relation(rel) => rel.tuples(),
            LoadRows::Tuples(tuples) => tuples,
        }
    }
}

impl PartialEq for LoadRows<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.rows().eq(other.rows())
    }
}

impl Eq for LoadRows<'_> {}

/// One committed catalog mutation. `seq` is per-database and contiguous;
/// `version` is the catalog-wide version the mutation was acknowledged
/// under. The store appends records that borrow the catalog's rows;
/// the scanner hands back records that own theirs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord<'a> {
    /// The database was created empty. Always a log's first record.
    Create { seq: u64, version: u64 },
    /// `rel` was replaced with exactly `tuples` (pre-deduplicated, in
    /// first-occurrence order).
    Load {
        seq: u64,
        version: u64,
        rel: Cow<'a, str>,
        arity: u32,
        tuples: LoadRows<'a>,
    },
    /// One tuple appended to `rel` (relation created if absent).
    Add {
        seq: u64,
        version: u64,
        rel: Cow<'a, str>,
        tuple: Cow<'a, Tuple>,
    },
}

impl WalRecord<'_> {
    /// The record's per-database sequence number.
    pub(crate) fn seq(&self) -> u64 {
        match self {
            WalRecord::Create { seq, .. }
            | WalRecord::Load { seq, .. }
            | WalRecord::Add { seq, .. } => *seq,
        }
    }

    /// The catalog version assigned to the mutation.
    pub(crate) fn version(&self) -> u64 {
        match self {
            WalRecord::Create { version, .. }
            | WalRecord::Load { version, .. }
            | WalRecord::Add { version, .. } => *version,
        }
    }

    /// Serializes the whole frame: length and checksum, then the payload
    /// (everything the checksum covers), in one exactly-sized buffer.
    fn frame(&self) -> Vec<u8> {
        let body = match self {
            WalRecord::Create { .. } => 0,
            WalRecord::Load {
                rel, arity, tuples, ..
            } => 2 + rel.len() + 8 + 4 * *arity as usize * tuples.len(),
            WalRecord::Add { rel, tuple, .. } => 2 + rel.len() + 4 + 4 * tuple.len(),
        };
        let mut out = Vec::with_capacity(8 + 17 + body);
        out.extend_from_slice(&[0; 8]);
        match self {
            WalRecord::Create { seq, version } => {
                out.push(1);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *version);
            }
            WalRecord::Load {
                seq,
                version,
                rel,
                arity,
                tuples,
            } => {
                out.push(2);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *version);
                put_str(&mut out, rel);
                put_u32(&mut out, *arity);
                put_u32(&mut out, tuples.len() as u32);
                for t in tuples.rows() {
                    for &v in t {
                        put_u32(&mut out, v);
                    }
                }
            }
            WalRecord::Add {
                seq,
                version,
                rel,
                tuple,
            } => {
                out.push(3);
                put_u64(&mut out, *seq);
                put_u64(&mut out, *version);
                put_str(&mut out, rel);
                put_u32(&mut out, tuple.len() as u32);
                for &v in tuple.iter() {
                    put_u32(&mut out, v);
                }
            }
        }
        let len = (out.len() - 8) as u32;
        let crc = crc32(&out[8..]);
        out[..4].copy_from_slice(&len.to_le_bytes());
        out[4..8].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a payload. `Err` carries a short description of the first
    /// structural problem (the checksum has already passed, so this only
    /// fires on truncated-in-frame or crafted payloads).
    fn decode_payload(buf: &[u8]) -> Result<WalRecord<'static>, String> {
        let mut c = Cursor { buf, at: 0 };
        let kind = c.u8()?;
        let seq = c.u64()?;
        let version = c.u64()?;
        let rec = match kind {
            1 => WalRecord::Create { seq, version },
            2 => {
                let rel = c.str()?;
                let arity = c.u32()?;
                let count = c.u32()?;
                let need = (arity as usize).checked_mul(count as usize);
                match need {
                    Some(n) if c.remaining() == n * 4 => {}
                    _ => return Err("load body length mismatch".into()),
                }
                let mut tuples = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let mut t = Vec::with_capacity(arity as usize);
                    for _ in 0..arity {
                        t.push(c.u32()?);
                    }
                    tuples.push(t.into_boxed_slice());
                }
                WalRecord::Load {
                    seq,
                    version,
                    rel: Cow::Owned(rel),
                    arity,
                    tuples: LoadRows::Tuples(tuples),
                }
            }
            3 => {
                let rel = c.str()?;
                let arity = c.u32()?;
                if c.remaining() != arity as usize * 4 {
                    return Err("add body length mismatch".into());
                }
                let mut t = Vec::with_capacity(arity as usize);
                for _ in 0..arity {
                    t.push(c.u32()?);
                }
                WalRecord::Add {
                    seq,
                    version,
                    rel: Cow::Owned(rel),
                    tuple: Cow::Owned(t.into_boxed_slice()),
                }
            }
            k => return Err(format!("unknown record kind {k}")),
        };
        if c.remaining() != 0 {
            return Err("trailing bytes after record body".into());
        }
        Ok(rec)
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= MAX_NAME, "the store refuses longer names");
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

pub(crate) struct Cursor<'a> {
    pub(crate) buf: &'a [u8],
    pub(crate) at: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err("payload too short".into());
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().unwrap()) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "name not utf-8".to_string())
    }
}

/// What scanning a WAL file found.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// Every record up to the first problem (or EOF), in order.
    pub(crate) records: Vec<WalRecord<'static>>,
    /// Byte offset one past the last good record — the length the file
    /// should be truncated to when `torn_at` is set.
    pub(crate) valid_len: u64,
    /// Offset of a torn tail, if the file ends mid-record.
    pub(crate) torn_at: Option<u64>,
}

/// Scans `db`'s log at `path` front to back, separating good history
/// from a torn tail, and refusing (`Err`) on mid-log corruption or a
/// file that does not start with [`WAL_MAGIC`]. A file shorter than the
/// magic — the residue of a crash during creation — scans as empty with
/// `torn_at = Some(0)`.
pub(crate) fn scan_wal(path: &Path, db: &str) -> Result<WalScan, RecoveryError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, e))?;
    if bytes.len() < WAL_MAGIC.len() {
        // Torn creation: nothing in here was ever acknowledged.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            torn_at: Some(0),
        });
    }
    if &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(RecoveryError::CorruptWal {
            db: db.to_string(),
            offset: 0,
            detail: format!("{} has bad magic", path.display()),
        });
    }

    let mut records = Vec::new();
    let mut at = WAL_MAGIC.len();
    let mut prev_seq: Option<u64> = None;
    loop {
        let remaining = bytes.len() - at;
        if remaining == 0 {
            return Ok(WalScan {
                records,
                valid_len: at as u64,
                torn_at: None,
            });
        }
        let torn = move |records: Vec<WalRecord<'static>>| {
            Ok(WalScan {
                records,
                valid_len: at as u64,
                torn_at: Some(at as u64),
            })
        };
        if remaining < 8 {
            return torn(records);
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        if len > MAX_RECORD || 8 + len as usize > remaining {
            // A length past EOF: a torn append (short write) or a length
            // byte gone bad — either way everything from here on is
            // unreadable, and only a prefix survives.
            return torn(records);
        }
        let payload = &bytes[at + 8..at + 8 + len as usize];
        let last = at + 8 + len as usize == bytes.len();
        let bad = if crc32(payload) != crc {
            Some("checksum mismatch".to_string())
        } else {
            match WalRecord::decode_payload(payload) {
                Ok(rec) => {
                    let expected = prev_seq.map(|s| s + 1);
                    if expected.is_some_and(|e| rec.seq() != e) {
                        Some(format!(
                            "sequence gap: expected {}, found {}",
                            expected.unwrap(),
                            rec.seq()
                        ))
                    } else {
                        prev_seq = Some(rec.seq());
                        records.push(rec);
                        None
                    }
                }
                Err(e) => Some(e),
            }
        };
        match bad {
            None => at += 8 + len as usize,
            Some(_) if last => return torn(records),
            Some(detail) => {
                return Err(RecoveryError::CorruptWal {
                    db: db.to_string(),
                    offset: at as u64,
                    detail,
                })
            }
        }
    }
}

/// Append handle on one database's WAL. Framing and checksums live here;
/// fsync policy is the caller's (the store times it for metrics).
pub(crate) struct WalWriter {
    file: File,
    /// File length in bytes (all-good records; the writer never leaves a
    /// known-bad tail behind).
    pub(crate) len: u64,
}

impl WalWriter {
    /// Creates a fresh WAL (truncating anything present) and writes the
    /// magic. The caller fsyncs per its policy.
    pub(crate) fn create(path: &Path) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all(WAL_MAGIC)?;
        Ok(WalWriter {
            file,
            len: WAL_MAGIC.len() as u64,
        })
    }

    /// Opens an existing WAL for appending, first truncating it to
    /// `valid_len` (dropping a torn tail found by [`scan_wal`]).
    pub(crate) fn open(path: &Path, valid_len: u64) -> io::Result<WalWriter> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len.max(WAL_MAGIC.len() as u64))?;
        let mut w = WalWriter {
            file,
            len: valid_len,
        };
        if valid_len < WAL_MAGIC.len() as u64 {
            // The file was torn during creation; rewrite the magic.
            w.file.seek(SeekFrom::Start(0))?;
            w.file.write_all(WAL_MAGIC)?;
            w.len = WAL_MAGIC.len() as u64;
        } else {
            w.file.seek(SeekFrom::Start(valid_len))?;
        }
        Ok(w)
    }

    /// Appends one framed record. Returns the frame's size in bytes. The
    /// caller decides whether to [`sync`](WalWriter::sync) afterwards.
    pub(crate) fn append(&mut self, record: &WalRecord) -> io::Result<u64> {
        let frame = record.frame();
        self.file.write_all(&frame)?;
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// `fsync`s the file.
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Truncates back to just the magic — called after a snapshot has
    /// captured everything the log held.
    pub(crate) fn truncate_to_header(&mut self) -> io::Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.len = WAL_MAGIC.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn t(vals: &[u32]) -> Tuple {
        vals.to_vec().into_boxed_slice()
    }

    fn sample_records() -> Vec<WalRecord<'static>> {
        vec![
            WalRecord::Create { seq: 1, version: 4 },
            WalRecord::Load {
                seq: 2,
                version: 5,
                rel: "edge".into(),
                arity: 2,
                tuples: LoadRows::Tuples(vec![t(&[1, 2]), t(&[2, 3])]),
            },
            WalRecord::Add {
                seq: 3,
                version: 6,
                rel: "edge".into(),
                tuple: Cow::Owned(t(&[3, 1])),
            },
        ]
    }

    fn write_all(path: &Path, records: &[WalRecord]) -> WalWriter {
        let mut w = WalWriter::create(path).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        w
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppr-wal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    #[test]
    fn payloads_round_trip() {
        for r in sample_records() {
            let frame = r.frame();
            assert_eq!(WalRecord::decode_payload(&frame[8..]).unwrap(), r);
            assert_eq!(frame.len(), frame.capacity(), "sized exactly");
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn scan_reads_back_what_was_written() {
        let path = tmpfile("roundtrip");
        let records = sample_records();
        write_all(&path, &records);
        let scan = scan_wal(&path, "g").unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.torn_at.is_none());
    }

    #[test]
    fn torn_tail_truncates_mid_log_corruption_refuses() {
        let path = tmpfile("verdicts");
        let records = sample_records();
        let w = write_all(&path, &records);
        let full = std::fs::read(&path).unwrap();
        let good_len = w.len as usize;

        // Chop anywhere inside the last record: torn tail, first two
        // records survive.
        for cut in (good_len - 5)..good_len {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path, "g").unwrap();
            assert!(scan.torn_at.is_some());
            assert_eq!(scan.records.len(), 2, "cut at {cut}");
        }

        // Flip a payload byte in the middle record: corruption.
        let mut bad = full.clone();
        let frames: Vec<usize> = sample_records().iter().map(|r| r.frame().len()).collect();
        let mid = WAL_MAGIC.len() + frames[0] + 8 + 12;
        bad[mid] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(
            scan_wal(&path, "g"),
            Err(RecoveryError::CorruptWal { .. })
        ));

        // Flip the same byte when the middle record is the *last* one:
        // now it is a torn tail.
        let second_end = WAL_MAGIC.len() + frames[0] + frames[1];
        std::fs::write(&path, &bad[..second_end]).unwrap();
        let scan = scan_wal(&path, "g").unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_at.is_some());
    }

    #[test]
    fn truncated_creation_scans_empty() {
        let path = tmpfile("torn-create");
        std::fs::write(&path, &WAL_MAGIC[..3]).unwrap();
        let scan = scan_wal(&path, "g").unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.torn_at, Some(0));
    }

    #[test]
    fn reopen_after_torn_tail_appends_cleanly() {
        let path = tmpfile("reopen");
        let records = sample_records();
        let w = write_all(&path, &records);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..w.len as usize - 3]).unwrap();

        let scan = scan_wal(&path, "g").unwrap();
        assert_eq!(scan.records.len(), 2);
        let mut w = WalWriter::open(&path, scan.valid_len).unwrap();
        w.append(&WalRecord::Add {
            seq: 3,
            version: 9,
            rel: "edge".into(),
            tuple: Cow::Owned(t(&[7, 7])),
        })
        .unwrap();
        w.sync().unwrap();

        let scan = scan_wal(&path, "g").unwrap();
        assert!(scan.torn_at.is_none());
        assert_eq!(scan.records.len(), 3);
        assert_eq!(scan.records[2].version(), 9);
    }

    #[test]
    fn sequence_gap_is_corruption() {
        let path = tmpfile("seqgap");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(&WalRecord::Create { seq: 1, version: 1 }).unwrap();
        w.append(&WalRecord::Create { seq: 3, version: 2 }).unwrap();
        // A trailing record keeps the gap mid-log.
        w.append(&WalRecord::Create { seq: 4, version: 3 }).unwrap();
        w.sync().unwrap();
        assert!(matches!(
            scan_wal(&path, "g"),
            Err(RecoveryError::CorruptWal { .. })
        ));
    }
}
