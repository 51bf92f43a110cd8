//! Fixed-capacity worst-N-by-latency log of served requests.
//!
//! The log keeps the `cap` slowest requests seen since startup, each
//! with enough identity (db, catalog version, fingerprint, method) and
//! breakdown (span durations, executor stats digest) to explain *why*
//! it was slow without re-running it.
//!
//! Hot-path cost: an atomic load plus one branch for the overwhelming
//! majority of requests — once the log is full, its smallest retained
//! latency is cached in an atomic `floor`, and anything faster skips
//! the mutex entirely. Only candidate entries (slower than the current
//! floor) pay the lock, and they are written into the slot they take, so
//! once the log has filled an admission can reuse the displaced entry's
//! strings instead of allocating new ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::trace::TraceSpans;

/// One slow request: identity, outcome, and breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlowEntry {
    /// Database the request ran against.
    pub db: String,
    /// Catalog version at execution time.
    pub version: u64,
    /// Canonical query fingerprint.
    pub fingerprint: u128,
    /// Evaluation method name.
    pub method: String,
    /// `"ok"` or the wire error kind (`"budget"`, `"internal"`, …).
    pub outcome: String,
    /// End-to-end latency, admission to completion, microseconds.
    pub total_us: u64,
    /// Per-phase breakdown.
    pub spans: TraceSpans,
    /// Result rows (0 on error).
    pub rows: u64,
    /// Tuples flowed through the executor (0 on cache hit or error).
    pub tuples_flowed: u64,
    /// Peak materialized intermediate size.
    pub peak_materialized: u64,
    /// Join pipeline stages executed.
    pub join_stages: u64,
    /// Executor threads used (1 = serial).
    pub threads_used: u64,
    /// Physical input rows the executor read (0 on cache hit or error);
    /// low values on repeated queries show the streaming executor's
    /// cached secondary indexes at work.
    pub rows_scanned: u64,
    /// Planner steps (passes) run for this request
    /// (0 on a plan- or result-cache hit).
    pub passes_run: u64,
    /// Whether planning reused a cached bucket decomposition (the
    /// structure-keyed order cache supplied the variable order).
    pub decomp_hit: bool,
    /// Compact operator-profile digest
    /// ([`crate::profile::OpProfile::digest`]) when the engine ran with
    /// operator profiling on; empty otherwise.
    pub op_digest: String,
    /// Monotone admission sequence number (ties and ordering debug).
    pub seq: u64,
}

/// Worst-N-by-latency log. Shared via `Arc`; all methods take `&self`.
#[derive(Debug)]
pub struct SlowLog {
    cap: usize,
    /// The least `total_us` that can still enter: 0 until the log is full,
    /// then one above the smallest retained. Entries below it cannot
    /// displace anything and skip the lock.
    floor: AtomicU64,
    seq: AtomicU64,
    entries: Mutex<Vec<SlowEntry>>,
}

impl SlowLog {
    /// A log retaining the `cap` slowest requests (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        SlowLog {
            cap: cap.max(1),
            floor: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(cap.max(1))),
        }
    }

    /// Maximum entries retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Next admission sequence number (call once per request).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether a request of this latency could still enter the log: one
    /// atomic load, no lock. `false` means the log is full of slower (or
    /// equally slow) requests, so a caller can skip building the entry.
    pub fn admits(&self, total_us: u64) -> bool {
        // Relaxed is fine: a stale floor only costs one extra lock or
        // skips an entry that was already borderline.
        total_us >= self.floor.load(Ordering::Relaxed)
    }

    /// Offers a request of latency `total_us`; it is kept iff it ranks
    /// among the worst `cap` seen so far, and then `fill` writes its entry
    /// into the slot it takes: a default entry while the log fills, the
    /// displaced one after. Fast-fails on the atomic floor without locking
    /// and without calling `fill`.
    pub fn record(&self, total_us: u64, fill: impl FnOnce(&mut SlowEntry)) {
        if !self.admits(total_us) {
            return;
        }
        let mut entries = self.entries.lock().expect("slowlog lock");
        let slot = if entries.len() < self.cap {
            entries.push(SlowEntry::default());
            entries.last_mut().expect("non-empty")
        } else {
            // Displace the current fastest retained entry.
            let fastest = entries
                .iter_mut()
                .min_by_key(|e| e.total_us)
                .expect("non-empty");
            if fastest.total_us >= total_us {
                return;
            }
            fastest
        };
        fill(slot);
        slot.total_us = total_us;
        if entries.len() >= self.cap {
            let fastest = entries.iter().map(|e| e.total_us).min().expect("non-empty");
            self.floor
                .store(fastest.saturating_add(1), Ordering::Relaxed);
        }
    }

    /// The retained entries, slowest first (ties: most recent first).
    pub fn snapshot(&self) -> Vec<SlowEntry> {
        let mut out = self.entries.lock().expect("slowlog lock").clone();
        out.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(b.seq.cmp(&a.seq)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(log: &SlowLog, total_us: u64, seq: u64) {
        log.record(total_us, |e| *e = entry(total_us, seq));
    }

    fn entry(total_us: u64, seq: u64) -> SlowEntry {
        SlowEntry {
            db: "db".into(),
            version: 1,
            fingerprint: 0xfeed,
            method: "pushdown".into(),
            outcome: "ok".into(),
            total_us,
            threads_used: 1,
            seq,
            ..SlowEntry::default()
        }
    }

    #[test]
    fn keeps_worst_n_sorted_desc() {
        let log = SlowLog::new(3);
        for (i, us) in [5u64, 100, 2, 50, 80, 1].into_iter().enumerate() {
            offer(&log, us, i as u64);
        }
        let snap = log.snapshot();
        let latencies: Vec<u64> = snap.iter().map(|e| e.total_us).collect();
        assert_eq!(latencies, vec![100, 80, 50]);
    }

    #[test]
    fn floor_rejects_fast_entries_once_full() {
        let log = SlowLog::new(2);
        offer(&log, 10, 0);
        offer(&log, 20, 1);
        // Full; floor is 10. Equal-or-faster entries bounce.
        offer(&log, 10, 2);
        offer(&log, 3, 3);
        assert_eq!(log.snapshot().len(), 2);
        // A genuinely slower one displaces the floor entry.
        offer(&log, 15, 4);
        let latencies: Vec<u64> = log.snapshot().iter().map(|e| e.total_us).collect();
        assert_eq!(latencies, vec![20, 15]);
    }

    #[test]
    fn below_floor_entries_never_touch_the_lock() {
        let log = SlowLog::new(2);
        offer(&log, 10, 0);
        offer(&log, 20, 1);
        let before = log.snapshot();
        assert!(!log.admits(10) && log.admits(11));
        // Offered while this thread holds the guard: taking the lock again
        // would deadlock (or panic), so returning at all proves the floor
        // check came first.
        let guard = log.entries.lock().unwrap();
        offer(&log, 10, 2);
        offer(&log, 0, 3);
        drop(guard);
        assert_eq!(log.snapshot(), before);
    }

    #[test]
    fn a_full_log_hands_the_displaced_entry_to_fill() {
        let log = SlowLog::new(2);
        offer(&log, 10, 0);
        offer(&log, 20, 1);
        let mut displaced = None;
        log.record(30, |e| displaced = Some((e.total_us, e.seq)));
        assert_eq!(displaced, Some((10, 0)));
        let latencies: Vec<u64> = log.snapshot().iter().map(|e| e.total_us).collect();
        assert_eq!(latencies, vec![30, 20]);
    }

    #[test]
    fn seq_is_monotone() {
        let log = SlowLog::new(4);
        let a = log.next_seq();
        let b = log.next_seq();
        assert!(b > a);
    }
}
