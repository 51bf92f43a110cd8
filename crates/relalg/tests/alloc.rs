//! Allocation guard: what a materialization boundary costs, counted in
//! heap allocations — the one executor cost figure that does not drift
//! with the host — and what a cached column index keeps, counted in live
//! heap bytes. A counting `#[global_allocator]` needs its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ppr_relalg::{exec, AttrId, Budget, Plan, Relation, Schema};

thread_local! {
    /// Allocations made by this thread (the harness runs tests on several).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed (frees of another
    /// thread's memory count against the freeing thread).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(allocations: u64, bytes: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are `const`-initialised thread-local
// `Cell`s with no destructor, so touching them neither allocates nor unwinds
// (`try_with` only fails during thread teardown, where the count is moot).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_during<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// What `work` returns and the heap bytes it left allocated.
fn live_bytes_after<T>(work: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let out = work();
    (out, LIVE_BYTES.with(Cell::get) - before)
}

/// All ordered pairs of distinct values below `domain`.
fn diff(domain: u32) -> Arc<Relation> {
    let pairs = (0..domain).flat_map(|a| (0..domain).filter(move |&b| b != a).map(move |b| [a, b]));
    let rows = pairs.map(|pair| Box::from(pair.as_slice())).collect();
    Relation::new("diff", Schema::new(vec![AttrId(900), AttrId(901)]), rows).into_shared()
}

/// `π_keep` of the path `diff(x_from, x_from+1) ⋈ … ⋈ diff(x_to-1, x_to)`.
fn path(base: &Arc<Relation>, from: u32, to: u32, keep: std::ops::Range<u32>) -> Plan {
    let scan = |i: u32| Plan::scan(Arc::clone(base), vec![AttrId(i), AttrId(i + 1)]);
    let joined = (from + 1..to).fold(scan(from), |plan, i| plan.join(scan(i)));
    joined.project(keep.map(AttrId).collect())
}

#[test]
fn boundaries_allocate_per_buffer_not_per_row() {
    // Two width-4 buckets of 10 · 9³ = 7 290 rows each, hash-joined on three
    // attributes: the shape bucket elimination produces, with a one-column
    // root so the returned `Relation` is not what is being counted.
    let base = diff(10);
    let plan = path(&base, 0, 4, 1..5)
        .join(path(&base, 2, 6, 2..6))
        .project(vec![AttrId(1)]);
    let ((rel, stats), allocations) =
        allocations_during(|| exec::execute(&plan, &Budget::unlimited()).expect("unlimited"));
    assert_eq!(rel.len(), 10);
    assert!(stats.materialized_rows_out >= 10_000, "{stats:?}");
    assert!(
        allocations < stats.materialized_rows_out / 4,
        "{allocations} allocations for {} materialized rows",
        stats.materialized_rows_out
    );
}

#[test]
fn validation_is_one_pass_over_the_plan() {
    // A 60-scan left-deep chain, 120 nodes: every node derives its schema
    // once, into one buffer the whole pass shares, so the pass allocates as
    // that buffer grows (6 times here) and not per node. A schema per node
    // was 240; re-deriving every subtree at every node was thousands.
    let base = diff(3);
    let plan = path(&base, 0, 60, 0..1);
    let (valid, allocations) = allocations_during(|| plan.validate());
    assert!(valid.is_ok());
    assert!(
        allocations <= 16,
        "{allocations} allocations for {} nodes",
        plan.node_count()
    );
}

#[test]
fn a_pipeline_costs_a_handful_of_allocations() {
    // Bucket elimination on a 3-colouring ladder, as the repo benchmark's
    // `paper_cold` requests run it: every rung is a small pipeline over the
    // last rung's 3–9-row result, with IxJoin stages on the rails, an
    // IxScan-answered colour list and a de-duplicated side bucket probed on
    // its whole row. Rung `i`'s vertices are `2i` and `2i + 1`.
    const RUNGS: u32 = 12;
    let base = diff(3);
    let scan = |u: u32, v: u32| Plan::scan(Arc::clone(&base), vec![AttrId(u), AttrId(v)]);
    let mut bucket = scan(0, 1).project(vec![AttrId(1), AttrId(0)]);
    for i in 0..RUNGS {
        let (a0, b0, a1, b1, z) = (2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3, 1000 + i);
        let colours = scan(a1, z).project(vec![AttrId(a1)]);
        let side = scan(b1, z).join(scan(z, a1));
        bucket = bucket
            .join(scan(a0, a1))
            .join(scan(b0, b1))
            .join(colours)
            .join(side.project(vec![AttrId(b1), AttrId(a1)]))
            .project(vec![AttrId(a1), AttrId(b1)]);
    }
    let plan = bucket.project(vec![AttrId(2 * RUNGS)]);
    // Two pipelines a rung, the first bucket's and the root's; the colour
    // lists are index reads.
    let pipelines = u64::from(2 * RUNGS + 2);
    let ((rel, stats), allocations) =
        allocations_during(|| exec::execute(&plan, &Budget::unlimited()).expect("unlimited"));
    assert_eq!(rel.len(), 3);
    assert_eq!(stats.materializations, pipelines + u64::from(RUNGS));
    assert!(stats.peak_materialized <= 9, "{stats:?}");
    // 58 (2.2 a pipeline) when written; 1 334 (51) while every pipeline
    // derived its shape into fresh vectors and grew its own tables.
    assert!(
        allocations <= 4 * pipelines,
        "{allocations} allocations for {pipelines} pipelines"
    );
}

#[test]
fn indexing_a_column_allocates_per_buffer_not_per_key() {
    // 8 192 rows with 4 096 distinct keys in the indexed column, two rows a
    // key: the index is a handful of flat buffers. One posting list per key
    // was 4 096 allocations and more.
    let rows = (0..8192u32).map(|i| Box::from([i % 4096, i].as_slice()));
    let rel = Relation::new("r", Schema::new(vec![AttrId(0), AttrId(1)]), rows.collect());
    let ((index, built), allocations) = allocations_during(|| rel.column_index(0));
    assert!(built);
    assert_eq!(index.first_keys().len(), 4096);
    assert_eq!(index.postings(7), &[7, 4103]);
    assert!(allocations <= 16, "{allocations} allocations for one index");
}

#[test]
fn a_cached_column_index_keeps_two_ids_a_row() {
    // 10 000 `visits(x, c)` rows over three colours, indexed on the colour:
    // the index keeps its key column and one posting a row (8 bytes), plus
    // a table and offsets sized to its three groups. It kept 16 bytes a row
    // while a row → group map stayed beside them and the offsets kept room
    // for one group a row.
    const ROWS: u32 = 10_000;
    let rows = (0..ROWS).map(|i| Box::from([i, i % 3].as_slice()));
    let rel = Relation::new(
        "visits",
        Schema::new(vec![AttrId(0), AttrId(1)]),
        rows.collect(),
    );
    let ((index, built), live) = live_bytes_after(|| rel.column_index(1));
    assert!(built);
    assert_eq!(index.first_keys(), &[0, 1, 2]);
    assert_eq!(index.postings(2).len(), 3333);
    assert!(
        live <= 9 * i64::from(ROWS),
        "{live} live bytes for one index over {ROWS} rows"
    );
}
