//! Allocation guard: what a materialization boundary costs, counted in
//! heap allocations — the one executor cost figure that does not drift
//! with the host. A counting `#[global_allocator]` needs its own test
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ppr_relalg::{exec, AttrId, Budget, Plan, Relation, Schema};

thread_local! {
    /// Allocations made by this thread (the harness runs tests on several).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a `const`-initialised thread-local
// `Cell` with no destructor, so touching it neither allocates nor unwinds
// (`try_with` only fails during thread teardown, where the count is moot).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
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
    // A 60-scan left-deep chain, 120 nodes: deriving each node's schema once
    // is a few allocations per node; re-deriving every subtree at every node
    // was thousands.
    let base = diff(3);
    let plan = path(&base, 0, 60, 0..1);
    let (valid, allocations) = allocations_during(|| plan.validate());
    assert!(valid.is_ok());
    assert!(
        allocations < 4 * plan.node_count() as u64,
        "{allocations} allocations for {} nodes",
        plan.node_count()
    );
}
