//! Allocation guard for the three kernels every `run` crosses, result-cache
//! hit or not: rule text in (`parse_query`), cache identity
//! (`QueryIdentity::of`), reply text out (`encode_result` + `tag_reply`);
//! and for the result-cache lookup every hit pays between them.
//! Heap allocations are the one cost figure of theirs that does not drift
//! with the host. A counting `#[global_allocator]` needs its own test
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ppr_core::methods::Method;
use ppr_graph::families;
use ppr_query::{parse_query, QueryIdentity};
use ppr_relalg::ExecStats;
use ppr_service::protocol::{encode_result, tag_reply};
use ppr_service::result_cache::{CachedResult, ResultKey};
use ppr_service::{DbFingerprint, Response, ResultCache};

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

/// The benchmark's `ladder15/free` shape: 43 `edge` atoms over 30
/// variables, six of them in the head.
fn ladder_rule() -> String {
    let body: Vec<String> = families::ladder(15)
        .edges()
        .iter()
        .map(|&(u, v)| format!("edge(x{u}, x{v})"))
        .collect();
    format!("q(x3, x8, x13, x17, x22, x29) :- {}", body.join(", "))
}

#[test]
fn a_hit_parses_and_identifies_in_flat_buffers() {
    let rule = ladder_rule();
    let (query, parsing) = allocations_during(|| parse_query(&rule).expect("well-formed"));
    assert_eq!(query.num_atoms(), 43);
    // What is left is the query itself: a name and an argument vector per
    // atom, two copies of each variable name, the containers' growth.
    assert!(parsing <= 190, "parse_query: {parsing} allocations");

    let (identity, identifying) = allocations_during(|| QueryIdentity::of(&query));
    assert_eq!(identity.shape.num_vars, 30);
    assert!(
        identifying <= 40,
        "QueryIdentity::of: {identifying} allocations"
    );
}

#[test]
fn a_reply_is_written_into_one_buffer_and_tagged_into_another() {
    let mut response = Response::empty();
    response.columns = (0..8).map(|i| format!("x{i}")).collect();
    response.rows = (0..430u32)
        .map(|r| (0..8).map(|c| (r + c) % 3).collect())
        .collect();
    let result = Ok(response);
    let (line, encoding) = allocations_during(|| tag_reply(7, &encode_result(&result)));
    assert!(line.starts_with("ok id=7 cache_hit=0") && line.ends_with(";0,1,2,0,1,2,0,1"));
    assert!(
        encoding <= 4,
        "encode_result + tag_reply: {encoding} allocations"
    );
}

#[test]
fn a_warm_result_cache_hit_allocates_nothing() {
    let query = parse_query(&ladder_rule()).expect("well-formed");
    let identity = QueryIdentity::of(&query);
    let key = ResultKey {
        data: DbFingerprint(1),
        fingerprint: identity.fingerprint,
        method: Method::Straightforward,
        seed: 0,
    };
    let result = Arc::new(CachedResult {
        columns: Vec::new(),
        rows: (0..430u32).map(|r| vec![r % 3; 6].into()).collect(),
        stats: ExecStats::default(),
    });
    let cache = ResultCache::new(8 << 20);
    cache.insert(key.clone(), identity.shape.clone(), result);
    let (hit, lookup) = allocations_during(|| cache.get(&key, &identity.shape));
    assert_eq!(hit.expect("warm key").rows.len(), 430);
    assert_eq!(lookup, 0, "ResultCache::get on a hit: {lookup} allocations");
}
