//! Allocation guard for the three kernels every `run` crosses, result-cache
//! hit or not: rule text in (`scan_rule`), cache identity (`identify`, from
//! the scan's arrays), reply text out (`encode_result` + `tag_reply`);
//! for the result-cache lookup every hit pays between them; and for a
//! whole hit served over a socket, which must not copy the cached rows
//! and must cost no more for 43 atoms than for one;
//! for a durable catalog's `load` and `add`, which must cost what the
//! memory-only catalog's do plus a constant; for an `add` into a large
//! relation, which must copy one row chunk and not the relation; and for
//! the planner, which every result-cache miss runs and which must cost
//! the plan it builds plus a constant. Heap allocations (and, for the
//! `add`, live heap bytes) are the one cost figure of theirs that does
//! not drift with the host. A counting `#[global_allocator]` needs its
//! own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ppr_core::methods::Method;
use ppr_core::passes::plan_query;
use ppr_durability::{StoreOptions, SyncPolicy};
use ppr_graph::families;
use ppr_query::Database;
use ppr_query::{parse_query, scan_rule, QueryIdentity};
use ppr_relalg::relation::CHUNK_ROWS;
use ppr_relalg::{AttrId, ExecStats, Relation, Schema};
use ppr_service::protocol::{encode_request, encode_result, tag_reply, tag_request};
use ppr_service::result_cache::{CachedResult, ResultKey};
use ppr_service::{
    Catalog, DbFingerprint, Engine, EngineConfig, Request, Response, ResultCache, Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations made by this thread (the harness runs tests on several).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed (frees of another
    /// thread's memory count against the freeing thread).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocations made by every thread of the process.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by every test here: the process-wide count sees all threads, so
/// the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn count(allocations: u64, bytes: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
    PROCESS_ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are `const`-initialised thread-local
// `Cell`s with no destructor and a static atomic, so touching them neither
// allocates nor unwinds (`try_with` only fails during thread teardown,
// where the count is moot).
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

/// What `work` returns, the allocations it made and the heap bytes it left
/// allocated.
fn allocations_and_live_bytes<T>(work: impl FnOnce() -> T) -> (T, u64, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    let (out, allocations) = allocations_during(work);
    (out, allocations, LIVE_BYTES.with(Cell::get) - before)
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

/// Allocations of keying `rule` the way a `run` is keyed from its text:
/// one scan, then the identity computed from the scan's arrays.
fn keying(rule: &str) -> (usize, u64) {
    let ((atoms, identity), allocations) = allocations_during(|| {
        let scanned = scan_rule(rule).expect("well-formed");
        (scanned.num_atoms(), scanned.identify())
    });
    assert_eq!(
        identity.identity,
        QueryIdentity::of(&parse_query(rule).unwrap())
    );
    (atoms, allocations)
}

#[test]
fn a_hit_parses_and_identifies_in_flat_buffers() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (atoms, ladder) = keying(&ladder_rule());
    assert_eq!(atoms, 43);
    let (_, edge) = keying("q(x, y) :- edge(x, y)");
    // A fixed set of flat arrays, each sized once: the scan's, the
    // incidence groupings, the refinement colors and the shape's. Building
    // the query first costs a name and an argument vector per atom and two
    // copies of each variable name; `parse_query` + `QueryIdentity::of`
    // were pinned at 190 + 40 allocations for this rule.
    assert!(
        ladder <= 32 && ladder <= edge + 2,
        "scan_rule + identify: {ladder} allocations for 43 atoms, {edge} for one"
    );
}

#[test]
fn planning_costs_the_plan_it_builds_plus_a_constant() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new();
    db.add(relation("edge", 4));
    // Planning beyond the plan: the span list and the step names, and for
    // early projection the left-deep join-expression tree, whose structure
    // and labels are a fixed set of flat buffers. None of it may grow with
    // the query.
    let overhead = |atoms: usize, method: Method, steps: usize| {
        let body: Vec<String> = (0..atoms)
            .map(|i| format!("edge(x{i}, x{})", i + 1))
            .collect();
        let query = parse_query(&format!("q(x0) :- {}", body.join(", "))).expect("well-formed");
        let mut rng = StdRng::seed_from_u64(0);
        let (report, planning) =
            allocations_during(|| plan_query(method, &query, &db, &mut rng, None));
        let (_, copying) = allocations_during(|| report.plan.clone());
        assert_eq!(report.passes_run, steps);
        planning - copying
    };
    for (method, steps, bound) in [
        (Method::Straightforward, 2, 8),
        (Method::EarlyProjection, 3, 16),
    ] {
        let (forty, eighty) = (overhead(40, method, steps), overhead(80, method, steps));
        assert!(
            forty <= bound && forty == eighty,
            "plan_query({method:?}) beyond cloning its plan: {forty} allocations at 40 atoms, \
             {eighty} at 80"
        );
    }
}

#[test]
fn a_reply_is_written_into_one_buffer_and_tagged_into_another() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// A binary relation `name` of `rows` rows.
fn relation(name: &str, rows: u32) -> Relation {
    let schema = Schema::new(vec![AttrId(0), AttrId(1)]);
    let rows = (0..rows).map(|i| vec![i, i + 1].into()).collect();
    Relation::from_distinct_rows(name, schema, rows)
}

/// Allocations the server makes per result-cache hit on `rule`, served
/// over a v2 socket one tagged `run` at a time: the process-wide count
/// minus this (client) thread's own.
fn server_allocations_per_hit(addr: std::net::SocketAddr, rule: &str) -> u64 {
    const HITS: u64 = 200;
    let mut socket = TcpStream::connect(addr).unwrap();
    let mut replies = BufReader::new(socket.try_clone().unwrap());
    let mut reply = String::new();
    socket.write_all(b"hello proto=2\n").unwrap();
    replies.read_line(&mut reply).unwrap();
    let run = encode_request(&Request::query(rule));
    let lines: Vec<String> = (0..=HITS).map(|id| tag_request(id, &run) + "\n").collect();
    let mut serve = |line: &String| {
        socket.write_all(line.as_bytes()).unwrap();
        reply.clear();
        replies.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ok id="), "{reply}");
    };
    // The first run misses and fills the cache; the rest are hits.
    serve(&lines[0]);
    let process = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
    let (_, client) = allocations_during(|| lines[1..].iter().for_each(&mut serve));
    assert!(reply.contains(" result_hit=1 "), "{reply}");
    (PROCESS_ALLOCATIONS.load(Ordering::Relaxed) - process - client) / HITS
}

#[test]
fn a_hit_served_over_a_socket_does_not_copy_the_cached_rows() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new();
    db.add(relation("thin", 4));
    db.add(relation("wide", 430));
    let engine = Engine::start(Catalog::with_default(db), EngineConfig::default());
    let mut server = Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .unwrap();
    let thin = server_allocations_per_hit(server.local_addr(), "q(x, y) :- thin(x, y)");
    let wide = server_allocations_per_hit(server.local_addr(), "q(x, y) :- wide(x, y)");
    server.shutdown();
    engine.shutdown();
    // A copy of the rows would cost one allocation per row.
    assert!(
        wide <= thin + 3,
        "{thin} allocations per 4-row hit, {wide} per 430-row hit"
    );
}

#[test]
fn a_hit_on_43_atoms_allocates_what_a_hit_on_one_does() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new();
    db.add(relation("edge", 4));
    let engine = Engine::start(Catalog::with_default(db), EngineConfig::default());
    let mut server = Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .unwrap();
    let one = server_allocations_per_hit(server.local_addr(), "q(x, y) :- edge(x, y)");
    let ladder = server_allocations_per_hit(server.local_addr(), &ladder_rule());
    server.shutdown();
    engine.shutdown();
    // A hit is keyed from flat arrays over the request's text and builds
    // no query, so nothing is allocated per atom or per variable. Building
    // the query made this hit cost 212 allocations, the 1-atom one 52.
    assert!(
        ladder <= one + 2,
        "{one} allocations per 1-atom hit, {ladder} per 43-atom hit"
    );
}

/// Allocations of a `load` of `n` rows and of an `add` into those `n`
/// rows, on a fresh `catalog` holding an empty database `g`.
fn load_and_add(catalog: &Catalog, n: u32) -> (u64, u64) {
    catalog.create("g").unwrap();
    let rows: Vec<Box<[u32]>> = (0..n).map(|i| vec![i, i + 1].into()).collect();
    let (_, load) = allocations_during(|| catalog.load("g", "e", rows).unwrap());
    let row: Box<[u32]> = vec![n, 0].into();
    let (_, add) = allocations_during(|| catalog.add("g", "e", row).unwrap());
    (load, add)
}

#[test]
fn a_durable_mutation_costs_a_constant_over_the_memory_only_one() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A checkpoint after every record: each mutation also writes a
    // snapshot of the whole database.
    let options = StoreOptions {
        sync: SyncPolicy::Never,
        snapshot_every: 1,
        snapshot_bytes: 1 << 30,
    };
    for n in [64, 4096] {
        let dir = std::env::temp_dir().join(format!("ppr-alloc-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (durable, _) = Catalog::open_with(&dir, options).unwrap();
        let (durable_load, durable_add) = load_and_add(&durable, n);
        let (memory_load, memory_add) = load_and_add(&Catalog::new(), n);
        // The store keeps no copy of the database, and the log record
        // and the snapshot are each encoded into one exactly-sized
        // buffer, so no extra allocation depends on n (at 4 096 rows a
        // copy would cost 4 096).
        assert!(
            durable_load <= memory_load + 32 && durable_add <= memory_add + 32,
            "n = {n}: load {durable_load} vs {memory_load}, add {durable_add} vs {memory_add}"
        );
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn an_add_copies_one_chunk_not_the_relation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ROWS: u32 = 10_000;
    let catalog = Catalog::new();
    catalog.create("g").unwrap();
    let rows: Vec<Box<[u32]>> = (0..ROWS).map(|i| vec![i, i % 3].into()).collect();
    catalog.load("g", "visits", rows).unwrap();
    // A reader holds the published snapshot, as an in-flight request
    // would, so nothing the add replaces is freed under it.
    let reader = catalog.snapshot("g").unwrap();
    let row: Box<[u32]> = vec![ROWS, 0].into();
    let (_, allocations, live) =
        allocations_and_live_bytes(|| catalog.add("g", "visits", row).unwrap());
    assert_eq!(reader.db.expect("visits").len(), ROWS as usize);
    assert_eq!(
        catalog.snapshot("g").unwrap().db.expect("visits").len(),
        10_001
    );
    // The new snapshot shares every row chunk but the last, whose copy is
    // at most CHUNK_ROWS rows of two values. A deep clone of the relation
    // cost one allocation a row and about 40 bytes a row.
    let chunk = (CHUNK_ROWS * 2 * std::mem::size_of::<u32>()) as i64;
    assert!(allocations <= 16, "Catalog::add: {allocations} allocations");
    assert!(
        live <= chunk + 1024,
        "Catalog::add: {live} new live bytes, one chunk is {chunk}"
    );
}
