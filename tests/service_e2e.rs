//! End-to-end smoke test of the serving subsystem: a real TCP server on
//! an ephemeral port, a real client, one 3-COLOR query per planning
//! method, and the acceptance bar that wire answers are byte-identical to
//! library-level evaluation. Also exercises the catalog verbs (`create` /
//! `use` / `load` / `add` / `drop`) with version-based result-cache
//! invalidation, admission control (saturation fast-fails with
//! `Overloaded`), and graceful shutdown.

use projection_pushing::prelude::*;
use projection_pushing::query::{parse_query, Database};
use projection_pushing::relalg::exec;
use projection_pushing::service;
use projection_pushing::service::engine::EngineStats;
use projection_pushing::workload::edge_relation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::{Catalog, Engine, EngineConfig, ServiceError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// 3-COLOR of the pentagon with two free variables, so responses carry
/// actual rows (not just a Boolean).
const PENTAGON: &str = "q(a, b) :- edge(a, b), edge(b, c), edge(c, d), edge(d, f), edge(f, a)";

fn color_db() -> Database {
    let mut db = Database::new();
    db.add(edge_relation(3));
    db
}

fn color_catalog() -> Catalog {
    Catalog::with_default(color_db())
}

fn all_methods() -> Vec<Method> {
    vec![
        Method::Naive,
        Method::Straightforward,
        Method::EarlyProjection,
        Method::Reordering,
        Method::BucketElimination(OrderHeuristic::Mcs),
        Method::BucketElimination(OrderHeuristic::MinDegree),
        Method::BucketElimination(OrderHeuristic::MinFill),
    ]
}

#[test]
fn wire_answers_match_library_evaluation_per_method() {
    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ping().expect("ping");

    let query = parse_query(PENTAGON).unwrap();
    let db = color_db();
    for method in all_methods() {
        // The engine's default seed is 0; evaluate with the same seed and
        // an equivalent budget for byte-identical plans and rows.
        let plan = build_plan(method, &query, &db, &mut StdRng::seed_from_u64(0));
        let (expected, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
        let response = client.run(&Request::new(PENTAGON, method)).unwrap();
        assert_eq!(
            response.rows,
            expected.tuples().to_vec(),
            "{} over the wire differs from the library",
            method.name()
        );
        assert_eq!(response.columns, vec!["a", "b"]);
    }

    // Re-running the lineup is served from the result cache for every
    // method: no re-planning, no re-execution, byte-identical rows.
    let before: EngineStats = client.stats().unwrap();
    for method in all_methods() {
        let cold = client.run(&Request::new(PENTAGON, method)).unwrap();
        assert!(cold.cache_hit, "{} should be cached", method.name());
        assert!(cold.result_cache_hit, "{} should hit rows", method.name());
        assert_eq!(cold.plan_micros, 0, "cache hits must not re-plan");
    }
    let after: EngineStats = client.stats().unwrap();
    assert_eq!(
        after.results.hits,
        before.results.hits + all_methods().len() as u64
    );
    assert_eq!(after.results.misses, before.results.misses);
    assert_eq!(after.cache.misses, before.cache.misses, "no re-planning");

    server.shutdown();
    engine.shutdown();
}

#[test]
fn catalog_mutations_invalidate_result_cache_over_the_wire() {
    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Build a fresh 2-colorability database over the wire.
    let v0 = client.create_db("two").expect("create");
    let pairs = vec![vec![0, 1].into_boxed_slice(), vec![1, 0].into_boxed_slice()];
    let v1 = client.load("two", "edge", pairs).expect("load");
    assert!(v1 > v0, "load must bump the version");
    client.use_db("two").expect("use");

    // The 4-cycle is 2-colorable; its colorings under two colors are the
    // two alternating assignments.
    let square = "q(a, b) :- edge(a, b), edge(b, c), edge(c, d), edge(d, a)";
    let req = Request::query(square).method(Method::BucketElimination(OrderHeuristic::Mcs));
    let cold = client.run(&req).unwrap();
    assert!(!cold.result_cache_hit);
    assert_eq!(cold.rows.len(), 2);

    // Cached replay is byte-identical to the cold execution.
    let warm = client.run(&req).unwrap();
    assert!(warm.result_cache_hit, "repeat must hit the result cache");
    assert!(warm.cache_hit);
    assert_eq!(warm.rows, cold.rows, "cached rows must be byte-identical");
    assert_eq!(warm.columns, cold.columns);

    // Caches key on the content of the relations a query reads, so an
    // `add` to a relation the square does not read leaves it warm.
    let unread = client
        .add("two", "unread", vec![5].into_boxed_slice())
        .expect("add unread");
    assert!(unread > v1, "add must bump the version");
    let still_warm = client.run(&req).unwrap();
    assert!(
        still_warm.result_cache_hit,
        "an add to an unread relation must not invalidate"
    );
    assert_eq!(still_warm.rows, cold.rows);

    // `add` to `edge` bumps the version: the very next run misses both
    // caches and sees the new data (a third color enlarges the answer set).
    let v2 = client
        .add("two", "edge", vec![0, 2].into_boxed_slice())
        .expect("add");
    assert!(v2 > v1, "add must bump the version");
    for t in [[2, 0], [1, 2], [2, 1]] {
        client
            .add("two", "edge", t.to_vec().into_boxed_slice())
            .expect("add");
    }
    let fresh = client.run(&req).unwrap();
    assert!(
        !fresh.result_cache_hit,
        "version bump must invalidate results"
    );
    assert!(
        !fresh.cache_hit,
        "plans bind snapshot scans, so they re-plan"
    );
    assert!(
        fresh.rows.len() > cold.rows.len(),
        "new tuples must show up"
    );

    // …and the new version then caches in its own right.
    assert!(client.run(&req).unwrap().result_cache_hit);

    // `load` (replace) back to the original two tuples bumps the version
    // but restores the original *content* — and caches key on the
    // content fingerprint, so the original cached result revives instead
    // of re-executing. Same content, same answers, zero execution.
    let pairs = vec![vec![0, 1].into_boxed_slice(), vec![1, 0].into_boxed_slice()];
    let v3 = client.load("two", "edge", pairs).expect("reload");
    assert!(v3 > v2, "reload still bumps the version");
    let reloaded = client.run(&req).unwrap();
    assert!(
        reloaded.result_cache_hit,
        "restored content must revive the fingerprint-keyed cache entry"
    );
    assert_eq!(reloaded.rows, cold.rows);

    // Dropping the database ends the story: named access now fails.
    client.drop_db("two").expect("drop");
    assert!(matches!(
        client.run(&req.clone().on("two")),
        Err(ServiceError::UnknownDatabase(_))
    ));

    server.shutdown();
    engine.shutdown();
}

#[test]
fn saturated_server_sheds_load_with_overloaded() {
    // One worker and a one-slot queue: concurrent clients must observe
    // typed overload errors, not unbounded queueing. The result cache is
    // off so every request really executes.
    let mut cfg = EngineConfig::default();
    cfg.workers = 1;
    cfg.queue_capacity = 1;
    cfg.result_cache_bytes = 0;
    let engine = Engine::start(color_catalog(), cfg);
    let server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let addr = server.local_addr();

    // K6: slow enough under `straightforward` to pile up concurrent work.
    let atoms: Vec<String> = (0..6)
        .flat_map(|i| ((i + 1)..6).map(move |j| format!("edge(v{i}, v{j})")))
        .collect();
    let slow = format!("q() :- {}", atoms.join(", "));

    let mut joins = Vec::new();
    for _ in 0..8 {
        let slow = slow.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.run(&Request::new(slow, Method::Straightforward))
        }));
    }
    let results: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let overloaded = results
        .iter()
        .filter(|r| matches!(r, Err(ServiceError::Overloaded { .. })))
        .count();
    let succeeded = results.iter().filter(|r| r.is_ok()).count();
    assert!(
        overloaded > 0,
        "8 concurrent requests against in-flight cap 2 must shed load"
    );
    assert!(succeeded > 0, "admitted requests must still be answered");
    assert_eq!(engine.handle().stats().rejected as usize, overloaded);

    drop(server); // Drop also shuts the server down gracefully.
    engine.shutdown();
}

#[test]
fn shutdown_is_graceful_and_then_refuses() {
    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let handle = engine.handle();

    // A request completes normally before shutdown…
    let ok = client.run(&Request::new(PENTAGON, Method::EarlyProjection));
    assert!(ok.is_ok());

    // …the engine drains and refuses afterwards.
    server.shutdown();
    engine.shutdown();
    assert!(matches!(
        handle.execute(Request::new(PENTAGON, Method::EarlyProjection)),
        Err(ServiceError::ShuttingDown)
    ));
}

/// An `ok` line with its wall-clock fields (`plan_us`, `elapsed_us`,
/// `cpu_us`) and its physical-work attribution fields (`scanned=`,
/// `ix_builds=`) removed. The timing fields are wall-clock noise; the
/// attribution fields are run-order-dependent under concurrency because
/// the snapshot's lazy secondary indexes are built by whichever request
/// probes first — that request alone reports the build (and the rows it
/// read to build it). Everything left — cache flags, `tuples=`,
/// `emitted=`, `ix_probes=`, columns, row count, row data — is
/// deterministic for a fixed request against a fresh engine. The `data=`
/// payload never contains spaces (rows are `;`/`,`-separated), so
/// field-splitting is safe.
fn strip_timings(line: &str) -> String {
    line.split(' ')
        .filter(|f| {
            !f.starts_with("plan_us=")
                && !f.starts_with("elapsed_us=")
                && !f.starts_with("cpu_us=")
                && !f.starts_with("scanned=")
                && !f.starts_with("ix_builds=")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Opens a raw protocol-v2 connection: `hello proto=2` sent and its ack
/// decoded. Replies are read through the returned reader; requests are
/// written to its stream (`get_mut()`). A read that waits a minute fails
/// the test instead of hanging it.
fn v2_connect(addr: SocketAddr) -> (BufReader<TcpStream>, service::protocol::HelloAck) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
    let mut conn = BufReader::new(stream);
    conn.get_mut().write_all(b"hello proto=2\n").expect("hello");
    let mut ack = String::new();
    assert!(conn.read_line(&mut ack).expect("read") > 0);
    let hello = service::protocol::decode_hello_ok(&ack).expect("hello ack");
    (conn, hello)
}

/// The acceptance bar for protocol v2: replies on a pipelined connection
/// are a **permutation** of the serial replies — every id answered
/// exactly once — and each reply is **byte-identical** to its serial
/// counterpart modulo the `id=` tag, the arrival order, the wall-clock
/// timing fields, and the index-build attribution fields (see
/// [`strip_timings`]: concurrent requests race to build the snapshot's
/// lazy indexes, so which one reports `ix_builds=` is
/// scheduler-dependent). Every run hits a fresh engine with the same
/// per-request seeds, so plans, cache flags, and the remaining execution
/// stats have no run-order excuse to differ. The list mixes all seven
/// methods with three deterministic failures, one of each kind a query
/// can fail with before it executes, to cover the `err` path too.
///
/// The serial reference is taken twice: over the wire as v1 untagged
/// lines (one reply per request, in order — the event loop's serial
/// hold), and with no socket at all, as `encode_result` of
/// `EngineHandle::execute`. The connection layer may therefore add
/// nothing to a reply but its tag.
#[test]
fn pipelined_replies_are_a_per_id_permutation_of_serial() {
    use projection_pushing::service::protocol;
    use std::collections::HashMap;

    let mut requests: Vec<Request> = Vec::new();
    for (i, method) in all_methods().iter().cycle().take(21).enumerate() {
        let mut request = Request::new(PENTAGON, *method);
        request.seed = Some(100 + i as u64);
        requests.push(request);
    }
    requests.push(Request::new(
        "q(a) :- nosuch(a, b)",
        Method::EarlyProjection,
    ));
    requests.push(Request::new("q(a :- edge(", Method::Straightforward));
    // An unknown database is answered at admission, before any worker.
    requests.push(Request::new(PENTAGON, Method::EarlyProjection).on("nosuch"));
    let wire_lines: Vec<String> = requests.iter().map(protocol::encode_request).collect();

    // Socket-free reference: the engine's answer, encoded.
    let direct: Vec<String> = {
        let engine = Engine::start(color_catalog(), EngineConfig::default());
        let handle = engine.handle();
        let replies = requests
            .iter()
            .map(|request| protocol::encode_result(&handle.execute(request.clone())))
            .collect();
        engine.shutdown();
        replies
    };

    // Serial reference: v1 untagged lines, one reply per request, in
    // order. The whole list goes out in one write, so ordering is the
    // server's doing (each `run` holds the connection until its reply is
    // written), not the client's.
    let serial: Vec<String> = {
        let engine = Engine::start(color_catalog(), EngineConfig::default());
        let mut server = service::Server::builder()
            .addr("127.0.0.1:0")
            .engine(engine.handle())
            .start()
            .expect("ephemeral bind");
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let burst: String = wire_lines.iter().map(|line| format!("{line}\n")).collect();
        (&stream).write_all(burst.as_bytes()).expect("write");
        let mut replies = Vec::new();
        for _ in &wire_lines {
            let mut reply = String::new();
            assert!(reader.read_line(&mut reply).expect("read") > 0);
            replies.push(reply.trim_end().to_string());
        }
        drop(stream);
        server.shutdown();
        engine.shutdown();
        replies
    };
    assert_eq!(serial.len(), direct.len());
    for (i, (wire, engine)) in serial.iter().zip(&direct).enumerate() {
        assert_eq!(
            strip_timings(wire),
            strip_timings(engine),
            "v1 reply {i} differs from the engine's own answer"
        );
    }

    // Pipelined run: same lines, same seeds, fresh engine, ids 1..=N kept
    // in flight up to the advertised window.
    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let (mut reader, hello) = v2_connect(server.local_addr());
    assert!(hello.proto >= 2);
    assert!(hello.window >= 2, "window {} too small", hello.window);

    let mut tagged: HashMap<u64, String> = HashMap::new();
    let mut next = 0usize;
    let mut in_flight = 0usize;
    while tagged.len() < wire_lines.len() {
        while next < wire_lines.len() && in_flight < hello.window {
            let line = protocol::tag_request((next + 1) as u64, &wire_lines[next]);
            reader
                .get_mut()
                .write_all(format!("{line}\n").as_bytes())
                .expect("write");
            next += 1;
            in_flight += 1;
        }
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("read") > 0);
        let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
        let id = id.expect("pipelined replies must carry id=");
        assert!(
            tagged.insert(id, payload.trim_end().to_string()).is_none(),
            "id {id} answered twice"
        );
        in_flight -= 1;
    }
    drop(reader);
    server.shutdown();
    engine.shutdown();

    // Permutation: every id answered exactly once, nothing extra.
    assert_eq!(tagged.len(), serial.len());
    for (i, serial_reply) in serial.iter().enumerate() {
        let id = (i + 1) as u64;
        let piped = tagged
            .get(&id)
            .unwrap_or_else(|| panic!("no reply for id {id}"));
        assert_eq!(
            strip_timings(piped),
            strip_timings(serial_reply),
            "id {id} differs from its serial twin"
        );
    }
    // The mixed list really exercised both reply shapes.
    assert!(serial.iter().filter(|r| r.starts_with("ok ")).count() >= 21);
    let errors: Vec<&str> = serial
        .iter()
        .filter(|r| r.starts_with("err "))
        .map(|r| r.split(' ').nth(1).unwrap())
        .collect();
    assert_eq!(
        errors,
        ["kind=missing_relation", "kind=parse", "kind=unknown_db"]
    );
}

/// A duplicate in-flight id draws a tagged `err kind=protocol` while the
/// original request still completes, and the connection survives for
/// fresh ids afterwards.
#[test]
fn pipelined_duplicate_id_is_rejected_and_the_connection_survives() {
    use projection_pushing::service::protocol;

    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let (mut reader, _) = v2_connect(server.local_addr());

    // Two id=7 runs in one burst: the second must not displace the first.
    let line = protocol::encode_request(&Request::new(PENTAGON, Method::EarlyProjection));
    let burst = format!(
        "{}\n{}\n",
        protocol::tag_request(7, &line),
        protocol::tag_request(7, &line)
    );
    reader.get_mut().write_all(burst.as_bytes()).expect("write");

    // Exactly two replies, both for id 7: one ok (the reserved request ran
    // to completion), one protocol error (the duplicate). Order is free.
    let mut oks = 0;
    let mut dups = 0;
    for _ in 0..2 {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("read") > 0);
        let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
        assert_eq!(id, Some(7));
        match protocol::decode_result(&payload) {
            Ok(response) => {
                assert_eq!(response.columns, vec!["a", "b"]);
                oks += 1;
            }
            Err(ServiceError::Protocol(msg)) => {
                assert!(msg.contains("already in flight"), "unexpected: {msg}");
                dups += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!((oks, dups), (1, 1));

    // The connection is still healthy: a fresh id runs normally, and its
    // answer is byte-identical (modulo tag/timing) to the id=7 success.
    reader
        .get_mut()
        .write_all(format!("{}\n", protocol::tag_request(8, &line)).as_bytes())
        .expect("write");
    let mut reply = String::new();
    assert!(reader.read_line(&mut reply).expect("read") > 0);
    let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
    assert_eq!(id, Some(8));
    let response = protocol::decode_result(&payload).expect("fresh id must run");
    assert_eq!(response.columns, vec!["a", "b"]);

    server.shutdown();
    engine.shutdown();
}

/// A tagged `use` takes effect in line order for the tagged runs around
/// it, although all four lines arrive in one write and the runs complete
/// in any order: each run answers from the database selected before it.
#[test]
fn tagged_use_orders_against_surrounding_runs() {
    use projection_pushing::service::protocol::{self, Command};
    use std::collections::HashMap;

    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let mut setup = Client::connect(server.local_addr()).expect("connect");
    setup.create_db("left").unwrap();
    setup.load("left", "e", vec![vec![1, 1].into()]).unwrap();
    setup.create_db("right").unwrap();
    setup
        .load("right", "e", vec![vec![1, 1].into(), vec![2, 2].into()])
        .unwrap();

    let (mut reader, _) = v2_connect(server.local_addr());

    let run = protocol::encode_request(
        &Request::query("q(x) :- e(x, y)").method(Method::Straightforward),
    );
    let use_db = |db: &str| protocol::encode_command(&Command::Use(db.to_string()));
    let burst: String = [use_db("left"), run.clone(), use_db("right"), run]
        .iter()
        .enumerate()
        .map(|(i, line)| format!("{}\n", protocol::tag_request(i as u64 + 1, line)))
        .collect();
    reader.get_mut().write_all(burst.as_bytes()).expect("write");

    let mut replies: HashMap<u64, String> = HashMap::new();
    for _ in 0..4 {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("read") > 0);
        let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
        replies.insert(id.expect("tagged id"), payload);
    }
    let rows = |id: u64| {
        protocol::decode_result(&replies[&id])
            .expect("run")
            .rows
            .len()
    };
    assert_eq!(rows(2), 1, "run 2 must see `left`");
    assert_eq!(rows(4), 2, "run 4 must see `right`");
    assert_eq!(protocol::decode_ack(&replies[&1]).expect("ack").db, "left");
    assert_eq!(protocol::decode_ack(&replies[&3]).expect("ack").db, "right");

    server.shutdown();
    engine.shutdown();
}

/// The real binary round-trips too: `ppr serve` on an ephemeral port,
/// `ppr client` against it — including the catalog verbs.
#[test]
fn ppr_binary_serve_and_client_round_trip() {
    use std::process::{Command, Stdio};

    let mut serve = Command::new(env!("CARGO_BIN_EXE_ppr"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn ppr serve");

    // The server reports its bound (ephemeral) address on stderr. Keep
    // draining the pipe afterwards: closing it would EPIPE any later
    // server log line and kill the process mid-test.
    let stderr = serve.stderr.take().expect("stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("ppr-service listening on ") {
                let _ = tx.send(rest.trim().to_string());
            }
        }
    });
    let addr = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("serve never reported its address");

    let client = |args: &[&str]| {
        let mut full = vec!["client", "--connect", &addr];
        full.extend_from_slice(args);
        Command::new(env!("CARGO_BIN_EXE_ppr"))
            .args(&full)
            .output()
            .expect("run ppr client")
    };

    let out = client(&[
        "--rule",
        "q(x, y) :- edge(x, y), edge(y, x)",
        "--method",
        "bucket",
    ]);
    // The explain smoke: the binary renders the measured operator tree,
    // and the root operator's output equals the reported row count.
    let explained = client(&[
        "--rule",
        "q(x, y) :- edge(x, y), edge(y, x)",
        "--method",
        "early",
        "--explain",
        "analyze",
    ]);
    // Build a second database over the wire and query it by name.
    let created = client(&["--create", "g2"]);
    let loaded = client(&["--load", "g2 edge 0,1;1,0"]);
    let named = client(&[
        "--db",
        "g2",
        "--rule",
        "q(x, y) :- edge(x, y), edge(y, x)",
        "--method",
        "bucket",
    ]);
    let _ = serve.kill();
    let _ = serve.wait();

    assert!(out.status.success(), "client failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Ordered pairs of distinct colors in K3.
    assert!(stdout.contains("rows: 6"), "unexpected output: {stdout}");

    assert!(explained.status.success(), "explain failed: {explained:?}");
    let explain_out = String::from_utf8_lossy(&explained.stdout);
    assert!(
        explain_out.contains("explain analyze: 6 rows"),
        "unexpected explain output: {explain_out}"
    );
    assert!(
        explain_out.contains("projection-pushdown"),
        "pass table missing: {explain_out}"
    );
    // The first operator line (the root, depth 0) reports rows_out equal
    // to the answer-set size the header announced: the operator counters
    // sum consistently with the result.
    let root_op = explain_out
        .lines()
        .skip_while(|l| l.trim() != "operators:")
        .nth(1)
        .unwrap_or_else(|| panic!("no operator tree: {explain_out}"));
    assert!(
        root_op.contains("rows_out=6"),
        "root operator disagrees with the row count: {root_op}"
    );

    assert!(created.status.success(), "create failed: {created:?}");
    assert!(loaded.status.success(), "load failed: {loaded:?}");
    assert!(named.status.success(), "named run failed: {named:?}");
    let named_out = String::from_utf8_lossy(&named.stdout);
    // Only the pair {0,1} in both orders.
    assert!(
        named_out.contains("rows: 2"),
        "unexpected output: {named_out}"
    );
}

/// `ppr serve` refuses a flag it does not know — a misspelling, or a
/// retired tuning flag — instead of serving with a default in its place:
/// exit 2, the flag named on stderr, and the listening line never printed.
/// `ppr client` checks its flags the same way before it connects.
#[test]
fn ppr_serve_rejects_unknown_flags() {
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let serve =
        |flags: &[&'static str]| [&["serve", "--listen", "127.0.0.1:0"][..], flags].concat();
    let mut cases = vec![serve(&["--threads"]), serve(&["--wrokers", "8"])];
    for retired in [
        &["--workers", "8"][..],
        &["--max-tuples", "10"],
        &["--timeout-ms", "100"],
        &["--slowlog", "4"],
        &["--no-fsync"],
        &["--max-connections", "10"],
        &["--idle-timeout-ms", "100"],
    ] {
        cases.push(serve(retired));
    }
    // A script's retired `--pipeline 4` must not silently send one request.
    cases.push(vec![
        "client",
        "--connect",
        "127.0.0.1:9",
        "--rule",
        "q() :- edge(x, y)",
        "--pipeline",
        "4",
    ]);

    for args in &cases {
        let flag = args.iter().rev().find(|a| a.starts_with("--")).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_ppr"))
            .args(args)
            .stderr(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .expect("spawn ppr");
        // A server that accepted the flag would run forever: bound the wait.
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait") {
                break status;
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                panic!("`ppr {args:?}` kept running instead of rejecting the flag");
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{args:?}: {flag} not named: {stderr}"
        );
        assert!(
            !stderr.contains("ppr-service listening on"),
            "{args:?} started a server: {stderr}"
        );
    }
}

/// The profiling tentpole's acceptance bar over real TCP: `explain
/// analyze` returns the operator tree with **exact** per-operator row
/// counters — byte-equal (modulo times) to what an embedded profiled
/// execution of the same request records — and its root operator's
/// output is the answer set itself. `explain plan` renders the same tree
/// without executing. Both bypass the result and plan caches even when
/// a prior plain run has warmed them.
#[test]
fn explain_over_the_wire_profiles_operators_exactly() {
    use projection_pushing::service::protocol;
    use service::ExplainMode;

    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let request = Request::query(PENTAGON).method(Method::EarlyProjection);

    // A plain run first: it gives the ground-truth row count, warms both
    // caches (which explain must bypass), and builds the snapshot's lazy
    // secondary indexes so the profiled runs below see identical state.
    let plain = client.run(&request).unwrap();
    assert!(!plain.rows.is_empty());

    let report = client
        .explain(&request, ExplainMode::Analyze)
        .expect("explain analyze");
    assert!(report.analyze);
    assert!(
        !report.cache_hit && !report.result_cache_hit,
        "explain must bypass both caches"
    );
    assert_eq!(report.rows as usize, plain.rows.len());
    // Pass spans name the optimizer pipeline that planned the query.
    let names: Vec<&str> = report.passes.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        names,
        ["listing-order", "build-join-chain", "projection-pushdown"]
    );

    // The root operator's output is the answer set itself…
    assert!(!report.ops.is_empty());
    assert_eq!(report.ops[0].depth, 0);
    assert_eq!(report.ops[0].rows_out, report.rows);
    // …and every counter agrees exactly with an embedded profiled
    // execution of the same request on the same engine: the serial
    // streaming executor is deterministic, so only times may differ.
    let embedded = engine
        .handle()
        .execute(request.clone().explain(ExplainMode::Analyze))
        .expect("embedded explain");
    let counters = |ops: &[projection_pushing::obs::OpNode]| {
        ops.iter()
            .map(|o| {
                (
                    o.depth,
                    o.op,
                    o.target.clone(),
                    o.rows_in,
                    o.rows_out,
                    o.probes,
                )
            })
            .collect::<Vec<_>>()
    };
    let expected = embedded.explain.as_deref().expect("embedded payload");
    assert_eq!(counters(&report.ops), counters(&expected.ops));

    // `explain plan` renders the same tree shape with zero counters and
    // no execution.
    let planned = client
        .explain(&request, ExplainMode::Plan)
        .expect("explain plan");
    assert!(!planned.analyze);
    assert_eq!(planned.rows, 0);
    let shape = |ops: &[projection_pushing::obs::OpNode]| {
        ops.iter()
            .map(|o| (o.depth, o.op, o.target.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(shape(&planned.ops), shape(&report.ops));
    assert!(planned
        .ops
        .iter()
        .all(|o| o.rows_in == 0 && o.rows_out == 0 && o.probes == 0 && o.time_us == 0));
    assert_eq!(shape(&planned.ops), shape(&expected.ops));

    // The tagged v2 shape works too: `explain id=N analyze …` draws a
    // tagged ExplainReport with the same counters.
    let (mut reader, _) = v2_connect(server.local_addr());
    let line = protocol::tag_request(
        3,
        &protocol::encode_explain(&request.clone().explain(ExplainMode::Analyze)),
    );
    reader
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut reply = String::new();
    assert!(reader.read_line(&mut reply).expect("read") > 0);
    let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
    assert_eq!(id, Some(3));
    let tagged = protocol::decode_explain_report(&payload).expect("tagged explain");
    assert_eq!(counters(&tagged.ops), counters(&report.ops));
    assert_eq!(tagged.rows, report.rows);

    server.shutdown();
    engine.shutdown();
}

/// One raw HTTP/1.1 scrape of the metrics endpoint, body only.
fn scrape(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: e2e\r\n\r\n").expect("send scrape");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read scrape");
    let (headers, body) = text.split_once("\r\n\r\n").expect("http response");
    assert!(
        headers.starts_with("HTTP/1.1 200"),
        "scrape failed: {headers}"
    );
    body.to_string()
}

/// The value of an unlabeled counter/gauge sample in Prometheus text.
fn metric_value(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} not in exposition"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{name} not numeric: {e}"))
}

/// The tentpole's acceptance path end to end: a burst of requests moves
/// the `stats` verb's span counters and the Prometheus endpoint's
/// counters monotonically and by exactly the burst size, and a `trace`d
/// request's recorded span durations sum to at most its wall time.
#[test]
fn observability_counters_and_trace_round_trip_end_to_end() {
    use projection_pushing::obs::{MetricsServer, Phase, Routes};

    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");

    // The same routes `ppr serve --metrics-addr` installs.
    let routes: Routes = std::sync::Arc::new({
        let handle = engine.handle();
        move |path: &str| match path {
            "/metrics" => Some(handle.render_prometheus()),
            "/slowlog" => Some(service::render_slowlog(
                &handle.metrics().slowlog.snapshot(),
            )),
            _ => None,
        }
    });
    let mut endpoint = MetricsServer::start("127.0.0.1:0", routes).expect("bind endpoint");
    let endpoint_addr = endpoint.local_addr();

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let before_stats: EngineStats = client.stats().expect("stats");
    let before_scrape = scrape(endpoint_addr, "/metrics");

    // A burst of distinct-seed requests (each plans and executes; no
    // request can be answered by another's cache entry).
    const BURST: usize = 24;
    for i in 0..BURST {
        let request = Request::new(PENTAGON, Method::EarlyProjection).seed(7_000 + i as u64);
        assert_eq!(client.run(&request).expect("run").rows.len(), 6);
    }

    let after_stats: EngineStats = client.stats().expect("stats");
    let after_scrape = scrape(endpoint_addr, "/metrics");

    // `stats` verb: every span histogram saw exactly the burst (this
    // connection is the only traffic between the two reads).
    assert_eq!(
        after_stats.spans.total.count,
        before_stats.spans.total.count + BURST as u64
    );
    for phase in projection_pushing::obs::PHASES {
        assert_eq!(
            after_stats.spans.phase[phase as usize].count,
            before_stats.spans.phase[phase as usize].count + BURST as u64,
            "phase {} not recorded per request",
            phase.name()
        );
    }
    // Executor work really happened and was observed.
    assert!(after_stats.spans.phase[Phase::Exec as usize].p95 > 0);

    // Prometheus endpoint: the same counters, monotone by the burst.
    for name in ["ppr_requests_total", "ppr_served_total"] {
        let (b, a) = (
            metric_value(&before_scrape, name),
            metric_value(&after_scrape, name),
        );
        assert_eq!(a, b + BURST as u64, "{name} not monotone by the burst");
    }
    assert_eq!(
        metric_value(&after_scrape, "ppr_request_errors_total"),
        metric_value(&before_scrape, "ppr_request_errors_total")
    );
    assert!(after_scrape.contains("ppr_request_phase_us_bucket{phase=\"queue_wait\","));

    // `trace`: span durations decompose the request's wall time.
    let mut request = Request::new(PENTAGON, Method::EarlyProjection);
    request.seed = Some(9_999);
    let report = client.trace(&request).expect("trace");
    assert_eq!(report.rows, 6);
    assert!(report.spans.total() > 0, "spans all zero");
    assert!(
        report.spans.total() <= report.total_us,
        "span sum {} exceeds wall time {}",
        report.spans.total(),
        report.total_us
    );

    // The burst is on the slow-query log page served by the endpoint.
    let slowlog = scrape(endpoint_addr, "/slowlog");
    assert!(
        slowlog.contains("early-projection"),
        "slowlog empty: {slowlog}"
    );

    endpoint.shutdown();
    server.shutdown();
    engine.shutdown();
}

/// Backpressure: a single connection that floods far past the
/// advertised window must never see `Overloaded` — the server simply
/// stops reading the socket (the event loop deregisters read interest)
/// until completions free slots. Admission control exists for *aggregate* load across
/// connections; one well-behaved pipelined connection is always
/// admissible.
#[test]
fn window_full_connection_never_sees_overloaded() {
    use projection_pushing::service::protocol;

    // A deliberately tiny engine: the advertised window collapses to a
    // few slots, and with the result cache off every request executes.
    let mut cfg = EngineConfig::default();
    cfg.workers = 1;
    cfg.queue_capacity = 2;
    cfg.result_cache_bytes = 0;
    let engine = Engine::start(color_catalog(), cfg);
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("ephemeral bind");

    let (mut reader, hello) = v2_connect(server.local_addr());

    // One burst, several windows deep.
    let flood = (4 * hello.window).max(64) as u64;
    let mut burst = String::new();
    for id in 1..=flood {
        let mut request = Request::new(PENTAGON, Method::EarlyProjection);
        request.seed = Some(40_000 + id);
        burst.push_str(&protocol::tag_request(
            id,
            &protocol::encode_request(&request),
        ));
        burst.push('\n');
    }
    reader.get_mut().write_all(burst.as_bytes()).expect("flood");

    let mut seen = std::collections::HashSet::new();
    for _ in 0..flood {
        let mut reply = String::new();
        assert!(reader.read_line(&mut reply).expect("read") > 0);
        let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
        assert!(seen.insert(id.expect("tagged id")), "duplicate reply");
        assert!(
            payload.starts_with("ok "),
            "window-full flood must never shed load: {payload}"
        );
    }
    assert_eq!(
        engine.handle().stats().rejected,
        0,
        "admission control must never fire for a single windowed connection"
    );
    server.shutdown();
    engine.shutdown();
}

/// The slow-loris guard end to end: a connection that sends nothing is
/// closed after the configured idle timeout and counted on
/// `ppr_idle_timeout_closes_total`, while a connection doing steady work
/// sails through several timeout windows untouched.
#[test]
fn idle_connections_are_closed_and_counted() {
    use std::time::{Duration, Instant};

    let engine = Engine::start(color_catalog(), EngineConfig::default());
    let mut server = service::Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .idle_timeout(Some(Duration::from_millis(200)))
        .start()
        .expect("ephemeral bind");

    let mut idle = TcpStream::connect(server.local_addr()).expect("connect");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut busy = Client::connect(server.local_addr()).expect("connect");

    let reaped = std::thread::spawn(move || {
        let started = Instant::now();
        let mut buf = [0u8; 16];
        let n = idle.read(&mut buf).expect("idle read");
        (n, started.elapsed())
    });
    // Steady traffic on the busy connection while the idle one waits for
    // the reaper: activity must keep resetting its timer.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !reaped.is_finished() {
        busy.ping()
            .expect("active connection must survive the reaper");
        assert!(Instant::now() < deadline, "idle connection never closed");
        std::thread::sleep(Duration::from_millis(25));
    }
    let (n, waited) = reaped.join().expect("reaper watcher");
    assert_eq!(n, 0, "idle connection must see EOF, not data");
    assert!(
        waited >= Duration::from_millis(150),
        "closed after {waited:?} — before the timeout"
    );
    busy.ping()
        .expect("busy connection still serves after the close");
    assert_eq!(server.net_metrics().idle_closes.get(), 1);
    server.shutdown();
    engine.shutdown();
}

/// The C10K acceptance bar against the real binary: `ppr serve` holds a
/// thousand concurrent pipelined connections (scaled down only if the fd
/// budget demands it), answers every request with zero wire errors, and
/// keeps its OS thread count at O(workers) — sampled from
/// `/proc/<pid>/status` *while* the connections are open — instead of
/// O(connections).
#[cfg(target_os = "linux")]
#[test]
fn binary_serves_a_thousand_concurrent_connections_on_few_threads() {
    use projection_pushing::service::{net, protocol};
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    // This process pays one fd per connection and the server pays one;
    // both run under the same rlimit, so budget half of it minus slack
    // for listeners, logs, epoll fds, and stdio.
    let budget = net::nofile_limit().unwrap_or(1_024);
    let connections = 1_000.min((budget.saturating_sub(128) / 2).max(8) as usize);

    // The engine queue must admit the whole aggregate window
    // (connections × window): this test measures the connection layer,
    // not admission control.
    let mut serve = Command::new(env!("CARGO_BIN_EXE_ppr"))
        .args(["serve", "--listen", "127.0.0.1:0", "--queue", "8192"])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn ppr serve");
    let stderr = serve.stderr.take().expect("stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("ppr-service listening on ") {
                let _ = tx.send(rest.trim().to_string());
            }
        }
    });
    let addr: std::net::SocketAddr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve never reported its address")
        .parse()
        .expect("parse bound address");

    // Sample the server's thread count while the load is in flight.
    let status_path = format!("/proc/{}/status", serve.id());
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_threads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(text) = std::fs::read_to_string(&status_path) {
                    if let Some(n) = text.lines().find_map(|l| l.strip_prefix("Threads:")) {
                        max_threads = max_threads.max(n.trim().parse().unwrap_or(0));
                    }
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            max_threads
        })
    };

    // Every connection upgrades to v2 first. Then each round writes two
    // tagged runs on every connection before reading any reply, so
    // 2 × connections requests are in flight at once.
    let mut conns: Vec<BufReader<TcpStream>> =
        (0..connections).map(|_| v2_connect(addr).0).collect();
    let run = protocol::encode_request(&Request::new(
        "q(x, y) :- edge(x, y), edge(y, x)",
        Method::EarlyProjection,
    ));
    let rounds = (4 * connections).max(2_000).div_ceil(2 * connections) as u64;
    let requests = rounds as usize * 2 * connections;
    let (mut answered, mut errors) = (0usize, 0usize);
    let started = std::time::Instant::now();
    for round in 0..rounds {
        let ids = [2 * round + 1, 2 * round + 2];
        let burst = ids
            .map(|id| format!("{}\n", protocol::tag_request(id, &run)))
            .concat();
        for conn in &mut conns {
            conn.get_mut().write_all(burst.as_bytes()).expect("write");
        }
        for conn in &mut conns {
            let mut got = Vec::new();
            for _ in 0..2 {
                let mut reply = String::new();
                conn.read_line(&mut reply).expect("reply");
                let (id, payload) = protocol::split_reply_tag(&reply).expect("tagged reply");
                got.push(id.expect("tagged id"));
                if payload.starts_with("ok ") {
                    answered += 1;
                } else {
                    errors += 1;
                }
            }
            got.sort_unstable();
            assert_eq!(got, ids, "replies must answer this round's ids");
        }
    }
    let reqs_per_sec = requests as f64 / started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let max_threads = monitor.join().expect("thread monitor");
    drop(conns);
    let _ = serve.kill();
    let _ = serve.wait();

    // The one ladder point the CI log keeps (the step runs --nocapture).
    println!("c10k: connections={connections} requests={requests} reqs_per_sec={reqs_per_sec:.0}");
    assert_eq!(errors, 0, "wire errors at {connections} connections");
    assert_eq!(answered, requests, "every request must be answered");
    assert!(
        max_threads > 0 && max_threads < 64,
        "server thread count {max_threads} scales with connections, not workers"
    );
}
