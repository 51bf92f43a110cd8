//! Kill-and-recover end-to-end tests over the real `ppr` binary.
//!
//! These tests exercise the durability tentpole exactly the way an
//! operator hits it: `ppr serve --data-dir DIR` on an ephemeral port,
//! real mutations over TCP, **SIGKILL** (no shutdown hooks, no flush —
//! `Child::kill` on unix), then a restart on the same directory. Every
//! acknowledged mutation must be there, query rows must be byte-identical
//! to the uninterrupted server's, and the recovered databases must keep
//! their pre-crash versions *and* content fingerprints — the latter is
//! what lets repeated queries hit the result cache again after restart.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use projection_pushing::core::methods::{Method, OrderHeuristic};
use projection_pushing::service::{Client, Request};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ppr-durability-e2e-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns `ppr serve --data-dir <dir>` on an ephemeral port and waits for
/// its readiness line. The stderr pipe keeps draining in a thread so a
/// later server log line can never EPIPE-kill the process mid-test.
fn spawn_serve(dir: &Path) -> (Child, String) {
    let mut serve = Command::new(env!("CARGO_BIN_EXE_ppr"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--data-dir",
            dir.to_str().expect("utf-8 tmp path"),
        ])
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn ppr serve");
    let stderr = serve.stderr.take().expect("stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("ppr-service listening on ") {
                let _ = tx.send(rest.trim().to_string());
            }
        }
    });
    let addr = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve never reported its address");
    (serve, addr)
}

fn request(rule: &str, db: Option<&str>) -> Request {
    let mut req = Request::new(rule, Method::BucketElimination(OrderHeuristic::Mcs));
    req.db = db.map(str::to_string);
    req
}

/// Build → mutate → SIGKILL → restart: everything acknowledged survives
/// byte-for-byte, versions and fingerprints included, and the repeated
/// query reports a result-cache hit again after the restart.
#[test]
fn sigkill_recovers_acknowledged_catalog_byte_identically() {
    let dir = tmpdir("roundtrip");
    let (mut serve, addr) = spawn_serve(&dir);
    let mut client = Client::connect(&addr).expect("connect");

    // Mutate over the wire: a second database built from create + load +
    // add, plus an add on the default database.
    client.create_db("g2").expect("create");
    client
        .load(
            "g2",
            "edge",
            vec![
                vec![0, 1].into_boxed_slice(),
                vec![1, 2].into_boxed_slice(),
                vec![2, 0].into_boxed_slice(),
            ],
        )
        .expect("load");
    client
        .add("g2", "edge", vec![0, 2].into_boxed_slice())
        .expect("add");

    let rule = "q(x, y) :- edge(x, y), edge(y, x)";
    let before_default = client.run(&request(rule, None)).expect("default query");
    let before_g2 = client.run(&request(rule, Some("g2"))).expect("g2 query");
    let before_dbs = client.dbs().expect("dbs");
    assert_eq!(before_dbs.len(), 2, "default + g2: {before_dbs:?}");

    // SIGKILL — no shutdown path runs.
    serve.kill().expect("kill");
    serve.wait().expect("wait");

    let (mut serve, addr) = spawn_serve(&dir);
    let mut client = Client::connect(&addr).expect("reconnect");

    // The catalog listing is identical: same names, same versions, same
    // content fingerprints (the cache identity survived the crash).
    let after_dbs = client.dbs().expect("dbs after restart");
    assert_eq!(after_dbs, before_dbs, "catalog identity must survive");

    // Query rows are byte-identical to the uninterrupted server's.
    let after_default = client.run(&request(rule, None)).expect("default query");
    let after_g2 = client.run(&request(rule, Some("g2"))).expect("g2 query");
    assert_eq!(after_default.rows, before_default.rows);
    assert_eq!(after_default.columns, before_default.columns);
    assert_eq!(after_g2.rows, before_g2.rows);
    assert!(!after_g2.rows.is_empty(), "the triangle query has answers");

    // The fresh process's result cache is empty, so that first repeat was
    // a miss — but because the *fingerprint* recovered, the second repeat
    // hits without re-execution.
    assert!(!after_g2.result_cache_hit);
    let repeat = client.run(&request(rule, Some("g2"))).expect("repeat");
    assert!(
        repeat.result_cache_hit,
        "recovered fingerprint must resume the cache identity"
    );
    assert_eq!(repeat.rows, after_g2.rows);

    // And the recovered catalog keeps mutating: versions continue above
    // the pre-crash high-water mark.
    let max_before = before_dbs.iter().map(|d| d.version).max().unwrap();
    let v = client
        .add("g2", "edge", vec![9, 9].into_boxed_slice())
        .expect("post-recovery add");
    assert!(v > max_before, "{v} must exceed {max_before}");

    serve.kill().expect("kill");
    serve.wait().expect("wait");
    let _ = std::fs::remove_dir_all(&dir);
}

/// SIGKILL racing a mutation workload: the recovered relation must hold
/// **every acknowledged** tuple and be exactly a prefix of the issued
/// sequence — identical to what an uninterrupted run that stopped at the
/// same point would hold. Nothing acknowledged is lost, nothing is
/// invented, order is preserved.
#[test]
fn sigkill_mid_workload_loses_no_acknowledged_mutation() {
    let dir = tmpdir("midkill");
    let (mut serve, addr) = spawn_serve(&dir);

    // The issued sequence is deterministic: tuple i is (i, i + 1), all
    // distinct, so the relation's tuple list is exactly the acked prefix.
    let issued: Vec<Box<[u32]>> = (0..10_000u32)
        .map(|i| vec![i, i + 1].into_boxed_slice())
        .collect();
    let worker_issued = issued.clone();
    let worker_addr = addr.clone();
    let (tx, rx) = std::sync::mpsc::channel::<usize>();
    let worker = std::thread::spawn(move || {
        let mut client = Client::connect(&worker_addr).expect("connect");
        client.create_db("w").expect("create");
        let mut acked = 0usize;
        for t in &worker_issued {
            if client.add("w", "edge", t.clone()).is_err() {
                break; // the server died mid-request
            }
            acked += 1;
            let _ = tx.send(acked);
        }
        acked
    });

    // Let a few mutations through, then SIGKILL while the workload runs.
    let mut seen = 0;
    while seen < 25 {
        seen = rx.recv_timeout(Duration::from_secs(30)).expect("progress");
    }
    serve.kill().expect("kill");
    serve.wait().expect("wait");
    let acked = worker.join().expect("worker");
    assert!(acked >= 25);

    let (mut serve, addr) = spawn_serve(&dir);
    let mut client = Client::connect(&addr).expect("reconnect");
    let recovered = client
        .run(&request("q(x, y) :- edge(x, y)", Some("w")))
        .expect("scan recovered relation");
    // ⊇ acked: a client that saw `ok` never loses its mutation…
    assert!(
        recovered.rows.len() >= acked,
        "recovered {} < acknowledged {acked}",
        recovered.rows.len()
    );
    // …and ≤ issued, forming exactly the issued prefix of that length:
    // the fsync may have landed for a record whose ack was still in
    // flight, but nothing more and nothing invented — the same tuples an
    // uninterrupted run of that length would hold. (Sorted before
    // comparing: the issued sequence is ascending by construction, and
    // all tuples are distinct, so sorted-set equality with the first `n`
    // holds iff the recovered rows are precisely that prefix.)
    assert!(recovered.rows.len() <= issued.len());
    let mut rows = recovered.rows.clone();
    rows.sort_unstable();
    assert_eq!(
        rows.as_slice(),
        &issued[..rows.len()],
        "recovered relation must be an exact prefix of the issued sequence"
    );

    serve.kill().expect("kill");
    serve.wait().expect("wait");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh `--data-dir` round-trips an (almost) empty catalog: the server
/// seeds only the default database, a restart recovers exactly it, and
/// the directory contains nothing but that database's files.
#[test]
fn fresh_data_dir_round_trips_cleanly() {
    let dir = tmpdir("fresh");
    let (mut serve, addr) = spawn_serve(&dir);
    let mut client = Client::connect(&addr).expect("connect");
    let before = client.dbs().expect("dbs");
    assert_eq!(before.len(), 1, "only the seeded default: {before:?}");
    assert_eq!(before[0].name, "default");
    serve.kill().expect("kill");
    serve.wait().expect("wait");

    // The data dir holds exactly one database directory, no stray files.
    let entries: Vec<String> = std::fs::read_dir(&dir)
        .expect("data dir exists")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(entries, vec!["default".to_string()], "stray: {entries:?}");

    let (mut serve, addr) = spawn_serve(&dir);
    let mut client = Client::connect(&addr).expect("reconnect");
    let after = client.dbs().expect("dbs after restart");
    assert_eq!(after, before, "clean re-open must change nothing");
    serve.kill().expect("kill");
    serve.wait().expect("wait");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A relation name longer than the log can hold (its length is a `u16`)
/// still fits in one request line. The durable server refuses that
/// mutation with an `err` line instead of panicking on the event-loop
/// thread, and the same connection keeps mutating and querying.
#[test]
fn unloggable_relation_name_is_refused_and_the_server_keeps_serving() {
    let dir = tmpdir("long-name");
    let (mut serve, addr) = spawn_serve(&dir);
    let mut client = Client::connect(&addr).expect("connect");
    let long = "r".repeat(70_000);
    let refused = client.add("default", &long, vec![1, 2].into_boxed_slice());
    assert!(refused.is_err(), "{refused:?}");

    let v = client
        .add("default", "edge", vec![7, 8].into_boxed_slice())
        .expect("a normal add after the refusal");
    let reply = client
        .run(&request("q(x, y) :- edge(x, y)", None))
        .expect("a query after the refusal");
    assert!(reply.rows.iter().any(|r| r.as_ref() == [7, 8]));
    assert_eq!(client.dbs().expect("dbs")[0].version, v);

    serve.kill().expect("kill");
    serve.wait().expect("wait");
    let _ = std::fs::remove_dir_all(&dir);
}
