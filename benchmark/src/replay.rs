//! The layer replay: the first N requests of a workload run in-process,
//! single-threaded, by calling each layer's public function in request
//! order and timing every call.
//!
//! It is the per-layer half of the ledger. The harness cannot put spans
//! inside the server, so it follows the same steps `engine::process`
//! takes — frame, decode, snapshot, parse, fingerprint, result-cache
//! probe, (on a miss) plan with the decomposition hint, execute, publish,
//! encode — around the crates' public entry points. Each request is then
//! also sent through a real in-process `Engine` with its own catalog
//! (`EngineHandle::execute`, depth 1); the difference between that and
//! the sum of the engine-side calls is the engine's own overhead (queue
//! hand-off, worker wake-up, metrics, plan cache). The two are interleaved
//! request by request because this host's speed drifts by 10–20% over
//! seconds, which two back-to-back passes would report as overhead.
//!
//! Both sides start cold, like the depth-1 wire pass they are compared
//! with, and the layer calls run on one thread, so every counter repeats
//! exactly.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppr_core::methods::Method;
use ppr_core::passes::plan_query;
use ppr_query::{canonical_var_order, parse_query, QueryIdentity};
use ppr_relalg::{exec, Budget, ExecStats};
use ppr_service::decomp::{decode_order, encode_order};
use ppr_service::protocol::{
    decode_command, encode_ack, encode_command, encode_result, split_request_tag, tag_reply,
    tag_request, Ack, Command, LineFramer,
};
use ppr_service::result_cache::{CachedResult, ResultKey};
use ppr_service::{
    fingerprint_db, Catalog, DecompCache, DecompKey, Engine, EngineConfig, Response, ResultCache,
    DEFAULT_DB,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::instances::Pool;
use crate::server::prom_value;
use crate::workloads::{Op, Stream, Workload};

/// Requests whose spans are kept for the trace file.
const SPAN_REQUESTS: usize = 200;
/// Adds in the catalog and durability probes.
const PROBE_ADDS: u32 = 32;

/// One timed layer call; `name()` is the metric it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Frame,
    Decode,
    Snapshot,
    Parse,
    Fingerprint,
    ResultGet,
    Plan,
    Exec,
    ResultInsert,
    Encode,
    Add,
    FingerprintDb,
}

/// Where a call sits, which decides what its time is averaged over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Made by `engine::process` itself — what `engine.execute_us` must
    /// cover; averaged per run request.
    Engine,
    /// Made by the connection layer around the engine; per request.
    Protocol,
    /// The catalog's write path; per add.
    Write,
}

impl Call {
    const ALL: [Call; 12] = [
        Call::Frame,
        Call::Decode,
        Call::Snapshot,
        Call::Parse,
        Call::Fingerprint,
        Call::ResultGet,
        Call::Plan,
        Call::Exec,
        Call::ResultInsert,
        Call::Encode,
        Call::Add,
        Call::FingerprintDb,
    ];

    fn name(self) -> &'static str {
        match self {
            Call::Frame => "protocol.frame_us",
            Call::Decode => "protocol.decode_command_us",
            Call::Snapshot => "catalog.snapshot_us",
            Call::Parse => "query.parse_us",
            Call::Fingerprint => "query.fingerprint_us",
            Call::ResultGet => "cache.result_get_us",
            Call::Plan => "core.plan_us",
            Call::Exec => "relalg.exec_us",
            Call::ResultInsert => "cache.result_insert_us",
            Call::Encode => "protocol.encode_result_us",
            Call::Add => "catalog.add_us",
            Call::FingerprintDb => "catalog.fingerprint_db_us",
        }
    }

    fn side(self) -> Side {
        match self {
            Call::Frame | Call::Decode | Call::Encode => Side::Protocol,
            Call::Add | Call::FingerprintDb => Side::Write,
            _ => Side::Engine,
        }
    }
}

/// A span of the replay: one layer call of one request.
#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Clock {
    t0: Instant,
    total_ns: [u64; Call::ALL.len()],
    spans: Vec<Span>,
}

impl Clock {
    fn time<T>(&mut self, request: u64, call: Call, f: impl FnOnce() -> T) -> T {
        let start = self.t0.elapsed();
        let value = f();
        let end = self.t0.elapsed();
        self.total_ns[call as usize] += (end - start).as_nanos() as u64;
        if (request as usize) <= SPAN_REQUESTS {
            self.spans.push(Span {
                request,
                name: call.name(),
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
            });
        }
        value
    }
}

/// What the replay measured. Times are means in µs per `run` request
/// unless the metric says otherwise.
pub struct Replay {
    pub values: BTreeMap<String, f64>,
    /// Mean µs per run request of every optimizer pass that ran.
    pub passes: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
    pub runs: u64,
    pub adds: u64,
    /// Σ of the layer calls made inside the engine, µs per run request.
    pub engine_side_us: f64,
    /// Σ of the server-side protocol calls (frame, decode, encode).
    pub protocol_side_us: f64,
}

/// A memory-only catalog in the workload's starting state.
fn seeded_catalog(stream: &Stream) -> Catalog {
    let mut db = ppr_query::Database::new();
    db.add(ppr_workload::edge_relation(3));
    let catalog = Catalog::with_default(db);
    apply_setup(&catalog, stream);
    catalog
}

fn apply_setup(catalog: &Catalog, stream: &Stream) {
    for command in stream.setup_commands() {
        let Command::Load { db, rel, tuples } = command else {
            unreachable!("set-up is loads only")
        };
        catalog.load(&db, &rel, tuples).expect("set-up load");
    }
}

/// Runs the layer replay and the in-process engine pass over the first
/// `ledger_requests` operations of the workload.
pub fn replay(
    workload: Workload,
    seed: u64,
    pool: &Arc<Pool>,
    smoke: bool,
    scratch: &Path,
) -> io::Result<Replay> {
    let mut stream = Stream::new(workload, seed, pool.clone(), smoke);
    let ops: Vec<Op> = (0..workload.ledger_requests(smoke))
        .map(|_| stream.next_op())
        .collect();
    let defaults = EngineConfig::default();

    let engine = Engine::start(seeded_catalog(&stream), defaults.clone());
    let handle = engine.handle();
    let mut execute_ns = 0u64;

    let catalog = seeded_catalog(&stream);
    let results = ResultCache::new(defaults.result_cache_bytes);
    let decomps = DecompCache::new(defaults.cache_capacity);
    let mut framer = LineFramer::new();
    let mut clock = Clock {
        t0: Instant::now(),
        total_ns: [0; Call::ALL.len()],
        spans: Vec::new(),
    };
    let mut passes: BTreeMap<String, u64> = BTreeMap::new();
    let (mut runs, mut adds) = (0u64, 0u64);
    let (mut request_bytes, mut reply_bytes, mut atoms, mut passes_run) = (0u64, 0u64, 0u64, 0u64);
    // Sums the flow counters, keeps the largest peak and arity.
    let mut executed = ExecStats::default();

    for (i, op) in ops.iter().enumerate() {
        let id = i as u64 + 1;
        let wire = tag_request(id, &encode_command(&op.command));
        request_bytes += wire.len() as u64 + 1;
        let line = clock.time(id, Call::Frame, || {
            framer.push(wire.as_bytes());
            framer.push(b"\n");
            framer.next_line().expect("short line").expect("whole line")
        });
        let command = clock.time(id, Call::Decode, || {
            let (_, stripped) = split_request_tag(&line).expect("tagged line");
            decode_command(&stripped).expect("own encoding decodes")
        });
        let reply = match command {
            Command::Run(request) => {
                runs += 1;
                let snapshot = clock
                    .time(id, Call::Snapshot, || catalog.snapshot(DEFAULT_DB))
                    .expect("default database");
                let query = clock
                    .time(id, Call::Parse, || parse_query(&request.query))
                    .expect("generated text parses");
                atoms += query.num_atoms() as u64;
                let identity = clock.time(id, Call::Fingerprint, || QueryIdentity::of(&query));
                let seed = request.seed.unwrap_or(defaults.default_seed);
                let key = ResultKey {
                    data: snapshot.fingerprint,
                    fingerprint: identity.fingerprint,
                    method: request.method,
                    seed,
                };
                let cached = clock.time(id, Call::ResultGet, || results.get(&key, &identity.shape));
                let mut response = Response::empty();
                if let Some(hit) = cached {
                    response.columns = hit.columns.clone();
                    response.rows = hit.rows.clone();
                    response.stats = hit.stats.clone();
                    response.cache_hit = true;
                    response.result_cache_hit = true;
                } else {
                    // Planning as the engine does it: bucket elimination
                    // first asks the structure-keyed cache for an order.
                    let report = clock.time(id, Call::Plan, || {
                        let decomp = match request.method {
                            Method::BucketElimination(heuristic) => Some((
                                DecompKey {
                                    fingerprint: identity.fingerprint,
                                    heuristic,
                                    seed,
                                },
                                canonical_var_order(&query),
                            )),
                            _ => None,
                        };
                        let hint = decomp.as_ref().and_then(|(key, canonical)| {
                            let ranks = decomps.get(key, &identity.shape)?;
                            decode_order(&ranks, canonical)
                        });
                        let mut rng = StdRng::seed_from_u64(seed);
                        let report =
                            plan_query(request.method, &query, &snapshot.db, &mut rng, hint);
                        if let (false, Some((key, canonical)), Some(order)) =
                            (report.used_hint, decomp, &report.chosen_order)
                        {
                            if let Some(ranks) = encode_order(order, &canonical) {
                                decomps.insert(key, identity.shape.clone(), ranks);
                            }
                        }
                        report
                    });
                    passes_run += report.passes_run as u64;
                    for pass in &report.pass_spans {
                        *passes.entry(pass.name.clone()).or_default() += pass.micros;
                    }
                    // The request's own tuple budget under the server's cap.
                    let mut budget = Budget::unlimited();
                    if let Some(t) = request.max_tuples {
                        budget.max_tuples_flowed = t;
                        budget.max_materialized = t;
                    }
                    let budget = budget.clamp(&defaults.max_budget);
                    let (rel, stats) = clock
                        .time(id, Call::Exec, || exec::execute(&report.plan, &budget))
                        .expect("admitted instances execute");
                    executed.absorb(&stats);
                    response.columns = query.free.iter().map(|&f| query.vars.name(f)).collect();
                    response.rows = rel.tuples().to_vec();
                    response.stats = stats;
                    // The reply spells these out in decimal; zeroed, its
                    // length is a function of the request alone.
                    response.stats.elapsed = Duration::ZERO;
                    response.stats.cpu_time = Duration::ZERO;
                    let entry = Arc::new(CachedResult {
                        columns: response.columns.clone(),
                        rows: response.rows.clone(),
                        stats: response.stats.clone(),
                    });
                    clock.time(id, Call::ResultInsert, || {
                        results.insert(key, identity.shape.clone(), entry)
                    });
                }
                clock.time(id, Call::Encode, || {
                    tag_reply(id, &encode_result(&Ok(response)))
                })
            }
            Command::Add { db, rel, tuple } => {
                adds += 1;
                let version = clock
                    .time(id, Call::Add, || catalog.add(&db, &rel, tuple))
                    .expect("add applies");
                let snapshot = catalog.snapshot(&db).expect("database exists");
                clock.time(id, Call::FingerprintDb, || fingerprint_db(&snapshot.db));
                let ack = Ok(Ack {
                    db,
                    version: Some(version),
                });
                clock.time(id, Call::Encode, || tag_reply(id, &encode_ack(&ack)))
            }
            other => unreachable!("workloads send run and add only, got {other:?}"),
        };
        reply_bytes += reply.len() as u64 + 1;

        // The same request through the real engine.
        match &op.command {
            Command::Run(request) => {
                let request = request.clone();
                let started = Instant::now();
                let result = handle.execute(request);
                execute_ns += started.elapsed().as_nanos() as u64;
                result.map_err(io::Error::other)?;
            }
            Command::Add { db, rel, tuple } => {
                handle
                    .catalog()
                    .add(db, rel, tuple.clone())
                    .map_err(io::Error::other)?;
            }
            other => unreachable!("workloads send run and add only, got {other:?}"),
        }
    }
    engine.shutdown();
    if adds == 0 {
        // No writes in this workload: measure the catalog's write path at
        // the workload's relation sizes with a short probe instead.
        for x in 0..PROBE_ADDS {
            let id = ops.len() as u64 + 1 + u64::from(x);
            clock
                .time(id, Call::Add, || {
                    catalog.add(DEFAULT_DB, "probe", vec![x, 1].into_boxed_slice())
                })
                .expect("probe add applies");
            let snapshot = catalog.snapshot(DEFAULT_DB).expect("default database");
            clock.time(id, Call::FingerprintDb, || fingerprint_db(&snapshot.db));
        }
    }

    // ---- reduce ---------------------------------------------------------
    let per_run = |ns: u64| ns as f64 / 1e3 / runs.max(1) as f64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (mut engine_side_us, mut protocol_side_us) = (0.0, 0.0);
    let write_calls = if adds == 0 {
        u64::from(PROBE_ADDS)
    } else {
        adds
    };
    for call in Call::ALL {
        let calls = match call.side() {
            Side::Engine => runs,
            Side::Protocol => ops.len() as u64,
            Side::Write => write_calls,
        };
        let us = clock.total_ns[call as usize] as f64 / 1e3 / calls.max(1) as f64;
        match call.side() {
            Side::Engine => engine_side_us += us,
            Side::Protocol => protocol_side_us += us,
            Side::Write => {}
        }
        values.insert(call.name().to_string(), us);
    }
    let execute_us = per_run(execute_ns);
    values.insert("engine.execute_us".into(), execute_us);
    values.insert("engine.overhead_us".into(), execute_us - engine_side_us);
    values.insert(
        "protocol.request_bytes".into(),
        request_bytes as f64 / ops.len() as f64,
    );
    values.insert(
        "protocol.reply_bytes".into(),
        reply_bytes as f64 / ops.len() as f64,
    );
    values.insert("query.atoms".into(), atoms as f64 / runs.max(1) as f64);
    values.insert("core.passes_run".into(), passes_run as f64);
    values.insert(
        "relalg.ns_per_tuple".into(),
        clock.total_ns[Call::Exec as usize] as f64 / executed.tuples_flowed.max(1) as f64,
    );
    for (name, count) in [
        ("relalg.tuples_flowed", executed.tuples_flowed),
        ("relalg.rows_scanned", executed.rows_scanned),
        ("relalg.index_probes", executed.index_probes),
        ("relalg.index_builds", executed.index_builds),
        ("relalg.peak_materialized", executed.peak_materialized),
        ("relalg.max_arity", executed.max_intermediate_arity as u64),
    ] {
        values.insert(name.into(), count as f64);
    }
    if !workload.durable() {
        values.extend(durability_probe(&stream, scratch)?);
    }
    Ok(Replay {
        values,
        passes: passes
            .into_iter()
            .map(|(name, micros)| (name, micros as f64 / runs.max(1) as f64))
            .collect(),
        spans: clock.spans,
        runs,
        adds,
        engine_side_us,
        protocol_side_us,
    })
}

/// The durability layer's cost where the workload's own server has no
/// data directory: a few adds on a durable catalog (fsync on commit)
/// holding the workload's relations, read from the same Prometheus
/// counters the durable server exposes.
fn durability_probe(stream: &Stream, scratch: &Path) -> io::Result<BTreeMap<String, f64>> {
    let dir = scratch.join("durability-probe");
    let (catalog, _) = Catalog::open(&dir).map_err(io::Error::other)?;
    let mut db = ppr_query::Database::new();
    db.add(ppr_workload::edge_relation(3));
    catalog.insert(DEFAULT_DB, db).map_err(io::Error::other)?;
    apply_setup(&catalog, stream);
    let page = |c: &Catalog| {
        c.persister()
            .map(|p| p.render_prometheus())
            .unwrap_or_default()
    };
    let before = page(&catalog);
    for x in 0..PROBE_ADDS {
        catalog
            .add(DEFAULT_DB, "probe", vec![x, 1].into_boxed_slice())
            .map_err(io::Error::other)?;
    }
    let after = page(&catalog);
    drop(catalog);
    let (reopened, report) = Catalog::open(&dir).map_err(io::Error::other)?;
    drop(reopened);
    let mut values = durability_delta(&before, &after, u64::from(PROBE_ADDS));
    values.insert(
        "durability.recovery_replayed".into(),
        report.replayed_records as f64,
    );
    Ok(values)
}

/// The durability metrics between two `/metrics` pages spanning `adds`
/// acknowledged adds.
pub fn durability_delta(before: &str, after: &str, adds: u64) -> BTreeMap<String, f64> {
    let delta = |series: &str| prom_value(after, series) - prom_value(before, series);
    let fsyncs = delta("ppr_wal_fsync_us_count");
    BTreeMap::from([
        (
            "durability.fsync_us".to_string(),
            if fsyncs > 0.0 {
                delta("ppr_wal_fsync_us_sum") / fsyncs
            } else {
                0.0
            },
        ),
        (
            "durability.wal_bytes_per_add".to_string(),
            if adds > 0 {
                delta("ppr_wal_bytes_total") / adds as f64
            } else {
                0.0
            },
        ),
        (
            "durability.snapshot_writes".to_string(),
            delta("ppr_snapshot_writes_total"),
        ),
    ])
}

/// The replay's exact counters — what `--check-determinism` compares.
pub fn exact_counters(replay: &Replay) -> Vec<(&'static str, f64)> {
    crate::metrics::METRICS
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, replay.values[m.name]))
        .collect()
}
