//! One run of one workload: set-up, the measured window, and — with
//! tracing — the ledger, traced pass and layer replay.
//!
//! A run is one or more server lifetimes of `ppr serve` (several set-ups
//! are timed, the last server is the one measured). End-to-end numbers come
//! from an untraced window; per-layer numbers from a separate traced run,
//! so tracing can cost nothing where latency is reported.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppr_service::protocol::{decode_ack, decode_dbs, decode_result, decode_stats, Command};
use ppr_service::{EngineStats, Request, DEFAULT_DB};

use crate::instances::{build_pool, Pool, BUCKET};
use crate::json::Json;
use crate::replay::{durability_delta, replay, Replay};
use crate::server::{prom_value, Scratch, Server};
use crate::stats::{mean, median, percentile};
use crate::wire::{drive, Conn, Limit, Outcome, TraceRecord};
use crate::workloads::{Stream, Workload, VISITS_DUMP};

/// The pool is the benchmark's data set and does not follow `--seed`, which
/// drives the traffic over it (request order, spellings, the add schedule).
/// Pools drawn per seed were measured first: the work per request differed
/// by 10–25% between seeds (server_cpu_us_per_req 1 506–1 829 µs on
/// `paper_cold`, 1 002–1 510 µs on `mutate_mix`), more than any bound, so
/// two runs of the same code at different seeds could not be told from a
/// regression.
const POOL_SEED: u64 = 1;
/// Set-ups timed per end-to-end run; `setup_s` is their median. At least
/// `MIN`, and more (up to `MAX`) while they have taken under `SETUP_BUDGET`
/// in all: a 40 ms set-up (`protocol_floor`) needs many repetitions for a
/// steady median, a 2 s one cannot afford them.
const SETUP_REPS_MIN: usize = 3;
const SETUP_REPS_MAX: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Equal parts the measured window is cut into; throughput, median latency
/// and CPU per request are each the median of the per-slice figures, so a
/// vCPU descheduled for a quarter second (seen on this host) cannot move
/// them. The tail percentiles need the whole window's samples.
pub const SLICES: usize = 10;
/// Untimed requests before the window (caches fill, indexes build).
const WARM_UP: u64 = 2_000;
const WARM_UP_SMOKE: u64 = 200;
/// Depth-1 `ping`s behind `net.ping_rtt_us`.
const PINGS: usize = 500;
/// Requests of the traced pass written to the trace file.
const TRACE_FILE_REQUESTS: usize = 2_000;

#[derive(Debug, Clone)]
pub struct Config {
    /// The `ppr` binary to spawn.
    pub ppr: PathBuf,
    /// Where result files, trace files and scratch directories go.
    pub out_dir: PathBuf,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Tiny pool and counts: checks the plumbing, measures nothing.
    pub smoke: bool,
}

impl Config {
    fn warm_up(&self) -> u64 {
        if self.smoke {
            WARM_UP_SMOKE
        } else {
            WARM_UP
        }
    }
}

/// What one run produced.
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    /// Metric name → value, for every metric this run reports.
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sample counts, slice figures, ledger — context for the report.
    pub detail: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Counts every checked reply of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn absorb(&mut self, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        self.failed += outcome.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures
            .extend(outcome.failures.iter().take(room).cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(what());
            }
        }
    }
}

/// Builds the instance pool, timing it (`harness.generate_s`).
pub fn pool_for(cfg: &Config) -> (Arc<Pool>, f64) {
    let started = Instant::now();
    let pool = Arc::new(build_pool(POOL_SEED, if cfg.smoke { 25 } else { 100 }));
    (pool, started.elapsed().as_secs_f64())
}

/// Spawns a server (on a fresh data directory when the workload is
/// durable), connects, and loads the workload's relations.
fn start(
    cfg: &Config,
    workload: Workload,
    scratch: &Scratch,
    rep: usize,
    stream: &Stream,
) -> io::Result<(Server, Conn)> {
    let data_dir = workload
        .durable()
        .then(|| scratch.path.join(format!("data-{rep}")));
    let log = scratch.path.join(format!("server-{rep}.log"));
    let server = Server::spawn(&cfg.ppr, data_dir.as_deref(), &log)?;
    let mut conn = Conn::connect(server.addr, workload.depth())?;
    for command in stream.setup_commands() {
        decode_ack(&conn.call(&command)?).map_err(io::Error::other)?;
    }
    Ok((server, conn))
}

fn warm_up(
    cfg: &Config,
    workload: Workload,
    conn: &mut Conn,
    stream: &mut Stream,
    tally: &mut Tally,
) -> io::Result<()> {
    let outcome = drive(
        conn,
        stream,
        workload.depth(),
        Limit::Ops(cfg.warm_up()),
        1,
        false,
        &|| 0.0,
    )?;
    tally.absorb(&outcome);
    Ok(())
}

fn sorted_latencies(outcome: &Outcome, write: bool, from_us: f64, to_us: f64) -> Vec<f64> {
    let mut v: Vec<f64> = outcome
        .completions
        .iter()
        .filter(|c| c.write == write && c.done_us >= from_us && c.done_us < to_us)
        .map(|c| c.latency_us)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end run (`--trace 0`).
pub fn run_end_to_end(cfg: &Config, workload: Workload) -> io::Result<RunResult> {
    let (pool, _) = pool_for(cfg);
    let scratch = Scratch::new(&cfg.out_dir, workload.name())?;
    let template = Stream::new(workload, cfg.seed, pool, cfg.smoke);
    let mut tally;

    // Set up several times and report the median; measure on the last.
    let mut setups = Vec::new();
    let setting_up = Instant::now();
    let (server, mut conn, mut stream) = loop {
        let rep = setups.len();
        let started = Instant::now();
        let mut stream = template.clone();
        let (server, mut conn) = start(cfg, workload, &scratch, rep, &stream)?;
        // Only the kept server's warm-up counts towards the run's tally.
        tally = Tally::default();
        warm_up(cfg, workload, &mut conn, &mut stream, &mut tally)?;
        setups.push(started.elapsed().as_secs_f64());
        // A smoke run checks the plumbing and stops at the minimum.
        let enough = setups.len() >= SETUP_REPS_MIN
            && (cfg.smoke
                || setting_up.elapsed() >= SETUP_BUDGET
                || setups.len() >= SETUP_REPS_MAX);
        if enough {
            break (server, conn, stream);
        }
        // The previous server is killed (and reaped) here, before the next.
    };

    let window = drive(
        &mut conn,
        &mut stream,
        workload.depth(),
        Limit::Time(Duration::from_secs_f64(cfg.seconds)),
        SLICES,
        false,
        &|| server.cpu_seconds(),
    )?;
    tally.absorb(&window);
    let rss = server.rss_peak_mib();

    let mut slices = Vec::new();
    let slice_us = cfg.seconds * 1e6 / SLICES as f64;
    for pair in window.ticks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let done = (b.completed - a.completed) as f64;
        let reads = sorted_latencies(&window, false, a.at_us, b.at_us);
        // The stretch after the last boundary is the drain, not a slice.
        if b.at_us - a.at_us < slice_us / 2.0 || reads.is_empty() {
            continue;
        }
        slices.push([
            done / ((b.at_us - a.at_us) / 1e6),
            percentile(&reads, 50.0),
            (b.server_cpu_s - a.server_cpu_s) * 1e6 / done,
            reads.len() as f64,
        ]);
    }
    let column = |i: usize| -> Vec<f64> { slices.iter().map(|s| s[i]).collect() };
    let all_reads = sorted_latencies(&window, false, 0.0, f64::INFINITY);
    // Replies that came back wrong are not throughput.
    let correct_share = 1.0 - window.failed as f64 / window.attempted.max(1) as f64;
    let mut values = BTreeMap::from([
        (
            "throughput_rps".to_string(),
            median(&column(0)) * correct_share,
        ),
        ("read_p50_us".to_string(), median(&column(1))),
        ("read_p95_us".to_string(), percentile(&all_reads, 95.0)),
        ("server_cpu_us_per_req".to_string(), median(&column(2))),
        ("server_rss_peak_mb".to_string(), rss),
        ("setup_s".to_string(), median(&setups)),
    ]);
    let list = |v: Vec<f64>| Json::Arr(v.into_iter().map(Json::num).collect());
    let mut detail: Vec<(String, Json)> = [
        ("window_s", Json::num(window.wall_s)),
        ("requests", Json::num(window.attempted as f64)),
        ("read_samples", Json::num(all_reads.len() as f64)),
        ("read_p90_us", Json::num(percentile(&all_reads, 90.0))),
        ("read_p99_us", Json::num(percentile(&all_reads, 99.0))),
        ("read_samples_per_slice", list(column(3))),
        ("slice_throughput_rps", list(column(0))),
        ("slice_read_p50_us", list(column(1))),
        ("slice_server_cpu_us_per_req", list(column(2))),
        ("setup_s_each", list(setups.clone())),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    if workload.durable() {
        let writes = sorted_latencies(&window, true, 0.0, f64::INFINITY);
        values.insert("write_p50_us".into(), percentile(&writes, 50.0));
        values.insert("write_p95_us".into(), percentile(&writes, 95.0));
        detail.push(("write_samples".into(), Json::num(writes.len() as f64)));
        detail.push((
            "fsync".into(),
            Json::str("on (ppr serve --data-dir default: fsync on every commit)"),
        ));
        let data_dir = scratch.path.join(format!("data-{}", setups.len() - 1));
        let recovery =
            crash_and_recover(cfg, &scratch, &data_dir, server, conn, &stream, &mut tally)?;
        values.insert("recovery_s".into(), recovery.seconds);
        detail.push(("acked_adds".into(), Json::num(stream.acked_adds() as f64)));
        detail.push((
            "recovery_replayed_records".into(),
            Json::num(recovery.replayed),
        ));
        detail.push((
            "lost_acknowledged_writes".into(),
            Json::num(recovery.lost as f64),
        ));
    }
    Ok(RunResult {
        workload,
        traced: false,
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        detail: Json::Obj(detail),
    })
}

struct Recovery {
    seconds: f64,
    replayed: f64,
    lost: usize,
}

fn default_db_version(conn: &mut Conn) -> io::Result<u64> {
    let dbs = decode_dbs(&conn.call(&Command::Dbs)?).map_err(io::Error::other)?;
    dbs.iter()
        .find(|d| d.name == DEFAULT_DB)
        .map(|d| d.version.0)
        .ok_or_else(|| io::Error::other("no default database"))
}

/// How many expected `visits` tuples the server does not hold, plus how
/// many it holds that it should not.
fn visits_mismatch(conn: &mut Conn, stream: &Stream) -> io::Result<usize> {
    let dump = Command::Run(Request::new(VISITS_DUMP, BUCKET));
    let response = decode_result(&conn.call(&dump)?).map_err(io::Error::other)?;
    let held: std::collections::HashSet<(u32, u32)> =
        response.rows.iter().map(|r| (r[0], r[1])).collect();
    let expected = stream.expected_visits();
    let missing = expected.iter().filter(|t| !held.contains(t)).count();
    Ok(missing + held.len().saturating_sub(expected.len() - missing))
}

/// `SIGKILL`s the server, restarts it on the same data directory and times
/// the way back to an answering server; then checks that the catalog
/// version survived and that every acknowledged add is visible.
fn crash_and_recover(
    cfg: &Config,
    scratch: &Scratch,
    data_dir: &std::path::Path,
    server: Server,
    mut conn: Conn,
    stream: &Stream,
    tally: &mut Tally,
) -> io::Result<Recovery> {
    let live_mismatch = visits_mismatch(&mut conn, stream)?;
    tally.check(live_mismatch == 0, || {
        format!("live server: {live_mismatch} visits tuples differ")
    });
    let version = default_db_version(&mut conn)?;
    drop(conn);

    let started = Instant::now();
    server.kill();
    let server = Server::spawn(
        &cfg.ppr,
        Some(data_dir),
        &scratch.path.join("server-recovered.log"),
    )?;
    let mut conn = Conn::connect(server.addr, 1)?;
    let recovered_version = default_db_version(&mut conn)?;
    let seconds = started.elapsed().as_secs_f64();

    tally.check(recovered_version == version, || {
        format!("recovered version {recovered_version}, acknowledged {version}")
    });
    let lost = visits_mismatch(&mut conn, stream)?;
    tally.check(lost == 0, || {
        format!("after recovery: {lost} acknowledged visits tuples differ")
    });
    let replayed = prom_value(&server.metrics_text()?, "ppr_recovery_replayed_records");
    Ok(Recovery {
        seconds,
        replayed,
        lost,
    })
}

fn server_stats(conn: &mut Conn) -> io::Result<EngineStats> {
    decode_stats(&conn.call(&Command::Stats)?).map_err(io::Error::other)
}

fn mean_read_latency(outcome: &Outcome) -> f64 {
    let reads: Vec<f64> = outcome
        .completions
        .iter()
        .filter(|c| !c.write)
        .map(|c| c.latency_us)
        .collect();
    mean(&reads)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// The traced run (`--trace 1`): every per-layer metric.
pub fn run_traced(cfg: &Config, workload: Workload) -> io::Result<RunResult> {
    let (pool, generate_s) = pool_for(cfg);
    let scratch = Scratch::new(&cfg.out_dir, &format!("{}-traced", workload.name()))?;
    let mut stream = Stream::new(workload, cfg.seed, pool.clone(), cfg.smoke);
    let mut tally = Tally::default();
    let depth = workload.depth();
    let (server, mut conn) = start(cfg, workload, &scratch, 0, &stream)?;
    let cpu = || server.cpu_seconds();

    // Ledger pass: the first N requests at depth 1 on the cold server —
    // the same requests, in the same cache states, the replay will run.
    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let started = Instant::now();
        conn.call(&Command::Ping)?;
        ping_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    ping_us.sort_by(f64::total_cmp);
    let ledger_ops = workload.ledger_requests(cfg.smoke);
    let ledger = drive(
        &mut conn,
        &mut stream,
        1,
        Limit::Ops(ledger_ops),
        1,
        false,
        &cpu,
    )?;
    tally.absorb(&ledger);
    let wire_us = mean_read_latency(&ledger);

    warm_up(cfg, workload, &mut conn, &mut stream, &mut tally)?;

    // Untraced pass, bracketed by the server's always-on counters.
    let pass = Duration::from_secs_f64(cfg.seconds * 0.4);
    let (page0, stats0) = (server.metrics_text()?, server_stats(&mut conn)?);
    let plain = drive(
        &mut conn,
        &mut stream,
        depth,
        Limit::Time(pass),
        1,
        false,
        &cpu,
    )?;
    let (page1, stats1) = (server.metrics_text()?, server_stats(&mut conn)?);
    tally.absorb(&plain);
    // Traced pass: the same loop keeping four timestamps per request.
    let traced = drive(
        &mut conn,
        &mut stream,
        depth,
        Limit::Time(pass),
        1,
        true,
        &cpu,
    )?;
    tally.absorb(&traced);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let delta = |series: &str| prom_value(&page1, series) - prom_value(&page0, series);
    let phase_mean = |phase: &str| {
        let n = delta(&format!("ppr_request_phase_us_count{{phase=\"{phase}\"}}"));
        if n > 0.0 {
            delta(&format!("ppr_request_phase_us_sum{{phase=\"{phase}\"}}")) / n
        } else {
            0.0
        }
    };
    let served = delta("ppr_request_total_us_count");
    let total_us = if served > 0.0 {
        delta("ppr_request_total_us_sum") / served
    } else {
        0.0
    };
    let client_wait = mean_read_latency(&plain);
    values.insert("engine.queue_wait_us".into(), phase_mean("queue_wait"));
    values.insert("engine.total_us".into(), total_us);
    values.insert(
        "engine.rejected".into(),
        (stats1.rejected - stats0.rejected) as f64,
    );
    values.insert("net.remainder_us".into(), client_wait - total_us);
    values.insert("cache.lookup_us".into(), phase_mean("cache_lookup"));
    values.insert(
        "cache.result_hit_ratio".into(),
        ratio(
            stats1.results.hits - stats0.results.hits,
            stats1.results.misses - stats0.results.misses,
        ),
    );
    values.insert(
        "cache.plan_hit_ratio".into(),
        ratio(
            stats1.cache.hits - stats0.cache.hits,
            stats1.cache.misses - stats0.cache.misses,
        ),
    );
    values.insert(
        "cache.decomp_hit_ratio".into(),
        ratio(
            stats1.decomps.hits - stats0.decomps.hits,
            stats1.decomps.misses - stats0.decomps.misses,
        ),
    );
    values.insert(
        "cache.result_evictions".into(),
        (stats1.results.evictions - stats0.results.evictions) as f64,
    );
    let server_phases: Vec<(String, Json)> = [
        "queue_wait",
        "parse",
        "fingerprint",
        "cache_lookup",
        "plan",
        "exec",
    ]
    .iter()
    .map(|p| (p.to_string(), Json::num(phase_mean(p))))
    .collect();
    if workload.durable() {
        let adds = plain.completions.iter().filter(|c| c.write).count() as u64;
        values.extend(durability_delta(&page0, &page1, adds));
    }

    // Harness spans of the traced pass.
    let span_mean = |f: fn(&TraceRecord) -> u64| {
        mean(
            &traced
                .trace
                .iter()
                .map(|r| f(r) as f64 / 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let encode_us = span_mean(|r| r.encoded - r.start);
    let decode_us = span_mean(|r| r.decoded - r.received);
    values.insert("protocol.client_encode_us".into(), encode_us);
    values.insert("protocol.client_decode_us".into(), decode_us);
    let rps = |o: &Outcome| o.completions.len() as f64 / o.wall_s;
    values.insert(
        "trace.overhead_pct".into(),
        (rps(&plain) - rps(&traced)) / rps(&plain) * 100.0,
    );
    values.insert("harness.generate_s".into(), generate_s);

    drop(conn);
    server.kill();
    if workload.durable() {
        // A restart on the data directory, for the records it replays.
        let restarted = Server::spawn(
            &cfg.ppr,
            Some(&scratch.path.join("data-0")),
            &scratch.path.join("server-restarted.log"),
        )?;
        let page = restarted.metrics_text()?;
        values.insert(
            "durability.recovery_replayed".into(),
            prom_value(&page, "ppr_recovery_replayed_records"),
        );
    }

    // Layer replay, in-process, with every server gone. Its durability
    // probe only runs where the server had no data directory.
    let replayed: Replay = replay(workload, cfg.seed, &pool, cfg.smoke, &scratch.path)?;
    values.extend(replayed.values.clone());
    for pass in ["decompose", "bucket-build"] {
        let us = replayed.passes.get(pass).copied().unwrap_or(0.0);
        values.insert(format!("core.pass.{pass}_us"), us);
    }

    // The ledger: depth-1 wire latency against everything accounted for.
    let execute_us = values["engine.execute_us"];
    let ping = percentile(&ping_us, 50.0);
    let net_overhead = wire_us - execute_us;
    let client_codec = encode_us + decode_us;
    let unexplained = net_overhead - replayed.protocol_side_us - client_codec - ping;
    values.insert("net.ping_rtt_us".into(), ping);
    values.insert("net.overhead_us".into(), net_overhead);
    values.insert("net.unexplained_us".into(), unexplained);

    write_trace_file(cfg, workload, &traced.trace, &replayed)?;
    let detail = Json::obj([
        ("pool_instances", Json::num(pool.instances.len() as f64)),
        (
            "pool_draws_refused_by_admission",
            Json::num(pool.rejected as f64),
        ),
        // The working set against the cache, at the end of the untraced pass.
        ("result_cache_entries", Json::num(stats1.results.len as f64)),
        ("result_cache_bytes", Json::num(stats1.results.bytes as f64)),
        (
            "result_cache_capacity_bytes",
            Json::num(stats1.results.capacity_bytes as f64),
        ),
        ("ledger_requests", Json::num(ledger_ops as f64)),
        ("replayed_runs", Json::num(replayed.runs as f64)),
        ("replayed_adds", Json::num(replayed.adds as f64)),
        (
            "untraced_pass_requests",
            Json::num(plain.completions.len() as f64),
        ),
        (
            "traced_pass_requests",
            Json::num(traced.completions.len() as f64),
        ),
        ("server_phase_mean_us", Json::Obj(server_phases)),
        (
            "pass_mean_us",
            Json::Obj(
                replayed
                    .passes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::num(*v)))
                    .collect(),
            ),
        ),
        (
            "ledger",
            Json::obj([
                ("wire_latency_us", Json::num(wire_us)),
                (
                    "engine_side_layer_calls_us",
                    Json::num(replayed.engine_side_us),
                ),
                (
                    "engine_overhead_us",
                    Json::num(values["engine.overhead_us"]),
                ),
                (
                    "protocol_layer_calls_us",
                    Json::num(replayed.protocol_side_us),
                ),
                ("client_codec_us", Json::num(client_codec)),
                ("ping_rtt_us", Json::num(ping)),
                ("unexplained_us", Json::num(unexplained)),
            ]),
        ),
    ]);
    Ok(RunResult {
        workload,
        traced: true,
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        detail,
    })
}

/// Spans stay in memory during the run; this writes them out at its end:
/// the harness's four spans per request of the traced pass and the
/// replay's one span per layer call, each with its request id and parent.
fn write_trace_file(
    cfg: &Config,
    workload: Workload,
    trace: &[TraceRecord],
    replayed: &Replay,
) -> io::Result<()> {
    let span = |request: u64, name: &str, parent: Json, start_ns: u64, end_ns: u64| {
        Json::obj([
            ("request", Json::num(request as f64)),
            ("name", Json::str(name)),
            ("parent", parent),
            ("start_us", Json::num(start_ns as f64 / 1e3)),
            ("end_us", Json::num(end_ns as f64 / 1e3)),
        ])
    };
    let mut wire_spans = Vec::new();
    for r in trace.iter().take(TRACE_FILE_REQUESTS) {
        wire_spans.push(span(r.id, "request", Json::Null, r.start, r.decoded));
        wire_spans.push(span(
            r.id,
            "client.encode",
            Json::str("request"),
            r.start,
            r.encoded,
        ));
        wire_spans.push(span(
            r.id,
            "wire.wait",
            Json::str("request"),
            r.encoded,
            r.received,
        ));
        wire_spans.push(span(
            r.id,
            "client.decode",
            Json::str("request"),
            r.received,
            r.decoded,
        ));
    }
    // A replayed request's root span runs from its first layer call to
    // its last; what the calls leave uncovered is the replay's own glue.
    let mut replay_spans = Vec::new();
    for calls in replayed.spans.chunk_by(|a, b| a.request == b.request) {
        let (first, last) = (&calls[0], &calls[calls.len() - 1]);
        replay_spans.push(span(
            first.request,
            "replay.request",
            Json::Null,
            first.start_ns,
            last.end_ns,
        ));
        for s in calls {
            replay_spans.push(span(
                s.request,
                s.name,
                Json::str("replay.request"),
                s.start_ns,
                s.end_ns,
            ));
        }
    }
    let doc = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::num(cfg.seed as f64)),
        ("traced_pass_spans", Json::Arr(wire_spans)),
        ("replay_spans", Json::Arr(replay_spans)),
    ]);
    std::fs::write(
        cfg.out_dir.join(format!("{}.trace.json", workload.name())),
        doc.to_string(),
    )
}
