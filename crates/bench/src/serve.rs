//! Serving-layer throughput benchmark (`experiments serve-throughput`).
//!
//! Stands up a real [`ppr_service::Server`] on an ephemeral TCP port and
//! drives it over **one connection per method** — per-connection
//! throughput is exactly what protocol pipelining changes, and a single
//! client isolates that effect (concurrent serial clients already overlap
//! their round trips across connections). The workload is the paper's
//! many-small-queries regime: 3-COLOR queries over tiny paths, where
//! per-request round-trip latency rather than execution dominates.
//!
//! Four phases per method, all over the same request list:
//!
//! 1. **warmup** (untimed) — throwaway seeds; absorbs first-touch costs.
//! 2. **cold** (timed) — every request carries a fresh planner seed, and
//!    both the plan cache and the result cache key on the seed, so every
//!    request plans and executes.
//! 3. **warm** (timed) — the cold requests replayed verbatim, so rows
//!    come straight from the result cache.
//! 4. **warm_plan** (timed) — a catalog mutation bumps the content
//!    fingerprint (invalidating every plan- and result-cache entry), then
//!    the cold requests are replayed once more: every request re-plans
//!    and re-executes, but bucket methods skip re-decomposition because
//!    the structure-keyed [`ppr_service::DecompCache`] still holds their
//!    variable orders (the order cache deliberately omits the data
//!    fingerprint — see docs/PLANNING.md).
//!
//! With `--pipeline N > 1` the connection speaks protocol v2 and keeps up
//! to `N` tagged requests in flight (double-buffered half-`N` bursts); a
//! pipeline-1 baseline connection to the **same server** is then also
//! measured, its repetitions interleaved with the pipelined ones so both
//! sides see the same host conditions, and the report records the
//! cold/warm speedups (disjoint seed ranges keep the shared caches
//! honest). Each timed phase is measured
//! `REPS` times (fresh seeds per cold repetition) and the best
//! repetition is reported. Per phase the report captures
//! requests/sec, p50/p95 client-observed latency, the plan-cache hit rate
//! (from engine counter deltas at the phase boundaries), the result-cache
//! hit rate, and the deepest client window actually reached.

use std::time::Instant;

use ppr_core::methods::{Method, OrderHeuristic};
use ppr_graph::{families, Graph};
use ppr_obs::{HistSnapshot, Histogram, Phase, Quantiles};
use ppr_query::Database;
use ppr_relalg::Value;
use ppr_service::{
    Catalog, Client, Engine, EngineConfig, EngineHandle, EngineStats, Pipeline, Request, Server,
    Ticket, DEFAULT_DB,
};
use ppr_workload::edge_relation;

use crate::figures::Config;
use crate::harness::{host_cpus, host_os};

/// One phase's measured serving numbers.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Requests that completed with rows.
    pub ok: usize,
    /// Requests that failed (budget, overload, transport).
    pub errors: usize,
    /// Wall-clock duration of the phase in milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second.
    pub reqs_per_sec: f64,
    /// Median client-observed latency in milliseconds, read from a shared
    /// `ppr_obs` histogram (log-bucketed: values are bucket upper bounds,
    /// not exact order statistics). Under pipelining this includes time
    /// deliberately spent in flight behind the window, so it is
    /// *expected* to exceed the serial figure while throughput improves.
    pub p50_ms: f64,
    /// 95th-percentile client-observed latency in milliseconds (same
    /// histogram as `p50_ms`).
    pub p95_ms: f64,
    /// Server-side queue-wait quantiles (microseconds) over exactly this
    /// phase's requests: the engine's `ppr_request_phase_us{phase=
    /// "queue_wait"}` histogram diffed at the phase boundaries.
    pub queue_wait_us: Quantiles,
    /// Server-side executor-time quantiles (microseconds) for the phase,
    /// from the same registry (`phase="exec"`); warm phases answer from
    /// the result cache, so their exec p50 collapses to zero.
    pub exec_us: Quantiles,
    /// Plan-cache hit rate over this phase (engine counter deltas). The
    /// cold phase's fresh seeds miss by construction, and warm requests
    /// are answered by the result cache before the planner is consulted,
    /// so this workload keeps it near zero in both timed phases.
    pub plan_cache_hit_rate: f64,
    /// Fraction of this phase's responses served from the result cache.
    pub result_cache_hit_rate: f64,
    /// Fraction of this phase's *planned* requests (plan-cache misses)
    /// whose decomposition was skipped via the structure-keyed order
    /// cache. Nonzero only for bucket methods in the warm_plan phase:
    /// cold requests carry fresh seeds (the order cache keys on the
    /// seed), and warm requests never reach the planner.
    pub decomp_hit_rate: f64,
    /// Deepest client window reached: tagged requests in flight at once
    /// (1 for the serial driver).
    pub window_depth: usize,
}

/// One method's measured serving throughput (cold and warm phases).
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Planning method requested over the wire.
    pub method: Method,
    /// Client pipeline depth driving the timed phases (1 = serial v1).
    pub pipeline: usize,
    /// Timed cold phase: fresh seeds, both caches miss on every request.
    pub cold: PhaseStats,
    /// Timed warm phase: the cold requests replayed, result-cache hits.
    pub warm: PhaseStats,
    /// Timed warm-plan phase: a catalog mutation invalidated both caches,
    /// then the cold requests replayed — everything re-plans, but bucket
    /// methods reuse their cached variable orders.
    pub warm_plan: PhaseStats,
    /// Executor threads the responses reported using (max observed).
    pub threads_used: u64,
    /// Interleaved same-server pipeline-1 cold baseline (`pipeline > 1`).
    pub baseline_cold: Option<PhaseStats>,
    /// Interleaved same-server pipeline-1 warm baseline (`pipeline > 1`).
    pub baseline_warm: Option<PhaseStats>,
    /// Interleaved same-server pipeline-1 warm-plan baseline
    /// (`pipeline > 1`).
    pub baseline_warm_plan: Option<PhaseStats>,
    /// Cold reqs/sec over the baseline's (only when `pipeline > 1`).
    pub speedup_cold: Option<f64>,
    /// Warm reqs/sec over the baseline's (only when `pipeline > 1`).
    pub speedup_warm: Option<f64>,
    /// Warm-plan reqs/sec over the baseline's (only when `pipeline > 1`).
    pub speedup_warm_plan: Option<f64>,
    /// Timed cold phase against a second server running with
    /// `profile_ops` on: every execution builds its operator
    /// profile, so `cold` vs this column is the profiler's overhead.
    pub profiled_cold: Option<PhaseStats>,
    /// Profiling overhead in percent: `100 * (1 - profiled/plain)` cold
    /// throughput. Negative values are host noise (profiled measured
    /// faster).
    pub profiling_overhead_pct: Option<f64>,
}

/// Untimed requests absorbing first-touch costs before the cold phase.
const WARMUP: usize = 64;

/// Repetitions of each timed phase; the best one is reported. Single
/// 20–50 ms runs on a shared host are dominated by scheduler noise, and
/// the noise is one-sided (stalls only slow a run down), so best-of is
/// the stable estimator of what the serving path can actually do. Every
/// cold repetition uses its own seed range and stays honestly cold.
const REPS: usize = 7;

/// Timed requests per phase.
fn requests_per_phase(cfg: &Config) -> usize {
    if cfg.quick {
        256
    } else if cfg.full {
        8192
    } else {
        2048
    }
}

/// Renders the 3-COLOR query of `graph` as wire text: one `edge` atom per
/// graph edge, Boolean head.
fn color_query_text(graph: &Graph) -> String {
    let atoms: Vec<String> = graph
        .edges()
        .iter()
        .map(|&(u, v)| format!("edge(v{u}, v{v})"))
        .collect();
    format!("q() :- {}", atoms.join(", "))
}

/// The many-small-queries mix: 3-COLOR over one- and two-edge paths.
/// Tiny on purpose — this is the regime where round-trip overhead rather
/// than execution dominates, which is exactly the cost pipelining
/// removes; larger instances belong to the figure sweeps, not here.
fn tiny_query_mix() -> Vec<String> {
    vec![
        color_query_text(&families::path(2)),
        color_query_text(&families::path(3)),
    ]
}

/// `count` requests cycling over `queries`, each with its own planner
/// seed starting at `seed_base`. Distinct seeds are what make a phase
/// cold: both the plan cache and the result cache key on the seed, so no
/// request can hit an entry left by an earlier one.
fn phase_requests(
    queries: &[String],
    method: Method,
    count: usize,
    seed_base: u64,
) -> Vec<Request> {
    (0..count)
        .map(|i| {
            let mut request = Request::new(queries[i % queries.len()].clone(), method);
            request.seed = Some(seed_base + i as u64);
            request
        })
        .collect()
}

/// Raw per-phase tallies before percentile/rate reduction. Latencies go
/// straight into a `ppr_obs` histogram — the same machinery the server
/// uses — instead of a sorted vector.
#[derive(Default)]
struct PhaseRaw {
    latency_us: Histogram,
    ok: usize,
    errors: usize,
    result_hits: usize,
    threads_used: u64,
    elapsed_ms: f64,
    window_depth: usize,
}

/// The per-method connection: serial v1 [`Client`] or v2 [`Pipeline`].
enum Driver {
    Serial(Client),
    Piped(Pipeline, usize),
}

impl Driver {
    fn connect(addr: std::net::SocketAddr, depth: usize) -> Driver {
        if depth > 1 {
            Driver::Piped(Pipeline::connect(addr).expect("pipeline connect"), depth)
        } else {
            Driver::Serial(Client::connect(addr).expect("connect"))
        }
    }

    fn run_phase(&mut self, requests: &[Request]) -> PhaseRaw {
        match self {
            Driver::Serial(client) => run_serial_phase(client, requests),
            Driver::Piped(pipe, depth) => run_piped_phase(pipe, *depth, requests),
        }
    }
}

fn run_serial_phase(client: &mut Client, requests: &[Request]) -> PhaseRaw {
    let mut raw = PhaseRaw {
        window_depth: 1,
        ..PhaseRaw::default()
    };
    let started = Instant::now();
    for request in requests {
        let t0 = Instant::now();
        match client.run(request) {
            Ok(resp) => {
                raw.latency_us.record(t0.elapsed().as_micros() as u64);
                raw.ok += 1;
                raw.result_hits += resp.result_cache_hit as usize;
                raw.threads_used = raw.threads_used.max(resp.stats.threads_used);
            }
            Err(_) => raw.errors += 1,
        }
    }
    raw.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    raw
}

/// Double-buffered half-window bursts: submit chunk `k+1` before
/// redeeming chunk `k`'s tickets, so the server never drains while the
/// client is writing and at most `depth` requests are in flight.
fn run_piped_phase(pipe: &mut Pipeline, depth: usize, requests: &[Request]) -> PhaseRaw {
    let mut raw = PhaseRaw::default();
    let burst = (depth.min(pipe.window()) / 2).max(1);
    let started = Instant::now();
    let mut outstanding: Vec<(Ticket, Instant)> = Vec::new();
    for chunk in requests.chunks(burst) {
        let submitted: Vec<(Ticket, Instant)> = chunk
            .iter()
            .map(|request| {
                (
                    pipe.submit(request).expect("pipelined submit"),
                    Instant::now(),
                )
            })
            .collect();
        raw.window_depth = raw.window_depth.max(pipe.in_flight());
        for (ticket, t0) in outstanding.drain(..) {
            redeem(pipe, ticket, t0, &mut raw);
        }
        outstanding = submitted;
    }
    for (ticket, t0) in outstanding {
        redeem(pipe, ticket, t0, &mut raw);
    }
    raw.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    raw
}

fn redeem(pipe: &mut Pipeline, ticket: Ticket, t0: Instant, raw: &mut PhaseRaw) {
    match pipe.wait(ticket) {
        Ok(resp) => {
            raw.latency_us.record(t0.elapsed().as_micros() as u64);
            raw.ok += 1;
            raw.result_hits += resp.result_cache_hit as usize;
            raw.threads_used = raw.threads_used.max(resp.stats.threads_used);
        }
        Err(_) => raw.errors += 1,
    }
}

/// Everything read from the engine at a phase boundary: counter-style
/// stats for cache-delta rates plus raw histogram snapshots of the two
/// phases the decomposition reports. Snapshots diff exactly because the
/// driver redeems every reply before the bracketing read — no other
/// requests are in flight.
struct EngineSnap {
    stats: EngineStats,
    queue_wait: HistSnapshot,
    exec: HistSnapshot,
}

fn engine_snap(handle: &EngineHandle) -> EngineSnap {
    let m = handle.metrics();
    EngineSnap {
        stats: handle.stats(),
        queue_wait: m.phase_us[Phase::QueueWait as usize].snapshot(),
        exec: m.phase_us[Phase::Exec as usize].snapshot(),
    }
}

/// Reduces raw tallies to reported numbers; the engine snapshots bracket
/// the phase, so counter deltas are the phase's own plan-cache traffic
/// and histogram diffs its own queue-wait/exec distributions.
fn finish_phase(raw: PhaseRaw, before: &EngineSnap, after: &EngineSnap) -> PhaseStats {
    let latency = raw.latency_us.snapshot().quantiles();
    let ok = raw.ok;
    let plan_hits = after.stats.cache.hits - before.stats.cache.hits;
    let plan_misses = after.stats.cache.misses - before.stats.cache.misses;
    let plan_total = plan_hits + plan_misses;
    // Every plan-cache miss ran the pass pipeline exactly once, so the
    // decomposition-skip rate is decomp hits over planned requests.
    let decomp_hits = after.stats.decomp_cache_hits - before.stats.decomp_cache_hits;
    PhaseStats {
        ok,
        errors: raw.errors,
        elapsed_ms: raw.elapsed_ms,
        reqs_per_sec: if raw.elapsed_ms > 0.0 {
            ok as f64 / (raw.elapsed_ms / 1e3)
        } else {
            0.0
        },
        p50_ms: latency.p50 as f64 / 1e3,
        p95_ms: latency.p95 as f64 / 1e3,
        queue_wait_us: after.queue_wait.diff(&before.queue_wait).quantiles(),
        exec_us: after.exec.diff(&before.exec).quantiles(),
        plan_cache_hit_rate: if plan_total == 0 {
            0.0
        } else {
            plan_hits as f64 / plan_total as f64
        },
        result_cache_hit_rate: if ok == 0 {
            0.0
        } else {
            raw.result_hits as f64 / ok as f64
        },
        decomp_hit_rate: if plan_misses == 0 {
            0.0
        } else {
            decomp_hits as f64 / plan_misses as f64
        },
        window_depth: raw.window_depth,
    }
}

/// Best-of-[`REPS`] cold/warm phases for one connection, interleaved by
/// the caller with the other connection's repetitions.
#[derive(Default)]
struct BestPhases {
    cold: Option<PhaseStats>,
    warm: Option<PhaseStats>,
    warm_plan: Option<PhaseStats>,
    threads_used: u64,
}

impl BestPhases {
    /// Runs one cold+warm+warm_plan repetition on `driver` and keeps each
    /// phase if it beat the repetitions so far. `cold` must carry seeds no
    /// other phase has used, so every request misses both caches. `salt`
    /// must be unique per call across *all* drivers: the warm_plan phase
    /// appends a distinct `edge` tuple so the catalog mutation really
    /// changes the content fingerprint (a duplicate tuple would dedupe
    /// away and leave every cache entry valid).
    fn repetition(
        &mut self,
        driver: &mut Driver,
        handle: &ppr_service::EngineHandle,
        cold: &[Request],
        salt: u64,
    ) {
        // Stat snapshots settle before each is read: every reply of the
        // prior phase has been redeemed, and workers bump cache counters
        // (and record spans) strictly before invoking the reply callback.
        let before = engine_snap(handle);
        let cold_raw = driver.run_phase(cold);
        let mid = engine_snap(handle);
        let warm_raw = driver.run_phase(cold);
        let after = engine_snap(handle);
        // Invalidate plans and results (they key on the content
        // fingerprint) while the structure-keyed order cache — which
        // deliberately does not — stays warm, then replay.
        let tuple = vec![10_000 + salt as Value, 20_000 + salt as Value];
        handle
            .catalog()
            .add(DEFAULT_DB, "edge", tuple.into())
            .expect("bench mutation");
        let warm_plan_raw = driver.run_phase(cold);
        let end = engine_snap(handle);

        self.threads_used = self
            .threads_used
            .max(cold_raw.threads_used)
            .max(warm_raw.threads_used)
            .max(warm_plan_raw.threads_used);
        let better = |best: &Option<PhaseStats>, candidate: &PhaseStats| {
            best.as_ref()
                .is_none_or(|b| candidate.reqs_per_sec > b.reqs_per_sec)
        };
        let cold_stats = finish_phase(cold_raw, &before, &mid);
        let warm_stats = finish_phase(warm_raw, &mid, &after);
        let warm_plan_stats = finish_phase(warm_plan_raw, &after, &end);
        if better(&self.cold, &cold_stats) {
            self.cold = Some(cold_stats);
        }
        if better(&self.warm, &warm_stats) {
            self.warm = Some(warm_stats);
        }
        if better(&self.warm_plan, &warm_plan_stats) {
            self.warm_plan = Some(warm_plan_stats);
        }
    }
}

/// Measures one method against a fresh server. When `depth > 1` the
/// pipeline-1 baseline shares the server and **alternates repetitions**
/// with the pipelined connection: both sides then see the same host
/// conditions, so a machine-wide slowdown cannot masquerade as (or hide)
/// a protocol speedup. The two connections use disjoint seed ranges, so
/// neither can warm the other's cold phase.
fn drive_method(
    cfg: &Config,
    method: Method,
    depth: usize,
    queries: &[String],
    count: usize,
) -> ServeRow {
    let mut db = Database::new();
    db.add(edge_relation(3));
    let mut engine_cfg = EngineConfig::default();
    engine_cfg.workers = 2;
    engine_cfg.queue_capacity = 256;
    engine_cfg.max_budget = cfg.budget();
    // Size both caches for the workload: every cold request inserts a
    // fresh-seed plan and result, and the warm phase needs the whole
    // repetition resident. Undersized caches would measure LRU churn on
    // top of the serving path.
    engine_cfg.cache_capacity = 4 * requests_per_phase(cfg);
    engine_cfg.result_cache_bytes = 64 << 20;
    let engine = Engine::start(Catalog::with_default(db), engine_cfg);
    let handle = engine.handle();
    let mut server = Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("bind ephemeral port");
    let addr = server.local_addr();

    let mut driver = Driver::connect(addr, depth);
    let _ = driver.run_phase(&phase_requests(queries, method, WARMUP, 1_000_000));
    let mut baseline_driver = (depth > 1).then(|| {
        let mut d = Driver::connect(addr, 1);
        let _ = d.run_phase(&phase_requests(queries, method, WARMUP, 1_500_000));
        d
    });

    let mut main = BestPhases::default();
    let mut base = BestPhases::default();
    for rep in 0..REPS {
        let cold = phase_requests(queries, method, count, 2_000_000 + (rep * count) as u64);
        main.repetition(&mut driver, &handle, &cold, 2 * rep as u64);
        if let Some(d) = baseline_driver.as_mut() {
            let cold = phase_requests(queries, method, count, 5_000_000 + (rep * count) as u64);
            base.repetition(d, &handle, &cold, 2 * rep as u64 + 1);
        }
    }
    drop(driver);
    drop(baseline_driver);

    server.shutdown();
    engine.shutdown();

    let (cold, warm) = (main.cold.expect("REPS >= 1"), main.warm.expect("REPS >= 1"));
    let warm_plan = main.warm_plan.expect("REPS >= 1");
    let speedup = |phase: &PhaseStats, base: &Option<PhaseStats>| {
        base.as_ref().map(|b| {
            if b.reqs_per_sec > 0.0 {
                phase.reqs_per_sec / b.reqs_per_sec
            } else {
                0.0
            }
        })
    };
    ServeRow {
        method,
        pipeline: depth,
        threads_used: main.threads_used.max(base.threads_used),
        speedup_cold: speedup(&cold, &base.cold),
        speedup_warm: speedup(&warm, &base.warm),
        speedup_warm_plan: speedup(&warm_plan, &base.warm_plan),
        cold,
        warm,
        warm_plan,
        baseline_cold: base.cold,
        baseline_warm: base.warm,
        baseline_warm_plan: base.warm_plan,
        profiled_cold: None,
        profiling_overhead_pct: None,
    }
}

/// Measures the cold phase alone on a server with operator profiling
/// forced on ([`EngineConfig::profile_ops`]). Same workload, seeds
/// disjoint from every [`drive_method`] phase; best-of-[`REPS`] like the
/// main phases, so the overhead comparison uses two stable estimates.
fn drive_profiled_cold(
    cfg: &Config,
    method: Method,
    depth: usize,
    queries: &[String],
    count: usize,
) -> PhaseStats {
    let mut db = Database::new();
    db.add(edge_relation(3));
    let mut engine_cfg = EngineConfig::default();
    engine_cfg.workers = 2;
    engine_cfg.queue_capacity = 256;
    engine_cfg.max_budget = cfg.budget();
    engine_cfg.cache_capacity = 4 * requests_per_phase(cfg);
    engine_cfg.result_cache_bytes = 64 << 20;
    engine_cfg.profile_ops = true;
    let engine = Engine::start(Catalog::with_default(db), engine_cfg);
    let handle = engine.handle();
    let mut server = Server::builder()
        .addr("127.0.0.1:0")
        .engine(engine.handle())
        .start()
        .expect("bind ephemeral port");
    let mut driver = Driver::connect(server.local_addr(), depth);
    let _ = driver.run_phase(&phase_requests(queries, method, WARMUP, 1_000_000));
    let mut best: Option<PhaseStats> = None;
    for rep in 0..REPS {
        let cold = phase_requests(queries, method, count, 8_000_000 + (rep * count) as u64);
        let before = engine_snap(&handle);
        let raw = driver.run_phase(&cold);
        let after = engine_snap(&handle);
        let stats = finish_phase(raw, &before, &after);
        if best
            .as_ref()
            .is_none_or(|b| stats.reqs_per_sec > b.reqs_per_sec)
        {
            best = Some(stats);
        }
    }
    drop(driver);
    server.shutdown();
    engine.shutdown();
    best.expect("REPS >= 1")
}

/// Runs the throughput sweep: one row per method over the same query mix,
/// plus an interleaved pipeline-1 baseline per method when `cfg.pipeline`
/// asks for depth.
pub fn serve_throughput_rows(cfg: &Config) -> Vec<ServeRow> {
    let queries = tiny_query_mix();
    let count = requests_per_phase(cfg);
    let depth = cfg.pipeline.max(1);
    [
        Method::Straightforward,
        Method::EarlyProjection,
        Method::BucketElimination(OrderHeuristic::Mcs),
    ]
    .into_iter()
    .map(|method| {
        let mut row = drive_method(cfg, method, depth, &queries, count);
        let profiled = drive_profiled_cold(cfg, method, depth, &queries, count);
        if row.cold.reqs_per_sec > 0.0 {
            row.profiling_overhead_pct =
                Some(100.0 * (1.0 - profiled.reqs_per_sec / row.cold.reqs_per_sec));
        }
        row.profiled_cold = Some(profiled);
        row
    })
    .collect()
}

/// One point on the `--connections` axis: that many concurrent pipelined
/// v2 connections held open by the epoll load driver while the event-loop
/// backend serves them.
#[derive(Debug, Clone)]
pub struct ConnRow {
    /// Connections held open.
    pub connections: usize,
    /// Per-connection pipeline depth.
    pub window: usize,
    /// Requests completed (tagged replies received).
    pub requests: u64,
    /// Replies that were wire-level errors (`err …`).
    pub errors: u64,
    /// Wall-clock for the request phase, milliseconds.
    pub elapsed_ms: f64,
    /// Completed requests per second.
    pub reqs_per_sec: f64,
    /// Median enqueue→reply latency, microseconds (exact sample).
    pub p50_us: u64,
    /// 99th-percentile enqueue→reply latency, microseconds (exact sample).
    pub p99_us: u64,
}

/// The connection ladder for `cfg`, clamped to the process fd budget.
/// Driver and server share one process here, so every connection costs
/// two descriptors; 64 fds are reserved for everything else (listener,
/// epoll fds, stdio, the catalog's log files).
fn connection_ladder(cfg: &Config) -> Vec<usize> {
    let ladder: Vec<usize> = match (cfg.connections, cfg.quick, cfg.full) {
        (Some(n), _, _) => vec![n.max(1)],
        (None, true, _) => vec![64],
        (None, false, true) => vec![1_000, 5_000, 10_000],
        (None, false, false) => vec![100, 1_000],
    };
    let budget = ppr_service::net::nofile_limit().unwrap_or(1_024);
    let usable = ((budget.saturating_sub(64) / 2).max(1) as usize).min(100_000);
    let mut out: Vec<usize> = Vec::new();
    for n in ladder {
        let n = n.min(usable);
        if out.last() != Some(&n) {
            out.push(n);
        }
    }
    out
}

/// Measures the `--connections` axis: requests/sec and tail latency while
/// N concurrent pipelined connections stay open, served by the event-loop
/// backend.
///
/// Unlike the per-method phases above, the query is held fixed — one
/// cache-resident request, identical on every connection — so the only
/// thing that changes between rows is how many sockets the single loop
/// thread carries. The engine's queue is sized to admit the whole
/// aggregate window (the axis measures the connection layer, not
/// admission control). Linux-only: elsewhere the sweep is empty, matching
/// the builder's fallback to the threaded backend.
pub fn connection_sweep_rows(cfg: &Config) -> Vec<ConnRow> {
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cfg;
        Vec::new()
    }
    #[cfg(target_os = "linux")]
    {
        use ppr_service::net::load::{run_load, LoadOptions};
        use ppr_service::protocol;
        use std::time::Duration;

        // Per-connection pipeline depth: deep enough that the loop always
        // has queued work per socket, shallow enough that 10k connections
        // do not ask for 10M-deep engine queues.
        const CONN_WINDOW: usize = 4;
        let mut rows = Vec::new();
        for n in connection_ladder(cfg) {
            let mut db = Database::new();
            db.add(edge_relation(3));
            let mut engine_cfg = EngineConfig::default();
            engine_cfg.workers = 2;
            engine_cfg.queue_capacity = CONN_WINDOW * n + 64;
            engine_cfg.max_budget = cfg.budget();
            engine_cfg.result_cache_bytes = 64 << 20;
            let engine = Engine::start(Catalog::with_default(db), engine_cfg);
            let mut server = Server::builder()
                .addr("127.0.0.1:0")
                .engine(engine.handle())
                .max_connections(n + 16)
                .start()
                .expect("bind ephemeral port");
            let req = Request::new("q(x, y) :- edge(x, y), edge(y, x)", Method::EarlyProjection);
            let requests = if cfg.quick {
                (2 * n).max(512)
            } else {
                (4 * n).clamp(4_096, 65_536)
            };
            let opts = LoadOptions {
                connections: n,
                requests,
                window: CONN_WINDOW,
                lines: vec![protocol::encode_request(&req)],
                deadline: Duration::from_secs(600),
            };
            let report = run_load(server.local_addr(), &opts).expect("load run completes");
            server.shutdown();
            engine.shutdown();
            rows.push(ConnRow {
                connections: report.connections,
                window: CONN_WINDOW,
                requests: report.requests,
                errors: report.errors,
                elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
                reqs_per_sec: report.reqs_per_sec,
                p50_us: report.p50_us,
                p99_us: report.p99_us,
            });
        }
        rows
    }
}

/// Prints the connection-axis TSV (nothing when the sweep is empty, i.e.
/// off Linux).
pub fn print_conn_rows(w: &mut impl std::io::Write, rows: &[ConnRow]) {
    if rows.is_empty() {
        return;
    }
    writeln!(
        w,
        "connections\twindow\trequests\terrors\treqs_per_sec\tp50_us\tp99_us"
    )
    .expect("write");
    for r in rows {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{:.1}\t{}\t{}",
            r.connections, r.window, r.requests, r.errors, r.reqs_per_sec, r.p50_us, r.p99_us
        )
        .expect("write");
    }
}

/// Prints the TSV (kept separate from measurement so the harness persists
/// the JSON artifact before touching stdout). Baseline phases print as
/// extra `pipeline=1` lines under their method.
pub fn print_serve_rows(w: &mut impl std::io::Write, rows: &[ServeRow]) {
    writeln!(
        w,
        "method\tpipeline\tphase\tok\terrors\treqs_per_sec\tp50_ms\tp95_ms\tqueue_wait_p50_us\texec_p50_us\tplan_cache_hit_rate\tresult_cache_hit_rate\tdecomp_hit_rate\twindow_depth\tspeedup"
    )
    .expect("write");
    for r in rows {
        let mut line = |phase: &str, pipeline: usize, p: &PhaseStats, speedup: Option<f64>| {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{:.1}\t{:.3}\t{:.3}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{}\t{}",
                r.method.name(),
                pipeline,
                phase,
                p.ok,
                p.errors,
                p.reqs_per_sec,
                p.p50_ms,
                p.p95_ms,
                p.queue_wait_us.p50,
                p.exec_us.p50,
                p.plan_cache_hit_rate,
                p.result_cache_hit_rate,
                p.decomp_hit_rate,
                p.window_depth,
                speedup.map_or_else(|| "-".to_string(), |s| format!("{s:.2}")),
            )
            .expect("write");
        };
        line("cold", r.pipeline, &r.cold, r.speedup_cold);
        line("warm", r.pipeline, &r.warm, r.speedup_warm);
        line("warm_plan", r.pipeline, &r.warm_plan, r.speedup_warm_plan);
        if let Some(p) = &r.profiled_cold {
            line("cold_profiled", r.pipeline, p, None);
        }
        if let Some(b) = &r.baseline_cold {
            line("cold", 1, b, None);
        }
        if let Some(b) = &r.baseline_warm {
            line("warm", 1, b, None);
        }
        if let Some(b) = &r.baseline_warm_plan {
            line("warm_plan", 1, b, None);
        }
    }
}

/// Machine-readable report for `results/BENCH_serve.json` (hand-rolled
/// — no JSON dependency in the tree). `conns` is the `--connections`
/// axis; it serializes as an empty array where the sweep did not run.
pub fn serve_report_json(cfg: &Config, rows: &[ServeRow], conns: &[ConnRow]) -> String {
    fn quantiles_json(q: &Quantiles) -> String {
        format!(
            "{{\"n\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            q.count, q.p50, q.p95, q.p99
        )
    }
    fn phase_json(p: &PhaseStats) -> String {
        format!(
            "{{\"ok\": {}, \"errors\": {}, \"elapsed_ms\": {:.1}, \"reqs_per_sec\": {:.1}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"queue_wait_us\": {}, \"exec_us\": {}, \"plan_cache_hit_rate\": {:.3}, \
             \"result_cache_hit_rate\": {:.3}, \"decomp_hit_rate\": {:.3}, \
             \"window_depth\": {}}}",
            p.ok,
            p.errors,
            p.elapsed_ms,
            p.reqs_per_sec,
            p.p50_ms,
            p.p95_ms,
            quantiles_json(&p.queue_wait_us),
            quantiles_json(&p.exec_us),
            p.plan_cache_hit_rate,
            p.result_cache_hit_rate,
            p.decomp_hit_rate,
            p.window_depth
        )
    }
    fn opt_phase(p: &Option<PhaseStats>) -> String {
        p.as_ref().map_or_else(|| "null".to_string(), phase_json)
    }
    fn opt_num(x: Option<f64>) -> String {
        x.map_or_else(|| "null".to_string(), |v| format!("{v:.2}"))
    }
    let mut s = String::from("{\n");
    s.push_str("  \"benchmark\": \"serve_throughput\",\n");
    s.push_str(&format!(
        "  \"host\": {{\"cpus\": {}, \"os\": \"{}\"}},\n",
        host_cpus(),
        host_os()
    ));
    if host_cpus() == 1 {
        s.push_str(
            "  \"note\": \"single-CPU host: client and server time-slice one core, so \
             absolute throughput understates a real deployment; phase-relative \
             comparisons (cold vs warm, pipelined vs baseline) remain meaningful\",\n",
        );
    }
    s.push_str(&format!("  \"pipeline\": {},\n", cfg.pipeline.max(1)));
    s.push_str(&format!(
        "  \"requests_per_phase\": {},\n",
        requests_per_phase(cfg)
    ));
    s.push_str(&format!("  \"warmup_requests\": {WARMUP},\n"));
    s.push_str(&format!("  \"repetitions\": {REPS},\n"));
    s.push_str(&format!(
        "  \"distinct_queries\": {},\n",
        tiny_query_mix().len()
    ));
    s.push_str("  \"phases\": [\"warmup\", \"cold\", \"warm\", \"warm_plan\"],\n");
    s.push_str(&format!("  \"timeout_ms\": {},\n", cfg.timeout.as_millis()));
    if conns.is_empty() {
        s.push_str("  \"connections\": [],\n");
    } else {
        s.push_str("  \"connections\": [\n");
        for (i, c) in conns.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"connections\": {}, \"window\": {}, \"requests\": {}, \
                 \"errors\": {}, \"elapsed_ms\": {:.1}, \"reqs_per_sec\": {:.1}, \
                 \"p50_us\": {}, \"p99_us\": {}}}{}\n",
                c.connections,
                c.window,
                c.requests,
                c.errors,
                c.elapsed_ms,
                c.reqs_per_sec,
                c.p50_us,
                c.p99_us,
                if i + 1 == conns.len() { "" } else { "," }
            ));
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"method\": \"{}\", \"pipeline\": {}, \"threads_used\": {},\n     \
             \"cold\": {},\n     \"warm\": {},\n     \"warm_plan\": {},\n     \
             \"baseline_cold\": {},\n     \"baseline_warm\": {},\n     \
             \"baseline_warm_plan\": {},\n     \
             \"profiled_cold\": {},\n     \"profiling_overhead_pct\": {},\n     \
             \"speedup_cold\": {}, \"speedup_warm\": {}, \"speedup_warm_plan\": {}}}{}\n",
            r.method.name(),
            r.pipeline,
            r.threads_used,
            phase_json(&r.cold),
            phase_json(&r.warm),
            phase_json(&r.warm_plan),
            opt_phase(&r.baseline_cold),
            opt_phase(&r.baseline_warm),
            opt_phase(&r.baseline_warm_plan),
            opt_phase(&r.profiled_cold),
            opt_num(r.profiling_overhead_pct),
            opt_num(r.speedup_cold),
            opt_num(r.speedup_warm),
            opt_num(r.speedup_warm_plan),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn serve_throughput_measures_and_serializes() {
        let cfg = Config {
            seeds: 2,
            timeout: Duration::from_millis(2000),
            max_tuples: 20_000_000,
            full: false,
            quick: false,
            pipeline: 4,
            connections: None,
        };
        let queries = tiny_query_mix();
        assert_eq!(queries.len(), 2);
        assert!(queries.iter().all(|q| q.starts_with("q() :- edge(v")));

        // Pipelined main run with its interleaved serial baseline.
        let row = drive_method(&cfg, Method::EarlyProjection, 4, &queries, 48);
        let (cold, warm) = (&row.cold, &row.warm);
        assert_eq!(cold.ok + cold.errors, 48);
        assert_eq!(cold.errors, 0, "no request should fail on this workload");
        assert_eq!(warm.errors, 0);
        assert!(cold.reqs_per_sec > 0.0);
        assert!(cold.p95_ms >= cold.p50_ms);
        // The decomposition brackets exactly this phase's requests: the
        // engine-side histograms saw one sample per request…
        assert_eq!(cold.queue_wait_us.count, 48);
        assert_eq!(cold.exec_us.count, 48);
        // …every cold request really executed, and the warm replay was
        // answered by the result cache without the executor (all-zero
        // exec spans put the warm p99 in the histogram's zero bucket).
        assert!(cold.exec_us.p99 > 0);
        assert_eq!(warm.exec_us.p99, 0);
        assert!(
            cold.window_depth >= 2 && cold.window_depth <= 4,
            "window depth {} outside the requested pipeline",
            cold.window_depth
        );
        // Fresh per-request seeds keep the cold phase honest for BOTH
        // caches (each keys on the seed)…
        assert!(
            cold.result_cache_hit_rate < 0.1,
            "cold result-cache hit rate {} — phase is not cold",
            cold.result_cache_hit_rate
        );
        assert!(
            cold.plan_cache_hit_rate < 0.1,
            "cold plan-cache hit rate {} — phase is not cold",
            cold.plan_cache_hit_rate
        );
        // …and replaying the identical requests serves from the result
        // cache without touching planner or executor.
        assert!(
            warm.result_cache_hit_rate > 0.9,
            "warm result-cache hit rate {} too low",
            warm.result_cache_hit_rate
        );
        // The warm_plan phase replays after a catalog mutation: both
        // content-keyed caches are invalid, so everything re-plans and
        // re-executes. Early projection has no decomposition to reuse.
        let warm_plan = &row.warm_plan;
        assert_eq!(warm_plan.errors, 0);
        assert!(
            warm_plan.result_cache_hit_rate < 0.1,
            "mutation must invalidate results: {}",
            warm_plan.result_cache_hit_rate
        );
        assert!(
            warm_plan.plan_cache_hit_rate < 0.1,
            "mutation must invalidate plans: {}",
            warm_plan.plan_cache_hit_rate
        );
        assert!(warm_plan.exec_us.p99 > 0, "warm_plan re-executes");
        assert_eq!(warm_plan.decomp_hit_rate, 0.0);

        // The serial baseline rode along on the same server, over the
        // untagged v1 protocol, with its own cold seed range.
        let scold = row.baseline_cold.as_ref().expect("baseline measured");
        let swarm = row.baseline_warm.as_ref().expect("baseline measured");
        assert_eq!(scold.window_depth, 1);
        assert_eq!(scold.errors, 0);
        assert!(scold.result_cache_hit_rate < 0.1);
        assert!(swarm.result_cache_hit_rate > 0.9);
        assert!(row.speedup_cold.is_some() && row.speedup_warm.is_some());

        // A pipeline-1 run measures no baseline at all.
        let serial_row = drive_method(&cfg, Method::EarlyProjection, 1, &queries, 16);
        assert_eq!(serial_row.cold.window_depth, 1);
        assert!(serial_row.baseline_cold.is_none());
        assert!(serial_row.speedup_cold.is_none());

        // Bucket elimination is where the warm_plan phase pays off: its
        // decompositions are structure-keyed, so the post-mutation replay
        // skips them while the cold phase (fresh seeds) cannot.
        let bucket = drive_method(
            &cfg,
            Method::BucketElimination(OrderHeuristic::Mcs),
            1,
            &queries,
            16,
        );
        assert_eq!(bucket.cold.decomp_hit_rate, 0.0, "fresh seeds stay cold");
        assert!(
            bucket.warm_plan.decomp_hit_rate > 0.9,
            "replayed bucket requests must reuse cached orders: {}",
            bucket.warm_plan.decomp_hit_rate
        );

        let conn_row = ConnRow {
            connections: 64,
            window: 4,
            requests: 512,
            errors: 0,
            elapsed_ms: 12.5,
            reqs_per_sec: 40_960.0,
            p50_us: 180,
            p99_us: 900,
        };
        let json = serve_report_json(&cfg, &[row.clone(), serial_row.clone()], &[conn_row]);
        assert!(json.contains("\"connections\": [\n"));
        assert!(json.contains("\"p99_us\": 900"));
        let json_no_sweep = serve_report_json(&cfg, &[row, serial_row], &[]);
        assert!(json_no_sweep.contains("\"connections\": [],"));
        let json = json_no_sweep;
        assert!(json.contains("\"benchmark\": \"serve_throughput\""));
        assert!(json.contains("\"host\": {\"cpus\": "));
        assert!(json.contains("\"os\": \""));
        assert!(json.contains("\"queue_wait_us\": {\"n\": "));
        assert!(json.contains("\"exec_us\": {\"n\": "));
        assert!(json.contains("\"plan_cache_hit_rate\""));
        assert!(json.contains("\"window_depth\""));
        assert!(json.contains("\"speedup_cold\""));
        assert!(json.contains("\"baseline_cold\": null"));
        assert!(json.contains("\"warm_plan\""));
        assert!(json.contains("\"speedup_warm_plan\""));
        assert!(json.contains("\"decomp_hit_rate\""));
        assert!(json.contains("\"phases\": [\"warmup\", \"cold\", \"warm\", \"warm_plan\"]"));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn connection_sweep_holds_connections_and_reports_tail_latency() {
        let cfg = Config {
            quick: true,
            connections: Some(8),
            ..Config::default()
        };
        assert_eq!(connection_ladder(&cfg), vec![8]);
        let rows = connection_sweep_rows(&cfg);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.connections, 8);
        assert_eq!(r.requests, 512, "quick mode floors the request count");
        assert_eq!(r.errors, 0, "cache-resident mix must not error");
        assert!(r.reqs_per_sec > 0.0);
        assert!(r.p50_us <= r.p99_us);
    }

    #[test]
    fn connection_ladder_clamps_to_the_fd_budget() {
        let explicit = Config {
            connections: Some(usize::MAX),
            ..Config::default()
        };
        let clamped = connection_ladder(&explicit);
        assert_eq!(clamped.len(), 1);
        assert!(clamped[0] <= 100_000, "budget clamp missing: {clamped:?}");
        let default_ladder = connection_ladder(&Config::default());
        assert!(!default_ladder.is_empty());
        assert!(default_ladder.windows(2).all(|w| w[0] < w[1]));
    }
}
