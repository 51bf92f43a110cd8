//! The engine's observability surface: pre-registered metric handles,
//! the slow-query log, and text renderings for the Prometheus endpoint.
//!
//! One [`ServiceMetrics`] is created per [`crate::Engine`] and shared via
//! `Arc` with every worker. The handles are registered once here (the
//! registry's only locked path) so the per-request hot path is purely
//! relaxed atomic increments — see `ppr_obs::metrics` for the cost
//! model. Metric names and the label scheme are documented in
//! `docs/OBSERVABILITY.md`.

use std::sync::Arc;

use ppr_obs::{Counter, Histogram, Phase, Registry, SlowEntry, SlowLog, OP_KINDS, PHASES};

/// Requests the slow-query log retains (worst-N by latency).
pub const DEFAULT_SLOWLOG_CAPACITY: usize = 32;

/// Pre-registered metric handles for the request path.
pub struct ServiceMetrics {
    /// The registry behind the `/metrics` endpoint and the `stats` verb.
    pub registry: Arc<Registry>,
    /// Worst-N-by-latency log behind the `slowlog` verb.
    pub slowlog: Arc<SlowLog>,
    /// `ppr_requests_total` — requests completed by workers (ok or error).
    pub requests_total: Arc<Counter>,
    /// `ppr_request_errors_total` — completed with an error.
    pub errors_total: Arc<Counter>,
    /// `ppr_request_phase_us{phase=…}` — per-phase latency, one histogram
    /// per [`Phase`], indexed by `Phase as usize`. Every completed
    /// request records all six phases; zero means the phase did not run
    /// (e.g. `exec` on a result-cache hit) or was sub-microsecond.
    pub phase_us: [Arc<Histogram>; Phase::COUNT],
    /// `ppr_request_total_us` — end-to-end latency, admission to
    /// completion.
    pub total_us: Arc<Histogram>,
    /// `ppr_result_rows` — result sizes of successful requests.
    pub result_rows: Arc<Histogram>,
    /// `ppr_exec_tuples_flowed` — executor tuple flow of successful
    /// requests (0 on a result-cache hit).
    pub tuples_flowed: Arc<Histogram>,
    /// `ppr_exec_rows_scanned` — physical input rows the executor read
    /// per successful request (0 on a result-cache hit). Falls on warm
    /// repeats as the streaming executor reuses cached secondary indexes.
    pub rows_scanned: Arc<Histogram>,
    /// `ppr_index_probes_total` — secondary-index lookups performed by
    /// the streaming executor's `IxScan`/`IxJoin` operators.
    pub index_probes: Arc<Counter>,
    /// `ppr_index_builds_total` — secondary indexes built (cache misses;
    /// warm snapshots stop incrementing this).
    pub index_builds: Arc<Counter>,
    /// `ppr_passes_run_total` — planner steps run across all planned
    /// requests (plan- and result-cache hits run none).
    pub passes_run: Arc<Counter>,
    /// `ppr_decomp_cache_hits_total` — bucket decompositions skipped
    /// because the structure-keyed [`crate::DecompCache`] supplied the
    /// variable order as a pass hint.
    pub decomp_hits: Arc<Counter>,
    /// `ppr_op_rows_total{op=…}` — rows emitted per physical operator
    /// kind, indexed by `OpKind as usize`. Only populated when operator
    /// profiling runs ([`crate::EngineConfig::profile_ops`] or
    /// `explain analyze`).
    pub op_rows: [Arc<Counter>; OP_KINDS.len()],
    /// `ppr_op_time_us{op=…}` — per-request self time per physical
    /// operator kind, indexed by `OpKind as usize`. Same gating as
    /// [`ServiceMetrics::op_rows`].
    pub op_time_us: [Arc<Histogram>; OP_KINDS.len()],
}

impl ServiceMetrics {
    /// Registers every request-path metric on a fresh registry.
    pub fn new() -> Arc<ServiceMetrics> {
        let registry = Arc::new(Registry::new());
        let phase_us = std::array::from_fn(|i| {
            registry.histogram_with(
                "ppr_request_phase_us",
                &format!("phase=\"{}\"", PHASES[i].name()),
                "Per-phase request latency in microseconds",
            )
        });
        let op_rows = std::array::from_fn(|i| {
            registry.counter_with(
                "ppr_op_rows_total",
                &format!("op=\"{}\"", OP_KINDS[i].name()),
                "Rows emitted per physical operator kind (profiled requests only)",
            )
        });
        let op_time_us = std::array::from_fn(|i| {
            registry.histogram_with(
                "ppr_op_time_us",
                &format!("op=\"{}\"", OP_KINDS[i].name()),
                "Per-request operator self time in microseconds (profiled requests only)",
            )
        });
        Arc::new(ServiceMetrics {
            requests_total: registry.counter(
                "ppr_requests_total",
                "Requests completed by engine workers (ok or error)",
            ),
            errors_total: registry.counter(
                "ppr_request_errors_total",
                "Requests completed with an error",
            ),
            phase_us,
            total_us: registry.histogram(
                "ppr_request_total_us",
                "End-to-end request latency in microseconds (admission to completion)",
            ),
            result_rows: registry
                .histogram("ppr_result_rows", "Result rows per successful request"),
            tuples_flowed: registry.histogram(
                "ppr_exec_tuples_flowed",
                "Executor tuple flow per successful request",
            ),
            rows_scanned: registry.histogram(
                "ppr_exec_rows_scanned",
                "Physical input rows read by the executor per successful request",
            ),
            index_probes: registry.counter(
                "ppr_index_probes_total",
                "Secondary-index lookups performed by the streaming executor",
            ),
            index_builds: registry.counter(
                "ppr_index_builds_total",
                "Secondary indexes built on cache miss by the streaming executor",
            ),
            passes_run: registry.counter(
                "ppr_passes_run_total",
                "Optimizer passes executed by the planning pipeline",
            ),
            decomp_hits: registry.counter(
                "ppr_decomp_cache_hits_total",
                "Bucket decompositions skipped via the structure-keyed order cache",
            ),
            op_rows,
            op_time_us,
            slowlog: Arc::new(SlowLog::new(DEFAULT_SLOWLOG_CAPACITY)),
            registry,
        })
    }
}

/// Human-readable rendering of the slow-query log, one line per entry
/// (slowest first) — the body of the metrics endpoint's `/slowlog` page.
pub fn render_slowlog(entries: &[SlowEntry]) -> String {
    let mut out = String::with_capacity(128 * (entries.len() + 1));
    out.push_str("# slow queries, worst first: total_us db@version fingerprint method outcome spans rows tuples scanned peak stages threads passes decomp ops\n");
    for e in entries {
        let spans: Vec<String> = PHASES
            .iter()
            .map(|p| format!("{}={}", p.name(), e.spans.get(*p)))
            .collect();
        out.push_str(&format!(
            "{} {}@{} {:032x} {} {} {} rows={} tuples={} scanned={} peak={} stages={} threads={} passes={} decomp={} ops={}\n",
            e.total_us,
            e.db,
            e.version,
            e.fingerprint,
            e.method,
            e.outcome,
            spans.join(","),
            e.rows,
            e.tuples_flowed,
            e.rows_scanned,
            e.peak_materialized,
            e.join_stages,
            e.threads_used,
            e.passes_run,
            u8::from(e.decomp_hit),
            if e.op_digest.is_empty() {
                "-"
            } else {
                &e.op_digest
            },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registers_the_documented_names() {
        let m = ServiceMetrics::new();
        m.requests_total.inc();
        m.phase_us[Phase::Exec as usize].record(120);
        let text = m.registry.render_prometheus();
        for name in [
            "ppr_requests_total",
            "ppr_request_errors_total",
            "ppr_request_phase_us",
            "ppr_request_total_us",
            "ppr_result_rows",
            "ppr_exec_tuples_flowed",
            "ppr_exec_rows_scanned",
            "ppr_index_probes_total",
            "ppr_index_builds_total",
            "ppr_passes_run_total",
            "ppr_decomp_cache_hits_total",
            "ppr_op_rows_total",
            "ppr_op_time_us",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("phase=\"exec\""));
        assert!(text.contains("op=\"ix_join\""));
        assert_eq!(m.slowlog.capacity(), DEFAULT_SLOWLOG_CAPACITY);
    }

    #[test]
    fn slowlog_renders_one_line_per_entry() {
        let m = ServiceMetrics::new();
        let mut spans = ppr_obs::TraceSpans::new();
        spans.set(Phase::Exec, 400);
        let entry = SlowEntry {
            db: "graphs".into(),
            version: 3,
            fingerprint: 0xabc,
            method: "ep".into(),
            outcome: "ok".into(),
            total_us: 512,
            spans,
            rows: 6,
            tuples_flowed: 42,
            peak_materialized: 9,
            join_stages: 2,
            threads_used: 1,
            rows_scanned: 18,
            passes_run: 3,
            decomp_hit: true,
            op_digest: "ix_join:edge:6:12".into(),
            seq: 0,
        };
        m.slowlog.record(entry.total_us, |e| *e = entry);
        let text = render_slowlog(&m.slowlog.snapshot());
        assert!(text.contains("512 graphs@3"));
        assert!(text.contains("exec=400"));
        assert!(text.contains("rows=6"));
        assert!(text.contains("scanned=18"));
        assert!(text.contains("passes=3"));
        assert!(text.contains("decomp=1"));
        assert!(text.contains("ops=ix_join:edge:6:12"));
    }
}
