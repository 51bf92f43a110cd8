//! The metric table: every number the benchmark reports, with its unit,
//! direction, regression bound and the layer it belongs to.
//!
//! `BENCHMARK.json` carries the same names, units, directions and bounds
//! for the metrics defined on every workload; a unit test keeps the two in
//! step. Metrics that exist on one workload only ([`Scope::MutateMix`])
//! live here and in the result files alone, because the driver's contract
//! wants every listed metric reported by every workload.

use crate::stats::Better;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the server sees; carries a regression bound.
    EndToEnd,
    /// One layer's share; no bound.
    Layer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Reported by every workload (and listed in `BENCHMARK.json`).
    All,
    /// Reported by `mutate_mix` only.
    MutateMix,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    pub scope: Scope,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
    /// A counter from the single-threaded layer replay that must repeat
    /// bit for bit; compared by equality, never by tolerance.
    pub exact: bool,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::EndToEnd,
        scope: Scope::All,
        bound,
        exact: false,
        what,
    }
}

const fn mutate_only(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    what: &'static str,
) -> Metric {
    Metric {
        scope: Scope::MutateMix,
        ..e2e(name, unit, Better::Lower, bound, what)
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind: Kind::Layer,
        scope: Scope::All,
        bound: 0.0,
        exact: false,
        what,
    }
}

const fn exact(name: &'static str, unit: &'static str, what: &'static str) -> Metric {
    Metric {
        exact: true,
        ..layer(name, unit, Better::Lower, what)
    }
}

use Better::{Higher, Lower};

pub const METRICS: &[Metric] = &[
    // ---- end to end -------------------------------------------------
    e2e("throughput_rps", "req/s", Higher, 0.25,
        "correct replies per second of window wall time; median over the window's ten slices"),
    e2e("read_p50_us", "us", Lower, 0.25,
        "client-observed `run` latency, submit to tagged reply decoded: median of the per-slice exact p50s"),
    e2e("read_p95_us", "us", Lower, 0.25,
        "same latency, exact p95 over all of the window's read samples (p90 and p99 are printed beside it)"),
    e2e("server_cpu_us_per_req", "us", Lower, 0.25,
        "server utime+stime from /proc/<pid>/stat per completed request; median over slices"),
    e2e("server_rss_peak_mb", "MiB", Lower, 0.25,
        "server VmHWM at the end of the window"),
    e2e("setup_s", "s", Lower, 0.25,
        "spawn to listening to relations loaded to warm-up done; median of 3 to 15 set-ups"),
    mutate_only("write_p50_us", "us", 0.25,
        "client-observed `add` latency over the whole window, exact p50"),
    mutate_only("write_p95_us", "us", 0.25,
        "same, exact p95 (sample count printed beside it)"),
    mutate_only("recovery_s", "s", 0.25,
        "SIGKILL to restarted server answering `dbs`; every acknowledged add must then be visible"),
    // ---- net --------------------------------------------------------
    layer("net.ping_rtt_us", "us", Lower, "depth-1 `ping` round trip, p50"),
    layer("net.overhead_us", "us", Lower,
        "depth-1 wire latency of the ledger requests minus in-process engine.execute_us"),
    layer("net.unexplained_us", "us", Lower,
        "net.overhead_us minus the protocol layer calls and one ping round trip: the ledger's remainder"),
    layer("net.remainder_us", "us", Lower,
        "at workload depth: mean client latency minus the server's mean ppr_request_total_us"),
    // ---- protocol ---------------------------------------------------
    layer("protocol.decode_command_us", "us", Lower, "split_request_tag + decode_command per request (replay)"),
    layer("protocol.encode_result_us", "us", Lower, "encode_result/encode_ack + tag_reply per request (replay)"),
    layer("protocol.frame_us", "us", Lower, "LineFramer::push + next_line per request line (replay)"),
    layer("protocol.client_encode_us", "us", Lower, "harness span: encode_command + tag_request"),
    layer("protocol.client_decode_us", "us", Lower, "harness span: split_reply_tag + decode_result/decode_ack"),
    exact("protocol.request_bytes", "B", "mean request line bytes over the replayed requests"),
    exact("protocol.reply_bytes", "B", "mean reply line bytes over the replayed requests"),
    // ---- engine -----------------------------------------------------
    layer("engine.queue_wait_us", "us", Lower, "server mean of ppr_request_phase_us{phase=queue_wait} over the window"),
    layer("engine.total_us", "us", Lower, "server mean of ppr_request_total_us over the window"),
    layer("engine.execute_us", "us", Lower, "in-process EngineHandle::execute at depth 1 over the ledger requests"),
    layer("engine.overhead_us", "us", Lower, "engine.execute_us minus the replayed layer calls made inside the engine"),
    layer("engine.rejected", "count", Lower, "requests refused by admission control during the window"),
    // ---- query ------------------------------------------------------
    layer("query.parse_us", "us", Lower, "parse_query per run request (replay)"),
    layer("query.fingerprint_us", "us", Lower, "QueryIdentity::of per run request (replay)"),
    exact("query.atoms", "count", "mean body atoms per run request"),
    // ---- cache ------------------------------------------------------
    layer("cache.result_hit_ratio", "ratio", Higher, "result-cache hits / lookups over the window (`stats` diff)"),
    layer("cache.plan_hit_ratio", "ratio", Higher, "plan-cache hits / lookups over the window"),
    layer("cache.decomp_hit_ratio", "ratio", Higher, "decomposition-cache hits / lookups over the window"),
    layer("cache.result_evictions", "count", Lower, "result-cache evictions during the window"),
    layer("cache.lookup_us", "us", Lower, "server mean of ppr_request_phase_us{phase=cache_lookup}"),
    layer("cache.result_get_us", "us", Lower, "ResultCache::get per run request (replay)"),
    layer("cache.result_insert_us", "us", Lower, "ResultCache::insert per run request (replay; misses only do one)"),
    // ---- core -------------------------------------------------------
    layer("core.plan_us", "us", Lower, "plan_query per run request (replay; result-cache hits do none)"),
    layer("core.pass.decompose_us", "us", Lower, "PlanReport::pass_spans, pass `decompose`, per run request"),
    layer("core.pass.bucket-build_us", "us", Lower, "PlanReport::pass_spans, pass `bucket-build`, per run request"),
    exact("core.passes_run", "count", "optimizer passes run over the replayed requests"),
    // ---- relalg -----------------------------------------------------
    layer("relalg.exec_us", "us", Lower, "exec::execute per run request (replay)"),
    layer("relalg.ns_per_tuple", "ns", Lower, "exec time / tuples_flowed over the replay"),
    exact("relalg.tuples_flowed", "count", "ExecStats::tuples_flowed summed over the replay"),
    exact("relalg.rows_scanned", "count", "ExecStats::rows_scanned summed over the replay"),
    exact("relalg.index_probes", "count", "ExecStats::index_probes summed over the replay"),
    exact("relalg.index_builds", "count", "ExecStats::index_builds summed over the replay"),
    exact("relalg.peak_materialized", "count", "largest ExecStats::peak_materialized in the replay"),
    exact("relalg.max_arity", "count", "widest ExecStats::max_intermediate_arity in the replay"),
    // ---- catalog ----------------------------------------------------
    layer("catalog.add_us", "us", Lower, "Catalog::add on a memory-only catalog at the workload's relation sizes"),
    layer("catalog.fingerprint_db_us", "us", Lower, "fingerprint_db of the workload's database"),
    layer("catalog.snapshot_us", "us", Lower, "Catalog::snapshot per run request (replay)"),
    // ---- durability -------------------------------------------------
    layer("durability.fsync_us", "us", Lower, "mean ppr_wal_fsync_us per commit"),
    layer("durability.wal_bytes_per_add", "B", Lower, "ppr_wal_bytes_total per add (user data: 8 B per tuple)"),
    layer("durability.snapshot_writes", "count", Lower, "ppr_snapshot_writes_total over the window"),
    layer("durability.recovery_replayed", "count", Lower, "WAL records replayed by a restart on the data directory"),
    // ---- harness ----------------------------------------------------
    layer("harness.generate_s", "s", Lower, "building the instance pool and its expected answers"),
    layer("trace.overhead_pct", "%", Lower, "throughput lost between the untraced and the traced pass"),
];

/// The metrics of `kind` reported by every workload, in table order.
pub fn common(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(move |m| m.kind == kind && m.scope == Scope::All)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` is what the driver reads; the table above is what
    /// the binary reports. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_table() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let listed = doc.get(key).expect(key).items();
            let table: Vec<&Metric> = common(kind).collect();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, metric) in listed.iter().zip(table) {
                let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or_default();
                assert_eq!(field("name"), metric.name);
                assert_eq!(field("unit"), metric.unit, "{}", metric.name);
                assert_eq!(field("better"), metric.better.name(), "{}", metric.name);
                let bound = entry.get("bound").and_then(Json::as_f64);
                match kind {
                    Kind::EndToEnd => assert_eq!(bound, Some(metric.bound), "{}", metric.name),
                    Kind::Layer => assert_eq!(bound, None, "{}", metric.name),
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.bound <= 0.25);
        }
        assert!(common(Kind::EndToEnd).any(|m| m.name == "setup_s"));
    }
}
