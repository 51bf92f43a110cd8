//! Turning runs into output: the per-workload report a person reads, the
//! result file `benchmark compare` reads, the contract's final JSON line,
//! and the provenance stamped on all of them.

use std::fs;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, Kind, Metric, Scope, METRICS};
use crate::run::{Config, RunResult};
use crate::server::server_flags;
use crate::workloads::Workload;

fn first_line(path: &str) -> String {
    fs::read_to_string(path)
        .ok()
        .and_then(|t| t.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// 1-minute load average, `NaN` when unreadable.
pub fn load_average() -> f64 {
    first_line("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .unwrap_or(f64::NAN)
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where and how a result was measured. `load_start` is taken by the
/// caller before the first run.
pub fn provenance(cfg: &Config, load_start: f64) -> Json {
    let load_end = load_average();
    let nproc = cpus();
    Json::obj([
        ("nproc", Json::num(nproc as f64)),
        (
            "kernel",
            Json::str(first_line("/proc/sys/kernel/osrelease")),
        ),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        // "unknown" outside a git checkout (the driver's copy is not one).
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::num(cfg.seed as f64)),
        ("window_seconds", Json::num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("server_flags", Json::str(server_flags(None).join(" "))),
        (
            "server_flags_mutate_mix",
            Json::str(server_flags(Some("<tmp>".as_ref())).join(" ")),
        ),
        (
            "fsync",
            Json::str("on for mutate_mix (fsync on every commit); no data dir elsewhere"),
        ),
        ("loadavg_start", Json::num(load_start)),
        ("loadavg_end", Json::num(load_end)),
        // Flagged, not failed: the numbers of a busy host are still numbers.
        (
            "loadavg_above_nproc",
            Json::Bool(load_start > nproc as f64 || load_end > nproc as f64),
        ),
    ])
}

/// The contract's result object: `--trace 0` carries every end-to-end
/// metric of `BENCHMARK.json`, `--trace 1` every per-layer one.
pub fn contract_line(result: &RunResult) -> Json {
    let kind = if result.traced {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    let listed = metrics::common(kind).map(|m| {
        let value = result.values.get(m.name).copied().unwrap_or(f64::NAN);
        (
            m.name,
            Json::obj([("value", Json::num(value)), ("unit", Json::str(m.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::num(result.attempted as f64)),
        ("failed", Json::num(result.failed as f64)),
        ("metrics", Json::obj(listed)),
    ])
}

fn reported_by(metric: &Metric, workload: Workload) -> bool {
    metric.scope == Scope::All || workload == Workload::MutateMix
}

/// One workload's slot in a result file.
pub fn workload_json(workload: Workload, runs: &[RunResult]) -> Json {
    let mut members: Vec<(String, Json)> = Vec::new();
    for run in runs {
        let kind = if run.traced {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        let values: Vec<(String, Json)> = METRICS
            .iter()
            .filter(|m| m.kind == kind && reported_by(m, workload))
            .filter_map(|m| {
                run.values
                    .get(m.name)
                    .map(|v| (m.name.to_string(), Json::num(*v)))
            })
            .collect();
        let prefix = if run.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        members.push((prefix.to_string(), Json::Obj(values)));
        members.push((
            format!("{prefix}_attempted"),
            Json::num(run.attempted as f64),
        ));
        members.push((format!("{prefix}_failed"), Json::num(run.failed as f64)));
        members.push((format!("{prefix}_detail"), run.detail.clone()));
    }
    Json::Obj(members)
}

/// Every metric of one run by name, with its unit.
pub fn print_run(result: &RunResult) {
    let kind = if result.traced {
        Kind::Layer
    } else {
        Kind::EndToEnd
    };
    println!(
        "== {} · {} · attempted {} failed {} (fail_ratio {}) ==",
        result.workload.name(),
        if result.traced {
            "per-layer (traced run + layer replay)"
        } else {
            "end-to-end (untraced window)"
        },
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    for m in METRICS
        .iter()
        .filter(|m| m.kind == kind && reported_by(m, result.workload))
    {
        if let Some(v) = result.values.get(m.name) {
            println!("  {:32} {:>14.3} {}", m.name, v, m.unit);
        }
    }
    for why in &result.failures {
        println!("  FAILED: {why}");
    }
    if result.traced {
        print_ledger(result);
    } else {
        let d = &result.detail;
        let list = |key: &str| -> String {
            d.get(key)
                .map(|a| {
                    a.items()
                        .iter()
                        .filter_map(Json::as_f64)
                        .map(|x| format!("{x:.0}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .unwrap_or_default()
        };
        println!(
            "  read samples: {:.0}; per slice: {}",
            d.get("read_samples")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            list("read_samples_per_slice")
        );
        // The tail either side of the bounded p95, as context.
        println!(
            "  whole-window read p90 / p99: {:.1} / {:.1} us",
            d.get("read_p90_us")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            d.get("read_p99_us")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
        println!("  slice throughput_rps:   {}", list("slice_throughput_rps"));
        println!("  slice read_p50_us:      {}", list("slice_read_p50_us"));
        println!(
            "  slice cpu_us_per_req:   {}",
            list("slice_server_cpu_us_per_req")
        );
        if let Some(n) = d.get("write_samples").and_then(Json::as_f64) {
            println!(
                "  write samples: {n:.0} · acknowledged adds {} · lost after recovery {} · fsync {}",
                d.get("acked_adds").and_then(Json::as_f64).unwrap_or(0.0),
                d.get("lost_acknowledged_writes").and_then(Json::as_f64).unwrap_or(f64::NAN),
                d.get("fsync").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    }
}

/// `benchmark metrics`: the metric table as markdown — the README's metric
/// definitions are this output, so they cannot drift from the code.
pub fn print_metric_table() {
    println!("| metric | unit | better | bound | scope | definition |");
    println!("|---|---|---|---|---|---|");
    for m in METRICS {
        let bound = match (m.kind, m.exact) {
            (Kind::EndToEnd, _) => format!("{:.0}%", m.bound * 100.0),
            (Kind::Layer, true) => "exact".to_string(),
            (Kind::Layer, false) => "—".to_string(),
        };
        let scope = match m.scope {
            Scope::All => "all",
            Scope::MutateMix => "`mutate_mix`",
        };
        println!(
            "| `{}` | {} | {} | {bound} | {scope} | {} |",
            m.name,
            m.unit,
            m.better.name(),
            m.what
        );
    }
}

/// The ledger: what the depth-1 wire latency is made of, and what is left.
fn print_ledger(result: &RunResult) {
    let Some(ledger) = result.detail.get("ledger") else {
        return;
    };
    let get = |key: &str| ledger.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let wire = get("wire_latency_us");
    println!("  ledger — depth-1 wire latency of the first ledger requests, cold start, mean µs per run request:");
    for (label, key) in [
        (
            "Σ layer calls inside the engine (replay)",
            "engine_side_layer_calls_us",
        ),
        ("+ engine.overhead_us", "engine_overhead_us"),
        (
            "+ protocol layer calls, server side",
            "protocol_layer_calls_us",
        ),
        (
            "+ client encode + decode (harness spans)",
            "client_codec_us",
        ),
        ("+ one ping round trip (net.ping_rtt_us)", "ping_rtt_us"),
        ("= unexplained remainder", "unexplained_us"),
    ] {
        println!(
            "    {:44} {:>10.2}  {:>5.1}% of wire",
            label,
            get(key),
            get(key) / wire * 100.0
        );
    }
    println!("    {:44} {:>10.2}", "depth-1 wire latency", wire);
    let detail = |key: &str| result.detail.get(key).and_then(Json::as_f64);
    println!(
        "  result cache after the untraced pass: {:.0} entries, {:.2} of {:.0} MiB",
        detail("result_cache_entries").unwrap_or(f64::NAN),
        detail("result_cache_bytes").unwrap_or(f64::NAN) / 1048576.0,
        detail("result_cache_capacity_bytes").unwrap_or(f64::NAN) / 1048576.0,
    );
    // How the workloads separate the layers: by the uncontended replay and
    // by the server's own phase means under load (4 workers and the client
    // share 2 CPUs, which stretches every phase and adds the queue wait).
    let v = |name: &str| result.values.get(name).copied().unwrap_or(f64::NAN);
    let phase = |name: &str| {
        let phases = result.detail.get("server_phase_mean_us");
        phases
            .and_then(|p| p.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let total = v("engine.total_us");
    let service = total - v("engine.queue_wait_us");
    println!(
        "  layer shares — plan+exec of engine.total_us: {:.1}% (replay) / {:.1}% (server phases); \
         parse+fingerprint of engine.total_us − queue wait: {:.1}% (replay) / {:.1}% (server phases)",
        (v("core.plan_us") + v("relalg.exec_us")) / total * 100.0,
        (phase("plan") + phase("exec")) / total * 100.0,
        (v("query.parse_us") + v("query.fingerprint_us")) / service * 100.0,
        (phase("parse") + phase("fingerprint")) / service * 100.0,
    );
}
