//! The repo benchmark: four closed-loop workloads against a spawned
//! `ppr serve`, end-to-end metrics from an untraced window and a per-layer
//! ledger from a traced run plus an in-process layer replay. See
//! `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--workload NAME] [--trace 0|1] [--seed N] [--seconds S]
//!               [--smoke] [--check-determinism] [--ppr PATH] [--out DIR]
//! benchmark compare A B
//! benchmark metrics
//! ```
//!
//! `run` with `--workload` and `--trace` is the driver's contract: one run,
//! whose last stdout line is the result object. Without them it runs every
//! workload both ways, prints every metric and writes `<out>/results.json`.

mod compare;
mod instances;
mod json;
mod metrics;
mod oracle;
mod replay;
mod report;
mod run;
mod server;
mod stats;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{run_end_to_end, run_traced, Config, RunResult};
use workloads::Workload;

const USAGE: &str =
    "usage: benchmark run [--workload NAME] [--trace 0|1] [--seed N] [--seconds S] \
[--smoke] [--check-determinism] [--ppr PATH] [--out DIR]\n       benchmark compare A B\n       benchmark metrics";

/// `run_seconds` of `BENCHMARK.json`: the default window.
const DEFAULT_SECONDS: f64 = 20.0;
const SMOKE_SECONDS: f64 = 0.5;

struct RunArgs {
    cfg: Config,
    workload: Option<Workload>,
    trace: Option<bool>,
    check_determinism: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut parsed = RunArgs {
        cfg: Config {
            ppr: PathBuf::from(target).join("release").join("ppr"),
            out_dir: PathBuf::from("benchmark/out"),
            seed: 1,
            seconds: DEFAULT_SECONDS,
            smoke: false,
        },
        workload: None,
        trace: None,
        check_determinism: false,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--seed" => parsed.cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--ppr" => parsed.cfg.ppr = PathBuf::from(value()?),
            "--out" => parsed.cfg.out_dir = PathBuf::from(value()?),
            "--smoke" => parsed.cfg.smoke = true,
            "--check-determinism" => parsed.check_determinism = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    parsed.cfg.seconds = match seconds {
        Some(s) if s > 0.0 => s,
        Some(s) => return Err(format!("--seconds must be positive, got {s}")),
        None if parsed.cfg.smoke => SMOKE_SECONDS,
        None => DEFAULT_SECONDS,
    };
    Ok(parsed)
}

fn one_run(cfg: &Config, workload: Workload, traced: bool) -> Result<RunResult, String> {
    let result = if traced {
        run_traced(cfg, workload)
    } else {
        run_end_to_end(cfg, workload)
    };
    result.map_err(|e| format!("{}: {e}", workload.name()))
}

/// Runs the layer replay twice and requires identical exact counters.
fn check_determinism(cfg: &Config, workloads: &[Workload]) -> Result<(), String> {
    let scratch = server::Scratch::new(&cfg.out_dir, "determinism").map_err(|e| e.to_string())?;
    let (pool, _) = run::pool_for(cfg);
    for &workload in workloads {
        let counters = || -> Result<Vec<(&'static str, f64)>, String> {
            let replayed = replay::replay(workload, cfg.seed, &pool, cfg.smoke, &scratch.path)
                .map_err(|e| format!("{}: {e}", workload.name()))?;
            Ok(replay::exact_counters(&replayed))
        };
        let (first, second) = (counters()?, counters()?);
        if first != second {
            return Err(format!(
                "{}: exact counters differ between two replays:\n{first:?}\n{second:?}",
                workload.name()
            ));
        }
        println!(
            "{}: {} exact counters identical across two replays",
            workload.name(),
            first.len()
        );
    }
    Ok(())
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let RunArgs {
        cfg,
        workload,
        trace,
        check_determinism: determinism,
    } = parse_run_args(args)?;
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let workloads: Vec<Workload> = workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    if determinism {
        return check_determinism(&cfg, &workloads).map(|()| true);
    }
    let load_start = report::load_average();
    if load_start > report::cpus() as f64 {
        eprintln!(
            "warning: load average {load_start} exceeds {} cpus; results flagged",
            report::cpus()
        );
    }

    // The driver's contract: one workload, one mode, result on the last line.
    if let (Some(workload), Some(traced)) = (workload, trace) {
        let result = one_run(&cfg, workload, traced)?;
        report::print_run(&result);
        println!("{}", report::contract_line(&result));
        return Ok(result.correct());
    }

    let mut all_correct = true;
    let mut slots = Vec::new();
    for &workload in &workloads {
        let mut runs = Vec::new();
        for traced in [false, true] {
            if trace.is_some_and(|t| t != traced) {
                continue;
            }
            let result = one_run(&cfg, workload, traced)?;
            report::print_run(&result);
            all_correct &= result.correct();
            runs.push(result);
        }
        slots.push((
            workload.name().to_string(),
            report::workload_json(workload, &runs),
        ));
    }
    let doc = Json::obj([
        ("provenance", report::provenance(&cfg, load_start)),
        ("workloads", Json::Obj(slots)),
    ]);
    let path = cfg.out_dir.join("results.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    if cfg.smoke {
        smoke_assertions(&doc, &workloads, trace)?;
        println!(
            "smoke: result shape and fail_ratio == 0 hold for {} workload(s)",
            workloads.len()
        );
    }
    Ok(all_correct)
}

/// `--smoke`: the result file has every metric the table promises and no
/// request failed.
fn smoke_assertions(doc: &Json, workloads: &[Workload], trace: Option<bool>) -> Result<(), String> {
    for workload in workloads {
        let slot = doc
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .ok_or_else(|| format!("{}: missing from results", workload.name()))?;
        for (section, kind, traced) in [
            ("end_to_end", metrics::Kind::EndToEnd, false),
            ("per_layer", metrics::Kind::Layer, true),
        ] {
            if trace.is_some_and(|t| t != traced) {
                continue;
            }
            for m in metrics::common(kind) {
                let value = slot
                    .get(section)
                    .and_then(|s| s.get(m.name))
                    .and_then(Json::as_f64);
                if value.is_none() {
                    return Err(format!(
                        "{}: {section}.{} missing or not a number",
                        workload.name(),
                        m.name
                    ));
                }
            }
            let failed = slot
                .get(&format!("{section}_failed"))
                .and_then(Json::as_f64);
            if failed != Some(0.0) {
                return Err(format!(
                    "{}: {section} failed = {failed:?}",
                    workload.name()
                ));
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(args[1].as_ref(), args[2].as_ref())
            .map(|rows| {
                compare::print(&rows);
                true
            }),
        Some("metrics") if args.len() == 1 => {
            report::print_metric_table();
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: wrong answers were returned (see FAILED lines)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
