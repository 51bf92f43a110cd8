//! Regenerates the paper's figures from the command line.
//!
//! ```text
//! experiments <target> [--seeds N] [--timeout-ms T] [--max-tuples M] [--full] [--quick] [--free F] [--plot]
//!
//! targets: fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!          sat3 sat2 theorems
//!          ablation-orders ablation-pipeline ablation-minibucket
//!          ablation-distinct ablation-greedy
//!          durability semijoin limits all
//! ```
//!
//! `durability` sweeps the persistence axis (memory-only / WAL /
//! WAL+fsync-every-commit) on the catalog mutation path and measures
//! cold-recovery time against database size, writing the report to
//! `results/BENCH_durability.json`.
//!
//! `--quick` shrinks `durability` to its smallest grid — a CI smoke mode
//! that exercises the full measurement and report path without producing
//! publishable numbers.
//!
//! Each figure target also runs its non-Boolean (20%-free) variant when
//! the paper plots one; pass `--free 0` to restrict to Boolean.
//!
//! Serving performance is measured by the repo benchmark (`benchmark/`,
//! `BENCHMARK.json`), not here.

use std::io::Write;
use std::time::Duration;

use ppr_bench::figures::{self, Config};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let target = args[0].clone();
    let mut cfg = Config::default();
    let mut free: Option<f64> = None;
    let mut plot = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                cfg.seeds = next_val(&args, &mut i);
            }
            "--timeout-ms" => {
                cfg.timeout = Duration::from_millis(next_val(&args, &mut i));
            }
            "--max-tuples" => {
                cfg.max_tuples = next_val(&args, &mut i);
            }
            "--full" => {
                cfg.full = true;
                i += 1;
            }
            "--quick" => {
                cfg.quick = true;
                i += 1;
            }
            "--plot" => {
                plot = true;
                i += 1;
            }
            "--free" => {
                let v: f64 = next_val(&args, &mut i);
                free = Some(v);
            }
            other => {
                eprintln!("unknown flag {other}");
                usage_and_exit();
            }
        }
    }
    if plot {
        // Capture the sweep, print both the TSV and its ASCII chart.
        let mut buf: Vec<u8> = Vec::new();
        run(&target, &cfg, free, &mut buf);
        let text = String::from_utf8(buf).expect("utf8 output");
        print!("{text}");
        let points = ppr_bench::plot::parse_tsv(&text);
        if !points.is_empty() {
            println!(
                "
{}",
                ppr_bench::plot::render(&points, 16)
            );
        }
    } else {
        let out = std::io::stdout();
        let mut w = out.lock();
        run(&target, &cfg, free, &mut w);
    }
}

fn next_val<T: std::str::FromStr>(args: &[String], i: &mut usize) -> T
where
    T::Err: std::fmt::Debug,
{
    let v = args
        .get(*i + 1)
        .unwrap_or_else(|| {
            eprintln!("missing value for {}", args[*i]);
            std::process::exit(2)
        })
        .parse()
        .expect("numeric flag value");
    *i += 2;
    v
}

fn run(target: &str, cfg: &Config, free: Option<f64>, mut w: &mut dyn Write) {
    // The paper plots Boolean and 20%-free variants side by side.
    let variants: Vec<f64> = match free {
        Some(f) => vec![f],
        None => vec![0.0, 0.2],
    };
    let with_variants = |w: &mut &mut dyn Write, f: &dyn Fn(&mut &mut dyn Write, &Config, f64)| {
        for &v in &variants {
            writeln!(w, "# free_fraction={v}").expect("write");
            f(w, cfg, v);
        }
    };
    match target {
        "fig1" => figures::fig1(&mut w),
        "fig2" => figures::fig2(&mut w, cfg),
        "fig3" => with_variants(&mut w, &|mut w, c, v| figures::fig3(&mut w, c, v)),
        "fig4" => with_variants(&mut w, &|mut w, c, v| figures::fig4(&mut w, c, v)),
        "fig5" => with_variants(&mut w, &|mut w, c, v| figures::fig5(&mut w, c, v)),
        "fig6" => with_variants(&mut w, &|mut w, c, v| figures::fig6(&mut w, c, v)),
        "fig7" => with_variants(&mut w, &|mut w, c, v| figures::fig7(&mut w, c, v)),
        "fig8" => with_variants(&mut w, &|mut w, c, v| figures::fig8(&mut w, c, v)),
        "fig9" => with_variants(&mut w, &|mut w, c, v| figures::fig9(&mut w, c, v)),
        "sat3" => figures::sat(&mut w, cfg, 3),
        "sat2" => figures::sat(&mut w, cfg, 2),
        "theorems" => figures::theorems(&mut w),
        "ablation-orders" => figures::ablation_orders(&mut w, cfg),
        "ablation-pipeline" => figures::ablation_pipeline(&mut w, cfg),
        "ablation-minibucket" => figures::ablation_minibucket(&mut w, cfg),
        "ablation-distinct" => figures::ablation_distinct(&mut w, cfg),
        "ablation-greedy" => figures::ablation_greedy(&mut w, cfg),
        "durability" => {
            // Persist the machine-readable report before printing: a
            // downstream pipe closing stdout must not lose the artifact.
            let report = ppr_bench::durability::durability_rows(cfg);
            let json = ppr_bench::durability::durability_report_json(cfg, &report);
            let path = std::path::Path::new("results");
            if std::fs::create_dir_all(path).is_ok() {
                let file = path.join("BENCH_durability.json");
                match std::fs::write(&file, &json) {
                    Ok(()) => eprintln!("wrote {}", file.display()),
                    Err(e) => eprintln!("could not write {}: {e}", file.display()),
                }
            }
            ppr_bench::durability::print_durability_rows(&mut w, &report);
        }
        "semijoin" => figures::semijoin_usefulness(&mut w, cfg),
        "limits" => figures::limits_php(&mut w, cfg),
        "all" => {
            for t in [
                "fig1",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "sat3",
                "sat2",
                "theorems",
                "ablation-orders",
                "ablation-pipeline",
                "ablation-minibucket",
                "ablation-distinct",
                "ablation-greedy",
                "durability",
                "semijoin",
                "limits",
            ] {
                writeln!(w, "== {t} ==").expect("write");
                run(t, cfg, free, &mut *w);
                writeln!(w).expect("write");
            }
        }
        other => {
            eprintln!("unknown target {other}");
            usage_and_exit();
        }
    }
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: experiments <fig1..fig9|sat3|sat2|theorems|ablation-*|all> \
         [--seeds N] [--timeout-ms T] [--max-tuples M] [--full] [--quick] [--free F]"
    );
    std::process::exit(2)
}
