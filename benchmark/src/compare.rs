//! `benchmark compare A B`: two result sets side by side.
//!
//! A result set is one result file or a directory of them (several
//! back-to-back sets of the same code). Per (metric, workload) it prints
//! both medians, the candidate's change relative to the baseline, and a
//! verdict under the metric's bound; exact counters compare by equality.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Kind, Metric, METRICS};
use crate::stats::{median, spread, verdict, verdict_exact, worsening, Verdict};
use crate::workloads::Workload;

/// (workload, metric) → one value per result file of the set.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn read_set(path: &Path) -> Result<Samples, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let p = entry.map_err(|e| e.to_string())?.path();
            let name = p
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if name.ends_with(".json") && !name.ends_with(".trace.json") {
                files.push(p);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{}: no result files", path.display()));
    }
    let mut samples = Samples::new();
    for file in files {
        let text = fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        let workloads = doc
            .get("workloads")
            .ok_or_else(|| format!("{}: no `workloads`", file.display()))?;
        for (workload, slot) in workloads.members() {
            for section in ["end_to_end", "per_layer"] {
                for (metric, value) in slot.get(section).map(Json::members).unwrap_or_default() {
                    if let Some(x) = value.as_f64() {
                        samples
                            .entry((workload.clone(), metric.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    Ok(samples)
}

/// One line of the comparison.
pub struct Row {
    pub workload: String,
    pub metric: &'static Metric,
    pub base: f64,
    pub candidate: f64,
    /// Positive = worse, as a share of the baseline median.
    pub worsening: f64,
    pub base_spread: Option<f64>,
    pub candidate_spread: Option<f64>,
    pub verdict: Verdict,
}

/// Compares every (metric, workload) pair both sets report. Bounded
/// verdicts apply to end-to-end metrics; per-layer timings have no bound,
/// so only their medians and change are shown (`verdict` is `Same`), and
/// exact counters must be equal.
pub fn compare(base: &Path, candidate: &Path) -> Result<Vec<Row>, String> {
    let (a, b) = (read_set(base)?, read_set(candidate)?);
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        for m in METRICS {
            let key = (workload.name().to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let verdict = if m.exact {
                verdict_exact(va, vb)
            } else if m.kind == Kind::EndToEnd {
                verdict(va, vb, m.better, m.bound)
            } else {
                Verdict::Same
            };
            rows.push(Row {
                workload: key.0,
                metric: m,
                base: median(va),
                candidate: median(vb),
                worsening: worsening(median(va), median(vb), m.better),
                base_spread: spread(va),
                candidate_spread: spread(vb),
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn print(rows: &[Row]) {
    println!(
        "{:15} {:30} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base median", "cand median", "worse by", "spr A", "spr B", "bound"
    );
    let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
    // A zero base has no relative change to print.
    let change = |w: f64| {
        if w.is_finite() {
            format!("{:+.1}%", w * 100.0)
        } else {
            "-".to_string()
        }
    };
    for r in rows {
        let m = r.metric;
        let (bound, verdict) = match (m.kind, m.exact) {
            (_, true) => ("exact".to_string(), r.verdict.name()),
            (Kind::EndToEnd, _) => (format!("{:.0}%", m.bound * 100.0), r.verdict.name()),
            (Kind::Layer, _) => ("-".to_string(), "(no bound)"),
        };
        println!(
            "{:15} {:30} {:>14.3} {:>14.3} {:>9} {:>7} {:>7} {:>6}  {}",
            r.workload,
            m.name,
            r.base,
            r.candidate,
            change(r.worsening),
            pct(r.base_spread),
            pct(r.candidate_spread),
            bound,
            verdict,
        );
    }
    println!("(`worse by`: candidate median relative to the base median, in the metric's worse direction; base = first argument)");
}
