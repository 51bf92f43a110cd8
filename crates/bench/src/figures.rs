//! One sweep per paper figure.
//!
//! Each `figN` function regenerates the series of the corresponding figure
//! and writes logscale-ready TSV (`x  method  median_ms  timeouts  runs
//! median_tuples  max_arity`) to the given writer. DESIGN.md §4 maps the
//! figures to these functions; EXPERIMENTS.md records paper-vs-measured.

use std::io::Write;
use std::time::Duration;

use ppr_core::methods::{Method, OrderHeuristic};
use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{Budget, Plan};
use ppr_workload::{InstanceSpec, QueryShape};

use crate::harness::{run_method, summarize, MethodOutcome};

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds (instances) per data point; the paper reports medians.
    pub seeds: u64,
    /// Per-run wall-clock budget.
    pub timeout: Duration,
    /// Per-run tuple-flow budget.
    pub max_tuples: u64,
    /// Denser parameter grids (the paper's full resolution).
    pub full: bool,
    /// Smoke-test grids: the smallest instance per workload family, for
    /// CI runs that only assert the artifacts parse. Overrides `full`.
    pub quick: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seeds: 3,
            timeout: Duration::from_millis(2000),
            max_tuples: 20_000_000,
            full: false,
            quick: false,
        }
    }
}

impl Config {
    /// The execution budget for one run.
    pub fn budget(&self) -> Budget {
        Budget {
            max_tuples_flowed: self.max_tuples,
            max_materialized: self.max_tuples,
            timeout: Some(self.timeout),
        }
    }
}

/// TSV header used by every sweep.
pub fn header(w: &mut impl Write) {
    writeln!(
        w,
        "x\tmethod\tmedian_ms\ttimeouts\truns\tmedian_tuples\tmax_arity"
    )
    .expect("write");
}

/// Runs the paper's method lineup on one instance point over seeds and
/// prints a row per method.
fn point(
    w: &mut impl Write,
    x: &str,
    methods: &[Method],
    make: impl Fn(u64) -> (ConjunctiveQuery, Database),
    cfg: &Config,
) {
    let budget = cfg.budget();
    for &method in methods {
        let outcomes: Vec<MethodOutcome> = (0..cfg.seeds)
            .map(|s| {
                let (q, db) = make(s);
                run_method(method, &q, &db, &budget, s ^ 0x9e37)
            })
            .collect();
        row(w, x, method.name(), &outcomes, cfg);
    }
}

/// Prints one [`header`] row summarizing `outcomes` under `label`.
fn row(w: &mut impl Write, x: &str, label: &str, outcomes: &[MethodOutcome], cfg: &Config) {
    let cell = summarize(outcomes, cfg.timeout);
    writeln!(
        w,
        "{x}\t{label}\t{:.3}\t{}\t{}\t{}\t{}",
        cell.median_millis,
        cell.timeouts,
        cell.runs,
        cell.median_tuples
            .map(|t| format!("{t:.0}"))
            .unwrap_or_else(|| "-".into()),
        cell.max_arity
            .map(|a| a.to_string())
            .unwrap_or_else(|| "-".into()),
    )
    .expect("write");
}

fn color_point(w: &mut impl Write, x: &str, shape: QueryShape, free_fraction: f64, cfg: &Config) {
    point(
        w,
        x,
        &Method::paper_lineup(),
        |seed| {
            InstanceSpec {
                shape,
                seed,
                free_fraction,
            }
            .build()
        },
        cfg,
    );
}

/// Figure 1: the structured families (shape summary; the queries
/// themselves are exercised by figs 6–9).
pub fn fig1(w: &mut impl Write) {
    use ppr_graph::families;
    writeln!(w, "family\torder_param\tvertices\tedges\ttreewidth").expect("write");
    for n in [3usize, 4, 5] {
        let rows: [(&str, ppr_graph::Graph); 4] = [
            ("augmented_path", families::augmented_path(n)),
            ("ladder", families::ladder(n)),
            ("augmented_ladder", families::augmented_ladder(n)),
            (
                "augmented_circular_ladder",
                families::augmented_circular_ladder(n),
            ),
        ];
        for (name, g) in rows {
            let tw = ppr_graph::treewidth::treewidth_exact(&g);
            writeln!(w, "{name}\t{n}\t{}\t{}\t{tw}", g.order(), g.size()).expect("write");
        }
    }
}

/// Figure 2: compile time, naive vs straightforward formulation — 3-SAT
/// with 5 variables (the figure's caption), densities 1–8. The naive
/// planner is the System-R DP while the subset space fits and PostgreSQL
/// 7.2's GEQO beyond; the straightforward "planner" costs a single plan.
pub fn fig2(w: &mut impl Write, cfg: &Config) {
    let densities: Vec<f64> = (1..=8).map(|d| d as f64).collect();
    fig2_with_densities(w, cfg, &densities);
}

/// [`fig2`] restricted to an explicit density grid (the unit tests use a
/// short grid — the DP planner is exponential by design and slow in debug
/// builds).
pub fn fig2_with_densities(w: &mut impl Write, cfg: &Config, densities: &[f64]) {
    use ppr_costplanner::{compile, geqo::PoolPolicy, Planner};
    writeln!(
        w,
        "density\tformulation\tplanner\tmedian_ms\tmedian_plans_considered"
    )
    .expect("write");
    let n = 5usize;
    for &d in densities {
        let m = (d * n as f64).round() as usize;
        let naive_planner = if m <= ppr_costplanner::dp::MAX_DP_ATOMS {
            Planner::ExhaustiveDp
        } else {
            Planner::Geqo(PoolPolicy::Pg72 { cap: 1 << 16 })
        };
        for (formulation, planner) in [
            ("naive", naive_planner),
            ("straightforward", Planner::FixedOrder),
        ] {
            let mut times = Vec::new();
            let mut plans = Vec::new();
            for seed in 0..cfg.seeds {
                let spec = InstanceSpec {
                    shape: QueryShape::Sat {
                        order: n,
                        density: d,
                        k: 3,
                    },
                    seed,
                    free_fraction: 0.0,
                };
                let (q, db) = spec.build();
                let r = compile(planner, &q, &db, seed);
                times.push(r.elapsed.as_secs_f64() * 1e3);
                plans.push(r.plans_considered as f64);
            }
            writeln!(
                w,
                "{d}\t{formulation}\t{planner:?}\t{:.3}\t{:.0}",
                crate::harness::median(times).unwrap_or(f64::NAN),
                crate::harness::median(plans).unwrap_or(f64::NAN),
            )
            .expect("write");
        }
    }
}

/// Figure 3: 3-COLOR density scaling at order 20 (Boolean and 20%-free).
pub fn fig3(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    header(w);
    let densities: Vec<f64> = if cfg.full {
        (1..=16).map(|i| i as f64 * 0.5).collect()
    } else {
        vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    };
    for d in densities {
        color_point(
            w,
            &format!("{d}"),
            QueryShape::Random {
                order: 20,
                density: d,
            },
            free_fraction,
            cfg,
        );
    }
}

/// Figure 4: 3-COLOR order scaling at density 3.0.
pub fn fig4(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    header(w);
    let orders: Vec<usize> = if cfg.full {
        (10..=35).collect()
    } else {
        vec![10, 15, 20, 25, 30, 35]
    };
    for n in orders {
        color_point(
            w,
            &n.to_string(),
            QueryShape::Random {
                order: n,
                density: 3.0,
            },
            free_fraction,
            cfg,
        );
    }
}

/// Figure 5: 3-COLOR order scaling at density 6.0.
pub fn fig5(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    header(w);
    let orders: Vec<usize> = if cfg.full {
        (15..=30).collect()
    } else {
        vec![15, 20, 25, 30]
    };
    for n in orders {
        color_point(
            w,
            &n.to_string(),
            QueryShape::Random {
                order: n,
                density: 6.0,
            },
            free_fraction,
            cfg,
        );
    }
}

fn structured(
    w: &mut impl Write,
    cfg: &Config,
    free_fraction: f64,
    shape_of: impl Fn(usize) -> QueryShape,
    min_order: usize,
) {
    header(w);
    let orders: Vec<usize> = if cfg.full {
        (min_order..=50).collect()
    } else {
        (min_order..=50).step_by(5).collect()
    };
    for n in orders {
        color_point(w, &n.to_string(), shape_of(n), free_fraction, cfg);
    }
}

/// Figure 6: augmented path queries.
pub fn fig6(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    structured(
        w,
        cfg,
        free_fraction,
        |n| QueryShape::AugmentedPath { order: n },
        5,
    );
}

/// Figure 7: ladder queries.
pub fn fig7(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    structured(
        w,
        cfg,
        free_fraction,
        |n| QueryShape::Ladder { order: n },
        5,
    );
}

/// Figure 8: augmented ladder queries.
pub fn fig8(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    structured(
        w,
        cfg,
        free_fraction,
        |n| QueryShape::AugmentedLadder { order: n },
        5,
    );
}

/// Figure 9: augmented circular ladder queries.
pub fn fig9(w: &mut impl Write, cfg: &Config, free_fraction: f64) {
    structured(
        w,
        cfg,
        free_fraction,
        |n| QueryShape::AugmentedCircularLadder { order: n },
        3,
    );
}

/// §7's SAT claim: 3-SAT density scaling (the 2-SAT variant runs with
/// `k = 2`).
pub fn sat(w: &mut impl Write, cfg: &Config, k: usize) {
    header(w);
    let order = if k == 3 { 12 } else { 20 };
    let densities: Vec<f64> = if k == 3 {
        vec![1.0, 2.0, 3.0, 4.0, 4.3, 5.0, 6.0, 7.0, 8.0]
    } else {
        vec![0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
    };
    for d in densities {
        point(
            w,
            &format!("{d}"),
            &Method::paper_lineup(),
            |seed| {
                InstanceSpec {
                    shape: QueryShape::Sat {
                        order,
                        density: d,
                        k,
                    },
                    seed,
                    free_fraction: 0.0,
                }
                .build()
            },
            cfg,
        );
    }
}

/// Ablation: bucket-elimination order heuristics (MCS vs min-degree vs
/// min-fill) on the random workload.
pub fn ablation_orders(w: &mut impl Write, cfg: &Config) {
    header(w);
    let methods = [
        Method::BucketElimination(OrderHeuristic::Mcs),
        Method::BucketElimination(OrderHeuristic::MinDegree),
        Method::BucketElimination(OrderHeuristic::MinFill),
    ];
    for d in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
        point(
            w,
            &format!("{d}"),
            &methods,
            |seed| {
                InstanceSpec {
                    shape: QueryShape::Random {
                        order: 20,
                        density: d,
                    },
                    seed,
                    free_fraction: 0.0,
                }
                .build()
            },
            cfg,
        );
    }
}

/// Ablation: the greedy reordering heuristic (§4) vs a uniformly random
/// atom permutation fed to early projection, on random order-14
/// density-2 instances — how much of reordering's gain is the heuristic
/// rather than any reshuffle of the listing order.
pub fn ablation_greedy(w: &mut impl Write, cfg: &Config) {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    header(w);
    let make = |seed| {
        InstanceSpec {
            shape: QueryShape::Random {
                order: 14,
                density: 2.0,
            },
            seed,
            free_fraction: 0.0,
        }
        .build()
    };
    point(w, "2", &[Method::Reordering], make, cfg);
    let budget = cfg.budget();
    let outcomes: Vec<MethodOutcome> = (0..cfg.seeds)
        .map(|s| {
            let (q, db) = make(s);
            let mut perm: Vec<usize> = (0..q.num_atoms()).collect();
            perm.shuffle(&mut StdRng::seed_from_u64(s ^ 0x9e37));
            run_method(Method::EarlyProjection, &q.permuted(&perm), &db, &budget, s)
        })
        .collect();
    row(w, "2", "random-order", &outcomes, cfg);
}

/// Ablation: pipelined vs fully materialized execution of the same
/// early-projection plan. The materialized baseline is the same plan with
/// every join wrapped in a full-width `ProjectDistinct` (see
/// `materialize_joins`), run by the same executor.
pub fn ablation_pipeline(w: &mut impl Write, cfg: &Config) {
    use ppr_core::methods::build_plan;
    use ppr_relalg::exec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    writeln!(w, "order\texecutor\tmedian_ms\ttimeouts").expect("write");
    let budget = cfg.budget();
    for n in [8usize, 10, 12, 14] {
        for executor in ["pipelined", "materialized"] {
            let mut times = Vec::new();
            let mut timeouts = 0usize;
            for seed in 0..cfg.seeds {
                let spec = InstanceSpec {
                    shape: QueryShape::Random {
                        order: n,
                        density: 3.0,
                    },
                    seed,
                    free_fraction: 0.0,
                };
                let (q, db) = spec.build();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut plan = build_plan(Method::EarlyProjection, &q, &db, &mut rng);
                if executor == "materialized" {
                    plan = materialize_joins(&plan);
                }
                let started = std::time::Instant::now();
                match exec::execute(&plan, &budget) {
                    Ok(_) => times.push(started.elapsed().as_secs_f64() * 1e3),
                    Err(_) => {
                        timeouts += 1;
                        times.push(cfg.timeout.as_secs_f64() * 1e3);
                    }
                }
            }
            writeln!(
                w,
                "{n}\t{executor}\t{:.3}\t{timeouts}",
                crate::harness::median(times).unwrap_or(f64::NAN)
            )
            .expect("write");
        }
    }
}

/// `plan` with every `Join` wrapped in a full-width `ProjectDistinct`. Join
/// outputs of set inputs are sets, so the wrapper's dedup removes nothing;
/// it ends the pipeline there, so each join is materialized before its
/// consumer runs — the fully materialized baseline on the one executor.
fn materialize_joins(plan: &Plan) -> Plan {
    match plan {
        Plan::Scan { .. } => plan.clone(),
        Plan::Join { left, right } => {
            let join = materialize_joins(left).join(materialize_joins(right));
            let keep = join.schema().expect("valid plan").attrs().to_vec();
            join.project(keep)
        }
        Plan::ProjectDistinct { input, keep } => materialize_joins(input).project(keep.clone()),
    }
}

/// Ablation: mini-bucket bound sweep — decision quality (how often the
/// relaxation is conclusive) and speed vs exact bucket elimination.
pub fn ablation_minibucket(w: &mut impl Write, cfg: &Config) {
    use ppr_relalg::exec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    writeln!(w, "bound\tdensity\tmedian_ms\tconclusive\truns").expect("write");
    let budget = cfg.budget();
    for d in [4.0f64, 6.0] {
        for bound in [2usize, 3, 4, 6, 10] {
            let mut times = Vec::new();
            let mut conclusive = 0usize;
            let mut runs = 0usize;
            for seed in 0..cfg.seeds {
                let spec = InstanceSpec {
                    shape: QueryShape::Random {
                        order: 16,
                        density: d,
                    },
                    seed,
                    free_fraction: 0.0,
                };
                let (q, db) = spec.build();
                let mut rng = StdRng::seed_from_u64(seed);
                let out = ppr_core::minibucket::plan(&q, &db, bound, &mut rng);
                let started = std::time::Instant::now();
                if let Ok((rel, _)) = exec::execute(&out.plan, &budget) {
                    times.push(started.elapsed().as_secs_f64() * 1e3);
                    // Empty relaxation or exact plan ⇒ the answer is decided.
                    if rel.is_empty() || out.exact {
                        conclusive += 1;
                    }
                } else {
                    times.push(cfg.timeout.as_secs_f64() * 1e3);
                }
                runs += 1;
            }
            writeln!(
                w,
                "{bound}\t{d}\t{:.3}\t{conclusive}\t{runs}",
                crate::harness::median(times).unwrap_or(f64::NAN)
            )
            .expect("write");
        }
    }
}

/// Ablation: bucket elimination with vs without `DISTINCT` at subquery
/// boundaries — isolates de-duplication as the mechanism that keeps
/// intermediate results small.
pub fn ablation_distinct(w: &mut impl Write, cfg: &Config) {
    use ppr_core::methods::build_plan;
    use ppr_relalg::exec::{self, ExecOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    writeln!(w, "density\tdedup\tmedian_ms\ttimeouts\tmedian_tuples").expect("write");
    let budget = cfg.budget();
    for d in [1.0f64, 2.0, 3.0] {
        for dedup in [true, false] {
            let mut times = Vec::new();
            let mut tuples = Vec::new();
            let mut timeouts = 0usize;
            for seed in 0..cfg.seeds {
                let spec = InstanceSpec {
                    shape: QueryShape::Random {
                        order: 22,
                        density: d,
                    },
                    seed,
                    free_fraction: 0.0,
                };
                let (q, db) = spec.build();
                let mut rng = StdRng::seed_from_u64(seed);
                let plan = build_plan(
                    Method::BucketElimination(OrderHeuristic::Mcs),
                    &q,
                    &db,
                    &mut rng,
                );
                let started = std::time::Instant::now();
                match exec::execute_with(
                    &plan,
                    &budget,
                    ExecOptions {
                        dedup_subqueries: dedup,
                        ..ExecOptions::default()
                    },
                ) {
                    Ok((_, stats)) => {
                        times.push(started.elapsed().as_secs_f64() * 1e3);
                        tuples.push(stats.tuples_flowed as f64);
                    }
                    Err(_) => {
                        timeouts += 1;
                        times.push(cfg.timeout.as_secs_f64() * 1e3);
                    }
                }
            }
            writeln!(
                w,
                "{d}\t{dedup}\t{:.3}\t{timeouts}\t{}",
                crate::harness::median(times).unwrap_or(f64::NAN),
                crate::harness::median(tuples)
                    .map(|t| format!("{t:.0}"))
                    .unwrap_or_else(|| "-".into()),
            )
            .expect("write");
        }
    }
}

/// Ablation: hash vs sort-merge vs nested-loop joins on the materialized
/// executor (the paper selected hash joins "as most efficient").
pub fn ablation_join(w: &mut impl Write, cfg: &Config) {
    use ppr_relalg::ops::{self, JoinAlgorithm};
    writeln!(w, "order\talgorithm\tmedian_ms").expect("write");
    for n in [8usize, 10, 12] {
        for algo in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::SortMerge,
            JoinAlgorithm::NestedLoop,
        ] {
            let mut times = Vec::new();
            for seed in 0..cfg.seeds {
                let spec = InstanceSpec {
                    shape: QueryShape::Random {
                        order: n,
                        density: 3.0,
                    },
                    seed,
                    free_fraction: 0.0,
                };
                let (q, db) = spec.build();
                // Evaluate a bucket-shaped computation with materialized
                // joins under the chosen algorithm: join each consecutive
                // atom pair and project to shared vars.
                let started = std::time::Instant::now();
                let mut acc = ops::bind(&db.expect(&q.atoms[0].relation), &q.atoms[0].args);
                for atom in &q.atoms[1..] {
                    let next = ops::bind(&db.expect(&atom.relation), &atom.args);
                    acc = ops::join_with(&acc, &next, algo);
                    if acc.len() > 2_000_000 {
                        break; // cap the blowup uniformly for all algorithms
                    }
                }
                times.push(started.elapsed().as_secs_f64() * 1e3);
            }
            writeln!(
                w,
                "{n}\t{algo:?}\t{:.3}",
                crate::harness::median(times).unwrap_or(f64::NAN)
            )
            .expect("write");
        }
    }
}

/// The §2 claim made executable: semijoin reduction removes nothing on
/// the COLOR workloads (every projection of the edge relation is the full
/// domain), but on selective relations — a successor chain — it prunes,
/// and can decide the query outright.
pub fn semijoin_usefulness(w: &mut impl Write, cfg: &Config) {
    use ppr_core::reduce::semijoin_reduce;
    writeln!(w, "workload\tshrinkage\tproven_empty\tpasses").expect("write");
    for (label, colors) in [("3color_d3", 3u32), ("2color_d3", 2)] {
        for seed in 0..cfg.seeds {
            let spec = InstanceSpec {
                shape: QueryShape::Random {
                    order: 12,
                    density: 3.0,
                },
                seed,
                free_fraction: 0.0,
            };
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            use rand::SeedableRng;
            let graph = spec.graph(&mut rng);
            let opts = ppr_workload::ColorQueryOptions {
                colors,
                free_fraction: 0.0,
            };
            let (q, db) = ppr_workload::color_query(&graph, &opts, &mut rng);
            let r = semijoin_reduce(&q, &db, 5);
            writeln!(
                w,
                "{label}/seed{seed}\t{:.3}\t{}\t{}",
                r.shrinkage(),
                r.proven_empty,
                r.passes
            )
            .expect("write");
        }
    }
    // Counterpoint: chain queries over the selective successor relation
    // succ = {(i, i+1) | i < D−1}. A chain of more hops than the domain
    // allows is proven empty by semijoins alone.
    for (label, hops, domain) in [
        ("succ_chain_sat", 4usize, 8u32),
        ("succ_chain_unsat", 10, 8),
    ] {
        use ppr_query::Atom;
        use ppr_query::Vars;
        use ppr_relalg::{AttrId, Relation, Schema};
        let mut vars = Vars::new();
        let v = vars.intern_numbered("x", hops + 1);
        let atoms = (1..=hops)
            .map(|i| Atom::new("succ", vec![v[i - 1], v[i]]))
            .collect();
        let q = ConjunctiveQuery::new(atoms, vec![v[0]], vars, true);
        let mut db = Database::new();
        let schema = Schema::new(vec![AttrId(7_100_000), AttrId(7_100_001)]);
        let rows = (0..domain - 1)
            .map(|i| vec![i, i + 1].into_boxed_slice())
            .collect();
        db.add(Relation::from_distinct_rows("succ", schema, rows));
        let r = ppr_core::reduce::semijoin_reduce(&q, &db, 20);
        writeln!(
            w,
            "{label}\t{:.3}\t{}\t{}",
            r.shrinkage(),
            r.proven_empty,
            r.passes
        )
        .expect("write");
    }
}

/// Limits experiment: pigeonhole instances have complete constraint
/// graphs (treewidth = pigeons − 1), the regime where Theorem 1 says *no*
/// structural method can stay polynomial. Bucket elimination still
/// dominates, but every method's curve is exponential in the pigeon
/// count.
pub fn limits_php(w: &mut impl Write, cfg: &Config) {
    header(w);
    for pigeons in [4usize, 5, 6, 7, 8] {
        let holes = pigeons as u32; // satisfiable boundary (hardest)
        point(
            w,
            &pigeons.to_string(),
            &Method::paper_lineup(),
            |_seed| ppr_workload::php_query(pigeons, holes),
            cfg,
        );
    }
}

/// Theorem validation table: exact join width vs treewidth + 1 and exact
/// induced width vs treewidth on random small queries.
pub fn theorems(w: &mut impl Write) {
    use ppr_core::width;
    writeln!(
        w,
        "instance\ttreewidth\tjoin_width\tinduced_width\ttheorem1\ttheorem2"
    )
    .expect("write");
    for seed in 0..10u64 {
        let spec = InstanceSpec {
            shape: QueryShape::Random {
                order: 8,
                density: 1.5,
            },
            seed,
            free_fraction: if seed % 2 == 0 { 0.0 } else { 0.25 },
        };
        let (q, _) = spec.build();
        let tw = width::join_graph_treewidth(&q);
        let (jw, _) = width::join_width_exact(&q);
        let (iw, _) = width::induced_width_exact(&q);
        writeln!(
            w,
            "{spec}\t{tw}\t{jw}\t{iw}\t{}\t{}",
            jw == tw + 1,
            iw == tw
        )
        .expect("write");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Config {
        Config {
            seeds: 1,
            timeout: Duration::from_millis(500),
            max_tuples: 2_000_000,
            full: false,
            quick: false,
        }
    }

    #[test]
    fn fig1_prints_all_families() {
        let mut out = Vec::new();
        fig1(&mut out);
        let s = String::from_utf8(out).unwrap();
        assert_eq!(s.lines().count(), 1 + 12);
        assert!(s.contains("augmented_circular_ladder"));
    }

    #[test]
    fn fig2_reports_both_formulations() {
        let mut out = Vec::new();
        fig2_with_densities(&mut out, &tiny(), &[1.0, 2.0]);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("naive"));
        assert!(s.contains("straightforward"));
        assert_eq!(s.lines().count(), 1 + 2 * 2);
    }

    #[test]
    fn fig6_rows_cover_methods() {
        let mut cfg = tiny();
        cfg.seeds = 1;
        let mut out = Vec::new();
        // Restrict to a short sweep by temporarily treating order 5..10.
        structured(
            &mut out,
            &cfg,
            0.0,
            |n| QueryShape::AugmentedPath { order: n },
            45,
        );
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("bucket-mcs"));
        assert!(s.contains("straightforward"));
    }

    #[test]
    fn ablation_distinct_shows_blowup() {
        let mut out = Vec::new();
        ablation_distinct(&mut out, &tiny());
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("true"));
        assert!(s.contains("false"));
        assert_eq!(s.lines().count(), 1 + 3 * 2);
    }

    #[test]
    fn ablation_greedy_reports_both_orders() {
        let mut out = Vec::new();
        ablation_greedy(&mut out, &tiny());
        let s = String::from_utf8(out).unwrap();
        assert_eq!(s.lines().count(), 1 + 2);
        assert!(s.contains("\treordering\t"));
        assert!(s.contains("\trandom-order\t"));
    }

    #[test]
    fn ablation_join_covers_algorithms() {
        let mut out = Vec::new();
        ablation_join(&mut out, &tiny());
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Hash"));
        assert!(s.contains("SortMerge"));
        assert!(s.contains("NestedLoop"));
    }

    #[test]
    fn semijoin_usefulness_reports_zero_shrinkage_for_3color() {
        let mut out = Vec::new();
        semijoin_usefulness(&mut out, &tiny());
        let s = String::from_utf8(out).unwrap();
        for line in s.lines().filter(|l| l.starts_with("3color")) {
            let shrink: f64 = line.split('\t').nth(1).unwrap().parse().unwrap();
            assert_eq!(shrink, 0.0, "{line}");
        }
    }

    #[test]
    fn limits_php_runs() {
        let mut cfg = tiny();
        cfg.seeds = 1;
        let mut out = Vec::new();
        limits_php(&mut out, &cfg);
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("bucket-mcs"));
        assert_eq!(s.lines().count(), 1 + 5 * 4);
    }

    #[test]
    fn theorems_hold_on_the_sample() {
        let mut out = Vec::new();
        theorems(&mut out);
        let s = String::from_utf8(out).unwrap();
        for line in s.lines().skip(1) {
            assert!(line.ends_with("true\ttrue"), "{line}");
        }
    }

    /// ROADMAP's standing rule — a refactor leaves the tuple-count column
    /// of `results/results.tsv` unchanged — as a check: a sub-second
    /// slice of fig8 (Boolean, default seeds) must reproduce the
    /// committed rows' machine-independent columns.
    #[test]
    fn fig8_slice_matches_committed_results() {
        /// `(x, method, median_tuples, max_arity)` of one TSV row.
        fn key(row: &str) -> [&str; 4] {
            let c: Vec<&str> = row.split('\t').collect();
            [c[0], c[1], c[5], c[6]]
        }
        let golden: Vec<[&str; 4]> = include_str!("../../../results/results.tsv")
            .lines()
            .skip_while(|l| *l != "== fig8 ==")
            .skip(3) // section title, "# free_fraction=0", column header
            .take_while(|l| l.contains('\t'))
            .map(key)
            .collect();
        let methods = [
            Method::EarlyProjection,
            Method::BucketElimination(OrderHeuristic::Mcs),
        ];
        let mut out = Vec::new();
        for n in [5usize, 10] {
            let make = |seed| {
                InstanceSpec {
                    shape: QueryShape::AugmentedLadder { order: n },
                    seed,
                    free_fraction: 0.0,
                }
                .build()
            };
            point(&mut out, &n.to_string(), &methods, make, &Config::default());
        }
        let measured = String::from_utf8(out).unwrap();
        assert_eq!(measured.lines().count(), 4);
        for row in measured.lines() {
            assert!(golden.contains(&key(row)), "not in results.tsv: {row}");
        }
    }
}
