//! Criterion benches for the design-choice ablations called out in
//! DESIGN.md §5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use ppr_core::methods::{build_plan, Method, OrderHeuristic};
use ppr_relalg::{exec, Budget};
use ppr_workload::{InstanceSpec, QueryShape};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spec(order: usize, density: f64) -> InstanceSpec {
    InstanceSpec {
        shape: QueryShape::Random { order, density },
        seed: 11,
        free_fraction: 0.0,
    }
}

/// MCS vs min-degree vs min-fill bucket orders.
fn ablation_orders(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_orders");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let budget = Budget::tuples(50_000_000);
    for density in [3.0, 6.0] {
        let (q, db) = spec(16, density).build();
        for heuristic in [
            OrderHeuristic::Mcs,
            OrderHeuristic::MinDegree,
            OrderHeuristic::MinFill,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("{heuristic:?}"), density),
                &heuristic,
                |b, &h| {
                    b.iter(|| {
                        let mut rng = StdRng::seed_from_u64(3);
                        let plan = build_plan(Method::BucketElimination(h), &q, &db, &mut rng);
                        exec::execute(&plan, &budget).expect("fits budget")
                    })
                },
            );
        }
    }
    group.finish();
}

/// Pipelined vs fully materialized execution of identical plans.
fn ablation_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_pipeline");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let budget = Budget::tuples(50_000_000);
    let (q, db) = spec(12, 3.0).build();
    let mut rng = StdRng::seed_from_u64(5);
    let plan = build_plan(Method::EarlyProjection, &q, &db, &mut rng);
    group.bench_function("pipelined", |b| {
        b.iter(|| exec::execute(&plan, &budget).expect("ok"))
    });
    group.bench_function("materialized", |b| {
        b.iter(|| exec::execute_materialized(&plan, &budget).expect("ok"))
    });
    group.finish();
}

/// Mini-bucket bound sweep vs exact bucket elimination.
fn ablation_minibucket(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_minibucket");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let budget = Budget::tuples(50_000_000);
    let (q, db) = spec(16, 5.0).build();
    for bound in [2usize, 3, 4, 8] {
        group.bench_with_input(BenchmarkId::new("mb", bound), &bound, |b, &bound| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(9);
                let out = ppr_core::minibucket::plan(&q, &db, bound, &mut rng);
                exec::execute(&out.plan, &budget).expect("ok")
            })
        });
    }
    group.bench_function("exact", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(9);
            let plan = build_plan(
                Method::BucketElimination(OrderHeuristic::Mcs),
                &q,
                &db,
                &mut rng,
            );
            exec::execute(&plan, &budget).expect("ok")
        })
    });
    group.finish();
}

/// Greedy reordering tie-breaking: full greedy vs a random permutation
/// fed to early projection.
fn ablation_greedy(c: &mut Criterion) {
    use rand::seq::SliceRandom;
    let mut group = c.benchmark_group("ablation_greedy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let budget = Budget::tuples(50_000_000);
    let (q, db) = spec(14, 2.0).build();
    group.bench_function("greedy", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let plan = build_plan(Method::Reordering, &q, &db, &mut rng);
            exec::execute(&plan, &budget).expect("ok")
        })
    });
    group.bench_function("random_order", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut perm: Vec<usize> = (0..q.num_atoms()).collect();
            perm.shuffle(&mut rng);
            let permuted = q.permuted(&perm);
            let plan = build_plan(Method::EarlyProjection, &permuted, &db, &mut rng);
            exec::execute(&plan, &budget).expect("ok")
        })
    });
    group.finish();
}

/// DISTINCT vs plain projection at subquery boundaries.
fn ablation_distinct(c: &mut Criterion) {
    use ppr_relalg::exec::ExecOptions;
    let mut group = c.benchmark_group("ablation_distinct");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let budget = Budget::tuples(50_000_000);
    let (q, db) = spec(12, 3.0).build();
    let mut rng = StdRng::seed_from_u64(5);
    let plan = build_plan(
        Method::BucketElimination(OrderHeuristic::Mcs),
        &q,
        &db,
        &mut rng,
    );
    for dedup in [true, false] {
        group.bench_with_input(BenchmarkId::new("dedup", dedup), &dedup, |b, &dedup| {
            b.iter(|| {
                exec::execute_with(
                    &plan,
                    &budget,
                    ExecOptions {
                        dedup_subqueries: dedup,
                        ..ExecOptions::default()
                    },
                )
                .expect("ok")
            })
        });
    }
    group.finish();
}

/// Hash vs sort-merge vs nested-loop joins (materialized operators).
fn ablation_join_algorithm(c: &mut Criterion) {
    use ppr_relalg::ops::{self, JoinAlgorithm};
    let mut group = c.benchmark_group("ablation_join_algorithm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let (q, db) = spec(10, 3.0).build();
    for algo in [
        JoinAlgorithm::Hash,
        JoinAlgorithm::SortMerge,
        JoinAlgorithm::NestedLoop,
    ] {
        group.bench_with_input(
            BenchmarkId::new("algo", format!("{algo:?}")),
            &algo,
            |b, &algo| {
                b.iter(|| {
                    let mut acc = ops::bind(&db.expect(&q.atoms[0].relation), &q.atoms[0].args);
                    for atom in &q.atoms[1..] {
                        let next = ops::bind(&db.expect(&atom.relation), &atom.args);
                        acc = ops::join_with(&acc, &next, algo);
                        if acc.len() > 500_000 {
                            break;
                        }
                    }
                    acc.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    ablations,
    ablation_orders,
    ablation_pipeline,
    ablation_minibucket,
    ablation_greedy,
    ablation_distinct,
    ablation_join_algorithm
);
criterion_main!(ablations);
