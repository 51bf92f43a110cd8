//! Cross-method correctness: every optimization method must compute
//! exactly the same result as the unoptimized baseline, and the baseline
//! must match an independent reference — a backtracking solver for the
//! Boolean answer, the benchmark's assignment enumerator for the rows.

use std::collections::HashMap;

use projection_pushing::prelude::*;
use projection_pushing::relalg::{AttrId, Relation};
use projection_pushing::workload::{color::is_colorable, random_sat, sat_query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The backtracking enumerator the benchmark checks replies against:
/// std-only, shares no code with `relalg`.
#[path = "../benchmark/src/oracle.rs"]
mod oracle;

/// The answer rows of `q` over `db` (columns in `q.free` order, sorted)
/// straight from the conjunctive-query semantics.
fn oracle_rows(q: &ConjunctiveQuery, db: &Database) -> Vec<Vec<u32>> {
    let mut index: HashMap<AttrId, usize> = HashMap::new();
    let atoms: Vec<oracle::Atom> = q
        .atoms
        .iter()
        .map(|atom| {
            let args = atom
                .args
                .iter()
                .map(|&v| {
                    let next = index.len();
                    *index.entry(v).or_insert(next)
                })
                .collect();
            (atom.relation.clone(), args)
        })
        .collect();
    let free: Vec<usize> = q.free.iter().map(|v| index[v]).collect();
    let rels: oracle::Relations = atoms
        .iter()
        .map(|(name, _)| {
            let rel = db.expect(name);
            (
                name.clone(),
                rel.tuples().iter().map(|t| t.to_vec()).collect(),
            )
        })
        .collect();
    oracle::answers(index.len(), &atoms, &free, &rels)
}

/// `rel`'s rows, sorted, for comparison with [`oracle_rows`].
fn sorted_rows(rel: &Relation) -> Vec<Vec<u32>> {
    let mut rows: Vec<Vec<u32>> = rel.tuples().iter().map(|t| t.to_vec()).collect();
    rows.sort_unstable();
    rows
}

fn all_methods() -> Vec<Method> {
    vec![
        Method::Naive,
        Method::Straightforward,
        Method::EarlyProjection,
        Method::Reordering,
        Method::BucketElimination(OrderHeuristic::Mcs),
        Method::BucketElimination(OrderHeuristic::MinDegree),
        Method::BucketElimination(OrderHeuristic::MinFill),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Boolean 3-COLOR: all methods agree with backtracking search.
    #[test]
    fn boolean_color_agrees_with_reference(order in 4usize..10, extra in 0usize..12, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = order * (order - 1) / 2;
        let m = (order - 1 + extra).min(max);
        let g = projection_pushing::graph::generate::random_graph(order, m, &mut rng);
        prop_assume!(!g.edges().is_empty());
        let (q, db) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng);
        let expected = is_colorable(&g, 3);
        for method in all_methods() {
            let (rel, _) = Eval::new(&q, &db).method(method).seed(seed).run().unwrap();
            prop_assert_eq!(!rel.is_empty(), expected, "{} disagrees", method.name());
        }
    }

    /// Non-Boolean 3-COLOR: all methods return the same relation (as a
    /// set) as the straightforward baseline, whose rows are exactly the
    /// oracle's.
    #[test]
    fn non_boolean_color_results_match(order in 4usize..9, extra in 0usize..8, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = order * (order - 1) / 2;
        let m = (order - 1 + extra).min(max);
        let g = projection_pushing::graph::generate::random_graph(order, m, &mut rng);
        prop_assume!(!g.edges().is_empty());
        let (q, db) = color_query(&g, &ColorQueryOptions::non_boolean(), &mut rng);
        let (baseline, _) = Eval::new(&q, &db)
            .method(Method::Straightforward)
            .seed(seed)
            .run()
            .unwrap();
        prop_assert_eq!(baseline.schema().attrs(), &q.free[..]);
        prop_assert_eq!(sorted_rows(&baseline), oracle_rows(&q, &db));
        for method in all_methods() {
            let (rel, _) = Eval::new(&q, &db).method(method).seed(seed).run().unwrap();
            prop_assert!(rel.set_eq(&baseline), "{} differs", method.name());
        }
    }

    /// 3-SAT: bucket elimination agrees with DPLL.
    #[test]
    fn sat_agrees_with_dpll(n in 4usize..9, m in 4usize..30, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assume!(n >= 3);
        let inst = random_sat(n, m, 3, &mut rng);
        let (q, db) = sat_query(&inst, 0.0, &mut rng);
        let expected = inst.is_satisfiable();
        for method in [Method::Straightforward, Method::BucketElimination(OrderHeuristic::Mcs)] {
            let (rel, _) = Eval::new(&q, &db).method(method).seed(seed).run().unwrap();
            prop_assert_eq!(!rel.is_empty(), expected, "{} disagrees", method.name());
        }
    }

    /// 2-SAT variant.
    #[test]
    fn two_sat_agrees_with_dpll(n in 3usize..9, m in 3usize..20, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = random_sat(n, m, 2, &mut rng);
        let (q, db) = sat_query(&inst, 0.0, &mut rng);
        let expected = inst.is_satisfiable();
        let (rel, _) = Eval::new(&q, &db)
            .method(Method::BucketElimination(OrderHeuristic::Mcs))
            .seed(seed)
            .run()
            .unwrap();
        prop_assert_eq!(!rel.is_empty(), expected);
    }

    /// Every method's plan returns exactly the oracle's rows, on Boolean
    /// and 20%-free instances, under both the streaming and the fully
    /// materialized executor. The oracle shares no code with the planner,
    /// so this is the pipeline's row-level correctness check.
    #[test]
    fn executors_agree(
        order in 3usize..9,
        extra in 0usize..8,
        boolean in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        use projection_pushing::core::methods::build_plan;
        use projection_pushing::relalg::exec;
        let mut rng = StdRng::seed_from_u64(seed);
        let max = order * (order - 1) / 2;
        let m = (order - 1 + extra).min(max);
        let g = projection_pushing::graph::generate::random_graph(order, m, &mut rng);
        prop_assume!(!g.edges().is_empty());
        let options = if boolean {
            ColorQueryOptions::boolean()
        } else {
            ColorQueryOptions::non_boolean()
        };
        let (q, db) = color_query(&g, &options, &mut rng);
        let expected = oracle_rows(&q, &db);
        for method in all_methods() {
            let plan = build_plan(method, &q, &db, &mut rng);
            let (a, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
            let (b, _) = exec::execute_materialized(&plan, &Budget::unlimited()).unwrap();
            prop_assert!(a.set_eq(&b), "{} executors disagree", method.name());
            prop_assert_eq!(&sorted_rows(&b), &expected, "{} vs oracle", method.name());
        }
    }
}

#[test]
fn structured_families_answers() {
    // All structured families are bipartite-ish and 3-colorable; their
    // queries must be nonempty for every method.
    use projection_pushing::graph::families;
    for g in [
        families::augmented_path(6),
        families::ladder(5),
        families::augmented_ladder(4),
        families::augmented_circular_ladder(4),
    ] {
        let mut rng = StdRng::seed_from_u64(3);
        let (q, db) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng);
        for method in all_methods() {
            assert!(
                Eval::new(&q, &db)
                    .method(method)
                    .seed(3)
                    .nonempty()
                    .unwrap(),
                "{} on order-{} family",
                method.name(),
                g.order()
            );
        }
    }
}
