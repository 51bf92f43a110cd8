//! Cross-method correctness: every optimization method must compute
//! exactly the same result as the unoptimized baseline, and the baseline
//! must match an independent reference — a backtracking solver for the
//! Boolean answer, the benchmark's assignment enumerator for the rows. The
//! same enumerator checks the serving engine in every cache state.

use std::collections::HashMap;

use projection_pushing::prelude::*;
use projection_pushing::relalg::{AttrId, Relation};
use projection_pushing::service::{EngineHandle, DEFAULT_DB};
use projection_pushing::workload::{color::is_colorable, random_sat, sat_query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
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

/// `q` as rule text (`q(…) :- edge(…), …`), every variable renamed by
/// `rename`.
fn rule_text(q: &ConjunctiveQuery, rename: impl Fn(String) -> String) -> String {
    let name = |v: &AttrId| rename(q.vars.name(*v));
    let head: Vec<String> = q.free.iter().map(name).collect();
    let body: Vec<String> = q
        .atoms
        .iter()
        .map(|atom| {
            let args: Vec<String> = atom.args.iter().map(name).collect();
            format!("{}({})", atom.relation, args.join(", "))
        })
        .collect();
    format!("q({}) :- {}", head.join(", "), body.join(", "))
}

/// Runs `text` under `method` through the engine: its sorted rows and
/// whether they came from the result cache.
fn engine_rows(engine: &EngineHandle, text: &str, method: Method) -> (Vec<Vec<u32>>, bool) {
    let response = engine
        .execute(Request::new(text, method))
        .unwrap_or_else(|e| panic!("{} on {text}: {e}", method.name()));
    let mut rows: Vec<Vec<u32>> = response.rows.iter().map(|t| t.to_vec()).collect();
    rows.sort_unstable();
    (rows, response.result_cache_hit)
}

/// A fresh data directory for one durable catalog.
fn data_dir() -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ppr-methods-agree-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

    /// Every method's plan, run by the executor, returns exactly the
    /// oracle's rows, on Boolean and 20%-free instances. The oracle shares
    /// no code with the planner or the executor, so this is the pipeline's
    /// row-level correctness check.
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
            let (rel, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
            prop_assert_eq!(&sorted_rows(&rel), &expected, "{} vs oracle", method.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One oracle across the engine's cache states. For every method,
    /// `EngineHandle::execute` returns exactly the oracle's rows: cold;
    /// warm, for the query renamed with its atoms permuted (a result-cache
    /// hit); after a `Catalog::add` to a relation the query does not read
    /// (still a hit); after a `Catalog::add` of `edge(1,1)` (a miss, since
    /// the data it reads changed); and after the durable catalog is
    /// reopened from its data directory.
    #[test]
    fn engine_matches_oracle_across_cache_states(
        order in 3usize..8,
        extra in 0usize..6,
        boolean in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
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
        let text = rule_text(&q, |name| name);
        let mut perm: Vec<usize> = (0..q.num_atoms()).collect();
        perm.shuffle(&mut rng);
        let renamed = rule_text(&q.permuted(&perm), |name| format!("r{name}"));

        let dir = data_dir();
        let (catalog, _) = Catalog::open(&dir).expect("open data dir");
        catalog.insert(DEFAULT_DB, db.clone()).expect("insert");
        let engine = Engine::start(catalog, EngineConfig::default());
        let handle = engine.handle();
        let expected = oracle_rows(&q, &db);
        for method in all_methods() {
            let (rows, hit) = engine_rows(&handle, &text, method);
            prop_assert!(!hit, "{} cold", method.name());
            prop_assert_eq!(&rows, &expected, "{} cold", method.name());
        }
        for method in all_methods() {
            let (rows, hit) = engine_rows(&handle, &renamed, method);
            prop_assert!(hit, "{} warm: {renamed}", method.name());
            prop_assert_eq!(&rows, &expected, "{} warm", method.name());
        }

        let catalog = handle.catalog();
        catalog.add(DEFAULT_DB, "unread", vec![1, 1].into_boxed_slice()).expect("add");
        for method in all_methods() {
            let (rows, hit) = engine_rows(&handle, &text, method);
            prop_assert!(hit, "{} after an unread add", method.name());
            prop_assert_eq!(&rows, &expected, "{} after an unread add", method.name());
        }
        catalog.add(DEFAULT_DB, "edge", vec![1, 1].into_boxed_slice()).expect("add");
        let mutated = catalog.snapshot(DEFAULT_DB).expect("default db").db;
        let expected = oracle_rows(&q, &mutated);
        for method in all_methods() {
            let (rows, hit) = engine_rows(&handle, &text, method);
            prop_assert!(!hit, "{} after add", method.name());
            prop_assert_eq!(&rows, &expected, "{} after add", method.name());
        }
        drop((catalog, handle));
        engine.shutdown();

        let (catalog, _) = Catalog::open(&dir).expect("reopen data dir");
        let engine = Engine::start(catalog, EngineConfig::default());
        for method in all_methods() {
            let (rows, _) = engine_rows(&engine.handle(), &text, method);
            prop_assert_eq!(&rows, &expected, "{} after reopen", method.name());
        }
        engine.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
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
