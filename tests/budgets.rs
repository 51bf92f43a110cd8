//! Budget semantics across the stack: budget errors are clean, monotone,
//! and leave results untouched when they do not trip.

use projection_pushing::prelude::*;
use projection_pushing::relalg::{budget::BudgetKind, exec, ExecStats, RelalgError, Relation};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn hard_instance(seed: u64) -> (ConjunctiveQuery, Database) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = projection_pushing::graph::generate::random_graph(14, 42, &mut rng);
    color_query(&g, &ColorQueryOptions::boolean(), &mut rng)
}

/// Plans `q` over `db` with `method` under `seed` and runs the plan under
/// `budget`.
fn run(
    q: &ConjunctiveQuery,
    db: &Database,
    method: Method,
    seed: u64,
    budget: Budget,
) -> Result<(Relation, ExecStats), RelalgError> {
    let plan = build_plan(method, q, db, &mut StdRng::seed_from_u64(seed));
    exec::execute(&plan, &budget)
}

#[test]
fn tuple_budget_reports_flow() {
    let (q, db) = hard_instance(1);
    let err = run(&q, &db, Method::Straightforward, 1, Budget::tuples(100)).unwrap_err();
    match err {
        RelalgError::BudgetExceeded {
            kind,
            tuples_flowed,
        } => {
            assert_eq!(kind, BudgetKind::Tuples);
            assert!(tuples_flowed >= 100);
        }
        other => panic!("unexpected error {other}"),
    }
}

#[test]
fn zero_timeout_trips_on_hard_instances() {
    let (q, db) = hard_instance(2);
    let budget = Budget::tuples(u64::MAX).with_timeout(Duration::from_millis(0));
    // The clock is only polled every 2^16 tuples, so tiny instances may
    // finish; this one flows millions of tuples with the straightforward
    // method and must hit the wall-clock check.
    let result = run(&q, &db, Method::Straightforward, 1, budget);
    match result {
        Err(RelalgError::BudgetExceeded { kind, .. }) => {
            assert!(matches!(kind, BudgetKind::WallClock | BudgetKind::Tuples));
        }
        Ok((_, stats)) => {
            // Finished before the first clock poll: must have been small.
            assert!(stats.tuples_flowed < (1 << 17), "{}", stats.tuples_flowed);
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Budgets are monotone: if a run finishes under budget B it also
    /// finishes under any larger budget with the same result.
    #[test]
    fn budget_monotonicity(seed in 0u64..200, cap in 1000u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = projection_pushing::graph::generate::random_graph(8, 14, &mut rng);
        prop_assume!(!g.edges().is_empty());
        let (q, db) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng);
        let small = run(&q, &db, Method::EarlyProjection, seed, Budget::tuples(cap));
        if let Ok((rel_small, _)) = small {
            let (rel_big, _) = run(&q, &db, Method::EarlyProjection, seed, Budget::tuples(cap * 10))
                .expect("larger budget cannot fail where smaller succeeded");
            prop_assert!(rel_small.set_eq(&rel_big));
        }
    }

    /// A tripped tuple budget reports at least the cap.
    #[test]
    fn tripped_budgets_report_at_least_cap(seed in 0u64..100) {
        let (q, db) = hard_instance(seed);
        let cap = 500u64;
        if let Err(RelalgError::BudgetExceeded { tuples_flowed, .. }) =
            run(&q, &db, Method::Straightforward, seed, Budget::tuples(cap))
        {
            prop_assert!(tuples_flowed >= cap);
        }
    }
}
