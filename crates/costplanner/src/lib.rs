#![warn(missing_docs)]

//! A simulated cost-based SQL planner.
//!
//! The paper's first experiment (Fig. 2) measures how long PostgreSQL's
//! planner takes to *compile* the naive formulation of a many-relation
//! join query, and shows it grows exponentially with density while the
//! straightforward (forced-order) formulation compiles quickly. This crate
//! reproduces that planner: a textbook cost model with
//! distinct-value-based selectivities ([`cost`], [`catalog`]), a System-R
//! dynamic program over join orders ([`dp`]), a GEQO-style genetic search
//! ([`geqo`]) modeled on PostgreSQL 7.2's genetic query optimizer —
//! including its exponential default pool-size policy — and the trivial
//! fixed-order "planner" the straightforward formulation leaves room for
//! ([`fixed`]).
//!
//! The claim being reproduced is about *shape* (exponential naive compile
//! time, near-flat straightforward compile time), not the absolute
//! milliseconds of a 2003-era Itanium; see DESIGN.md for the substitution
//! notes.

pub mod catalog;
pub mod cost;
pub mod dp;
pub mod fixed;
pub mod geqo;

use std::time::Duration;

/// What a planner run produces.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// Chosen join order (atom indices, first joined first).
    pub order: Vec<usize>,
    /// Estimated cost of the chosen left-deep plan.
    pub estimated_cost: f64,
    /// Number of candidate (partial) plans costed — the
    /// machine-independent measure of planner work.
    pub plans_considered: u64,
    /// Wall-clock compile time.
    pub elapsed: Duration,
}

/// Which planner to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Planner {
    /// System-R dynamic programming over all subsets (exact, exponential).
    ExhaustiveDp,
    /// Genetic search in the space of join orders (GEQO). The pool-size
    /// policy controls how work scales with query size.
    Geqo(geqo::PoolPolicy),
    /// Keep the listing order (the straightforward formulation's planner
    /// work: cost one plan).
    FixedOrder,
}

/// Runs `planner` on `query` over `db` and reports the chosen order and
/// the work done.
pub fn compile(
    planner: Planner,
    query: &ppr_query::ConjunctiveQuery,
    db: &ppr_query::Database,
    seed: u64,
) -> CompileResult {
    let catalog = catalog::Catalog::of(db);
    let started = std::time::Instant::now();
    let mut result = match planner {
        Planner::ExhaustiveDp => dp::plan(query, &catalog),
        Planner::Geqo(policy) => geqo::plan(query, &catalog, policy, seed),
        Planner::FixedOrder => fixed::plan(query, &catalog),
    };
    result.elapsed = started.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_workload::{color_query, ColorQueryOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(n: usize, m: usize) -> (ppr_query::ConjunctiveQuery, ppr_query::Database) {
        let mut rng = StdRng::seed_from_u64(1);
        let g = ppr_graph::generate::random_graph(n, m, &mut rng);
        color_query(&g, &ColorQueryOptions::boolean(), &mut rng)
    }

    #[test]
    fn all_planners_return_permutations() {
        let (q, db) = fixture(6, 9);
        for planner in [
            Planner::ExhaustiveDp,
            Planner::Geqo(geqo::PoolPolicy::Fixed(32)),
            Planner::FixedOrder,
        ] {
            let r = compile(planner, &q, &db, 7);
            let mut order = r.order.clone();
            order.sort_unstable();
            assert_eq!(order, (0..q.num_atoms()).collect::<Vec<_>>(), "{planner:?}");
            assert!(r.estimated_cost.is_finite());
        }
    }

    #[test]
    fn dp_never_loses_to_geqo_or_fixed() {
        for seed in 0..5 {
            let (q, db) = fixture(6, 8);
            let dp = compile(Planner::ExhaustiveDp, &q, &db, seed);
            let geqo = compile(Planner::Geqo(geqo::PoolPolicy::Fixed(64)), &q, &db, seed);
            let fixed = compile(Planner::FixedOrder, &q, &db, seed);
            assert!(dp.estimated_cost <= geqo.estimated_cost + 1e-6);
            assert!(dp.estimated_cost <= fixed.estimated_cost + 1e-6);
        }
    }

    #[test]
    fn planner_work_ordering() {
        let (q, db) = fixture(7, 12);
        let dp = compile(Planner::ExhaustiveDp, &q, &db, 3);
        let fixed = compile(Planner::FixedOrder, &q, &db, 3);
        assert!(dp.plans_considered > fixed.plans_considered * 10);
        assert_eq!(fixed.plans_considered, 1);
    }
}
