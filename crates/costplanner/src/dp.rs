//! System-R dynamic programming over join orders.
//!
//! Exhaustively finds the cheapest left-deep join order by dynamic
//! programming over atom subsets — `O(2^m · m)` time and `O(2^m)` space,
//! the search whose explosion the paper's Fig. 2 documents. Practical to
//! about 20 relations; the harness switches the naive-formulation planner
//! to GEQO beyond that, as PostgreSQL does.

use ppr_query::ConjunctiveQuery;

use crate::catalog::Catalog;
use crate::cost::ChainEstimator;
use crate::CompileResult;

/// Hard cap on the number of atoms the exhaustive DP accepts.
pub const MAX_DP_ATOMS: usize = 22;

/// Number of `atom`'s distinct variables bound by the atoms in `joined`
/// (a bitmask). Exactly one shared variable means the streaming executor
/// serves the stage from a cached secondary index, so the DP must charge
/// the same index-join delta [`ChainEstimator`] does — no build term.
fn shared_vars(query: &ConjunctiveQuery, joined: u32, atom: usize) -> usize {
    query.atoms[atom]
        .vars()
        .iter()
        .filter(|v| {
            (0..query.num_atoms())
                .any(|b| joined & (1 << b) != 0 && query.atoms[b].vars().contains(v))
        })
        .count()
}

/// Plans `query` exhaustively. Panics above [`MAX_DP_ATOMS`] atoms.
pub fn plan(query: &ConjunctiveQuery, catalog: &Catalog) -> CompileResult {
    let m = query.num_atoms();
    assert!(
        m <= MAX_DP_ATOMS,
        "exhaustive DP supports at most {MAX_DP_ATOMS} atoms, got {m}"
    );
    let full: u32 = if m == 32 { u32::MAX } else { (1u32 << m) - 1 };
    // best[s] = (cost, last atom joined); cardinalities are recomputed per
    // subset because they are order-independent under the model.
    let mut best: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); (full as usize) + 1];
    let mut plans_considered: u64 = 0;

    // Subset cardinality and cumulative cost derive from the estimator;
    // to stay order-independent we evaluate cost(S) as
    // min_a cost(S \ a) + delta(S \ a, a), where delta re-runs the
    // estimator's step on the subset cardinality.
    let subset_card = |s: u32| -> f64 {
        let mut est = ChainEstimator::new(query, catalog);
        for a in 0..m {
            if s & (1 << a) != 0 {
                est.push(a);
            }
        }
        est.cardinality
    };

    for a in 0..m {
        let s = 1u32 << a;
        let mut est = ChainEstimator::new(query, catalog);
        est.push(a);
        best[s as usize] = (est.cost, a);
        plans_considered += 1;
    }
    for s in 1..=full {
        if s.count_ones() < 2 || !best_reachable(s, &best) {
            continue;
        }
        let card_s = subset_card(s);
        for a in 0..m {
            if s & (1 << a) == 0 {
                continue;
            }
            let prev = s & !(1 << a);
            let (prev_cost, _) = best[prev as usize];
            if !prev_cost.is_finite() {
                continue;
            }
            let prev_card = subset_card(prev);
            let delta = if shared_vars(query, prev, a) == 1 {
                // Index join: probe the cached index, no per-query build.
                prev_card + card_s
            } else {
                let r_card = catalog.rel(&query.atoms[a].relation).cardinality;
                r_card + prev_card + card_s
            };
            let cost = prev_cost + delta;
            plans_considered += 1;
            if cost < best[s as usize].0 {
                best[s as usize] = (cost, a);
            }
        }
    }

    // Reconstruct the order.
    let mut order = Vec::with_capacity(m);
    let mut s = full;
    while s != 0 {
        let (_, a) = best[s as usize];
        order.push(a);
        s &= !(1 << a);
    }
    order.reverse();
    ppr_obs::ppr_debug!(
        "left-deep: m={m} plans_considered={plans_considered} best_cost={:.1} order={order:?}",
        best[full as usize].0
    );
    CompileResult {
        order,
        estimated_cost: best[full as usize].0,
        plans_considered,
        elapsed: std::time::Duration::ZERO,
    }
}

/// Subsets are processed in increasing numeric order, which visits all
/// strict subsets first; this helper only skips singletons handled in the
/// seeding loop.
fn best_reachable(s: u32, _best: &[(f64, usize)]) -> bool {
    s.count_ones() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::{Atom, Database, Vars};
    use ppr_workload::edge_relation;

    fn chain_query(n: usize) -> (ConjunctiveQuery, Catalog) {
        let mut vars = Vars::new();
        let v = vars.intern_numbered("v", n);
        let atoms = (1..n)
            .map(|i| Atom::new("edge", vec![v[i - 1], v[i]]))
            .collect();
        let q = ConjunctiveQuery::new(atoms, vec![v[0]], vars, true);
        let mut db = Database::new();
        db.add(edge_relation(3));
        (q, Catalog::of(&db))
    }

    #[test]
    fn dp_finds_connected_order_for_shuffled_chain() {
        // Shuffle the atoms of a chain; DP must avoid cross products, so
        // consecutive prefix sets must stay connected.
        let (q, cat) = chain_query(6);
        let shuffled = q.permuted(&[4, 0, 2, 1, 3]);
        let r = plan(&shuffled, &cat);
        // Walk the chosen order and verify each prefix is connected.
        let mut seen_vars: Vec<ppr_relalg::AttrId> = Vec::new();
        for (step, &a) in r.order.iter().enumerate() {
            let vars = shuffled.atoms[a].vars();
            if step > 0 {
                assert!(
                    vars.iter().any(|v| seen_vars.contains(v)),
                    "step {step} introduced a cross product"
                );
            }
            for v in vars {
                if !seen_vars.contains(&v) {
                    seen_vars.push(v);
                }
            }
        }
    }

    #[test]
    fn work_scales_exponentially() {
        let (q5, cat5) = chain_query(6); // 5 atoms
        let (q10, cat10) = chain_query(11); // 10 atoms
        let r5 = plan(&q5, &cat5);
        let r10 = plan(&q10, &cat10);
        // 2^10 vs 2^5 subsets: work should grow by far more than 2×.
        assert!(r10.plans_considered > r5.plans_considered * 8);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn dp_guards_subset_blowup() {
        let (q, cat) = chain_query(30);
        plan(&q, &cat);
    }
}
