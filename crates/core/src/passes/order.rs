//! Join-order selection passes.
//!
//! Both passes here transform only [`PlanState::query`] — they pick the
//! atom order a later build pass ([`crate::passes::chain`]) joins in.
//! Contract: the output query is a permutation of the input query's atoms
//! with free list, interner, and Boolean flag unchanged, and no plan may
//! exist yet (order passes run first; they leave an existing plan
//! untouched rather than invalidating it).

use super::{DynRng, OptimizerPass, PassContext, PlanState};
use crate::methods::reordering::greedy_order;

/// Keeps the query's listing order — the straightforward method's entire
/// "join-order selection" (paper §3: the order is whatever the user
/// wrote). Also the first pass of the early-projection recipe, which the
/// paper defines on the listing order.
pub struct ListingOrder;

impl OptimizerPass for ListingOrder {
    fn name(&self) -> &'static str {
        "listing-order"
    }

    fn run(&self, state: PlanState, _ctx: &mut PassContext<'_>) -> PlanState {
        state
    }
}

/// Permutes atoms by the paper's §4 greedy heuristic: repeatedly pick the
/// remaining atom with the most variables occurring in no other remaining
/// atom (they die the moment it is joined); ties prefer fewer shared
/// variables, further ties break randomly via [`PassContext::rng`].
/// Consumes exactly one `random_range` draw per pick.
pub struct GreedyJoinOrder;

impl OptimizerPass for GreedyJoinOrder {
    fn name(&self) -> &'static str {
        "greedy-join-order"
    }

    fn run(&self, mut state: PlanState, ctx: &mut PassContext<'_>) -> PlanState {
        let order = greedy_order(&state.query, &mut DynRng(&mut *ctx.rng));
        state.query = state.query.permuted(&order);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::pentagon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn listing_order_is_identity() {
        let (q, db) = pentagon();
        let mut rng = StdRng::seed_from_u64(0);
        let mut src: &mut StdRng = &mut rng;
        let mut ctx = PassContext::new(&db, &mut src);
        let state = PlanState {
            query: q.clone(),
            plan: None,
        };
        let out = ListingOrder.run(state, &mut ctx);
        assert_eq!(out.query.atoms, q.atoms);
        assert!(out.plan.is_none());
    }

    #[test]
    fn greedy_matches_legacy_order_for_the_same_seed() {
        let (q, db) = pentagon();
        for seed in 0..16u64 {
            let expected = q.permuted(&greedy_order(&q, &mut StdRng::seed_from_u64(seed)));

            let mut rng = StdRng::seed_from_u64(seed);
            let mut src: &mut StdRng = &mut rng;
            let mut ctx = PassContext::new(&db, &mut src);
            let state = PlanState {
                query: q.clone(),
                plan: None,
            };
            let out = GreedyJoinOrder.run(state, &mut ctx);
            assert_eq!(out.query.atoms, expected.atoms, "seed {seed}");
        }
    }
}
