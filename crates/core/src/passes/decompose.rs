//! Decomposition passes for bucket elimination.
//!
//! Bucket elimination splits naturally into two passes: **choosing** the
//! variable order (the expensive, structure-only step — a heuristic
//! elimination order over the join graph) and **building** the plan along
//! it. The split is what makes the service layer's decomposition cache
//! possible: the chosen order depends only on query structure, heuristic,
//! and seed — never on data — so a structurally repeated query can hand
//! the cached order back in via [`PassContext::order_hint`] and skip
//! [`Decompose`]'s work entirely.
//!
//! Contracts: [`Decompose`] sets [`PassContext::chosen_order`] to a
//! permutation of the query's variables (free variables first when
//! computed fresh, per the paper's §5 convention) and leaves the state
//! untouched; [`BucketBuild`] requires `chosen_order` and sets
//! [`PlanState::plan`] to the bucket-elimination plan along it. A valid
//! hint must reproduce the plan the same order would produce fresh —
//! [`crate::methods::bucket::plan_with_order`] is deterministic given the
//! order.

use super::{DynRng, OptimizerPass, PassContext, PlanState};
use crate::methods::{bucket, OrderHeuristic};
use ppr_relalg::AttrId;

/// Chooses the bucket-elimination variable order: consumes a valid
/// [`PassContext::order_hint`] if present (setting
/// [`PassContext::used_hint`]), otherwise runs the configured heuristic
/// over the query's join graph, drawing tie-breaks from the context's
/// randomness.
pub struct Decompose {
    heuristic: OrderHeuristic,
}

impl Decompose {
    /// A decomposition pass using `heuristic` when no hint applies.
    pub fn new(heuristic: OrderHeuristic) -> Self {
        Decompose { heuristic }
    }
}

impl OptimizerPass for Decompose {
    fn name(&self) -> &'static str {
        "decompose"
    }

    fn run(&self, state: PlanState, ctx: &mut PassContext<'_>) -> PlanState {
        let order = match ctx.order_hint.take() {
            Some(hint) if covers_exactly(&hint, &state.query.all_vars()) => {
                ctx.used_hint = true;
                hint
            }
            _ => bucket::bucket_order(&state.query, self.heuristic, &mut DynRng(&mut *ctx.rng)),
        };
        ctx.chosen_order = Some(order);
        state
    }
}

/// Whether `hint` is a permutation of `vars` — the validity bar for a
/// cached order, guarding both decode drift and WL-fingerprint collisions
/// between structurally different queries.
fn covers_exactly(hint: &[AttrId], vars: &[AttrId]) -> bool {
    hint.len() == vars.len() && vars.iter().all(|v| hint.contains(v))
}

/// Builds the bucket-elimination plan along [`PassContext::chosen_order`].
/// Panics if no decomposition pass ran first — a recipe bug, not a data
/// condition.
pub struct BucketBuild;

impl OptimizerPass for BucketBuild {
    fn name(&self) -> &'static str {
        "bucket-build"
    }

    fn run(&self, mut state: PlanState, ctx: &mut PassContext<'_>) -> PlanState {
        let order = ctx
            .chosen_order
            .as_ref()
            .expect("BucketBuild requires a Decompose pass earlier in the recipe");
        state.plan = Some(bucket::plan_with_order(&state.query, ctx.db, order));
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{pentagon, triangle_free_pair};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_decompose_matches_legacy_order() {
        let (q, db) = pentagon();
        for seed in 0..8u64 {
            let expected =
                bucket::bucket_order(&q, OrderHeuristic::Mcs, &mut StdRng::seed_from_u64(seed));

            let mut rng = StdRng::seed_from_u64(seed);
            let mut src: &mut StdRng = &mut rng;
            let mut ctx = PassContext::new(&db, &mut src);
            let state = PlanState {
                query: q.clone(),
                plan: None,
            };
            Decompose::new(OrderHeuristic::Mcs).run(state, &mut ctx);
            assert_eq!(ctx.chosen_order.as_deref(), Some(expected.as_slice()));
            assert!(!ctx.used_hint);
        }
    }

    #[test]
    fn hint_skips_decomposition_and_randomness() {
        let (q, db) = triangle_free_pair();
        let hint = q.all_vars();
        let mut rng = StdRng::seed_from_u64(1);
        let mut src: &mut StdRng = &mut rng;
        let mut ctx = PassContext::new(&db, &mut src);
        ctx.order_hint = Some(hint.clone());
        let state = PlanState {
            query: q.clone(),
            plan: None,
        };
        let state = Decompose::new(OrderHeuristic::Mcs).run(state, &mut ctx);
        assert!(ctx.used_hint);
        assert_eq!(ctx.chosen_order.as_deref(), Some(hint.as_slice()));
        // And the build pass produces the plan for exactly that order.
        let state = BucketBuild.run(state, &mut ctx);
        let expected = bucket::plan_with_order(&q, &db, &hint);
        assert_eq!(
            format!("{:?}", state.plan.unwrap()),
            format!("{expected:?}")
        );
        // The hint consumed no random draws: the stream is untouched.
        drop(ctx);
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(
            rand::Rng::next_u64(&mut rng),
            rand::Rng::next_u64(&mut fresh)
        );
    }

    #[test]
    fn wrong_vars_hint_is_ignored() {
        let (q, db) = pentagon();
        let mut wrong = q.all_vars();
        wrong[0] = AttrId(999_999);
        let mut rng = StdRng::seed_from_u64(2);
        let mut src: &mut StdRng = &mut rng;
        let mut ctx = PassContext::new(&db, &mut src);
        ctx.order_hint = Some(wrong);
        let state = PlanState {
            query: q.clone(),
            plan: None,
        };
        Decompose::new(OrderHeuristic::Mcs).run(state, &mut ctx);
        assert!(!ctx.used_hint);
        let fresh = bucket::bucket_order(&q, OrderHeuristic::Mcs, &mut StdRng::seed_from_u64(2));
        assert_eq!(ctx.chosen_order.as_deref(), Some(fresh.as_slice()));
    }
}
