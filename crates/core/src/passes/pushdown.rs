//! The projection-pushdown rewrite pass.
//!
//! Contract: rewrites a projected left-deep scan-join chain (the output of
//! [`crate::passes::chain::BuildJoinChain`]) into the paper's §4 early
//! projection: every variable is projected out by a `ProjectDistinct` the
//! moment its last occurrence has been joined, unless it is free. That
//! plan is the left-deep join-expression tree of the query's current atom
//! order, so the pass builds exactly that tree ([`Jet::left_deep`]) and
//! converts it; the working/projected labels are computed in one place,
//! [`crate::jet`], which Theorem 1 needs anyway.
//!
//! A plan that is not a projected left-deep scan chain (already rewritten,
//! bucket-shaped, or absent) is returned unchanged — the pass is a no-op
//! outside its contract, never an error.

use ppr_relalg::Plan;

use super::{OptimizerPass, PassContext, PlanState};
use crate::jet::Jet;

/// Pushes projections down a left-deep scan-join chain, one
/// `ProjectDistinct` per level where a variable dies.
pub struct ProjectionPushdown;

impl OptimizerPass for ProjectionPushdown {
    fn name(&self) -> &'static str {
        "projection-pushdown"
    }

    fn run(&self, mut state: PlanState, ctx: &mut PassContext<'_>) -> PlanState {
        if let Some(Plan::ProjectDistinct { input, .. }) = &state.plan {
            if is_scan_chain(input) {
                state.plan = Some(Jet::left_deep(&state.query).to_plan(&state.query, ctx.db));
            }
        }
        state
    }
}

/// Whether `plan` is `((s_0 ⋈ s_1) ⋈ s_2) ⋈ …` over scans only — no
/// interior projection, no bushy join.
fn is_scan_chain(mut plan: &Plan) -> bool {
    loop {
        match plan {
            Plan::Scan { .. } => return true,
            Plan::Join { left, right } if matches!(**right, Plan::Scan { .. }) => plan = left,
            _ => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{k4, pentagon, triangle_free_pair};
    use crate::passes::chain::join_chain;
    use ppr_query::{ConjunctiveQuery, Database};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rewrite(q: &ConjunctiveQuery, db: &Database, plan: Option<Plan>) -> Option<Plan> {
        let mut rng = StdRng::seed_from_u64(0);
        let mut src: &mut StdRng = &mut rng;
        let mut ctx = PassContext::new(db, &mut src);
        let state = PlanState {
            query: q.clone(),
            plan,
        };
        ProjectionPushdown.run(state, &mut ctx).plan
    }

    /// The shape guard accepts the chain pass's output, so the rewrite is
    /// the query's left-deep join-expression tree.
    #[test]
    fn rewrite_is_byte_identical_to_the_jet() {
        for (q, db) in [pentagon(), k4(), triangle_free_pair()] {
            let jet = Jet::left_deep(&q).to_plan(&q, &db);
            let ours = rewrite(&q, &db, Some(join_chain(&q, &db))).unwrap();
            assert_eq!(format!("{ours:?}"), format!("{jet:?}"), "{q}");
        }
    }

    #[test]
    fn pentagon_materializes_where_variables_die() {
        let (q, db) = pentagon();
        let plan = rewrite(&q, &db, Some(join_chain(&q, &db))).unwrap();
        assert_eq!(plan.materialization_count(), 3);
    }

    #[test]
    fn non_chain_plans_pass_through_unchanged() {
        let (q, db) = pentagon();
        // A bucket-elimination plan has interior projections: not a chain.
        let bucket = crate::methods::bucket::plan_with_order(&q, &db, &q.all_vars());
        let out = rewrite(&q, &db, Some(bucket.clone())).unwrap();
        assert_eq!(out.to_string(), bucket.to_string());
    }

    #[test]
    fn missing_plan_is_a_no_op() {
        let (q, db) = pentagon();
        assert!(rewrite(&q, &db, None).is_none());
    }

    #[test]
    fn single_atom_chain_keeps_root_projection() {
        let q = ppr_query::parse_query("q(a) :- edge(a, b)").unwrap();
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        let plan = rewrite(&q, &db, Some(join_chain(&q, &db))).unwrap();
        assert_eq!(
            plan.to_string(),
            "ProjectDistinct [a0]\n  Scan edge(a0, a1)\n"
        );
    }
}
