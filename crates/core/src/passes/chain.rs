//! The plan-building pass for chain recipes.
//!
//! Contract: consumes [`PlanState::query`] in its current atom order and
//! sets [`PlanState::plan`] to the left-deep scan-join chain
//! `π_free((…(a_1 ⋈ a_2) ⋈ …) ⋈ a_m)` — the straightforward method's
//! plan (paper §3). The query is left unchanged, so downstream rewrite
//! passes ([`crate::passes::pushdown`]) still see the order the chain was
//! built in.

use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::Plan;

use super::{OptimizerPass, PassContext, PlanState};

/// Builds the left-deep scan-join chain over the query's current atom
/// order, projecting the free variables once at the root.
pub struct BuildJoinChain;

impl OptimizerPass for BuildJoinChain {
    fn name(&self) -> &'static str {
        "build-join-chain"
    }

    fn run(&self, mut state: PlanState, ctx: &mut PassContext<'_>) -> PlanState {
        state.plan = Some(join_chain(&state.query, ctx.db));
        state
    }
}

/// The straightforward plan: `π_free((…(a_1 ⋈ a_2) ⋈ …) ⋈ a_m)`, atoms
/// joined in listing order with no projection pushing.
pub(crate) fn join_chain(query: &ConjunctiveQuery, db: &Database) -> Plan {
    let mut atoms = query.atoms.iter();
    let first = atoms.next().expect("queries have at least one atom");
    let mut plan = Plan::scan(db.expect(&first.relation), first.args.clone());
    for atom in atoms {
        plan = plan.join(Plan::scan(db.expect(&atom.relation), atom.args.clone()));
    }
    plan.project(query.free.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{pentagon, pipeline_plan};
    use crate::methods::Method;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The straightforward recipe's plan is this pass's output: nothing
    /// before or after it in the recipe touches the chain.
    #[test]
    fn chain_matches_straightforward() {
        let (q, db) = pentagon();
        let mut rng = StdRng::seed_from_u64(0);
        let mut src: &mut StdRng = &mut rng;
        let mut ctx = PassContext::new(&db, &mut src);
        let state = PlanState {
            query: q.clone(),
            plan: None,
        };
        let out = BuildJoinChain.run(state, &mut ctx);
        let plan = out.plan.expect("chain pass builds a plan");
        let recipe = pipeline_plan(Method::Straightforward, &q, &db);
        assert_eq!(format!("{plan:?}"), format!("{recipe:?}"));
    }
}
