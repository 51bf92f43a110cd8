//! Tests of the early-projection method (paper §4) on the plan
//! [`crate::passes::plan_query`] builds for it: the left-deep
//! join-expression tree of the listing order, each variable projected out
//! once its last atom has been joined.

mod tests {
    use crate::methods::test_support::{
        k4, pentagon, pipeline_plan, pipeline_rows, triangle_free_pair,
    };
    use crate::methods::{emit_sql, Method};
    use rand::SeedableRng;

    #[test]
    fn pentagon_pushes_projections() {
        let (q, db) = pentagon();
        let p = pipeline_plan(Method::EarlyProjection, &q, &db);
        // Subqueries appear where variables die: after the third and
        // fourth atoms, plus the outer SELECT. (Appendix A.3 shows a
        // subquery at every level; §6.1's implementation notes — which we
        // follow — only create one when a variable is projected out.)
        assert_eq!(p.materialization_count(), 3);
        // Intermediate arity stays below the straightforward method's 5.
        assert!(p.width().unwrap() < 5);
    }

    #[test]
    fn agrees_with_straightforward_on_pentagon() {
        let (q, db) = pentagon();
        let a = pipeline_rows(Method::EarlyProjection, &q, &db);
        let b = pipeline_rows(Method::Straightforward, &q, &db);
        assert!(a.set_eq(&b));
    }

    #[test]
    fn agrees_on_unsatisfiable_k4() {
        let (q, db) = k4();
        assert!(pipeline_rows(Method::EarlyProjection, &q, &db).is_empty());
    }

    #[test]
    fn keeps_free_variables_live() {
        let (q, db) = triangle_free_pair();
        let rel = pipeline_rows(Method::EarlyProjection, &q, &db);
        assert_eq!(rel.len(), 6);
        assert_eq!(rel.arity(), 2);
    }

    #[test]
    fn sql_emission_nests_subqueries() {
        let (q, db) = pentagon();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let stmt = emit_sql(Method::EarlyProjection, &q, &db, &mut rng);
        let sql = ppr_sql::emit::render(&stmt);
        assert!(sql.contains("AS t1"), "{sql}");
        assert!(stmt.nesting_depth() >= 2, "{sql}");
        assert_eq!(stmt.table_refs(), 5);
    }
}
