//! Tests of the straightforward method (paper §3) on the plan
//! [`crate::passes::plan_query`] builds for it: the scan-join chain, atoms
//! joined in listing order, free variables projected once at the root.

mod tests {
    use crate::methods::test_support::{pentagon, pipeline_plan, triangle_free_pair};
    use crate::methods::Method;
    use ppr_relalg::{exec, Budget};

    #[test]
    fn pentagon_plan_shape() {
        let (q, db) = pentagon();
        let p = pipeline_plan(Method::Straightforward, &q, &db);
        assert_eq!(p.scan_count(), 5);
        assert_eq!(p.materialization_count(), 1);
        // No projection pushing: all five variables live at the top.
        assert_eq!(p.width().unwrap(), 5);
    }

    #[test]
    fn pentagon_is_three_colorable() {
        let (q, db) = pentagon();
        let p = pipeline_plan(Method::Straightforward, &q, &db);
        let (rel, stats) = exec::execute(&p, &Budget::unlimited()).unwrap();
        assert!(!rel.is_empty());
        assert_eq!(stats.materializations, 1);
    }

    #[test]
    fn non_boolean_result_lists_free_pairs() {
        let (q, db) = triangle_free_pair();
        let p = pipeline_plan(Method::Straightforward, &q, &db);
        let (rel, _) = exec::execute(&p, &Budget::unlimited()).unwrap();
        // Triangle: free vars are two adjacent vertices → the 6 ordered
        // pairs of distinct colors.
        assert_eq!(rel.len(), 6);
        assert_eq!(rel.arity(), 2);
    }
}
