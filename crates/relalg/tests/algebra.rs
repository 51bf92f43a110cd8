//! Property tests of the relational-algebra laws the paper's rewrites rely
//! on (§4–§5: commutativity/associativity of ⋈ and the conditions under
//! which projections commute with joins).

use ppr_relalg::ops;
use ppr_relalg::{AttrId, Relation, Schema, Value};
use proptest::prelude::*;
use rustc_hash::FxHashSet;

/// Strategy: a relation over `attrs` with values in 0..domain.
fn relation_strategy(
    name: &'static str,
    attrs: Vec<u32>,
    domain: Value,
    max_rows: usize,
) -> impl Strategy<Value = Relation> {
    let arity = attrs.len();
    prop::collection::vec(prop::collection::vec(0..domain, arity), 0..=max_rows).prop_map(
        move |rows| {
            Relation::new(
                name,
                Schema::new(attrs.iter().map(|&i| AttrId(i)).collect()),
                rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
            )
        },
    )
}

/// Set-of-rows view regardless of column order: reproject to a canonical
/// attribute order and collect.
fn canon(rel: &Relation) -> FxHashSet<Box<[Value]>> {
    let mut attrs: Vec<AttrId> = rel.schema().attrs().to_vec();
    attrs.sort();
    let p = ops::project_distinct(rel, &attrs);
    p.tuples().iter().cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ⋈ is commutative up to column order.
    #[test]
    fn join_commutative(
        a in relation_strategy("a", vec![1, 2], 4, 12),
        b in relation_strategy("b", vec![2, 3], 4, 12),
    ) {
        let ab = ops::natural_join(&a, &b);
        let ba = ops::natural_join(&b, &a);
        prop_assert_eq!(canon(&ab), canon(&ba));
    }

    /// ⋈ is associative.
    #[test]
    fn join_associative(
        a in relation_strategy("a", vec![1, 2], 3, 10),
        b in relation_strategy("b", vec![2, 3], 3, 10),
        c in relation_strategy("c", vec![3, 4], 3, 10),
    ) {
        let left = ops::natural_join(&ops::natural_join(&a, &b), &c);
        let right = ops::natural_join(&a, &ops::natural_join(&b, &c));
        prop_assert_eq!(canon(&left), canon(&right));
    }

    /// Projection pushing (the §4 rewrite): projecting out a variable that
    /// the other operand does not mention commutes with the join.
    #[test]
    fn projection_pushes_through_join(
        a in relation_strategy("a", vec![1, 2], 4, 12),
        b in relation_strategy("b", vec![2, 3], 4, 12),
    ) {
        // Var 1 occurs only in `a`: π_{2,3}(a ⋈ b) = π_{2,3}(π_{2}(a) ⋈ b).
        let direct = ops::project_distinct(
            &ops::natural_join(&a, &b),
            &[AttrId(2), AttrId(3)],
        );
        let pushed = ops::project_distinct(
            &ops::natural_join(&ops::project_distinct(&a, &[AttrId(2)]), &b),
            &[AttrId(2), AttrId(3)],
        );
        prop_assert!(direct.set_eq(&pushed));
    }

    /// Semijoin absorption: (a ⋉ b) ⋈ b = a ⋈ b.
    #[test]
    fn semijoin_absorption(
        a in relation_strategy("a", vec![1, 2], 4, 12),
        b in relation_strategy("b", vec![2, 3], 4, 12),
    ) {
        let direct = ops::natural_join(&a, &b);
        let reduced = ops::natural_join(&ops::semijoin(&a, &b), &b);
        prop_assert_eq!(canon(&direct), canon(&reduced));
    }

    /// All three join algorithms agree on random inputs.
    #[test]
    fn join_algorithms_equivalent(
        a in relation_strategy("a", vec![1, 2], 4, 12),
        b in relation_strategy("b", vec![2, 3], 4, 12),
    ) {
        use ppr_relalg::ops::JoinAlgorithm;
        let h = ops::join_with(&a, &b, JoinAlgorithm::Hash);
        let m = ops::join_with(&a, &b, JoinAlgorithm::SortMerge);
        let n = ops::join_with(&a, &b, JoinAlgorithm::NestedLoop);
        // Bag equality: compare sorted row vectors.
        let mut hv: Vec<_> = h.tuples().to_vec();
        let mut mv: Vec<_> = m.tuples().to_vec();
        let mut nv: Vec<_> = n.tuples().to_vec();
        hv.sort();
        mv.sort();
        nv.sort();
        prop_assert_eq!(&hv, &mv);
        prop_assert_eq!(&hv, &nv);
    }

    /// Dedup is idempotent and order-preserving on first occurrences.
    #[test]
    fn dedup_idempotent(a in relation_strategy("a", vec![1, 2], 3, 20)) {
        let mut once = a.clone();
        once.dedup();
        let mut twice = once.clone();
        twice.dedup();
        prop_assert_eq!(once.tuples(), twice.tuples());
        prop_assert!(once.is_deduped());
    }
}
