//! Properties of the join minimizer (cores of conjunctive queries) and
//! of the containment test it is built on.

use projection_pushing::core::minimize::{contained_in, equivalent, minimize};
use projection_pushing::prelude::*;
use proptest::prelude::*;

/// A random Boolean query over one binary relation `e`: `m` atoms over `k`
/// variables.
fn random_cq(k: usize, pairs: &[(usize, usize)]) -> ConjunctiveQuery {
    let mut vars = Vars::new();
    let ids = vars.intern_numbered("x", k);
    let atoms: Vec<Atom> = pairs
        .iter()
        .map(|&(a, b)| Atom::new("e", vec![ids[a % k], ids[b % k]]))
        .collect();
    let head = atoms[0].args[0];
    ConjunctiveQuery::new(atoms, vec![head], vars, true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn minimization_preserves_equivalence(
        k in 2usize..5,
        pairs in prop::collection::vec((0usize..5, 0usize..5), 1..6),
    ) {
        let q = random_cq(k, &pairs);
        let m = minimize(&q);
        prop_assert!(m.num_atoms() <= q.num_atoms());
        prop_assert!(equivalent(&m, &q));
    }

    #[test]
    fn minimization_is_idempotent(
        k in 2usize..5,
        pairs in prop::collection::vec((0usize..5, 0usize..5), 1..6),
    ) {
        let q = random_cq(k, &pairs);
        let once = minimize(&q);
        let twice = minimize(&once);
        prop_assert_eq!(once.num_atoms(), twice.num_atoms());
    }

    #[test]
    fn containment_is_a_preorder(
        k in 2usize..4,
        pairs_a in prop::collection::vec((0usize..4, 0usize..4), 1..4),
        pairs_b in prop::collection::vec((0usize..4, 0usize..4), 1..4),
    ) {
        // Reflexivity, plus: adding atoms to a query strengthens it.
        let a = random_cq(k, &pairs_a);
        prop_assert!(contained_in(&a, &a));
        // b2 = a's atoms plus b's atoms over the same variable space and
        // the same head ⇒ b2 ⊑ a.
        let combined = {
            let mut atoms = a.atoms.clone();
            let b = random_cq(k, &pairs_b);
            // Reuse a's vars: b's variable ids live in the same space
            // because both interned x0..x{k-1} in order.
            atoms.extend(b.atoms.iter().cloned());
            ConjunctiveQuery::new(atoms, a.free.clone(), a.vars.clone(), true)
        };
        prop_assert!(contained_in(&combined, &a));
    }

    #[test]
    fn duplicated_atoms_always_fold(
        k in 2usize..5,
        pairs in prop::collection::vec((0usize..5, 0usize..5), 1..4),
    ) {
        // Query with every atom duplicated minimizes to at most the
        // original atom count.
        let doubled: Vec<(usize, usize)> =
            pairs.iter().flat_map(|&p| [p, p]).collect();
        let q = random_cq(k, &doubled);
        let m = minimize(&q);
        prop_assert!(m.num_atoms() <= pairs.len());
    }
}

/// Chandra–Merlin on a pair contained one way only: a directed triangle
/// through `x` holds a path of three edges from `x` (round the triangle
/// back to `x`), but a path has no cycle to hold a triangle.
#[test]
fn triangle_is_contained_in_path_but_not_conversely() {
    let mut vars = Vars::new();
    let [x, y, z, w] = ["x", "y", "z", "w"].map(|name| vars.intern(name));
    let edge = |a, b| Atom::new("e", vec![a, b]);
    let triangle = vec![edge(x, y), edge(y, z), edge(z, x)];
    let path = vec![edge(x, y), edge(y, z), edge(z, w)];
    let triangle = ConjunctiveQuery::new(triangle, vec![x], vars.clone(), false);
    let path = ConjunctiveQuery::new(path, vec![x], vars, false);
    assert!(contained_in(&triangle, &path));
    assert!(!contained_in(&path, &triangle));
}
