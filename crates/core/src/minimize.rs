//! Join minimization (Chandra–Merlin), the paper's §7 third direction.
//!
//! A conjunctive query is *minimal* when no atom can be dropped without
//! changing its meaning. Minimization reduces to containment tests, and
//! containment reduces to evaluating one query over the other's *canonical
//! database* — exactly the large-query/tiny-database regime this library
//! optimizes. The minimizer below drops atoms greedily, deciding each
//! containment with bucket elimination, as the paper suggests ("the
//! techniques in this paper should be applicable to the minimization
//! problem").
//!
//! Soundness note: dropping an atom always *weakens* a query (`Q' ⊒ Q`),
//! so `Q'` is equivalent to `Q` iff `Q' ⊑ Q`, i.e. iff `Q` holds on the
//! canonical database of `Q'` with the frozen head preserved.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ppr_query::canonical::canonical_database;
use ppr_query::ConjunctiveQuery;
use ppr_relalg::{exec, Budget, Value};

use crate::methods::{build_plan, Method, OrderHeuristic};

/// Whether `sub ⊑ sup` (every database where `sub` returns a tuple, `sup`
/// returns it too), decided on `sub`'s canonical database.
///
/// Both queries must share the same variable space (`Vars`) and the same
/// free list — the form minimization needs.
pub fn contained_in(sub: &ConjunctiveQuery, sup: &ConjunctiveQuery) -> bool {
    assert_eq!(sub.free, sup.free, "containment requires matching heads");
    let db = canonical_database(sub);
    let mut rng = StdRng::seed_from_u64(0);
    let plan = build_plan(
        Method::BucketElimination(OrderHeuristic::Mcs),
        sup,
        &db,
        &mut rng,
    );
    let (rel, _) =
        exec::execute(&plan, &Budget::unlimited()).expect("canonical databases are tiny");
    // The homomorphism must fix the head: the canonical (frozen) head
    // tuple must appear in the result.
    let head: Vec<Value> = sub.free.iter().map(|a| a.0 as Value).collect();
    rel.contains(&head)
}

/// Whether two queries with the same head are equivalent.
pub fn equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    contained_in(a, b) && contained_in(b, a)
}

/// Greedily minimizes `query`: repeatedly drops an atom whose removal
/// keeps the query equivalent, until no atom can be dropped. The result is
/// a *core* of the query (minimal and equivalent).
pub fn minimize(query: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut current = query.clone();
    loop {
        let mut dropped = false;
        for i in 0..current.num_atoms() {
            if current.num_atoms() == 1 {
                break;
            }
            let candidate = drop_atom(&current, i);
            // Head variables must still occur somewhere.
            let head_ok = candidate
                .free
                .iter()
                .all(|&f| candidate.atoms.iter().any(|a| a.mentions(f)));
            if !head_ok {
                continue;
            }
            // Dropping weakens: candidate ⊒ current always. Equivalent iff
            // candidate ⊑ current.
            if contained_in(&candidate, &current) {
                current = candidate;
                dropped = true;
                break;
            }
        }
        if !dropped {
            return current;
        }
    }
}

fn drop_atom(query: &ConjunctiveQuery, idx: usize) -> ConjunctiveQuery {
    let atoms = query
        .atoms
        .iter()
        .enumerate()
        .filter(|(j, _)| *j != idx)
        .map(|(_, a)| a.clone())
        .collect();
    ConjunctiveQuery {
        atoms,
        free: query.free.clone(),
        vars: query.vars.clone(),
        boolean: query.boolean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::{Atom, Vars};

    /// π_x e(x,y) ⋈ e(x,y') — redundant second atom (map y' → y).
    #[test]
    fn duplicate_pattern_minimizes_to_one_atom() {
        let mut vars = Vars::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let y2 = vars.intern("y2");
        let q = ConjunctiveQuery::new(
            vec![Atom::new("e", vec![x, y]), Atom::new("e", vec![x, y2])],
            vec![x],
            vars,
            true,
        );
        let m = minimize(&q);
        assert_eq!(m.num_atoms(), 1);
        assert!(equivalent(&m, &q));
    }

    /// A triangle is its own core.
    #[test]
    fn triangle_is_minimal() {
        let mut vars = Vars::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let z = vars.intern("z");
        let q = ConjunctiveQuery::new(
            vec![
                Atom::new("e", vec![x, y]),
                Atom::new("e", vec![y, z]),
                Atom::new("e", vec![z, x]),
            ],
            vec![x],
            vars,
            true,
        );
        let m = minimize(&q);
        assert_eq!(m.num_atoms(), 3);
    }

    /// Path of length 2 with an extra shadowed path: x→y→z plus x→y'→z'
    /// (y', z' fresh) folds onto the first path.
    #[test]
    fn shadow_path_folds() {
        let mut vars = Vars::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let z = vars.intern("z");
        let y2 = vars.intern("y2");
        let z2 = vars.intern("z2");
        let q = ConjunctiveQuery::new(
            vec![
                Atom::new("e", vec![x, y]),
                Atom::new("e", vec![y, z]),
                Atom::new("e", vec![x, y2]),
                Atom::new("e", vec![y2, z2]),
            ],
            vec![x],
            vars,
            true,
        );
        let m = minimize(&q);
        assert_eq!(m.num_atoms(), 2);
        assert!(equivalent(&m, &q));
    }

    #[test]
    fn containment_is_reflexive_and_directional() {
        let mut vars = Vars::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let z = vars.intern("z");
        let triangle = ConjunctiveQuery::new(
            vec![
                Atom::new("e", vec![x, y]),
                Atom::new("e", vec![y, z]),
                Atom::new("e", vec![z, x]),
            ],
            vec![x],
            vars.clone(),
            true,
        );
        let path = ConjunctiveQuery::new(
            vec![Atom::new("e", vec![x, y]), Atom::new("e", vec![y, z])],
            vec![x],
            vars,
            true,
        );
        assert!(contained_in(&triangle, &triangle));
        assert!(contained_in(&triangle, &path)); // triangles have paths
        assert!(!contained_in(&path, &triangle)); // paths need no triangle
    }

    #[test]
    fn minimization_keeps_head_variables() {
        let mut vars = Vars::new();
        let x = vars.intern("x");
        let y = vars.intern("y");
        let q = ConjunctiveQuery::new(
            vec![Atom::new("e", vec![x, y]), Atom::new("e", vec![x, y])],
            vec![x, y],
            vars,
            false,
        );
        let m = minimize(&q);
        assert_eq!(m.num_atoms(), 1);
        assert_eq!(m.free, q.free);
    }
}
