//! Semijoin pre-reduction (Wong–Youssefi \[34\]).
//!
//! The paper's §2 observes that on its 3-COLOR workloads "projecting out a
//! column from our relation yields a relation with all possible tuples.
//! Thus, in our setting, semijoins … are useless." This module makes that
//! observation executable for *any* workload: it materializes each atom,
//! runs semijoin passes between atoms sharing variables until fixpoint,
//! and reports how many tuples were eliminated. For selective relations
//! the reduction bites; for the paper's 6-tuple 3-COLOR relation (and the
//! 2-tuple 2-COLOR one) it provably removes nothing.
//!
//! Each binding and each semijoin is a plan run by the one executor,
//! [`exec::execute`]: an atom is a scan, and `Rᵢ ⋉ Rⱼ` is
//! `π_{vars(Rᵢ)}(Rᵢ ⋈ Rⱼ)` with `SELECT DISTINCT`, which is exact because
//! every `Rᵢ` is a set of rows over distinct variables.

use std::sync::Arc;

use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{exec, Budget, Plan, Relation};

/// Outcome of a semijoin reduction pass.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// Per-atom reduced relations (columns bound to query variables).
    pub relations: Vec<Relation>,
    /// Total tuples across atoms before reduction.
    pub tuples_before: usize,
    /// Total tuples after.
    pub tuples_after: usize,
    /// Number of semijoin applications executed.
    pub passes: usize,
    /// True when some relation became empty — the query is empty.
    pub proven_empty: bool,
}

impl Reduction {
    /// Fraction of tuples removed (0.0 when nothing changed — the paper's
    /// 3-COLOR situation).
    pub fn shrinkage(&self) -> f64 {
        if self.tuples_before == 0 {
            return 0.0;
        }
        1.0 - self.tuples_after as f64 / self.tuples_before as f64
    }
}

/// Runs pairwise semijoins between atoms sharing variables until fixpoint
/// (bounded by `max_rounds` full sweeps).
pub fn semijoin_reduce(query: &ConjunctiveQuery, db: &Database, max_rounds: usize) -> Reduction {
    let mut rels: Vec<Arc<Relation>> = query
        .atoms
        .iter()
        .map(|a| run(Plan::scan(db.expect(&a.relation), a.args.clone())))
        .collect();
    let tuples_before: usize = rels.iter().map(|r| r.len()).sum();
    let m = rels.len();
    let mut passes = 0usize;
    let mut proven_empty = rels.iter().any(|r| r.is_empty());
    'rounds: for _ in 0..max_rounds {
        let mut changed = false;
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                let shared = query.atoms[i].shared_vars(&query.atoms[j]);
                if shared.is_empty() {
                    continue;
                }
                let before = rels[i].len();
                let reduced = run(semijoin(&rels[i], &rels[j]));
                passes += 1;
                if reduced.len() < before {
                    changed = true;
                    rels[i] = reduced;
                    if rels[i].is_empty() {
                        proven_empty = true;
                        break 'rounds;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let tuples_after: usize = rels.iter().map(|r| r.len()).sum();
    Reduction {
        relations: rels.into_iter().map(Arc::unwrap_or_clone).collect(),
        tuples_before,
        tuples_after,
        passes,
        proven_empty,
    }
}

/// The plan of `left ⋉ right` over two bound relations.
fn semijoin(left: &Arc<Relation>, right: &Arc<Relation>) -> Plan {
    let scan = |rel: &Arc<Relation>| Plan::scan(rel.clone(), rel.schema().attrs().to_vec());
    let keep = left.schema().attrs().to_vec();
    scan(left).join(scan(right)).project(keep)
}

/// `plan`'s rows. Unbudgeted: the reduction is an offline measurement.
fn run(plan: Plan) -> Arc<Relation> {
    let (rows, _) = exec::execute(&plan, &Budget::unlimited()).expect("a valid plan");
    Arc::new(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::{Atom, Vars};
    use ppr_workload::edge_relation;

    fn color_path(colors: u32, n: usize) -> (ConjunctiveQuery, Database) {
        let mut vars = Vars::new();
        let v = vars.intern_numbered("v", n);
        let atoms = (1..n)
            .map(|i| Atom::new("edge", vec![v[i - 1], v[i]]))
            .collect();
        let q = ConjunctiveQuery::new(atoms, vec![v[0]], vars, true);
        let mut db = Database::new();
        db.add(edge_relation(colors));
        (q, db)
    }

    /// A bound relation over the attributes `attrs`.
    fn bound(attrs: &[u32], rows: &[&[u32]]) -> Arc<Relation> {
        use ppr_relalg::{value::tuple, AttrId, Schema};
        let schema = Schema::new(attrs.iter().map(|&a| AttrId(a)).collect());
        let rows = rows.iter().map(|r| tuple(r)).collect();
        Arc::new(Relation::new("r", schema, rows))
    }

    #[test]
    fn semijoin_keeps_matching() {
        let a = bound(&[1, 2], &[&[1, 10], &[2, 20]]);
        let b = bound(&[2, 3], &[&[10, 7]]);
        let s = run(semijoin(&a, &b));
        assert_eq!(s.schema(), a.schema());
        assert_eq!(s.tuples(), [ppr_relalg::value::tuple(&[1, 10])]);
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        // No shared attribute: every right row is a partner under the
        // empty key, so the left survives whole iff the right is nonempty.
        let a = bound(&[1], &[&[1], &[2]]);
        let nonempty = bound(&[2], &[&[9]]);
        let empty = bound(&[2], &[]);
        assert_eq!(run(semijoin(&a, &nonempty)).len(), 2);
        assert_eq!(run(semijoin(&a, &empty)).len(), 0);
    }

    #[test]
    fn three_color_semijoins_are_useless() {
        // The paper's observation: π of the 6-tuple edge relation is the
        // full domain, so semijoins remove nothing.
        let (q, db) = color_path(3, 6);
        let r = semijoin_reduce(&q, &db, 5);
        assert_eq!(r.tuples_before, r.tuples_after);
        assert_eq!(r.shrinkage(), 0.0);
        assert!(!r.proven_empty);
    }

    #[test]
    fn two_color_semijoins_also_full() {
        // 2 colors: the edge relation is {(1,2),(2,1)} — projections are
        // still the full domain, so a path stays unreduced.
        let (q, db) = color_path(2, 4);
        let r = semijoin_reduce(&q, &db, 5);
        assert_eq!(r.shrinkage(), 0.0);
    }

    #[test]
    fn selective_relations_do_reduce() {
        // A custom asymmetric relation: succ = {(1,2),(2,3)} over a chain
        // of 4 atoms; the last atom forces values forward, so semijoins
        // prune, and a chain of length 3 is proven empty (no 4-step
        // succession exists in a 3-element chain).
        use ppr_relalg::{AttrId, Schema};
        let mut vars = Vars::new();
        let v = vars.intern_numbered("x", 5);
        let atoms = (1..5)
            .map(|i| Atom::new("succ", vec![v[i - 1], v[i]]))
            .collect();
        let q = ConjunctiveQuery::new(atoms, vec![v[0]], vars, true);
        let mut db = Database::new();
        let schema = Schema::new(vec![AttrId(7_000_000), AttrId(7_000_001)]);
        db.add(ppr_relalg::Relation::from_distinct_rows(
            "succ",
            schema,
            vec![
                vec![1u32, 2].into_boxed_slice(),
                vec![2u32, 3].into_boxed_slice(),
            ],
        ));
        let r = semijoin_reduce(&q, &db, 10);
        assert!(r.proven_empty, "no 4-edge path exists in succ");
        assert!(r.shrinkage() > 0.0);
    }

    #[test]
    fn reduction_preserves_nonemptiness() {
        use ppr_relalg::{AttrId, Schema};
        let mut vars = Vars::new();
        let v = vars.intern_numbered("x", 3);
        let atoms = (1..3)
            .map(|i| Atom::new("succ", vec![v[i - 1], v[i]]))
            .collect();
        let q = ConjunctiveQuery::new(atoms, vec![v[0]], vars, true);
        let mut db = Database::new();
        let schema = Schema::new(vec![AttrId(7_000_000), AttrId(7_000_001)]);
        db.add(ppr_relalg::Relation::from_distinct_rows(
            "succ",
            schema,
            vec![
                vec![1u32, 2].into_boxed_slice(),
                vec![2u32, 3].into_boxed_slice(),
            ],
        ));
        let r = semijoin_reduce(&q, &db, 10);
        assert!(!r.proven_empty); // 1→2→3 exists
                                  // First atom reduced to (1,2): only value whose successor has a
                                  // successor.
        assert_eq!(r.relations[0].len(), 1);
    }
}
