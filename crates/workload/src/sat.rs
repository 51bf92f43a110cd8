//! Random k-SAT → project-join query translation.
//!
//! §7 of the paper: "we have also tested our algorithms on queries
//! constructed from 3-SAT and 2-SAT and have obtained results that are
//! consistent with those reported here", and Fig. 2's caption measures
//! compile time on 3-SAT with 5 variables. A clause with sign pattern
//! `s ∈ {+,−}^k` becomes an atom over the relation `clause<k>_<s>` that
//! holds the clause's `2^k − 1` satisfying assignments.

use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use ppr_query::{Atom, ConjunctiveQuery, Database, Vars};
use ppr_relalg::{AttrId, Relation, Schema, Value};

/// Base column ids for clause relations (disjoint from variable ids and
/// from the color workload's base columns).
const BASE_COL: u32 = 3_000_000;

/// A CNF instance with `k`-literal clauses. Literals are 1-based signed
/// variable indices (DIMACS convention): `-3` is `¬x_3`.
#[derive(Debug, Clone)]
pub struct SatInstance {
    /// Number of variables.
    pub num_vars: usize,
    /// Clauses; each has exactly `k` literals over distinct variables.
    pub clauses: Vec<Vec<i32>>,
}

impl SatInstance {
    /// Clause/variable ratio (the density axis of SAT experiments).
    pub fn density(&self) -> f64 {
        self.clauses.len() as f64 / self.num_vars as f64
    }

    /// Reference DPLL satisfiability check (exponential; for ground truth
    /// on test-scale instances).
    pub fn is_satisfiable(&self) -> bool {
        fn go(clauses: &[Vec<i32>], assign: &mut [Option<bool>], n: usize) -> bool {
            // Find an unassigned variable; check for conflicts first.
            for c in clauses {
                let mut satisfied = false;
                let mut unassigned = 0;
                for &lit in c {
                    match assign[lit.unsigned_abs() as usize - 1] {
                        Some(v) if v == (lit > 0) => {
                            satisfied = true;
                            break;
                        }
                        None => unassigned += 1,
                        _ => {}
                    }
                }
                if !satisfied && unassigned == 0 {
                    return false;
                }
            }
            match (0..n).find(|&v| assign[v].is_none()) {
                None => true,
                Some(v) => {
                    for val in [true, false] {
                        assign[v] = Some(val);
                        if go(clauses, assign, n) {
                            return true;
                        }
                    }
                    assign[v] = None;
                    false
                }
            }
        }
        let mut assign = vec![None; self.num_vars];
        go(&self.clauses, &mut assign, self.num_vars)
    }
}

impl fmt::Display for SatInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "p cnf {} {}", self.num_vars, self.clauses.len())?;
        for c in &self.clauses {
            for lit in c {
                write!(f, "{lit} ")?;
            }
            writeln!(f, "0")?;
        }
        Ok(())
    }
}

/// Parses a DIMACS CNF text (`p cnf <vars> <clauses>` header, clauses as
/// whitespace-separated literals terminated by `0`, `c` comment lines).
/// Clauses may have any length ≥ 1; duplicate literals within a clause are
/// collapsed, and a clause containing both polarities of a variable is a
/// tautology and is rejected (the query encoding has no relation for it).
pub fn parse_dimacs(text: &str) -> Result<SatInstance, String> {
    let mut num_vars: Option<usize> = None;
    let mut clauses: Vec<Vec<i32>> = Vec::new();
    let mut current: Vec<i32> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(format!("bad problem line: {line}"));
            }
            num_vars = Some(
                parts[1]
                    .parse()
                    .map_err(|e| format!("bad variable count: {e}"))?,
            );
            continue;
        }
        for tok in line.split_whitespace() {
            let lit: i32 = tok.parse().map_err(|e| format!("bad literal {tok}: {e}"))?;
            if lit == 0 {
                if current.is_empty() {
                    return Err("empty clause".into());
                }
                let mut clause = std::mem::take(&mut current);
                clause.sort_unstable();
                clause.dedup();
                for w in clause.windows(2) {
                    if w[0] == -w[1] {
                        return Err(format!("tautological clause containing ±{}", w[1]));
                    }
                }
                clauses.push(clause);
            } else {
                current.push(lit);
            }
        }
    }
    if !current.is_empty() {
        return Err("final clause not terminated by 0".into());
    }
    let declared = num_vars.ok_or("missing `p cnf` header")?;
    let max_used = clauses
        .iter()
        .flatten()
        .map(|l| l.unsigned_abs() as usize)
        .max()
        .unwrap_or(0);
    if max_used > declared {
        return Err(format!("literal {max_used} exceeds declared {declared}"));
    }
    if clauses.is_empty() {
        return Err("no clauses".into());
    }
    Ok(SatInstance {
        num_vars: declared,
        clauses,
    })
}

/// Generates a uniform random `k`-SAT instance: each clause draws `k`
/// distinct variables uniformly and negates each with probability ½.
/// Duplicate clauses are allowed (the standard fixed-clause-length model).
pub fn random_sat<R: Rng + ?Sized>(
    num_vars: usize,
    num_clauses: usize,
    k: usize,
    rng: &mut R,
) -> SatInstance {
    assert!(k >= 1 && k <= num_vars, "need 1 ≤ k ≤ num_vars");
    let mut clauses = Vec::with_capacity(num_clauses);
    let mut pool: Vec<usize> = (1..=num_vars).collect();
    for _ in 0..num_clauses {
        pool.shuffle(rng);
        let clause: Vec<i32> = pool[..k]
            .iter()
            .map(|&v| {
                if rng.random_bool(0.5) {
                    v as i32
                } else {
                    -(v as i32)
                }
            })
            .collect();
        clauses.push(clause);
    }
    SatInstance { num_vars, clauses }
}

/// The relation of satisfying assignments for sign pattern `signs`
/// (`true` = positive literal). Values: 0 = false, 1 = true.
fn clause_relation(signs: &[bool]) -> Relation {
    let k = signs.len();
    let name = clause_relation_name(signs);
    let attrs: Vec<AttrId> = (0..k).map(|i| AttrId(BASE_COL + i as u32)).collect();
    let mut rows = Vec::with_capacity((1usize << k) - 1);
    for bits in 0..(1u32 << k) {
        let assignment: Vec<Value> = (0..k).map(|i| (bits >> i) & 1).collect();
        let satisfies = (0..k).any(|i| (assignment[i] == 1) == signs[i]);
        if satisfies {
            rows.push(assignment.into_boxed_slice());
        }
    }
    Relation::from_distinct_rows(name, Schema::new(attrs), rows)
}

/// Name of the relation for a sign pattern, e.g. `clause3_pnp` for
/// `(x ∨ ¬y ∨ z)`.
fn clause_relation_name(signs: &[bool]) -> String {
    let mut name = format!("clause{}_", signs.len());
    for &s in signs {
        name.push(if s { 'p' } else { 'n' });
    }
    name
}

/// Translates a SAT instance into a project-join query and database. The
/// query is nonempty iff the instance is satisfiable. `free_fraction` as in
/// the color workload: 0 yields the Boolean query.
pub fn sat_query<R: Rng + ?Sized>(
    instance: &SatInstance,
    free_fraction: f64,
    rng: &mut R,
) -> (ConjunctiveQuery, Database) {
    assert!(!instance.clauses.is_empty(), "need at least one clause");
    let mut vars = Vars::new();
    let ids = vars.intern_numbered("x", instance.num_vars);
    let mut db = Database::new();
    let mut atoms = Vec::with_capacity(instance.clauses.len());
    for clause in &instance.clauses {
        let signs: Vec<bool> = clause.iter().map(|&l| l > 0).collect();
        let name = clause_relation_name(&signs);
        if db.get(&name).is_none() {
            db.add(clause_relation(&signs));
        }
        let args: Vec<AttrId> = clause
            .iter()
            .map(|&l| ids[l.unsigned_abs() as usize - 1])
            .collect();
        atoms.push(Atom::new(name, args));
    }

    let occurring: Vec<AttrId> = {
        let mut seen = Vec::new();
        for a in &atoms {
            for v in a.vars() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    };
    let (free, boolean) = if free_fraction <= 0.0 {
        (vec![occurring[0]], true)
    } else {
        let count = ((occurring.len() as f64) * free_fraction).round() as usize;
        let count = count.clamp(1, occurring.len());
        let mut pool = occurring.clone();
        pool.shuffle(rng);
        let mut chosen: Vec<AttrId> = pool.into_iter().take(count).collect();
        chosen.sort_unstable();
        (chosen, false)
    };

    (ConjunctiveQuery::new(atoms, free, vars, boolean), db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn clause_relation_sizes() {
        assert_eq!(clause_relation(&[true, true, true]).len(), 7);
        assert_eq!(clause_relation(&[false, false]).len(), 3);
        assert_eq!(clause_relation(&[true]).len(), 1);
    }

    #[test]
    fn clause_relation_semantics() {
        // (x ∨ ¬y): rows where x=1 or y=0.
        let r = clause_relation(&[true, false]);
        for t in r.rows() {
            assert!(t[0] == 1 || t[1] == 0, "bad row {t:?}");
        }
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn relation_names_encode_pattern() {
        assert_eq!(clause_relation_name(&[true, false, true]), "clause3_pnp");
    }

    #[test]
    fn random_sat_shape() {
        let inst = random_sat(5, 20, 3, &mut rng());
        assert_eq!(inst.num_vars, 5);
        assert_eq!(inst.clauses.len(), 20);
        for c in &inst.clauses {
            assert_eq!(c.len(), 3);
            let mut vars: Vec<u32> = c.iter().map(|l| l.unsigned_abs()).collect();
            vars.sort_unstable();
            vars.dedup();
            assert_eq!(vars.len(), 3, "duplicate variable in clause {c:?}");
        }
        assert!((inst.density() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn dpll_reference() {
        // (x1) ∧ (¬x1): unsatisfiable.
        let unsat = SatInstance {
            num_vars: 1,
            clauses: vec![vec![1], vec![-1]],
        };
        assert!(!unsat.is_satisfiable());
        let sat = SatInstance {
            num_vars: 2,
            clauses: vec![vec![1, 2], vec![-1, 2]],
        };
        assert!(sat.is_satisfiable());
    }

    #[test]
    fn sat_query_structure() {
        let inst = random_sat(5, 8, 3, &mut rng());
        let (q, db) = sat_query(&inst, 0.0, &mut rng());
        assert_eq!(q.num_atoms(), 8);
        assert!(q.is_boolean());
        // At most 8 distinct sign-pattern relations for 3-SAT.
        assert!(db.len() <= 8);
        for name in db.names() {
            assert!(name.starts_with("clause3_"));
            assert_eq!(db.expect(name).len(), 7);
        }
    }

    #[test]
    fn non_boolean_sat_query() {
        let inst = random_sat(10, 15, 3, &mut rng());
        let (q, _) = sat_query(&inst, 0.2, &mut rng());
        assert!(!q.is_boolean());
        assert_eq!(q.free.len(), 2);
    }

    #[test]
    fn two_sat_relations() {
        let inst = random_sat(6, 10, 2, &mut rng());
        let (_, db) = sat_query(&inst, 0.0, &mut rng());
        for name in db.names() {
            assert!(name.starts_with("clause2_"));
            assert_eq!(db.expect(name).len(), 3);
        }
    }

    #[test]
    fn dimacs_roundtrip() {
        let inst = random_sat(6, 12, 3, &mut rng());
        let parsed = parse_dimacs(&inst.to_string()).unwrap();
        assert_eq!(parsed.num_vars, 6);
        assert_eq!(parsed.clauses.len(), 12);
        assert_eq!(parsed.is_satisfiable(), inst.is_satisfiable());
    }

    #[test]
    fn dimacs_parses_comments_and_splits() {
        let text = "c a comment\np cnf 3 2\n1 -2 0 2\n3 0\n";
        let inst = parse_dimacs(text).unwrap();
        assert_eq!(inst.clauses, vec![vec![-2, 1], vec![2, 3]]);
    }

    #[test]
    fn dimacs_rejects_malformed() {
        assert!(parse_dimacs("1 2 0").is_err()); // no header
        assert!(parse_dimacs("p cnf 2 1\n1 3 0").is_err()); // var overflow
        assert!(parse_dimacs("p cnf 2 1\n1 -1 0").is_err()); // tautology
        assert!(parse_dimacs("p cnf 2 1\n1 2").is_err()); // unterminated
        assert!(parse_dimacs("p cnf 2 0").is_err()); // no clauses
    }

    #[test]
    fn dimacs_display() {
        let inst = SatInstance {
            num_vars: 2,
            clauses: vec![vec![1, -2]],
        };
        let s = inst.to_string();
        assert!(s.contains("p cnf 2 1"));
        assert!(s.contains("1 -2 0"));
    }
}
