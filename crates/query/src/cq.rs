//! Conjunctive queries and databases.

use std::fmt;
use std::sync::Arc;

use rustc_hash::{FxHashMap, FxHashSet};

use ppr_relalg::{AttrId, Relation};

use crate::atom::Atom;
use crate::vars::Vars;

/// A project-join query `π_free(atom_1 ⋈ … ⋈ atom_m)`.
///
/// The paper's Boolean queries are emulated with a single projected
/// variable (SQL cannot express zero columns); [`ConjunctiveQuery::is_boolean`]
/// reflects the *logical* reading, which callers set explicitly.
#[derive(Debug, Clone)]
pub struct ConjunctiveQuery {
    /// The atoms, in listing order (the order the straightforward method
    /// joins them in).
    pub atoms: Vec<Atom>,
    /// Free (projected) variables — the target schema `S_Q`.
    pub free: Vec<AttrId>,
    /// Variable names for display/SQL.
    pub vars: Vars,
    /// Logical Boolean-ness: true when the query only tests nonemptiness
    /// (even though `free` carries one variable for SQL emulation).
    pub boolean: bool,
}

impl ConjunctiveQuery {
    /// Builds a query and validates that free variables occur in atoms.
    pub fn new(atoms: Vec<Atom>, free: Vec<AttrId>, vars: Vars, boolean: bool) -> Self {
        let q = ConjunctiveQuery {
            atoms,
            free,
            vars,
            boolean,
        };
        q.validate();
        q
    }

    fn validate(&self) {
        assert!(!self.atoms.is_empty(), "a query needs at least one atom");
        for &f in &self.free {
            assert!(
                self.atoms.iter().any(|a| a.mentions(f)),
                "free variable {f} occurs in no atom"
            );
        }
        let mut seen_free = self.free.clone();
        seen_free.sort_unstable();
        seen_free.dedup();
        assert_eq!(seen_free.len(), self.free.len(), "free variables repeat");
    }

    /// Number of atoms (`m` in the paper).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// All variables, in first occurrence order across atoms.
    pub fn all_vars(&self) -> Vec<AttrId> {
        let mut seen = FxHashSet::default();
        let args = self.atoms.iter().flat_map(|atom| &atom.args);
        args.copied().filter(|&v| seen.insert(v)).collect()
    }

    /// Whether the query is (logically) Boolean.
    pub fn is_boolean(&self) -> bool {
        self.boolean
    }

    /// Indices of atoms mentioning `var`.
    pub fn atoms_with(&self, var: AttrId) -> Vec<usize> {
        self.atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.mentions(var))
            .map(|(i, _)| i)
            .collect()
    }

    /// `min_occur` of the paper's implementation notes: for each variable,
    /// the first atom index mentioning it.
    pub fn min_occur(&self) -> FxHashMap<AttrId, usize> {
        let mut map = FxHashMap::default();
        for (i, atom) in self.atoms.iter().enumerate() {
            for v in atom.vars() {
                map.entry(v).or_insert(i);
            }
        }
        map
    }

    /// `max_occur`: for each variable, the last atom index mentioning it.
    /// Free variables are pinned past the last atom (`m`), keeping them
    /// live to the outermost SELECT — exactly the paper's trick for the
    /// non-Boolean case.
    pub fn max_occur(&self) -> FxHashMap<AttrId, usize> {
        let mut map = FxHashMap::default();
        for (i, atom) in self.atoms.iter().enumerate() {
            for v in atom.vars() {
                map.insert(v, i);
            }
        }
        for &f in &self.free {
            map.insert(f, self.atoms.len());
        }
        map
    }

    /// Returns the same query with atoms permuted: atom `i` of the result
    /// is atom `perm[i]` of `self`.
    pub fn permuted(&self, perm: &[usize]) -> ConjunctiveQuery {
        assert_eq!(perm.len(), self.atoms.len());
        let atoms = perm.iter().map(|&i| self.atoms[i].clone()).collect();
        ConjunctiveQuery {
            atoms,
            free: self.free.clone(),
            vars: self.vars.clone(),
            boolean: self.boolean,
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "π_{{")?;
        for (i, &v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.vars.name(v))?;
        }
        write!(f, "}}(")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{}(", atom.relation)?;
            for (j, &v) in atom.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{}", self.vars.name(v))?;
            }
            write!(f, ")")?;
        }
        write!(f, ")")
    }
}

/// Named base relations a query runs over. The paper's 3-COLOR databases
/// hold one relation (`edge`); SAT databases hold one relation per clause
/// type.
#[derive(Debug, Clone, Default)]
pub struct Database {
    relations: FxHashMap<String, Arc<Relation>>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Adds (or replaces) a relation under its own name.
    pub fn add(&mut self, relation: Relation) {
        self.relations
            .insert(relation.name().to_string(), relation.into_shared());
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Option<&Arc<Relation>> {
        self.relations.get(name)
    }

    /// Looks up a relation, panicking with a clear message if absent.
    pub fn expect(&self, name: &str) -> Arc<Relation> {
        self.relations
            .get(name)
            .unwrap_or_else(|| panic!("relation {name} not in database"))
            .clone()
    }

    /// Relation names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.relations.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the database has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_relalg::{Schema, Value};

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn two_atom_query() -> ConjunctiveQuery {
        let mut vars = Vars::new();
        let ids = vars.intern_numbered("v", 3);
        ConjunctiveQuery::new(
            vec![
                Atom::new("edge", vec![ids[0], ids[1]]),
                Atom::new("edge", vec![ids[1], ids[2]]),
            ],
            vec![ids[0]],
            vars,
            true,
        )
    }

    #[test]
    fn all_vars_in_occurrence_order() {
        let q = two_atom_query();
        assert_eq!(q.all_vars(), vec![a(0), a(1), a(2)]);
    }

    #[test]
    fn occurrence_maps() {
        let q = two_atom_query();
        let min = q.min_occur();
        let max = q.max_occur();
        assert_eq!(min[&a(0)], 0);
        assert_eq!(min[&a(1)], 0);
        assert_eq!(min[&a(2)], 1);
        // v0 is free, so it is pinned past the last atom.
        assert_eq!(max[&a(0)], 2);
        assert_eq!(max[&a(1)], 1);
        assert_eq!(max[&a(2)], 1);
    }

    #[test]
    #[should_panic(expected = "free variable")]
    fn free_vars_must_occur() {
        let mut vars = Vars::new();
        let ids = vars.intern_numbered("v", 2);
        let ghost = vars.intern("ghost");
        ConjunctiveQuery::new(
            vec![Atom::new("edge", vec![ids[0], ids[1]])],
            vec![ghost],
            vars,
            true,
        );
    }

    #[test]
    fn permuted_reorders_atoms() {
        let q = two_atom_query();
        let p = q.permuted(&[1, 0]);
        assert_eq!(p.atoms[0], q.atoms[1]);
        assert_eq!(p.atoms[1], q.atoms[0]);
    }

    #[test]
    fn display_shows_structure() {
        let q = two_atom_query();
        let s = q.to_string();
        assert!(s.contains("π_{v0}"));
        assert!(s.contains("edge(v0,v1) ⋈ edge(v1,v2)"));
    }

    #[test]
    fn database_roundtrip() {
        let mut db = Database::new();
        let rows: Vec<_> = [(1u32, 2u32), (2, 1)]
            .iter()
            .map(|&(x, y)| vec![x as Value, y as Value].into_boxed_slice())
            .collect();
        db.add(Relation::new(
            "edge",
            Schema::new(vec![a(100), a(101)]),
            rows,
        ));
        assert_eq!(db.len(), 1);
        assert_eq!(db.expect("edge").len(), 2);
        assert!(db.get("missing").is_none());
        assert_eq!(db.names(), vec!["edge"]);
    }

    #[test]
    #[should_panic(expected = "not in database")]
    fn expect_panics_on_missing() {
        Database::new().expect("nope");
    }
}
