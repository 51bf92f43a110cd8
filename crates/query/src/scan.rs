//! One scan of a rule's text into a borrowed flat form.
//!
//! [`scan_rule`] reads `q(x, y) :- e(x, z), e(z, y).` once and keeps what
//! every later step needs as slices of the text and flat arrays: per atom
//! its relation name and a CSR run of dense variable ids, numbered `0..n`
//! in first-occurrence order (the ids [`crate::Vars::intern`] hands out
//! while the body is read left to right); the variable names; the head as
//! dense ids. Nothing is allocated per atom or per variable — a handful of
//! arrays, each sized once from a count of the body's separators.
//!
//! Everything downstream starts here. [`crate::parse_query`] is this scan
//! plus [`ScannedRule::to_query`], so it reports the scan's errors, in the
//! scan's order, and its query carries the scan's ids.
//! [`ScannedRule::identify`] feeds the same arrays straight into the
//! fingerprint's refinement, which is how a serving layer keys a request
//! from its text and answers a cache hit without building a query at all.

use std::collections::HashMap;

use ppr_relalg::AttrId;

use crate::atom::Atom;
use crate::cq::ConjunctiveQuery;
use crate::fingerprint::{Flat, RuleIdentity};
use crate::parse::{err, ParseError};
use crate::vars::Vars;

/// A rule's text scanned into flat arrays that borrow from it (module
/// docs). A successful scan is a well-formed rule: at least one atom,
/// every atom with at least one argument, every head variable used in the
/// body and none repeated.
#[derive(Debug)]
pub struct ScannedRule<'t> {
    /// Per atom, its relation name.
    relations: Vec<&'t str>,
    /// CSR offsets into `args`: atom `a`'s arguments are
    /// `args[atom_start[a]..atom_start[a + 1]]`.
    atom_start: Vec<usize>,
    /// Every atom's arguments, as dense variable ids in argument order.
    args: Vec<usize>,
    /// Dense variable id → its name.
    names: Vec<&'t str>,
    /// The head as dense variable ids; empty for a Boolean rule.
    head: Vec<usize>,
}

impl<'t> ScannedRule<'t> {
    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.relations.len()
    }

    /// The arguments of atom `atom`, as dense variable ids.
    pub fn args(&self, atom: usize) -> &[usize] {
        &self.args[self.atom_start[atom]..self.atom_start[atom + 1]]
    }

    /// Every atom as `(relation name, dense argument ids)`, in listing
    /// order.
    pub fn atoms(&self) -> impl Iterator<Item = (&'t str, &[usize])> + '_ {
        (0..self.num_atoms()).map(|a| (self.relations[a], self.args(a)))
    }

    /// Variable names, indexed by dense id.
    pub fn names(&self) -> &[&'t str] {
        &self.names
    }

    /// The head as dense ids; empty for a Boolean rule.
    pub fn head(&self) -> &[usize] {
        &self.head
    }

    /// Whether the head is empty.
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// The free list [`ConjunctiveQuery::free`] holds: the head, or for a
    /// Boolean rule the first body variable (the paper's emulation).
    fn free(&self) -> &[usize] {
        if self.is_boolean() {
            &self.args[..1]
        } else {
            &self.head
        }
    }

    /// The names of the query's free list (the head, or for a Boolean
    /// rule its first body variable): a reply's column header.
    pub fn columns(&self) -> impl Iterator<Item = &'t str> + '_ {
        self.free().iter().map(|&v| self.names[v])
    }

    /// The relations the atoms name, sorted, each once.
    pub fn read_set(&self) -> Vec<&'t str> {
        let mut read = self.relations.clone();
        read.sort_unstable();
        read.dedup();
        read
    }

    /// The query this rule denotes. Variable `i`'s id is `AttrId(i)`.
    pub fn to_query(&self) -> ConjunctiveQuery {
        let mut vars = Vars::new();
        for name in &self.names {
            vars.intern(name);
        }
        let ids = |ids: &[usize]| -> Vec<AttrId> { ids.iter().map(|&v| dense(v)).collect() };
        let atoms = self
            .atoms()
            .map(|(relation, args)| Atom::new(relation, ids(args)))
            .collect();
        ConjunctiveQuery::new(atoms, ids(self.free()), vars, self.is_boolean())
    }

    /// The rule's cache identity, computed from the scan's own arrays:
    /// bit for bit `QueryIdentity::of(&self.to_query())`.
    pub fn identify(&self) -> RuleIdentity {
        RuleIdentity::of(self.flat())
    }

    /// The rule as the fingerprint's refinement reads it.
    fn flat(&self) -> Flat<'_> {
        Flat {
            relations: &self.relations,
            atom_start: &self.atom_start,
            args: &self.args,
            num_vars: self.names.len(),
            free: &self.head,
            boolean: self.is_boolean(),
        }
    }
}

/// The id of dense variable `v` in [`ScannedRule::to_query`]'s query.
pub(crate) fn dense(v: usize) -> AttrId {
    AttrId(v as u32)
}

/// Scans a rule like `q(x, y) :- e(x, z), e(z, y).`; the trailing period
/// is optional. The errors, and the order they are found in, are
/// [`crate::parse_query`]'s.
///
/// ```
/// let rule = ppr_query::scan_rule("q(y) :- e(x, y), e(y, x).").unwrap();
/// assert_eq!(rule.num_atoms(), 2);
/// assert_eq!(rule.args(1), &[1, 0]);
/// assert_eq!(rule.columns().collect::<Vec<_>>(), ["y"]);
/// ```
pub fn scan_rule(input: &str) -> Result<ScannedRule<'_>, ParseError> {
    let input = input.trim().trim_end_matches('.').trim();
    let Some((head, body)) = input.split_once(":-") else {
        return err("expected `head :- body`");
    };
    // The head is checked now and resolved once the body has numbered
    // every variable.
    let (_, head_args) = split_atom(head.trim())?;
    for name in arg_names(head_args) {
        name?;
    }

    // Every atom but the last ends at a comma, and every argument at a
    // comma or a `)`: the counts bound every array.
    let body = body.trim();
    let (mut commas, mut closes) = (0, 0);
    for &b in body.as_bytes() {
        commas += (b == b',') as usize;
        closes += (b == b')') as usize;
    }
    let bound = commas + closes;
    let mut relations = Vec::with_capacity(commas + 1);
    let mut atom_start = Vec::with_capacity(commas + 2);
    atom_start.push(0);
    let mut args = Vec::with_capacity(bound);
    let mut names: Vec<&str> = Vec::with_capacity(bound);
    // Names come off the wire: the default hasher keeps crafted collisions
    // from making the numbering quadratic.
    let mut index: HashMap<&str, usize> = HashMap::with_capacity(bound);

    // One scan over the body: atoms end at the commas outside parentheses,
    // and each is numbered as soon as its comma is seen.
    // Reported only once the whole body is known to be well-formed.
    let mut no_arguments = None;
    let mut atom = |text: std::ops::Range<usize>| -> Result<(), ParseError> {
        let (name, atom_args) = split_atom(body[text].trim())?;
        for arg in arg_names(atom_args) {
            let arg = arg?;
            let next = names.len();
            let v = *index.entry(arg).or_insert(next);
            if v == next {
                names.push(arg);
            }
            args.push(v);
        }
        if atom_args.is_empty() {
            no_arguments.get_or_insert(name);
        }
        relations.push(name);
        atom_start.push(args.len());
        Ok(())
    };
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, &b) in body.as_bytes().iter().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                if depth == 0 {
                    return err("unbalanced parentheses");
                }
                depth -= 1;
            }
            b',' if depth == 0 => {
                atom(start..i)?;
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return err("unbalanced parentheses");
    }
    if !body[start..].trim().is_empty() {
        atom(start..body.len())?;
    }
    if relations.is_empty() {
        return err("body needs at least one atom");
    }
    if let Some(name) = no_arguments {
        return err(format!("atom {name} has no arguments"));
    }

    let mut free = Vec::new();
    for v in arg_names(head_args).flatten() {
        match index.get(v) {
            Some(id) if free.contains(id) => return err(format!("head variable {v} repeats")),
            Some(&id) => free.push(id),
            None => return err(format!("head variable {v} not used in body")),
        }
    }
    Ok(ScannedRule {
        relations,
        atom_start,
        args,
        names,
        head: free,
    })
}

/// Letters, digits (Unicode's, as `char::is_alphanumeric` has them) and
/// `_`, at least one.
fn is_identifier(text: &str) -> bool {
    let ascii = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    !text.is_empty()
        && (text.bytes().all(ascii) || text.chars().all(|c| c.is_alphanumeric() || c == '_'))
}

/// Splits `name(a, b, c)` into the checked name and the trimmed text
/// between its first `(` and its final `)` — empty for `name()`.
fn split_atom(text: &str) -> Result<(&str, &str), ParseError> {
    let Some(open) = text.find('(') else {
        return err(format!("expected `name(args)` in `{text}`"));
    };
    let Some(inner) = text[open + 1..].strip_suffix(')') else {
        return err(format!("missing `)` in `{text}`"));
    };
    let name = text[..open].trim();
    if !is_identifier(name) {
        return err(format!("bad relation name `{name}`"));
    }
    Ok((name, inner.trim()))
}

/// The comma-separated variable names of [`split_atom`]'s argument text,
/// each trimmed and checked.
fn arg_names(args: &str) -> impl Iterator<Item = Result<&str, ParseError>> {
    let names = (!args.is_empty()).then(|| args.split(','));
    names.into_iter().flatten().map(|a| {
        let a = a.trim();
        if is_identifier(a) {
            Ok(a)
        } else {
            err(format!("bad variable `{a}`"))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;

    #[test]
    fn ids_follow_first_occurrence() {
        let rule = scan_rule("q(z, x) :- r(x, y), s(y, z, x), r(z, z).").unwrap();
        let atoms: Vec<(&str, &[usize])> = rule.atoms().collect();
        assert_eq!(
            atoms,
            [("r", &[0, 1][..]), ("s", &[1, 2, 0]), ("r", &[2, 2])]
        );
        assert_eq!(rule.names(), ["x", "y", "z"]);
        assert_eq!(rule.head(), [2, 0]);
        assert_eq!(rule.columns().collect::<Vec<_>>(), ["z", "x"]);
        assert_eq!(rule.read_set(), ["r", "s"]);
    }

    #[test]
    fn a_boolean_rule_projects_its_first_variable() {
        let rule = scan_rule("q() :- e(b, a), e(a, c)").unwrap();
        assert!(rule.is_boolean());
        assert!(rule.head().is_empty());
        assert_eq!(rule.free(), [0]);
        assert_eq!(rule.columns().collect::<Vec<_>>(), ["b"]);
    }

    #[test]
    fn the_query_carries_the_scans_ids() {
        let text = "q(w, x) :- e(x, y), f(y, y, w), e(w, x)";
        let rule = scan_rule(text).unwrap();
        let query = rule.to_query();
        for (atom, (relation, args)) in query.atoms.iter().zip(rule.atoms()) {
            assert_eq!(atom.relation, relation);
            let ids: Vec<usize> = atom.args.iter().map(|v| v.index()).collect();
            assert_eq!(ids, args);
        }
        let names: Vec<String> = query.vars.ids().map(|v| query.vars.name(v)).collect();
        assert_eq!(names, rule.names());
        assert_eq!(query.free, [dense(2), dense(0)]);
        let parsed = parse_query(text).unwrap();
        assert_eq!(parsed.atoms, query.atoms);
        assert_eq!(parsed.free, query.free);
    }

    #[test]
    fn non_ascii_identifiers_take_the_slow_check() {
        assert!(is_identifier("ребро_2"));
        assert!(is_identifier("名"));
        assert!(!is_identifier("\u{301}y"));
        assert!(!is_identifier("x-y"));
        assert!(!is_identifier(""));
    }
}
