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
//! The scan is one pass over the bytes, reading the grammar it accepts:
//! names are maximal runs of ASCII letters, digits and `_`, and
//! whitespace is skipped where it stands; a non-ASCII byte decodes its
//! character for `char::is_alphanumeric` or `char::is_whitespace`. No
//! atom is trimmed, split or searched; only the head is read twice, the
//! second time to resolve its names once the body has numbered them. A
//! rejected text is read again to phrase its error as the splitting parser
//! before this scan did:
//! from the failing atom to its comma outside parentheses, an unbalanced
//! `)` first, then the atom's own checks (`split_atom`, `arg_names`).
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
    let text = input.trim().trim_end_matches('.').trim();
    let mut at = Cursor { text, pos: 0 };
    // The head is checked now and resolved once the body has numbered
    // every variable.
    let head = at
        .atom(|_| {})
        .and_then(|_| at.eat(b':'))
        .and_then(|()| at.eat(b'-'));
    if head.is_none() {
        let Some((head, _)) = text.split_once(":-") else {
            return err("expected `head :- body`");
        };
        return Err(malformed(head));
    }

    // Every atom but the last ends at a comma, and every argument at a
    // comma or a `)`: the counts bound every array.
    let body = &text[at.pos..];
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

    // Reported only once the whole body is known to be well-formed.
    let mut no_arguments = None;
    loop {
        let start = at.pos;
        at.skip_space();
        // Nothing left: the body is empty, or its last atom had a
        // trailing comma.
        if at.pos == text.len() {
            break;
        }
        let first = args.len();
        let name = at.atom(|arg| {
            let next = names.len();
            let v = *index.entry(arg).or_insert(next);
            if v == next {
                names.push(arg);
            }
            args.push(v);
        });
        let Some(name) = name else {
            return Err(body_error(&text[start..]));
        };
        if args.len() == first {
            no_arguments.get_or_insert(name);
        }
        relations.push(name);
        atom_start.push(args.len());
        match at.next() {
            None => break,
            Some(b',') => {}
            Some(_) => return Err(body_error(&text[start..])),
        }
    }
    if relations.is_empty() {
        return err("body needs at least one atom");
    }
    if let Some(name) = no_arguments {
        return err(format!("atom {name} has no arguments"));
    }

    // The head again, now well-formed: the first variable that does not
    // resolve is the error.
    let mut free = Vec::new();
    let mut unresolved = None;
    Cursor { text, pos: 0 }.atom(|v| match index.get(v) {
        Some(id) if free.contains(id) => {
            unresolved.get_or_insert_with(|| format!("head variable {v} repeats"));
        }
        Some(&id) => free.push(id),
        None => {
            unresolved.get_or_insert_with(|| format!("head variable {v} not used in body"));
        }
    });
    if let Some(message) = unresolved {
        return err(message);
    }
    Ok(ScannedRule {
        relations,
        atom_start,
        args,
        names,
        head: free,
    })
}

/// A byte position in a rule's text, always on a character boundary.
struct Cursor<'t> {
    text: &'t str,
    pos: usize,
}

impl<'t> Cursor<'t> {
    /// The character at `pos`, which is not ASCII.
    fn wide(&self) -> char {
        self.text[self.pos..].chars().next().unwrap_or_default()
    }

    /// Skips whitespace (Unicode's, as `char::is_whitespace` has it).
    fn skip_space(&mut self) {
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b == b' ' || (b'\t'..=b'\r').contains(&b) {
                self.pos += 1;
                continue;
            }
            let c = if b < 0x80 { '\0' } else { self.wide() };
            if !c.is_whitespace() {
                return;
            }
            self.pos += c.len_utf8();
        }
    }

    /// The longest run of letters, digits (Unicode's, as
    /// `char::is_alphanumeric` has them) and `_` at `pos`; `None` if it
    /// is empty.
    fn name(&mut self) -> Option<&'t str> {
        let start = self.pos;
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
                continue;
            }
            let c = if b < 0x80 { '\0' } else { self.wide() };
            if !c.is_alphanumeric() {
                break;
            }
            self.pos += c.len_utf8();
        }
        (self.pos > start).then(|| &self.text[start..self.pos])
    }

    /// Reads an atom, `name(a, b, …)` with whitespace around and inside
    /// it, handing each argument to `each`: its name, or `None` if it is
    /// not well-formed.
    fn atom(&mut self, mut each: impl FnMut(&'t str)) -> Option<&'t str> {
        self.skip_space();
        let name = self.name()?;
        self.skip_space();
        self.eat(b'(')?;
        self.skip_space();
        if self.eat(b')').is_none() {
            loop {
                each(self.name()?);
                self.skip_space();
                match self.next()? {
                    b',' => self.skip_space(),
                    b')' => break,
                    _ => return None,
                }
            }
        }
        self.skip_space();
        Some(name)
    }

    /// Steps over `b` if it is the byte at `pos`.
    fn eat(&mut self, b: u8) -> Option<()> {
        (self.text.as_bytes().get(self.pos) == Some(&b)).then(|| self.pos += 1)
    }

    /// The byte at `pos`, stepped over.
    fn next(&mut self) -> Option<u8> {
        let b = *self.text.as_bytes().get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
}

/// The error of a body whose atom at the start of `rest` is not
/// well-formed, in the order a reader meets it: an unbalanced `)` before
/// the comma that ends the atom (outside parentheses), or the atom itself.
fn body_error(rest: &str) -> ParseError {
    let mut depth = 0usize;
    for (i, b) in rest.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' if depth == 0 => return ParseError("unbalanced parentheses".into()),
            b')' => depth -= 1,
            b',' if depth == 0 => return malformed(&rest[..i]),
            _ => {}
        }
    }
    if depth != 0 {
        return ParseError("unbalanced parentheses".into());
    }
    malformed(rest)
}

/// What is wrong with an atom the scan did not accept, phrased by the
/// first check of [`split_atom`] and [`arg_names`] it fails.
fn malformed(atom: &str) -> ParseError {
    let checked =
        split_atom(atom.trim()).and_then(|(_, args)| arg_names(args).try_for_each(|a| a.map(drop)));
    match checked {
        Err(e) => e,
        Ok(()) => unreachable!("the scan accepts `{atom}`"),
    }
}

/// Letters, digits (Unicode's, as `char::is_alphanumeric` has them) and
/// `_`, at least one.
fn is_identifier(text: &str) -> bool {
    !text.is_empty() && text.chars().all(|c| c.is_alphanumeric() || c == '_')
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
