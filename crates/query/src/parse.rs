//! A small textual format for conjunctive queries and relations.
//!
//! Queries use Datalog-ish rule syntax:
//!
//! ```text
//! q(x) :- e(x, y), e(y, z), e(z, x).
//! ```
//!
//! The head lists the free variables (an empty head `q() :- …` is a
//! Boolean query — internally emulated, as in the paper, by projecting the
//! first body variable). Relations use a braces-of-tuples syntax:
//!
//! ```text
//! e = { (1, 2), (2, 3), (3, 1) }
//! ```

use ppr_relalg::{AttrId, Relation, Schema, Value};

use crate::cq::ConjunctiveQuery;
use crate::scan::scan_rule;

/// Parse errors with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

pub(crate) fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Parses a rule like `q(x, y) :- e(x, z), e(z, y).` into a query.
/// The trailing period is optional. This is [`scan_rule`] plus
/// [`ScannedRule::to_query`](crate::scan::ScannedRule::to_query): variable
/// ids are handed out in first-occurrence order over the body.
///
/// ```
/// let q = ppr_query::parse_query("q(x) :- e(x, y), e(y, x).").unwrap();
/// assert_eq!(q.num_atoms(), 2);
/// assert_eq!(q.vars.name(q.free[0]), "x");
/// ```
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery, ParseError> {
    Ok(scan_rule(input)?.to_query())
}

/// Parses `name = { (v, v, …), … }` into a relation. Column attribute ids
/// are synthesized starting at `base_col`.
pub fn parse_relation(input: &str, base_col: u32) -> Result<Relation, ParseError> {
    let Some((name, body)) = input.split_once('=') else {
        return err("expected `name = { … }`");
    };
    let name = name.trim();
    if name.is_empty() {
        return err("relation needs a name");
    }
    let body = body.trim();
    if !body.starts_with('{') || !body.ends_with('}') {
        return err("expected braces around tuples");
    }
    let inner = &body[1..body.len() - 1];
    let mut rows: Vec<Box<[Value]>> = Vec::new();
    let mut arity: Option<usize> = None;
    for tup in split_parenthesized(inner)? {
        let values: Result<Vec<Value>, _> =
            tup.split(',').map(|v| v.trim().parse::<Value>()).collect();
        let values = match values {
            Ok(v) => v,
            Err(e) => return err(format!("bad value in ({tup}): {e}")),
        };
        match arity {
            None => arity = Some(values.len()),
            Some(k) if k != values.len() => {
                return err(format!("tuple ({tup}) has arity {} ≠ {k}", values.len()))
            }
            _ => {}
        }
        rows.push(values.into_boxed_slice());
    }
    let k = arity.ok_or_else(|| ParseError("relation needs at least one tuple".into()))?;
    let attrs: Vec<AttrId> = (0..k as u32).map(|i| AttrId(base_col + i)).collect();
    Ok(Relation::from_distinct_rows(name, Schema::new(attrs), rows))
}

/// Splits `(1,2), (3,4)` into the inner texts `1,2` and `3,4`.
fn split_parenthesized(inner: &str) -> Result<Vec<String>, ParseError> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for c in inner.chars() {
        match c {
            '(' => {
                if current.is_some() {
                    return err("nested parentheses in tuple list");
                }
                current = Some(String::new());
            }
            ')' => match current.take() {
                Some(s) => out.push(s),
                None => return err("stray `)` in tuple list"),
            },
            ',' | ' ' | '\n' | '\t' if current.is_none() => {}
            _ => match &mut current {
                Some(s) => s.push(c),
                None => return err(format!("unexpected `{c}` between tuples")),
            },
        }
    }
    if current.is_some() {
        return err("unterminated tuple");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_query() {
        let q = parse_query("q(x) :- e(x, y), e(y, z).").unwrap();
        assert_eq!(q.num_atoms(), 2);
        assert!(!q.is_boolean());
        assert_eq!(q.free.len(), 1);
        assert_eq!(q.vars.name(q.free[0]), "x");
    }

    #[test]
    fn parses_boolean_query() {
        let q = parse_query("q() :- e(x, y)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.vars.name(q.free[0]), "x"); // emulation variable
    }

    #[test]
    fn parses_multi_head() {
        let q = parse_query("q(x, z) :- e(x, y), e(y, z)").unwrap();
        assert_eq!(q.free.len(), 2);
    }

    #[test]
    fn rejects_unused_head_variable() {
        let e = parse_query("q(w) :- e(x, y)").unwrap_err();
        assert!(e.0.contains("head variable w"));
    }

    #[test]
    fn rejects_missing_turnstile() {
        assert!(parse_query("q(x) e(x, y)").is_err());
    }

    #[test]
    fn rejects_malformed_atoms() {
        assert!(parse_query("q(x) :- e(x, y").is_err());
        assert!(parse_query("q(x) :- (x, y)").is_err());
        assert!(parse_query("q(x) :- e()").is_err());
    }

    #[test]
    fn repeated_variables_allowed() {
        let q = parse_query("q(x) :- e(x, x)").unwrap();
        assert_eq!(q.atoms[0].args[0], q.atoms[0].args[1]);
    }

    #[test]
    fn rejects_repeated_head_variable() {
        // `ConjunctiveQuery::new` asserts distinct free variables; the
        // parser must turn that into a typed error, not a panic (the
        // service feeds untrusted wire text straight into parse_query).
        let e = parse_query("q(x, x) :- e(x, y)").unwrap_err();
        assert!(e.0.contains("head variable x repeats"));
    }

    /// `q(<head>) :- rel(args), …` with single spaces: what a parsed query
    /// says, whatever its text looked like.
    fn normal_form(q: &ConjunctiveQuery) -> String {
        let names = |ids: &[AttrId]| -> String {
            let names: Vec<String> = ids.iter().map(|&v| q.vars.name(v)).collect();
            names.join(", ")
        };
        let head = if q.is_boolean() {
            String::new()
        } else {
            names(&q.free)
        };
        let body: Vec<String> = q
            .atoms
            .iter()
            .map(|a| format!("{}({})", a.relation, names(&a.args)))
            .collect();
        format!("q({head}) :- {}", body.join(", "))
    }

    #[test]
    fn edge_cases_keep_their_recorded_outcomes() {
        // Recorded from the two-pass parser this one replaced (commit
        // a993e9a): which texts it took, and word for word what it said
        // about the ones it did not — the message goes out on the wire.
        let cases: &[(&str, Result<&str, &str>)] = &[
            ("q(x) :- e(x, y), e(y, z).", Ok("q(x) :- e(x, y), e(y, z)")),
            ("q(x) :- e(x,y),", Ok("q(x) :- e(x, y)")),
            ("q(x) :- e(x,y),   ", Ok("q(x) :- e(x, y)")),
            ("q(x) :- , e(x,y)", Err("expected `name(args)` in ``")),
            ("q(x) :- e(x,y),,e(y,z)", Err("expected `name(args)` in ``")),
            ("q(x) :- e((x))", Err("bad variable `(x)`")),
            ("q(x) :- e(x,y))", Err("unbalanced parentheses")),
            ("q(x) :- e(x y)", Err("bad variable `x y`")),
            ("q(x)) :- e(x, y)", Err("bad variable `x)`")),
            ("q((x)) :- e(x, y)", Err("bad variable `(x)`")),
            ("q(é) :- ребро(é, 名)", Ok("q(é) :- ребро(é, 名)")),
            (
                "q(x) :-\te(x,\ty)\t,\n\te(y, z)\n",
                Ok("q(x) :- e(x, y), e(y, z)"),
            ),
            ("q(x) :- e(\u{a0}x\u{2003}, y)", Ok("q(x) :- e(x, y)")),
            ("  q(x) :- e(x, y) .  ", Ok("q(x) :- e(x, y)")),
            ("q(x) :- e(x, y)...", Ok("q(x) :- e(x, y)")),
            ("q(x) :- e(x, y). .", Err("missing `)` in `e(x, y).`")),
            ("...", Err("expected `head :- body`")),
            ("", Err("expected `head :- body`")),
            ("q(x) e(x, y)", Err("expected `head :- body`")),
            ("q(x) :- e()", Err("atom e has no arguments")),
            ("q(x) :- e(), f(x", Err("unbalanced parentheses")),
            ("q(w) :- e(x), f()", Err("atom f has no arguments")),
            ("q(x) :- e(x,y) f(y,z)", Err("bad variable `y) f(y`")),
            ("q(x) :- e(x)(y)", Err("bad variable `x)(y`")),
            ("q(x) :- e x(y) z", Err("missing `)` in `e x(y) z`")),
            ("q(x) :- e x(y)", Err("bad relation name `e x`")),
            ("q(x) :- (x, y)", Err("bad relation name ``")),
            ("q(x) :- e(x,)", Err("bad variable ``")),
            ("q(x) :- e(,x)", Err("bad variable ``")),
            ("q() :- ", Err("body needs at least one atom")),
            ("q() :-", Err("body needs at least one atom")),
            ("q :- e(x)", Err("expected `name(args)` in `q`")),
            ("q(x :- e(x)", Err("missing `)` in `q(x`")),
            ("(x) :- e(x)", Err("bad relation name ``")),
            ("q r(x) :- e(x)", Err("bad relation name `q r`")),
            ("q(x, x) :- e(x, y)", Err("head variable x repeats")),
            ("q(w) :- e(x, y)", Err("head variable w not used in body")),
            ("q(x-y) :- e(", Err("bad variable `x-y`")),
            ("q(x) :- a-b(x)", Err("bad relation name `a-b`")),
            ("q(x) :- e(x) :- f(x)", Err("bad variable `x) :- f(x`")),
            ("q(x) :- e(x.y)", Err("bad variable `x.y`")),
            ("q(x) :- e(x, y", Err("unbalanced parentheses")),
            ("q(x) :- )", Err("unbalanced parentheses")),
            ("q(x) :- e(x), f(y))", Err("unbalanced parentheses")),
            ("q(x) :- e(x y), f(z))", Err("bad variable `x y`")),
            ("q(x) :- e (x, y)", Ok("q(x) :- e(x, y)")),
            (
                "q ( x ) :- e ( x , y ) , f ( y )",
                Ok("q(x) :- e(x, y), f(y)"),
            ),
            ("q(1) :- 2(1, _)", Ok("q(1) :- 2(1, _)")),
            ("q() :- e(x, x), e(x, x)", Ok("q() :- e(x, x), e(x, x)")),
            ("q(y, x) :- e(x, y)", Ok("q(y, x) :- e(x, y)")),
            ("q(x):-e(x,y),f(y,z).", Ok("q(x) :- e(x, y), f(y, z)")),
            ("q(x) :- e(x, y);", Err("missing `)` in `e(x, y);`")),
            ("q(x) :- e(x,\u{301}y)", Err("bad variable `\u{301}y`")),
        ];
        for &(text, expected) in cases {
            let got = parse_query(text).map(|q| normal_form(&q)).map_err(|e| e.0);
            let got = got.as_ref().map(String::as_str).map_err(String::as_str);
            assert_eq!(got, expected, "{text:?}");
        }
    }

    mod rendered {
        use super::*;
        use proptest::prelude::*;

        const RELATIONS: [&str; 4] = ["e", "edge", "clause3_pnp", "r_1"];
        const VARIABLES: [&str; 8] = ["x", "y", "z", "v10", "_a", "\u{e9}", "w", "u2"];
        const GAPS: [&str; 5] = ["", " ", "\t", "\n", "  "];

        /// `name(a, b)` with the next gaps wherever whitespace may go.
        fn spaced<'g>(name: &str, items: &[&str], gap: &mut impl FnMut() -> &'g str) -> String {
            let mut out = format!("{name}{}({}", gap(), gap());
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out += &format!("{},{}", gap(), gap());
                }
                out += item;
            }
            out + gap() + ")"
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A rule rendered from random atoms with random whitespace at
            /// every place the grammar allows it parses back to those atoms,
            /// that head and that Boolean flag.
            #[test]
            fn well_formed_rules_parse_to_what_they_were_rendered_from(
                atoms in prop::collection::vec(
                    (0usize..4, prop::collection::vec(0usize..8, 1..=4)),
                    1..=12,
                ),
                head_mask in 0u16..256,
                head_reversed in prop::bool::ANY,
                gaps in prop::collection::vec(0usize..5, 8..=64),
                period in prop::bool::ANY,
            ) {
                let mut gaps = gaps.iter().cycle().map(|&g| GAPS[g]);
                let mut gap = || gaps.next().unwrap();

                let mut head: Vec<&str> = Vec::new();
                let mut body = Vec::new();
                let mut expected = Vec::new();
                for (rel, args) in &atoms {
                    let args: Vec<&str> = args.iter().map(|&v| VARIABLES[v]).collect();
                    for (v, name) in VARIABLES.iter().enumerate() {
                        if head_mask >> v & 1 == 1 && args.contains(name) && !head.contains(name) {
                            head.push(name);
                        }
                    }
                    body.push(spaced(RELATIONS[*rel], &args, &mut gap));
                    expected.push(format!("{}({})", RELATIONS[*rel], args.join(", ")));
                }
                if head_reversed {
                    head.reverse();
                }
                let mut text = gap().to_string() + &spaced("q", &head, &mut gap) + gap() + ":-";
                for (i, atom) in body.iter().enumerate() {
                    if i > 0 {
                        text = text + gap() + ",";
                    }
                    text = text + gap() + atom;
                }
                text += gap();
                if period {
                    text += ".";
                }
                text += gap();

                let query = parse_query(&text).map_err(|e| TestCaseError::fail(e.0))?;
                prop_assert_eq!(query.is_boolean(), head.is_empty(), "{:?}", text);
                prop_assert_eq!(
                    normal_form(&query),
                    format!("q({}) :- {}", head.join(", "), expected.join(", ")),
                    "{:?}", text
                );
                if head.is_empty() {
                    prop_assert_eq!(&query.free, &query.atoms[0].args[..1]);
                }
            }
        }
    }

    #[test]
    fn parses_relation() {
        let r = parse_relation("e = { (1, 2), (2, 1) }", 100).unwrap();
        assert_eq!(r.name(), "e");
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn relation_rejects_mixed_arity() {
        let e = parse_relation("e = { (1, 2), (3) }", 100).unwrap_err();
        assert!(e.0.contains("arity"));
    }

    #[test]
    fn relation_rejects_bad_values() {
        assert!(parse_relation("e = { (a, b) }", 100).is_err());
        assert!(parse_relation("e = (1, 2)", 100).is_err());
        assert!(parse_relation("= { (1) }", 100).is_err());
    }

    #[test]
    fn parsed_query_evaluates() {
        use crate::cq::Database;
        use ppr_relalg::{exec, Budget, Plan};
        let q = parse_query("q(x) :- e(x, y), e(y, x)").unwrap();
        let mut db = Database::new();
        db.add(parse_relation("e = { (1, 2), (2, 1), (1, 3) }", 100).unwrap());
        // Straight join plan by hand (core's methods live a crate above).
        let mut plan = Plan::scan(db.expect("e"), q.atoms[0].args.clone());
        plan = plan.join(Plan::scan(db.expect("e"), q.atoms[1].args.clone()));
        let plan = plan.project(q.free.clone());
        let (rel, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 2); // x ∈ {1, 2}
    }
}
