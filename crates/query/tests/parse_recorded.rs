//! What `parse_query` makes of a fixed set of rules, word for word.
//!
//! Each rule's outcome is either its exact `ParseError` text (it goes out
//! on the wire) or the parsed query itself: every atom with its argument
//! ids, the free list, the Boolean flag and the variable names in id
//! order. The ids are part of the record because the caches key on
//! structure computed from them and the canonical variable order is read
//! back through them; a parser that renumbered variables would change
//! every `decomp` entry's coordinates.

use ppr_query::{parse_query, ConjunctiveQuery};

/// `rel(0,1) rel(1,2) | free 0 | names x y z`, with `| boolean` last for
/// a Boolean query.
fn describe(query: &ConjunctiveQuery) -> String {
    let ids = |ids: &[ppr_relalg::AttrId]| -> String {
        let ids: Vec<String> = ids.iter().map(|v| v.0.to_string()).collect();
        ids.join(",")
    };
    let atoms: Vec<String> = query
        .atoms
        .iter()
        .map(|a| format!("{}({})", a.relation, ids(&a.args)))
        .collect();
    let names: Vec<String> = query.vars.ids().map(|v| query.vars.name(v)).collect();
    let mut out = format!(
        "{} | free {} | names {}",
        atoms.join(" "),
        ids(&query.free),
        names.join(" ")
    );
    if query.is_boolean() {
        out += " | boolean";
    }
    out
}

/// `(rule, outcome)`: `Ok` holds [`describe`] of the parsed query, `Err`
/// the `ParseError`'s message.
const RECORDED: &[(&str, Result<&str, &str>)] = &[
    // Missing `:-`.
    ("q(x) e(x, y)", Err("expected `head :- body`")),
    ("q(x) : - e(x, y)", Err("expected `head :- body`")),
    ("", Err("expected `head :- body`")),
    // Unbalanced and nested parentheses.
    ("q(x) :- e(x, y", Err("unbalanced parentheses")),
    ("q(x) :- e(x, y))", Err("unbalanced parentheses")),
    ("q(x) :- ) e(x, y)", Err("unbalanced parentheses")),
    ("q(x) :- e((x), y)", Err("bad variable `(x)`")),
    ("q(x) :- e(f(x), y)", Err("bad variable `f(x)`")),
    ("q((x)) :- e(x, y)", Err("bad variable `(x)`")),
    ("q(x :- e(x, y)", Err("missing `)` in `q(x`")),
    // An empty body.
    ("q() :- ", Err("body needs at least one atom")),
    ("q(x) :- ,", Err("expected `name(args)` in ``")),
    // A nullary atom.
    ("q(x) :- e()", Err("atom e has no arguments")),
    (
        "q(x) :- e(x, y), f( ), g(y)",
        Err("atom f has no arguments"),
    ),
    ("q(x) :- f(), e(x, y", Err("unbalanced parentheses")),
    // Bad relation and variable names.
    ("q(x) :- e-f(x, y)", Err("bad relation name `e-f`")),
    ("q(x) :- (x, y)", Err("bad relation name ``")),
    ("q(x) :- e(x, y z)", Err("bad variable `y z`")),
    ("q(x) :- e(x, )", Err("bad variable ``")),
    ("q(x.y) :- e(x, y)", Err("bad variable `x.y`")),
    ("q(x) :- e x", Err("expected `name(args)` in `e x`")),
    // Repeated and unused head variables.
    ("q(y, x, y) :- e(x, y)", Err("head variable y repeats")),
    (
        "q(x, w) :- e(x, y)",
        Err("head variable w not used in body"),
    ),
    (
        "q(w, w) :- e(x, y)",
        Err("head variable w not used in body"),
    ),
    // Extra periods and whitespace.
    ("  q(x) :- e(x, y) ..  ", Ok("e(0,1) | free 0 | names x y")),
    ("q(x) :- e(x, y). .", Err("missing `)` in `e(x, y).`")),
    (
        "\tq ( y , x )\n:-\n e ( x , y ) ,\tf(y,z) ,  ",
        Ok("e(0,1) f(1,2) | free 1,0 | names x y z"),
    ),
    // A non-ASCII identifier that parses.
    (
        "q(é) :- ребро(é, 名), ребро(名, é)",
        Ok("ребро(0,1) ребро(1,0) | free 0 | names é 名"),
    ),
    ("q(x) :- e(x,\u{301}y)", Err("bad variable `\u{301}y`")),
    // Well-formed rules: repeats within and across atoms, Boolean heads.
    (
        "q() :- e(a, b), e(b, c), e(c, a)",
        Ok("e(0,1) e(1,2) e(2,0) | free 0 | names a b c | boolean"),
    ),
    (
        "q() :- t(y, x, y), e(x, x)",
        Ok("t(0,1,0) e(1,1) | free 0 | names y x | boolean"),
    ),
    (
        "q(z, x) :- r(x, y), s(y, z, x), r(z, z).",
        Ok("r(0,1) s(1,2,0) r(2,2) | free 2,0 | names x y z"),
    ),
    (
        "q(u) :- e(x, y), g(w), e(u, v)",
        Ok("e(0,1) g(2) e(3,4) | free 3 | names x y w u v"),
    ),
    // Whitespace beyond ASCII's: U+00A0, U+3000, U+0085 and U+2029 are
    // `char::is_whitespace`, as are `\r`, `\x0b` and `\x0c`; U+200B is not.
    ("q(x) :- e(x,\u{a0}y)", Ok("e(0,1) | free 0 | names x y")),
    (
        "\u{a0}q(\u{3000}x\u{3000}) :-\u{3000}e\u{a0}(x, y)\u{3000}.\u{a0}",
        Ok("e(0,1) | free 0 | names x y"),
    ),
    ("q(x)\r\n:-\re(x,\ry)\r", Ok("e(0,1) | free 0 | names x y")),
    (
        "q(x) :- e(x, \u{b}y\u{c})",
        Ok("e(0,1) | free 0 | names x y"),
    ),
    (
        "q(x) :- e(x),\u{85}f(x)\u{2029}",
        Ok("e(0) f(0) | free 0 | names x"),
    ),
    ("q(x) :- e(\u{200b}x)", Err("bad variable `\u{200b}x`")),
    // Space between a name and its `(`, and none around `:-`.
    ("q (x) :- e (x, y)", Ok("e(0,1) | free 0 | names x y")),
    ("q(x):-e(x)", Ok("e(0) | free 0 | names x")),
    // A trailing comma ends the body; an empty atom anywhere else is one.
    ("q(x) :- e(x, y),", Ok("e(0,1) | free 0 | names x y")),
    ("q(x) :- e(x, y), \t", Ok("e(0,1) | free 0 | names x y")),
    ("q(x) :- e(x, y),, f(y)", Err("expected `name(args)` in ``")),
    ("q(x) :- , e(x, y)", Err("expected `name(args)` in ``")),
    ("q(x) :- e(,x)", Err("bad variable ``")),
    ("q(x,) :- e(x)", Err("bad variable ``")),
    ("q(x) :- e(x)..,", Err("missing `)` in `e(x)..`")),
    // A second `:-` belongs to the body.
    ("q(x) :- e(x, y) :- f(y)", Err("bad variable `y) :- f(y`")),
    ("q(x) :- e(x, y), f(y) :-", Err("missing `)` in `f(y) :-`")),
    // Heads without parentheses or without a name.
    ("q :- e(x, y)", Err("expected `name(args)` in `q`")),
    ("(x) :- e(x, y)", Err("bad relation name ``")),
    (" (x) :- e(x, y)", Err("bad relation name ``")),
    (":- e(x)", Err("expected `name(args)` in ``")),
    ("q(x). :- e(x)", Err("missing `)` in `q(x).`")),
    ("q(x) foo :- e(x)", Err("missing `)` in `q(x) foo`")),
    // Names that start with a digit, and letters beyond ASCII; a combining
    // mark is not alphanumeric.
    (
        "q(1x) :- e(1x, 2y), f(2y, _3)",
        Ok("e(0,1) f(1,2) | free 0 | names 1x 2y _3"),
    ),
    ("q(xé) :- e(xé, y)", Ok("e(0,1) | free 0 | names xé y")),
    (
        "q(x\u{301}) :- e(x\u{301}, y)",
        Err("bad variable `x\u{301}`"),
    ),
    // Periods are trimmed only from the end of the rule.
    ("q(x) :- e(x) . .", Err("missing `)` in `e(x) .`")),
    // Text after an atom's `)` belongs to it.
    ("q(x) :- e(x)(y)", Err("bad variable `x)(y`")),
    ("q(x) :- e(x) f(x)", Err("bad variable `x) f(x`")),
    ("q(x) :- e(x), f", Err("expected `name(args)` in `f`")),
    // Error order: the head before the body, and within the body whatever
    // the scan meets first, a malformed atom's comma or an unbalanced `)`.
    ("q(x y) :- e-f(x)", Err("bad variable `x y`")),
    ("q(x) :- e-f(x), g(x", Err("bad relation name `e-f`")),
    ("q(x) :- e(x y), f(x))", Err("bad variable `x y`")),
    ("q(x) :- e(x), f(x)), g(x y)", Err("unbalanced parentheses")),
    ("q(x) :- e(x)) , f(x y)", Err("unbalanced parentheses")),
    ("q() :- e()", Err("atom e has no arguments")),
];

#[test]
fn parse_query_outcomes_match_the_recorded_table() {
    for &(rule, recorded) in RECORDED {
        let got = parse_query(rule).map(|q| describe(&q)).map_err(|e| e.0);
        let got = got.as_ref().map(String::as_str).map_err(String::as_str);
        assert_eq!(got, recorded, "{rule:?}");
    }
}

/// A 2 000-atom chain, `e(x0, x1), …, e(x1999, x2000)`, with a repeat in
/// every hundredth atom: ids in first-occurrence order, the head last.
#[test]
fn a_long_rule_numbers_its_variables_in_order() {
    const ATOMS: usize = 2_000;
    let atoms: Vec<String> = (0..ATOMS)
        .map(|i| match i % 100 {
            99 => format!("f(x{i}, x{}, x{i})", i + 1),
            _ => format!("e(x{i}, x{})", i + 1),
        })
        .collect();
    let rule = format!("q(x{ATOMS}, x0) :- {}.", atoms.join(", "));
    let described: Vec<String> = (0..ATOMS)
        .map(|i| match i % 100 {
            99 => format!("f({i},{},{i})", i + 1),
            _ => format!("e({i},{})", i + 1),
        })
        .collect();
    let names: Vec<String> = (0..=ATOMS).map(|i| format!("x{i}")).collect();
    let recorded = format!(
        "{} | free {ATOMS},0 | names {}",
        described.join(" "),
        names.join(" ")
    );
    let query = parse_query(&rule).expect("well-formed");
    assert_eq!(describe(&query), recorded);
}
