//! Property tests for the canonical query fingerprint.
//!
//! The plan cache is only sound if the fingerprint is invariant under the
//! two transformations that do not change a conjunctive query's meaning —
//! variable renaming and atom reordering — and only *useful* if
//! structurally different queries get different keys. Both directions are
//! exercised here on randomly generated 3-COLOR query bodies.

use projection_pushing::graph::generate::random_graph;
use projection_pushing::query::{fingerprint, parse_query};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The 3-COLOR query text of a random graph: `q(<free>) :- edge(...), ...`
/// with vertex `u` named by `names(u)`.
fn color_text(edges: &[(usize, usize)], free: &[usize], names: impl Fn(usize) -> String) -> String {
    let head: Vec<String> = free.iter().map(|&v| names(v)).collect();
    let body: Vec<String> = edges
        .iter()
        .map(|&(u, v)| format!("edge({}, {})", names(u), names(v)))
        .collect();
    format!("q({}) :- {}", head.join(", "), body.join(", "))
}

/// A connected-ish random edge set on `order` vertices.
fn random_edges(order: usize, extra: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let max = order * (order - 1) / 2;
    let m = (order - 1 + extra).min(max);
    random_graph(order, m, rng).edges().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming every variable and permuting the atoms leaves the
    /// fingerprint unchanged — the invariance the plan cache relies on.
    #[test]
    fn invariant_under_renaming_and_atom_permutation(
        order in 3usize..10,
        extra in 0usize..10,
        free_count in 0usize..3,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(order, extra, &mut rng);
        prop_assume!(!edges.is_empty());
        let free: Vec<usize> = (0..free_count.min(order)).collect();

        let original = color_text(&edges, &free, |v| format!("v{v}"));

        // A random bijective renaming of the vertex set…
        let mut perm: Vec<usize> = (0..order).collect();
        perm.shuffle(&mut rng);
        // …and a random permutation of the atoms (and of each atom's
        // *position* in the body — not of its arguments, which would
        // change the edge).
        let mut shuffled = edges.clone();
        shuffled.shuffle(&mut rng);
        let renamed = color_text(&shuffled, &free, |v| format!("x{}", perm[v]));

        let a = fingerprint(&parse_query(&original).unwrap());
        let b = fingerprint(&parse_query(&renamed).unwrap());
        prop_assert_eq!(a, b, "original: {}\nrenamed: {}", original, renamed);
    }

    /// Adding an edge that was not there before changes the structure,
    /// so the fingerprint must change.
    #[test]
    fn extra_atom_changes_the_key(
        order in 3usize..9,
        extra in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = random_edges(order, extra, &mut rng);
        prop_assume!(!edges.is_empty());
        let base = fingerprint(&parse_query(&color_text(&edges, &[], |v| format!("v{v}"))).unwrap());

        // A fresh vertex pendant on a random existing one: never isomorphic
        // to the original body (one more variable, one more atom).
        let anchor = edges[rng.random_range(0..edges.len())].0;
        edges.push((anchor, order));
        let grown = fingerprint(&parse_query(&color_text(&edges, &[], |v| format!("v{v}"))).unwrap());
        prop_assert_ne!(base, grown);
    }

    /// The free list is part of the key: projecting a different variable
    /// set must not collide (same body, different output schema).
    #[test]
    fn free_variables_change_the_key(
        order in 3usize..9,
        extra in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = random_edges(order, extra, &mut rng);
        prop_assume!(!edges.is_empty());
        let boolean = fingerprint(&parse_query(&color_text(&edges, &[], |v| format!("v{v}"))).unwrap());
        // Project an endpoint of the first edge: vertex 0 may be isolated
        // in `random_graph`, and isolated head variables do not parse.
        let unary = fingerprint(
            &parse_query(&color_text(&edges, &[edges[0].0], |v| format!("v{v}"))).unwrap(),
        );
        prop_assert_ne!(boolean, unary);
    }
}

/// Structurally distinct 3-COLOR queries — non-isomorphic graph families —
/// all receive distinct cache keys.
#[test]
fn distinct_structures_get_distinct_keys() {
    use projection_pushing::graph::families;
    let graphs = vec![
        families::path(5),
        families::cycle(5),
        families::cycle(6),
        families::complete(4),
        families::complete(5),
        families::ladder(3),
        families::grid(3, 3),
        families::augmented_path(5),
    ];
    let mut keys = Vec::new();
    for g in &graphs {
        let text = color_text(g.edges(), &[], |v| format!("v{v}"));
        keys.push(fingerprint(&parse_query(&text).unwrap()));
    }
    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(
                keys[i], keys[j],
                "non-isomorphic graphs {i} and {j} collided"
            );
        }
    }
}

mod golden {
    use projection_pushing::graph::families;
    use projection_pushing::graph::generate::random_graph_density;
    use projection_pushing::query::{
        canonical_var_order, fingerprint, parse_query, Atom, ConjunctiveQuery, QueryIdentity,
        QueryShape, Vars,
    };
    use projection_pushing::relalg::AttrId;
    use projection_pushing::workload::{
        color_query, php_query, random_sat, sat_query, ColorQueryOptions,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The benchmark's families (`benchmark/src/instances.rs`) and the
    /// irregular shapes an index over the query's variables must survive.
    fn queries() -> Vec<(&'static str, ConjunctiveQuery)> {
        let color = |graph: &projection_pushing::graph::Graph, free: bool, seed: u64| {
            let options = if free {
                ColorQueryOptions::non_boolean()
            } else {
                ColorQueryOptions::boolean()
            };
            color_query(graph, &options, &mut StdRng::seed_from_u64(seed)).0
        };
        let sat = |k: usize, vars: usize, clauses: usize, free: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let instance = random_sat(vars, clauses, k, &mut rng);
            sat_query(&instance, free, &mut rng).0
        };
        let random = |order: usize, density: f64, seed: u64| {
            random_graph_density(order, density, &mut StdRng::seed_from_u64(seed))
        };
        let parsed = |text: &str| parse_query(text).expect("golden text parses");

        // Hand-built: ids no parser would hand out, in an order that is
        // neither sorted nor dense.
        let sparse = {
            let (a, b, c) = (AttrId(1_000_000), AttrId(7), AttrId(4_000_000_000));
            ConjunctiveQuery::new(
                vec![
                    Atom::new("r", vec![a, b]),
                    Atom::new("s", vec![b, c, a]),
                    Atom::new("r", vec![c, c]),
                ],
                vec![c, b],
                Vars::new(),
                false,
            )
        };
        // Atoms without arguments share one component of no variables.
        let nullary = {
            let mut vars = Vars::new();
            let (x, y) = (vars.intern("x"), vars.intern("y"));
            ConjunctiveQuery::new(
                vec![
                    Atom::new("flag", vec![]),
                    Atom::new("e", vec![x, y]),
                    Atom::new("flag", vec![]),
                ],
                vec![y],
                vars,
                false,
            )
        };

        vec![
            (
                "augpath20/bool",
                color(&families::augmented_path(20), false, 1),
            ),
            (
                "augpath20/free",
                color(&families::augmented_path(20), true, 2),
            ),
            ("ladder20/bool", color(&families::ladder(20), false, 3)),
            ("ladder20/free", color(&families::ladder(20), true, 4)),
            (
                "augladder20/bool",
                color(&families::augmented_ladder(20), false, 5),
            ),
            (
                "augladder20/free",
                color(&families::augmented_ladder(20), true, 6),
            ),
            (
                "augcircladder20/bool",
                color(&families::augmented_circular_ladder(20), false, 7),
            ),
            (
                "augcircladder20/free",
                color(&families::augmented_circular_ladder(20), true, 8),
            ),
            ("color-n20-d2/bool", color(&random(20, 2.0, 9), false, 9)),
            ("color-n20-d2/free", color(&random(20, 2.0, 10), true, 10)),
            ("color-n16-d3/bool", color(&random(16, 3.0, 11), false, 11)),
            ("2sat-n40-d1/bool", sat(2, 40, 40, 0.0, 12)),
            ("2sat-n40-d1/free", sat(2, 40, 40, 0.2, 13)),
            ("3sat-n12-d2/bool", sat(3, 12, 24, 0.0, 14)),
            ("3sat-n12-d2/free", sat(3, 12, 24, 0.2, 15)),
            ("php5", php_query(5, 4).0),
            ("cycle6", color(&families::cycle(6), false, 16)),
            (
                "two-triangles",
                parsed("q() :- e(a,b), e(b,c), e(c,a), e(u,v), e(v,w), e(w,u)"),
            ),
            (
                "disconnected/free",
                parsed("q(x, u) :- e(x, y), f(y, z), e(u, v), g(w)"),
            ),
            ("self-loop", parsed("q() :- e(x, x)")),
            (
                "repeated-in-ternary",
                parsed("q(y) :- t(x, y, x), t(y, y, z)"),
            ),
            (
                "mixed-relations",
                parsed("q(a) :- edge(a, b), clause3_pnp(b, c, d), neq(d, a), edge(c, a)"),
            ),
            ("head-order/xy", parsed("q(x, y) :- e(x, y), e(y, z)")),
            ("head-order/yx", parsed("q(y, x) :- e(x, y), e(y, z)")),
            ("grid3x3/free", color(&families::grid(3, 3), true, 17)),
            ("complete4", color(&families::complete(4), false, 18)),
            ("sparse-ids", sparse),
            ("nullary-atoms", nullary),
        ]
    }

    /// `(label, fingerprint, canonical variable order)` as computed by the
    /// two-`FxHashMap`-probes-per-argument-per-round implementation this
    /// table was recorded from (commit a993e9a). A faster refinement has to
    /// reproduce every digit: the fingerprint keys three caches and the
    /// canonical order is the decomposition cache's coordinate system.
    const RECORDED: &[(&str, &str, &str)] = &[
        ("augpath20/bool", "385a3342c4f01188b0cfdbe40fbf6f4d", "v4 v35 v8 v1 v19 v16 v0 v26 v20 v38 v2 v22 v30 v37 v15 v28 v32 v25 v23 v13 v6 v14 v11 v29 v27 v10 v5 v9 v39 v21 v17 v7 v3 v24 v12 v31 v36 v34 v18 v33"),
        ("augpath20/free", "49add5684b2629be28d1b6297d51c991", "v13 v27 v39 v16 v6 v36 v37 v3 v28 v19 v9 v17 v7 v25 v8 v21 v11 v29 v31 v5 v35 v20 v14 v2 v32 v30 v18 v33 v12 v23 v15 v1 v10 v22 v0 v4 v38 v24 v34 v26"),
        ("ladder20/bool", "5635adc6a51c12f55ce16b7e1b36820e", "v25 v12 v13 v15 v18 v31 v26 v27 v6 v0 v34 v38 v10 v37 v23 v22 v14 v7 v30 v11 v3 v24 v2 v39 v28 v19 v9 v5 v33 v16 v29 v4 v1 v20 v17 v32 v36 v35 v8 v21"),
        ("ladder20/free", "9261228c2fa072562ee9f28240a9159d", "v26 v25 v34 v39 v35 v13 v0 v12 v11 v14 v18 v3 v27 v30 v2 v37 v8 v21 v29 v19 v20 v7 v33 v24 v6 v9 v28 v22 v31 v4 v36 v16 v15 v1 v32 v23 v38 v10 v17 v5"),
        ("augladder20/bool", "88ec6e5559a79e1ce00d6f2b61138c52", "v58 v47 v29 v65 v28 v74 v54 v27 v24 v1 v78 v34 v52 v41 v30 v11 v5 v72 v42 v16 v63 v23 v75 v60 v49 v76 v67 v25 v0 v46 v40 v50 v66 v38 v48 v9 v39 v6 v33 v43 v71 v7 v70 v4 v12 v21 v8 v37 v31 v45 v62 v69 v56 v44 v35 v68 v64 v79 v36 v14 v13 v55 v53 v61 v20 v32 v17 v59 v19 v10 v51 v3 v2 v18 v26 v22 v73 v15 v77 v57"),
        ("augladder20/free", "16f8c54aed67f88263e16172aec7ee0e", "v32 v63 v44 v62 v36 v17 v20 v23 v37 v42 v54 v26 v59 v69 v48 v61 v65 v30 v35 v0 v2 v71 v40 v47 v16 v41 v34 v79 v49 v46 v72 v77 v9 v1 v56 v7 v28 v73 v18 v25 v76 v67 v43 v55 v6 v51 v60 v4 v14 v66 v21 v58 v70 v19 v78 v24 v57 v3 v22 v5 v50 v38 v15 v12 v31 v11 v45 v75 v39 v29 v33 v53 v10 v74 v64 v8 v52 v27 v68 v13"),
        ("augcircladder20/bool", "3e2e393bfff67e83183af3bd340cd0b3", "v0 v15 v16 v14 v25 v5 v12 v18 v53 v74 v37 v40 v71 v2 v27 v6 v72 v44 v52 v31 v70 v23 v7 v34 v36 v28 v24 v57 v35 v17 v62 v73 v76 v20 v59 v56 v19 v1 v79 v64 v60 v43 v65 v30 v42 v75 v11 v48 v39 v26 v61 v77 v13 v9 v49 v54 v68 v10 v8 v58 v3 v4 v32 v38 v45 v51 v66 v46 v33 v55 v47 v78 v29 v41 v50 v67 v63 v21 v22 v69"),
        ("augcircladder20/free", "8aeaf43357c5e67fcfc108cbc11729d4", "v2 v54 v59 v63 v20 v34 v4 v27 v57 v23 v35 v15 v8 v50 v49 v29 v25 v40 v26 v30 v3 v11 v32 v72 v43 v16 v45 v53 v19 v51 v65 v76 v22 v14 v5 v13 v64 v21 v52 v28 v61 v38 v62 v12 v47 v0 v58 v70 v74 v75 v17 v7 v73 v68 v71 v48 v77 v60 v42 v55 v9 v79 v24 v69 v6 v36 v10 v56 v66 v33 v39 v18 v67 v44 v41 v37 v1 v78 v46 v31"),
        ("color-n20-d2/bool", "d972a0ec5c163346b0c79868dae18d84", "v12 v13 v9 v2 v8 v4 v5 v0 v7 v14 v19 v17 v15 v1 v6 v16 v11 v3 v18"),
        ("color-n20-d2/free", "99ca8739f3d693ce64b0332365c44d36", "v0 v15 v7 v8 v13 v4 v16 v9 v19 v6 v14 v12 v11 v5 v10 v3 v2 v18 v17 v1"),
        ("color-n16-d3/bool", "09dd66ce9209c34f1fc58471a6e3031e", "v5 v12 v4 v10 v3 v2 v14 v9 v1 v7 v6 v11 v0 v15 v8 v13"),
        ("2sat-n40-d1/bool", "1d8791863fd36f4b2a26c70c5fb38d3a", "x26 x11 x27 x38 x6 x34 x35 x1 x24 x29 x16 x39 x5 x0 x10 x8 x12 x37 x18 x15 x32 x22 x25 x4 x20 x2 x23 x7 x9 x31 x13 x30 x19 x28 x33 x36"),
        ("2sat-n40-d1/free", "d79b37f28ab8a285156aa5ccd03b14fe", "x36 x16 x21 x29 x4 x33 x22 x7 x26 x39 x23 x1 x2 x30 x8 x12 x19 x0 x27 x38 x6 x35 x9 x15 x37 x25 x13 x20 x34 x31 x18 x17 x28"),
        ("3sat-n12-d2/bool", "c622d304c547d9d80b8f5fe7f7de0cb0", "x2 x5 x10 x11 x6 x3 x7 x1 x0 x9 x8 x4"),
        ("3sat-n12-d2/free", "181d8cfa8d7e1063d8c2b18286e043b7", "x7 x2 x3 x4 x0 x10 x5 x8 x9 x1 x6 x11"),
        ("php5", "674703ac8eaba1cd5e616ec46fbf46f6", "pigeon2 pigeon0 pigeon1 pigeon4 pigeon3"),
        ("cycle6", "92803366cc15b06dc3858018d6f3a8cd", "v0 v1 v2 v3 v4 v5"),
        ("two-triangles", "a02467d7990db8ce2ae0039440fb2eec", "a b c u v w"),
        ("disconnected/free", "e5f1083feb561ca04182607eb0719f53", "u y z w x v"),
        ("self-loop", "399a1e2618118a488a6e67a7d96ab4f8", "x"),
        ("repeated-in-ternary", "0a21fbf2a0ab17b590d04e7896d5c6e3", "z y x"),
        ("mixed-relations", "e9c85d2d6c54fc9a7ab9defa463bfe45", "a b c d"),
        ("head-order/xy", "eda051a407cf0e2cb2fad02d239d6862", "y x z"),
        ("head-order/yx", "70041a1e2475582189851461e272a7f7", "x z y"),
        ("grid3x3/free", "1385644ca564354998105f92098257b2", "v6 v0 v3 v2 v5 v8 v1 v7 v4"),
        ("complete4", "dd2020e67189e4f0e4e2ba443212737e", "v3 v0 v2 v1"),
        ("sparse-ids", "86d9b46f68189b59a158ecec21f3ffc3", "a7 a4000000000 a1000000"),
        ("nullary-atoms", "11837166e5af55ef878f6ff4d670c059", "x y"),
    ];

    #[test]
    fn fingerprints_and_canonical_orders_match_the_recorded_table() {
        let queries = queries();
        assert_eq!(queries.len(), RECORDED.len());
        for ((label, query), &(recorded, key, order)) in queries.iter().zip(RECORDED) {
            assert_eq!(*label, recorded);
            assert_eq!(fingerprint(query).to_string(), key, "{label}");
            let names: Vec<String> = canonical_var_order(query)
                .iter()
                .map(|&v| query.vars.name(v))
                .collect();
            assert_eq!(names.join(" "), order, "{label}");
            let identity = QueryIdentity::of(query);
            assert_eq!(identity.fingerprint, fingerprint(query), "{label}");
            assert_eq!(identity.shape, QueryShape::of(query), "{label}");
            assert_eq!(identity.shape.num_vars, names.len(), "{label}");
        }
    }
}

/// The text path a `run` is keyed by (`scan_rule` + `identify`) against
/// the query path the replay and the library take (`parse_query` +
/// `QueryIdentity::of`), on random renderings of the benchmark's families,
/// SAT queries and random asymmetric queries: renamed, atoms permuted,
/// spacing varied. Both must also agree with the query the text was
/// rendered from, which no scanner touched.
mod parity {
    use projection_pushing::graph::generate::random_graph_density;
    use projection_pushing::graph::{families, Graph};
    use projection_pushing::query::{
        canonical_var_order, fingerprint, parse_query, scan_rule, Atom, ConjunctiveQuery,
        QueryIdentity, QueryShape, Vars,
    };
    use projection_pushing::relalg::AttrId;
    use projection_pushing::workload::{color_query, random_sat, sat_query, ColorQueryOptions};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Digit-free, so a prefix and a distinct number make a distinct name.
    const PREFIXES: [&str; 5] = ["v", "x_", "é", "Вершина", "名"];
    const RELATIONS: [&str; 4] = ["e", "r_1", "clause3", "ребро"];
    const GAPS: [&str; 5] = ["", " ", "\t", "\n", "  "];

    fn color(graph: &Graph, free: bool, rng: &mut StdRng) -> ConjunctiveQuery {
        let options = if free {
            ColorQueryOptions::non_boolean()
        } else {
            ColorQueryOptions::boolean()
        };
        color_query(graph, &options, rng).0
    }

    fn sat(k: usize, size: usize, free: bool, rng: &mut StdRng) -> ConjunctiveQuery {
        let instance = random_sat(size + k, 2 * size, k, rng);
        sat_query(&instance, if free { 0.2 } else { 0.0 }, rng).0
    }

    /// Atoms over random relations of arity 1 to 4, variables drawn with
    /// repeats (also within an atom), and a random head or none.
    fn asymmetric(size: usize, rng: &mut StdRng) -> ConjunctiveQuery {
        let mut vars = Vars::new();
        let pool = vars.intern_numbered("v", size + 1);
        let atoms: Vec<Atom> = (0..size)
            .map(|_| {
                let arity = rng.random_range(1..=4);
                let relation = RELATIONS[rng.random_range(0..RELATIONS.len())];
                let args = (0..arity).map(|_| pool[rng.random_range(0..pool.len())]);
                Atom::new(relation, args.collect())
            })
            .collect();
        let mut used: Vec<AttrId> = atoms.iter().flat_map(|a| a.vars()).collect();
        used.sort_unstable();
        used.dedup();
        used.shuffle(rng);
        let head = rng.random_range(0..=used.len().min(3));
        let boolean = head == 0;
        let free = if boolean {
            vec![atoms[0].args[0]]
        } else {
            used[..head].to_vec()
        };
        ConjunctiveQuery::new(atoms, free, vars, boolean)
    }

    fn source(kind: usize, size: usize, free: bool, rng: &mut StdRng) -> ConjunctiveQuery {
        match kind {
            0 => color(&families::augmented_path(size), free, rng),
            1 => color(&families::ladder(size), free, rng),
            2 => color(&families::augmented_ladder(size), free, rng),
            3 => color(&families::augmented_circular_ladder(size + 3), free, rng),
            4 => color(&random_graph_density(size + 4, 2.0, rng), free, rng),
            5 => sat(3, size, free, rng),
            6 => sat(2, size, free, rng),
            _ => asymmetric(size, rng),
        }
    }

    /// `query` as rule text under fresh names, its atoms shuffled and
    /// whitespace wherever the grammar allows it, with the column names a
    /// reply to it carries.
    fn render(query: &ConjunctiveQuery, rng: &mut StdRng) -> (String, Vec<String>) {
        let vars = query.all_vars();
        let mut numbers: Vec<usize> = (0..vars.len()).collect();
        numbers.shuffle(rng);
        let name = |v: AttrId| {
            let i = vars.iter().position(|&w| w == v).unwrap();
            format!("{}{}", PREFIXES[numbers[i] % PREFIXES.len()], numbers[i])
        };
        let mut atoms: Vec<&Atom> = query.atoms.iter().collect();
        atoms.shuffle(rng);
        let head: Vec<String> = if query.is_boolean() {
            Vec::new()
        } else {
            query.free.iter().map(|&v| name(v)).collect()
        };
        let columns = if query.is_boolean() {
            vec![name(atoms[0].args[0])]
        } else {
            head.clone()
        };
        let mut gap = || GAPS[rng.random_range(0..GAPS.len())];
        let mut list = |names: Vec<String>| -> String {
            let mut out = String::new();
            for (i, n) in names.iter().enumerate() {
                if i > 0 {
                    out = out + gap() + ",";
                }
                out = out + gap() + n;
            }
            out + gap()
        };
        let head = list(head);
        let body: Vec<String> = atoms
            .iter()
            .map(|a| {
                let args = list(a.args.iter().map(|&v| name(v)).collect());
                format!("{}({args})", a.relation)
            })
            .collect();
        let body = list(body);
        let text = format!("q({head}) :- {body}.");
        (text, columns)
    }

    /// The families of [`source`], in its `kind` order.
    const KINDS: [&str; 8] = [
        "augpath",
        "ladder",
        "augladder",
        "augcircladder",
        "color-random",
        "3sat",
        "2sat",
        "asymmetric",
    ];

    /// Per family of [`source`] and per head (Boolean, then free), a fold
    /// of the fingerprints and canonical variable orders of 125 queries
    /// drawn at sizes 3 to 15 from one seed, as the refinement computed
    /// them when this table was recorded (commit c62812f). The 28 queries
    /// of `golden::RECORDED` show a digit that moves; these 2 000 show
    /// that a faster refinement moves none, on the shapes the parity test
    /// draws from.
    const DIGESTS: [(&str, u128, u128); 8] = [
        (
            "augpath",
            0x2535_75d4_648f_1a5f_7835_709b_1fa7_ca25,
            0xd732_cdac_5092_7f4c_0411_2a9c_221e_477e,
        ),
        (
            "ladder",
            0x5e50_c652_4c1f_a1e7_459f_b991_f977_fbc0,
            0x826f_21b4_7a64_db23_22fb_3e29_4f9a_2c75,
        ),
        (
            "augladder",
            0x6fc2_be64_11dc_7006_7301_cb27_e668_f9d0,
            0x5d0a_b583_7296_08ac_ce74_2a0d_4495_e78e,
        ),
        (
            "augcircladder",
            0x2838_7820_4c2a_3059_47f9_7899_0dd0_6fe9,
            0xb620_2073_da61_0e89_6632_8460_f55b_e411,
        ),
        (
            "color-random",
            0x1614_c676_fc3c_f46a_3f1a_e25d_0e7b_1992,
            0x9657_7267_4229_1007_b46c_6f4d_e822_5d12,
        ),
        (
            "3sat",
            0xe364_af45_3c85_c3de_3dfb_9001_9f43_c73e,
            0xd5f6_47a7_897c_69fa_749b_e58b_212f_987e,
        ),
        (
            "2sat",
            0x4c57_0b78_6063_b3b7_2f6f_c765_31ed_bd85,
            0x0c59_de53_b8de_5bcb_b9d7_b77f_13bd_a5ec,
        ),
        (
            "asymmetric",
            0x644d_ba3b_9f56_471f_d817_9fc9_6249_7f5a,
            0x3ed0_5ab4_f377_5606_24d5_3a73_43eb_507e,
        ),
    ];

    /// FNV-1a over 128-bit words: stable across platforms and releases.
    fn fold(acc: u128, word: u128) -> u128 {
        (acc ^ word).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013b)
    }

    fn digest(kind: usize, free: bool) -> u128 {
        let mut rng = StdRng::seed_from_u64(2 * kind as u64 + free as u64);
        let mut acc = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
        for draw in 0..125 {
            let query = source(kind, 3 + draw % 13, free, &mut rng);
            acc = fold(acc, fingerprint(&query).0);
            let order = canonical_var_order(&query);
            acc = fold(acc, order.len() as u128);
            for v in order {
                acc = fold(acc, v.0 as u128);
            }
        }
        acc
    }

    #[test]
    fn refinement_digests_match_the_recorded_table() {
        let mut got = Vec::new();
        for (kind, name) in KINDS.iter().enumerate() {
            got.push((*name, digest(kind, false), digest(kind, true)));
        }
        assert_eq!(got, DIGESTS, "\n{got:#x?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_text_path_keys_and_names_a_run_as_the_parsed_query_does(
            kind in 0usize..8,
            size in 3usize..10,
            free in prop::bool::ANY,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let source = source(kind, size, free, &mut rng);
            let (text, columns) = render(&source, &mut rng);

            let rule = scan_rule(&text).map_err(|e| TestCaseError::fail(e.0))?;
            let keyed = rule.identify();
            let parsed = parse_query(&text).unwrap();
            prop_assert_eq!(&keyed.identity, &QueryIdentity::of(&parsed), "{}", text);
            prop_assert_eq!(keyed.identity.fingerprint, fingerprint(&source), "{}", text);
            prop_assert_eq!(&keyed.identity.shape, &QueryShape::of(&source), "{}", text);
            prop_assert_eq!(keyed.canonical_var_order(), canonical_var_order(&parsed), "{}", text);

            let mut read: Vec<&str> = parsed.atoms.iter().map(|a| a.relation.as_str()).collect();
            read.sort_unstable();
            read.dedup();
            prop_assert_eq!(rule.read_set(), read, "{}", text);
            let parsed_columns: Vec<String> = parsed.free.iter().map(|&v| parsed.vars.name(v)).collect();
            prop_assert_eq!(&parsed_columns, &columns, "{}", text);
            prop_assert_eq!(rule.columns().collect::<Vec<_>>(), columns, "{}", text);
        }
    }
}
