//! k-COLOR → project-join query translation (paper §2, §6.1).

use rand::seq::SliceRandom;
use rand::Rng;

use ppr_graph::Graph;
use ppr_query::{Atom, ConjunctiveQuery, Database, Vars};
use ppr_relalg::{AttrId, Relation, Schema, Value};

/// Base column ids for stored relations, far away from query-variable ids.
const BASE_COL: u32 = 2_000_000;

/// The `edge` relation for `k` colors: all ordered pairs of *distinct*
/// colors (`k(k−1)` tuples; 6 for the paper's 3 colors).
///
/// ```
/// assert_eq!(ppr_workload::edge_relation(3).len(), 6);
/// ```
pub fn edge_relation(k: u32) -> Relation {
    assert!(k >= 1);
    let schema = Schema::new(vec![AttrId(BASE_COL), AttrId(BASE_COL + 1)]);
    let mut rows = Vec::with_capacity((k * (k - 1)) as usize);
    for a in 1..=k {
        for b in 1..=k {
            if a != b {
                rows.push(vec![a as Value, b as Value].into_boxed_slice());
            }
        }
    }
    Relation::from_distinct_rows("edge", schema, rows)
}

/// Options controlling the query translation.
#[derive(Debug, Clone)]
pub struct ColorQueryOptions {
    /// Number of colors (3 throughout the paper).
    pub colors: u32,
    /// Fraction of vertices made free (projected) — `0.0` yields the
    /// Boolean query, the paper's non-Boolean experiments use `0.2`.
    pub free_fraction: f64,
}

impl Default for ColorQueryOptions {
    fn default() -> Self {
        ColorQueryOptions {
            colors: 3,
            free_fraction: 0.0,
        }
    }
}

impl ColorQueryOptions {
    /// The paper's Boolean 3-COLOR setup.
    pub fn boolean() -> Self {
        ColorQueryOptions::default()
    }

    /// The paper's non-Boolean setup: 20% of the vertices free.
    pub fn non_boolean() -> Self {
        ColorQueryOptions {
            colors: 3,
            free_fraction: 0.2,
        }
    }
}

/// Translates `graph` into a project-join query and its database.
///
/// Atoms appear in the graph's edge listing order — the order the
/// straightforward method evaluates in. In the Boolean case the SELECT
/// carries the first vertex of the first edge (SQL cannot express
/// zero-column queries); in the non-Boolean case `free_fraction` of the
/// vertices that occur in edges are chosen uniformly (paper §6.1: "we pick
/// 20% of the vertices randomly to be free").
///
/// The query result is nonempty iff `graph` is `colors`-colorable.
pub fn color_query<R: Rng + ?Sized>(
    graph: &Graph,
    options: &ColorQueryOptions,
    rng: &mut R,
) -> (ConjunctiveQuery, Database) {
    assert!(
        !graph.edges().is_empty(),
        "a graph with no edges yields no atoms"
    );
    let mut vars = Vars::new();
    let ids = vars.intern_numbered("v", graph.order());
    let atoms: Vec<Atom> = graph
        .edges()
        .iter()
        .map(|&(u, v)| Atom::new("edge", vec![ids[u], ids[v]]))
        .collect();

    // Vertices that occur in at least one edge, in vertex order.
    let occurring: Vec<usize> = (0..graph.order())
        .filter(|&v| graph.degree(v) > 0)
        .collect();

    let (free, boolean) = if options.free_fraction <= 0.0 {
        let first = graph.edges()[0].0;
        (vec![ids[first]], true)
    } else {
        let count = ((occurring.len() as f64) * options.free_fraction).round() as usize;
        let count = count.clamp(1, occurring.len());
        let mut pool = occurring.clone();
        pool.shuffle(rng);
        let mut chosen: Vec<usize> = pool.into_iter().take(count).collect();
        chosen.sort_unstable();
        (chosen.into_iter().map(|v| ids[v]).collect(), false)
    };

    let query = ConjunctiveQuery::new(atoms, free, vars, boolean);
    let mut db = Database::new();
    db.add(edge_relation(options.colors));
    (query, db)
}

/// Reference k-colorability check by backtracking (exponential; for tests
/// and harness ground truth on small instances).
pub fn is_colorable(graph: &Graph, k: u32) -> bool {
    fn go(graph: &Graph, k: u32, colors: &mut [u32], v: usize) -> bool {
        if v == graph.order() {
            return true;
        }
        for c in 1..=k {
            if graph.neighbors(v).iter().all(|&w| colors[w] != c) {
                colors[v] = c;
                if go(graph, k, colors, v + 1) {
                    return true;
                }
                colors[v] = 0;
            }
        }
        false
    }
    let mut colors = vec![0u32; graph.order()];
    go(graph, k, &mut colors, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::families;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn edge_relation_has_k_times_k_minus_1_tuples() {
        assert_eq!(edge_relation(3).len(), 6);
        assert_eq!(edge_relation(2).len(), 2);
        assert_eq!(edge_relation(4).len(), 12);
    }

    #[test]
    fn edge_relation_excludes_monochromatic() {
        let r = edge_relation(3);
        for t in r.rows() {
            assert_ne!(t[0], t[1]);
        }
    }

    #[test]
    fn boolean_query_shape() {
        let g = families::cycle(5);
        let (q, db) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng());
        assert_eq!(q.num_atoms(), 5);
        assert!(q.is_boolean());
        assert_eq!(q.free.len(), 1);
        assert_eq!(db.expect("edge").len(), 6);
    }

    #[test]
    fn non_boolean_query_frees_a_fifth() {
        let g = families::ladder(10); // 20 vertices, all occurring
        let (q, _) = color_query(&g, &ColorQueryOptions::non_boolean(), &mut rng());
        assert!(!q.is_boolean());
        assert_eq!(q.free.len(), 4); // 20% of 20
    }

    #[test]
    fn free_vertices_occur_in_edges() {
        let mut g = families::path(4);
        // Add isolated vertices by rebuilding with a larger order.
        g = {
            let mut h = ppr_graph::Graph::new(8);
            for &(u, v) in g.edges() {
                h.add_edge(u, v);
            }
            h
        };
        let opts = ColorQueryOptions {
            colors: 3,
            free_fraction: 0.9,
        };
        let (q, _) = color_query(&g, &opts, &mut rng());
        for &f in &q.free {
            assert!(q.atoms.iter().any(|a| a.mentions(f)));
        }
    }

    #[test]
    fn reference_colorability() {
        assert!(is_colorable(&families::cycle(4), 2));
        assert!(!is_colorable(&families::cycle(5), 2));
        assert!(is_colorable(&families::cycle(5), 3));
        assert!(!is_colorable(&families::complete(4), 3));
        assert!(is_colorable(&families::complete(4), 4));
    }

    #[test]
    #[should_panic(expected = "no edges")]
    fn empty_graph_rejected() {
        let g = ppr_graph::Graph::new(3);
        color_query(&g, &ColorQueryOptions::boolean(), &mut rng());
    }

    #[test]
    fn atoms_follow_edge_listing_order() {
        let g = families::path(4);
        let (q, _) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng());
        let names: Vec<String> = q
            .atoms
            .iter()
            .map(|a| format!("{}-{}", q.vars.name(a.args[0]), q.vars.name(a.args[1])))
            .collect();
        assert_eq!(names, vec!["v0-v1", "v1-v2", "v2-v3"]);
    }
}
