//! The evaluation methods of the paper's experimental study.
//!
//! Each method turns a conjunctive query into an executable [`Plan`]
//! and/or the SQL the paper would have sent to PostgreSQL.
//! [`build_plan`] runs the method's recipe through
//! [`crate::passes::plan_query`], the only planner. The submodules hold
//! the algorithms the recipes' steps call: [`naive::sql`] (§3),
//! [`reordering::greedy_order`] (§4) and [`bucket::bucket_order`] /
//! [`bucket::plan_with_order`] (§5).
//!
//! | Method | Paper | Strategy |
//! |---|---|---|
//! | [`Method::Naive`] | §3 | flat `FROM` + `WHERE` equalities; the planner picks the order (here: joins in listing order, like the straightforward method — the paper found their execution "essentially identical") |
//! | [`Method::Straightforward`] | §3 | explicit `JOIN … ON` chain in listing order, no projection pushing |
//! | [`Method::EarlyProjection`] | §4 | listing order, but a variable is projected out the moment its last atom has been joined |
//! | [`Method::Reordering`] | §4 | greedy atom permutation (maximize immediately-dead variables, then minimize shared variables), then early projection |
//! | [`Method::BucketElimination`] | §5 | bucket elimination along an elimination order (MCS by default, as in the paper) |

pub mod bucket;
#[cfg(test)]
mod early_projection;
pub mod naive;
pub mod reordering;
#[cfg(test)]
mod straightforward;

use rand::Rng;

use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::Plan;
use ppr_sql::SelectStmt;

/// Which elimination-order heuristic bucket elimination uses. The paper
/// uses MCS; the others feed the `ablation-orders` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderHeuristic {
    /// Maximum-cardinality search (Tarjan–Yannakakis), the paper's choice.
    Mcs,
    /// Greedy minimum degree.
    MinDegree,
    /// Greedy minimum fill.
    MinFill,
}

/// An evaluation method. `Hash` so it can key plan caches alongside a
/// query fingerprint (`ppr-service`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// §3: flat SQL, planner-chosen order.
    Naive,
    /// §3: forced listing order, no projection pushing.
    Straightforward,
    /// §4: projection pushing in listing order.
    EarlyProjection,
    /// §4: greedy reordering + projection pushing.
    Reordering,
    /// §5: bucket elimination with the given order heuristic.
    BucketElimination(OrderHeuristic),
}

impl Method {
    /// All methods with the paper's default configuration, in the order
    /// the figures plot them.
    pub fn paper_lineup() -> [Method; 4] {
        [
            Method::Straightforward,
            Method::EarlyProjection,
            Method::Reordering,
            Method::BucketElimination(OrderHeuristic::Mcs),
        ]
    }

    /// Parses a method name as accepted by the CLI and the service wire
    /// protocol: the [`Method::name`] spellings plus the short aliases
    /// `sf`, `early`, `reorder(ing)`, `bucket`.
    pub fn parse(name: &str) -> Option<Method> {
        Some(match name {
            "naive" => Method::Naive,
            "straightforward" | "sf" => Method::Straightforward,
            "early" | "early-projection" => Method::EarlyProjection,
            "reorder" | "reordering" => Method::Reordering,
            "bucket" | "bucket-mcs" => Method::BucketElimination(OrderHeuristic::Mcs),
            "bucket-mindeg" => Method::BucketElimination(OrderHeuristic::MinDegree),
            "bucket-minfill" => Method::BucketElimination(OrderHeuristic::MinFill),
            _ => return None,
        })
    }

    /// Short display name used in experiment output. Round-trips through
    /// [`Method::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            Method::Naive => "naive",
            Method::Straightforward => "straightforward",
            Method::EarlyProjection => "early-projection",
            Method::Reordering => "reordering",
            Method::BucketElimination(OrderHeuristic::Mcs) => "bucket-mcs",
            Method::BucketElimination(OrderHeuristic::MinDegree) => "bucket-mindeg",
            Method::BucketElimination(OrderHeuristic::MinFill) => "bucket-minfill",
        }
    }
}

/// Builds the method's execution plan. Randomness only affects tie
/// breaking (greedy reordering) and order heuristics (bucket elimination);
/// the naive/straightforward/early-projection plans are deterministic.
///
/// ```
/// use ppr_core::methods::{build_plan, Method, OrderHeuristic};
/// use ppr_query::{parse_query, Database};
/// use ppr_relalg::{exec, Budget};
/// use rand::SeedableRng;
///
/// // Is the 5-cycle 3-colorable?
/// let q = parse_query("q() :- e(a,b), e(b,c), e(c,d), e(d,f), e(f,a)").unwrap();
/// let mut db = Database::new();
/// db.add(ppr_query::parse_relation(
///     "e = {(1,2),(1,3),(2,1),(2,3),(3,1),(3,2)}", 100).unwrap());
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let plan = build_plan(Method::BucketElimination(OrderHeuristic::Mcs), &q, &db, &mut rng);
/// let (result, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
/// assert!(!result.is_empty());
/// ```
pub fn build_plan<R: Rng + ?Sized>(
    method: Method,
    query: &ConjunctiveQuery,
    db: &Database,
    rng: &mut R,
) -> Plan {
    crate::passes::plan_query(method, query, db, rng, None).plan
}

/// Emits the method's SQL (the text the paper sent to PostgreSQL).
pub fn emit_sql<R: Rng + ?Sized>(
    method: Method,
    query: &ConjunctiveQuery,
    db: &Database,
    rng: &mut R,
) -> SelectStmt {
    match method {
        Method::Naive => naive::sql(query),
        _ => crate::sqlgen::plan_to_sql(&build_plan(method, query, db, rng), &query.vars),
    }
}

/// Shared fixtures for the method unit tests.
#[cfg(test)]
pub(crate) mod test_support {
    use ppr_query::{Atom, ConjunctiveQuery, Database, Vars};
    use ppr_relalg::{exec, AttrId, Budget, Plan, Relation};
    use ppr_workload::edge_relation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::{Method, OrderHeuristic};

    /// Every method, each bucket heuristic once.
    pub const ALL: [Method; 7] = [
        Method::Naive,
        Method::Straightforward,
        Method::EarlyProjection,
        Method::Reordering,
        Method::BucketElimination(OrderHeuristic::Mcs),
        Method::BucketElimination(OrderHeuristic::MinDegree),
        Method::BucketElimination(OrderHeuristic::MinFill),
    ];

    /// `method`'s plan for `q` over `db`, as [`crate::passes::plan_query`]
    /// builds it with planner seed 17.
    pub fn pipeline_plan(method: Method, q: &ConjunctiveQuery, db: &Database) -> Plan {
        let mut rng = StdRng::seed_from_u64(17);
        crate::passes::plan_query(method, q, db, &mut rng, None).plan
    }

    /// The rows [`pipeline_plan`] returns.
    pub fn pipeline_rows(method: Method, q: &ConjunctiveQuery, db: &Database) -> Relation {
        let plan = pipeline_plan(method, q, db);
        exec::execute(&plan, &Budget::unlimited()).unwrap().0
    }

    /// The paper's Appendix-A pentagon query (Boolean, projects `v1`):
    /// `π_{v1} edge(v1,v2) ⋈ edge(v1,v5) ⋈ edge(v4,v5) ⋈ edge(v3,v4) ⋈
    /// edge(v2,v3)`.
    pub fn pentagon() -> (ConjunctiveQuery, Database) {
        let mut vars = Vars::new();
        let v: Vec<AttrId> = (1..=5).map(|i| vars.intern(&format!("v{i}"))).collect();
        let e = |a: usize, b: usize| Atom::new("edge", vec![v[a - 1], v[b - 1]]);
        let q = ConjunctiveQuery::new(
            vec![e(1, 2), e(1, 5), e(4, 5), e(3, 4), e(2, 3)],
            vec![v[0]],
            vars,
            true,
        );
        let mut db = Database::new();
        db.add(edge_relation(3));
        (q, db)
    }

    /// A triangle with two adjacent free vertices (non-Boolean case).
    pub fn triangle_free_pair() -> (ConjunctiveQuery, Database) {
        graph_query(3, &[(0, 1), (1, 2), (0, 2)], 2)
    }

    /// K4 (not 3-colorable), Boolean.
    pub fn k4() -> (ConjunctiveQuery, Database) {
        graph_query(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 1)
    }

    /// `edge` atoms over `v0..` for `pairs` with the first `free`
    /// variables free; Boolean (one free variable) when `free == 1`.
    fn graph_query(
        n: usize,
        pairs: &[(usize, usize)],
        free: usize,
    ) -> (ConjunctiveQuery, Database) {
        let mut vars = Vars::new();
        let v: Vec<AttrId> = (0..n).map(|i| vars.intern(&format!("v{i}"))).collect();
        let atoms = pairs
            .iter()
            .map(|&(a, b)| Atom::new("edge", vec![v[a], v[b]]))
            .collect();
        let q = ConjunctiveQuery::new(atoms, v[..free].to_vec(), vars, free == 1);
        let mut db = Database::new();
        db.add(edge_relation(3));
        (q, db)
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::ALL;
    use super::*;

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len());
    }

    #[test]
    fn names_round_trip_through_parse() {
        for m in ALL {
            assert_eq!(Method::parse(m.name()), Some(m));
        }
        assert_eq!(Method::parse("sf"), Some(Method::Straightforward));
        assert_eq!(
            Method::parse("bucket"),
            Some(Method::BucketElimination(OrderHeuristic::Mcs))
        );
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn lineup_matches_figures() {
        assert_eq!(Method::paper_lineup().len(), 4);
        assert_eq!(Method::paper_lineup()[0], Method::Straightforward);
    }
}
