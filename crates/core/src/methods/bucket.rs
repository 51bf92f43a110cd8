//! Bucket elimination (paper §5).
//!
//! Given a variable order `x_1, …, x_n`, every atom is placed in the
//! bucket of its highest-numbered variable. Buckets are processed from
//! `x_n` down to `x_1`: the bucket's relations are joined, `x_i` is
//! projected out unless it is free, and the result moves to the bucket of
//! its highest remaining variable. After all non-free variables are
//! eliminated, the remaining relations are joined and projected onto the
//! target schema.
//!
//! Theorem 2: with the best order the maximal intermediate arity (the
//! *induced width* + 1) equals treewidth + 1 — but finding that order is
//! NP-hard, so the paper numbers variables by maximum-cardinality search
//! with the free variables first ([`bucket_order`]); min-degree and
//! min-fill variants feed the `ablation-orders` experiment.

use rand::Rng;

use ppr_graph::ordering::{mcs_order, min_degree_order, min_fill_order};
use ppr_query::{ConjunctiveQuery, Database, JoinGraph};
use ppr_relalg::{AttrId, Plan};

use super::OrderHeuristic;

/// Computes the bucket variable order `x_1, …, x_n` (as attributes) using
/// `heuristic` on the query's join graph, placing the free variables
/// first (they are eliminated last and never projected out).
pub fn bucket_order<R: Rng + ?Sized>(
    query: &ConjunctiveQuery,
    heuristic: OrderHeuristic,
    rng: &mut R,
) -> Vec<AttrId> {
    let jg = JoinGraph::of(query);
    let free_vertices: Vec<usize> = query.free.iter().map(|&f| jg.vertex(f)).collect();
    let order = match heuristic {
        OrderHeuristic::Mcs => mcs_order(&jg.graph, &free_vertices, rng),
        OrderHeuristic::MinDegree => min_degree_order(&jg.graph, &free_vertices, rng),
        OrderHeuristic::MinFill => min_fill_order(&jg.graph, &free_vertices, rng),
    };
    order.order().iter().map(|&v| jg.attr(v)).collect()
}

/// Builds the bucket-elimination plan for an explicit variable order
/// (`order[i]` is `x_{i+1}`; it must enumerate exactly the query's
/// variables).
pub fn plan_with_order(query: &ConjunctiveQuery, db: &Database, order: &[AttrId]) -> Plan {
    let n = order.len();
    let mut position = rustc_hash::FxHashMap::default();
    for (i, &a) in order.iter().enumerate() {
        position.insert(a, i);
    }
    {
        let all = query.all_vars();
        assert_eq!(all.len(), n, "order must cover every variable");
        for v in all {
            assert!(position.contains_key(&v), "order misses {v}");
        }
    }
    let is_free = |a: AttrId| query.free.contains(&a);

    // Bucket items: a plan plus its output variables.
    let mut buckets: Vec<Vec<(Plan, Vec<AttrId>)>> = vec![Vec::new(); n];
    // Variable-free intermediate results (possible with disconnected
    // queries): joined into the final bucket, where they act as an
    // emptiness guard.
    let mut floor: Vec<(Plan, Vec<AttrId>)> = Vec::new();
    for atom in &query.atoms {
        let vars = atom.vars();
        let bucket = vars
            .iter()
            .map(|v| position[v])
            .max()
            .expect("atoms have variables");
        let scan = Plan::scan(db.expect(&atom.relation), atom.args.clone());
        buckets[bucket].push((scan, vars));
    }

    // Process buckets x_n … x_2; x_1's bucket is handled by the final join.
    for i in (1..n).rev() {
        let items = std::mem::take(&mut buckets[i]);
        if items.is_empty() {
            continue;
        }
        let (plan, vars) = process_bucket(items, order[i], is_free(order[i]));
        match vars
            .iter()
            .filter_map(|v| {
                let p = position[v];
                (p < i).then_some(p)
            })
            .max()
        {
            Some(dest) => buckets[dest].push((plan, vars)),
            None => floor.push((plan, vars)),
        }
    }

    // Final bucket: everything that reached x_1 plus the floor.
    let mut items = std::mem::take(&mut buckets[0]);
    items.extend(floor);
    assert!(!items.is_empty(), "the final bucket cannot be empty");
    let mut plans = items.into_iter().map(|(p, _)| p);
    let mut joined = plans.next().expect("nonempty");
    for p in plans {
        joined = joined.join(p);
    }
    joined.project(query.free.clone())
}

/// Joins a bucket's items and projects out `var` unless it is free.
/// Skips the materialization when the bucket holds a single item and
/// nothing would be projected (nothing to de-duplicate either).
fn process_bucket(
    items: Vec<(Plan, Vec<AttrId>)>,
    var: AttrId,
    var_is_free: bool,
) -> (Plan, Vec<AttrId>) {
    let single = items.len() == 1;
    let mut vars_union: Vec<AttrId> = Vec::new();
    for (_, vs) in &items {
        for &v in vs {
            if !vars_union.contains(&v) {
                vars_union.push(v);
            }
        }
    }
    let keep: Vec<AttrId> = if var_is_free {
        vars_union.clone()
    } else {
        vars_union.iter().copied().filter(|&v| v != var).collect()
    };
    let mut plans = items.into_iter().map(|(p, _)| p);
    let mut joined = plans.next().expect("bucket nonempty");
    for p in plans {
        joined = joined.join(p);
    }
    if single && keep.len() == vars_union.len() {
        return (joined, vars_union);
    }
    (joined.project(keep.clone()), keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{k4, pentagon, pipeline_rows, triangle_free_pair};
    use crate::methods::Method;
    use crate::passes::plan_query;
    use ppr_graph::ordering::{induced_width, EliminationOrder};
    use ppr_relalg::{exec, Budget};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(23)
    }

    /// The `bucket-mcs` recipe's plan.
    fn mcs_plan(q: &ConjunctiveQuery, db: &Database) -> Plan {
        plan_query(
            Method::BucketElimination(OrderHeuristic::Mcs),
            q,
            db,
            &mut rng(),
            None,
        )
        .plan
    }

    #[test]
    fn order_covers_all_vars_with_free_first() {
        let (q, _) = triangle_free_pair();
        let order = bucket_order(&q, OrderHeuristic::Mcs, &mut rng());
        assert_eq!(order.len(), 3);
        assert!(q.free.contains(&order[0]));
        assert!(q.free.contains(&order[1]));
    }

    #[test]
    fn agrees_with_straightforward() {
        for heuristic in [
            OrderHeuristic::Mcs,
            OrderHeuristic::MinDegree,
            OrderHeuristic::MinFill,
        ] {
            for (q, db) in [pentagon(), k4(), triangle_free_pair()] {
                let a = pipeline_rows(Method::BucketElimination(heuristic), &q, &db);
                let b = pipeline_rows(Method::Straightforward, &q, &db);
                assert!(a.set_eq(&b), "{heuristic:?} on {q}");
            }
        }
    }

    #[test]
    fn pentagon_width_is_treewidth_plus_one() {
        // C5 has treewidth 2; bucket elimination with MCS achieves
        // intermediate arity 3 (Theorem 2: induced width 2 + the variable
        // being eliminated).
        let (q, db) = pentagon();
        let p = mcs_plan(&q, &db);
        assert_eq!(p.width().unwrap(), 3);
    }

    #[test]
    fn plan_width_matches_induced_width_plus_one() {
        let (q, db) = pentagon();
        let jg = ppr_query::JoinGraph::of(&q);
        let order = bucket_order(&q, OrderHeuristic::Mcs, &mut rng());
        let vertex_order: Vec<usize> = order.iter().map(|&a| jg.vertex(a)).collect();
        let iw = induced_width(&jg.graph, &EliminationOrder::new(vertex_order));
        let p = plan_with_order(&q, &db, &order);
        assert_eq!(p.width().unwrap(), iw + 1);
    }

    #[test]
    fn explicit_order_is_respected() {
        let (q, db) = pentagon();
        // Worst order for C5: alternating, forcing fill.
        let all = q.all_vars();
        let p = plan_with_order(&q, &db, &all);
        let (rel, _) = exec::execute(&p, &Budget::unlimited()).unwrap();
        assert!(!rel.is_empty());
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn incomplete_order_rejected() {
        let (q, db) = pentagon();
        let mut order = q.all_vars();
        order.pop();
        plan_with_order(&q, &db, &order);
    }

    #[test]
    fn disconnected_query_handles_floor_results() {
        use ppr_query::{Atom, Vars};
        use ppr_workload::edge_relation;
        let mut vars = Vars::new();
        let v = vars.intern_numbered("v", 4);
        // Two disjoint edges; only v0 free.
        let q = ppr_query::ConjunctiveQuery::new(
            vec![
                Atom::new("edge", vec![v[0], v[1]]),
                Atom::new("edge", vec![v[2], v[3]]),
            ],
            vec![v[0]],
            vars,
            true,
        );
        let mut db = Database::new();
        db.add(edge_relation(3));
        let p = mcs_plan(&q, &db);
        let (rel, _) = exec::execute(&p, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 3);
    }
}
