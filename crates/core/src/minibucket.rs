//! Mini-bucket elimination (Dechter \[12\]), the approximation the paper
//! lists as a promising direction (§7).
//!
//! Exact bucket elimination joins *all* relations in a bucket, which costs
//! up to `d^(w*+1)`. Mini-bucket elimination MB(`i`) partitions each bucket
//! into *mini-buckets* whose combined scope has at most `i` variables and
//! processes each separately. Projecting each mini-bucket independently
//! only ever *adds* spurious tuples, so the final relation is a superset
//! of the true result: an **empty** relaxed answer proves the true answer
//! empty (e.g. certifies non-3-colorability), while a nonempty one is
//! inconclusive. [`MiniBucketOutcome::exact`] reports whether any bucket
//! was actually split — if not, the result is exact.

use rand::Rng;

use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{AttrId, Plan};

use crate::methods::{bucket, OrderHeuristic};

/// Result of building a mini-bucket plan.
#[derive(Debug, Clone)]
pub struct MiniBucketOutcome {
    /// The (possibly relaxing) plan.
    pub plan: Plan,
    /// True when no bucket was split: the plan computes the exact answer.
    pub exact: bool,
}

/// Builds the MB(`bound`) plan along `order` (attributes, `x_1 … x_n`).
/// `bound` is the maximum scope size of a mini-bucket; it is raised
/// per-item when a single atom's scope already exceeds it.
fn plan_with_order(
    query: &ConjunctiveQuery,
    db: &Database,
    order: &[AttrId],
    bound: usize,
) -> MiniBucketOutcome {
    let n = order.len();
    let mut position = rustc_hash::FxHashMap::default();
    for (i, &a) in order.iter().enumerate() {
        position.insert(a, i);
    }
    let is_free = |a: AttrId| query.free.contains(&a);

    let mut buckets: Vec<Vec<(Plan, Vec<AttrId>)>> = vec![Vec::new(); n];
    let mut floor: Vec<(Plan, Vec<AttrId>)> = Vec::new();
    for atom in &query.atoms {
        let vars = atom.vars();
        let b = vars.iter().map(|v| position[v]).max().expect("has vars");
        buckets[b].push((
            Plan::scan(db.expect(&atom.relation), atom.args.clone()),
            vars,
        ));
    }

    let mut exact = true;
    for i in (1..n).rev() {
        let items = std::mem::take(&mut buckets[i]);
        if items.is_empty() {
            continue;
        }
        let partitions = partition(items, bound);
        if partitions.len() > 1 {
            exact = false;
        }
        for part in partitions {
            let (plan, vars) = join_and_project(part, order[i], is_free(order[i]));
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
    }
    let mut items = std::mem::take(&mut buckets[0]);
    items.extend(floor);
    let mut plans = items.into_iter().map(|(p, _)| p);
    let mut joined = plans.next().expect("final bucket nonempty");
    for p in plans {
        joined = joined.join(p);
    }
    MiniBucketOutcome {
        plan: joined.project(query.free.clone()),
        exact,
    }
}

/// Builds the MB(`bound`) plan with the MCS order (the exact method's
/// default).
pub fn plan<R: Rng + ?Sized>(
    query: &ConjunctiveQuery,
    db: &Database,
    bound: usize,
    rng: &mut R,
) -> MiniBucketOutcome {
    let order = bucket::bucket_order(query, OrderHeuristic::Mcs, rng);
    plan_with_order(query, db, &order, bound)
}

/// A bucket item: a plan plus its output variables.
type BucketItem = (Plan, Vec<AttrId>);

/// First-fit partition of bucket items into scope-bounded mini-buckets.
fn partition(items: Vec<BucketItem>, bound: usize) -> Vec<Vec<BucketItem>> {
    let mut parts: Vec<(Vec<BucketItem>, Vec<AttrId>)> = Vec::new();
    for (plan, vars) in items {
        let mut placed = false;
        for (part, scope) in parts.iter_mut() {
            let grown: Vec<AttrId> = {
                let mut s = scope.clone();
                for &v in &vars {
                    if !s.contains(&v) {
                        s.push(v);
                    }
                }
                s
            };
            if grown.len() <= bound.max(vars.len()) {
                *scope = grown;
                part.push((plan.clone(), vars.clone()));
                placed = true;
                break;
            }
        }
        if !placed {
            let scope = vars.clone();
            parts.push((vec![(plan, vars)], scope));
        }
    }
    parts.into_iter().map(|(p, _)| p).collect()
}

/// Joins the items of one mini-bucket and projects out `var` (unless
/// free).
fn join_and_project(items: Vec<BucketItem>, var: AttrId, var_is_free: bool) -> BucketItem {
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
    let single = items.len() == 1;
    let mut plans = items.into_iter().map(|(p, _)| p);
    let mut joined = plans.next().expect("nonempty");
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
    use crate::methods::test_support::{k4, pentagon, pipeline_rows};
    use crate::methods::Method;
    use ppr_relalg::{exec, Budget};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(41)
    }

    #[test]
    fn generous_bound_is_exact() {
        let (q, db) = pentagon();
        let out = plan(&q, &db, 10, &mut rng());
        assert!(out.exact);
        let (a, _) = exec::execute(&out.plan, &Budget::unlimited()).unwrap();
        let b = pipeline_rows(Method::Straightforward, &q, &db);
        assert!(a.set_eq(&b));
    }

    #[test]
    fn relaxation_is_a_superset() {
        let (q, db) = pentagon();
        for bound in 2..5 {
            let out = plan(&q, &db, bound, &mut rng());
            let (relaxed, _) = exec::execute(&out.plan, &Budget::unlimited()).unwrap();
            let true_rel = pipeline_rows(Method::Straightforward, &q, &db);
            // Every true tuple survives the relaxation.
            use rustc_hash::FxHashSet;
            let relaxed_set: FxHashSet<_> = relaxed.rows().collect();
            for t in true_rel.rows() {
                assert!(relaxed_set.contains(t), "bound {bound} lost {t:?}");
            }
        }
    }

    #[test]
    fn tight_bound_splits_buckets() {
        let (q, db) = k4();
        let out = plan(&q, &db, 2, &mut rng());
        assert!(!out.exact, "K4 buckets cannot fit in scope 2");
    }

    #[test]
    fn width_respects_bound_modulo_large_atoms() {
        let (q, db) = k4();
        let bound = 3;
        let out = plan(&q, &db, bound, &mut rng());
        // Atom scopes are 2, so the bound is binding: no intermediate
        // wider than `bound`.
        assert!(out.plan.width().unwrap() <= bound + 1);
    }
}
