//! The flow model, test-only: a plan's rows and tuple flow from [`crate::ops`]
//! alone. A pipeline (a join chain between `ProjectDistinct` boundaries)
//! flows the summed sizes of its prefix joins.

use crate::{ops, ExecStats, Plan, Relation, Schema};

/// Asserts that an execution of `plan` has the model's rows (as a bag) and
/// plan-level counters; the others measure physical work. Returns the
/// model's `tuples_flowed`.
pub fn check(plan: &Plan, dedup: bool, (rel, s): &(Relation, ExecStats)) -> u64 {
    let mut m = ExecStats::default();
    let model = eval(plan, dedup, &mut m);
    assert_eq!(rel.schema(), model.schema());
    let (mut got, mut want) = (rel.tuples(), model.tuples());
    got.sort();
    want.sort();
    assert_eq!(got, want, "rows of\n{plan}");
    let counters = (s.tuples_flowed, s.materializations, s.peak_materialized);
    let expected = (m.tuples_flowed, m.materializations, m.peak_materialized);
    assert_eq!(counters, expected, "counters of\n{plan}");
    assert_eq!(s.max_intermediate_arity, m.max_intermediate_arity);
    m.tuples_flowed
}

/// `plan`'s rows; with `dedup` off a `ProjectDistinct` keeps duplicates.
fn eval(plan: &Plan, dedup: bool, s: &mut ExecStats) -> Relation {
    let unit = Relation::new("unit", Schema::new(vec![]), vec![Box::default()]);
    let Plan::ProjectDistinct { input, keep } = plan else {
        return extend(unit, plan, dedup, s);
    };
    let inner = extend(unit, input, dedup, s);
    let out = if dedup {
        ops::project_distinct(&inner, keep)
    } else {
        let pos = ops::positions(inner.schema(), keep);
        let rows = inner.rows();
        let rows = rows.map(|t| pos.iter().map(|&p| t[p]).collect());
        Relation::new("bag", Schema::new(keep.clone()), rows.collect())
    };
    s.materializations += 1;
    s.peak_materialized = s.peak_materialized.max(out.len() as u64);
    out
}

/// `acc ⋈ plan` along `plan`'s join chain, left to right, from `unit`, the
/// join identity (one row of arity 0); every prefix join flows its rows.
fn extend(acc: Relation, plan: &Plan, dedup: bool, s: &mut ExecStats) -> Relation {
    let rel = match plan {
        Plan::Join { left, right } => {
            let acc = extend(acc, left, dedup, s);
            return extend(acc, right, dedup, s);
        }
        Plan::Scan { base, binding } => ops::bind(base, binding),
        sub => eval(sub, dedup, s),
    };
    let acc = ops::natural_join(&acc, &rel);
    s.tuples_flowed += acc.len() as u64;
    s.max_intermediate_arity = s.max_intermediate_arity.max(acc.arity());
    acc
}
