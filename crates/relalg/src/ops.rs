//! Fully materialized relational operators, test support only: the
//! textbook semantics the executor must agree with. The flow model
//! (`flow_model.rs`) composes them into an independent evaluation of a
//! plan and checks [`crate::exec::execute`] against it, in this crate's
//! unit tests and, `#[path]`-included, in `tests/streaming.rs`;
//! `tests/algebra.rs` checks the algebra laws on them.
//!
//! To stay an independent reference they share no code with the executor's
//! row buffers and grouping tables (`crate::rows`): they key rows by their
//! key columns as boxed slices in plain `FxHashMap`s and `FxHashSet`s.

use rustc_hash::{FxHashMap, FxHashSet};

use crate::value::Tuple;
use crate::{AttrId, Relation, Schema, Value};

/// Attributes present in both schemas, in `left`'s column order: the
/// natural-join keys.
pub(crate) fn common(left: &Schema, right: &Schema) -> Vec<AttrId> {
    let shared = left.attrs().iter().copied();
    shared.filter(|&a| right.contains(a)).collect()
}

/// Positions of `keep` inside `schema`; panics if any attribute is
/// missing.
pub(crate) fn positions(schema: &Schema, keep: &[AttrId]) -> Vec<usize> {
    keep.iter()
        .map(|&a| {
            schema
                .position(a)
                .unwrap_or_else(|| panic!("attribute {a} not in schema"))
        })
        .collect()
}

/// `row`'s values at `pos`.
fn pick(pos: &[usize], row: &[Value]) -> Tuple {
    pos.iter().map(|&p| row[p]).collect()
}

/// Natural join `left ⋈ right` on all shared attributes (cross product when
/// none are shared). Hash join: builds on `right`, probes with `left`.
pub(crate) fn natural_join(left: &Relation, right: &Relation) -> Relation {
    let keys = common(left.schema(), right.schema());
    let (left_key, right_key) = (
        positions(left.schema(), &keys),
        positions(right.schema(), &keys),
    );
    let right_extra: Vec<usize> = (0..right.arity())
        .filter(|&i| !left.schema().contains(right.schema().attrs()[i]))
        .collect();
    let mut table: FxHashMap<Tuple, Vec<&[Value]>> = FxHashMap::default();
    for rt in right.rows() {
        table.entry(pick(&right_key, rt)).or_default().push(rt);
    }
    let mut rows = Vec::new();
    for lt in left.rows() {
        for rt in table.get(&pick(&left_key, lt)).into_iter().flatten() {
            let extra = right_extra.iter().map(|&p| rt[p]);
            rows.push(lt.iter().copied().chain(extra).collect());
        }
    }
    let name = format!("({}⋈{})", left.name(), right.name());
    Relation::new(name, left.schema().join(right.schema()), rows)
}

/// `π_keep` with set semantics (`SELECT DISTINCT keep`).
pub(crate) fn project_distinct(rel: &Relation, keep: &[AttrId]) -> Relation {
    let pos = positions(rel.schema(), keep);
    let mut seen: FxHashSet<Tuple> = FxHashSet::default();
    let rows = rel.rows().map(|t| pick(&pos, t));
    let rows = rows.filter(|k| seen.insert(k.clone())).collect();
    let mut r = Relation::new(
        format!("π({})", rel.name()),
        Schema::new(keep.to_vec()),
        rows,
    );
    r.dedup(); // rows already distinct; this just sets the mark
    r
}

/// Renames attributes positionally: column `i` becomes `binding[i]`.
/// Repeated attributes in `binding` select rows where those columns agree
/// and collapse them to one column — the semantics of an atom with repeated
/// variables such as `edge(x, x)`.
pub(crate) fn bind(rel: &Relation, binding: &[AttrId]) -> Relation {
    assert_eq!(
        binding.len(),
        rel.arity(),
        "binding width must equal relation arity"
    );
    // First occurrence position of each distinct attribute, in order.
    let mut out_attrs: Vec<AttrId> = Vec::new();
    let mut out_pos: Vec<usize> = Vec::new();
    for (i, &a) in binding.iter().enumerate() {
        if !out_attrs.contains(&a) {
            out_attrs.push(a);
            out_pos.push(i);
        }
    }
    // Equality groups: positions that must agree with their first occurrence.
    let mut eq_checks: Vec<(usize, usize)> = Vec::new();
    for (i, &a) in binding.iter().enumerate() {
        let first = binding.iter().position(|&x| x == a).expect("present");
        if first != i {
            eq_checks.push((first, i));
        }
    }
    let rows = rel
        .rows()
        .filter(|t| eq_checks.iter().all(|&(a, b)| t[a] == t[b]))
        .map(|t| out_pos.iter().map(|&p| t[p]).collect::<Tuple>())
        .collect();
    Relation::new(rel.name().to_string(), Schema::new(out_attrs), rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;

    fn rel(name: &str, attrs: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::new(
            name,
            Schema::new(attrs.iter().map(|&i| AttrId(i)).collect()),
            rows.iter().map(|r| tuple(r)).collect(),
        )
    }

    #[test]
    fn join_on_shared_attr() {
        let a = rel("a", &[1, 2], &[&[1, 10], &[2, 20]]);
        let b = rel("b", &[2, 3], &[&[10, 100], &[10, 101], &[30, 300]]);
        let j = natural_join(&a, &b);
        assert_eq!(
            j.schema(),
            &Schema::new(vec![AttrId(1), AttrId(2), AttrId(3)])
        );
        let mut rows: Vec<_> = j.tuples().to_vec();
        rows.sort();
        assert_eq!(rows, vec![tuple(&[1, 10, 100]), tuple(&[1, 10, 101])]);
    }

    #[test]
    fn join_without_shared_is_cross_product() {
        let a = rel("a", &[1], &[&[1], &[2]]);
        let b = rel("b", &[2], &[&[10], &[20], &[30]]);
        let j = natural_join(&a, &b);
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn join_preserves_multiplicity() {
        // Bag semantics: duplicate left rows produce duplicate outputs.
        let a = rel("a", &[1, 2], &[&[1, 10], &[1, 10]]);
        let b = rel("b", &[2], &[&[10]]);
        assert_eq!(natural_join(&a, &b).len(), 2);
    }

    #[test]
    fn join_with_empty_is_empty() {
        let a = rel("a", &[1, 2], &[&[1, 10]]);
        let b = rel("b", &[2], &[]);
        assert!(natural_join(&a, &b).is_empty());
        assert!(natural_join(&b, &a).is_empty());
    }

    #[test]
    fn join_is_commutative_up_to_column_order() {
        let a = rel("a", &[1, 2], &[&[1, 10], &[2, 20], &[2, 21]]);
        let b = rel("b", &[2, 3], &[&[10, 5], &[21, 6]]);
        let ab = natural_join(&a, &b);
        let ba = natural_join(&b, &a);
        // Reproject ba to ab's column order and compare as sets.
        let ba_reordered = project_distinct(&ba, ab.schema().attrs());
        let ab_d = project_distinct(&ab, ab.schema().attrs());
        assert!(ab_d.set_eq(&ba_reordered));
    }

    #[test]
    fn project_distinct_dedups() {
        let a = rel("a", &[1, 2], &[&[1, 10], &[1, 20], &[2, 30]]);
        let p = project_distinct(&a, &[AttrId(1)]);
        assert_eq!(p.len(), 2);
        assert!(p.is_deduped());
    }

    #[test]
    fn project_reorders_columns() {
        let a = rel("a", &[1, 2], &[&[1, 10]]);
        let p = project_distinct(&a, &[AttrId(2), AttrId(1)]);
        assert_eq!(p.tuples()[0], tuple(&[10, 1]));
    }

    #[test]
    fn bind_renames() {
        let a = rel("a", &[100, 101], &[&[1, 2]]);
        let b = bind(&a, &[AttrId(5), AttrId(6)]);
        assert_eq!(b.schema(), &Schema::new(vec![AttrId(5), AttrId(6)]));
    }

    #[test]
    fn bind_with_repeat_selects_diagonal() {
        let a = rel("a", &[100, 101], &[&[1, 1], &[1, 2], &[3, 3]]);
        let b = bind(&a, &[AttrId(5), AttrId(5)]);
        assert_eq!(b.schema(), &Schema::new(vec![AttrId(5)]));
        let mut rows = b.tuples().to_vec();
        rows.sort();
        assert_eq!(rows, vec![tuple(&[1]), tuple(&[3])]);
    }

    #[test]
    fn projection_pushing_identity() {
        // π_x(a ⋈ b) == π_x(π_{x∪shared}(a) ⋈ b) — the rewrite the paper's
        // early projection relies on, checked on a concrete instance.
        let a = rel("a", &[1, 2], &[&[1, 10], &[2, 10], &[3, 30]]);
        let b = rel("b", &[2, 3], &[&[10, 5], &[30, 6]]);
        let direct = project_distinct(&natural_join(&a, &b), &[AttrId(3)]);
        let pushed_a = project_distinct(&a, &[AttrId(2)]);
        let pushed = project_distinct(&natural_join(&pushed_a, &b), &[AttrId(3)]);
        assert!(direct.set_eq(&pushed));
    }
}
