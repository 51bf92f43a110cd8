//! Fully materialized relational operators.
//!
//! These implement the textbook semantics the executor must agree with:
//! the tests' flow model composes them into an independent evaluation of a
//! plan and checks [`crate::exec::execute`] against it. They are also used
//! directly by `ppr-core`'s semijoin pre-reduction (`core::reduce`) and by
//! the join-algorithm ablation (`experiments ablation-join`).
//!
//! To stay an independent reference they share no code with the executor's
//! row buffers and grouping tables (`crate::rows`): the hash operators key
//! rows by their key columns as boxed slices in plain `FxHashMap`s and
//! `FxHashSet`s, probed through one reused scratch slice, and sort-merge
//! sorts by the key columns.

use std::cmp::Ordering;

use rustc_hash::{FxHashMap, FxHashSet};

use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::value::{Tuple, Value};

/// `row`'s values at `pos`, written into `scratch`: the probe key of the
/// hash operators, built without allocating.
fn key<'a>(pos: &[usize], row: &[Value], scratch: &'a mut Vec<Value>) -> &'a [Value] {
    scratch.clear();
    scratch.extend(pos.iter().map(|&p| row[p]));
    scratch
}

/// What every natural join needs: the output schema, the key positions on
/// each side, and the right columns the output appends.
struct JoinShape {
    schema: Schema,
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    right_extra: Vec<usize>,
}

impl JoinShape {
    fn of(left: &Relation, right: &Relation) -> JoinShape {
        let keys = left.schema().common(right.schema());
        let right_extra = (0..right.arity())
            .filter(|&i| !left.schema().contains(right.schema().attrs()[i]))
            .collect();
        JoinShape {
            schema: left.schema().join(right.schema()),
            left_key: left.schema().positions(&keys),
            right_key: right.schema().positions(&keys),
            right_extra,
        }
    }

    /// The output row joining `lt` with `rt`.
    fn row(&self, lt: &[Value], rt: &[Value]) -> Tuple {
        let mut out = Vec::with_capacity(self.schema.arity());
        out.extend_from_slice(lt);
        out.extend(self.right_extra.iter().map(|&p| rt[p]));
        out.into_boxed_slice()
    }

    fn relation(self, left: &Relation, right: &Relation, rows: Vec<Tuple>) -> Relation {
        let name = format!("({}⋈{})", left.name(), right.name());
        Relation::new(name, self.schema, rows)
    }
}

/// Natural join `left ⋈ right` on all shared attributes (cross product when
/// none are shared). Hash join: builds on `right`, probes with `left`.
///
/// ```
/// use ppr_relalg::{ops, Relation, Schema, AttrId};
/// let x = AttrId(0); let y = AttrId(1); let z = AttrId(2);
/// let r = Relation::new("r", Schema::new(vec![x, y]),
///     vec![Box::from([1u32, 10]), Box::from([2, 20])]);
/// let s = Relation::new("s", Schema::new(vec![y, z]),
///     vec![Box::from([10u32, 7])]);
/// let j = ops::natural_join(&r, &s);
/// assert_eq!(j.len(), 1);
/// assert_eq!(&*j.tuples()[0], &[1, 10, 7]);
/// ```
pub fn natural_join(left: &Relation, right: &Relation) -> Relation {
    let shape = JoinShape::of(left, right);
    let mut table: FxHashMap<Box<[Value]>, Vec<&[Value]>> = FxHashMap::default();
    let mut scratch = Vec::new();
    for rt in right.rows() {
        let k = key(&shape.right_key, rt, &mut scratch);
        match table.get_mut(k) {
            Some(matches) => matches.push(rt),
            None => {
                table.insert(k.into(), vec![rt]);
            }
        }
    }
    let mut rows = Vec::new();
    for lt in left.rows() {
        if let Some(matches) = table.get(key(&shape.left_key, lt, &mut scratch)) {
            rows.extend(matches.iter().map(|rt| shape.row(lt, rt)));
        }
    }
    shape.relation(left, right, rows)
}

/// Which join implementation [`join_with`] uses. The paper selected hash
/// joins "as hash joins proved most efficient in our setting" (§2);
/// `experiments ablation-join` reproduces that comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Build a hash table on the right input, probe with the left.
    Hash,
    /// Sort both inputs on the join key, merge.
    SortMerge,
    /// Compare every pair (quadratic; the baseline planners avoid).
    NestedLoop,
}

/// Natural join via an explicit algorithm; all three produce the same bag
/// up to row order.
pub fn join_with(left: &Relation, right: &Relation, algorithm: JoinAlgorithm) -> Relation {
    match algorithm {
        JoinAlgorithm::Hash => natural_join(left, right),
        JoinAlgorithm::SortMerge => sort_merge_join(left, right),
        JoinAlgorithm::NestedLoop => nested_loop_join(left, right),
    }
}

/// How `a`'s values at `a_pos` compare, lexicographically, with `b`'s at
/// `b_pos`.
fn cmp_keys(a: &[Value], a_pos: &[usize], b: &[Value], b_pos: &[usize]) -> Ordering {
    let a_key = a_pos.iter().map(|&p| a[p]);
    a_key.cmp(b_pos.iter().map(|&p| b[p]))
}

/// Sort-merge natural join: both sides sorted by their key columns, then
/// merged run by run.
fn sort_merge_join(left: &Relation, right: &Relation) -> Relation {
    let shape = JoinShape::of(left, right);
    let (lk, rk) = (&shape.left_key, &shape.right_key);
    let mut l: Vec<&[Value]> = left.rows().collect();
    let mut r: Vec<&[Value]> = right.rows().collect();
    l.sort_by(|a, b| cmp_keys(a, lk, b, lk));
    r.sort_by(|a, b| cmp_keys(a, rk, b, rk));

    let mut rows = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match cmp_keys(l[i], lk, r[j], rk) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                // The runs of equal keys on both sides.
                let ends = |x: usize, y: usize| cmp_keys(l[x], lk, r[y], rk).is_ne();
                let i_end = (i..l.len()).find(|&x| ends(x, j)).unwrap_or(l.len());
                let j_end = (j..r.len()).find(|&y| ends(i, y)).unwrap_or(r.len());
                for lt in &l[i..i_end] {
                    rows.extend(r[j..j_end].iter().map(|rt| shape.row(lt, rt)));
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    shape.relation(left, right, rows)
}

/// Nested-loop natural join.
fn nested_loop_join(left: &Relation, right: &Relation) -> Relation {
    let shape = JoinShape::of(left, right);
    let mut rows = Vec::new();
    for lt in left.rows() {
        for rt in right.rows() {
            let keys = shape.left_key.iter().zip(&shape.right_key);
            if keys.into_iter().all(|(&lp, &rp)| lt[lp] == rt[rp]) {
                rows.push(shape.row(lt, rt));
            }
        }
    }
    shape.relation(left, right, rows)
}

/// `π_keep` with set semantics (`SELECT DISTINCT keep`).
pub fn project_distinct(rel: &Relation, keep: &[AttrId]) -> Relation {
    let pos = rel.schema().positions(keep);
    let mut seen: FxHashSet<Tuple> = FxHashSet::default();
    let mut scratch = Vec::new();
    let mut rows = Vec::new();
    for t in rel.rows() {
        // Duplicates cost a set probe only; first occurrences are boxed
        // twice, for the set and for the output.
        let k = key(&pos, t, &mut scratch);
        if !seen.contains(k) {
            seen.insert(k.into());
            rows.push(k.into());
        }
    }
    let mut r = Relation::new(
        format!("π({})", rel.name()),
        rel.schema().project(keep),
        rows,
    );
    r.dedup(); // rows already distinct; this just sets the mark
    r
}

/// Semijoin `left ⋉ right`: tuples of `left` with at least one join partner
/// in `right`. This is the Wong–Youssefi reduction step; the paper notes it
/// is useless on its 3-COLOR workloads (projecting the edge relation yields
/// all values). `core::reduce` applies it as a semijoin pre-reduction.
/// With no shared attributes it keeps all of `left` iff `right` is
/// nonempty: every right row is a partner under the empty key.
pub fn semijoin(left: &Relation, right: &Relation) -> Relation {
    let keys = left.schema().common(right.schema());
    let left_pos = left.schema().positions(&keys);
    let right_pos = right.schema().positions(&keys);
    let mut table: FxHashSet<Tuple> = FxHashSet::default();
    let mut scratch = Vec::new();
    for t in right.rows() {
        let k = key(&right_pos, t, &mut scratch);
        if !table.contains(k) {
            table.insert(k.into());
        }
    }
    let rows = left
        .rows()
        .filter(|t| table.contains(key(&left_pos, t, &mut scratch)))
        .map(Box::from)
        .collect();
    Relation::new(
        format!("({}⋉{})", left.name(), right.name()),
        left.schema().clone(),
        rows,
    )
}

/// Renames attributes positionally: column `i` becomes `binding[i]`.
/// Repeated attributes in `binding` select rows where those columns agree
/// and collapse them to one column — the semantics of an atom with repeated
/// variables such as `edge(x, x)`.
pub fn bind(rel: &Relation, binding: &[AttrId]) -> Relation {
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
    fn semijoin_keeps_matching() {
        let a = rel("a", &[1, 2], &[&[1, 10], &[2, 20]]);
        let b = rel("b", &[2, 3], &[&[10, 7]]);
        let s = semijoin(&a, &b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.schema(), a.schema());
    }

    #[test]
    fn semijoin_disjoint_schemas() {
        let a = rel("a", &[1], &[&[1], &[2]]);
        let nonempty = rel("b", &[2], &[&[9]]);
        let empty = rel("c", &[2], &[]);
        assert_eq!(semijoin(&a, &nonempty).len(), 2);
        assert_eq!(semijoin(&a, &empty).len(), 0);
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
    fn join_algorithms_agree() {
        let a = rel(
            "a",
            &[1, 2],
            &[&[1, 10], &[2, 10], &[3, 30], &[1, 20], &[2, 20]],
        );
        let b = rel("b", &[2, 3], &[&[10, 5], &[10, 6], &[30, 7], &[40, 8]]);
        let hash = join_with(&a, &b, JoinAlgorithm::Hash);
        let merge = join_with(&a, &b, JoinAlgorithm::SortMerge);
        let loopj = join_with(&a, &b, JoinAlgorithm::NestedLoop);
        let mut h: Vec<_> = hash.tuples().to_vec();
        let mut m: Vec<_> = merge.tuples().to_vec();
        let mut l: Vec<_> = loopj.tuples().to_vec();
        h.sort();
        m.sort();
        l.sort();
        assert_eq!(h, m);
        assert_eq!(h, l);
        assert_eq!(hash.schema(), merge.schema());
        assert_eq!(hash.schema(), loopj.schema());
    }

    #[test]
    fn join_algorithms_agree_on_cross_product() {
        let a = rel("a", &[1], &[&[1], &[2]]);
        let b = rel("b", &[2], &[&[10], &[20], &[30]]);
        for algo in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::SortMerge,
            JoinAlgorithm::NestedLoop,
        ] {
            assert_eq!(join_with(&a, &b, algo).len(), 6, "{algo:?}");
        }
    }

    #[test]
    fn join_algorithms_preserve_multiplicity() {
        // Bag semantics: duplicate left rows produce duplicate outputs.
        let a = rel("a", &[1, 2], &[&[1, 10], &[1, 10]]);
        let b = rel("b", &[2], &[&[10]]);
        for algo in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::SortMerge,
            JoinAlgorithm::NestedLoop,
        ] {
            assert_eq!(join_with(&a, &b, algo).len(), 2, "{algo:?}");
        }
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
