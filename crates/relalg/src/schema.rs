//! Schemas: ordered lists of distinct attributes.

use std::fmt;

/// An attribute (column) identifier. Queries intern their variable names to
/// `AttrId`s (see `ppr-query`); the engine only ever compares ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// An ordered list of distinct attributes naming the columns of a relation
/// or of an intermediate result.
///
/// The *arity* of a schema is its length; the paper's structural results
/// bound exactly this quantity for intermediate results (join width /
/// induced width), so [`Schema::arity`] is the number every statistic and
/// theorem check in this repository ultimately reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schema {
    attrs: Vec<AttrId>,
}

impl Schema {
    /// Creates a schema; panics if `attrs` contains duplicates (schemas of
    /// named relations are sets — repeated variables in an atom are handled
    /// at scan time, see [`crate::plan::Plan::scan`]).
    pub fn new(attrs: Vec<AttrId>) -> Self {
        let mut seen = attrs.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            attrs.len(),
            "schema attributes must be distinct: {attrs:?}"
        );
        Schema { attrs }
    }

    /// The attributes in column order.
    #[inline]
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of columns.
    #[inline]
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Column position of `attr`, if present.
    #[inline]
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Whether `attr` is a column of this schema.
    #[inline]
    pub fn contains(&self, attr: AttrId) -> bool {
        self.position(attr).is_some()
    }

    /// Schema of the natural join: `self`'s columns followed by `other`'s
    /// columns that are not already present.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.clone();
        attrs.extend(other.attrs.iter().copied().filter(|&a| !self.contains(a)));
        Schema { attrs }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::value::tuple;
    use crate::Relation;

    fn s(ids: &[u32]) -> Schema {
        Schema::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    #[test]
    fn arity_and_positions() {
        let sch = s(&[3, 1, 4]);
        assert_eq!(sch.arity(), 3);
        assert_eq!(sch.position(AttrId(1)), Some(1));
        assert_eq!(sch.position(AttrId(9)), None);
        assert!(sch.contains(AttrId(4)));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn rejects_duplicates() {
        s(&[1, 1]);
    }

    #[test]
    fn join_schema_order() {
        let a = s(&[1, 2]);
        let b = s(&[2, 3]);
        assert_eq!(a.join(&b), s(&[1, 2, 3]));
        assert_eq!(b.join(&a), s(&[2, 3, 1]));
    }

    // The join keys and column positions the textbook operators take from
    // two schemas (`crate::ops`, test support).
    #[test]
    fn common_attrs() {
        let a = s(&[1, 2, 5]);
        let b = s(&[5, 3, 2]);
        assert_eq!(ops::common(&a, &b), vec![AttrId(2), AttrId(5)]);
    }

    #[test]
    fn project_and_positions() {
        let a = s(&[1, 2, 5]);
        let keep = [AttrId(5), AttrId(1)];
        assert_eq!(ops::positions(&a, &keep), vec![2, 0]);
        let rel = Relation::new("a", a, vec![tuple(&[1, 2, 5])]);
        let p = ops::project_distinct(&rel, &keep);
        assert_eq!(p.schema(), &s(&[5, 1]));
        assert_eq!(p.tuples()[0], tuple(&[5, 1]));
    }

    #[test]
    fn empty_schema() {
        let e = Schema::new(Vec::new());
        assert_eq!(e.arity(), 0);
        assert_eq!(e.to_string(), "()");
    }

    #[test]
    fn display() {
        assert_eq!(s(&[1, 2]).to_string(), "(a1, a2)");
    }
}
