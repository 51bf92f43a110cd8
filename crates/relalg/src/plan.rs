//! Project-join plan trees.
//!
//! A [`Plan`] is the engine-level counterpart of the paper's generated SQL:
//! `Scan` nodes are the `edge e_i (u,w)` entries of a `FROM` clause, `Join`
//! nodes are the `JOIN ... ON` chain (natural joins on shared attributes —
//! the ON conditions the paper emits are exactly the shared-variable
//! equalities), and `ProjectDistinct` nodes are the `SELECT DISTINCT`
//! subquery boundaries that materialize and de-duplicate.

use std::fmt;
use std::sync::Arc;

use crate::error::RelalgError;
use crate::relation::Relation;
use crate::schema::{AttrId, Schema};
use crate::Result;

/// A project-join plan.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Reads a base relation with its columns bound to query attributes.
    /// `binding[i]` names column `i`; repeated attributes (an atom like
    /// `edge(x, x)`) act as a selection followed by column collapse.
    Scan {
        /// The stored relation.
        base: Arc<Relation>,
        /// Attribute bound to each base column, in column order.
        binding: Vec<AttrId>,
    },
    /// Natural join of the two inputs on their shared attributes; a cross
    /// product when they share none (the paper's `ON (TRUE)`).
    Join {
        /// Outer input: its join chain comes first in the pipeline.
        left: Box<Plan>,
        /// Inner input: the executor probes it, through a per-query hash
        /// table or a cached secondary index of a scanned relation.
        right: Box<Plan>,
    },
    /// `SELECT DISTINCT keep FROM input` — materializes and de-duplicates.
    ProjectDistinct {
        /// Input plan.
        input: Box<Plan>,
        /// Attributes to keep, in output column order.
        keep: Vec<AttrId>,
    },
}

impl Plan {
    /// A scan of `base` binding its columns to `binding`.
    pub fn scan(base: Arc<Relation>, binding: Vec<AttrId>) -> Self {
        Plan::Scan { base, binding }
    }

    /// Natural join of `self` with `right`.
    pub fn join(self, right: Plan) -> Self {
        Plan::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Projection (with dedup) onto `keep`.
    pub fn project(self, keep: Vec<AttrId>) -> Self {
        Plan::ProjectDistinct {
            input: Box::new(self),
            keep,
        }
    }

    /// The output schema. For scans this is the distinct binding attributes
    /// in first-occurrence order; joins concatenate left-then-new-right;
    /// projections reorder to `keep`.
    pub fn schema(&self) -> Result<Schema> {
        self.schema_and_width().map(|(schema, _)| schema)
    }

    /// The *width* of the plan: the maximum arity of any node's output
    /// schema. This is the working-label size of the corresponding
    /// join-expression tree; Theorem 1 states that the minimum width over
    /// all plans for a query is the treewidth of its join graph plus one.
    pub fn width(&self) -> Result<usize> {
        self.schema_and_width().map(|(_, width)| width)
    }

    /// One bottom-up pass: each node's schema is derived once, from its
    /// children's, and checked where it is derived.
    fn schema_and_width(&self) -> Result<(Schema, usize)> {
        let mut attrs = Vec::new();
        let width = self.derive(&mut attrs)?;
        Ok((Schema::new(attrs), width))
    }

    /// Appends this node's output attributes to `out`, checking the node,
    /// and returns the widest schema at or below it. Children derive into
    /// the same buffer, so the pass allocates only when the buffer grows.
    fn derive(&self, out: &mut Vec<AttrId>) -> Result<usize> {
        let lo = out.len();
        let below = match self {
            Plan::Scan { base, binding } => {
                if binding.len() != base.arity() {
                    return Err(RelalgError::InvalidPlan(format!(
                        "scan of {} binds {} attrs but relation has arity {}",
                        base.name(),
                        binding.len(),
                        base.arity()
                    )));
                }
                for &a in binding {
                    if !out[lo..].contains(&a) {
                        out.push(a);
                    }
                }
                0
            }
            Plan::Join { left, right } => {
                let left_width = left.derive(out)?;
                let mid = out.len();
                let right_width = right.derive(out)?;
                // Left's columns, then right's that are not already there.
                let mut end = mid;
                for i in mid..out.len() {
                    let a = out[i];
                    if !out[lo..mid].contains(&a) {
                        out[end] = a;
                        end += 1;
                    }
                }
                out.truncate(end);
                left_width.max(right_width)
            }
            Plan::ProjectDistinct { input, keep } => {
                let width = input.derive(out)?;
                if let Some(a) = keep.iter().find(|a| !out[lo..].contains(a)) {
                    let inner = Schema::new(out[lo..].to_vec());
                    return Err(RelalgError::MissingAttr(format!(
                        "projection keeps {a} but input schema is {inner}"
                    )));
                }
                let distinct = keep.iter().enumerate().all(|(i, a)| !keep[..i].contains(a));
                assert!(distinct, "schema attributes must be distinct: {keep:?}");
                out.truncate(lo);
                out.extend_from_slice(keep);
                width
            }
        };
        Ok(below.max(out.len() - lo))
    }

    /// Number of nodes in the plan tree.
    pub fn node_count(&self) -> usize {
        1 + match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => left.node_count() + right.node_count(),
            Plan::ProjectDistinct { input, .. } => input.node_count(),
        }
    }

    /// Number of scan leaves.
    pub fn scan_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 1,
            Plan::Join { left, right } => left.scan_count() + right.scan_count(),
            Plan::ProjectDistinct { input, .. } => input.scan_count(),
        }
    }

    /// Number of `ProjectDistinct` (materialization) nodes.
    pub fn materialization_count(&self) -> usize {
        match self {
            Plan::Scan { .. } => 0,
            Plan::Join { left, right } => {
                left.materialization_count() + right.materialization_count()
            }
            Plan::ProjectDistinct { input, .. } => 1 + input.materialization_count(),
        }
    }

    /// Validates the whole tree (schema computation visits every node).
    pub fn validate(&self) -> Result<()> {
        self.schema_and_width().map(|_| ())
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Plan::Scan { base, binding } => {
                write!(f, "{pad}Scan {}(", base.name())?;
                for (i, a) in binding.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, ")")
            }
            Plan::Join { left, right } => {
                writeln!(f, "{pad}Join")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            Plan::ProjectDistinct { input, keep } => {
                write!(f, "{pad}ProjectDistinct [")?;
                for (i, a) in keep.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, "]")?;
                input.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::tuple;

    fn edge() -> Arc<Relation> {
        // All ordered pairs of distinct colors from {1,2,3}: the paper's
        // six-tuple edge relation.
        let schema = Schema::new(vec![AttrId(100), AttrId(101)]);
        let mut rows = Vec::new();
        for a in 1..=3 {
            for b in 1..=3 {
                if a != b {
                    rows.push(tuple(&[a, b]));
                }
            }
        }
        Relation::from_distinct_rows("edge", schema, rows).into_shared()
    }

    #[test]
    fn scan_schema_dedups_repeats() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(1)]);
        assert_eq!(p.schema().unwrap(), Schema::new(vec![AttrId(1)]));
    }

    #[test]
    fn scan_binding_width_checked() {
        let p = Plan::scan(edge(), vec![AttrId(1)]);
        assert!(matches!(p.schema(), Err(RelalgError::InvalidPlan(_))));
    }

    #[test]
    fn join_schema_concatenates() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)])
            .join(Plan::scan(edge(), vec![AttrId(2), AttrId(3)]));
        assert_eq!(
            p.schema().unwrap(),
            Schema::new(vec![AttrId(1), AttrId(2), AttrId(3)])
        );
        assert_eq!(p.width().unwrap(), 3);
    }

    #[test]
    fn project_checks_attrs() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)]).project(vec![AttrId(9)]);
        assert!(matches!(p.schema(), Err(RelalgError::MissingAttr(_))));
    }

    #[test]
    fn width_sees_through_projection() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)])
            .join(Plan::scan(edge(), vec![AttrId(2), AttrId(3)]))
            .project(vec![AttrId(3)]);
        assert_eq!(p.width().unwrap(), 3);
    }

    #[test]
    fn node_counts() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)])
            .join(Plan::scan(edge(), vec![AttrId(2), AttrId(3)]))
            .project(vec![AttrId(3)]);
        assert_eq!(p.node_count(), 4);
        assert_eq!(p.scan_count(), 2);
        assert_eq!(p.materialization_count(), 1);
    }

    #[test]
    fn display_renders_tree() {
        let p = Plan::scan(edge(), vec![AttrId(1), AttrId(2)]).project(vec![AttrId(1)]);
        let s = p.to_string();
        assert!(s.contains("ProjectDistinct"));
        assert!(s.contains("Scan edge"));
    }
}
