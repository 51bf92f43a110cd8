//! Plan execution.
//!
//! [`execute`] is the single entry point. It runs the push-based streaming
//! executor of [`crate::pipelined`]: scans stream straight off the base
//! relations and equality joins probe per-column secondary indexes
//! ([`crate::index`]) cached on the shared `Arc` snapshot, so repeated
//! queries skip the per-query bind copies and hash builds entirely.
//!
//! A [`Plan::ProjectDistinct`] node (a `SELECT DISTINCT` subquery in the
//! paper's SQL) materializes and de-duplicates its input before the
//! enclosing pipeline consumes it — the only materialization boundary
//! there is. Chains of joins between boundaries stream, as PostgreSQL's
//! hash-join pipelines did in the paper's experiments.
//!
//! A boundary is a flat row buffer, not a [`Relation`]: the sink
//! appends each projected row to one `Vec<Value>` and de-duplicates
//! through a table of row ids into it (each id stored with its row's hash),
//! and the pipeline above either streams that buffer or takes it by value
//! as the build side of a hash-join stage (row ids grouped by join key, CSR
//! layout, no copy; a join on the whole row probes the sink's own table).
//! Bucket elimination materializes many small intermediates, so what a
//! boundary costs per row decides whether keeping them small pays off. No
//! row is boxed: [`execute_with`] returns the plan root's flat rows as the
//! chunks of the returned [`Relation`].
//!
//! Execution time is therefore proportional to the number of tuples that
//! flow through probe stages plus the cost of each materialization — the
//! same quantities that drove the paper's measurements.

use crate::budget::{Budget, BudgetKind, Meter};
use crate::error::RelalgError;
use crate::plan::Plan;
use crate::relation::Relation;
use crate::rows::{RowSet, Rows, MAX_ROWS};
use crate::stats::ExecStats;
use crate::value::Value;
use crate::Result;

/// Options for [`execute_with`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Whether `ProjectDistinct` nodes de-duplicate (`SELECT DISTINCT`).
    /// Disabling turns every subquery into a plain `SELECT` — the
    /// `ablation_distinct` bench uses this to show that de-duplication at
    /// projection boundaries is what makes projection pushing effective.
    pub dedup_subqueries: bool,
    /// Operator-level profiling ([`ppr_obs::ProfileMode`], default
    /// `Off`). `On` fills [`ExecStats::op_profile`] with a per-operator
    /// tree of actual rows, probes, and self time; the decision is made
    /// once at pipeline build, so `Off` adds no clock reads to the row
    /// loop.
    ///
    /// [`ExecStats::op_profile`]: crate::stats::ExecStats::op_profile
    pub profile: ppr_obs::ProfileMode,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            dedup_subqueries: true,
            profile: ppr_obs::ProfileMode::Off,
        }
    }
}

/// Executes `plan` under `budget` with default [`ExecOptions`] — the
/// streaming executor with subquery dedup on.
///
/// Returns the result relation (always de-duplicated when the plan root is
/// a [`Plan::ProjectDistinct`], a bag otherwise) and execution statistics.
pub fn execute(plan: &Plan, budget: &Budget) -> Result<(Relation, ExecStats)> {
    execute_with(plan, budget, ExecOptions::default())
}

/// [`execute`] with explicit [`ExecOptions`].
pub fn execute_with(
    plan: &Plan,
    budget: &Budget,
    options: ExecOptions,
) -> Result<(Relation, ExecStats)> {
    // Validates the whole plan, in the pass that derives the root's schema.
    let schema = plan.schema()?;
    let mut stats = ExecStats::default();
    let mut meter = budget.start();
    let rows = crate::pipelined::materialize_streaming(plan, &mut meter, &mut stats, options)?;
    // The root's rows stay flat: they become the relation's chunks.
    let mut rel = Relation::from_rows("result", schema, rows);
    if matches!(plan, Plan::ProjectDistinct { .. }) && options.dedup_subqueries {
        rel.assume_deduped();
    }
    stats.tuples_flowed = meter.tuples_flowed;
    stats.elapsed = meter.elapsed();
    stats.threads_used = 1;
    stats.cpu_time = stats.elapsed;
    Ok((rel, stats))
}

/// Where pipeline output goes: a materialization boundary.
pub(crate) struct Sink<'a> {
    /// `SELECT [DISTINCT] keep`: buffer positions projected into each
    /// output row. `None` keeps full tuples (bag semantics) — a pipeline
    /// with no projection.
    pub(crate) keep_pos: Option<&'a [usize]>,
    /// The de-duplicating table of a `DISTINCT` projection; `None` degrades
    /// it to a plain projection (bag semantics), which is also what a
    /// projection that can meet no duplicate takes.
    pub(crate) seen: Option<RowSet>,
    pub(crate) rows: Rows,
}

impl Sink<'_> {
    pub(crate) fn emit(
        &mut self,
        buf: &[Value],
        meter: &Meter,
        stats: &mut ExecStats,
    ) -> Result<()> {
        stats.rows_emitted += 1;
        match self.keep_pos {
            None => self.rows.push(buf.iter().copied()),
            Some(keep_pos) => {
                stats.materialized_rows_in += 1;
                // Project in place at the end of the buffer; a duplicate is
                // popped again, so it costs a table probe and no allocation.
                self.rows.push(keep_pos.iter().map(|&p| buf[p]));
                if let Some(seen) = &mut self.seen {
                    seen.keep_last_if_new(&mut self.rows);
                }
            }
        }
        let rows = self.rows.len();
        // A boundary that outgrows its row ids is over budget, not wrapped.
        let over_ids = (rows > MAX_ROWS).then_some(BudgetKind::Materialized);
        if let Some(kind) = meter.on_materialized_rows(rows as u64).or(over_ids) {
            return Err(RelalgError::BudgetExceeded {
                kind,
                tuples_flowed: 0,
            });
        }
        Ok(())
    }
}

pub(crate) fn budget_err(kind: crate::budget::BudgetKind, meter: &Meter) -> RelalgError {
    RelalgError::BudgetExceeded {
        kind,
        tuples_flowed: meter.tuples_flowed,
    }
}

pub(crate) fn attach_flow(e: RelalgError, meter: &Meter) -> RelalgError {
    match e {
        RelalgError::BudgetExceeded { kind, .. } => budget_err(kind, meter),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow_model;
    use crate::schema::{AttrId, Schema};
    use crate::value::tuple;
    use std::sync::Arc;

    fn edge() -> Arc<Relation> {
        let schema = Schema::new(vec![AttrId(1000), AttrId(1001)]);
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

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    /// Triangle query: edge(1,2) ⋈ edge(2,3) ⋈ edge(1,3), project v1.
    fn triangle_plan() -> Plan {
        let e = edge();
        Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(1), a(3)]))
            .project(vec![a(1)])
    }

    #[test]
    fn triangle_is_3_colorable() {
        let (rel, stats) = execute(&triangle_plan(), &Budget::unlimited()).unwrap();
        // A triangle is 3-colorable, and every color appears as v1's value.
        assert_eq!(rel.len(), 3);
        assert!(stats.tuples_flowed > 0);
        assert_eq!(stats.materializations, 1);
        assert_eq!(stats.max_intermediate_arity, 3);
    }

    #[test]
    fn k4_is_not_3_colorable() {
        let e = edge();
        // Complete graph on 4 vertices: all 6 edges.
        let pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)];
        let mut plan = Plan::scan(e.clone(), vec![a(pairs[0].0), a(pairs[0].1)]);
        for &(u, v) in &pairs[1..] {
            plan = plan.join(Plan::scan(e.clone(), vec![a(u), a(v)]));
        }
        let plan = plan.project(vec![a(1)]);
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn pipelined_matches_materialized() {
        let plan = triangle_plan();
        let got = execute(&plan, &Budget::unlimited()).unwrap();
        flow_model::check(&plan, true, &got);
    }

    #[test]
    fn nested_projection_boundaries() {
        let e = edge();
        // π_{v3}( π_{v2}(edge(v1,v2)) ⋈ edge(v2,v3) )
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = sub
            .join(Plan::scan(e, vec![a(2), a(3)]))
            .project(vec![a(3)]);
        let (rel, stats) = execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 3);
        assert_eq!(stats.materializations, 2);
        // Subquery materialized at most 3 rows (the three colors).
        assert!(stats.peak_materialized <= 3);
    }

    #[test]
    fn tuple_budget_aborts() {
        let plan = triangle_plan();
        let err = execute(&plan, &Budget::tuples(2)).unwrap_err();
        match err {
            RelalgError::BudgetExceeded { tuples_flowed, .. } => assert!(tuples_flowed >= 2),
            other => panic!("expected budget error, got {other}"),
        }
    }

    #[test]
    fn materialization_budget_aborts() {
        let plan = triangle_plan();
        let b = Budget {
            max_materialized: 1,
            ..Budget::unlimited()
        };
        assert!(matches!(
            execute(&plan, &b),
            Err(RelalgError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn bare_join_returns_bag() {
        let e = edge();
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e, vec![a(2), a(3)]));
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        // 6 edge tuples, each extended by 2 choices for v3.
        assert_eq!(rel.len(), 12);
        assert!(!rel.is_deduped());
    }

    #[test]
    fn cross_product_stage() {
        let e = edge();
        // Disjoint attributes: full cross product 6 × 6.
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e, vec![a(3), a(4)]));
        let (rel, stats) = execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 36);
        assert_eq!(stats.max_intermediate_arity, 4);
    }

    #[test]
    fn single_scan_project() {
        let e = edge();
        let plan = Plan::scan(e, vec![a(1), a(2)]).project(vec![a(1)]);
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 3);
    }

    #[test]
    fn repeated_attr_scan_executes_selection() {
        let e = edge();
        // edge(x, x): no monochromatic pairs exist, so empty.
        let plan = Plan::scan(e, vec![a(1), a(1)]).project(vec![a(1)]);
        let (rel, _) = execute(&plan, &Budget::unlimited()).unwrap();
        assert!(rel.is_empty());
    }

    #[test]
    fn right_nested_and_bushy_joins_execute() {
        // Join-expression trees produce bushy joins when interior nodes
        // skip no-op projections; the pipeline must flatten both spines.
        let e = edge();
        let left =
            Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e.clone(), vec![a(2), a(3)]));
        let right =
            Plan::scan(e.clone(), vec![a(3), a(4)]).join(Plan::scan(e.clone(), vec![a(4), a(5)]));
        let bushy = Plan::Join {
            left: Box::new(left),
            right: Box::new(right),
        }
        .project(vec![a(1)]);
        let (rel, stats) = execute(&bushy, &Budget::unlimited()).unwrap();
        // A path of 4 edges is 3-colorable with any start color.
        assert_eq!(rel.len(), 3);
        flow_model::check(&bushy, true, &(rel, stats));
    }

    #[test]
    fn no_dedup_option_keeps_duplicates() {
        let e = edge();
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = sub
            .join(Plan::scan(e, vec![a(2), a(3)]))
            .project(vec![a(3)]);
        let opts = ExecOptions {
            dedup_subqueries: false,
            ..ExecOptions::default()
        };
        let (bag, _) = execute_with(&plan, &Budget::unlimited(), opts).unwrap();
        let (set, _) = execute(&plan, &Budget::unlimited()).unwrap();
        // Same set of values, but the bag carries duplicates.
        assert!(bag.len() > set.len());
        let mut bag_sorted: Vec<_> = bag.tuples().to_vec();
        bag_sorted.sort();
        bag_sorted.dedup();
        let mut set_sorted: Vec<_> = set.tuples().to_vec();
        set_sorted.sort();
        assert_eq!(bag_sorted, set_sorted);
        assert!(!bag.is_deduped());
    }

    #[test]
    fn no_dedup_blows_up_tuple_flow() {
        // Chain of projections: with dedup each boundary caps at 3 rows;
        // without, sizes multiply.
        let e = edge();
        let mut plan = Plan::scan(e.clone(), vec![a(0), a(1)]).project(vec![a(1)]);
        for i in 1..8 {
            plan = plan
                .join(Plan::scan(e.clone(), vec![a(i), a(i + 1)]))
                .project(vec![a(i + 1)]);
        }
        let (_, dedup_stats) = execute(&plan, &Budget::unlimited()).unwrap();
        let opts = ExecOptions {
            dedup_subqueries: false,
            ..ExecOptions::default()
        };
        let (_, bag_stats) = execute_with(&plan, &Budget::unlimited(), opts).unwrap();
        assert!(bag_stats.tuples_flowed > dedup_stats.tuples_flowed * 10);
    }

    #[test]
    fn stats_flow_counts_pipeline_tuples() {
        let plan = triangle_plan();
        let (_, stats) = execute(&plan, &Budget::unlimited()).unwrap();
        // 6 scan tuples + 12 after stage 1 + 6 after stage 2 (triangle
        // solutions: 3! = 6 proper colorings).
        assert_eq!(stats.tuples_flowed, 6 + 12 + 6);
    }
}
