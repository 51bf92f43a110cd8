//! Parity suite for the push-based streaming executor against the flow
//! model (`src/flow_model.rs`), which evaluates each plan with the textbook
//! operators of `ops` and sums its prefix-join sizes.
//!
//! On random project-join plans — including the paper's 3-COLOR and path
//! queries, empty relations, and Boolean (empty-keep) projections — the
//! executor must return the model's rows (as a bag, so duplicates count
//! when subquery dedup is off) and its `tuples_flowed`, materializations,
//! peak materialized size and widest intermediate. A tuple budget of `k`
//! below the model's flow must trip on exactly tuple `k + 1`, and a warm
//! second run over the same snapshot must build no secondary indexes. Row
//! order is pinned separately, by `crates/core/tests/golden/exec.txt`.

use std::sync::Arc;

use ppr_relalg::budget::BudgetKind;
use ppr_relalg::exec::{self, ExecOptions};
use ppr_relalg::stats::ExecStats;
use ppr_relalg::{ops, AttrId, Budget, Plan, RelalgError, Relation, Schema, Value};
use proptest::prelude::*;

/// The executor's reference: rows and plan-level counters from `ops`.
#[path = "../src/flow_model.rs"]
mod flow_model;

/// Attribute pool kept small so random scans share variables often —
/// that is what makes the joins selective and the plans interesting.
const ATTR_POOL: u32 = 4;

/// Builds the shared base relation from random rows, duplicates kept: a
/// bag, which the executor must not treat as a set.
fn base_relation(rows: Vec<Vec<Value>>) -> Arc<Relation> {
    let schema = Schema::new(vec![AttrId(900), AttrId(901)]);
    Relation::new(
        "edge",
        schema,
        rows.into_iter().map(|r| r.into_boxed_slice()).collect(),
    )
    .into_shared()
}

/// [`base_relation`] de-duplicated: a set, as every catalog relation is.
/// A projection keeping every column of a join of sets meets no duplicate,
/// and the executor then skips its `DISTINCT` table.
fn deduped_relation(rows: Vec<Vec<Value>>) -> Arc<Relation> {
    let schema = Schema::new(vec![AttrId(900), AttrId(901)]);
    let rows = rows.into_iter().map(|r| r.into_boxed_slice()).collect();
    Relation::from_distinct_rows("edge", schema, rows).into_shared()
}

/// One atom of the random query: a scan of the base relation binding its
/// two columns to attributes from the pool, plus a flag that wraps the
/// chain built so far in a `ProjectDistinct` (keep-mask below decides the
/// kept attributes).
type AtomSpec = (u8, u8, bool, u8);

/// Deterministically assembles a valid plan from the random specs: a
/// left-deep join chain over scans, with `ProjectDistinct` nodes inserted
/// where flagged. An empty keep is a legal Boolean projection.
fn assemble(specs: &[AtomSpec], base: &Arc<Relation>) -> Plan {
    let scan_of = |a: u8, b: u8| {
        Plan::scan(
            Arc::clone(base),
            vec![
                AttrId(u32::from(a) % ATTR_POOL),
                AttrId(u32::from(b) % ATTR_POOL),
            ],
        )
    };
    let (a0, b0, _, _) = specs[0];
    let mut plan = scan_of(a0, b0);
    for &(a, b, project, mask) in &specs[1..] {
        plan = plan.join(scan_of(a, b));
        if project {
            let schema = plan.schema().expect("chain schema is valid");
            let keep: Vec<AttrId> = schema
                .attrs()
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> (i % 8) & 1 == 1)
                .map(|(_, &attr)| attr)
                .collect();
            plan = plan.project(keep);
        }
    }
    plan
}

/// A path query of `len` edge atoms: `edge(x0,x1), …, edge(x(len-1),xlen)`,
/// projected onto its endpoints — or a Boolean query when `boolean` is set.
/// Every interior stage shares exactly one variable with the accumulated
/// schema, which is precisely the shape the streaming executor serves from
/// a cached secondary index.
fn path_plan(base: &Arc<Relation>, len: u32, boolean: bool) -> Plan {
    let mut plan = Plan::scan(Arc::clone(base), vec![AttrId(0), AttrId(1)]);
    for i in 1..len {
        plan = plan.join(Plan::scan(Arc::clone(base), vec![AttrId(i), AttrId(i + 1)]));
    }
    let keep = if boolean {
        vec![]
    } else {
        vec![AttrId(0), AttrId(len)]
    };
    plan.project(keep)
}

/// The 3-COLOR inequality relation: all 6 pairs of distinct colors in
/// `{0,1,2}` — one `diff(xu, xv)` atom per graph edge encodes properly
/// coloring that edge, exactly as the paper's 3-COLOR workload does.
fn diff_relation() -> Arc<Relation> {
    let rows = (0..3u32)
        .flat_map(|a| {
            (0..3u32)
                .filter(move |b| *b != a)
                .map(move |b| vec![a, b].into_boxed_slice())
        })
        .collect();
    Relation::new("diff", Schema::new(vec![AttrId(900), AttrId(901)]), rows).into_shared()
}

/// One `diff` atom per graph edge, projected onto the first vertex's color
/// (or Boolean satisfiability when `boolean` is set).
fn coloring_plan(diff: &Arc<Relation>, edges: &[(u8, u8)], boolean: bool) -> Plan {
    let scan_of = |(u, v): (u8, u8)| {
        Plan::scan(
            Arc::clone(diff),
            vec![AttrId(u32::from(u) % 4), AttrId(u32::from(v) % 4)],
        )
    };
    let mut plan = scan_of(edges[0]);
    for &e in &edges[1..] {
        plan = plan.join(scan_of(e));
    }
    let keep = if boolean {
        vec![]
    } else {
        vec![AttrId(u32::from(edges[0].0) % 4)]
    };
    plan.project(keep)
}

/// The shape bucket elimination gives the serving benchmark's plans: each
/// `(start, len, width)` is a subquery — a path of `len` scans over the
/// attributes from `start`, projected onto its first `width` (3–8) — and
/// the subqueries, whose attribute ranges share at least two attributes,
/// are joined under a root projection. So every boundary holds wide rows
/// and every join between subqueries is a multi-attribute hash join.
fn bucket_plan(base: &Arc<Relation>, subs: &[(u8, u8, u8)], root_mask: u16) -> Plan {
    let sub = |&(start, len, width): &(u8, u8, u8)| {
        let scan = |i: u8| {
            let binding = [i, i + 1].map(|a| AttrId(u32::from(start + a)));
            Plan::scan(Arc::clone(base), binding.to_vec())
        };
        let path = (1..len).fold(scan(0), |path, i| path.join(scan(i)));
        let keep = 0..width.min(len + 1);
        path.project(keep.map(|a| AttrId(u32::from(start + a))).collect())
    };
    let joined = subs[1..]
        .iter()
        .fold(sub(&subs[0]), |plan, s| plan.join(sub(s)));
    let schema = joined.schema().expect("valid by construction");
    let keep = schema.attrs().iter().enumerate();
    let keep = keep.filter(|(i, _)| root_mask >> i & 1 == 1);
    joined.project(keep.map(|(_, &attr)| attr).collect())
}

/// The shape of bucket elimination's later buckets: a path over
/// `x0 … x(len)` joined with subqueries whose kept attributes the path
/// already binds, so each subquery result is probed on its whole row —
/// through the table its `DISTINCT` sink de-duplicated it with. Each
/// `(start, span, mask)` is a path over `x(start) … x(start + span)`
/// keeping the attributes `mask` picks, listed against the path's column
/// order. The root keeps the attributes `root_mask` picks.
fn whole_row_plan(base: &Arc<Relation>, len: u8, subs: &[(u8, u8, u8)], root_mask: u16) -> Plan {
    let scan = |i: u8| {
        let binding = [i, i + 1].map(|a| AttrId(u32::from(a)));
        Plan::scan(Arc::clone(base), binding.to_vec())
    };
    let path = |from: u8, to: u8| (from + 1..to).fold(scan(from), |p, i| p.join(scan(i)));
    let sub = |&(start, span, mask): &(u8, u8, u8)| {
        let start = start % len;
        let end = (start + 1 + span).min(len);
        let keep = (start..=end).rev().filter(|a| mask >> (a - start) & 1 == 1);
        path(start, end).project(keep.map(|a| AttrId(u32::from(a))).collect())
    };
    let joined = subs.iter().fold(path(0, len), |plan, s| plan.join(sub(s)));
    let keep = (0..=len).filter(|a| root_mask >> a & 1 == 1);
    joined.project(keep.map(|a| AttrId(u32::from(a))).collect())
}

/// Runs `plan` with subquery dedup on or off.
fn run(plan: &Plan, budget: &Budget, dedup: bool) -> Result<(Relation, ExecStats), RelalgError> {
    exec::execute_with(
        plan,
        budget,
        ExecOptions {
            dedup_subqueries: dedup,
            ..ExecOptions::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole guarantee on fully random plans (row counts start at
    /// zero, so empty relations are in scope): the executor computes the
    /// flow model's rows and counters, over the rows as a bag and as a set.
    #[test]
    fn streaming_matches_every_oracle_on_random_plans(
        rows in prop::collection::vec(prop::collection::vec(0u32..5, 2), 0..=24),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY, 0u8..=255), 1..=5),
    ) {
        for base in [base_relation(rows.clone()), deduped_relation(rows)] {
            let plan = assemble(&specs, &base);
            prop_assert!(plan.validate().is_ok());
            let streaming = run(&plan, &Budget::unlimited(), true).expect("streaming");
            flow_model::check(&plan, true, &streaming);
        }
    }

    /// Dedup ablation (`dedup_subqueries = false` turns every subquery
    /// `DISTINCT` into a plain `SELECT`): the executor still matches the
    /// model, whose projections then keep duplicates too.
    #[test]
    fn streaming_matches_pipelined_with_dedup_disabled(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 2), 0..=16),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY, 0u8..=255), 1..=4),
    ) {
        let base = base_relation(rows);
        let plan = assemble(&specs, &base);
        let streaming = run(&plan, &Budget::unlimited(), false).expect("streaming");
        flow_model::check(&plan, false, &streaming);
    }

    /// Bucket-shaped plans: wide keeps at every boundary and
    /// multi-attribute hash joins whose build side is a subquery result.
    #[test]
    fn bucket_shaped_plans_agree(
        rows in prop::collection::vec(prop::collection::vec(0u32..3, 2), 0..=8),
        subs in prop::collection::vec((0u8..2, 3u8..=8, 3u8..=8), 2..=3),
        root_mask in 0u16..1024,
    ) {
        let base = base_relation(rows);
        let plan = bucket_plan(&base, &subs, root_mask);
        let streaming = run(&plan, &Budget::unlimited(), true).expect("streaming");
        flow_model::check(&plan, true, &streaming);
        prop_assert!(streaming.1.max_intermediate_arity >= 4);
    }

    /// With dedup off the same shapes yield exactly the bag: every row of
    /// every boundary kept, duplicates and all.
    #[test]
    fn dedup_disabled_yields_the_bag(
        rows in prop::collection::vec(prop::collection::vec(0u32..3, 2), 0..=6),
        subs in prop::collection::vec((0u8..2, 3u8..=4, 3u8..=4), 2),
        root_mask in 0u16..64,
    ) {
        let base = base_relation(rows);
        let plan = bucket_plan(&base, &subs, root_mask);
        let streaming = run(&plan, &Budget::unlimited(), false).expect("streaming");
        flow_model::check(&plan, false, &streaming);
        prop_assert!(!streaming.0.is_deduped());
    }

    /// Projections keeping every column (in reverse order), over a bag base
    /// that repeats each row and over the same rows as a set: the bag's
    /// duplicates reach every sink and must be removed there, while the
    /// set's cannot arise.
    #[test]
    fn keep_every_column_projections_dedup_bags_only(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 2), 1..=12),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY), 1..=4),
    ) {
        let doubled: Vec<Vec<Value>> = rows.iter().chain(&rows).cloned().collect();
        for base in [base_relation(doubled), deduped_relation(rows.clone())] {
            let scan_of = |a: u8, b: u8| {
                let binding = [a, b].map(|v| AttrId(u32::from(v) % ATTR_POOL));
                Plan::scan(Arc::clone(&base), binding.to_vec())
            };
            let keep_all = |plan: Plan| {
                let mut keep = plan.schema().expect("valid").attrs().to_vec();
                keep.reverse();
                plan.project(keep)
            };
            let mut plan = keep_all(scan_of(specs[0].0, specs[0].1));
            for &(a, b, project) in &specs[1..] {
                plan = plan.join(scan_of(a, b));
                if project {
                    plan = keep_all(plan);
                }
            }
            let plan = keep_all(plan);
            let streaming = run(&plan, &Budget::unlimited(), true).expect("streaming");
            flow_model::check(&plan, true, &streaming);
        }
    }

    /// Subquery results probed on their whole row, keys listed against the
    /// probing pipeline's column order: the hash join adopts each
    /// subquery's `DISTINCT` table, and must probe it in the subquery's
    /// column order. Over a bag and a set base, with dedup on and off.
    #[test]
    fn whole_row_probes_of_subquery_results_agree(
        rows in prop::collection::vec(prop::collection::vec(0u32..3, 2), 0..=10),
        len in 2u8..=5,
        subs in prop::collection::vec((0u8..5, 0u8..3, 0u8..=15), 1..=3),
        root_mask in 0u16..64,
        deduped in prop::bool::ANY,
    ) {
        let base = if deduped { deduped_relation(rows) } else { base_relation(rows) };
        let plan = whole_row_plan(&base, len, &subs, root_mask);
        for dedup in [true, false] {
            let streaming = run(&plan, &Budget::unlimited(), dedup).expect("streaming");
            flow_model::check(&plan, dedup, &streaming);
        }
    }

    /// Path queries — the all-index-join shape. Every interior stage is
    /// served by a secondary index, so a multi-atom path over a nonempty
    /// base must report at least one index build.
    #[test]
    fn path_queries_agree_and_use_the_index(
        rows in prop::collection::vec(prop::collection::vec(0u32..6, 2), 0..=24),
        len in 1u32..=5,
        boolean in prop::bool::ANY,
    ) {
        let base = base_relation(rows);
        let plan = path_plan(&base, len, boolean);
        let streaming = run(&plan, &Budget::unlimited(), true).expect("streaming");
        flow_model::check(&plan, true, &streaming);
        if len >= 2 {
            prop_assert!(streaming.1.index_builds >= 1);
        }
    }

    /// 3-COLOR queries over random graphs (self-loops make the instance
    /// trivially uncolorable — the empty result is part of the property).
    #[test]
    fn three_color_queries_agree(
        edges in prop::collection::vec((0u8..4, 0u8..4), 1..=5),
        boolean in prop::bool::ANY,
    ) {
        let diff = diff_relation();
        let plan = coloring_plan(&diff, &edges, boolean);
        let streaming = run(&plan, &Budget::unlimited(), true).expect("streaming");
        flow_model::check(&plan, true, &streaming);
    }

    /// Budget exhaustion mid-stream: the executor meters the model's flow
    /// one tuple at a time, so a tuple budget of any `k` below the full
    /// flow trips on tuple `k + 1`, and a budget of the full flow does not
    /// trip.
    #[test]
    fn tuple_budgets_trip_at_the_same_flow(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 2), 1..=8),
        specs in prop::collection::vec((0u8..8, 0u8..8, prop::bool::ANY, 0u8..=255), 1..=4),
    ) {
        let base = base_relation(rows);
        let plan = assemble(&specs, &base);
        let full = run(&plan, &Budget::unlimited(), true).expect("unlimited");
        let flow = flow_model::check(&plan, true, &full);
        for k in 0..flow {
            let err = run(&plan, &Budget::tuples(k), true).expect_err("trips");
            prop_assert_eq!(
                err,
                RelalgError::BudgetExceeded { kind: BudgetKind::Tuples, tuples_flowed: k + 1 }
            );
        }
        prop_assert!(run(&plan, &Budget::tuples(flow), true).is_ok());
    }

    /// Snapshot index reuse: a second streaming run over the same shared
    /// base builds nothing, scans no more than the cold run, and returns
    /// the same rows in the same order.
    #[test]
    fn warm_runs_build_no_indexes(
        rows in prop::collection::vec(prop::collection::vec(0u32..6, 2), 1..=24),
        len in 2u32..=4,
    ) {
        let base = base_relation(rows);
        let plan = path_plan(&base, len, false);
        let budget = Budget::unlimited();

        let cold = run(&plan, &budget, true).expect("cold");
        let warm = run(&plan, &budget, true).expect("warm");
        flow_model::check(&plan, true, &cold);
        prop_assert_eq!(cold.0.tuples(), warm.0.tuples());
        prop_assert_eq!(cold.1.tuples_flowed, warm.1.tuples_flowed);
        prop_assert!(cold.1.index_builds >= 1);
        prop_assert_eq!(warm.1.index_builds, 0);
        prop_assert!(warm.1.rows_scanned <= cold.1.rows_scanned);
        prop_assert_eq!(warm.1.index_probes, cold.1.index_probes);
    }
}

/// An empty base flows nothing: the executor returns the model's empty
/// relation without tripping even a zero-tuple budget.
#[test]
fn empty_base_is_empty_everywhere() {
    let base = base_relation(vec![]);
    let plan = path_plan(&base, 3, false);
    let streaming = run(&plan, &Budget::tuples(0), true).expect("streaming");
    assert!(streaming.0.is_empty());
    assert_eq!(flow_model::check(&plan, true, &streaming), 0);
}
