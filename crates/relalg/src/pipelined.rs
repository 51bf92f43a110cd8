//! Push-based streaming executor over secondary indexes.
//!
//! The executor [`crate::exec::execute`] runs: a callback-driven operator
//! pipeline in the style of SpacetimeDB's `PipelinedExecutor`. Instead of
//! per-query preparation — `bind` copies of every scanned relation plus a
//! hash-table build per join stage — the pipeline is wired from six
//! operators that push rows downstream:
//!
//! * **`TableScan`** — streams the outer input's rows straight off the
//!   base relation, no bind copy (`Source::Table`).
//! * **`IxScan`** — answers a single-column `SELECT DISTINCT` subquery by
//!   reading the cached index's key list (`Run::ix_scan`).
//! * **`IxJoin`** — an equality join (single shared attribute) probed
//!   through the base relation's cached [`ColumnIndex`]
//!   (`StreamStage::Index`); the index is built lazily once per
//!   relation, by the grouping routine that builds a `HashJoin`'s
//!   build side, and shared by every query holding the snapshot `Arc`.
//! * **`HashJoin`** — fallback for multi-attribute keys, cross products,
//!   and subquery inputs: a per-query build (`StreamStage::Hash`), which
//!   takes a subquery's rows by value — and, when it is keyed on the whole
//!   row, the table the subquery's `DISTINCT` sink de-duplicated them with.
//! * **`Filter`** — repeated-attribute equality checks (`edge(x, x)`),
//!   applied inline at the scan or per index posting.
//! * **`Project`** — column collapse at scans and the `DISTINCT`
//!   projection at the sink (`crate::exec::Sink`).
//!
//! Nothing materializes except at `ProjectDistinct` (subquery-dedup)
//! boundaries, each one flat row buffer (see [`crate::exec`]), streamed by
//! the next pipeline's source or grouped in place as its hash build. No
//! [`Relation`] is built below the plan root. A sink that keeps every
//! column of a pipeline whose inputs are all sets (de-duplicated base
//! relations, `DISTINCT` results) meets no duplicate and keeps no table.
//!
//! Wiring a pipeline touches no heap of its own: the execution derives
//! every pipeline's join chain, schema and position lists onto stacks it
//! reuses (`Scratch`), and each boundary's rows and tables go back to a
//! pool when the pipeline that read them is done.
//!
//! **What is pinned.** The rows and the plan-level counters
//! (`tuples_flowed`, materializations, their peak size, the widest
//! intermediate) are those of the textbook algebra: the crate's test-only
//! flow model evaluates each plan with the test-only `ops` operators and
//! the tests check every execution against it. Index postings are kept in ascending row order,
//! repeated-attribute filters drop exactly the rows `bind` would drop, and
//! the meter ticks once per row entering a pipeline and once per row a
//! stage emits. Row order and every counter, physical ones included, are
//! frozen per case in `crates/core/tests/golden/exec.txt`.
//!
//! What the indexes change is the *physical* work, visible in
//! [`ExecStats::rows_scanned`] / [`ExecStats::index_probes`] /
//! [`ExecStats::index_builds`]: a warm repeated query touches no per-query
//! builds at all, which is where the serving stack's exec-phase latency
//! win comes from.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use ppr_obs::{OpKind, OpProfile};

use crate::budget::Meter;
use crate::error::RelalgError;
use crate::exec::{attach_flow, budget_err, ExecOptions, Sink};
use crate::index::ColumnIndex;
use crate::plan::Plan;
use crate::relation::Relation;
use crate::rows::{Buffers, GroupIndex, RowSet, Rows};
use crate::schema::AttrId;
use crate::stats::ExecStats;
use crate::value::Value;
use crate::Result;

/// The outer input of a streaming pipeline.
enum Source {
    /// `TableScan`: stream base rows directly, no bind copy. The inline
    /// `Filter`/`Project` of a repeated-attribute binding run in the push
    /// loop: `eq` are the `(first, later)` base-row positions that must
    /// agree and `out_pos` the positions streamed (`None` = all of them).
    Table {
        base: Arc<Relation>,
        out_pos: Option<Range<usize>>,
        eq: Range<usize>,
    },
    /// An already-materialized subquery result, streamed row by row.
    Materialized(Rows),
}

impl Source {
    fn len(&self) -> usize {
        match self {
            Source::Table { base, .. } => base.len(),
            Source::Materialized(rows) => rows.len(),
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[Value] {
        match self {
            Source::Table { base, .. } => base.row(i),
            Source::Materialized(rows) => rows.row(i),
        }
    }
}

/// One probe stage of a streaming pipeline. Its position lists are ranges
/// of the execution's [`Scratch::pos`] and [`Scratch::eq`].
enum StreamStage {
    /// `HashJoin`: per-query hash build over a bound input — the
    /// fallback for multi-attribute keys, cross products, and subquery
    /// inputs.
    Hash {
        /// This input's rows and their join-key groups.
        build: GroupIndex,
        /// The join key's positions within this input's rows, ascending.
        key_in_row: Range<usize>,
        /// The same key's positions within the accumulated tuple buffer:
        /// probing hashes the key straight out of it, allocating nothing.
        key_in_buf: Range<usize>,
        /// Positions within this input's rows of the columns appended to
        /// the buffer (columns not already bound by earlier stages).
        extra: Range<usize>,
    },
    /// `IxJoin` (+ inline `Filter`): probe the base relation's cached
    /// secondary index on the single shared attribute; repeated-attribute
    /// checks run per posting.
    Index {
        base: Arc<Relation>,
        index: Arc<ColumnIndex>,
        /// Position in the accumulated buffer of the join-key value.
        key_pos_in_buf: usize,
        /// `(first, later)` positions in the base row that must agree.
        eq: Range<usize>,
        /// Base-row positions appended to the buffer (attributes not
        /// already bound by earlier stages).
        extra: Range<usize>,
    },
}

/// Per-operator accumulator while a profiled pipeline runs.
///
/// `incl_ns` is *inclusive* push-loop time — this operator plus
/// everything downstream of it — measured per visit. Because the
/// pipeline is a chain, operator `i`'s inclusive time contains operator
/// `i+1`'s, so self time falls out as a subtraction in
/// [`PipeProf::finish`] instead of needing per-row clock pairs at every
/// level.
struct NodeAcc {
    op: OpKind,
    target: String,
    rows_in: u64,
    rows_out: u64,
    probes: u64,
    /// Operator construction time (index/hash builds), outside the push
    /// loop.
    build_ns: u64,
    /// Inclusive push-loop time (see type docs).
    incl_ns: u64,
    /// Profiles of subquery pipelines materialized to feed this
    /// operator.
    subs: Vec<OpProfile>,
}

impl NodeAcc {
    fn new(op: OpKind, target: &str) -> NodeAcc {
        NodeAcc {
            op,
            target: target.to_string(),
            rows_in: 0,
            rows_out: 0,
            probes: 0,
            build_ns: 0,
            incl_ns: 0,
            subs: Vec::new(),
        }
    }

    /// A node whose construction started at `build_start`.
    fn built(op: OpKind, target: &str, build_start: Option<Instant>) -> NodeAcc {
        let mut node = NodeAcc::new(op, target);
        node.build_ns = build_start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        node
    }
}

/// Profiling state for one streaming pipeline, allocated only under
/// [`ppr_obs::ProfileMode::On`] — the `Off` hot path carries a `None`
/// and pays a null check per row, never a clock read.
///
/// `nodes` is in pipeline order: `[source, stage 1, …, stage n, sink]`.
struct PipeProf {
    nodes: Vec<NodeAcc>,
}

impl PipeProf {
    /// Converts the accumulators into the sink-rooted [`OpProfile`]
    /// tree: self time = build time + inclusive time − downstream
    /// inclusive time, children = the upstream operator plus any
    /// subquery profiles.
    fn finish(mut self, sink_rows_out: u64) -> OpProfile {
        if let Some(sink) = self.nodes.last_mut() {
            sink.rows_out = sink_rows_out;
        }
        let self_ns: Vec<u64> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let downstream = self.nodes.get(i + 1).map_or(0, |d| d.incl_ns);
                node.build_ns + node.incl_ns.saturating_sub(downstream)
            })
            .collect();
        let mut tree: Option<OpProfile> = None;
        for (i, acc) in self.nodes.into_iter().enumerate() {
            let mut node = OpProfile::node(acc.op, acc.target);
            node.rows_in = acc.rows_in;
            node.rows_out = acc.rows_out;
            node.probes = acc.probes;
            node.time_us = self_ns[i] / 1_000;
            if let Some(upstream) = tree.take() {
                node.children.push(upstream);
            }
            node.children.extend(acc.subs);
            tree = Some(node);
        }
        tree.expect("a pipeline has at least a source and a sink")
    }
}

/// The columns the textbook `bind` operator gives a scan, computed without
/// touching any rows: the binding's distinct attributes in first-occurrence
/// order, each with its base-row position.
fn bound(binding: &[AttrId]) -> impl Iterator<Item = (usize, AttrId)> + Clone + '_ {
    let first = |&(i, a): &(usize, &AttrId)| !binding[..i].contains(a);
    binding
        .iter()
        .enumerate()
        .filter(first)
        .map(|(i, &a)| (i, a))
}

/// A binding's repeated-attribute checks: the `(first, later)` base-row
/// positions that must agree.
fn eq_checks(binding: &[AttrId]) -> impl Iterator<Item = (usize, usize)> + '_ {
    binding.iter().enumerate().filter_map(|(i, a)| {
        let first = binding.iter().position(|x| x == a).expect("present");
        (first != i).then_some((first, i))
    })
}

#[inline]
fn eq_ok(eq_checks: &[(usize, usize)], row: &[Value]) -> bool {
    eq_checks.iter().all(|&(a, b)| row[a] == row[b])
}

/// Flattens a join tree onto `chain` as pipeline inputs, left to right.
/// `Join(Join(a, b), c)` — the shape the methods' SQL takes — becomes
/// `[a, b, c]`; right-nested and bushy shapes (which join-expression
/// trees produce when an interior node skips a no-op projection) flatten
/// the same way, which is sound because the pipeline natural-joins its
/// inputs in sequence and ⋈ is associative and commutative.
fn push_chain<'p>(plan: &'p Plan, chain: &mut Vec<&'p Plan>) {
    match plan {
        Plan::Join { left, right } => {
            push_chain(left, chain);
            push_chain(right, chain);
        }
        other => chain.push(other),
    }
}

/// Appends `items` to `list` and returns where they went.
fn push_span<T>(list: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Range<usize> {
    let start = list.len();
    list.extend(items);
    start..list.len()
}

/// Natural-joins an input's attributes onto the accumulated schema
/// `acc[from..]`: appends those not already there, in input order.
fn join_attrs(acc: &mut Vec<AttrId>, from: usize, input: impl Iterator<Item = AttrId>) {
    for a in input {
        if !acc[from..].contains(&a) {
            acc.push(a);
        }
    }
}

/// Position of `attr` in the accumulated schema `acc`.
fn position(acc: &[AttrId], attr: AttrId) -> usize {
    acc.iter()
        .position(|&a| a == attr)
        .unwrap_or_else(|| panic!("attribute {attr} not in the pipeline"))
}

/// The operator tree the streaming executor *would* run for `plan` under
/// default [`ExecOptions`], computed without touching any rows: kinds,
/// targets, and structure only — every counter stays zero. `explain plan`
/// renders this, so the planned tree lines up node for node with the
/// measured tree `explain analyze` produces.
pub fn streaming_shape(plan: &Plan) -> OpProfile {
    match plan {
        Plan::Scan { .. } | Plan::Join { .. } => pipeline_shape(plan, false),
        Plan::ProjectDistinct { input, keep } => match ix_scan_target(input, keep) {
            Some((base, _)) => OpProfile::node(OpKind::IxScan, base.name()),
            None => pipeline_shape(input, true),
        },
    }
}

/// Whether a `SELECT DISTINCT keep` over `input` is answered by `IxScan`,
/// given subquery dedup: a single kept attribute of a scan whose binding
/// repeats none (repeats add a selection the index does not see). Returns
/// the scan and the kept attribute's base column.
fn ix_scan_target<'p>(input: &'p Plan, keep: &[AttrId]) -> Option<(&'p Arc<Relation>, usize)> {
    let (Plan::Scan { base, binding }, [kept]) = (input, keep) else {
        return None;
    };
    if bound(binding).count() != binding.len() {
        return None;
    }
    let col = binding.iter().position(|a| a == kept)?;
    Some((base, col))
}

/// Shape counterpart of [`Run::pipeline`]: walks the join chain making
/// the same IxJoin-vs-HashJoin choices, building zeroed nodes.
fn pipeline_shape(plan: &Plan, distinct: bool) -> OpProfile {
    let mut chain = Vec::new();
    push_chain(plan, &mut chain);
    let mut acc: Vec<AttrId> = Vec::new();
    let mut tree = match chain[0] {
        Plan::Scan { base, binding } => {
            acc.extend(bound(binding).map(|(_, a)| a));
            OpProfile::node(OpKind::TableScan, base.name())
        }
        sub @ Plan::ProjectDistinct { keep, .. } => {
            acc.extend_from_slice(keep);
            let mut node = OpProfile::node(OpKind::TableScan, "");
            node.children.push(streaming_shape(sub));
            node
        }
        Plan::Join { .. } => unreachable!("push_chain flattens both spines"),
    };
    for node in &chain[1..] {
        let mut stage = match node {
            Plan::Scan { base, binding } => {
                let keys = bound(binding).filter(|(_, a)| acc.contains(a)).count();
                join_attrs(&mut acc, 0, bound(binding).map(|(_, a)| a));
                let kind = if keys == 1 {
                    OpKind::IxJoin
                } else {
                    OpKind::HashJoin
                };
                OpProfile::node(kind, base.name())
            }
            sub @ Plan::ProjectDistinct { keep, .. } => {
                join_attrs(&mut acc, 0, keep.iter().copied());
                let mut stage = OpProfile::node(OpKind::HashJoin, "");
                stage.children.push(streaming_shape(sub));
                stage
            }
            Plan::Join { .. } => unreachable!("push_chain flattens both spines"),
        };
        stage.children.insert(0, tree);
        tree = stage;
    }
    let mut root = OpProfile::node(
        if distinct {
            OpKind::Distinct
        } else {
            OpKind::Bag
        },
        "",
    );
    root.children.push(tree);
    root
}

/// Runs the pipelines of `plan`, subqueries first, and returns the root
/// pipeline's rows.
/// Under [`ppr_obs::ProfileMode::On`] the per-operator profile of the
/// root pipeline lands in [`ExecStats::op_profile`].
pub(crate) fn materialize_streaming(
    plan: &Plan,
    meter: &mut Meter,
    stats: &mut ExecStats,
    options: ExecOptions,
) -> Result<Rows> {
    let mut run = Run {
        meter,
        stats,
        options,
        s: Scratch::default(),
    };
    let (out, prof) = run.materialize(plan)?;
    if let Some(p) = prof {
        run.stats.op_profile = Some(Box::new(p));
    }
    Ok(out.rows)
}

/// What a pipeline leaves at its materialization boundary, and what the
/// next pipeline up streams or builds a hash join from: flat rows, never a
/// [`Relation`], and the `DISTINCT` table that de-duplicated them when the
/// sink kept one.
struct Boundary {
    rows: Rows,
    set: Option<RowSet>,
}

/// The shape of one execution's pipelines, and the buffers they
/// materialize into. Pipelines nest — a subquery's pipeline runs to
/// completion while the pipeline reading it is being wired — so each list
/// is a stack: a pipeline pushes above what its consumer pushed and
/// truncates back when it is done. The lists grow to the plan's deepest
/// nesting once per execution instead of being allocated per pipeline.
#[derive(Default)]
struct Scratch<'p> {
    /// Join chains: each pipeline's inputs, left to right.
    chain: Vec<&'p Plan>,
    /// Accumulated schemas: the attributes of each pipeline's buffer.
    acc: Vec<AttrId>,
    /// Position lists of stages, sources and sinks, addressed by range.
    pos: Vec<usize>,
    /// Repeated-attribute checks, addressed by range.
    eq: Vec<(usize, usize)>,
    /// Probe stages.
    stages: Vec<StreamStage>,
    /// The accumulated tuple: only one pipeline at a time pushes rows.
    buf: Vec<Value>,
    /// Row buffers and tables of consumed boundaries.
    buffers: Buffers,
}

/// One execution in progress.
struct Run<'p, 'm> {
    meter: &'m mut Meter,
    stats: &'m mut ExecStats,
    options: ExecOptions,
    s: Scratch<'p>,
}

/// A wired pipeline's stages and the lists their ranges address.
struct Wired<'a> {
    stages: &'a [StreamStage],
    pos: &'a [usize],
    eq: &'a [(usize, usize)],
}

impl<'p> Run<'p, '_> {
    /// Runs the pipeline ending at `plan`, recursing into `ProjectDistinct`
    /// inputs first; returns the pipeline's profile instead of stashing it,
    /// so subquery recursion can attach child profiles to the operator they
    /// feed.
    fn materialize(&mut self, plan: &'p Plan) -> Result<(Boundary, Option<OpProfile>)> {
        match plan {
            Plan::Scan { .. } | Plan::Join { .. } => self.pipeline(plan, None),
            Plan::ProjectDistinct { input, keep } => {
                let (out, prof) = match self.ix_scan(input, keep)? {
                    Some(pair) => pair,
                    None => self.pipeline(input, Some(keep))?,
                };
                let rows = out.rows.len() as u64;
                self.stats.materializations += 1;
                self.stats.peak_materialized = self.stats.peak_materialized.max(rows);
                self.stats.materialized_rows_out += rows;
                Ok((out, prof))
            }
        }
    }

    /// The `IxScan` operator: a single-column `SELECT DISTINCT` over a plain
    /// scan is exactly the cached index's key list in first-occurrence order,
    /// so the whole subquery pipeline collapses into one index read.
    ///
    /// Returns `None` when the shape does not apply (see [`ix_scan_target`];
    /// dedup disabled) and the caller falls back to the general pipeline.
    /// The meter still ticks once per base row — the logical tuple flow is a
    /// plan property and must equal the general pipeline's.
    fn ix_scan(
        &mut self,
        input: &Plan,
        keep: &[AttrId],
    ) -> Result<Option<(Boundary, Option<OpProfile>)>> {
        if !self.options.dedup_subqueries {
            return Ok(None);
        }
        let Some((base, col)) = ix_scan_target(input, keep) else {
            return Ok(None);
        };
        let (meter, stats) = (&mut *self.meter, &mut *self.stats);
        let start = self.options.profile.is_on().then(Instant::now);
        let (index, built) = base.column_index(col);
        stats.index_builds += built as u64;
        if built {
            stats.rows_scanned += base.len() as u64;
        }
        stats.index_probes += 1;
        for _ in 0..base.len() {
            if let Some(kind) = meter.on_tuple() {
                return Err(budget_err(kind, meter));
            }
        }
        stats.materialized_rows_in += base.len() as u64;
        // The working-label width the equivalent pipeline would have seen.
        stats.max_intermediate_arity = stats.max_intermediate_arity.max(base.arity());
        let keys = index.first_keys();
        if let Some(kind) = meter.on_materialized_rows(keys.len() as u64) {
            return Err(budget_err(kind, meter));
        }
        stats.rows_emitted += keys.len() as u64;
        let prof = start.map(|s| {
            let mut node = OpProfile::node(OpKind::IxScan, base.name());
            node.rows_in = base.len() as u64;
            node.rows_out = keys.len() as u64;
            node.probes = 1;
            node.time_us = s.elapsed().as_micros() as u64;
            node
        });
        let rows = self.s.buffers.column(keys.iter().copied());
        Ok(Some((Boundary { rows, set: None }, prof)))
    }

    /// Wires and runs one streaming join pipeline: a [`Source`], a stage per
    /// further input, and a sink (with the `DISTINCT` projection when `keep`
    /// is given). Its shape goes onto the [`Scratch`] stacks and comes off
    /// again at the end, its consumed boundaries' buffers into the pool.
    fn pipeline(
        &mut self,
        plan: &'p Plan,
        keep: Option<&'p [AttrId]>,
    ) -> Result<(Boundary, Option<OpProfile>)> {
        // The profile-or-not decision is made here, once per pipeline build:
        // `None` keeps the per-row cost at a null check, no clock reads.
        let profiling = self.options.profile.is_on();
        let mut prof: Option<PipeProf> = profiling.then(|| PipeProf { nodes: Vec::new() });
        let s = &self.s;
        let (chain_lo, acc_lo, pos_lo, eq_lo, stages_lo) = (
            s.chain.len(),
            s.acc.len(),
            s.pos.len(),
            s.eq.len(),
            s.stages.len(),
        );
        push_chain(plan, &mut self.s.chain);
        let chain_hi = self.s.chain.len();
        // A natural join of sets is a set, so a sink keeping every column of
        // a pipeline whose inputs all are sets meets no duplicate.
        let mut inputs_are_sets = true;

        // Source: scans stream straight off the base relation (no bind copy);
        // subqueries materialize first.
        let source = match self.s.chain[chain_lo] {
            Plan::Scan { base, binding } => {
                inputs_are_sets &= base.is_deduped();
                if let Some(p) = prof.as_mut() {
                    p.nodes.push(NodeAcc::new(OpKind::TableScan, base.name()));
                }
                let s = &mut self.s;
                s.acc.extend(bound(binding).map(|(_, a)| a));
                let collapses = s.acc.len() - acc_lo < binding.len();
                let out_pos = collapses.then(|| push_span(&mut s.pos, bound(binding).map(|b| b.0)));
                let eq = push_span(&mut s.eq, eq_checks(binding));
                Source::Table {
                    base: Arc::clone(base),
                    out_pos,
                    eq,
                }
            }
            sub @ Plan::ProjectDistinct { keep, .. } => {
                inputs_are_sets &= self.options.dedup_subqueries;
                let (Boundary { rows, set }, sub_prof) = self.materialize(sub)?;
                if let Some(set) = set {
                    self.s.buffers.recycle_set(set);
                }
                if let Some(p) = prof.as_mut() {
                    // Streaming a materialized intermediate: the subquery
                    // that produced it hangs off the scan node.
                    let mut node = NodeAcc::new(OpKind::TableScan, "");
                    node.subs.extend(sub_prof);
                    p.nodes.push(node);
                }
                self.s.acc.extend_from_slice(keep);
                Source::Materialized(rows)
            }
            Plan::Join { .. } => unreachable!("push_chain flattens both spines"),
        };
        self.widest(acc_lo);

        // Join stages: an IxJoin over the cached index when the join key is a
        // single attribute of a plain scan; a per-query HashJoin otherwise.
        for i in chain_lo + 1..chain_hi {
            let stage = match self.s.chain[i] {
                Plan::Scan { base, binding } => {
                    inputs_are_sets &= base.is_deduped();
                    let acc = &self.s.acc[acc_lo..];
                    let mut keys = bound(binding).filter(|(_, a)| acc.contains(a));
                    let build_start = profiling.then(Instant::now);
                    let (stage, kind) = match (keys.next(), keys.next()) {
                        (Some((col, key)), None) => {
                            let stage = self.index_stage(acc_lo, base, binding, col, key);
                            (stage, OpKind::IxJoin)
                        }
                        _ => {
                            self.stats.rows_scanned += base.len() as u64;
                            let rows = self.bind_rows(base, binding);
                            self.stats.rows_scanned += rows.len() as u64;
                            let input = bound(binding).map(|(_, a)| a);
                            (self.hash_stage(acc_lo, input, rows, None), OpKind::HashJoin)
                        }
                    };
                    if let Some(p) = prof.as_mut() {
                        p.nodes.push(NodeAcc::built(kind, base.name(), build_start));
                    }
                    stage
                }
                sub @ Plan::ProjectDistinct { keep, .. } => {
                    inputs_are_sets &= self.options.dedup_subqueries;
                    let (Boundary { rows, set }, sub_prof) = self.materialize(sub)?;
                    self.stats.rows_scanned += rows.len() as u64;
                    // Time only the hash build: the subquery's own time is
                    // already inside `sub_prof`'s nodes.
                    let build_start = profiling.then(Instant::now);
                    let stage = self.hash_stage(acc_lo, keep.iter().copied(), rows, set);
                    if let Some(p) = prof.as_mut() {
                        let mut node = NodeAcc::built(OpKind::HashJoin, "", build_start);
                        node.subs.extend(sub_prof);
                        p.nodes.push(node);
                    }
                    stage
                }
                Plan::Join { .. } => unreachable!("push_chain flattens both spines"),
            };
            self.widest(acc_lo);
            self.s.stages.push(stage);
        }
        self.stats.join_stages += (chain_hi - chain_lo - 1) as u64;

        if let Some(p) = prof.as_mut() {
            let kind = if keep.is_some() {
                OpKind::Distinct
            } else {
                OpKind::Bag
            };
            p.nodes.push(NodeAcc::new(kind, ""));
        }
        let s = &mut self.s;
        let acc = &s.acc[acc_lo..];
        let keep_pos =
            keep.map(|attrs| push_span(&mut s.pos, attrs.iter().map(|&a| position(acc, a))));
        let keeps_all = keep.is_some_and(|attrs| attrs.len() == acc.len());
        let dedup = keep.is_some() && self.options.dedup_subqueries;
        let mut sink = Sink {
            seen: (dedup && !(keeps_all && inputs_are_sets)).then(|| s.buffers.row_set()),
            rows: s.buffers.rows(keep.map_or(acc.len(), <[AttrId]>::len)),
            keep_pos: keep_pos.map(|span| &s.pos[span]),
        };

        // Push rows from the source through the stages into the sink.
        let mut buf = std::mem::take(&mut s.buf);
        let wired = Wired {
            stages: &s.stages[stages_lo..],
            pos: &s.pos,
            eq: &s.eq,
        };
        let (eq, out_pos) = match &source {
            Source::Table { out_pos, eq, .. } => {
                (&s.eq[eq.clone()], out_pos.clone().map(|span| &s.pos[span]))
            }
            Source::Materialized(_) => (&[][..], None),
        };
        self.stats.rows_scanned += source.len() as u64;
        if let Some(p) = prof.as_mut() {
            p.nodes[0].rows_in += source.len() as u64;
        }
        let loop_start = profiling.then(Instant::now);
        for i in 0..source.len() {
            let t = source.row(i);
            if !eq_ok(eq, t) {
                continue;
            }
            if let Some(kind) = self.meter.on_tuple() {
                return Err(budget_err(kind, self.meter));
            }
            buf.clear();
            match out_pos {
                None => buf.extend_from_slice(t),
                Some(pos) => buf.extend(pos.iter().map(|&p| t[p])),
            }
            if let Some(p) = prof.as_mut() {
                p.nodes[0].rows_out += 1;
            }
            probe_streaming(
                &wired,
                0,
                &mut buf,
                &mut sink,
                self.meter,
                self.stats,
                prof.as_mut(),
            )
            .map_err(|e| attach_flow(e, self.meter))?;
        }
        if let (Some(p), Some(start)) = (prof.as_mut(), loop_start) {
            p.nodes[0].incl_ns += start.elapsed().as_nanos() as u64;
        }

        let Sink { rows, seen, .. } = sink;
        s.buf = buf;
        for stage in s.stages.drain(stages_lo..) {
            if let StreamStage::Hash { build, .. } = stage {
                s.buffers.recycle_group(build);
            }
        }
        if let Source::Materialized(streamed) = source {
            s.buffers.recycle_rows(streamed);
        }
        s.chain.truncate(chain_lo);
        s.acc.truncate(acc_lo);
        s.pos.truncate(pos_lo);
        s.eq.truncate(eq_lo);
        let profile = prof.map(|p| p.finish(rows.len() as u64));
        Ok((Boundary { rows, set: seen }, profile))
    }

    /// Records the width of the pipeline buffer whose schema starts at
    /// `acc_lo`.
    fn widest(&mut self, acc_lo: usize) {
        let arity = self.s.acc.len() - acc_lo;
        self.stats.max_intermediate_arity = self.stats.max_intermediate_arity.max(arity);
    }

    /// An `IxJoin` of a scan whose one shared attribute `key` is bound at
    /// base column `col`, probing that column's cached index.
    fn index_stage(
        &mut self,
        acc_lo: usize,
        base: &Arc<Relation>,
        binding: &[AttrId],
        col: usize,
        key: AttrId,
    ) -> StreamStage {
        let (index, built) = base.column_index(col);
        self.stats.index_builds += built as u64;
        if built {
            self.stats.rows_scanned += base.len() as u64;
        }
        let s = &mut self.s;
        let acc = &s.acc[acc_lo..];
        let key_pos_in_buf = position(acc, key);
        let new = bound(binding).filter(|(_, a)| !acc.contains(a));
        let extra = push_span(&mut s.pos, new.map(|(i, _)| i));
        let eq = push_span(&mut s.eq, eq_checks(binding));
        join_attrs(&mut s.acc, acc_lo, bound(binding).map(|(_, a)| a));
        StreamStage::Index {
            base: Arc::clone(base),
            index,
            key_pos_in_buf,
            eq,
            extra,
        }
    }

    /// A `HashJoin` over `rows`, an input whose columns are `input`, keyed on
    /// the input's columns already in the buffer *in the input's column
    /// order* — so that a key of the whole row probes the input's `DISTINCT`
    /// table `set`, which the build then adopts.
    fn hash_stage(
        &mut self,
        acc_lo: usize,
        input: impl Iterator<Item = AttrId> + Clone,
        rows: Rows,
        set: Option<RowSet>,
    ) -> StreamStage {
        let s = &mut self.s;
        let acc = &s.acc[acc_lo..];
        let keyed = input.clone().enumerate().filter(|(_, a)| acc.contains(a));
        let key_in_row = push_span(&mut s.pos, keyed.clone().map(|(j, _)| j));
        let key_in_buf = push_span(&mut s.pos, keyed.map(|(_, a)| position(acc, a)));
        let new = input.clone().enumerate().filter(|(_, a)| !acc.contains(a));
        let extra = push_span(&mut s.pos, new.map(|(j, _)| j));
        let build = s.buffers.build(rows, &s.pos[key_in_row.clone()], set);
        join_attrs(&mut s.acc, acc_lo, input);
        StreamStage::Hash {
            build,
            key_in_row,
            key_in_buf,
            extra,
        }
    }

    /// The textbook `bind` into flat rows: the base rows that pass the
    /// binding's repeated-attribute checks, repeated columns collapsed.
    fn bind_rows(&mut self, base: &Relation, binding: &[AttrId]) -> Rows {
        let s = &mut self.s;
        let eq_span = push_span(&mut s.eq, eq_checks(binding));
        let out_span = push_span(&mut s.pos, bound(binding).map(|b| b.0));
        let (eq, out) = (&s.eq[eq_span.clone()], &s.pos[out_span.clone()]);
        let mut rows = s.buffers.rows(out.len());
        for t in base.rows().filter(|t| eq_ok(eq, t)) {
            if out.len() == t.len() {
                rows.push(t.iter().copied());
            } else {
                rows.push(out.iter().map(|&p| t[p]));
            }
        }
        s.eq.truncate(eq_span.start);
        s.pos.truncate(out_span.start);
        rows
    }
}

/// Depth-first push through the stages, one meter tick per emitted row.
///
/// `prof`, when present, indexes stage `idx` at `nodes[idx + 1]` (node 0
/// is the source) and the sink at the last node. All bookkeeping hides
/// behind the `Option` check, so the unprofiled path is unchanged.
fn probe_streaming(
    wired: &Wired,
    idx: usize,
    buf: &mut Vec<Value>,
    sink: &mut Sink,
    meter: &mut Meter,
    stats: &mut ExecStats,
    mut prof: Option<&mut PipeProf>,
) -> Result<()> {
    if idx == wired.stages.len() {
        return match prof {
            None => sink.emit(buf, meter, stats),
            Some(p) => {
                let start = Instant::now();
                let r = sink.emit(buf, meter, stats);
                let node = p.nodes.last_mut().expect("sink node");
                node.rows_in += 1;
                node.incl_ns += start.elapsed().as_nanos() as u64;
                r
            }
        };
    }
    let start = prof.as_ref().map(|_| Instant::now());
    match &wired.stages[idx] {
        StreamStage::Hash {
            build,
            key_in_row,
            key_in_buf,
            extra,
        } => {
            let key_in_row = &wired.pos[key_in_row.clone()];
            let matches = build.get(key_in_row, &wired.pos[key_in_buf.clone()], buf);
            if let Some(p) = prof.as_deref_mut() {
                let n = &mut p.nodes[idx + 1];
                n.probes += 1;
                // Every match row is passed downstream unfiltered.
                n.rows_in += matches.len() as u64;
                n.rows_out += matches.len() as u64;
            }
            let extra = &wired.pos[extra.clone()];
            let base_len = buf.len();
            for &ri in matches {
                if let Some(kind) = meter.on_tuple() {
                    return Err(RelalgError::BudgetExceeded {
                        kind,
                        tuples_flowed: 0,
                    });
                }
                let row = build.row(ri);
                buf.truncate(base_len);
                buf.extend(extra.iter().map(|&p| row[p]));
                probe_streaming(wired, idx + 1, buf, sink, meter, stats, prof.as_deref_mut())?;
            }
            buf.truncate(base_len);
        }
        StreamStage::Index {
            base,
            index,
            key_pos_in_buf,
            eq,
            extra,
        } => {
            stats.index_probes += 1;
            let postings = index.postings(buf[*key_pos_in_buf]);
            stats.rows_scanned += postings.len() as u64;
            if let Some(p) = prof.as_deref_mut() {
                let n = &mut p.nodes[idx + 1];
                n.probes += 1;
                n.rows_in += postings.len() as u64;
            }
            let (eq, extra) = (&wired.eq[eq.clone()], &wired.pos[extra.clone()]);
            let base_len = buf.len();
            for &ri in postings {
                let row = base.row(ri as usize);
                // Inline Filter: rows bind would have dropped never meter.
                if !eq_ok(eq, row) {
                    continue;
                }
                if let Some(kind) = meter.on_tuple() {
                    return Err(RelalgError::BudgetExceeded {
                        kind,
                        tuples_flowed: 0,
                    });
                }
                buf.truncate(base_len);
                buf.extend(extra.iter().map(|&p| row[p]));
                if let Some(p) = prof.as_deref_mut() {
                    p.nodes[idx + 1].rows_out += 1;
                }
                probe_streaming(wired, idx + 1, buf, sink, meter, stats, prof.as_deref_mut())?;
            }
            buf.truncate(base_len);
        }
    }
    if let (Some(p), Some(s)) = (prof, start) {
        p.nodes[idx + 1].incl_ns += s.elapsed().as_nanos() as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::exec::{execute, execute_with};
    use crate::flow_model;
    use crate::schema::{AttrId, Schema};
    use crate::value::tuple;

    fn edge(n: u32) -> Arc<Relation> {
        let schema = Schema::new(vec![AttrId(1000), AttrId(1001)]);
        let mut rows = Vec::new();
        for a in 1..=n {
            for b in 1..=n {
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

    fn streaming(plan: &Plan) -> (Relation, ExecStats) {
        execute(plan, &Budget::unlimited()).unwrap()
    }

    /// The streaming run of `plan` has the flow model's rows and counters.
    fn assert_matches_model(plan: &Plan) {
        flow_model::check(plan, true, &streaming(plan));
    }

    #[test]
    fn triangle_matches_pipelined_byte_for_byte() {
        let e = edge(3);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(1), a(3)]))
            .project(vec![a(1)]);
        assert_matches_model(&plan);
    }

    #[test]
    fn chain_with_subqueries_matches() {
        let e = edge(5);
        let mut plan = Plan::scan(e.clone(), vec![a(0), a(1)]).project(vec![a(1)]);
        for i in 1..6 {
            plan = plan
                .join(Plan::scan(e.clone(), vec![a(i), a(i + 1)]))
                .project(vec![a(i + 1)]);
        }
        assert_matches_model(&plan);
    }

    #[test]
    fn repeated_attrs_and_cross_products_match() {
        let e = edge(3);
        // edge(x, x) ⋈ edge(y, z): an empty filtered scan crossed in.
        let plan = Plan::scan(e.clone(), vec![a(1), a(1)]).join(Plan::scan(e, vec![a(2), a(3)]));
        assert_matches_model(&plan);
    }

    #[test]
    fn bag_roots_match() {
        let e = edge(4);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).join(Plan::scan(e, vec![a(2), a(3)]));
        assert_matches_model(&plan);
    }

    #[test]
    fn ix_scan_answers_single_column_distinct_from_the_index() {
        let e = edge(3);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let (rel, stats) = streaming(&plan);
        assert_eq!(rel.len(), 3);
        assert!(rel.is_deduped());
        assert_eq!(stats.index_probes, 1);
        assert_eq!(stats.index_builds, 1);
        assert_matches_model(&plan);
    }

    #[test]
    fn warm_runs_reuse_cached_indexes() {
        let e = edge(3);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .project(vec![a(1)]);
        let (_, cold) = streaming(&plan);
        assert!(cold.index_builds > 0);
        let (_, warm) = streaming(&plan);
        assert_eq!(warm.index_builds, 0);
        assert!(warm.rows_scanned < cold.rows_scanned);
        assert_eq!(warm.tuples_flowed, cold.tuples_flowed);
        assert!(e.indexed_columns() > 0);
    }

    #[test]
    fn profiling_reports_exact_rows_and_identical_results() {
        use ppr_obs::{OpKind, ProfileMode};
        let e = edge(4);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(1), a(3)]))
            .project(vec![a(1)]);
        let (plain_rel, plain) = streaming(&plan);
        let (rel, stats) = execute_with(
            &plan,
            &Budget::unlimited(),
            ExecOptions {
                profile: ProfileMode::On,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // Profiling must be observation-only: same rows, same order,
        // same logical flow.
        assert_eq!(rel.tuples(), plain_rel.tuples());
        assert_eq!(stats.tuples_flowed, plain.tuples_flowed);
        assert!(plain.op_profile.is_none(), "off by default");

        let profile = stats.op_profile.as_deref().expect("profile on");
        let flat = profile.flatten();
        assert_eq!(flat.len(), 4, "sink + 2 stages + source: {flat:?}");
        // Root is the distinct sink; its outputs are the result rows and
        // its inputs are every row the pipeline emitted.
        assert_eq!(flat[0].op, OpKind::Distinct);
        assert_eq!(flat[0].rows_out, rel.len() as u64);
        assert_eq!(flat[0].rows_in, stats.rows_emitted);
        // The source streams the whole base relation.
        let source = flat.last().unwrap();
        assert_eq!(source.op, OpKind::TableScan);
        assert_eq!(source.target, "edge");
        assert_eq!(source.rows_in, 12);
        assert_eq!(source.rows_out, 12);
        // Index-join probes in the tree sum to the stats counter.
        let tree_probes: u64 = flat
            .iter()
            .filter(|n| matches!(n.op, OpKind::IxJoin | OpKind::IxScan))
            .map(|n| n.probes)
            .sum();
        assert_eq!(tree_probes, stats.index_probes);
        // Rows flowing between operators are consistent: each stage's
        // outputs feed the next operator's visits.
        assert_eq!(flat[1].rows_out, stats.rows_emitted);
    }

    #[test]
    fn subquery_profiles_attach_to_their_consumer() {
        use ppr_obs::{OpKind, ProfileMode};
        let e = edge(4);
        // π_{v3}( π_{v2}(edge(v1,v2)) ⋈ edge(v2,v3) ): the subquery is
        // answered by IxScan and feeds the outer pipeline's source.
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = sub
            .join(Plan::scan(e, vec![a(2), a(3)]))
            .project(vec![a(3)]);
        let (_, stats) = execute_with(
            &plan,
            &Budget::unlimited(),
            ExecOptions {
                profile: ProfileMode::On,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let profile = stats.op_profile.as_deref().expect("profile on");
        let flat = profile.flatten();
        let ix_scans: Vec<_> = flat.iter().filter(|n| n.op == OpKind::IxScan).collect();
        assert_eq!(ix_scans.len(), 1, "subquery collapses to IxScan: {flat:?}");
        assert_eq!(ix_scans[0].target, "edge");
        assert_eq!(ix_scans[0].rows_out, 4, "four distinct v2 values");
        // The IxScan is deeper than the outer source that consumes it.
        let source_depth = flat
            .iter()
            .find(|n| n.op == OpKind::TableScan)
            .expect("outer source")
            .depth;
        assert!(ix_scans[0].depth > source_depth);
    }

    #[test]
    fn streaming_shape_matches_the_measured_tree() {
        use ppr_obs::ProfileMode;
        let e = edge(4);
        // Triangle with an IxScan-answered subquery on one side: covers
        // TableScan, IxJoin, HashJoin, IxScan, and the Distinct sink.
        let sub = Plan::scan(e.clone(), vec![a(1), a(2)]).project(vec![a(2)]);
        let plan = Plan::scan(e.clone(), vec![a(2), a(3)])
            .join(Plan::scan(e, vec![a(3), a(4)]))
            .join(sub)
            .project(vec![a(2)]);
        let shape = streaming_shape(&plan);
        let (_, stats) = execute_with(
            &plan,
            &Budget::unlimited(),
            ExecOptions {
                profile: ProfileMode::On,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let measured = stats.op_profile.as_deref().expect("profile on");
        let planned: Vec<_> = shape
            .flatten()
            .iter()
            .map(|n| (n.depth, n.op, n.target.clone()))
            .collect();
        let actual: Vec<_> = measured
            .flatten()
            .iter()
            .map(|n| (n.depth, n.op, n.target.clone()))
            .collect();
        assert_eq!(planned, actual);
        // Shape rendering never touches rows.
        assert!(shape
            .flatten()
            .iter()
            .all(|n| n.rows_in == 0 && n.rows_out == 0 && n.probes == 0 && n.time_us == 0));
    }

    #[test]
    fn budget_trips_at_the_same_flow_as_pipelined() {
        let e = edge(4);
        let plan = Plan::scan(e.clone(), vec![a(1), a(2)])
            .join(Plan::scan(e.clone(), vec![a(2), a(3)]))
            .join(Plan::scan(e, vec![a(3), a(4)]))
            .project(vec![a(1)]);
        let flow = flow_model::check(&plan, true, &streaming(&plan));
        // A budget of k < flow tuples trips on tuple k + 1; k = flow does not.
        for k in 0..flow {
            let err = execute(&plan, &Budget::tuples(k)).unwrap_err();
            assert_eq!(
                err,
                RelalgError::BudgetExceeded {
                    kind: crate::budget::BudgetKind::Tuples,
                    tuples_flowed: k + 1,
                }
            );
        }
        assert!(execute(&plan, &Budget::tuples(flow)).is_ok());
    }
}
