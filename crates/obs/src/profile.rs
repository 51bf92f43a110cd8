//! Operator- and pass-level profiling records.
//!
//! The paper's experiments attribute cost to individual plan stages —
//! where projection pushing kills intermediate results, where bucket
//! elimination spends its time. This module is the shared vocabulary for
//! that attribution at request granularity: the executor fills in an
//! [`OpProfile`] tree (one node per physical operator, actual rows and
//! self time), the planner records one [`PassSpan`] per step of a
//! method's recipe, and the `explain` verb ships both over the wire as
//! flattened [`OpNode`] rows.
//!
//! Profiling is opt-in per request via [`ProfileMode`], checked **once**
//! at pipeline build — the `Off` path adds no timer reads and no
//! allocation to the executor hot loop.

/// Whether the executor instruments operators for a request.
///
/// Checked once when the pipeline is built, not per row: `Off` keeps the
/// hot path free of clock reads and profile bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ProfileMode {
    /// No instrumentation (the default; zero hot-path cost).
    #[default]
    Off,
    /// Accumulate per-operator rows, probes, and self time.
    On,
}

impl ProfileMode {
    /// True when profiling is enabled.
    pub fn is_on(self) -> bool {
        matches!(self, ProfileMode::On)
    }
}

/// Physical operator kinds of the streaming executor, plus the logical
/// shapes `explain plan` renders before execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OpKind {
    /// Full scan of a base relation (a pipeline source).
    #[default]
    TableScan,
    /// Single-operator distinct projection answered straight from a
    /// secondary index, skipping the pipeline entirely.
    IxScan,
    /// Index nested-loop join stage: probes a cached secondary index.
    IxJoin,
    /// Hash join stage: probes a materialized build side.
    HashJoin,
    /// Deduplicating projection sink.
    Distinct,
    /// Bag (duplicate-preserving) projection sink.
    Bag,
}

/// Every operator kind, for metric registration and exhaustive walks.
pub const OP_KINDS: [OpKind; 6] = [
    OpKind::TableScan,
    OpKind::IxScan,
    OpKind::IxJoin,
    OpKind::HashJoin,
    OpKind::Distinct,
    OpKind::Bag,
];

impl OpKind {
    /// Stable snake_case name, used as the `op="…"` metric label and on
    /// the wire.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::TableScan => "table_scan",
            OpKind::IxScan => "ix_scan",
            OpKind::IxJoin => "ix_join",
            OpKind::HashJoin => "hash_join",
            OpKind::Distinct => "distinct",
            OpKind::Bag => "bag",
        }
    }

    /// Inverse of [`OpKind::name`] (wire decoding).
    pub fn from_name(s: &str) -> Option<OpKind> {
        OP_KINDS.into_iter().find(|k| k.name() == s)
    }
}

/// One profiled operator: actual row counts, probe count, and self time,
/// with the operators feeding it as children.
///
/// The executor builds the tree sink-down: the root is the projection
/// sink, its child the last join stage, and so on to the source leaf.
/// `time_us` is **self** time — inclusive time minus the children's
/// inclusive time — so the per-operator times sum to the pipeline's
/// wall clock instead of double-counting nested work.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfile {
    /// What the operator is.
    pub op: OpKind,
    /// Base relation touched, or empty for pure pipeline operators.
    pub target: String,
    /// Rows the operator consumed (scanned rows for a source, candidate
    /// rows walked for a join stage, emitted rows for a sink).
    pub rows_in: u64,
    /// Rows the operator produced downstream.
    pub rows_out: u64,
    /// Index/hash-table lookups performed (0 for sources and sinks).
    pub probes: u64,
    /// Self time in microseconds (see type docs).
    pub time_us: u64,
    /// Operators feeding this one (at most one for a linear pipeline;
    /// subquery builds appear as extra children of their join stage).
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// A node of the given kind over `target`, counters zeroed.
    pub fn node(op: OpKind, target: impl Into<String>) -> OpProfile {
        OpProfile {
            op,
            target: target.into(),
            ..OpProfile::default()
        }
    }

    /// Pre-order flattening with depths, the wire/rendering shape.
    pub fn flatten(&self) -> Vec<OpNode> {
        let mut out = Vec::new();
        self.flatten_into(0, &mut out);
        out
    }

    fn flatten_into(&self, depth: u32, out: &mut Vec<OpNode>) {
        out.push(OpNode {
            depth,
            op: self.op,
            target: self.target.clone(),
            rows_in: self.rows_in,
            rows_out: self.rows_out,
            probes: self.probes,
            time_us: self.time_us,
        });
        for c in &self.children {
            c.flatten_into(depth + 1, out);
        }
    }

    /// Total operators in the tree.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(OpProfile::len).sum::<usize>()
    }

    /// True only for a tree with no operators — never, by construction;
    /// present for clippy's `len`-without-`is_empty` convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Compact single-token digest for the slow-query log:
    /// `kind:target:rows_out:time_us` per operator in pre-order, joined
    /// by `/`, capped at [`DIGEST_MAX_OPS`] operators. Relation names
    /// are separator-safe (alphanumeric plus `_-.`), so the digest never
    /// contains a comma, space, or newline and rides in one slowlog
    /// field. An empty target renders as `-`.
    pub fn digest(&self) -> String {
        let parts: Vec<String> = self
            .flatten()
            .iter()
            .take(DIGEST_MAX_OPS)
            .map(|n| {
                let target = if n.target.is_empty() { "-" } else { &n.target };
                format!("{}:{}:{}:{}", n.op.name(), target, n.rows_out, n.time_us)
            })
            .collect();
        parts.join("/")
    }
}

/// Operators a slowlog digest retains (trees are small — a source, a
/// stage per join, and a sink — so this cap rarely binds).
pub const DIGEST_MAX_OPS: usize = 8;

/// One [`OpProfile`] node flattened for the wire: depth instead of
/// nesting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpNode {
    /// Distance from the root sink (root = 0).
    pub depth: u32,
    /// What the operator is.
    pub op: OpKind,
    /// Base relation touched, or empty.
    pub target: String,
    /// Rows consumed.
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Index/hash-table lookups.
    pub probes: u64,
    /// Self time in microseconds.
    pub time_us: u64,
}

/// One planner step as a recipe ran it: wall time plus a plan-delta
/// summary (operator counts before and after).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassSpan {
    /// Step name (`projection-pushdown`, `decompose`, …).
    pub name: String,
    /// Wall-clock time the pass took, in microseconds.
    pub micros: u64,
    /// Plan operators before the pass ran (0 while no plan exists yet).
    pub nodes_before: u64,
    /// Plan operators after the pass ran.
    pub nodes_after: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> OpProfile {
        let mut source = OpProfile::node(OpKind::TableScan, "edge");
        source.rows_in = 100;
        source.rows_out = 100;
        source.time_us = 5;
        let mut join = OpProfile::node(OpKind::IxJoin, "node");
        join.rows_in = 240;
        join.rows_out = 80;
        join.probes = 100;
        join.time_us = 12;
        join.children.push(source);
        let mut sink = OpProfile::node(OpKind::Distinct, "");
        sink.rows_in = 80;
        sink.rows_out = 40;
        sink.time_us = 3;
        sink.children.push(join);
        sink
    }

    #[test]
    fn profile_mode_defaults_off() {
        assert_eq!(ProfileMode::default(), ProfileMode::Off);
        assert!(!ProfileMode::Off.is_on());
        assert!(ProfileMode::On.is_on());
    }

    #[test]
    fn op_kind_names_round_trip() {
        for k in OP_KINDS {
            assert_eq!(OpKind::from_name(k.name()), Some(k));
            assert!(
                k.name().chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "label-unsafe name {}",
                k.name()
            );
        }
        assert_eq!(OpKind::from_name("nested_loop"), None);
    }

    #[test]
    fn flatten_is_preorder_with_depths() {
        let tree = sample_tree();
        assert_eq!(tree.len(), 3);
        let flat = tree.flatten();
        assert_eq!(flat.len(), 3);
        assert_eq!(
            flat.iter().map(|n| (n.depth, n.op)).collect::<Vec<_>>(),
            vec![
                (0, OpKind::Distinct),
                (1, OpKind::IxJoin),
                (2, OpKind::TableScan)
            ]
        );
        assert_eq!(flat[1].probes, 100);
        assert_eq!(flat[2].target, "edge");
    }

    #[test]
    fn digest_is_single_token_and_capped() {
        let tree = sample_tree();
        assert_eq!(
            tree.digest(),
            "distinct:-:40:3/ix_join:node:80:12/table_scan:edge:100:5"
        );
        assert!(!tree.digest().contains([',', ' ', '\n']));

        // A deep chain is truncated to DIGEST_MAX_OPS operators.
        let mut deep = OpProfile::node(OpKind::Bag, "");
        for _ in 0..(2 * DIGEST_MAX_OPS) {
            let mut next = OpProfile::node(OpKind::HashJoin, "r");
            next.children.push(deep);
            deep = next;
        }
        assert_eq!(deep.digest().split('/').count(), DIGEST_MAX_OPS);
    }
}
