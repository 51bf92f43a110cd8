#![warn(missing_docs)]

//! The core of the *Projection Pushing Revisited* reproduction: structural
//! optimization of project-join queries.
//!
//! * [`jet`] — join-expression trees (paper §5): evaluation orders for a
//!   project-join query with projection applied as early as possible;
//!   their *width* is the quantity Theorem 1 characterizes.
//! * [`convert`] — Algorithms 1–3: the constructive conversions between
//!   join-expression trees and tree decompositions of the join graph that
//!   prove Theorem 1 (`join width = treewidth + 1`).
//! * [`methods`] — the evaluation-method taxonomy of the experimental
//!   study (naive, straightforward, early projection §4, greedy
//!   reordering §4, bucket elimination §5 with MCS / min-degree /
//!   min-fill orders) and the algorithms the planner's steps call: naive SQL,
//!   greedy reordering, bucket orders and bucket elimination.
//! * [`passes`] — the planner: [`plan_query`] runs each method's fixed
//!   recipe of steps (join-order selection, chain building, projection
//!   pushdown, decomposition), takes the serving layer's cached variable
//!   orders and reports a span per step (see docs/PLANNING.md).
//! * [`width`] — join width / induced width APIs surfacing Theorems 1–2 as
//!   checkable properties.
//! * [`sqlgen`] — a generic plan → Appendix-A-style SQL emitter.
//! * [`minibucket`] — the mini-bucket approximation (Dechter), listed by
//!   the paper as a direction worth exploring (§7).
//! * [`minimize`] — join minimization via containment tests over canonical
//!   databases (§7's third direction), powered by bucket elimination.
//! * [`reduce`] — general semijoin (Wong–Youssefi style) pre-reduction;
//!   the paper explains why it is useless on its 3-COLOR workloads, and
//!   the `semijoin_usefulness` experiment shows both that and the 2-COLOR
//!   counterpoint.

pub mod convert;
pub mod jet;
pub mod methods;
pub mod minibucket;
pub mod minimize;
pub mod passes;
pub mod reduce;
pub mod sqlgen;
pub mod width;

pub use jet::Jet;
pub use methods::{build_plan, emit_sql, Method, OrderHeuristic};
pub use passes::{plan_query, PlanReport};

/// Compiles and runs every Rust snippet in docs/PLANNING.md as a doctest
/// of this crate, so the planning guide cannot drift from the planner
/// API it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/PLANNING.md")]
pub struct PlanningGuide;
