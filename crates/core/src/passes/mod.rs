//! The optimizer-pass pipeline — the only planner.
//!
//! Every one of the paper's methods is a **recipe**: an ordered list of
//! small, typed passes over a [`PlanState`], run by a [`PassManager`].
//! The passes call the paper's algorithms in [`crate::methods`] (greedy
//! reordering, bucket orders, bucket elimination along an order) and
//! [`crate::jet`] (early projection as a left-deep join-expression tree).
//! `tests/pass_parity.rs` pins every recipe's plans to a golden file,
//! and `tests/methods_agree.rs` checks their rows against an independent
//! backtracking oracle.
//!
//! The pass vocabulary (see [`order`], [`chain`], [`pushdown`],
//! [`decompose`] and docs/PLANNING.md for the per-pass contracts):
//!
//! | Pass | Contract |
//! |---|---|
//! | [`order::ListingOrder`] | keep the query's atom listing order (the straightforward method's "planner") |
//! | [`order::GreedyJoinOrder`] | permute atoms by the paper's §4 greedy dead-variable heuristic |
//! | [`chain::BuildJoinChain`] | materialize the left-deep scan-join chain + one outer projection |
//! | [`pushdown::ProjectionPushdown`] | rewrite the chain, projecting each variable out at its last use |
//! | [`decompose::Decompose`] | choose a bucket-elimination variable order (or reuse a cached one) |
//! | [`decompose::BucketBuild`] | build the bucket-elimination plan along the chosen order |
//!
//! Two pieces of state flow around the plan itself. A [`PassContext`]
//! carries the database, the randomness source, an optional **order
//! hint** (a variable order recovered from `ppr-service`'s decomposition
//! cache — a structurally repeated query skips [`decompose::Decompose`]'s
//! work entirely), and the outputs a caller needs for caching and
//! observability: the chosen order, whether the hint was used, and the
//! pass trace. [`plan_query`] is the one-call entry point wrapping all of
//! this; [`crate::methods::build_plan`] is its hint-free wrapper.

pub mod chain;
pub mod decompose;
pub mod order;
pub mod pushdown;

use std::time::Instant;

use rand::Rng;

use ppr_obs::PassSpan;
use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{AttrId, Plan};

use crate::methods::Method;

/// An object-safe randomness source: the one required method of the
/// vendored [`rand::Rng`] trait. `Rng` itself is not object-safe (its
/// `random_range` is generic), but every generator implements this
/// automatically through the blanket impl, and [`PassContext`] can hold it
/// as a trait object so the pass trait stays object-safe too.
pub trait RandomSource {
    /// Produces the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> RandomSource for R {
    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }
}

/// Adapter lending a [`RandomSource`] back out as a [`rand::Rng`], so
/// passes can call the generic order heuristics unchanged. Both traits
/// bottom out in the same `next_u64` stream, so a recipe's plan depends
/// only on the seed the caller's generator started from.
pub struct DynRng<'a>(pub &'a mut dyn RandomSource);

impl Rng for DynRng<'_> {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// The state a recipe transforms: the query (atom order included — the
/// reordering pass rewrites it) and the plan built so far.
#[derive(Debug, Clone)]
pub struct PlanState {
    /// The query being planned, in the atom order chosen so far.
    pub query: ConjunctiveQuery,
    /// The plan built so far; `None` until a build pass has run.
    pub plan: Option<Plan>,
}

/// Shared context threaded through every pass of one pipeline run:
/// inputs a pass may consume and outputs the caller collects afterwards.
pub struct PassContext<'a> {
    /// The database the plan's scans bind to.
    pub db: &'a Database,
    /// Randomness for tie-breaking and order heuristics.
    pub rng: &'a mut dyn RandomSource,
    /// A cached bucket-elimination variable order for this query, decoded
    /// into its [`AttrId`]s (the service layer's decomposition cache).
    /// [`decompose::Decompose`] consumes it instead of recomputing, after
    /// validating it covers exactly the query's variables.
    pub order_hint: Option<Vec<AttrId>>,
    /// The variable order the [`decompose::Decompose`] pass settled on
    /// (from the hint or freshly computed) — what a caching caller stores.
    pub chosen_order: Option<Vec<AttrId>>,
    /// Whether [`decompose::Decompose`] consumed a valid `order_hint`,
    /// skipping decomposition work.
    pub used_hint: bool,
    /// Names of the passes run, in order.
    pub trace: Vec<&'static str>,
    /// Per-pass timing and plan-delta spans, one per `trace` entry: wall
    /// time plus plan node counts before/after (0 before any build pass).
    /// `explain plan` renders these.
    pub pass_spans: Vec<PassSpan>,
}

impl<'a> PassContext<'a> {
    /// A context with no order hint over `db`, drawing randomness from
    /// `rng`.
    pub fn new(db: &'a Database, rng: &'a mut dyn RandomSource) -> Self {
        PassContext {
            db,
            rng,
            order_hint: None,
            chosen_order: None,
            used_hint: false,
            trace: Vec::new(),
            pass_spans: Vec::new(),
        }
    }
}

/// One optimizer pass: a named transformation of [`PlanState`]. Passes
/// must be deterministic given the context (randomness comes only from
/// [`PassContext::rng`]) and must preserve query semantics — the plan
/// after the pass computes the same result set as before.
pub trait OptimizerPass {
    /// Stable name, recorded in the pass trace (and `PPR_LOG=debug`
    /// planner logging).
    fn name(&self) -> &'static str;
    /// Transforms the state. A pass that does not apply (e.g. a plan
    /// rewrite before any plan exists) must return the state unchanged.
    fn run(&self, state: PlanState, ctx: &mut PassContext<'_>) -> PlanState;
}

/// An ordered pass pipeline. Built either pass-by-pass ([`PassManager::with`])
/// or from a method's canonical recipe ([`PassManager::for_method`]).
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn OptimizerPass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> Self {
        PassManager::default()
    }

    /// Appends a pass to the pipeline.
    pub fn with(mut self, pass: impl OptimizerPass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// The canonical recipe for `method`:
    ///
    /// * naive / straightforward: listing order, join chain;
    /// * early projection: listing order, join chain, projection pushdown;
    /// * reordering: greedy order, join chain, projection pushdown;
    /// * bucket elimination: decompose (with the method's heuristic),
    ///   bucket build.
    pub fn for_method(method: Method) -> Self {
        match method {
            Method::Naive | Method::Straightforward => PassManager::new()
                .with(order::ListingOrder)
                .with(chain::BuildJoinChain),
            Method::EarlyProjection => PassManager::new()
                .with(order::ListingOrder)
                .with(chain::BuildJoinChain)
                .with(pushdown::ProjectionPushdown),
            Method::Reordering => PassManager::new()
                .with(order::GreedyJoinOrder)
                .with(chain::BuildJoinChain)
                .with(pushdown::ProjectionPushdown),
            Method::BucketElimination(h) => PassManager::new()
                .with(decompose::Decompose::new(h))
                .with(decompose::BucketBuild),
        }
    }

    /// Number of passes in the pipeline.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline holds no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Runs every pass in order over `query` and returns the finished
    /// plan. Panics if the pipeline ends without a plan (a recipe must
    /// contain a build pass).
    pub fn run(&self, query: &ConjunctiveQuery, ctx: &mut PassContext<'_>) -> Plan {
        let mut state = PlanState {
            query: query.clone(),
            plan: None,
        };
        for pass in &self.passes {
            let nodes_before = state.plan.as_ref().map_or(0, |p| p.node_count() as u64);
            let started = Instant::now();
            state = pass.run(state, ctx);
            let micros = started.elapsed().as_micros() as u64;
            let nodes_after = state.plan.as_ref().map_or(0, |p| p.node_count() as u64);
            ctx.trace.push(pass.name());
            ctx.pass_spans.push(PassSpan {
                name: pass.name().to_string(),
                micros,
                nodes_before,
                nodes_after,
            });
        }
        state
            .plan
            .expect("pass recipe must end with a plan-building pass")
    }
}

/// What one pipeline run produced, beyond the plan itself: the inputs to
/// the service layer's counters (`passes_run`) and decomposition cache
/// (`chosen_order` / `used_hint`).
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The finished plan.
    pub plan: Plan,
    /// Number of passes the recipe ran.
    pub passes_run: usize,
    /// The bucket-elimination variable order chosen (bucket methods only).
    pub chosen_order: Option<Vec<AttrId>>,
    /// Whether a supplied order hint was consumed, skipping decomposition.
    pub used_hint: bool,
    /// Per-pass wall time and plan-delta spans, in pass order (one entry
    /// per pass counted by `passes_run`).
    pub pass_spans: Vec<PassSpan>,
}

/// Plans `query` for `method` through the pass pipeline and reports what
/// happened. `order_hint` optionally supplies a cached bucket-elimination
/// variable order (ignored by non-bucket methods, validated before use).
/// This is the service layer's entry point; [`crate::methods::build_plan`]
/// is the hint-free convenience wrapper.
pub fn plan_query<R: Rng + ?Sized>(
    method: Method,
    query: &ConjunctiveQuery,
    db: &Database,
    rng: &mut R,
    order_hint: Option<Vec<AttrId>>,
) -> PlanReport {
    let mut source = rng;
    let mut ctx = PassContext::new(db, &mut source);
    ctx.order_hint = order_hint;
    let manager = PassManager::for_method(method);
    let plan = manager.run(query, &mut ctx);
    PlanReport {
        plan,
        passes_run: ctx.trace.len(),
        chosen_order: ctx.chosen_order,
        used_hint: ctx.used_hint,
        pass_spans: ctx.pass_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{pentagon, triangle_free_pair};
    use crate::methods::OrderHeuristic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn recipes_have_documented_lengths() {
        assert_eq!(PassManager::for_method(Method::Naive).len(), 2);
        assert_eq!(PassManager::for_method(Method::Straightforward).len(), 2);
        assert_eq!(PassManager::for_method(Method::EarlyProjection).len(), 3);
        assert_eq!(PassManager::for_method(Method::Reordering).len(), 3);
        assert_eq!(
            PassManager::for_method(Method::BucketElimination(OrderHeuristic::Mcs)).len(),
            2
        );
        assert!(!PassManager::for_method(Method::Naive).is_empty());
        assert!(PassManager::new().is_empty());
    }

    #[test]
    fn plan_query_reports_trace_and_order() {
        let (q, db) = pentagon();
        let mut rng = StdRng::seed_from_u64(3);
        let report = plan_query(
            Method::BucketElimination(OrderHeuristic::Mcs),
            &q,
            &db,
            &mut rng,
            None,
        );
        assert_eq!(report.passes_run, 2);
        assert!(!report.used_hint);
        let order = report.chosen_order.expect("bucket methods choose an order");
        assert_eq!(order.len(), q.all_vars().len());
    }

    #[test]
    fn pass_spans_mirror_the_trace_and_track_plan_growth() {
        let (q, db) = triangle_free_pair();
        let mut rng = StdRng::seed_from_u64(3);
        let report = plan_query(Method::EarlyProjection, &q, &db, &mut rng, None);
        assert_eq!(report.pass_spans.len(), report.passes_run);
        let names: Vec<&str> = report.pass_spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["listing-order", "build-join-chain", "projection-pushdown"]
        );
        // No plan exists until the build pass runs; afterwards every span
        // sees a non-empty tree.
        assert_eq!(report.pass_spans[0].nodes_before, 0);
        assert_eq!(report.pass_spans[0].nodes_after, 0);
        assert_eq!(report.pass_spans[1].nodes_before, 0);
        assert!(report.pass_spans[1].nodes_after > 0);
        let last = report.pass_spans.last().unwrap();
        assert_eq!(last.nodes_after, report.plan.node_count() as u64);
    }

    #[test]
    fn non_bucket_methods_choose_no_order() {
        let (q, db) = triangle_free_pair();
        let mut rng = StdRng::seed_from_u64(3);
        let report = plan_query(Method::EarlyProjection, &q, &db, &mut rng, None);
        assert_eq!(report.passes_run, 3);
        assert!(report.chosen_order.is_none());
        assert!(!report.used_hint);
    }

    #[test]
    fn valid_hint_is_consumed_and_reproduces_the_plan() {
        let (q, db) = pentagon();
        let method = Method::BucketElimination(OrderHeuristic::Mcs);
        let mut rng = StdRng::seed_from_u64(9);
        let cold = plan_query(method, &q, &db, &mut rng, None);
        let order = cold.chosen_order.clone().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let warm = plan_query(method, &q, &db, &mut rng, Some(order.clone()));
        assert!(warm.used_hint);
        assert_eq!(warm.chosen_order.as_deref(), Some(order.as_slice()));
        assert_eq!(format!("{:?}", warm.plan), format!("{:?}", cold.plan));
    }

    #[test]
    fn invalid_hint_is_rejected_and_recomputed() {
        let (q, db) = pentagon();
        let method = Method::BucketElimination(OrderHeuristic::Mcs);
        let mut rng = StdRng::seed_from_u64(9);
        let cold = plan_query(method, &q, &db, &mut rng, None);
        // Too short: not a permutation of the query's variables.
        let bogus = q.all_vars()[..2].to_vec();
        let mut rng = StdRng::seed_from_u64(9);
        let warm = plan_query(method, &q, &db, &mut rng, Some(bogus));
        assert!(!warm.used_hint);
        assert_eq!(format!("{:?}", warm.plan), format!("{:?}", cold.plan));
    }
}
