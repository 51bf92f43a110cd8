//! The planner: one fixed recipe of steps per evaluation method.
//!
//! [`plan_query`] matches on the [`Method`] and runs its recipe's steps in
//! order, timing each one into a [`PassSpan`]. The steps call the paper's
//! algorithms in [`crate::methods`] (greedy reordering, bucket orders,
//! bucket elimination along an order) and [`crate::jet`] (early projection
//! as a left-deep join-expression tree). docs/PLANNING.md §2 gives each
//! step's contract and §3 each method's steps, a table a unit test checks
//! against this function. `tests/pass_parity.rs` pins every
//! recipe's plans and pass spans to golden files, and
//! `tests/methods_agree.rs` checks their rows against an independent
//! backtracking oracle.

use std::time::Instant;

use rand::Rng;

use ppr_obs::PassSpan;
use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{AttrId, Plan};

use crate::jet::Jet;
use crate::methods::{bucket, reordering::greedy_order, Method};

/// What one recipe run produced, beyond the plan itself: the inputs to
/// the service layer's counters (`passes_run`) and decomposition cache
/// (`chosen_order` / `used_hint`).
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The finished plan.
    pub plan: Plan,
    /// Number of steps the recipe ran.
    pub passes_run: usize,
    /// The bucket-elimination variable order chosen (bucket methods only).
    pub chosen_order: Option<Vec<AttrId>>,
    /// Whether a supplied order hint was consumed, skipping decomposition.
    pub used_hint: bool,
    /// Per-step wall time and plan node counts before and after the step
    /// (0 while no plan exists), in recipe order: one entry per step
    /// counted by `passes_run`.
    pub pass_spans: Vec<PassSpan>,
}

/// Plans `query` for `method` and reports what happened. `order_hint`
/// optionally supplies a cached bucket-elimination variable order; bucket
/// methods use it when it covers exactly the query's variables (drawing
/// no randomness), and every other method ignores it. Randomness comes
/// only from `rng`, in recipe order. This is the service layer's entry
/// point; [`crate::methods::build_plan`] is the hint-free wrapper.
pub fn plan_query<R: Rng + ?Sized>(
    method: Method,
    query: &ConjunctiveQuery,
    db: &Database,
    rng: &mut R,
    order_hint: Option<Vec<AttrId>>,
) -> PlanReport {
    let mut spans = Vec::new();
    let mut chosen_order = None;
    let mut used_hint = false;
    let plan = match method {
        Method::Naive | Method::Straightforward => {
            step(&mut spans, "listing-order", 0, || (), |_| 0);
            let chain = || join_chain(query, db);
            step(&mut spans, "build-join-chain", 0, chain, nodes)
        }
        Method::EarlyProjection => {
            step(&mut spans, "listing-order", 0, || (), |_| 0);
            pushdown(&mut spans, query, db)
        }
        Method::Reordering => {
            let greedy = || query.permuted(&greedy_order(query, rng));
            let permuted = step(&mut spans, "greedy-join-order", 0, greedy, |_| 0);
            pushdown(&mut spans, &permuted, db)
        }
        Method::BucketElimination(heuristic) => {
            let decompose = || match order_hint {
                Some(hint) if covers_exactly(&hint, &query.all_vars()) => {
                    used_hint = true;
                    hint
                }
                _ => bucket::bucket_order(query, heuristic, rng),
            };
            let order = step(&mut spans, "decompose", 0, decompose, |_| 0);
            let build = || bucket::plan_with_order(query, db, &order);
            let plan = step(&mut spans, "bucket-build", 0, build, nodes);
            chosen_order = Some(order);
            plan
        }
    };
    PlanReport {
        plan,
        passes_run: spans.len(),
        chosen_order,
        used_hint,
        pass_spans: spans,
    }
}

/// Runs one step, timing it, and records its span: `nodes_before` is the
/// size of the plan the step starts from, `nodes_after` measures what it
/// returns (0 for a step that builds no plan).
fn step<T>(
    spans: &mut Vec<PassSpan>,
    name: &'static str,
    nodes_before: u64,
    run: impl FnOnce() -> T,
    nodes_after: impl FnOnce(&T) -> u64,
) -> T {
    let started = Instant::now();
    let out = run();
    let micros = started.elapsed().as_micros() as u64;
    spans.push(PassSpan {
        name: name.to_string(),
        micros,
        nodes_before,
        nodes_after: nodes_after(&out),
    });
    out
}

fn nodes(plan: &Plan) -> u64 {
    plan.node_count() as u64
}

/// The straightforward plan: `π_free((…(a_1 ⋈ a_2) ⋈ …) ⋈ a_m)`, atoms
/// joined in the query's order with no projection pushing (paper §3).
fn join_chain(query: &ConjunctiveQuery, db: &Database) -> Plan {
    let mut atoms = query.atoms.iter();
    let first = atoms.next().expect("queries have at least one atom");
    let mut plan = Plan::scan(db.expect(&first.relation), first.args.clone());
    for atom in atoms {
        plan = plan.join(Plan::scan(db.expect(&atom.relation), atom.args.clone()));
    }
    plan.project(query.free.clone())
}

/// Nodes of [`join_chain`]'s plan: a scan an atom, a join between each
/// two, and the projection.
fn join_chain_nodes(query: &ConjunctiveQuery) -> u64 {
    2 * query.num_atoms() as u64
}

/// The `build-join-chain` and `projection-pushdown` steps: the paper's §4
/// early projection in the query's atom order, where every variable is
/// projected out the moment its last occurrence has been joined unless it
/// is free. That plan is the order's left-deep join-expression tree, whose
/// labels [`crate::jet`] computes in the one place Theorem 1 needs them.
/// The first step's span reports the join chain's size, which the second
/// starts from, without building the chain.
fn pushdown(spans: &mut Vec<PassSpan>, query: &ConjunctiveQuery, db: &Database) -> Plan {
    let chain = || join_chain_nodes(query);
    let chain_nodes = step(spans, "build-join-chain", 0, chain, |&n| n);
    let jet = || Jet::left_deep(query).to_plan(query, db);
    step(spans, "projection-pushdown", chain_nodes, jet, nodes)
}

/// Whether `hint` is a permutation of `vars` — the validity bar for a
/// cached order, guarding both decode drift and WL-fingerprint collisions
/// between structurally different queries.
fn covers_exactly(hint: &[AttrId], vars: &[AttrId]) -> bool {
    hint.len() == vars.len() && vars.iter().all(|v| hint.contains(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{pentagon, triangle_free_pair, ALL};
    use crate::methods::OrderHeuristic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The rows of docs/PLANNING.md §3's recipe table: the methods of the
    /// first cell and the steps of the second, as their backquoted names.
    fn planning_md_recipes() -> Vec<(Vec<String>, Vec<String>)> {
        let doc = include_str!("../../../docs/PLANNING.md");
        let start = doc.find("\n## 3. ").expect("PLANNING.md has a §3");
        let section = &doc[start + 1..];
        let section = &section[..section[1..].find("\n#").map_or(section.len(), |e| e + 1)];
        let quoted = |cell: &str| -> Vec<String> {
            cell.split('`')
                .skip(1)
                .step_by(2)
                .map(String::from)
                .collect()
        };
        section
            .lines()
            .filter(|l| l.starts_with("| `"))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').collect();
                (quoted(cells[1]), quoted(cells[2]))
            })
            .collect()
    }

    #[test]
    fn join_chain_nodes_counts_the_chain() {
        for (q, db) in [pentagon(), triangle_free_pair()] {
            assert_eq!(join_chain_nodes(&q), nodes(&join_chain(&q, &db)));
        }
    }

    #[test]
    fn planning_md_lists_every_recipe() {
        let rows = planning_md_recipes();
        let (q, db) = pentagon();
        for method in ALL {
            let listed: Vec<&Vec<String>> = rows
                .iter()
                .filter(|(methods, _)| methods.iter().any(|m| m == method.name()))
                .map(|(_, steps)| steps)
                .collect();
            assert_eq!(listed.len(), 1, "PLANNING.md §3 rows for {}", method.name());
            let report = plan_query(method, &q, &db, &mut StdRng::seed_from_u64(0), None);
            let ran: Vec<&str> = report.pass_spans.iter().map(|s| s.name.as_str()).collect();
            assert_eq!(
                *listed[0],
                ran,
                "PLANNING.md §3 recipe of {}",
                method.name()
            );
        }
        let listed: usize = rows.iter().map(|(methods, _)| methods.len()).sum();
        assert_eq!(listed, ALL.len(), "PLANNING.md §3 names an unknown method");
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
        let fresh = bucket::bucket_order(&q, OrderHeuristic::Mcs, &mut StdRng::seed_from_u64(3));
        assert_eq!(report.chosen_order, Some(fresh));
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
        // No plan exists until the chain is built; afterwards every span
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
    fn single_atom_chain_keeps_root_projection() {
        let q = ppr_query::parse_query("q(a) :- edge(a, b)").unwrap();
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        let mut rng = StdRng::seed_from_u64(0);
        let report = plan_query(Method::EarlyProjection, &q, &db, &mut rng, None);
        assert_eq!(
            report.plan.to_string(),
            "ProjectDistinct [a0]\n  Scan edge(a0, a1)\n"
        );
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
    fn hint_skips_decomposition_and_randomness() {
        let (q, db) = triangle_free_pair();
        let hint = q.all_vars();
        let mut rng = StdRng::seed_from_u64(1);
        let method = Method::BucketElimination(OrderHeuristic::Mcs);
        let report = plan_query(method, &q, &db, &mut rng, Some(hint.clone()));
        assert!(report.used_hint);
        assert_eq!(report.chosen_order.as_deref(), Some(hint.as_slice()));
        let expected = bucket::plan_with_order(&q, &db, &hint);
        assert_eq!(format!("{:?}", report.plan), format!("{expected:?}"));
        // The hint consumed no random draws: the stream is untouched.
        let mut fresh = StdRng::seed_from_u64(1);
        assert_eq!(rng.next_u64(), fresh.next_u64());
    }

    #[test]
    fn invalid_hint_is_rejected_and_recomputed() {
        let (q, db) = pentagon();
        let method = Method::BucketElimination(OrderHeuristic::Mcs);
        let mut rng = StdRng::seed_from_u64(9);
        let cold = plan_query(method, &q, &db, &mut rng, None);
        // Too short, or the right length over a variable the query lacks:
        // neither is a permutation of the query's variables.
        let mut foreign = q.all_vars();
        foreign[0] = AttrId(999_999);
        for bogus in [q.all_vars()[..2].to_vec(), foreign] {
            let mut rng = StdRng::seed_from_u64(9);
            let warm = plan_query(method, &q, &db, &mut rng, Some(bogus));
            assert!(!warm.used_hint);
            assert_eq!(warm.chosen_order, cold.chosen_order);
            assert_eq!(format!("{:?}", warm.plan), format!("{:?}", cold.plan));
        }
    }
}
