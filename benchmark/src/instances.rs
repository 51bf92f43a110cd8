//! The instance pool: queries from the paper's families (Figs. 3–9 and the
//! SAT translations), their wire text, and their expected answers.
//!
//! The pool is a pure function of its seed. Family quotas are fixed and
//! admission is by machine-independent counters, so two pool seeds differ
//! in which random graphs and free-variable sets they hold but not in the
//! mix of families or the range of work per request.
//!
//! Admission is per *planner seed*, not per instance: bucket elimination
//! breaks MCS ties with the seed, and on some instances one seed in a few
//! dozen picks an order that flows 100× the tuples (a 30-vertex ladder
//! was seen to go from 6 000 to 1 000 000). Each (instance, method)
//! therefore carries a short list of seeds that were all run and found
//! inside the band, and requests only ever name those.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};

use ppr_core::methods::{Method, OrderHeuristic};
use ppr_core::passes::plan_query;
use ppr_graph::{families, generate::random_graph_density, Graph};
use ppr_query::{parse_query, ConjunctiveQuery, Database};
use ppr_relalg::value::Tuple;
use ppr_relalg::{exec, Budget};
use ppr_workload::{color_query, random_sat, sat_query, ColorQueryOptions, SatInstance};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::oracle;

/// Admission band on `tuples_flowed` for every (instance, method, planner
/// seed) a request may name: below it a request is protocol overhead,
/// above it one instance owns the tail.
pub const MIN_TUPLES: u64 = 300;
pub const MAX_TUPLES: u64 = 30_000;
/// Admission cap on result rows, which bounds reply size.
pub const MAX_ROWS: usize = 3_000;
/// Admitted planner seeds kept per (instance, method), and how many
/// candidates (0, 1, 2, …) may be tried to find them.
pub const SEEDS_PER_METHOD: usize = 16;
const SEED_CANDIDATES: u64 = 48;

pub const BUCKET: Method = Method::BucketElimination(OrderHeuristic::Mcs);
pub const EARLY: Method = Method::EarlyProjection;

/// What a correct reply to an instance looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// Boolean query: the reply carries rows iff the instance is
    /// satisfiable (the rows themselves are the values of an arbitrary
    /// representative variable, paper §2).
    Nonempty(bool),
    /// Non-Boolean query: the reply's rows, as a set.
    Rows(RowsDigest),
}

/// Order-independent summary of a row set: count plus a wrapping sum of
/// per-row hashes (std's SipHash with its fixed default key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsDigest {
    pub count: usize,
    pub sum: u64,
}

impl RowsDigest {
    pub fn of<R: AsRef<[u32]>>(rows: &[R]) -> RowsDigest {
        let sum = rows.iter().fold(0u64, |acc, row| {
            let mut h = DefaultHasher::new();
            row.as_ref().hash(&mut h);
            acc.wrapping_add(h.finish())
        });
        RowsDigest {
            count: rows.len(),
            sum,
        }
    }
}

/// One query of the pool.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Family and parameters, e.g. `ladder15/free`.
    pub label: String,
    pub num_vars: usize,
    pub atoms: Vec<oracle::Atom>,
    /// Head variables in head order; empty for a Boolean query.
    pub free: Vec<usize>,
    /// The methods requests may ask for, each with its admitted seeds.
    pub plans: Vec<Admitted>,
    pub expected: Expected,
    /// Wire text with variables `v0…` and atoms in listing order.
    pub text: String,
}

/// A method and the planner seeds under which it was run and admitted.
#[derive(Debug, Clone)]
pub struct Admitted {
    pub method: Method,
    pub seeds: Vec<u64>,
}

impl Instance {
    /// Renders the rule with variable `i` spelled `names[i]` and atoms in
    /// `atom_order` — any such rendering is the same query.
    pub fn render(&self, names: &[String], atom_order: &[usize]) -> String {
        let mut text = String::with_capacity(16 * self.atoms.len());
        text.push_str("q(");
        for (i, &v) in self.free.iter().enumerate() {
            if i > 0 {
                text.push_str(", ");
            }
            text.push_str(&names[v]);
        }
        text.push_str(") :- ");
        for (i, &a) in atom_order.iter().enumerate() {
            if i > 0 {
                text.push_str(", ");
            }
            let (rel, args) = &self.atoms[a];
            text.push_str(rel);
            text.push('(');
            for (j, &v) in args.iter().enumerate() {
                if j > 0 {
                    text.push_str(", ");
                }
                text.push_str(&names[v]);
            }
            text.push(')');
        }
        text
    }

    /// A fresh spelling of the instance: variables renamed and, with
    /// `permute_atoms`, the body reordered.
    ///
    /// Renaming alone leaves every plan as admitted (variables are
    /// numbered by first occurrence, atoms keep their listing order).
    /// Reordering does not: early projection follows the listing order and
    /// MCS breaks ties by variable number, so a reordered spelling must
    /// only be sent where it cannot reach the planner (a result-cache hit).
    pub fn render_variant(&self, rng: &mut StdRng, permute_atoms: bool) -> String {
        let mut ids: Vec<usize> = (0..self.num_vars).collect();
        ids.shuffle(rng);
        let prefix = ["x", "y", "n", "w"][rng.random_range(0..4usize)];
        let names: Vec<String> = ids.iter().map(|i| format!("{prefix}{i}")).collect();
        let mut atom_order: Vec<usize> = (0..self.atoms.len()).collect();
        if permute_atoms {
            atom_order.shuffle(rng);
        }
        self.render(&names, &atom_order)
    }
}

/// The pool plus the database its queries run over.
pub struct Pool {
    pub instances: Vec<Instance>,
    /// `edge` plus every clause relation — what the server must hold.
    pub db: Database,
    /// Candidates drawn and refused by the admission band.
    pub rejected: usize,
}

impl Pool {
    /// Relations the harness must `load` (the server seeds `edge` itself).
    pub fn relations_to_load(&self) -> BTreeMap<String, Vec<Tuple>> {
        self.db
            .names()
            .into_iter()
            .filter(|&name| name != "edge")
            .map(|name| (name.to_string(), self.db.expect(name).tuples().to_vec()))
            .collect()
    }
}

/// The families a pool draws from, with how many instances each supplies.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// Boolean 3-COLOR on a random graph of `order` vertices at `density`.
    RandomColor { order: usize, density: f64 },
    /// 3-COLOR on a structured graph; Boolean ones also run under `early`.
    Structured {
        name: &'static str,
        graph: fn(usize) -> Graph,
        order: usize,
        free: bool,
    },
    /// Boolean k-SAT with `vars` variables at clause density `density`.
    Sat { k: usize, vars: usize, density: f64 },
}

/// Quotas sum to 64. The four Boolean structured graphs are deterministic,
/// hence one each; the rest vary per seed.
const FAMILIES: [(Family, usize); 11] = [
    (
        structured("augpath", families::augmented_path, 20, false),
        1,
    ),
    (structured("ladder", families::ladder, 20, false), 1),
    (
        structured("augladder", families::augmented_ladder, 20, false),
        1,
    ),
    (
        structured(
            "augcircladder",
            families::augmented_circular_ladder,
            20,
            false,
        ),
        1,
    ),
    (
        Family::RandomColor {
            order: 20,
            density: 2.0,
        },
        10,
    ),
    (
        Family::RandomColor {
            order: 16,
            density: 3.0,
        },
        10,
    ),
    (structured("augpath", families::augmented_path, 20, true), 8),
    (structured("ladder", families::ladder, 15, true), 8),
    (
        structured("augladder", families::augmented_ladder, 8, true),
        8,
    ),
    (
        Family::Sat {
            k: 2,
            vars: 40,
            density: 1.0,
        },
        8,
    ),
    (
        Family::Sat {
            k: 3,
            vars: 12,
            density: 2.0,
        },
        8,
    ),
];

const fn structured(
    name: &'static str,
    graph: fn(usize) -> Graph,
    order: usize,
    free: bool,
) -> Family {
    Family::Structured {
        name,
        graph,
        order,
        free,
    }
}

/// Every clause relation for 2- and 3-literal clauses, plus `edge`.
fn pool_database() -> Database {
    let all_signs = |k: usize| -> Vec<Vec<i32>> {
        (0..1u32 << k)
            .map(|bits| {
                (0..k)
                    .map(|i| {
                        let var = i as i32 + 1;
                        if bits >> i & 1 == 1 {
                            var
                        } else {
                            -var
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let mut db = Database::new();
    db.add(ppr_workload::edge_relation(3));
    let mut rng = StdRng::seed_from_u64(0);
    for k in [2, 3] {
        let every_pattern = SatInstance {
            num_vars: k,
            clauses: all_signs(k),
        };
        let (_, clause_db) = sat_query(&every_pattern, 0.0, &mut rng);
        for name in clause_db.names() {
            db.add((*clause_db.expect(name)).clone());
        }
    }
    db
}

/// One draw from a family: the query, its label and methods, and the
/// workload crate's backtracking reference verdict where it is affordable
/// (Boolean 3-COLOR and 3-SAT; its DPLL has no unit propagation and was
/// seen to take 38 s on one 40-variable 2-SAT draw, so 2-SAT rests on the
/// oracle alone).
struct Candidate {
    label: String,
    query: ConjunctiveQuery,
    methods: Vec<Method>,
    reference: Option<bool>,
}

fn draw(family: Family, rng: &mut StdRng) -> Candidate {
    match family {
        Family::RandomColor { order, density } => {
            let graph = random_graph_density(order, density, rng);
            let (query, _) = color_query(&graph, &ColorQueryOptions::boolean(), rng);
            Candidate {
                label: format!("color-n{order}-d{density}"),
                query,
                methods: vec![BUCKET],
                reference: Some(ppr_workload::color::is_colorable(&graph, 3)),
            }
        }
        Family::Structured {
            name,
            graph,
            order,
            free,
        } => {
            let graph = graph(order);
            let options = if free {
                ColorQueryOptions::non_boolean()
            } else {
                ColorQueryOptions::boolean()
            };
            let (query, _) = color_query(&graph, &options, rng);
            Candidate {
                label: format!("{name}{order}/{}", if free { "free" } else { "bool" }),
                query,
                methods: if free {
                    vec![BUCKET]
                } else {
                    vec![BUCKET, EARLY]
                },
                reference: (!free).then(|| ppr_workload::color::is_colorable(&graph, 3)),
            }
        }
        Family::Sat { k, vars, density } => {
            let clauses = (vars as f64 * density).round() as usize;
            let instance = random_sat(vars, clauses, k, rng);
            let (query, _) = sat_query(&instance, 0.0, rng);
            Candidate {
                label: format!("{k}sat-n{vars}-d{density}"),
                query,
                methods: vec![BUCKET],
                reference: (k == 3).then(|| instance.is_satisfiable()),
            }
        }
    }
}

/// Plans and runs `query` in-process under one planner seed; whether it
/// falls inside the admission band.
fn admit(query: &ConjunctiveQuery, method: Method, seed: u64, db: &Database) -> bool {
    let report = plan_query(method, query, db, &mut StdRng::seed_from_u64(seed), None);
    // A plan that exhausts this budget is above the band already.
    exec::execute(&report.plan, &Budget::tuples(MAX_TUPLES + 1)).is_ok_and(|(rows, stats)| {
        (MIN_TUPLES..=MAX_TUPLES).contains(&stats.tuples_flowed) && rows.len() <= MAX_ROWS
    })
}

/// The first `SEEDS_PER_METHOD` candidate seeds under which `method`
/// stays in the band; `None` when too few of the candidates do.
fn admit_method(text: &str, method: Method, db: &Database) -> Option<Admitted> {
    let query = parse_query(text).expect("rendered text parses");
    let mut seeds = Vec::new();
    for seed in 0..SEED_CANDIDATES {
        if admit(&query, method, seed, db) {
            seeds.push(seed);
            if seeds.len() == SEEDS_PER_METHOD {
                return Some(Admitted { method, seeds });
            }
        }
        // Give up once the remaining candidates cannot fill the list.
        let remaining = (SEED_CANDIDATES - seed - 1) as usize;
        if seeds.len() + remaining < SEEDS_PER_METHOD {
            return None;
        }
    }
    None
}

/// Builds the pool for `seed`, scaling every family quota by
/// `quota_percent` (100 = the full 64 instances; smoke runs use less).
pub fn build_pool(seed: u64, quota_percent: usize) -> Pool {
    let db = pool_database();
    let rels: oracle::Relations = db
        .names()
        .into_iter()
        .map(|name| {
            let tuples = db
                .expect(name)
                .tuples()
                .iter()
                .map(|t| t.to_vec())
                .collect();
            (name.to_string(), tuples)
        })
        .collect();
    let mut instances = Vec::new();
    let mut rejected = 0;
    for (f, &(family, quota)) in FAMILIES.iter().enumerate() {
        // One stream per family: a refused draw moves to that family's
        // next candidate without shifting any other family's draws.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(f as u64));
        let quota = (quota * quota_percent).div_ceil(100);
        let mut kept = 0;
        let mut draws = 0;
        while kept < quota {
            draws += 1;
            assert!(draws <= 200 * quota, "family {family:?} admits no instance");
            let candidate = draw(family, &mut rng);
            let instance = convert(&candidate);
            let plans: Option<Vec<Admitted>> = candidate
                .methods
                .iter()
                .map(|&m| admit_method(&instance.text, m, &db))
                .collect();
            let Some(plans) = plans else {
                rejected += 1;
                // The Boolean structured graphs have nothing to redraw.
                if matches!(family, Family::Structured { free: false, .. }) {
                    break;
                }
                continue;
            };
            let rows = oracle::answers(instance.num_vars, &instance.atoms, &instance.free, &rels);
            if let Some(satisfiable) = candidate.reference {
                assert_eq!(
                    !rows.is_empty(),
                    satisfiable,
                    "oracle and backtracking reference disagree on {}",
                    instance.label
                );
            }
            let expected = if instance.free.is_empty() {
                Expected::Nonempty(!rows.is_empty())
            } else {
                Expected::Rows(RowsDigest::of(&rows))
            };
            instances.push(Instance {
                expected,
                plans,
                ..instance
            });
            kept += 1;
        }
    }
    Pool {
        instances,
        db,
        rejected,
    }
}

/// Re-expresses a workload-crate query over dense variable indices (in
/// order of first occurrence) and renders its canonical text.
fn convert(candidate: &Candidate) -> Instance {
    let query = &candidate.query;
    let mut index: HashMap<ppr_relalg::AttrId, usize> = HashMap::new();
    let atoms: Vec<oracle::Atom> = query
        .atoms
        .iter()
        .map(|atom| {
            let args = atom
                .args
                .iter()
                .map(|&v| {
                    let next = index.len();
                    *index.entry(v).or_insert(next)
                })
                .collect();
            (atom.relation.clone(), args)
        })
        .collect();
    let free: Vec<usize> = if query.is_boolean() {
        Vec::new()
    } else {
        query.free.iter().map(|v| index[v]).collect()
    };
    let mut instance = Instance {
        label: candidate.label.clone(),
        num_vars: index.len(),
        atoms,
        free,
        plans: Vec::new(),
        expected: Expected::Nonempty(false),
        text: String::new(),
    };
    let names: Vec<String> = (0..instance.num_vars).map(|i| format!("v{i}")).collect();
    let listing: Vec<usize> = (0..instance.atoms.len()).collect();
    instance.text = instance.render(&names, &listing);
    instance
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::fingerprint;

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let a = build_pool(3, 25);
        let b = build_pool(3, 25);
        let c = build_pool(4, 25);
        let texts = |p: &Pool| {
            p.instances
                .iter()
                .map(|i| i.text.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        for plan in a.instances.iter().flat_map(|i| &i.plans) {
            assert_eq!(plan.seeds.len(), SEEDS_PER_METHOD);
        }
    }

    #[test]
    fn variants_keep_the_canonical_fingerprint() {
        let pool = build_pool(1, 25);
        let mut rng = StdRng::seed_from_u64(9);
        for instance in &pool.instances {
            let base = fingerprint(&parse_query(&instance.text).unwrap());
            for permute in [false, true] {
                let variant = instance.render_variant(&mut rng, permute);
                assert_ne!(variant, instance.text);
                assert_eq!(
                    fingerprint(&parse_query(&variant).unwrap()),
                    base,
                    "{}",
                    instance.label
                );
            }
        }
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = [vec![1u32, 2], vec![3, 1]];
        let b = [vec![3u32, 1], vec![1, 2]];
        assert_eq!(RowsDigest::of(&a), RowsDigest::of(&b));
        assert_ne!(
            RowsDigest::of(&a),
            RowsDigest::of(&[vec![1u32, 2], vec![1, 3]])
        );
    }
}
