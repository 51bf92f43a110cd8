//! The reordering method (paper §4).
//!
//! Early projection processes atoms linearly, so the *order* matters: the
//! greedy heuristic repeatedly picks, among the remaining atoms, one with
//! the maximum number of variables that occur in no other remaining atom
//! (those variables die the moment the atom is joined). Ties prefer the
//! atom sharing the fewest variables with the remaining atoms; further
//! ties break randomly. Early projection is then applied to the permuted
//! listing (the `greedy-join-order` pass feeds the pushdown recipe).

use std::cmp::Reverse;

use rand::Rng;
use rustc_hash::FxHashMap;

use ppr_query::ConjunctiveQuery;
use ppr_relalg::AttrId;

/// Computes the greedy atom permutation: `result[i]` is the index (in the
/// original listing) of the atom processed `i`-th.
///
/// Each pick scans the remaining atoms once, in ascending index order,
/// for the best `(singles, fewest shared)` score and its ties, and draws
/// one `random_range` over the ties. Scores are maintained incrementally:
/// removing an atom changes only the score of the one remaining atom
/// still holding a variable whose holder count drops from 2 to 1. Total
/// work is `O(a·m²)` for `m` atoms of arity at most `a`.
pub fn greedy_order<R: Rng + ?Sized>(query: &ConjunctiveQuery, rng: &mut R) -> Vec<usize> {
    let m = query.num_atoms();
    let atom_vars: Vec<Vec<AttrId>> = query.atoms.iter().map(|a| a.vars()).collect();
    // The remaining atoms mentioning each variable.
    let mut holders: FxHashMap<AttrId, Vec<usize>> = FxHashMap::default();
    for (j, vars) in atom_vars.iter().enumerate() {
        for &v in vars {
            holders.entry(v).or_default().push(j);
        }
    }
    // Per atom: variables in no other remaining atom, and shared ones.
    let mut singles: Vec<usize> = atom_vars
        .iter()
        .map(|vs| vs.iter().filter(|v| holders[v].len() == 1).count())
        .collect();
    let mut shared: Vec<usize> = atom_vars
        .iter()
        .zip(&singles)
        .map(|(vs, s)| vs.len() - s)
        .collect();

    let mut alive = vec![true; m];
    let mut order = Vec::with_capacity(m);
    let mut candidates: Vec<usize> = Vec::new();
    for _ in 0..m {
        let mut best = (0, Reverse(0));
        candidates.clear();
        for j in (0..m).filter(|&j| alive[j]) {
            let score = (singles[j], Reverse(shared[j]));
            if candidates.is_empty() || score > best {
                best = score;
                candidates.clear();
            }
            if score == best {
                candidates.push(j);
            }
        }
        let chosen = candidates[rng.random_range(0..candidates.len())];
        alive[chosen] = false;
        order.push(chosen);
        for v in &atom_vars[chosen] {
            let remaining = holders.get_mut(v).expect("every variable has holders");
            remaining.retain(|&j| j != chosen);
            if let [last] = remaining[..] {
                singles[last] += 1;
                shared[last] -= 1;
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::test_support::{k4, pentagon, pipeline_rows, triangle_free_pair};
    use crate::methods::Method;
    use ppr_query::{Atom, Vars};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    /// The direct implementation the incremental one replaced: re-scores
    /// every remaining atom against every other one on each pick.
    fn model_greedy_order<R: Rng + ?Sized>(query: &ConjunctiveQuery, rng: &mut R) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..query.num_atoms()).collect();
        let mut order = Vec::new();
        while !remaining.is_empty() {
            let score = |idx: usize| {
                let (mut singles, mut shared) = (0usize, 0usize);
                for v in query.atoms[idx].vars() {
                    let elsewhere = remaining
                        .iter()
                        .any(|&j| j != idx && query.atoms[j].mentions(v));
                    if elsewhere {
                        shared += 1;
                    } else {
                        singles += 1;
                    }
                }
                (singles, Reverse(shared))
            };
            let best = remaining.iter().map(|&i| score(i)).max().unwrap();
            let candidates: Vec<usize> = remaining
                .iter()
                .copied()
                .filter(|&i| score(i) == best)
                .collect();
            let chosen = candidates[rng.random_range(0..candidates.len())];
            remaining.retain(|&j| j != chosen);
            order.push(chosen);
        }
        order
    }

    /// Counts the 64-bit draws taken from the wrapped generator.
    struct Counting(StdRng, usize);

    impl Rng for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    /// A query over `atoms`' argument lists (variables `x0..`).
    fn query_of(atoms: &[Vec<u32>]) -> ConjunctiveQuery {
        let mut vars = Vars::new();
        let atoms = atoms
            .iter()
            .map(|args| {
                let args = args.iter().map(|i| vars.intern(&format!("x{i}"))).collect();
                Atom::new("r", args)
            })
            .collect();
        ConjunctiveQuery::new(atoms, Vec::new(), vars, true)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Same permutation and same number of random draws as the model.
        #[test]
        fn matches_the_direct_implementation(
            atoms in prop::collection::vec(prop::collection::vec(0u32..8, 1..4), 1..14),
            seed in 0u64..1_000,
        ) {
            let q = query_of(&atoms);
            let mut fast = Counting(StdRng::seed_from_u64(seed), 0);
            let mut model = Counting(StdRng::seed_from_u64(seed), 0);
            prop_assert_eq!(greedy_order(&q, &mut fast), model_greedy_order(&q, &mut model));
            prop_assert_eq!(fast.1, model.1);
        }
    }

    #[test]
    fn orders_a_long_chain_quickly() {
        // 5 000 atoms r(x_i, x_{i+1}): cubic re-scoring took minutes here.
        let chain: Vec<Vec<u32>> = (0..5_000).map(|i| vec![i, i + 1]).collect();
        let q = query_of(&chain);
        let started = std::time::Instant::now();
        let order = greedy_order(&q, &mut rng());
        assert_eq!(order.len(), 5_000);
        assert!(started.elapsed().as_secs() < 10, "{:?}", started.elapsed());
    }

    #[test]
    fn greedy_order_is_a_permutation() {
        let (q, _) = pentagon();
        let mut order = greedy_order(&q, &mut rng());
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn greedy_prefers_immediately_dead_variables() {
        // Star r(c, l1), r(c, l2) with private leaves, plus r(x, y) whose
        // two variables are both private: it goes first (2 dead vars vs 1).
        let q = query_of(&[vec![0, 1], vec![0, 2], vec![3, 4]]);
        let order = greedy_order(&q, &mut rng());
        assert_eq!(order[0], 2, "the all-private atom goes first");
    }

    #[test]
    fn agrees_with_straightforward() {
        for (q, db) in [pentagon(), k4(), triangle_free_pair()] {
            let a = pipeline_rows(Method::Reordering, &q, &db);
            let b = pipeline_rows(Method::Straightforward, &q, &db);
            assert!(a.set_eq(&b), "{q}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let (q, _) = pentagon();
        let a = greedy_order(&q, &mut StdRng::seed_from_u64(5));
        let b = greedy_order(&q, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
