//! Expected answers computed without `relalg`: a backtracking assignment
//! enumerator straight from the conjunctive-query semantics. The output
//! check compares every reply with this, so a planner or executor bug
//! cannot vouch for itself.

use std::collections::{HashMap, HashSet};

/// One body atom: relation name and the variable index of each argument.
pub type Atom = (String, Vec<usize>);

/// Relation name → its tuple set.
pub type Relations = HashMap<String, HashSet<Vec<u32>>>;

/// The distinct projections onto `free` of every assignment of
/// `0..num_vars` that satisfies all `atoms`, sorted. With `free` empty
/// the result is `[[]]` when the query is satisfiable and `[]` otherwise.
pub fn answers(num_vars: usize, atoms: &[Atom], free: &[usize], rels: &Relations) -> Vec<Vec<u32>> {
    // Free variables first, then always the variable sharing the most
    // atoms with those already placed, so constraints bind early.
    let mut order: Vec<usize> = free.to_vec();
    while order.len() < num_vars {
        let next = (0..num_vars)
            .filter(|v| !order.contains(v))
            .max_by_key(|&v| {
                let ties = atoms
                    .iter()
                    .filter(|(_, args)| args.contains(&v) && args.iter().any(|a| order.contains(a)))
                    .count();
                (ties, std::cmp::Reverse(v))
            })
            .expect("an unplaced variable exists");
        order.push(next);
    }
    // An atom is checked as soon as its last variable (in `order`) is set.
    let position = |var: usize| order.iter().position(|&v| v == var).expect("placed");
    let mut due: Vec<Vec<usize>> = vec![Vec::new(); num_vars];
    for (i, (_, args)) in atoms.iter().enumerate() {
        let last = args.iter().map(|&a| position(a)).max();
        due[last.expect("atom has arguments")].push(i);
    }
    // A variable ranges over the values its first occurrence's column holds.
    let domain: Vec<Vec<u32>> = (0..num_vars)
        .map(|v| {
            let (rel, col) = atoms
                .iter()
                .find_map(|(rel, args)| args.iter().position(|&a| a == v).map(|c| (rel, c)))
                .expect("every variable occurs in an atom");
            let mut values: Vec<u32> = rels[rel].iter().map(|t| t[col]).collect();
            values.sort_unstable();
            values.dedup();
            values
        })
        .collect();

    let mut search = Search {
        atoms,
        rels,
        order: &order,
        due: &due,
        domain: &domain,
        assign: vec![0; num_vars],
        nfree: free.len(),
        out: Vec::new(),
    };
    if search.go(0) && free.is_empty() {
        search.out.push(Vec::new());
    }
    search.out.sort_unstable();
    search.out
}

struct Search<'a> {
    atoms: &'a [Atom],
    rels: &'a Relations,
    order: &'a [usize],
    due: &'a [Vec<usize>],
    domain: &'a [Vec<u32>],
    assign: Vec<u32>,
    nfree: usize,
    out: Vec<Vec<u32>>,
}

impl Search<'_> {
    /// Extends the assignment from position `k`. Below `nfree` it visits
    /// every consistent value (one output row per free assignment that
    /// extends to a full one); past it, it stops at the first witness.
    /// Returns whether a full assignment was found.
    fn go(&mut self, k: usize) -> bool {
        if k == self.order.len() {
            return true;
        }
        let var = self.order[k];
        let mut found = false;
        for i in 0..self.domain[var].len() {
            self.assign[var] = self.domain[var][i];
            let consistent = self.due[k].iter().all(|&a| {
                let (rel, args) = &self.atoms[a];
                let tuple: Vec<u32> = args.iter().map(|&v| self.assign[v]).collect();
                self.rels[rel].contains(&tuple)
            });
            if consistent && self.go(k + 1) {
                found = true;
                if k + 1 == self.nfree {
                    let row = self.order[..self.nfree]
                        .iter()
                        .map(|&v| self.assign[v])
                        .collect();
                    self.out.push(row);
                }
                if k >= self.nfree {
                    return true;
                }
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neq3() -> Relations {
        let mut edge = HashSet::new();
        for a in 1..=3u32 {
            for b in 1..=3u32 {
                if a != b {
                    edge.insert(vec![a, b]);
                }
            }
        }
        HashMap::from([("edge".to_string(), edge)])
    }

    fn edges(pairs: &[(usize, usize)]) -> Vec<Atom> {
        pairs
            .iter()
            .map(|&(u, v)| ("edge".to_string(), vec![u, v]))
            .collect()
    }

    #[test]
    fn boolean_queries_answer_satisfiability() {
        let triangle = edges(&[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(answers(3, &triangle, &[], &neq3()), vec![Vec::<u32>::new()]);
        let k4 = edges(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(answers(4, &k4, &[], &neq3()).is_empty());
    }

    #[test]
    fn projections_are_distinct_and_sorted() {
        // A path a–b–c projected on (c, a): every pair is reachable, equal or not.
        let path = edges(&[(0, 1), (1, 2)]);
        let rows = answers(3, &path, &[2, 0], &neq3());
        assert_eq!(rows.len(), 9);
        assert_eq!(rows.first(), Some(&vec![1, 1]));
        // A triangle forces its corners apart.
        let triangle = edges(&[(0, 1), (1, 2), (2, 0)]);
        let rows = answers(3, &triangle, &[0, 1], &neq3());
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r[0] != r[1]));
    }
}
