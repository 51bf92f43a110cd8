//! Join-expression trees (paper §5).
//!
//! A join-expression tree of a query `Q` is a rooted tree whose leaves are
//! the atoms of `Q`. Labels are determined by the structure:
//!
//! * a leaf's **working label** `L_w` is its atom's variable set;
//! * an interior node's working label is the union of its children's
//!   projected labels;
//! * a node's **projected label** `L_p ⊆ L_w` keeps the attributes that are
//!   still needed *outside* its subtree — those occurring in an atom
//!   outside the subtree or in the target schema `S_Q`.
//!
//! Joins are evaluated bottom-up with projection applied as early as the
//! structure allows; the tree's **width** is `max |L_w|`, and the *join
//! width* of `Q` is the minimum width over all of its join-expression
//! trees. Theorem 1: the join width equals `tw(join graph) + 1`.

use rustc_hash::FxHashMap;

use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{AttrId, Plan};

/// One node of a join-expression tree.
#[derive(Debug, Clone)]
pub struct JetNode {
    /// Children node indices (empty for leaves).
    pub children: Vec<usize>,
    /// For leaves, the index of the atom in the query.
    pub atom: Option<usize>,
    /// Working label `L_w`.
    pub working: Vec<AttrId>,
    /// Projected label `L_p`.
    pub projected: Vec<AttrId>,
}

/// A join-expression tree over a query. Nodes are stored in a vector; the
/// labels are computed from the structure at construction time.
#[derive(Debug, Clone)]
pub struct Jet {
    nodes: Vec<JetNode>,
    root: usize,
}

/// Structure description used to build a [`Jet`]: children lists per node
/// and the leaf → atom assignment.
#[derive(Debug, Clone)]
pub struct JetStructure {
    /// `children[v]` lists the children of node `v`.
    pub children: Vec<Vec<usize>>,
    /// `atom[v]` is `Some(j)` when node `v` is the leaf for atom `j`.
    pub atom: Vec<Option<usize>>,
    /// Root node index.
    pub root: usize,
}

impl Jet {
    /// Builds the tree and computes labels. Panics unless every atom is
    /// assigned to exactly one leaf, leaves carry atoms, interior nodes
    /// have children, and the structure is a tree rooted at `root`.
    pub fn new(query: &ConjunctiveQuery, structure: JetStructure) -> Self {
        let n = structure.children.len();
        assert_eq!(structure.atom.len(), n);
        assert!(structure.root < n);
        // Tree checks: every non-root node has exactly one parent.
        let mut parent = vec![usize::MAX; n];
        for (v, ch) in structure.children.iter().enumerate() {
            for &c in ch {
                assert!(c < n && parent[c] == usize::MAX, "node {c} has two parents");
                assert!(c != structure.root, "root cannot be a child");
                parent[c] = v;
            }
        }
        let orphan_count = (0..n)
            .filter(|&v| v != structure.root && parent[v] == usize::MAX)
            .count();
        assert_eq!(orphan_count, 0, "structure is a forest, not a tree");
        // Atom assignment checks.
        let mut seen_atoms = vec![false; query.num_atoms()];
        for (v, a) in structure.atom.iter().enumerate() {
            match a {
                Some(j) => {
                    assert!(
                        structure.children[v].is_empty(),
                        "node {v} carries an atom but has children"
                    );
                    assert!(!seen_atoms[*j], "atom {j} assigned twice");
                    seen_atoms[*j] = true;
                }
                None => assert!(
                    !structure.children[v].is_empty(),
                    "leaf {v} carries no atom"
                ),
            }
        }
        assert!(
            seen_atoms.iter().all(|&s| s),
            "every atom must be assigned to a leaf"
        );

        // An attribute is needed above a subtree iff it is free or occurs
        // in an atom outside the subtree. A subtree's leaves are contiguous
        // in post-order, so with leaves ranked in that order, "occurs
        // outside" means the attribute's first or last leaf rank falls
        // outside the subtree's leaf interval: one span per attribute
        // instead of an occurrence count per node.
        let order = post_order(&structure.children, structure.root);
        let mut nodes: Vec<JetNode> = (0..n)
            .map(|v| JetNode {
                children: Vec::new(),
                atom: structure.atom[v],
                working: Vec::new(),
                projected: Vec::new(),
            })
            .collect();
        let mut span: FxHashMap<AttrId, (usize, usize)> = FxHashMap::default();
        let mut interval = vec![(usize::MAX, 0); n];
        let leaves = order.iter().filter_map(|&v| Some((v, structure.atom[v]?)));
        for (rank, (v, j)) in leaves.enumerate() {
            nodes[v].working = query.atoms[j].vars();
            for &a in &nodes[v].working {
                span.entry(a).or_insert((rank, rank)).1 = rank;
            }
            interval[v] = (rank, rank);
        }
        for f in &query.free {
            if let Some(s) = span.get_mut(f) {
                s.1 = usize::MAX; // free: needed above every subtree
            }
        }

        // Bottom-up label computation over the post-order.
        for &v in &order {
            if structure.atom[v].is_none() {
                let mut working: Vec<AttrId> = Vec::new();
                for &c in &structure.children[v] {
                    for &a in &nodes[c].projected {
                        if !working.contains(&a) {
                            working.push(a);
                        }
                    }
                    interval[v].0 = interval[v].0.min(interval[c].0);
                    interval[v].1 = interval[v].1.max(interval[c].1);
                }
                nodes[v].working = working;
            }
            // Projected label: attributes of the working label still
            // needed outside the subtree. The root projects exactly the
            // target schema, in the query's declared order.
            if v == structure.root {
                for f in &query.free {
                    assert!(
                        nodes[v].working.contains(f),
                        "free variable {f} did not reach the root's working label"
                    );
                }
                nodes[v].projected = query.free.clone();
            } else {
                let (lo, hi) = interval[v];
                nodes[v].projected = nodes[v]
                    .working
                    .iter()
                    .copied()
                    .filter(|a| {
                        let (first, last) = span[a];
                        first < lo || last > hi
                    })
                    .collect();
            }
        }
        for (node, children) in nodes.iter_mut().zip(structure.children) {
            node.children = children;
        }
        Jet {
            nodes,
            root: structure.root,
        }
    }

    /// The nodes.
    pub fn nodes(&self) -> &[JetNode] {
        &self.nodes
    }

    /// Root node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The width `max_v |L_w(v)|`.
    pub fn width(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.working.len())
            .max()
            .unwrap_or(0)
    }

    /// Converts the tree into an executable [`Plan`]: each interior node
    /// joins its children left to right and projects (with dedup) onto its
    /// projected label; the root projects onto the query's free variables.
    pub fn to_plan(&self, query: &ConjunctiveQuery, db: &Database) -> Plan {
        self.node_plan(self.root, query, db)
    }

    fn node_plan(&self, v: usize, query: &ConjunctiveQuery, db: &Database) -> Plan {
        let node = &self.nodes[v];
        if let Some(j) = node.atom {
            let atom = &query.atoms[j];
            return Plan::scan(db.expect(&atom.relation), atom.args.clone());
        }
        let mut plans = node.children.iter().map(|&c| self.node_plan(c, query, db));
        let mut plan = plans.next().expect("interior node has children");
        for p in plans {
            plan = plan.join(p);
        }
        // Materialize only when the projection actually drops attributes
        // (the paper creates a subquery only when a variable dies); the
        // root always projects, fixing the output column order.
        if v == self.root || node.projected.len() < node.working.len() {
            plan = plan.project(node.projected.clone());
        }
        plan
    }

    /// The left-deep "caterpillar" tree joining atoms in listing order —
    /// the join-expression tree of the straightforward method.
    pub fn left_deep(query: &ConjunctiveQuery) -> Jet {
        let m = query.num_atoms();
        assert!(m >= 1);
        if m == 1 {
            // Single leaf under a root.
            return Jet::new(
                query,
                JetStructure {
                    children: vec![vec![1], vec![]],
                    atom: vec![None, Some(0)],
                    root: 0,
                },
            );
        }
        // Interior nodes 0..m-1 (0 is root), leaves m..2m-1 for atoms.
        // Interior node i joins interior node i+1 (or the two deepest
        // leaves) with leaf for atom (m-1-i).
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); 2 * m - 1];
        let mut atom: Vec<Option<usize>> = vec![None; 2 * m - 1];
        for j in 0..m {
            atom[m - 1 + j] = Some(j);
        }
        // Interior node i (0-based, root = 0) has children: [next interior
        // or deepest leaf, leaf of atom m-1-i].
        #[allow(clippy::needless_range_loop)] // index arithmetic across two halves
        for i in 0..m - 1 {
            let deeper: usize = if i + 1 < m - 1 {
                i + 1
            } else {
                m - 1 // leaf of atom 0
            };
            let leaf = m - 1 + (m - 1 - i);
            children[i] = vec![deeper, leaf];
        }
        Jet::new(
            query,
            JetStructure {
                children,
                atom,
                root: 0,
            },
        )
    }
}

/// Post-order traversal of a children-list tree.
fn post_order(children: &[Vec<usize>], root: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(children.len());
    let mut stack = vec![(root, false)];
    while let Some((v, expanded)) = stack.pop() {
        if expanded {
            out.push(v);
        } else {
            stack.push((v, true));
            for &c in &children[v] {
                stack.push((c, false));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::{Atom, Vars};
    use rustc_hash::FxHashSet;

    /// Path query: π_{v0} edge(v0,v1) ⋈ edge(v1,v2) ⋈ edge(v2,v3).
    fn path_query() -> ConjunctiveQuery {
        let mut vars = Vars::new();
        let v = vars.intern_numbered("v", 4);
        ConjunctiveQuery::new(
            vec![
                Atom::new("edge", vec![v[0], v[1]]),
                Atom::new("edge", vec![v[1], v[2]]),
                Atom::new("edge", vec![v[2], v[3]]),
            ],
            vec![v[0]],
            vars,
            true,
        )
    }

    #[test]
    fn left_deep_structure() {
        let q = path_query();
        let jet = Jet::left_deep(&q);
        assert_eq!(jet.nodes().len(), 5); // 2 interior + 3 leaves
        assert_eq!(jet.width(), 3); // v0 stays live to the root
    }

    #[test]
    fn balanced_tree_labels() {
        let q = path_query();
        // Root joins (atom0 ⋈ atom1) with atom2.
        //   node0 = root, node1 = interior, nodes 2,3,4 = leaves 0,1,2.
        let jet = Jet::new(
            &q,
            JetStructure {
                children: vec![vec![1, 4], vec![2, 3], vec![], vec![], vec![]],
                atom: vec![None, None, Some(0), Some(1), Some(2)],
                root: 0,
            },
        );
        let n1 = &jet.nodes()[1];
        // Interior node joins edge(v0,v1) ⋈ edge(v1,v2): working {v0,v1,v2}.
        assert_eq!(n1.working.len(), 3);
        // v1 dies there (only used inside); v0 is free, v2 needed by atom2.
        let projected: FxHashSet<AttrId> = n1.projected.iter().copied().collect();
        assert_eq!(projected.len(), 2);
        assert!(projected.contains(&AttrId(0)));
        assert!(projected.contains(&AttrId(2)));
        // Root projects exactly the free variables.
        assert_eq!(jet.nodes()[0].projected, vec![AttrId(0)]);
    }

    #[test]
    fn width_of_good_tree_is_smaller() {
        // For the path query with free v0, a right-leaning tree that joins
        // atom2 deepest lets v3 and v2 die early: width 3 → the join graph
        // (a path plus no extra clique) has treewidth 1... but v0 free
        // forces it to stay, width still bounded by 3 for left-deep.
        let q = path_query();
        let left = Jet::left_deep(&q);
        assert!(left.width() <= 3);
    }

    #[test]
    #[should_panic(expected = "every atom")]
    fn missing_atom_rejected() {
        let q = path_query();
        Jet::new(
            &q,
            JetStructure {
                children: vec![vec![1], vec![]],
                atom: vec![None, Some(0)],
                root: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn dag_rejected() {
        let q = path_query();
        Jet::new(
            &q,
            JetStructure {
                children: vec![vec![1, 1], vec![]],
                atom: vec![None, Some(0)],
                root: 0,
            },
        );
    }

    #[test]
    fn single_atom_jet() {
        let mut vars = Vars::new();
        let v = vars.intern_numbered("v", 2);
        let q = ConjunctiveQuery::new(
            vec![Atom::new("edge", vec![v[0], v[1]])],
            vec![v[0]],
            vars,
            true,
        );
        let jet = Jet::left_deep(&q);
        assert_eq!(jet.width(), 2);
        assert_eq!(jet.nodes()[jet.root()].projected, vec![v[0]]);
    }

    #[test]
    fn plan_from_jet_executes() {
        use ppr_relalg::{exec, Budget};
        let q = path_query();
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        let jet = Jet::left_deep(&q);
        let plan = jet.to_plan(&q, &db);
        let (rel, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
        // A path is 3-colorable; all three colors possible for v0.
        assert_eq!(rel.len(), 3);
    }
}
