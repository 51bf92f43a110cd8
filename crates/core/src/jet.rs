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
//!
//! A tree is stored flat: its children lists in compressed sparse row form
//! ([`JetStructure`]) and every node's two labels in one id buffer, so
//! building one allocates a few buffers, not a vector per node.

use ppr_query::{ConjunctiveQuery, Database};
use ppr_relalg::{AttrId, Plan};

/// A join-expression tree over a query: its structure, and the labels
/// computed from it at construction time.
#[derive(Debug, Clone)]
pub struct Jet {
    structure: JetStructure,
    /// Node `v`'s working label is `labels[at[v][0]..at[v][1]]` and its
    /// projected label `labels[at[v][1]..at[v][2]]`.
    at: Vec<[usize; 3]>,
    labels: Vec<AttrId>,
}

/// Structure description used to build a [`Jet`], in compressed sparse row
/// form: node `v`'s children are `children[child_start[v]..child_start[v + 1]]`.
#[derive(Debug, Clone)]
pub struct JetStructure {
    /// Where each node's children start in `children`, plus the end.
    pub child_start: Vec<usize>,
    /// The children of every node, node by node.
    pub children: Vec<usize>,
    /// `atom[v]` is `Some(j)` when node `v` is the leaf for atom `j`.
    pub atom: Vec<Option<usize>>,
    /// Root node index.
    pub root: usize,
}

impl JetStructure {
    fn children(&self, v: usize) -> &[usize] {
        &self.children[self.child_start[v]..self.child_start[v + 1]]
    }
}

impl Jet {
    /// Builds the tree and computes labels. Panics unless every atom is
    /// assigned to exactly one leaf, leaves carry atoms, interior nodes
    /// have children, and the structure is a tree rooted at `root`.
    pub fn new(query: &ConjunctiveQuery, structure: JetStructure) -> Self {
        let n = structure.atom.len();
        assert_eq!(structure.child_start.len(), n + 1);
        assert_eq!(structure.child_start[n], structure.children.len());
        assert!(structure.root < n);
        // An attribute is needed above a subtree iff it is free or occurs
        // in an atom outside the subtree. Both walks below visit the leaves
        // in the same depth-first order, in which every subtree's leaves
        // have consecutive ranks, so "occurs outside" means the attribute's
        // first or last leaf rank falls outside the subtree's: one span per
        // attribute, indexed by its dense id, instead of an occurrence count
        // per node. The first walk ranks the leaves and checks that every
        // node is reached from the root exactly once.
        let args = query.atoms.iter().flat_map(|atom| &atom.args);
        let ids = args.clone().map(|a| a.index() + 1).max().unwrap_or(0);
        let mut span = vec![(usize::MAX, 0); ids];
        let mut reached = vec![false; n];
        let mut stack: Vec<(usize, Option<usize>)> = Vec::with_capacity(n);
        let mut rank = 0;
        stack.push((structure.root, None));
        while let Some((v, _)) = stack.pop() {
            assert!(!reached[v], "node {v} has two parents");
            reached[v] = true;
            if let Some(j) = structure.atom[v] {
                for a in &query.atoms[j].args {
                    let (first, last) = &mut span[a.index()];
                    *first = (*first).min(rank);
                    *last = rank;
                }
                rank += 1;
            }
            stack.extend(structure.children(v).iter().map(|&c| (c, None)));
        }
        assert!(
            reached.iter().all(|&r| r),
            "structure is a forest, not a tree"
        );
        for f in &query.free {
            if let Some((_, last)) = span.get_mut(f.index()) {
                *last = usize::MAX; // free: needed above every subtree
            }
        }
        let mut placed = vec![false; query.num_atoms()];
        for (v, a) in structure.atom.iter().enumerate() {
            let leaf = structure.children(v).is_empty();
            match *a {
                Some(j) => {
                    assert!(leaf, "node {v} carries an atom but has children");
                    assert!(!placed[j], "atom {j} assigned twice");
                    placed[j] = true;
                }
                None => assert!(!leaf, "leaf {v} carries no atom"),
            }
        }
        assert!(
            placed.iter().all(|&p| p),
            "every atom must be assigned to a leaf"
        );

        // The second walk computes the labels bottom-up: a node is pushed
        // again with the rank of its first leaf, and popped, with the
        // ranks of its subtree's leaves `lo..rank`, after its children. The
        // buffer is sized for leaves' labels (at most twice an atom's
        // arity) and for a chain's interior ones; wider labels regrow it.
        let mut at = vec![[0; 3]; n];
        let mut labels = Vec::with_capacity(2 * args.count() + 3 * n);
        rank = 0;
        stack.push((structure.root, None));
        while let Some((v, lo)) = stack.pop() {
            let Some(lo) = lo else {
                stack.push((v, Some(rank)));
                stack.extend(structure.children(v).iter().map(|&c| (c, None)));
                continue;
            };
            let start = labels.len();
            if let Some(j) = structure.atom[v] {
                for &a in &query.atoms[j].args {
                    add(&mut labels, start, a);
                }
                rank += 1;
            }
            for &c in structure.children(v) {
                let [_, from, to] = at[c];
                for i in from..to {
                    let a = labels[i];
                    add(&mut labels, start, a);
                }
            }
            // Projected label: attributes of the working label still
            // needed outside the subtree. The root projects exactly the
            // target schema, in the query's declared order.
            let mid = labels.len();
            if v == structure.root {
                for f in &query.free {
                    assert!(
                        labels[start..mid].contains(f),
                        "free variable {f} did not reach the root's working label"
                    );
                }
                labels.extend_from_slice(&query.free);
            } else {
                for i in start..mid {
                    let (first, last) = span[labels[i].index()];
                    if first < lo || last >= rank {
                        labels.push(labels[i]);
                    }
                }
            }
            at[v] = [start, mid, labels.len()];
        }
        Jet {
            structure,
            at,
            labels,
        }
    }

    /// Number of nodes; they are numbered `0..num_nodes()`.
    pub fn num_nodes(&self) -> usize {
        self.at.len()
    }

    /// Root node index.
    pub fn root(&self) -> usize {
        self.structure.root
    }

    /// Node `v`'s children (empty for leaves).
    pub fn children(&self, v: usize) -> &[usize] {
        self.structure.children(v)
    }

    /// For a leaf, the index of its atom in the query.
    pub fn atom(&self, v: usize) -> Option<usize> {
        self.structure.atom[v]
    }

    /// Node `v`'s working label `L_w`.
    pub fn working(&self, v: usize) -> &[AttrId] {
        let [start, mid, _] = self.at[v];
        &self.labels[start..mid]
    }

    /// Node `v`'s projected label `L_p`.
    pub fn projected(&self, v: usize) -> &[AttrId] {
        let [_, mid, end] = self.at[v];
        &self.labels[mid..end]
    }

    /// The width `max_v |L_w(v)|`.
    pub fn width(&self) -> usize {
        let widths = self.at.iter().map(|[start, mid, _]| mid - start);
        widths.max().unwrap_or(0)
    }

    /// Converts the tree into an executable [`Plan`]: each interior node
    /// joins its children left to right and projects (with dedup) onto its
    /// projected label; the root projects onto the query's free variables.
    pub fn to_plan(&self, query: &ConjunctiveQuery, db: &Database) -> Plan {
        self.node_plan(self.root(), query, db)
    }

    fn node_plan(&self, v: usize, query: &ConjunctiveQuery, db: &Database) -> Plan {
        if let Some(j) = self.atom(v) {
            let atom = &query.atoms[j];
            return Plan::scan(db.expect(&atom.relation), atom.args.clone());
        }
        let mut plans = self
            .children(v)
            .iter()
            .map(|&c| self.node_plan(c, query, db));
        let mut plan = plans.next().expect("interior node has children");
        for p in plans {
            plan = plan.join(p);
        }
        // Materialize only when the projection actually drops attributes
        // (the paper creates a subquery only when a variable dies); the
        // root always projects, fixing the output column order.
        let projected = self.projected(v);
        if v == self.root() || projected.len() < self.working(v).len() {
            plan = plan.project(projected.to_vec());
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
            let structure = JetStructure {
                child_start: vec![0, 1, 1],
                children: vec![1],
                atom: vec![None, Some(0)],
                root: 0,
            };
            return Jet::new(query, structure);
        }
        // Interior nodes 0..m-1 (0 is the root) have two children each,
        // leaves m-1..2m-1 hold atoms 0..m in order. Interior node i joins
        // the next interior node (the deepest joins the leaf of atom 0)
        // with the leaf of atom m-1-i.
        let n = 2 * m - 1;
        let child_start = (0..=n).map(|v| 2 * v.min(m - 1)).collect();
        let mut children = Vec::with_capacity(2 * (m - 1));
        for i in 0..m - 1 {
            children.extend([(i + 1).min(m - 1), 2 * m - 2 - i]);
        }
        let atom = (0..n).map(|v| v.checked_sub(m - 1)).collect();
        let structure = JetStructure {
            child_start,
            children,
            atom,
            root: 0,
        };
        Jet::new(query, structure)
    }
}

/// Appends `a` to the label that starts at `labels[start]`, unless it is
/// there already.
fn add(labels: &mut Vec<AttrId>, start: usize, a: AttrId) {
    if !labels[start..].contains(&a) {
        labels.push(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_query::{Atom, Vars};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Path query: π_{v0} edge(v0,v1) ⋈ … ⋈ edge(v{k-1},v{k}), Boolean in
    /// the paper's SQL emulation (one projected variable).
    fn path(k: usize) -> ConjunctiveQuery {
        let mut vars = Vars::new();
        let v = vars.intern_numbered("v", k + 1);
        let atoms = (0..k)
            .map(|i| Atom::new("edge", vec![v[i], v[i + 1]]))
            .collect();
        ConjunctiveQuery::new(atoms, vec![v[0]], vars, true)
    }

    /// The flat structure of per-node children lists.
    fn structure(lists: &[Vec<usize>], atom: Vec<Option<usize>>, root: usize) -> JetStructure {
        let mut child_start = vec![0];
        child_start.extend(lists.iter().scan(0, |end, list| {
            *end += list.len();
            Some(*end)
        }));
        JetStructure {
            child_start,
            children: lists.concat(),
            atom,
            root,
        }
    }

    #[test]
    fn left_deep_structure() {
        let q = path(3);
        let jet = Jet::left_deep(&q);
        assert_eq!(jet.num_nodes(), 5); // 2 interior + 3 leaves
        assert_eq!(jet.width(), 3); // v0 stays live to the root
    }

    #[test]
    fn balanced_tree_labels() {
        let q = path(3);
        // Root joins (atom0 ⋈ atom1) with atom2.
        //   node0 = root, node1 = interior, nodes 2,3,4 = leaves 0,1,2.
        let lists = [vec![1, 4], vec![2, 3], vec![], vec![], vec![]];
        let atom = vec![None, None, Some(0), Some(1), Some(2)];
        let jet = Jet::new(&q, structure(&lists, atom, 0));
        // Interior node joins edge(v0,v1) ⋈ edge(v1,v2): working {v0,v1,v2}.
        assert_eq!(jet.working(1).len(), 3);
        // v1 dies there (only used inside); v0 is free, v2 needed by atom2.
        assert_eq!(jet.projected(1), [AttrId(0), AttrId(2)]);
        // Root projects exactly the free variables.
        assert_eq!(jet.projected(0), [AttrId(0)]);
    }

    #[test]
    fn width_of_good_tree_is_smaller() {
        // edge(v0,v1) … edge(v3,v4) with v0 projected. Left-deep, v0 rides
        // along while each join adds one variable and the previous one
        // dies: {v0,v1,v2}, {v0,v2,v3}, {v0,v3}, so width 3.
        let q = path(4);
        assert_eq!(Jet::left_deep(&q).width(), 3);
        // Joining atoms 0 and 3 first is a cross product, {v0,v1,v3}; then
        // atom 1 adds v2 while v1 and v3 are still needed: {v0,v1,v2,v3},
        // width 4. Nodes: 0 = root ⋈ atom 2, 1 = node 2 ⋈ atom 1,
        // 2 = atom 0 ⋈ atom 3, leaves 3..7 = atoms 0..4.
        let lists = [
            vec![1, 5],
            vec![2, 4],
            vec![3, 6],
            vec![],
            vec![],
            vec![],
            vec![],
        ];
        let atom = vec![None, None, None, Some(0), Some(1), Some(2), Some(3)];
        let cross = Jet::new(&q, structure(&lists, atom, 0));
        assert_eq!(cross.working(2), [AttrId(0), AttrId(1), AttrId(3)]);
        assert_eq!(cross.width(), 4);
    }

    #[test]
    #[should_panic(expected = "every atom")]
    fn missing_atom_rejected() {
        let q = path(3);
        Jet::new(&q, structure(&[vec![1], vec![]], vec![None, Some(0)], 0));
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn dag_rejected() {
        let q = path(3);
        Jet::new(&q, structure(&[vec![1, 1], vec![]], vec![None, Some(0)], 0));
    }

    #[test]
    fn single_atom_jet() {
        let q = path(1);
        let jet = Jet::left_deep(&q);
        assert_eq!(jet.width(), 2);
        assert_eq!(jet.projected(jet.root()), [AttrId(0)]);
    }

    /// A random tree whose leaves are the `m` atoms: two or three random
    /// subtrees go under a fresh node until one is left (a lone leaf gets
    /// a root above it), then the nodes are renumbered at random. Returns
    /// the children lists, the atoms and the root.
    fn random_tree(m: usize, rng: &mut StdRng) -> (Vec<Vec<usize>>, Vec<Option<usize>>, usize) {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut atom: Vec<Option<usize>> = (0..m).map(Some).collect();
        let mut roots: Vec<usize> = (0..m).collect();
        while roots.len() > 1 || atom[roots[0]].is_some() {
            let take = rng.random_range(2..4usize).min(roots.len());
            let mut group = Vec::new();
            for _ in 0..take {
                group.push(roots.swap_remove(rng.random_range(0..roots.len())));
            }
            roots.push(children.len());
            children.push(group);
            atom.push(None);
        }
        let n = children.len();
        let mut rename: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rename.swap(i, rng.random_range(0..i + 1));
        }
        let mut renamed = vec![Vec::new(); n];
        let mut renamed_atom = vec![None; n];
        for v in 0..n {
            renamed[rename[v]] = children[v].iter().map(|&c| rename[c]).collect();
            renamed_atom[rename[v]] = atom[v];
        }
        (renamed, renamed_atom, rename[roots[0]])
    }

    /// The atoms in `v`'s subtree.
    fn subtree_atoms(lists: &[Vec<usize>], atom: &[Option<usize>], v: usize, out: &mut Vec<usize>) {
        out.extend(atom[v]);
        for &c in &lists[v] {
            subtree_atoms(lists, atom, c, out);
        }
    }

    fn sorted(label: &[AttrId]) -> Vec<AttrId> {
        let mut label = label.to_vec();
        label.sort_unstable();
        label
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every node's labels against §5's definition, computed by brute
        /// force: a leaf works on its atom's variables and an interior node
        /// on the union of its children's projected labels; a node projects
        /// the variables of its working label that are free or occur in an
        /// atom outside its subtree; the root projects exactly `free`.
        #[test]
        fn labels_match_the_definition(
            atoms in prop::collection::vec(prop::collection::vec(0u32..6, 1..4), 1..8),
            free_mask in prop::collection::vec(prop::bool::ANY, 6),
            seed in 0u64..1_000_000,
        ) {
            let mut vars = Vars::new();
            let atoms: Vec<Atom> = atoms
                .iter()
                .map(|args| Atom::new("r", args.iter().map(|i| vars.intern(&format!("x{i}"))).collect()))
                .collect();
            let free = vars.ids().filter(|a| free_mask[a.index()]).collect();
            let q = ConjunctiveQuery::new(atoms, free, vars, false);
            let (lists, atom, root) = random_tree(q.num_atoms(), &mut StdRng::seed_from_u64(seed));
            let jet = Jet::new(&q, structure(&lists, atom.clone(), root));
            prop_assert_eq!(jet.root(), root);
            prop_assert_eq!(jet.num_nodes(), lists.len());
            for v in 0..lists.len() {
                prop_assert_eq!(jet.children(v), &lists[v][..]);
                prop_assert_eq!(jet.atom(v), atom[v]);
                let working: Vec<AttrId> = match atom[v] {
                    Some(j) => q.atoms[j].args.clone(),
                    None => lists[v].iter().flat_map(|&c| jet.projected(c).to_vec()).collect(),
                };
                let mut expected = sorted(&working);
                expected.dedup();
                prop_assert_eq!(sorted(jet.working(v)), expected);
                if v == root {
                    prop_assert_eq!(jet.projected(v), &q.free[..]);
                    continue;
                }
                let mut inside = Vec::new();
                subtree_atoms(&lists, &atom, v, &mut inside);
                let needed = |a: &AttrId| {
                    q.free.contains(a)
                        || (0..q.num_atoms()).any(|j| !inside.contains(&j) && q.atoms[j].mentions(*a))
                };
                let expected: Vec<AttrId> = jet.working(v).iter().copied().filter(needed).collect();
                prop_assert_eq!(sorted(jet.projected(v)), sorted(&expected));
            }
        }
    }

    #[test]
    fn plan_from_jet_executes() {
        use ppr_relalg::{exec, Budget};
        let q = path(3);
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        let jet = Jet::left_deep(&q);
        let plan = jet.to_plan(&q, &db);
        let (rel, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
        // A path is 3-colorable; all three colors possible for v0.
        assert_eq!(rel.len(), 3);
    }
}
