//! Algorithms 1–3 (paper §5): conversions between join-expression trees
//! and tree decompositions of the join graph.
//!
//! * [`jet_to_tree_decomposition`] (Algorithm 1) — drop the projected
//!   labels; the working labels are the bags. A width-`k` tree gives a
//!   width-`k−1` decomposition (Lemma 1).
//! * [`mark_and_sweep`] (Algorithm 2) — simplify a tree decomposition so
//!   that every remaining label is needed to anchor an atom (or the target
//!   schema) or to maintain connectivity between anchors (Lemma 2). Where
//!   the paper deletes emptied nodes together with their edges, we
//!   *contract* them (reconnecting their neighbors) so the result is
//!   always a tree even when an emptied node was interior.
//! * [`tree_decomposition_to_jet`] (Algorithm 3) — root the simplified
//!   decomposition at the target-schema anchor and hang one leaf per atom
//!   under its anchor. A width-`k` decomposition gives a join-expression
//!   tree of width at most `k+1` (Lemma 3).
//!
//! Together: join width = treewidth + 1 (Theorem 1).

use rustc_hash::FxHashSet;

use ppr_graph::TreeDecomposition;
use ppr_query::{ConjunctiveQuery, JoinGraph};

use crate::jet::{Jet, JetStructure};

/// Algorithm 1: the tree decomposition induced by a join-expression tree —
/// nodes and edges are kept, bags are the working labels (as join-graph
/// vertices).
pub fn jet_to_tree_decomposition(jet: &Jet, jg: &JoinGraph) -> TreeDecomposition {
    let nodes = 0..jet.num_nodes();
    let bags = nodes
        .clone()
        .map(|v| jet.working(v).iter().map(|&a| jg.vertex(a)).collect());
    let edges = nodes.flat_map(|v| jet.children(v).iter().map(move |&c| (v, c)));
    TreeDecomposition::new(bags.collect(), edges.collect())
}

/// The result of [`mark_and_sweep`]: the simplified decomposition plus the
/// anchor node of each atom and of the target schema.
#[derive(Debug, Clone)]
pub struct SimplifiedDecomposition {
    /// The swept decomposition (of the same join graph, same width or
    /// less).
    pub decomposition: TreeDecomposition,
    /// `atom_anchor[j]` is the node whose bag contains atom `j`'s clique.
    pub atom_anchor: Vec<usize>,
    /// Node whose bag contains the target schema.
    pub target_anchor: usize,
}

/// Algorithm 2 (Mark-and-Sweep). Panics if some atom's variables (or the
/// target schema) fit in no bag — impossible for a valid decomposition of
/// the join graph, where every clique is contained in a bag.
pub fn mark_and_sweep(
    td: &TreeDecomposition,
    query: &ConjunctiveQuery,
    jg: &JoinGraph,
) -> SimplifiedDecomposition {
    let n = td.bags().len();
    let bag_sets: Vec<FxHashSet<usize>> = td
        .bags()
        .iter()
        .map(|b| b.iter().copied().collect())
        .collect();

    // Step 1: anchor every atom and the target schema, marking their
    // vertices at the anchor.
    let mut marked: Vec<FxHashSet<usize>> = vec![FxHashSet::default(); n];
    let mut anchors: Vec<(usize, FxHashSet<usize>)> = Vec::new();
    let find_anchor = |vertices: &FxHashSet<usize>| -> usize {
        (0..n)
            .find(|&i| vertices.is_subset(&bag_sets[i]))
            .unwrap_or_else(|| panic!("no bag contains clique {vertices:?}"))
    };
    let mut atom_anchor = Vec::with_capacity(query.num_atoms());
    for atom in &query.atoms {
        let verts: FxHashSet<usize> = atom.vars().iter().map(|&a| jg.vertex(a)).collect();
        let i = find_anchor(&verts);
        marked[i].extend(verts.iter().copied());
        anchors.push((i, verts));
        atom_anchor.push(i);
    }
    let target_verts: FxHashSet<usize> = query.free.iter().map(|&a| jg.vertex(a)).collect();
    let target_anchor = find_anchor(&target_verts);
    marked[target_anchor].extend(target_verts.iter().copied());
    anchors.push((target_anchor, target_verts));

    // Tree adjacency and path finding.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in td.edges() {
        adj[a].push(b);
        adj[b].push(a);
    }
    let path = |from: usize, to: usize| -> Vec<usize> {
        // BFS parent pointers (trees are small).
        let mut parent = vec![usize::MAX; n];
        let mut queue = std::collections::VecDeque::from([from]);
        parent[from] = from;
        while let Some(v) = queue.pop_front() {
            if v == to {
                break;
            }
            for &w in &adj[v] {
                if parent[w] == usize::MAX {
                    parent[w] = v;
                    queue.push_back(w);
                }
            }
        }
        let mut p = vec![to];
        let mut cur = to;
        while cur != from {
            cur = parent[cur];
            p.push(cur);
        }
        p
    };

    // Step 2: for every pair of anchors, mark along the connecting path
    // the vertices both anchors marked.
    for (ai, (node_i, verts_i)) in anchors.iter().enumerate() {
        for (node_j, verts_j) in anchors.iter().skip(ai + 1) {
            let common: Vec<usize> = verts_i.intersection(verts_j).copied().collect();
            if common.is_empty() {
                continue;
            }
            for k in path(*node_i, *node_j) {
                for &x in &common {
                    if bag_sets[k].contains(&x) {
                        marked[k].insert(x);
                    }
                }
            }
        }
    }

    // Step 3: sweep. Keep only marked labels; contract empty nodes.
    let mut new_bags: Vec<Vec<usize>> = marked
        .iter()
        .map(|m| {
            let mut b: Vec<usize> = m.iter().copied().collect();
            b.sort_unstable();
            b
        })
        .collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut adj_sets: Vec<FxHashSet<usize>> =
        adj.iter().map(|ns| ns.iter().copied().collect()).collect();
    for k in 0..n {
        if !new_bags[k].is_empty() {
            continue;
        }
        // Contract k: connect its neighbors to one representative.
        alive[k] = false;
        let neighbors: Vec<usize> = adj_sets[k].iter().copied().collect();
        for &m in &neighbors {
            adj_sets[m].remove(&k);
        }
        if let Some((&rep, rest)) = neighbors.split_first() {
            for &m in rest {
                adj_sets[rep].insert(m);
                adj_sets[m].insert(rep);
            }
        }
        adj_sets[k].clear();
    }
    // Compact indices.
    let mut new_index = vec![usize::MAX; n];
    let mut compact_bags = Vec::new();
    for k in 0..n {
        if alive[k] {
            new_index[k] = compact_bags.len();
            compact_bags.push(std::mem::take(&mut new_bags[k]));
        }
    }
    let mut compact_edges = Vec::new();
    for k in 0..n {
        if !alive[k] {
            continue;
        }
        for &m in &adj_sets[k] {
            if alive[m] && k < m {
                compact_edges.push((new_index[k], new_index[m]));
            }
        }
    }
    SimplifiedDecomposition {
        decomposition: TreeDecomposition::new(compact_bags, compact_edges),
        atom_anchor: atom_anchor.into_iter().map(|i| new_index[i]).collect(),
        target_anchor: new_index[target_anchor],
    }
}

/// Algorithm 3: builds a join-expression tree from a tree decomposition.
/// Runs [`mark_and_sweep`] first, roots the simplified decomposition at
/// the target anchor, and hangs a leaf per atom under its anchor. The
/// width of the result is at most `td.width() + 1` (Lemma 3).
pub fn tree_decomposition_to_jet(
    query: &ConjunctiveQuery,
    jg: &JoinGraph,
    td: &TreeDecomposition,
) -> Jet {
    let simplified = mark_and_sweep(td, query, jg);
    let std_ = &simplified.decomposition;
    let n = std_.bags().len();
    // Both directions of every edge, grouped by their first node; the
    // stable sort keeps each node's neighbors in edge order.
    let mut arcs: Vec<(usize, usize)> = std_
        .edges()
        .iter()
        .flat_map(|&(a, b)| [(a, b), (b, a)])
        .collect();
    arcs.sort_by_key(|&(a, _)| a);
    let from = |v: usize| arcs.partition_point(|&(a, _)| a < v);
    // Root the tree at the target anchor: each node's parent is the node
    // it was first reached from.
    let root = simplified.target_anchor;
    let mut parent = vec![usize::MAX; n];
    parent[root] = root;
    let mut stack = vec![root];
    while let Some(v) = stack.pop() {
        for &(_, w) in &arcs[from(v)..from(v + 1)] {
            if parent[w] == usize::MAX {
                parent[w] = v;
                stack.push(w);
            }
        }
    }
    // A node's children are the neighbors it reached, then one leaf per
    // atom anchored at it; the leaf of atom `j` is node `n + j`.
    let reached = arcs.iter().copied().filter(|&(v, w)| parent[w] == v);
    let leaves = simplified.atom_anchor.iter().enumerate();
    let mut tree: Vec<(usize, usize)> = reached.chain(leaves.map(|(j, &v)| (v, n + j))).collect();
    tree.sort_by_key(|&(v, _)| v);
    let nodes = n + simplified.atom_anchor.len();
    let child_start = (0..=nodes)
        .map(|v| tree.partition_point(|&(p, _)| p < v))
        .collect();
    let structure = JetStructure {
        child_start,
        children: tree.into_iter().map(|(_, c)| c).collect(),
        atom: (0..nodes).map(|v| v.checked_sub(n)).collect(),
        root,
    };
    Jet::new(query, structure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jet::Jet;
    use crate::methods::test_support::pentagon;
    use ppr_graph::ordering::mcs_order;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    #[test]
    fn algorithm1_yields_valid_decomposition() {
        let (q, _) = pentagon();
        let jg = JoinGraph::of(&q);
        let jet = Jet::left_deep(&q);
        let td = jet_to_tree_decomposition(&jet, &jg);
        td.validate(&jg.graph).unwrap();
        assert_eq!(td.width(), jet.width() - 1);
    }

    #[test]
    fn algorithm2_shrinks_without_invalidating() {
        let (q, _) = pentagon();
        let jg = JoinGraph::of(&q);
        let order = mcs_order(&jg.graph, &[], &mut rng());
        let td = TreeDecomposition::from_elimination_order(&jg.graph, &order);
        let simplified = mark_and_sweep(&td, &q, &jg);
        simplified.decomposition.validate(&jg.graph).unwrap();
        assert!(simplified.decomposition.width() <= td.width());
        assert_eq!(simplified.atom_anchor.len(), q.num_atoms());
    }

    #[test]
    fn algorithm3_respects_width_bound() {
        let (q, _) = pentagon();
        let jg = JoinGraph::of(&q);
        let order = mcs_order(&jg.graph, &[], &mut rng());
        let td = TreeDecomposition::from_elimination_order(&jg.graph, &order);
        let jet = tree_decomposition_to_jet(&q, &jg, &td);
        assert!(
            jet.width() <= td.width() + 1,
            "{} > {}",
            jet.width(),
            td.width() + 1
        );
    }

    #[test]
    fn roundtrip_preserves_answerability() {
        use ppr_relalg::{exec, Budget};
        let (q, db) = pentagon();
        let jg = JoinGraph::of(&q);
        let order = mcs_order(&jg.graph, &[], &mut rng());
        let td = TreeDecomposition::from_elimination_order(&jg.graph, &order);
        let jet = tree_decomposition_to_jet(&q, &jg, &td);
        let plan = jet.to_plan(&q, &db);
        let (rel, _) = exec::execute(&plan, &Budget::unlimited()).unwrap();
        assert_eq!(rel.len(), 3); // pentagon is 3-colorable, any color for v1
    }

    #[test]
    fn anchors_cover_all_atoms() {
        let (q, _) = pentagon();
        let jg = JoinGraph::of(&q);
        let order = mcs_order(&jg.graph, &[], &mut rng());
        let td = TreeDecomposition::from_elimination_order(&jg.graph, &order);
        let simplified = mark_and_sweep(&td, &q, &jg);
        assert_eq!(simplified.atom_anchor.len(), q.num_atoms());
        let nodes = simplified.decomposition.bags().len();
        assert!(simplified.atom_anchor.iter().all(|&a| a < nodes));
    }
}
