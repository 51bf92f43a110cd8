#![warn(missing_docs)]

//! Graph substrate for the *Projection Pushing Revisited* reproduction.
//!
//! Provides the undirected graphs the workloads are generated from and the
//! structural machinery the paper's theory rests on:
//!
//! * [`graph::Graph`] — simple undirected graphs.
//! * [`generate`] — uniform random G(n, m) instances (the paper's density
//!   and order scaling experiments).
//! * [`families`] — the structured families of Figure 1: augmented paths,
//!   ladders, augmented ladders, and augmented circular ladders.
//! * [`ordering`] — elimination orderings: maximum-cardinality search (the
//!   paper's bucket order), min-degree, and min-fill, plus the induced
//!   width of an ordering.
//! * [`decomposition`] — tree decompositions with validation and width.
//! * [`treewidth`] — exact treewidth by branch-and-bound for small graphs,
//!   and heuristic upper bounds for large ones.

pub mod decomposition;
pub mod families;
pub mod generate;
pub mod graph;
pub mod ordering;
pub mod treewidth;

pub use decomposition::TreeDecomposition;
pub use graph::Graph;
pub use ordering::EliminationOrder;
