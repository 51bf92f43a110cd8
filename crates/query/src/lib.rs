#![warn(missing_docs)]

//! Conjunctive (project-join) queries.
//!
//! A project-join query is an expression `π_{x_1,…,x_n}(R_1 ⋈ … ⋈ R_m)`
//! (paper §2). This crate provides:
//!
//! * [`vars::Vars`] — an interner mapping variable names to
//!   [`ppr_relalg::AttrId`]s.
//! * [`atom::Atom`] — one relational atom `r(x_{i_1}, …, x_{i_k})`.
//! * [`cq::ConjunctiveQuery`] — the query: atoms plus free (projected)
//!   variables; Boolean queries have no free variables.
//! * [`cq::Database`] — named base relations the query is evaluated over.
//! * [`joingraph`] — the query's *join graph*: attributes as nodes, a
//!   clique per atom, plus a clique over the target schema (paper §5). Its
//!   treewidth characterizes the power of projection pushing + join
//!   reordering (Theorem 1).
//! * [`canonical`] — the Chandra–Merlin canonical database of a query.
//! * [`mod@fingerprint`] — a canonical 128-bit hash invariant under variable
//!   renaming and atom reordering, the plan-cache key of `ppr-service`.
//! * [`scan`] — one scan of a rule's text into borrowed flat arrays, which
//!   [`parse_query`] builds a query from and [`scan::ScannedRule::identify`]
//!   fingerprints directly.

pub mod atom;
pub mod canonical;
pub mod cq;
pub mod fingerprint;
pub mod joingraph;
pub mod parse;
pub mod scan;
pub mod vars;

pub use atom::Atom;
pub use cq::{ConjunctiveQuery, Database};
pub use fingerprint::{
    canonical_var_order, fingerprint, Fingerprint, QueryIdentity, QueryShape, RuleIdentity,
};
pub use joingraph::JoinGraph;
pub use parse::{parse_query, parse_relation};
pub use scan::{scan_rule, ScannedRule};
pub use vars::Vars;
