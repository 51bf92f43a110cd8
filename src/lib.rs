#![warn(missing_docs)]

//! **projection-pushing** — a reproduction of *Projection Pushing
//! Revisited* (McMahan, Pan, Porter, Vardi; EDBT 2004).
//!
//! The paper studies structural optimization of project-join (conjunctive)
//! queries with many relations over tiny databases: projection pushing,
//! greedy join reordering, and bucket elimination yield exponential
//! execution-time improvements over what a cost-based SQL planner
//! produces, and the achievable intermediate-result arity is characterized
//! exactly by the treewidth of the query's join graph (join width =
//! treewidth + 1; induced width = treewidth).
//!
//! This crate re-exports the workspace and a prelude. One evaluation is
//! a plan from [`core::build_plan`] run by [`relalg::exec::execute`]:
//!
//! ```
//! use projection_pushing::prelude::*;
//! use projection_pushing::relalg::exec;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A 5-cycle is 3-colorable…
//! let pentagon = graph::families::cycle(5);
//! let mut rng = StdRng::seed_from_u64(0);
//! let (q, db) = color_query(&pentagon, &ColorQueryOptions::boolean(), &mut rng);
//! let method = Method::BucketElimination(OrderHeuristic::Mcs);
//! let plan = build_plan(method, &q, &db, &mut rng);
//! let (rows, stats) = exec::execute(&plan, &Budget::unlimited()).unwrap();
//! assert!(!rows.is_empty());
//! assert!(stats.tuples_flowed > 0);
//! // …and a budget the plan cannot meet is an error, never a truncated
//! // result.
//! assert!(exec::execute(&plan, &Budget::tuples(1)).is_err());
//! ```
//!
//! For long-lived query serving — a multi-database [`service::Catalog`]
//! with versioned result caching, a fingerprint-keyed plan cache,
//! admission control, and a TCP line protocol (`ppr serve` / `ppr
//! client`) — see the [`service`] crate.

pub use ppr_core as core;
pub use ppr_costplanner as costplanner;
pub use ppr_durability as durability;
pub use ppr_graph as graph;
pub use ppr_obs as obs;
pub use ppr_query as query;
pub use ppr_relalg as relalg;
pub use ppr_service as service;
pub use ppr_sql as sql;
pub use ppr_workload as workload;

pub use ppr_core::methods::{Method, OrderHeuristic};

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::{graph, Method, OrderHeuristic};
    pub use ppr_core::methods::{build_plan, emit_sql};
    pub use ppr_query::{Atom, ConjunctiveQuery, Database, Vars};
    pub use ppr_relalg::{Budget, Plan};
    pub use ppr_service::{Catalog, Client, Engine, EngineConfig, Request, Server, ServiceError};
    pub use ppr_workload::{color_query, ColorQueryOptions, InstanceSpec, QueryShape};
}

/// Compiles and runs every Rust snippet in README.md as a doctest of
/// this crate, so the README cannot drift from the API it shows.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct Readme;
