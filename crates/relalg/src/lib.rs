#![warn(missing_docs)]

//! In-memory relational algebra substrate for the *Projection Pushing
//! Revisited* reproduction.
//!
//! This crate plays the role PostgreSQL played in the paper's experiments:
//! it stores small relations in memory and evaluates project-join plans
//! ([`plan::Plan`]) with hash-join pipelines:
//!
//! * [`exec`] — the one executor entry point. It runs the **push-based
//!   streaming** executor of [`pipelined`]: chains of joins stream tuples
//!   without materializing them (like PostgreSQL's hash-join pipeline),
//!   equality joins probe lazily-built per-column secondary indexes
//!   ([`index`]) cached on the shared snapshot, and
//!   [`plan::Plan::ProjectDistinct`] nodes (the `SELECT DISTINCT` subquery
//!   boundaries of the paper) materialize and de-duplicate their input.
//!   Boundaries are flat row buffers, and one grouping table (the
//!   crate-private `rows` module) builds both the per-query hash joins
//!   and the cached column indexes.
//! * The textbook materialized operators (hash natural join,
//!   project-distinct, bind) are test support only: the tests' flow model
//!   of the executor evaluates plans with them. They key rows in plain hash
//!   maps and share no code with the executor's tables, so the flow model
//!   is an independent reference.
//!
//! Execution is instrumented ([`stats::ExecStats`]) and budgeted
//! ([`budget::Budget`]): runs that would exceed a tuple or wall-clock budget
//! abort with [`error::RelalgError::BudgetExceeded`], which the experiment
//! harness reports as a timeout — exactly how the paper reports methods that
//! "time out" on hard instances.

pub mod budget;
pub mod csv;
pub mod error;
pub mod exec;
#[cfg(test)]
mod flow_model;
pub mod index;
#[cfg(test)]
mod ops;
pub mod pipelined;
pub mod plan;
pub mod relation;
mod rows;
pub mod schema;
pub mod stats;
pub mod value;

pub use budget::Budget;
pub use error::RelalgError;
pub use pipelined::streaming_shape;
pub use plan::Plan;
pub use relation::Relation;
pub use schema::{AttrId, Schema};
pub use stats::{ExecDigest, ExecStats};
pub use value::Value;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RelalgError>;
