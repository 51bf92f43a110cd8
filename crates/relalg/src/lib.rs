#![warn(missing_docs)]

//! In-memory relational algebra substrate for the *Projection Pushing
//! Revisited* reproduction.
//!
//! This crate plays the role PostgreSQL played in the paper's experiments:
//! it stores small relations in memory and evaluates project-join plans with
//! hash joins. Three evaluation styles are provided (selected by
//! [`exec::ExecMode`]), mirroring and then improving on how PostgreSQL
//! executes the paper's generated SQL:
//!
//! * [`pipelined`] — the default **push-based streaming** executor: scans
//!   stream straight off the base relations and equality joins probe
//!   lazily-built per-column secondary indexes ([`index`]) cached on the
//!   shared snapshot, so repeated queries skip per-query bind copies and
//!   hash builds entirely.
//! * [`exec::ExecMode::Pipelined`] — the classic hash-join pipeline.
//!   Chains of joins stream tuples without materializing them (like
//!   PostgreSQL's hash-join pipeline), while
//!   [`plan::Plan::ProjectDistinct`] nodes (the `SELECT DISTINCT` subquery
//!   boundaries of the paper) materialize and de-duplicate their input.
//!   Kept as the streaming executor's differential-testing oracle: both
//!   produce byte-identical results.
//! * [`ops`] — fully materialized operators (natural join, projection,
//!   selection, semijoin, union, difference, rename) used for testing,
//!   ablations ([`exec::ExecMode::Materialized`]), and as general building
//!   blocks.
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
pub mod index;
pub mod key;
pub mod ops;
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
