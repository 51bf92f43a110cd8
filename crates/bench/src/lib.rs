#![warn(missing_docs)]

//! Benchmark harness for regenerating the paper's tables and figures.
//!
//! [`harness`] runs (method × instance × seed) grids with budgets and
//! reports medians, the way the paper reports "median running times"; the
//! `experiments` binary drives one sweep per figure and prints
//! logscale-ready TSV, plus the design-choice ablations of DESIGN.md §5.

pub mod durability;
pub mod figures;
pub mod harness;
pub mod plot;

pub use harness::{run_method, MethodOutcome, RunStatus};
