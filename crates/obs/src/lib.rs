//! Observability primitives for the ppr serving stack.
//!
//! The paper's whole argument rests on measuring *where time goes*
//! (compile vs. execution, Fig. 2; intermediate-result growth under each
//! formulation). This crate gives the serving stack the same discipline
//! at request granularity:
//!
//! - [`metrics`] — a lock-free registry of atomic [`Counter`]s,
//!   [`Gauge`]s, and base-2 log-bucketed [`Histogram`]s with
//!   p50/p95/p99 extraction. Handles are `Arc`s over plain atomics, so
//!   the hot path never takes a lock; only registration (cold) does.
//! - [`trace`] — the per-request span taxonomy
//!   (queue-wait → parse → fingerprint → cache-lookup → plan → exec)
//!   and the fixed-size [`TraceSpans`] record engine workers fill in.
//! - [`slowlog`] — a fixed-capacity worst-N-by-latency log of requests
//!   with their span breakdown, queryable at runtime.
//! - [`profile`] — operator- and pass-level profiling records: the
//!   per-request [`OpProfile`] tree the executor fills in under
//!   [`ProfileMode::On`], and the [`PassSpan`]s the planner records, both shipped by the `explain` verb.
//! - [`log`] — a tiny leveled logger gated by the `PPR_LOG` env var
//!   (`error|warn|info|debug|off`, default `warn`), for diagnostics that
//!   must never pollute CLI stdout.
//! - [`expose`] — Prometheus-style text rendering plus a minimal
//!   HTTP/1.1 endpoint ([`MetricsServer`]) for `ppr serve
//!   --metrics-addr`.
//!
//! Everything here is `std`-only and shared via `Arc`: one [`Registry`]
//! per engine, one handle clone per worker.

#![warn(missing_docs)]

pub mod expose;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod trace;

pub use expose::{MetricsServer, Routes};
pub use log::Level;
pub use metrics::{Counter, Gauge, HistSnapshot, Histogram, Quantiles, Registry};
pub use profile::{OpKind, OpNode, OpProfile, PassSpan, ProfileMode, OP_KINDS};
pub use slowlog::{SlowEntry, SlowLog};
pub use trace::{Phase, TraceSpans, PHASES};
