//! The connection layer: a single-threaded epoll loop carrying every
//! connection, sized for C10K on one core.
//!
//! Two OS threads per peer stop scaling past a few hundred clients —
//! scheduler, stacks and context switches dominate the serving path — so
//! all socket I/O happens on one thread and OS thread count stays
//! O(engine workers). Linux only: there is no portable fallback, and
//! [`crate::server::ServerBuilder::start`] refuses to start elsewhere.
//!
//! * `sys` (private) — hand-rolled `epoll`/`eventfd` bindings.
//! * `timer` (private) — a hashed timer wheel driving the
//!   idle-connection (slow-loris) timeout.
//! * `event_loop` (private) — the loop itself: nonblocking accept,
//!   per-connection read/write buffers with incremental newline framing
//!   ([`crate::protocol::LineFramer`]), dispatch into the engine's worker
//!   pool, and a completion queue drained through an eventfd doorbell.
//!
//! **Backpressure.** A full in-flight window deregisters read interest —
//! the unread socket stalls the peer's writes in TCP — and never
//! synthesizes `Overloaded`. On the write side, a slow consumer's replies
//! queue in a bounded per-connection output buffer; overflow closes the
//! connection with the typed [`CloseReason::OutbufOverflow`].

#[cfg(target_os = "linux")]
pub(crate) mod event_loop;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
pub(crate) mod timer;

use std::sync::{Arc, Mutex};

use ppr_obs::{Counter, Gauge, Registry};

/// The soft `RLIMIT_NOFILE` cap — how many fds this process may hold.
/// The C10K test scales its connection count to it.
/// `None` where the limit cannot be read (non-Linux builds).
pub fn nofile_limit() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        sys::nofile_limit()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Why the server closed a connection — the typed vocabulary behind the
/// connection-close counters and log lines. Every close increments
/// exactly one [`NetMetrics`] counter keyed by this reason.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed (or half-closed) the connection.
    PeerClosed,
    /// A protocol violation that cannot be answered in-band (an
    /// over-long line, for example).
    Protocol(String),
    /// The idle timeout fired: no bytes and no in-flight work for the
    /// configured window (the slow-loris guard).
    IdleTimeout,
    /// The bounded per-connection output buffer overflowed: the peer
    /// stopped reading while completions kept arriving.
    OutbufOverflow {
        /// Bytes queued when the limit tripped.
        buffered: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A transport error on read or write.
    Io(String),
    /// Server shutdown.
    Shutdown,
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloseReason::PeerClosed => write!(f, "peer closed"),
            CloseReason::Protocol(m) => write!(f, "protocol violation: {m}"),
            CloseReason::IdleTimeout => write!(f, "idle timeout"),
            CloseReason::OutbufOverflow { buffered, limit } => {
                write!(
                    f,
                    "output buffer overflow ({buffered} bytes, limit {limit})"
                )
            }
            CloseReason::Io(m) => write!(f, "transport error: {m}"),
            CloseReason::Shutdown => write!(f, "server shutdown"),
        }
    }
}

/// Connection-layer counters, rendered after the engine's exposition on
/// the `/metrics` endpoint.
pub struct NetMetrics {
    registry: Arc<Registry>,
    /// `ppr_connections_open` — currently open connections.
    pub connections_open: Arc<Gauge>,
    /// `ppr_connections_accepted_total` — connections ever accepted.
    pub connections_accepted: Arc<Counter>,
    /// `ppr_accept_errors_total` — failed `accept` calls (all causes).
    pub accept_errors: Arc<Counter>,
    /// `ppr_accept_backoffs_total` — accepts paused for fd pressure
    /// (`EMFILE`/`ENFILE`).
    pub accept_backoffs: Arc<Counter>,
    /// `ppr_idle_timeout_closes_total` — connections closed by the
    /// slow-loris guard.
    pub idle_closes: Arc<Counter>,
    /// `ppr_outbuf_overflow_closes_total` — connections closed for
    /// overflowing the bounded output buffer.
    pub outbuf_closes: Arc<Counter>,
    /// The most recent accept error, for the `/slowlog` operator note.
    last_accept_error: Mutex<Option<String>>,
}

impl NetMetrics {
    /// A fresh registry with every connection-layer series registered.
    pub fn new() -> Arc<NetMetrics> {
        let registry = Arc::new(Registry::new());
        Arc::new(NetMetrics {
            connections_open: registry.gauge(
                "ppr_connections_open",
                "Open client connections on the query port.",
            ),
            connections_accepted: registry.counter(
                "ppr_connections_accepted_total",
                "Client connections accepted since start.",
            ),
            accept_errors: registry.counter(
                "ppr_accept_errors_total",
                "Failed accept(2) calls, any cause.",
            ),
            accept_backoffs: registry.counter(
                "ppr_accept_backoffs_total",
                "Accept pauses due to fd exhaustion (EMFILE/ENFILE).",
            ),
            idle_closes: registry.counter(
                "ppr_idle_timeout_closes_total",
                "Connections closed by the idle (slow-loris) timeout.",
            ),
            outbuf_closes: registry.counter(
                "ppr_outbuf_overflow_closes_total",
                "Connections closed for overflowing the bounded output buffer.",
            ),
            last_accept_error: Mutex::new(None),
            registry,
        })
    }

    /// Prometheus text exposition of the connection-layer series.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Records a failed accept: counter, structured log line, and the
    /// operator note `/slowlog` serves — never a silent sleep-retry.
    pub fn note_accept_error(&self, error: &std::io::Error, fd_pressure: bool) {
        self.accept_errors.inc();
        if fd_pressure {
            self.accept_backoffs.inc();
        }
        let note = format!(
            "accept error{}: {error}",
            if fd_pressure {
                " (fd pressure, backing off)"
            } else {
                ""
            }
        );
        ppr_obs::ppr_warn!("{note}");
        *self.last_accept_error.lock().expect("accept-error note") = Some(note);
    }

    /// The operator note appended to the `/slowlog` page: accept-error
    /// totals plus the most recent failure, or `None` if accepts have
    /// never failed.
    pub fn accept_note(&self) -> Option<String> {
        let errors = self.accept_errors.get();
        if errors == 0 {
            return None;
        }
        let last = self
            .last_accept_error
            .lock()
            .expect("accept-error note")
            .clone()
            .unwrap_or_default();
        Some(format!(
            "note: {errors} accept error(s), {} fd-pressure backoff(s); last: {last}",
            self.accept_backoffs.get(),
        ))
    }

    /// Bumps the close counter matching `reason`.
    pub(crate) fn record_close(&self, reason: &CloseReason) {
        match reason {
            CloseReason::IdleTimeout => self.idle_closes.inc(),
            CloseReason::OutbufOverflow { .. } => self.outbuf_closes.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_note_tracks_errors_and_renders() {
        let m = NetMetrics::new();
        assert!(m.accept_note().is_none(), "no errors, no note");
        m.note_accept_error(
            &std::io::Error::from_raw_os_error(24), // EMFILE
            true,
        );
        let note = m.accept_note().expect("note after an error");
        assert!(note.contains("1 accept error(s)"), "{note}");
        assert!(note.contains("1 fd-pressure backoff(s)"), "{note}");
        let text = m.render_prometheus();
        assert!(text.contains("ppr_accept_errors_total 1"), "{text}");
        assert!(text.contains("ppr_accept_backoffs_total 1"), "{text}");
        assert!(text.contains("ppr_connections_open 0"), "{text}");
    }

    #[test]
    fn close_reasons_map_to_their_counters() {
        let m = NetMetrics::new();
        m.record_close(&CloseReason::IdleTimeout);
        m.record_close(&CloseReason::OutbufOverflow {
            buffered: 9,
            limit: 4,
        });
        m.record_close(&CloseReason::PeerClosed);
        assert_eq!(m.idle_closes.get(), 1);
        assert_eq!(m.outbuf_closes.get(), 1);
        let shown = CloseReason::OutbufOverflow {
            buffered: 9,
            limit: 4,
        }
        .to_string();
        assert!(shown.contains("9 bytes"), "{shown}");
    }
}
