//! The TCP front-end: one listening socket, one event loop, one wire
//! protocol.
//!
//! A [`Server`] is built with [`Server::builder`] and carries everything
//! the serving stack needs — the engine (owned or borrowed), an optional
//! durable catalog, the metrics endpoint, and the connection layer: the
//! single-threaded epoll loop in [`crate::net`], which carries every
//! connection so OS thread count stays O(engine workers) no matter how
//! many peers connect. Serving is Linux-only (DESIGN.md, "Serving is
//! Linux-only"); elsewhere [`ServerBuilder::start`] returns
//! [`Unsupported`](std::io::ErrorKind::Unsupported) and the rest of the
//! crate — engine, catalog, caches, client — works embedded.
//!
//! A connection starts in protocol v1: strictly serial, untagged, one
//! reply per request in order. `hello proto=2` upgrades it to v2, where
//! the client may tag requests with `id=` and keep up to [`WINDOW`] of
//! them in flight; the server demuxes tags, groups consecutive tagged
//! `run`s against the same database into one batch submission (one
//! catalog snapshot, one queue lock), and completions flow back in
//! whatever order the engine finishes them. A full window is handled by
//! **not reading the socket** — TCP backpressure — never by
//! synthesizing `Overloaded`; rejection remains the engine's admission
//! decision. See `docs/PROTOCOL.md` for the wire grammar and
//! `docs/ARCHITECTURE.md` for the connection lifecycle.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ppr_durability::RecoveryReport;
use ppr_obs::MetricsServer;
use ppr_query::Database;

use crate::catalog::{Catalog, DbVersion, DEFAULT_DB};
use crate::engine::{Engine, EngineConfig, EngineHandle, Request};
use crate::net::NetMetrics;
use crate::protocol::{self, Ack, Command, HelloAck};
use crate::ServiceError;

/// Upper bound on the per-connection in-flight window for protocol v2:
/// how many tagged requests may be outstanding before the server stops
/// draining the socket. Window-full is backpressure, not an error — the
/// client's writes stall in TCP until completions free slots. The
/// effective window is capped at [`EngineHandle::safe_window`] so a
/// lone well-behaved pipelined client is throttled by backpressure,
/// never shed by admission control.
pub const WINDOW: usize = 128;

/// Cap on simultaneously open client connections: at the cap the
/// listener stops accepting until a connection closes.
pub const MAX_CONNECTIONS: usize = 10_000;

/// Bound on a connection's output buffer: a peer that stops reading
/// while replies accumulate past it is disconnected with
/// [`CloseReason::OutbufOverflow`](crate::net::CloseReason::OutbufOverflow).
pub const OUTBUF_LIMIT: usize = 4 << 20;

/// Fluent construction for [`Server`]:
///
/// ```no_run
/// # use ppr_service::Server;
/// # fn main() -> std::io::Result<()> {
/// let mut server = Server::builder()
///     .addr("127.0.0.1:0")
///     .idle_timeout(Some(std::time::Duration::from_secs(60)))
///     .start()?;
/// let addr = server.local_addr();
/// # server.shutdown();
/// # Ok(())
/// # }
/// ```
///
/// The server borrows the engine of an explicit
/// [`engine`](ServerBuilder::engine) handle. Without one it starts and
/// owns an engine over the durable catalog it recovers from
/// [`data_dir`](ServerBuilder::data_dir), or else over a memory-only
/// catalog; either is seeded with whatever
/// [`database`](ServerBuilder::database) provided.
pub struct ServerBuilder {
    addr: String,
    idle_timeout: Option<Duration>,
    data_dir: Option<PathBuf>,
    metrics_addr: Option<String>,
    engine_config: EngineConfig,
    engine: Option<EngineHandle>,
    database: Option<Database>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            addr: "127.0.0.1:7171".to_string(),
            idle_timeout: Some(Duration::from_secs(300)),
            data_dir: None,
            metrics_addr: None,
            engine_config: EngineConfig::default(),
            engine: None,
            database: None,
        }
    }
}

impl ServerBuilder {
    /// Listen address (default `127.0.0.1:7171`; use port 0 for an
    /// ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Serve an engine the caller already runs; the server will not own
    /// or shut it down. Takes precedence over
    /// [`data_dir`](ServerBuilder::data_dir).
    pub fn engine(mut self, engine: EngineHandle) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Engine tuning for the builder-owned engine (ignored when
    /// [`engine`](ServerBuilder::engine) supplies a handle).
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.engine_config = cfg;
        self
    }

    /// Seed the default database of a builder-owned catalog (skipped if
    /// the catalog already has one — a recovered data dir keeps its own).
    pub fn database(mut self, db: Database) -> Self {
        self.database = Some(db);
        self
    }

    /// Recover (or initialise) a durable catalog in `dir` and serve it
    /// through a builder-owned engine. Every commit is fsynced before
    /// its ack. The recovery report is available as [`Server::recovery`]
    /// afterwards.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Expose `/metrics` and `/slowlog` on this address (port 0 for
    /// ephemeral). The exposition includes both the engine's and the
    /// connection layer's series.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Close connections idle (no bytes, nothing in flight) this long —
    /// the slow-loris guard (default 5 minutes); `None` disables it.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Binds, starts the event loop (and the engine + metrics endpoint
    /// when owned), and returns the running [`Server`]. Off Linux there is
    /// no connection layer and this returns
    /// [`Unsupported`](std::io::ErrorKind::Unsupported).
    pub fn start(self) -> std::io::Result<Server> {
        #[cfg(not(target_os = "linux"))]
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "ppr-service serves connections through epoll and runs on Linux only",
        ));

        let ServerBuilder {
            addr,
            idle_timeout,
            data_dir,
            metrics_addr,
            engine_config,
            engine,
            database,
        } = self;

        // Resolve the engine: borrow the caller's, or build one over the
        // resolved catalog and own it.
        let mut recovery = None;
        let (engine_owned, handle) = match engine {
            Some(handle) => (None, handle),
            None => {
                let catalog = match data_dir {
                    Some(dir) => {
                        let (catalog, report) =
                            Catalog::open(dir).map_err(|e| std::io::Error::other(e.to_string()))?;
                        recovery = Some(report);
                        catalog
                    }
                    None => Catalog::new(),
                };
                if let Some(db) = database {
                    // A recovered catalog keeps its own default database.
                    if catalog.snapshot(DEFAULT_DB).is_none() {
                        catalog
                            .insert(DEFAULT_DB, db)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                    }
                }
                let engine = Engine::start(catalog, engine_config);
                let handle = engine.handle();
                (Some(engine), handle)
            }
        };

        let net_metrics = NetMetrics::new();
        let listener = TcpListener::bind(&addr)?;
        let addr = listener.local_addr()?;

        #[cfg(target_os = "linux")]
        let event_loop = crate::net::event_loop::spawn(
            listener,
            crate::net::event_loop::LoopConfig {
                engine: handle.clone(),
                metrics: net_metrics.clone(),
                idle_timeout,
            },
        )?;

        let metrics_server = match &metrics_addr {
            Some(metrics_addr) => {
                let routes_handle = handle.clone();
                let routes_net = net_metrics.clone();
                let routes: ppr_obs::Routes = Arc::new(move |path| match path {
                    "/metrics" => Some(format!(
                        "{}{}",
                        routes_handle.render_prometheus(),
                        routes_net.render_prometheus()
                    )),
                    "/slowlog" => {
                        let mut page =
                            crate::render_slowlog(&routes_handle.metrics().slowlog.snapshot());
                        if let Some(note) = routes_net.accept_note() {
                            page.push_str(&note);
                            page.push('\n');
                        }
                        Some(page)
                    }
                    _ => None,
                });
                Some(MetricsServer::start(metrics_addr, routes)?)
            }
            None => None,
        };

        Ok(Server {
            addr,
            #[cfg(target_os = "linux")]
            event_loop,
            engine_owned,
            handle,
            net_metrics,
            metrics_server,
            recovery,
        })
    }
}

/// A running TCP front-end. Build one with [`Server::builder`].
pub struct Server {
    addr: SocketAddr,
    #[cfg(target_os = "linux")]
    event_loop: crate::net::event_loop::EventLoopHandle,
    /// Engine started (and therefore drained at shutdown) by the
    /// builder; `None` when serving a caller-owned [`EngineHandle`].
    engine_owned: Option<Engine>,
    handle: EngineHandle,
    net_metrics: Arc<NetMetrics>,
    metrics_server: Option<MetricsServer>,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Starts configuring a server; finish with
    /// [`start`](ServerBuilder::start).
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// The bound address — read this after `.addr("127.0.0.1:0")` to
    /// learn the ephemeral port.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A submission handle to the engine this server fronts (the
    /// builder-owned engine, or the one supplied to
    /// [`engine`](ServerBuilder::engine)).
    pub fn handle(&self) -> EngineHandle {
        self.handle.clone()
    }

    /// Connection-layer metrics (open/accepted/closed counters); shared
    /// with the `/metrics` exposition.
    pub fn net_metrics(&self) -> Arc<NetMetrics> {
        self.net_metrics.clone()
    }

    /// The metrics endpoint's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|m| m.local_addr())
    }

    /// The durable catalog's recovery report, when the builder opened a
    /// [`data_dir`](ServerBuilder::data_dir).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Stops accepting, lets in-progress requests finish, joins the
    /// event loop, and — when the builder owns the engine — drains and
    /// shuts it down too. Idempotent.
    pub fn shutdown(&mut self) {
        #[cfg(target_os = "linux")]
        self.event_loop.shutdown();
        if let Some(mut m) = self.metrics_server.take() {
            m.shutdown();
        }
        if let Some(engine) = self.engine_owned.take() {
            engine.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Command dispatch
// ---------------------------------------------------------------------

/// How the reply to a submitted request is encoded.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyShape {
    /// The row result (`run`).
    Rows,
    /// A [`TraceReport`](protocol::TraceReport) clocked end-to-end by the
    /// server (`trace`).
    Trace,
    /// An [`ExplainReport`](protocol::ExplainReport) clocked end-to-end by
    /// the server (`explain`).
    Explain,
}

/// What a decoded command asks of the event loop: answer immediately,
/// or hand the request to the engine.
pub(crate) enum Dispatch {
    /// The reply line, complete (synchronous verbs: hello, ping, stats,
    /// catalog mutations, …).
    Reply(String),
    /// Execute on the engine, against the session database unless the
    /// request names one; encode the answer as the shape says.
    Submit(Request, ReplyShape),
}

/// The per-connection protocol state machine: negotiates the version,
/// tracks the session database, answers the synchronous verbs in place
/// and classifies the rest. It never touches a socket or the worker
/// queue — how a [`Dispatch::Submit`] reaches the engine and how its
/// reply reaches the peer is the event loop's business.
pub(crate) fn dispatch_command(
    cmd: Command,
    engine: &EngineHandle,
    proto: &mut u32,
    session_db: &mut Option<String>,
    window: usize,
) -> Dispatch {
    let reply = match cmd {
        Command::Run(request) => return submit(request, session_db, ReplyShape::Rows),
        Command::Trace(request) => return submit(request, session_db, ReplyShape::Trace),
        Command::Explain(request) => return submit(request, session_db, ReplyShape::Explain),
        Command::Hello { proto: asked } => {
            // Negotiate down to what this build speaks; the client asked
            // for ≥ 2 (the decoder enforces it), so the connection is
            // tagged from the next line on.
            *proto = asked.min(protocol::PROTO_VERSION);
            protocol::encode_hello_ok(&HelloAck {
                proto: *proto,
                window,
            })
        }
        Command::Ping => "ok pong".to_string(),
        Command::Stats => protocol::encode_stats(&engine.stats()),
        Command::SlowLog => protocol::encode_slowlog(&Ok(engine.metrics().slowlog.snapshot())),
        Command::Dbs => protocol::encode_dbs(&Ok(engine.catalog().list())),
        // Catalog verbs run on the event loop, not the worker queue:
        // admission control exists to bound query execution, not
        // metadata traffic.
        Command::Use(db) => {
            let version = match engine.catalog().snapshot(&db) {
                Some(snap) => {
                    *session_db = Some(db.clone());
                    Ok(snap.version)
                }
                None => Err(ServiceError::UnknownDatabase(db.clone())),
            };
            ack(db, version)
        }
        Command::Create(db) => {
            let version = engine.catalog().create(&db);
            ack(db, version)
        }
        Command::Drop(db) => {
            let ack = engine
                .catalog()
                .drop_db(&db)
                .map(|()| {
                    // A dropped session database falls back to the default.
                    if session_db.as_deref() == Some(db.as_str()) {
                        *session_db = None;
                    }
                    Ack { db, version: None }
                })
                .map_err(ServiceError::from);
            protocol::encode_ack(&ack)
        }
        Command::Load { db, rel, tuples } => {
            let version = engine.catalog().load(&db, &rel, tuples);
            ack(db, version)
        }
        Command::Add { db, rel, tuple } => {
            let version = engine.catalog().add(&db, &rel, tuple);
            ack(db, version)
        }
    };
    Dispatch::Reply(reply)
}

/// A query verb's request, aimed at the session database unless it
/// names its own.
fn submit(mut request: Request, session_db: &Option<String>, shape: ReplyShape) -> Dispatch {
    if request.db.is_none() {
        request.db = session_db.clone();
    }
    Dispatch::Submit(request, shape)
}

/// The ack of a verb that left `db` at `version`, or its error.
fn ack(db: String, version: Result<DbVersion, impl Into<ServiceError>>) -> String {
    let ack = version
        .map(|version| Ack {
            db,
            version: Some(version),
        })
        .map_err(Into::into);
    protocol::encode_ack(&ack)
}

/// The reply for a tagged id that is already in flight on this
/// connection.
pub(crate) fn duplicate_id(id: u64) -> String {
    protocol::encode_result(&Err(ServiceError::Protocol(format!(
        "id {id} already in flight"
    ))))
}
