//! The TCP front-end: one listening socket, two connection backends,
//! one wire protocol.
//!
//! A [`Server`] is built with [`Server::builder`] and carries everything
//! the serving stack needs — the engine (owned or borrowed), an optional
//! durable catalog, the metrics endpoint, and the connection layer. Two
//! interchangeable backends answer the same wire grammar byte for byte:
//!
//! * [`ConnectionModel::EventLoop`] (default on Linux) — a
//!   single-threaded epoll loop in [`crate::net`] carrying every
//!   connection; OS thread count stays O(engine workers) no matter how
//!   many peers connect, which is what makes C10K practical on one core.
//! * [`ConnectionModel::Threads`] — the original blocking backend: one
//!   reader and one writer thread per connection. Still the portable
//!   fallback (and the reference implementation the event loop is tested
//!   against for byte-identical replies).
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
//! `docs/ARCHITECTURE.md` for the connection lifecycle under each
//! backend.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppr_durability::{RecoveryReport, StoreOptions, SyncPolicy};
use ppr_obs::MetricsServer;
use ppr_query::Database;

use crate::catalog::{Catalog, DEFAULT_DB};
use crate::engine::{Engine, EngineConfig, EngineHandle, ReplyFn, Request};
use crate::net::{CloseReason, NetMetrics};
use crate::protocol::{self, Ack, Command, ExplainReport, HelloAck, TraceReport};
use crate::ServiceError;

/// How often blocked I/O re-checks the stop flag.
const POLL: Duration = Duration::from_millis(25);

/// Upper bound on the per-connection in-flight window for protocol v2:
/// how many tagged requests may be outstanding before the server stops
/// draining the socket. Window-full is backpressure, not an error — the
/// client's writes stall in TCP until completions free slots. The
/// effective window is capped at [`EngineHandle::safe_window`] so a
/// lone well-behaved pipelined client is throttled by backpressure,
/// never shed by admission control.
pub const WINDOW: usize = 128;

/// Which connection backend carries client sockets.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionModel {
    /// Single-threaded epoll event loop (Linux only; other platforms
    /// fall back to [`ConnectionModel::Threads`]). Thread count stays
    /// O(engine workers) regardless of connection count.
    EventLoop,
    /// One reader + one writer OS thread per connection. Portable;
    /// thread count is O(connections).
    Threads,
}

impl Default for ConnectionModel {
    fn default() -> Self {
        if cfg!(target_os = "linux") {
            ConnectionModel::EventLoop
        } else {
            ConnectionModel::Threads
        }
    }
}

/// Everything a [`Server`] is configured by. Construct via
/// [`ServerConfig::default`] (or, more usually, [`Server::builder`]) and
/// override fields; the struct is `#[non_exhaustive]` so new knobs can
/// land without breaking callers.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Hard cap on simultaneously open client connections; at the cap
    /// the listener stops accepting until a connection closes.
    pub max_connections: usize,
    /// Close connections idle (no bytes, nothing in flight) this long —
    /// the slow-loris guard. `None` disables the timeout.
    pub idle_timeout: Option<Duration>,
    /// Bound on the per-connection output buffer under the event loop; a
    /// peer that stops reading while replies accumulate past this is
    /// disconnected with [`CloseReason::OutbufOverflow`].
    pub outbuf_limit: usize,
    /// Connection backend. Defaults to the epoll event loop on Linux and
    /// the thread-per-connection backend elsewhere.
    pub connection_model: ConnectionModel,
    /// Durable catalog directory; `None` serves memory-only.
    pub data_dir: Option<PathBuf>,
    /// Whether durable commits fsync (`data_dir` mode only).
    pub fsync: bool,
    /// Prometheus-style metrics endpoint address (`/metrics` +
    /// `/slowlog`); `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Engine tuning for a builder-owned engine (ignored when an
    /// existing [`EngineHandle`] is supplied).
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            max_connections: 10_000,
            idle_timeout: Some(Duration::from_secs(300)),
            outbuf_limit: 4 << 20,
            connection_model: ConnectionModel::default(),
            data_dir: None,
            fsync: true,
            metrics_addr: None,
            engine: EngineConfig::default(),
        }
    }
}

/// Fluent construction for [`Server`]:
///
/// ```no_run
/// # use ppr_service::Server;
/// # fn main() -> std::io::Result<()> {
/// let mut server = Server::builder()
///     .addr("127.0.0.1:0")
///     .max_connections(5_000)
///     .idle_timeout(Some(std::time::Duration::from_secs(60)))
///     .start()?;
/// let addr = server.local_addr();
/// # server.shutdown();
/// # Ok(())
/// # }
/// ```
///
/// The engine comes from one of three places, in precedence order: an
/// explicit [`engine`](ServerBuilder::engine) handle (the server borrows
/// it), an explicit [`catalog`](ServerBuilder::catalog) /
/// [`database`](ServerBuilder::database) (the server starts and owns an
/// engine over it), or [`data_dir`](ServerBuilder::data_dir) (the server
/// recovers a durable catalog, then starts and owns an engine). With
/// none of those, the server owns an engine over an empty memory-only
/// catalog seeded with whatever [`database`](ServerBuilder::database)
/// provided — or nothing.
#[derive(Default)]
pub struct ServerBuilder {
    cfg: ServerConfig,
    engine: Option<EngineHandle>,
    catalog: Option<Catalog>,
    database: Option<Database>,
}

impl ServerBuilder {
    /// Listen address (default `127.0.0.1:7171`; use port 0 for an
    /// ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.addr = addr.into();
        self
    }

    /// Serve an engine the caller already runs; the server will not own
    /// or shut it down. Takes precedence over
    /// [`catalog`](ServerBuilder::catalog) /
    /// [`data_dir`](ServerBuilder::data_dir).
    pub fn engine(mut self, engine: EngineHandle) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Engine tuning for the builder-owned engine (ignored when
    /// [`engine`](ServerBuilder::engine) supplies a handle).
    pub fn engine_config(mut self, cfg: EngineConfig) -> Self {
        self.cfg.engine = cfg;
        self
    }

    /// Serve this catalog through a builder-owned engine.
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// Seed the default database of a builder-owned catalog (skipped if
    /// the catalog already has one — a recovered data dir keeps its own).
    pub fn database(mut self, db: Database) -> Self {
        self.database = Some(db);
        self
    }

    /// Recover (or initialise) a durable catalog in `dir` and serve it
    /// through a builder-owned engine. The recovery report is available
    /// as [`Server::recovery`] afterwards.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cfg.data_dir = Some(dir.into());
        self
    }

    /// Whether durable commits fsync (default true; only meaningful with
    /// [`data_dir`](ServerBuilder::data_dir)).
    pub fn fsync(mut self, fsync: bool) -> Self {
        self.cfg.fsync = fsync;
        self
    }

    /// Expose `/metrics` and `/slowlog` on this address (port 0 for
    /// ephemeral). The exposition includes both the engine's and the
    /// connection layer's series.
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.metrics_addr = Some(addr.into());
        self
    }

    /// Cap on simultaneously open client connections (default 10 000).
    pub fn max_connections(mut self, cap: usize) -> Self {
        self.cfg.max_connections = cap.max(1);
        self
    }

    /// Idle-connection timeout (default 5 minutes); `None` disables it.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.cfg.idle_timeout = timeout;
        self
    }

    /// Per-connection output-buffer bound under the event loop (default
    /// 4 MiB).
    pub fn outbuf_limit(mut self, bytes: usize) -> Self {
        self.cfg.outbuf_limit = bytes;
        self
    }

    /// Connection backend (default: event loop on Linux, threads
    /// elsewhere). Requesting the event loop off-Linux falls back to
    /// threads.
    pub fn connection_model(mut self, model: ConnectionModel) -> Self {
        self.cfg.connection_model = model;
        self
    }

    /// Replace the whole config at once (field overrides set earlier are
    /// lost; engine/catalog/database selections are kept).
    pub fn config(mut self, cfg: ServerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Binds, starts the connection backend (and the engine + metrics
    /// endpoint when owned), and returns the running [`Server`].
    pub fn start(self) -> std::io::Result<Server> {
        let ServerBuilder {
            cfg,
            engine,
            catalog,
            database,
        } = self;

        // Resolve the engine: borrow the caller's, or build one over the
        // resolved catalog and own it.
        let mut recovery = None;
        let (engine_owned, handle) = match engine {
            Some(handle) => (None, handle),
            None => {
                let catalog = match (catalog, &cfg.data_dir) {
                    (Some(c), _) => c,
                    (None, Some(dir)) => {
                        let opts = StoreOptions {
                            sync: if cfg.fsync {
                                SyncPolicy::Always
                            } else {
                                SyncPolicy::Never
                            },
                            ..StoreOptions::default()
                        };
                        let (catalog, report) = Catalog::open_with(dir, opts)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        recovery = Some(report);
                        catalog
                    }
                    (None, None) => Catalog::new(),
                };
                if let Some(db) = database {
                    // A recovered catalog keeps its own default database.
                    if catalog.snapshot(DEFAULT_DB).is_none() {
                        catalog
                            .insert(DEFAULT_DB, db)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                    }
                }
                let engine = Engine::start(catalog, cfg.engine.clone());
                let handle = engine.handle();
                (Some(engine), handle)
            }
        };

        let net_metrics = NetMetrics::new();
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let backend = start_backend(listener, &cfg, handle.clone(), net_metrics.clone())?;

        let metrics_server = match &cfg.metrics_addr {
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
            backend: Some(backend),
            engine_owned,
            handle,
            net_metrics,
            metrics_server,
            recovery,
        })
    }
}

/// Spawns the configured connection backend over a bound listener.
fn start_backend(
    listener: TcpListener,
    cfg: &ServerConfig,
    engine: EngineHandle,
    metrics: Arc<NetMetrics>,
) -> std::io::Result<Backend> {
    #[cfg(target_os = "linux")]
    if cfg.connection_model == ConnectionModel::EventLoop {
        let handle = crate::net::event_loop::spawn(
            listener,
            crate::net::event_loop::LoopConfig {
                engine,
                metrics,
                max_connections: cfg.max_connections,
                idle_timeout: cfg.idle_timeout,
                outbuf_limit: cfg.outbuf_limit,
            },
        )?;
        return Ok(Backend::EventLoop(handle));
    }
    Ok(Backend::Threads(spawn_threaded(
        listener,
        engine,
        metrics,
        cfg.idle_timeout,
        cfg.max_connections,
    )?))
}

/// A running TCP front-end. Build one with [`Server::builder`].
pub struct Server {
    addr: SocketAddr,
    backend: Option<Backend>,
    /// Engine started (and therefore drained at shutdown) by the
    /// builder; `None` when serving a caller-owned [`EngineHandle`].
    engine_owned: Option<Engine>,
    handle: EngineHandle,
    net_metrics: Arc<NetMetrics>,
    metrics_server: Option<MetricsServer>,
    recovery: Option<RecoveryReport>,
}

enum Backend {
    Threads(ThreadedBackend),
    #[cfg(target_os = "linux")]
    EventLoop(crate::net::event_loop::EventLoopHandle),
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
    /// connection backend, and — when the builder owns the engine —
    /// drains and shuts it down too. Idempotent.
    pub fn shutdown(&mut self) {
        match self.backend.take() {
            Some(Backend::Threads(mut t)) => t.shutdown(),
            #[cfg(target_os = "linux")]
            Some(Backend::EventLoop(mut h)) => h.shutdown(),
            None => {}
        }
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
// Shared command dispatch
// ---------------------------------------------------------------------

/// What a decoded command asks of the connection backend: answer
/// immediately, or hand the request to the engine (serially, from the
/// connection's point of view).
pub(crate) enum Dispatch {
    /// The reply line, complete (synchronous verbs: hello, ping, stats,
    /// catalog mutations, …).
    Reply(String),
    /// Execute on the engine; encode with [`protocol::encode_result`].
    Execute(Request),
    /// Execute on the engine; encode as a [`TraceReport`] clocked
    /// end-to-end by the server.
    Trace(Request),
    /// Execute on the engine; encode as an [`ExplainReport`] clocked
    /// end-to-end by the server.
    Explain(Request),
}

/// The protocol state machine both backends share: everything except
/// *how* an [`Dispatch::Execute`] reaches the engine (blocking call on a
/// connection thread vs. submission from the event loop) is decided
/// here, which is what keeps the two backends byte-identical.
pub(crate) fn dispatch_command(
    cmd: Command,
    engine: &EngineHandle,
    proto: &mut u32,
    session_db: &mut Option<String>,
    window: usize,
) -> Dispatch {
    match cmd {
        Command::Hello { proto: asked } => {
            // Negotiate down to what this build speaks; the client asked
            // for ≥ 2 (the decoder enforces it), so the connection is
            // tagged from the next line on.
            *proto = asked.min(protocol::PROTO_VERSION);
            Dispatch::Reply(protocol::encode_hello_ok(&HelloAck {
                proto: *proto,
                window,
            }))
        }
        Command::Ping => Dispatch::Reply("ok pong".to_string()),
        Command::Stats => Dispatch::Reply(protocol::encode_stats(&engine.stats())),
        Command::SlowLog => Dispatch::Reply(protocol::encode_slowlog(&Ok(engine
            .metrics()
            .slowlog
            .snapshot()))),
        Command::Dbs => Dispatch::Reply(protocol::encode_dbs(&Ok(engine.catalog().list()))),
        Command::Run(mut request) => {
            if request.db.is_none() {
                request.db = session_db.clone();
            }
            Dispatch::Execute(request)
        }
        Command::Trace(mut request) => {
            if request.db.is_none() {
                request.db = session_db.clone();
            }
            Dispatch::Trace(request)
        }
        Command::Explain(mut request) => {
            if request.db.is_none() {
                request.db = session_db.clone();
            }
            Dispatch::Explain(request)
        }
        // Catalog verbs run on the connection's own thread (or the event
        // loop), not the worker queue: mutations are O(tiny database),
        // and admission control exists to bound query execution, not
        // metadata traffic.
        Command::Use(db) => {
            let ack = match engine.catalog().snapshot(&db) {
                Some(snap) => {
                    *session_db = Some(db.clone());
                    Ok(Ack {
                        db,
                        version: Some(snap.version),
                    })
                }
                None => Err(ServiceError::UnknownDatabase(db)),
            };
            Dispatch::Reply(protocol::encode_ack(&ack))
        }
        Command::Create(db) => {
            let ack = engine
                .catalog()
                .create(&db)
                .map(|version| Ack {
                    db,
                    version: Some(version),
                })
                .map_err(ServiceError::from);
            Dispatch::Reply(protocol::encode_ack(&ack))
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
            Dispatch::Reply(protocol::encode_ack(&ack))
        }
        Command::Load { db, rel, tuples } => {
            let ack = engine
                .catalog()
                .load(&db, &rel, tuples)
                .map(|version| Ack {
                    db,
                    version: Some(version),
                })
                .map_err(ServiceError::from);
            Dispatch::Reply(protocol::encode_ack(&ack))
        }
        Command::Add { db, rel, tuple } => {
            let ack = engine
                .catalog()
                .add(&db, &rel, tuple)
                .map(|version| Ack {
                    db,
                    version: Some(version),
                })
                .map_err(ServiceError::from);
            Dispatch::Reply(protocol::encode_ack(&ack))
        }
    }
}

/// The reply for a tagged id that is already in flight on this
/// connection.
pub(crate) fn duplicate_id(id: u64) -> String {
    protocol::encode_result(&Err(ServiceError::Protocol(format!(
        "id {id} already in flight"
    ))))
}

// ---------------------------------------------------------------------
// Thread-per-connection backend
// ---------------------------------------------------------------------

struct ThreadedBackend {
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ThreadedBackend {
    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .connections
            .lock()
            .expect("connection list")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn spawn_threaded(
    listener: TcpListener,
    engine: EngineHandle,
    metrics: Arc<NetMetrics>,
    idle_timeout: Option<Duration>,
    max_connections: usize,
) -> std::io::Result<ThreadedBackend> {
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept_stop = stop.clone();
    let accept_conns = connections.clone();
    let accept_thread = std::thread::Builder::new()
        .name("ppr-accept".into())
        .spawn(move || {
            while !accept_stop.load(Ordering::Acquire) {
                if metrics.connections_open.get() >= max_connections as u64 {
                    // At the connection cap: stop accepting until one
                    // closes. Pending peers wait in the listen backlog.
                    std::thread::sleep(POLL);
                    continue;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        metrics.connections_accepted.inc();
                        let engine = engine.clone();
                        let stop = accept_stop.clone();
                        let conn_metrics = metrics.clone();
                        let handle = std::thread::spawn(move || {
                            serve_connection(stream, engine, stop, conn_metrics, idle_timeout)
                        });
                        let mut conns = accept_conns.lock().expect("connection list");
                        // Reap finished connection threads here so a
                        // long-lived server does not accumulate one
                        // JoinHandle per connection ever accepted.
                        let mut i = 0;
                        while i < conns.len() {
                            if conns[i].is_finished() {
                                let _ = conns.swap_remove(i).join();
                            } else {
                                i += 1;
                            }
                        }
                        conns.push(handle);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL);
                    }
                    // Accept errors (ECONNABORTED, EMFILE, …) are
                    // transient: a peer resetting mid-handshake or fd
                    // pressure must not permanently stop the server from
                    // accepting while it appears healthy. Count, log,
                    // surface on /slowlog, back off, retry; shutdown is
                    // signalled through `stop`, never through accept
                    // errors.
                    Err(e) => {
                        let fd_pressure = matches!(
                            e.raw_os_error(),
                            Some(crate::net::sys_errno::EMFILE)
                                | Some(crate::net::sys_errno::ENFILE)
                        );
                        metrics.note_accept_error(&e, fd_pressure);
                        std::thread::sleep(if fd_pressure { POLL * 4 } else { POLL });
                    }
                }
            }
        })
        .expect("spawn accept thread");

    Ok(ThreadedBackend {
        stop,
        accept_thread: Some(accept_thread),
        connections,
    })
}

/// The v2 in-flight window: the set of tagged ids awaiting completion.
/// Doubles as the duplicate-id detector — an id stays reserved from the
/// moment the reader accepts it until its completion callback fires.
struct Window {
    state: Mutex<HashSet<u64>>,
    freed: Condvar,
    capacity: usize,
}

enum TryReserve {
    Reserved,
    Duplicate,
    Full,
}

impl Window {
    fn new(capacity: usize) -> Window {
        Window {
            state: Mutex::new(HashSet::new()),
            freed: Condvar::new(),
            capacity,
        }
    }

    fn try_reserve(&self, id: u64) -> TryReserve {
        let mut set = self.state.lock().expect("window lock");
        if set.contains(&id) {
            TryReserve::Duplicate
        } else if set.len() >= self.capacity {
            TryReserve::Full
        } else {
            set.insert(id);
            TryReserve::Reserved
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.state.lock().expect("window lock").contains(&id)
    }

    fn is_empty(&self) -> bool {
        self.state.lock().expect("window lock").is_empty()
    }

    /// Blocks until at least one slot is free (or `stop` is raised).
    /// While the reader sits here it is not reading the socket — that
    /// unread socket is the backpressure.
    fn wait_for_room(&self, stop: &AtomicBool) -> bool {
        let mut set = self.state.lock().expect("window lock");
        loop {
            if set.len() < self.capacity {
                return true;
            }
            if stop.load(Ordering::Acquire) {
                return false;
            }
            set = self.freed.wait_timeout(set, POLL).expect("window lock").0;
        }
    }

    fn release(&self, id: u64) {
        self.state.lock().expect("window lock").remove(&id);
        self.freed.notify_one();
    }
}

/// Per-connection state shared by the command handlers.
struct Conn {
    engine: EngineHandle,
    /// Reply lines (without trailing newline) bound for the writer thread.
    tx: mpsc::Sender<String>,
    /// Negotiated protocol version: 1 until `hello proto=2` arrives.
    proto: u32,
    /// The connection's session database, set by `use`; `run` lines
    /// without an explicit `db=` target it (engine default otherwise).
    session_db: Option<String>,
    window: Arc<Window>,
    stop: Arc<AtomicBool>,
}

fn serve_connection(
    stream: TcpStream,
    engine: EngineHandle,
    stop: Arc<AtomicBool>,
    metrics: Arc<NetMetrics>,
    idle_timeout: Option<Duration>,
) {
    metrics.connections_open.inc();
    let close_reason = serve_connection_inner(stream, engine, stop, idle_timeout);
    metrics.record_close(&close_reason);
    metrics.connections_open.dec();
}

fn serve_connection_inner(
    stream: TcpStream,
    engine: EngineHandle,
    stop: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
) -> CloseReason {
    // Short read timeouts make the blocking read loop responsive to the
    // stop flag (and the idle timeout) without a reactor.
    if stream.set_read_timeout(Some(POLL)).is_err() {
        return CloseReason::Io("set_read_timeout failed".into());
    }
    let _ = stream.set_nodelay(true);
    let mut reader = stream;
    let writer = match reader.try_clone() {
        Ok(w) => w,
        Err(e) => return CloseReason::Io(e.to_string()),
    };

    let (tx, rx) = mpsc::channel::<String>();
    let writer_thread = std::thread::spawn(move || write_loop(writer, rx));

    let window = Arc::new(Window::new(WINDOW.min(engine.safe_window())));
    let mut conn = Conn {
        engine,
        tx,
        proto: 1,
        session_db: None,
        window,
        stop,
    };

    let mut framer = protocol::LineFramer::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    let mut reason = CloseReason::PeerClosed;
    'serve: loop {
        // Process every complete line already buffered before reading
        // more: in v2 this is what lets a burst of tagged requests become
        // one batch submission.
        let mut lines: Vec<String> = Vec::new();
        loop {
            match framer.next_line() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => break,
                Err(_) => {
                    let _ = conn
                        .tx
                        .send("err kind=protocol msg=line too long".to_string());
                    reason = CloseReason::Protocol("line too long".into());
                    break 'serve;
                }
            }
        }
        if !lines.is_empty() {
            if process_lines(&mut conn, lines).is_err() {
                reason = CloseReason::Io("reply channel closed".into());
                break;
            }
            last_activity = Instant::now();
        }
        if conn.stop.load(Ordering::Acquire) {
            reason = CloseReason::Shutdown;
            break;
        }
        match reader.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                framer.push(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // The slow-loris guard: a connection with no bytes and
                // nothing in flight for the whole idle window is closed.
                if let Some(timeout) = idle_timeout {
                    if conn.window.is_empty() && last_activity.elapsed() >= timeout {
                        reason = CloseReason::IdleTimeout;
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                reason = CloseReason::Io(e.to_string());
                break;
            }
        }
    }
    // Drop the reader's Sender; the writer keeps draining replies for
    // jobs still in flight (their callbacks hold Sender clones) and
    // exits once the last completion fires.
    drop(conn);
    let _ = writer_thread.join();
    reason
}

/// The connection's write half: single consumer of the reply channel.
/// Consecutive ready replies are coalesced into one `write_all` — under
/// pipelining this is the difference between one syscall per reply and
/// one per burst.
fn write_loop(mut writer: TcpStream, rx: mpsc::Receiver<String>) {
    while let Ok(line) = rx.recv() {
        let mut buf = line.into_bytes();
        buf.push(b'\n');
        while buf.len() < 64 * 1024 {
            match rx.try_recv() {
                Ok(more) => {
                    buf.extend_from_slice(more.as_bytes());
                    buf.push(b'\n');
                }
                Err(_) => break,
            }
        }
        if writer.write_all(&buf).is_err() {
            return;
        }
    }
}

fn send(conn: &Conn, line: String) -> Result<(), ()> {
    conn.tx.send(line).map_err(|_| ())
}

/// Handles a chunk of complete request lines. Consecutive tagged `run`s
/// against the same effective database accumulate into one batch; the
/// batch is flushed — pinning its catalog snapshot — before any other
/// command is handled, which is what keeps pipelined execution
/// serially equivalent around `use`/`load`/`add`.
fn process_lines(conn: &mut Conn, lines: Vec<String>) -> Result<(), ()> {
    let mut batch: Vec<(u64, Request)> = Vec::new();
    let mut batch_db: Option<String> = None;
    for line in lines {
        if conn.proto < 2 {
            // v1: strictly serial, byte-identical to the pre-pipelining
            // server (the writer channel preserves order — the reader is
            // its only producer here).
            let reply = dispatch_untagged(&line, conn);
            send(conn, reply)?;
            continue;
        }
        match protocol::split_request_tag(&line) {
            Ok((Some(id), rest)) => match protocol::decode_command(&rest) {
                Ok(Command::Run(mut request)) => {
                    if request.db.is_none() {
                        request.db = conn.session_db.clone();
                    }
                    if !batch.is_empty() && batch_db != request.db {
                        flush_batch(conn, &mut batch, batch_db.take());
                    }
                    batch_db = request.db.clone();
                    loop {
                        match conn.window.try_reserve(id) {
                            TryReserve::Reserved => {
                                batch.push((id, request));
                                break;
                            }
                            TryReserve::Duplicate => {
                                send(conn, protocol::tag_reply(id, &duplicate_id(id)))?;
                                break;
                            }
                            TryReserve::Full => {
                                // Submit what we have — those jobs free
                                // slots as they complete — then block.
                                flush_batch(conn, &mut batch, batch_db.clone());
                                if !conn.window.wait_for_room(&conn.stop) {
                                    return Err(());
                                }
                            }
                        }
                    }
                }
                Ok(cmd) => {
                    // Tagged catalog verbs / ping / stats complete
                    // synchronously on the reader thread, after the
                    // pending runs have pinned their snapshots.
                    flush_batch(conn, &mut batch, batch_db.take());
                    let reply = if conn.window.contains(id) {
                        duplicate_id(id)
                    } else {
                        handle_command(cmd, conn)
                    };
                    send(conn, protocol::tag_reply(id, &reply))?;
                }
                Err(e) => {
                    send(
                        conn,
                        protocol::tag_reply(id, &protocol::encode_result(&Err(e))),
                    )?;
                }
            },
            Ok((None, _)) => {
                // Untagged lines remain legal after the upgrade and run
                // serially on the reader thread, exactly like v1.
                flush_batch(conn, &mut batch, batch_db.take());
                let reply = dispatch_untagged(&line, conn);
                send(conn, reply)?;
            }
            Err(e) => {
                // A malformed id cannot tag its own error reply.
                send(conn, protocol::encode_result(&Err(e)))?;
            }
        }
    }
    flush_batch(conn, &mut batch, batch_db);
    Ok(())
}

/// Submits the accumulated batch: one catalog snapshot and one queue
/// lock for the lot. Each job's completion callback tags its reply,
/// hands it to the writer thread, and frees its window slot.
fn flush_batch(conn: &Conn, batch: &mut Vec<(u64, Request)>, db: Option<String>) {
    if batch.is_empty() {
        return;
    }
    let jobs: Vec<(Request, ReplyFn)> = batch
        .drain(..)
        .map(|(id, request)| {
            let tx = conn.tx.clone();
            let window = conn.window.clone();
            let reply: ReplyFn = Box::new(move |result| {
                let _ = tx.send(protocol::tag_reply(id, &protocol::encode_result(&result)));
                window.release(id);
            });
            (request, reply)
        })
        .collect();
    conn.engine.submit_batch(db.as_deref(), jobs);
}

fn dispatch_untagged(line: &str, conn: &mut Conn) -> String {
    if line.trim().is_empty() {
        return protocol::encode_result(&Err(ServiceError::Protocol("empty line".into())));
    }
    match protocol::decode_command(line) {
        Ok(cmd) => handle_command(cmd, conn),
        Err(e) => protocol::encode_result(&Err(e)),
    }
}

/// The threaded backend's realization of [`dispatch_command`]:
/// synchronous verbs answer inline; `run`/`trace` block the connection
/// thread in [`EngineHandle::execute`], which is what makes v1 strictly
/// serial.
fn handle_command(cmd: Command, conn: &mut Conn) -> String {
    let capacity = conn.window.capacity;
    match dispatch_command(
        cmd,
        &conn.engine,
        &mut conn.proto,
        &mut conn.session_db,
        capacity,
    ) {
        Dispatch::Reply(reply) => reply,
        Dispatch::Execute(request) => protocol::encode_result(&conn.engine.execute(request)),
        Dispatch::Trace(request) => {
            // The server clocks the engine call so the reported total
            // bounds the span sum even if a phase is mismeasured.
            let started = Instant::now();
            let result = conn.engine.execute(request);
            let total_us = started.elapsed().as_micros() as u64;
            protocol::encode_trace_report(&result.map(|resp| TraceReport::of(&resp, total_us)))
        }
        Dispatch::Explain(request) => {
            let started = Instant::now();
            let result = conn.engine.execute(request);
            let total_us = started.elapsed().as_micros() as u64;
            protocol::encode_explain_report(&result.map(|resp| ExplainReport::of(&resp, total_us)))
        }
    }
}
