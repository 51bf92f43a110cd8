//! Blocking TCP clients for the line protocol: the serial [`Client`]
//! (protocol v1) and the pipelined [`Pipeline`] (protocol v2).

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use ppr_relalg::Value;

use ppr_obs::SlowEntry;

use crate::catalog::{DbInfo, DbVersion};
use crate::engine::{EngineStats, ExplainMode, Request, Response};
use crate::protocol::{self, Ack, Command, ExplainReport, TraceReport};
use crate::ServiceError;

/// A connected client. One request is in flight at a time per client;
/// open more clients — or a [`Pipeline`] — for concurrency.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running [`crate::Server`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    fn round_trip(&mut self, line: &str) -> Result<String, ServiceError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ServiceError::Io("server closed the connection".into()));
        }
        Ok(reply)
    }

    fn ack(&mut self, cmd: &Command) -> Result<Ack, ServiceError> {
        let reply = self.round_trip(&protocol::encode_command(cmd))?;
        protocol::decode_ack(&reply)
    }

    /// Evaluates a query on the server.
    pub fn run(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let reply = self.round_trip(&protocol::encode_request(request))?;
        protocol::decode_result(&reply)
    }

    /// Selects this connection's session database: subsequent [`run`]
    /// requests without an explicit db target it. Returns the database's
    /// current version.
    ///
    /// [`run`]: Client::run
    pub fn use_db(&mut self, db: &str) -> Result<DbVersion, ServiceError> {
        let ack = self.ack(&Command::Use(db.to_string()))?;
        ack.version
            .ok_or_else(|| ServiceError::Protocol("use ack without version".into()))
    }

    /// Creates a new empty database on the server.
    pub fn create_db(&mut self, db: &str) -> Result<DbVersion, ServiceError> {
        let ack = self.ack(&Command::Create(db.to_string()))?;
        ack.version
            .ok_or_else(|| ServiceError::Protocol("create ack without version".into()))
    }

    /// Drops a database. In-flight requests holding its snapshot finish
    /// unaffected; new requests naming it fail with
    /// [`ServiceError::UnknownDatabase`].
    pub fn drop_db(&mut self, db: &str) -> Result<(), ServiceError> {
        self.ack(&Command::Drop(db.to_string())).map(|_| ())
    }

    /// Bulk-loads one relation of `db`, replacing any existing relation
    /// of that name, and returns the database's new version. Every
    /// mutation bumps the version, invalidating cached plans and results.
    pub fn load(
        &mut self,
        db: &str,
        rel: &str,
        tuples: Vec<Box<[Value]>>,
    ) -> Result<DbVersion, ServiceError> {
        let ack = self.ack(&Command::Load {
            db: db.to_string(),
            rel: rel.to_string(),
            tuples,
        })?;
        ack.version
            .ok_or_else(|| ServiceError::Protocol("load ack without version".into()))
    }

    /// Appends one tuple to a relation of `db` (creating the relation on
    /// first `add`) and returns the database's new version.
    pub fn add(
        &mut self,
        db: &str,
        rel: &str,
        tuple: Box<[Value]>,
    ) -> Result<DbVersion, ServiceError> {
        let ack = self.ack(&Command::Add {
            db: db.to_string(),
            rel: rel.to_string(),
            tuple,
        })?;
        ack.version
            .ok_or_else(|| ServiceError::Protocol("add ack without version".into()))
    }

    /// Fetches engine + cache counters (including per-phase latency
    /// quantiles from the server's shared histograms).
    pub fn stats(&mut self) -> Result<EngineStats, ServiceError> {
        let reply = self.round_trip("stats")?;
        protocol::decode_stats(&reply)
    }

    /// Evaluates a query and returns where its time went instead of the
    /// rows: the worker's per-phase span breakdown plus the execution
    /// digest. Same grammar and budget semantics as [`run`].
    ///
    /// [`run`]: Client::run
    pub fn trace(&mut self, request: &Request) -> Result<TraceReport, ServiceError> {
        let reply = self.round_trip(&protocol::encode_trace(request))?;
        protocol::decode_trace_report(&reply)
    }

    /// Explains a query: the optimizer pass trace plus the physical
    /// operator tree. `mode` picks between rendering the planned shape
    /// without executing ([`ExplainMode::Plan`]) and executing with
    /// per-operator profiling ([`ExplainMode::Analyze`]); a request
    /// already carrying a mode is overridden. Explain bypasses the
    /// server's plan and result caches.
    pub fn explain(
        &mut self,
        request: &Request,
        mode: ExplainMode,
    ) -> Result<ExplainReport, ServiceError> {
        let req = request.clone().explain(mode);
        let reply = self.round_trip(&protocol::encode_explain(&req))?;
        protocol::decode_explain_report(&reply)
    }

    /// Fetches the server's slow-query log, slowest first.
    pub fn slowlog(&mut self) -> Result<Vec<SlowEntry>, ServiceError> {
        let reply = self.round_trip("slowlog")?;
        protocol::decode_slowlog(&reply)
    }

    /// Lists the server's databases: name, version, content fingerprint,
    /// and relation count, sorted by name.
    pub fn dbs(&mut self) -> Result<Vec<DbInfo>, ServiceError> {
        let reply = self.round_trip("dbs")?;
        protocol::decode_dbs(&reply)
    }

    /// Liveness check.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        let reply = self.round_trip("ping")?;
        if reply.trim_end() == "ok pong" {
            Ok(())
        } else {
            Err(ServiceError::Protocol(format!(
                "unexpected ping reply: {}",
                reply.trim_end()
            )))
        }
    }
}

/// Receipt for a request submitted on a [`Pipeline`]; redeem it exactly
/// once with [`Pipeline::wait`] (or [`Pipeline::wait_ack`] for tagged
/// catalog verbs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// A pipelined (protocol v2) connection: many tagged requests in flight
/// at once, completed by the server in any order.
///
/// [`submit`] queues a request without waiting — request bytes are
/// buffered and flushed lazily, so a burst of submissions costs one
/// write syscall, which is where the single-core pipelining win comes
/// from. [`wait`] redeems a ticket, stashing any other replies that
/// arrive first. The connection respects the server's advertised
/// window: submitting past it first drains one completion, so the
/// client can never deadlock against the server's read backpressure.
///
/// ```no_run
/// # use ppr_service::{Pipeline, Request};
/// # use ppr_core::methods::Method;
/// # fn main() -> Result<(), ppr_service::ServiceError> {
/// let mut pipe = Pipeline::connect("127.0.0.1:7878")?;
/// let req = Request::query("q() :- edge(x,y), edge(y,z), edge(z,x)")
///     .method(Method::EarlyProjection);
/// let a = pipe.submit(&req)?;
/// let b = pipe.submit(&req)?;
/// let rb = pipe.wait(b)?; // order of redemption is free
/// let ra = pipe.wait(a)?;
/// assert_eq!(ra.rows, rb.rows);
/// # Ok(()) }
/// ```
///
/// [`submit`]: Pipeline::submit
/// [`wait`]: Pipeline::wait
pub struct Pipeline {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Ids submitted and not yet redeemed or stashed.
    pending: HashSet<u64>,
    /// Replies that arrived while waiting for a different id.
    ready: HashMap<u64, String>,
    window: usize,
}

impl Pipeline {
    /// Connects to a running [`crate::Server`] and performs the
    /// `hello proto=2` handshake. Fails with [`ServiceError::Protocol`]
    /// against a v1-only server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Pipeline, ServiceError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut pipe = Pipeline {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            pending: HashSet::new(),
            ready: HashMap::new(),
            window: 1,
        };
        pipe.writer.write_all(b"hello proto=2\n")?;
        pipe.writer.flush()?;
        let mut reply = String::new();
        if pipe.reader.read_line(&mut reply)? == 0 {
            return Err(ServiceError::Io("server closed the connection".into()));
        }
        let ack = protocol::decode_hello_ok(&reply)?;
        if ack.proto < 2 || ack.window == 0 {
            return Err(ServiceError::Protocol(format!(
                "server negotiated proto={} window={}",
                ack.proto, ack.window
            )));
        }
        pipe.window = ack.window;
        Ok(pipe)
    }

    /// The server's in-flight window for this connection.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests currently in flight (submitted, reply not yet read).
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    fn submit_line(&mut self, line: &str) -> Result<Ticket, ServiceError> {
        // Never outrun the server's window: it would stop reading, our
        // writes would stall in TCP, and a client that only writes would
        // deadlock. Draining one completion first makes that impossible.
        while self.pending.len() >= self.window {
            self.writer.flush()?;
            self.stash_one()?;
        }
        let id = self.next_id;
        self.next_id += 1;
        let tagged = protocol::tag_request(id, line);
        self.writer.write_all(tagged.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.pending.insert(id);
        Ok(Ticket(id))
    }

    /// Queues a query without waiting for the result.
    pub fn submit(&mut self, request: &Request) -> Result<Ticket, ServiceError> {
        self.submit_line(&protocol::encode_request(request))
    }

    /// Queues a tagged `use`: the session switch takes effect, in order,
    /// for every request submitted after it, while earlier in-flight
    /// requests keep their database — the server pins snapshots at
    /// submission order. Redeem with [`Pipeline::wait_ack`].
    pub fn submit_use(&mut self, db: &str) -> Result<Ticket, ServiceError> {
        self.submit_line(&protocol::encode_command(&Command::Use(db.to_string())))
    }

    /// Redeems a ticket for its query result, reading (and stashing)
    /// other replies until this one arrives.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Response, ServiceError> {
        let line = self.wait_line(ticket)?;
        protocol::decode_result(&line)
    }

    /// Redeems a ticket from [`Pipeline::submit_use`] for its ack.
    pub fn wait_ack(&mut self, ticket: Ticket) -> Result<Ack, ServiceError> {
        let line = self.wait_line(ticket)?;
        protocol::decode_ack(&line)
    }

    fn wait_line(&mut self, Ticket(id): Ticket) -> Result<String, ServiceError> {
        loop {
            if let Some(line) = self.ready.remove(&id) {
                return Ok(line);
            }
            if !self.pending.contains(&id) {
                return Err(ServiceError::Protocol(format!(
                    "ticket {id} was never submitted or already redeemed"
                )));
            }
            self.writer.flush()?;
            self.stash_one()?;
        }
    }

    /// Reads one reply line and files it by id.
    fn stash_one(&mut self) -> Result<(), ServiceError> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ServiceError::Io("server closed the connection".into()));
        }
        let (id, payload) = protocol::split_reply_tag(&reply)?;
        let Some(id) = id else {
            return Err(ServiceError::Protocol(format!(
                "untagged reply on a pipelined connection: `{}`",
                payload.trim_end()
            )));
        };
        if !self.pending.remove(&id) {
            return Err(ServiceError::Protocol(format!("reply for unknown id {id}")));
        }
        self.ready.insert(id, payload);
        Ok(())
    }

    /// Submits every request, then collects the results in request
    /// order: the whole batch rides the window, so the server sees it
    /// as one burst. Per-request failures come back in the `Vec`;
    /// transport failure fails the call.
    pub fn run_batch(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, ServiceError>>, ServiceError> {
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|r| self.submit(r))
            .collect::<Result<_, _>>()?;
        tickets
            .into_iter()
            .map(|t| match self.wait_line(t) {
                Ok(line) => Ok(protocol::decode_result(&line)),
                Err(e) => Err(e),
            })
            .collect()
    }
}

impl Drop for Pipeline {
    /// Best-effort drain: collect outstanding replies (briefly) so the
    /// socket closes cleanly instead of resetting under the server's
    /// in-flight completions.
    fn drop(&mut self) {
        if self.pending.is_empty() || self.writer.flush().is_err() {
            return;
        }
        let _ = self
            .reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(2)));
        while !self.pending.is_empty() {
            if self.stash_one().is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::engine::{Engine, EngineConfig};
    use crate::server::Server;
    use ppr_core::methods::Method;
    use ppr_query::Database;

    fn serve() -> (Server, std::net::SocketAddr, Engine) {
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        let engine = Engine::start(Catalog::with_default(db), EngineConfig::default());
        let server = Server::builder()
            .addr("127.0.0.1:0")
            .engine(engine.handle())
            .start()
            .expect("bind");
        let addr = server.local_addr();
        (server, addr, engine)
    }

    #[test]
    fn round_trips_over_tcp() {
        let (mut server, addr, engine) = serve();
        let mut client = Client::connect(addr).unwrap();
        client.ping().unwrap();

        let req = Request::new("q(x, y) :- edge(x, y), edge(y, x)", Method::EarlyProjection);
        let first = client.run(&req).unwrap();
        assert!(!first.cache_hit);
        assert!(!first.result_cache_hit);
        assert_eq!(first.columns, vec!["x", "y"]);
        // K3 is symmetric: every ordered pair of distinct colors.
        assert_eq!(first.rows.len(), 6);

        let second = client.run(&req).unwrap();
        assert!(second.cache_hit, "repeat request must skip planning");
        assert!(second.result_cache_hit, "…via the result cache");
        assert_eq!(first.rows, second.rows);

        let stats = client.stats().unwrap();
        assert_eq!(stats.served, 2);
        assert_eq!(stats.results.hits, 1);
        assert_eq!(stats.results.misses, 1);
        assert_eq!(stats.cache.misses, 1, "only the cold request planned");

        let bad = client.run(&Request::new("nope", Method::Naive));
        assert!(matches!(bad, Err(ServiceError::Parse(_))));

        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn pipeline_round_trips_out_of_order() {
        let (mut server, addr, engine) = serve();
        let mut pipe = Pipeline::connect(addr).unwrap();
        assert!(pipe.window() >= 1);

        let reqs: Vec<Request> = [
            "q(x, y) :- edge(x, y), edge(y, x)",
            "q() :- edge(a, b), edge(b, c)",
            "q(x) :- edge(x, y), edge(y, z), edge(z, x)",
        ]
        .iter()
        .map(|r| Request::new(*r, Method::EarlyProjection))
        .collect();

        // Serial ground truth over the same engine.
        let mut serial = Client::connect(addr).unwrap();
        let expected: Vec<Response> = reqs.iter().map(|r| serial.run(r).unwrap()).collect();

        let tickets: Vec<Ticket> = reqs.iter().map(|r| pipe.submit(r).unwrap()).collect();
        assert_eq!(pipe.in_flight(), 3);
        // Redeem in reverse order: the stash demuxes whatever arrives.
        for (ticket, want) in tickets.into_iter().zip(&expected).rev() {
            let got = pipe.wait(ticket).unwrap();
            assert_eq!(got.rows, want.rows);
            assert_eq!(got.columns, want.columns);
        }
        assert_eq!(pipe.in_flight(), 0);

        // A ticket redeems exactly once.
        let t = pipe.submit(&reqs[0]).unwrap();
        pipe.wait(t).unwrap();
        assert!(matches!(pipe.wait(t), Err(ServiceError::Protocol(_))));

        // run_batch keeps request order regardless of completion order.
        let batch = pipe.run_batch(&reqs).unwrap();
        assert_eq!(batch.len(), 3);
        for (got, want) in batch.iter().zip(&expected) {
            assert_eq!(got.as_ref().unwrap().rows, want.rows);
        }

        // Per-request errors ride inside the batch.
        let mixed = pipe
            .run_batch(&[
                reqs[0].clone(),
                Request::new("nope", Method::Naive),
                reqs[1].clone(),
            ])
            .unwrap();
        assert!(mixed[0].is_ok());
        assert!(matches!(mixed[1], Err(ServiceError::Parse(_))));
        assert!(mixed[2].is_ok());

        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn pipeline_submits_past_the_window_without_deadlock() {
        let (mut server, addr, engine) = serve();
        let mut pipe = Pipeline::connect(addr).unwrap();
        let req = Request::new("q() :- edge(a, b), edge(b, c)", Method::Straightforward);
        let n = pipe.window() * 2 + 3;
        let reqs = vec![req; n];
        let results = pipe.run_batch(&reqs).unwrap();
        assert_eq!(results.len(), n);
        assert!(results.iter().all(|r| r.is_ok()));
        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn pipelined_use_orders_against_surrounding_runs() {
        let (mut server, addr, engine) = serve();
        let mut setup = Client::connect(addr).unwrap();
        setup.create_db("left").unwrap();
        setup
            .load("left", "e", vec![vec![1, 1].into_boxed_slice()])
            .unwrap();
        setup.create_db("right").unwrap();
        setup
            .load(
                "right",
                "e",
                vec![vec![1, 1].into_boxed_slice(), vec![2, 2].into_boxed_slice()],
            )
            .unwrap();

        let mut pipe = Pipeline::connect(addr).unwrap();
        let req = Request::query("q(x) :- e(x, y)").method(Method::Straightforward);
        let u1 = pipe.submit_use("left").unwrap();
        let a = pipe.submit(&req).unwrap();
        let u2 = pipe.submit_use("right").unwrap();
        let b = pipe.submit(&req).unwrap();
        // Session switches take effect in submission order even though
        // everything is in flight at once.
        assert_eq!(pipe.wait(b).unwrap().rows.len(), 2);
        assert_eq!(pipe.wait(a).unwrap().rows.len(), 1);
        assert_eq!(pipe.wait_ack(u1).unwrap().db, "left");
        assert_eq!(pipe.wait_ack(u2).unwrap().db, "right");

        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn trace_slowlog_and_span_stats_over_tcp() {
        let (mut server, addr, engine) = serve();
        let mut client = Client::connect(addr).unwrap();

        let req = Request::new("q(x, y) :- edge(x, y), edge(y, x)", Method::EarlyProjection);
        let cold = client.trace(&req).unwrap();
        assert!(!cold.result_cache_hit);
        assert_eq!(cold.rows, 6, "K3 symmetric pairs");
        assert!(cold.tuples_flowed > 0, "cold trace executed");
        assert!(
            cold.spans.total() <= cold.total_us,
            "span sum {} must not exceed wall time {}",
            cold.spans.total(),
            cold.total_us
        );

        // The repeat is a result-cache hit: exec span zero, flagged.
        let warm = client.trace(&req).unwrap();
        assert!(warm.result_cache_hit);
        assert_eq!(warm.spans.get(ppr_obs::Phase::Exec), 0);
        assert_eq!(warm.spans.get(ppr_obs::Phase::Plan), 0);

        // Both traced requests landed in the shared histograms.
        let stats = client.stats().unwrap();
        assert_eq!(stats.spans.total.count, 2);
        assert_eq!(
            stats.spans.phase[ppr_obs::Phase::Exec as usize].count,
            2,
            "every completion records every phase"
        );

        // The slow-query log saw both, slowest first, with the shared
        // identity (same db/fingerprint) and outcome vocabulary.
        let log = client.slowlog().unwrap();
        assert_eq!(log.len(), 2);
        assert!(log[0].total_us >= log[1].total_us);
        assert_eq!(log[0].fingerprint, log[1].fingerprint);
        assert!(log.iter().all(|e| e.outcome == "ok"));

        // A failed request shows up with its error kind as the outcome.
        let _ = client.run(&Request::new("q() :- nope(x, y)", Method::Naive));
        let log = client.slowlog().unwrap();
        assert_eq!(
            log.len(),
            2,
            "no identity before fingerprinting → not logged"
        );
        // A fresh query (no cached result to bypass the budget) that
        // cannot fit one tuple of flow.
        let heavy = Request::new(
            "q() :- edge(a, b), edge(b, c), edge(c, d)",
            Method::Straightforward,
        )
        .max_tuples(1);
        let _ = client.run(&heavy);
        let log = client.slowlog().unwrap();
        assert!(
            log.iter().any(|e| e.outcome == "budget"),
            "{:?}",
            log.iter().map(|e| e.outcome.clone()).collect::<Vec<_>>()
        );

        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn multiple_clients_share_one_cache() {
        let (mut server, addr, engine) = serve();
        let req = Request::new("q() :- edge(a, b), edge(b, c)", Method::Straightforward);
        let mut c1 = Client::connect(addr).unwrap();
        let mut c2 = Client::connect(addr).unwrap();
        assert!(!c1.run(&req).unwrap().cache_hit);
        assert!(
            c2.run(&req).unwrap().cache_hit,
            "caches are engine-wide, not per-connection"
        );
        server.shutdown();
        engine.shutdown();
    }

    #[test]
    fn session_database_lifecycle_over_tcp() {
        let (mut server, addr, engine) = serve();
        let mut client = Client::connect(addr).unwrap();

        let v1 = client.create_db("graphs").unwrap();
        let v2 = client
            .load(
                "graphs",
                "e",
                vec![
                    vec![1, 2].into_boxed_slice(),
                    vec![2, 3].into_boxed_slice(),
                    vec![3, 1].into_boxed_slice(),
                ],
            )
            .unwrap();
        assert!(v2 > v1, "load must bump the version");

        // `use` routes subsequent runs at the session database.
        client.use_db("graphs").unwrap();
        let req = Request::query("q() :- e(x,y), e(y,z), e(z,x)").method(Method::Straightforward);
        let triangle = client.run(&req).unwrap();
        assert!(!triangle.rows.is_empty(), "the 3-cycle is a triangle");

        // Another connection has its own session: the same run without a
        // db targets `default`, which has no relation `e`.
        let mut other = Client::connect(addr).unwrap();
        assert!(matches!(
            other.run(&req),
            Err(ServiceError::MissingRelation(_))
        ));
        // …but an explicit db= reaches it from any connection.
        let explicit = other.run(&req.clone().on("graphs")).unwrap();
        assert_eq!(explicit.rows, triangle.rows);

        // Mutations invalidate by version bump.
        let v3 = client
            .add("graphs", "e", vec![9, 9].into_boxed_slice())
            .unwrap();
        assert!(v3 > v2);
        assert!(!client.run(&req).unwrap().result_cache_hit);

        // Drop: the session falls back to default, named access fails.
        client.drop_db("graphs").unwrap();
        assert!(matches!(
            other.run(&req.clone().on("graphs")),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(matches!(
            client.run(&req),
            Err(ServiceError::MissingRelation(_))
        ));

        // Errors from catalog verbs are typed.
        assert!(matches!(
            client.use_db("graphs"),
            Err(ServiceError::UnknownDatabase(_))
        ));
        assert!(matches!(
            client.add("default", "edge", vec![1].into_boxed_slice()),
            Err(ServiceError::Catalog(_))
        ));
        // An empty load is unrepresentable on the wire: the protocol
        // rejects it before the catalog ever sees it.
        assert!(matches!(
            client.load("default", "edge", vec![]),
            Err(ServiceError::Protocol(_))
        ));

        server.shutdown();
        engine.shutdown();
    }
}
