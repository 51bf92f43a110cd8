//! The blocking TCP client for the line protocol: [`Client`] speaks
//! protocol v1, one untagged request in flight at a time.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ppr_relalg::Value;

use ppr_obs::SlowEntry;

use crate::catalog::{DbInfo, DbVersion};
use crate::engine::{EngineStats, ExplainMode, Request, Response};
use crate::protocol::{self, Ack, Command, ExplainReport, TraceReport};
use crate::ServiceError;

/// A connected client. One request is in flight at a time per client;
/// open more clients for concurrency. Pipelining (protocol v2, tagged
/// requests) is a wire feature, described in `docs/PROTOCOL.md` §7.2.
///
/// ```no_run
/// # fn main() -> Result<(), ppr_service::ServiceError> {
/// use ppr_service::{Client, Request};
/// let mut client = Client::connect("127.0.0.1:7171")?;
/// let reply = client.run(&Request::query("q() :- edge(x,y), edge(y,x)"))?;
/// println!("{} rows", reply.rows.len());
/// # Ok(()) }
/// ```
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
    /// mutation bumps the version; a content change invalidates the
    /// cached plans and results of the queries that read the relation.
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
    fn trace_and_explain_count_the_rows_run_returns() {
        let (mut server, addr, engine) = serve();
        let mut client = Client::connect(addr).unwrap();
        let req = Request::new("q(x, y) :- edge(x, y), edge(y, x)", Method::EarlyProjection);
        // Explain bypasses the result cache: this one runs before any
        // result is cached, the one at the end after.
        let cold = client.explain(&req, ExplainMode::Analyze).unwrap();
        // A fresh result: the trace executes and caches it…
        let fresh = client.trace(&req).unwrap();
        assert!(!fresh.result_cache_hit);
        let run = client.run(&req).unwrap();
        assert!(run.result_cache_hit, "…so the run after it is a hit");
        let hit = client.trace(&req).unwrap();
        assert!(hit.result_cache_hit);
        let warm = client.explain(&req, ExplainMode::Analyze).unwrap();
        let rows = run.rows.len() as u64;
        assert_eq!(rows, 6);
        assert_eq!([cold.rows, fresh.rows, hit.rows, warm.rows], [rows; 4]);
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
        assert!(cold.digest.tuples_flowed > 0, "cold trace executed");
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

    #[test]
    fn a_renamed_hit_replies_with_the_requests_own_columns() {
        let (mut server, addr, engine) = serve();
        let mut client = Client::connect(addr).unwrap();
        let mut run = |rule: &str| {
            client
                .run(&Request::new(rule, Method::Straightforward))
                .unwrap()
        };
        let first = run("q(a, b) :- edge(a, b), edge(b, a)");
        let renamed = run("q(x, y) :- edge(x, y), edge(y, x)");
        assert!(renamed.result_cache_hit, "a renaming is the same entry");
        assert_eq!(first.columns, ["a", "b"]);
        assert_eq!(
            renamed.columns,
            ["x", "y"],
            "cols= names this request's head"
        );
        assert_eq!(renamed.rows, first.rows);
        server.shutdown();
        engine.shutdown();
    }
}
