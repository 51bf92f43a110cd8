//! An epoll-based load driver: thousands of pipelined v2 connections
//! from one thread.
//!
//! The C10K end-to-end test and `ppr client --connections` both need to
//! *hold* 1k–10k concurrent connections against a server — impossible
//! with a thread per connection on the driving side without perturbing
//! the very measurement being taken. This driver reuses the server's own
//! epoll plumbing (the private `net::sys` bindings) from the client side:
//! every connection performs the `hello proto=2` upgrade, keeps up to
//! `window` tagged requests in flight (capped by the server's advertised
//! window), and per-request latency is clocked from enqueue to tagged
//! reply.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::protocol::{self, LineFramer};

use super::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// What to drive and how hard.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Concurrent connections to hold open.
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Per-connection pipeline depth (clamped by the server's
    /// advertised window).
    pub window: usize,
    /// Untagged request lines to cycle through (the driver tags them).
    pub lines: Vec<String>,
    /// Give up if the run has not completed within this budget.
    pub deadline: Duration,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            connections: 1,
            requests: 1024,
            window: 32,
            lines: vec!["ping".to_string()],
            deadline: Duration::from_secs(120),
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Connections held open.
    pub connections: usize,
    /// Requests completed (tagged replies received).
    pub requests: u64,
    /// Replies that were wire-level errors (`err …`).
    pub errors: u64,
    /// Wall-clock duration of the request phase.
    pub elapsed: Duration,
    /// Completed requests per second of wall clock.
    pub reqs_per_sec: f64,
    /// Median request latency (enqueue → tagged reply), microseconds.
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
}

struct LoadConn {
    stream: TcpStream,
    framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    interest: u32,
    /// Tagged ids in flight, with their enqueue timestamps.
    inflight: HashMap<u64, Instant>,
    /// Effective pipeline depth after the server's hello ack.
    window: usize,
    hello_done: bool,
    next_id: u64,
    /// Requests this connection still has to issue.
    quota: usize,
    /// Round-robin cursor into `lines`.
    cursor: usize,
}

/// Runs the load and reports throughput + latency percentiles.
///
/// Latencies are exact (recorded per request and sorted), not bucketed:
/// with bench-scale request counts the memory cost is trivial and the
/// p99 is a real sample, not a bucket upper bound.
pub fn run_load(addr: SocketAddr, opts: &LoadOptions) -> std::io::Result<LoadReport> {
    if opts.connections == 0 || opts.requests == 0 || opts.lines.is_empty() {
        return Err(std::io::Error::other(
            "load needs connections, requests, and lines",
        ));
    }
    let epoll = Epoll::new()?;
    let mut conns: Vec<LoadConn> = Vec::with_capacity(opts.connections);
    // Sequential blocking connects pace the server's accept loop; each
    // connection's hello goes out through the loop like any other write.
    for i in 0..opts.connections {
        let stream = TcpStream::connect(addr)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let quota =
            opts.requests / opts.connections + usize::from(i < opts.requests % opts.connections);
        let mut conn = LoadConn {
            stream,
            framer: LineFramer::new(),
            out: b"hello proto=2\n".to_vec(),
            out_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP | EPOLLOUT,
            inflight: HashMap::new(),
            window: opts.window.max(1),
            hello_done: false,
            next_id: 1,
            quota,
            cursor: i % opts.lines.len(),
        };
        epoll.add(conn.stream.as_raw_fd(), conn.interest, i as u64)?;
        let _ = flush(&mut conn);
        conns.push(conn);
    }

    let started = Instant::now();
    let hard_deadline = started + opts.deadline;
    let mut latencies: Vec<u64> = Vec::with_capacity(opts.requests);
    let mut errors = 0u64;
    let mut completed = 0u64;
    let target = opts.requests as u64;
    let mut events = vec![
        EpollEvent {
            events: 0,
            token: 0
        };
        1024
    ];

    while completed < target {
        if Instant::now() >= hard_deadline {
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "load run incomplete after {:?}: {completed}/{target} replies",
                    opts.deadline
                ),
            ));
        }
        let n = epoll.wait(&mut events, 100)?;
        for ev in events.iter().take(n).copied() {
            let slot = ev.token as usize;
            let conn = &mut conns[slot];
            if ev.events & (EPOLLERR | EPOLLHUP) != 0 {
                return Err(std::io::Error::other(format!(
                    "connection {slot} failed mid-run"
                )));
            }
            if ev.events & EPOLLOUT != 0 {
                flush(conn)?;
            }
            if ev.events & (EPOLLIN | EPOLLRDHUP) != 0 {
                read_replies(conn, &mut latencies, &mut errors, &mut completed)?;
            }
            pump(conn, &opts.lines)?;
            let want = desired(conn);
            if want != conn.interest {
                epoll.modify(conn.stream.as_raw_fd(), want, ev.token)?;
                conn.interest = want;
            }
        }
    }
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    let pct = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    Ok(LoadReport {
        connections: opts.connections,
        requests: completed,
        errors,
        elapsed,
        reqs_per_sec: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    })
}

fn desired(conn: &LoadConn) -> u32 {
    let mut want = EPOLLIN | EPOLLRDHUP;
    if conn.out_pos < conn.out.len() {
        want |= EPOLLOUT;
    }
    want
}

/// Tops the connection's pipeline up to its window.
fn pump(conn: &mut LoadConn, lines: &[String]) -> std::io::Result<()> {
    if !conn.hello_done {
        return Ok(());
    }
    while conn.quota > 0 && conn.inflight.len() < conn.window {
        let id = conn.next_id;
        conn.next_id += 1;
        let line = protocol::tag_request(id, &lines[conn.cursor]);
        conn.cursor = (conn.cursor + 1) % lines.len();
        conn.out.extend_from_slice(line.as_bytes());
        conn.out.push(b'\n');
        conn.inflight.insert(id, Instant::now());
        conn.quota -= 1;
    }
    flush(conn)
}

fn flush(conn: &mut LoadConn) -> std::io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::Error::other("write returned zero")),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    Ok(())
}

fn read_replies(
    conn: &mut LoadConn,
    latencies: &mut Vec<u64>,
    errors: &mut u64,
    completed: &mut u64,
) -> std::io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed a load connection mid-run",
                ))
            }
            Ok(n) => conn.framer.push(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    while let Some(line) = conn
        .framer
        .next_line()
        .map_err(|e| std::io::Error::other(e.to_string()))?
    {
        if !conn.hello_done {
            // First reply is the hello ack: adopt the server's window
            // as the pipeline cap if it is tighter than ours.
            let ack = protocol::decode_hello_ok(&line)
                .map_err(|e| std::io::Error::other(format!("bad hello ack: {e}")))?;
            conn.window = conn.window.min(ack.window.max(1));
            conn.hello_done = true;
            continue;
        }
        let (tag, rest) = protocol::split_reply_tag(&line)
            .map_err(|e| std::io::Error::other(format!("bad reply: {e}")))?;
        let Some(id) = tag else {
            return Err(std::io::Error::other(format!("untagged reply: {line}")));
        };
        let Some(sent) = conn.inflight.remove(&id) else {
            return Err(std::io::Error::other(format!("unexpected reply id {id}")));
        };
        latencies.push(sent.elapsed().as_micros() as u64);
        if rest.starts_with("err") {
            *errors += 1;
        }
        *completed += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::engine::{Engine, EngineConfig, Request};
    use crate::server::Server;
    use ppr_core::methods::Method;
    use ppr_query::Database;

    #[test]
    fn load_driver_round_trips_pipelined_connections() {
        let mut db = Database::new();
        db.add(ppr_workload::edge_relation(3));
        let engine = Engine::start(Catalog::with_default(db), EngineConfig::default());
        let mut server = Server::builder()
            .addr("127.0.0.1:0")
            .engine(engine.handle())
            .start()
            .expect("server starts");
        let req = Request::new("q(x, y) :- edge(x, y), edge(y, x)", Method::EarlyProjection);
        // 8 connections × window 4 = 32 in flight, well under the default
        // engine's admission cap — every reply must be a clean `ok`.
        // (Larger aggregate windows can legitimately see `Overloaded`:
        // safe_window protects one connection, not a fleet.)
        let opts = LoadOptions {
            connections: 8,
            requests: 200,
            window: 4,
            lines: vec![protocol::encode_request(&req)],
            deadline: Duration::from_secs(30),
        };
        let report = run_load(server.local_addr(), &opts).expect("load completes");
        assert_eq!(report.requests, 200);
        assert_eq!(report.errors, 0, "no wire errors expected");
        assert!(report.p50_us <= report.p99_us);
        assert!(report.reqs_per_sec > 0.0);
        server.shutdown();
        engine.shutdown();
    }
}
