//! The harness's own wire loop: one v2 connection, a fixed number of
//! tagged requests in flight, every reply decoded and checked.
//!
//! Closed loop: a slot is refilled only when its reply has been decoded,
//! as an application waiting for its answer would. Only the codec
//! functions of `ppr_service::protocol` are used; the socket handling is
//! std's `TcpStream`, so the client under the benchmark is not the
//! `Client`/`Pipeline` the repo ships (and may change).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ppr_service::protocol::{
    decode_hello_ok, encode_command, split_reply_tag, tag_request, Command, LineFramer,
};

use crate::workloads::{decode_reply, Op, Stream};

pub struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    buf: Vec<u8>,
    next_id: u64,
}

fn bad_data(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Conn {
    /// Connects and negotiates protocol v2; fails if the server's window
    /// is smaller than `depth` (the loop would then measure backpressure).
    pub fn connect(addr: SocketAddr, depth: usize) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let mut conn = Conn {
            stream,
            framer: LineFramer::new(),
            buf: vec![0; 1 << 16],
            next_id: 1,
        };
        conn.stream.write_all(b"hello proto=2\n")?;
        let ack = decode_hello_ok(&conn.read_line()?).map_err(bad_data)?;
        if ack.window < depth {
            return Err(bad_data(format!(
                "server window {} < depth {depth}",
                ack.window
            )));
        }
        Ok(conn)
    }

    /// Blocks until one whole line has arrived.
    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.framer.next_line().map_err(bad_data)? {
                return Ok(line);
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.framer.push(&self.buf[..n]);
        }
    }

    /// One tagged request at depth 1; returns the untagged reply payload.
    pub fn call(&mut self, command: &Command) -> io::Result<String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = tag_request(id, &encode_command(command));
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        let (tag, payload) = split_reply_tag(&self.read_line()?).map_err(bad_data)?;
        if tag != Some(id) {
            return Err(bad_data(format!("reply tagged {tag:?}, expected {id}")));
        }
        Ok(payload)
    }
}

/// When a [`drive`] call stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Ops(u64),
    Time(Duration),
}

/// One finished request.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    pub write: bool,
    /// Completion time, µs since the loop started.
    pub done_us: f64,
    /// Submit (before encoding) → reply decoded, µs.
    pub latency_us: f64,
}

/// Timestamps of one traced request, ns since the loop started. They
/// bound the root span `request` and its children `client.encode`
/// (`start..encoded`), `wire.wait` (`encoded..received`) and
/// `client.decode` (`received..decoded`).
#[derive(Debug, Clone, Copy)]
pub struct TraceRecord {
    pub id: u64,
    pub start: u64,
    pub encoded: u64,
    pub received: u64,
    pub decoded: u64,
}

/// A reading taken at a slice boundary of a timed loop.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub at_us: f64,
    pub server_cpu_s: f64,
    pub completed: usize,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub wall_s: f64,
    pub completions: Vec<Completion>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Start, every slice boundary crossed, and end.
    pub ticks: Vec<Tick>,
    pub trace: Vec<TraceRecord>,
}

struct Pending {
    op: Op,
    start: Instant,
    encoded: Instant,
}

/// Runs the closed loop at `depth` until `limit`, then drains. `slices`
/// splits a timed loop into equal parts, `server_cpu` being read at each
/// boundary; `trace` keeps per-request timestamps.
pub fn drive(
    conn: &mut Conn,
    stream: &mut Stream,
    depth: usize,
    limit: Limit,
    slices: usize,
    trace: bool,
    server_cpu: &dyn Fn() -> f64,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(2 * depth);
    let mut batch: Vec<u8> = Vec::new();
    let t0 = Instant::now();
    let since = |t: Instant| t.duration_since(t0);
    let slice_len = match limit {
        Limit::Time(d) => d / slices.max(1) as u32,
        Limit::Ops(_) => Duration::MAX,
    };
    let mut next_boundary = slice_len;
    let tick = |out: &mut Outcome, at: Duration| {
        out.ticks.push(Tick {
            at_us: at.as_secs_f64() * 1e6,
            server_cpu_s: server_cpu(),
            completed: out.completions.len(),
        })
    };
    tick(&mut out, Duration::ZERO);
    loop {
        let elapsed = t0.elapsed();
        if elapsed >= next_boundary {
            tick(&mut out, elapsed);
            while next_boundary <= elapsed {
                next_boundary = next_boundary.saturating_add(slice_len);
            }
        }
        let open = |attempted: u64| match limit {
            Limit::Ops(n) => attempted < n,
            Limit::Time(d) => elapsed < d,
        };
        while pending.len() < depth && open(out.attempted) {
            let op = stream.next_op();
            let id = conn.next_id;
            conn.next_id += 1;
            let start = Instant::now();
            let line = tag_request(id, &encode_command(&op.command));
            batch.extend_from_slice(line.as_bytes());
            batch.push(b'\n');
            let encoded = if trace { Instant::now() } else { start };
            pending.insert(id, Pending { op, start, encoded });
            out.attempted += 1;
        }
        if !batch.is_empty() {
            conn.stream.write_all(&batch)?;
            batch.clear();
        }
        if pending.is_empty() {
            break;
        }
        let mut line = conn.read_line()?;
        loop {
            let received = Instant::now();
            let (tag, payload) = split_reply_tag(&line).map_err(bad_data)?;
            let entry = tag
                .and_then(|id| pending.remove(&id).map(|p| (id, p)))
                .ok_or_else(|| bad_data(format!("unexpected reply `{line}`")))?;
            let (id, p) = entry;
            let reply = decode_reply(&p.op, &payload);
            let decoded = Instant::now();
            if let Err(why) = stream.verify(&p.op, &reply) {
                out.failed += 1;
                if out.failures.len() < 5 {
                    out.failures
                        .push(format!("{why}: {}", encode_command(&p.op.command)));
                }
            }
            out.completions.push(Completion {
                write: p.op.is_write(),
                done_us: since(decoded).as_secs_f64() * 1e6,
                latency_us: decoded.duration_since(p.start).as_secs_f64() * 1e6,
            });
            if trace {
                out.trace.push(TraceRecord {
                    id,
                    start: since(p.start).as_nanos() as u64,
                    encoded: since(p.encoded).as_nanos() as u64,
                    received: since(received).as_nanos() as u64,
                    decoded: since(decoded).as_nanos() as u64,
                });
            }
            // Drain whatever else the same read delivered before refilling.
            match conn.framer.next_line().map_err(bad_data)? {
                Some(next) => line = next,
                None => break,
            }
        }
    }
    let wall = t0.elapsed();
    tick(&mut out, wall);
    out.wall_s = wall.as_secs_f64();
    Ok(out)
}
