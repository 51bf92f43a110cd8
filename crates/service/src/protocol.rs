//! The newline-delimited wire format: encoding and decoding.
//!
//! **The protocol specification lives in `docs/PROTOCOL.md` (repository
//! root) — the one source of truth** for the grammar (v1 untagged and v2
//! tagged), every verb, the full `err kind=` matrix, and worked serial
//! and pipelined sessions. In one breath: one UTF-8 request per line, one
//! response line per request; a v2 client may tag requests with `id=` and
//! keep many in flight, and the server echoes the tag on every `ok`/`err`
//! line while completing them out of order.

use ppr_core::methods::Method;
use ppr_obs::{OpKind, OpNode, PassSpan, Phase, Quantiles, SlowEntry, TraceSpans, PHASES};
use ppr_relalg::budget::BudgetKind;
use ppr_relalg::{ExecStats, RelalgError, Value};
use std::fmt::Write as _;
use std::time::Duration;

use crate::catalog::{DbFingerprint, DbInfo, DbVersion};
use crate::engine::{EngineStats, ExplainMode, Request, Response};
use crate::ServiceError;

/// Hard cap on accepted line length (1 MiB): a wire peer cannot make the
/// server buffer unboundedly.
pub const MAX_LINE: usize = 1 << 20;

/// Highest protocol version this build speaks. v1 is the untagged
/// serial protocol; v2 adds `id=` tags and out-of-order completion.
pub const PROTO_VERSION: u32 = 2;

/// Incremental newline framing over a byte stream.
///
/// The event loop and the load driver feed whatever the socket produced
/// — a partial line, many lines, or a line split across reads — into
/// [`push`] and pull complete lines out of [`next_line`]. The framer enforces
/// [`MAX_LINE`] on the *unterminated* tail, so a peer cannot make the
/// server buffer unboundedly by never sending a newline, and it scans
/// each byte exactly once (the scan cursor survives partial pushes, so
/// re-polling a half-line is O(new bytes), not O(buffer)).
///
/// [`push`]: LineFramer::push
/// [`next_line`]: LineFramer::next_line
#[derive(Debug, Default)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes below this index are known newline-free.
    scanned: usize,
}

impl LineFramer {
    /// An empty framer.
    pub fn new() -> LineFramer {
        LineFramer::default()
    }

    /// Appends freshly read bytes to the frame buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete line (without its newline; lossy UTF-8),
    /// `Ok(None)` if no full line is buffered yet, or a protocol error
    /// once the unterminated tail exceeds [`MAX_LINE`].
    pub fn next_line(&mut self) -> Result<Option<String>, ServiceError> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(offset) => {
                let nl = self.scanned + offset;
                let line = String::from_utf8_lossy(&self.buf[..nl]).into_owned();
                self.buf.drain(..=nl);
                self.scanned = 0;
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buf.len() > MAX_LINE {
                    perr("line too long")
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Bytes buffered without a terminating newline yet.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// A decoded client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Evaluate a query.
    Run(Request),
    /// Select the connection's session database.
    Use(String),
    /// Create a new empty database.
    Create(String),
    /// Remove a database (in-flight snapshots finish unaffected).
    Drop(String),
    /// Replace one relation of a database with the given tuples.
    Load {
        /// Target database.
        db: String,
        /// Relation name.
        rel: String,
        /// The relation's new contents (must be non-empty and
        /// arity-consistent).
        tuples: Vec<Box<[Value]>>,
    },
    /// Append one tuple to a relation (created on first `add`).
    Add {
        /// Target database.
        db: String,
        /// Relation name.
        rel: String,
        /// The tuple to append.
        tuple: Box<[Value]>,
    },
    /// Report engine + cache counters.
    Stats,
    /// Evaluate a query and return its per-phase span breakdown instead
    /// of the rows — same grammar as `run`, different reply shape.
    Trace(Request),
    /// Explain a query: `run`'s grammar after a `plan`/`analyze` mode
    /// word, replied to with the optimizer pass trace and operator tree.
    /// The mode rides on [`Request::explain`] (never
    /// [`ExplainMode::None`] for a decoded command).
    Explain(Request),
    /// Report the slow-query log (worst-N by latency).
    SlowLog,
    /// List the catalog's databases with their versions, content
    /// fingerprints, and relation counts.
    Dbs,
    /// Liveness check.
    Ping,
    /// Protocol negotiation: the highest version the client speaks.
    /// v1 clients never send this, which is the whole compatibility
    /// story — a connection is serial-untagged until `hello proto=2`.
    Hello {
        /// Highest protocol version the client speaks (≥ 2; v1 has no
        /// `hello`).
        proto: u32,
    },
}

/// Acknowledgement of a catalog verb: the database acted on and its
/// version after the mutation (`None` for `drop`, which leaves no
/// version behind).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack {
    /// Database the verb acted on.
    pub db: String,
    /// The database's version after the mutation.
    pub version: Option<DbVersion>,
}

fn perr<T>(msg: impl Into<String>) -> Result<T, ServiceError> {
    Err(ServiceError::Protocol(msg.into()))
}

/// Database and relation names: non-empty, alphanumeric plus `_` `-` `.`
/// — no whitespace or `=`, so names never collide with the line syntax.
fn check_name(kind: &str, name: &str) -> Result<(), ServiceError> {
    if name.is_empty() {
        return perr(format!("empty {kind} name"));
    }
    if let Some(c) = name
        .chars()
        .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')))
    {
        return perr(format!("bad character `{c}` in {kind} name `{name}`"));
    }
    Ok(())
}

/// An upper bound on the bytes [`push_tuples`] appends: every value as
/// wide as the bitwise OR of them all (no narrower than the widest), each
/// followed by one separator.
fn tuples_len_bound(tuples: &[Box<[Value]>]) -> usize {
    let (mut count, mut any) = (0, 0);
    for row in tuples {
        count += row.len();
        any = row.iter().fold(any, |acc, &v| acc | v);
    }
    count * (any.checked_ilog10().map_or(1, |d| d as usize + 1) + 1)
}

/// Appends `v,v;v,v` — the one tuple writer, for replies and commands
/// alike. Each value's leading digit goes straight into `out`; the lower
/// ones, peeled off least significant first, wait in a stack buffer.
fn push_tuples(out: &mut String, tuples: &[Box<[Value]>]) {
    for (i, row) in tuples.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        for (j, &v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let mut low = [0u8; 9];
            let (mut at, mut rest) = (low.len(), v);
            while rest >= 10 {
                at -= 1;
                low[at] = b'0' + (rest % 10) as u8;
                rest /= 10;
            }
            out.push(char::from(b'0' + rest as u8));
            for &digit in &low[at..] {
                out.push(char::from(digit));
            }
        }
    }
}

/// Reads `v,v;v,v`. A value is whatever `str::parse::<u32>` takes: runs of
/// one to nine ASCII digits (which cannot overflow) are read byte by byte,
/// and any other token — empty, signed, longer — is `parse`'s call.
fn decode_tuples(text: &str) -> Result<Vec<Box<[Value]>>, ServiceError> {
    let mut tuples = Vec::new();
    let mut row: Vec<Value> = Vec::new();
    for tup in text.split(';') {
        for tok in tup.as_bytes().split(|&b| b == b',') {
            if (1..=9).contains(&tok.len()) && tok.iter().all(u8::is_ascii_digit) {
                row.push(tok.iter().fold(0, |v, b| v * 10 + Value::from(b - b'0')));
                continue;
            }
            match std::str::from_utf8(tok).ok().and_then(|t| t.parse().ok()) {
                Some(value) => row.push(value),
                None => return perr(format!("bad tuple `{tup}`")),
            }
        }
        tuples.push(Box::from(row.as_slice()));
        row.clear();
    }
    Ok(tuples)
}

/// Encodes a request as one `run` line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    encode_request_line("run", req)
}

/// Encodes a request as one `trace` line — `run`'s grammar, the trace
/// reply shape.
pub fn encode_trace(req: &Request) -> String {
    encode_request_line("trace", req)
}

/// Encodes a request as one `explain` line: the mode word
/// (`plan`/`analyze`, from [`Request::explain`]) then `run`'s grammar.
/// A request still at [`ExplainMode::None`] encodes as `plan` — the
/// cheaper mode is the safer default for a caller that forgot to pick.
pub fn encode_explain(req: &Request) -> String {
    let mode = match req.explain {
        ExplainMode::Analyze => "analyze",
        _ => "plan",
    };
    encode_request_line(&format!("explain {mode}"), req)
}

fn encode_request_line(verb: &str, req: &Request) -> String {
    let mut line = String::from(verb);
    if let Some(db) = &req.db {
        line.push_str(&format!(" db={db}"));
    }
    line.push_str(&format!(" method={}", req.method.name()));
    if let Some(t) = req.max_tuples {
        line.push_str(&format!(" max_tuples={t}"));
    }
    if let Some(ms) = req.timeout_ms {
        line.push_str(&format!(" timeout_ms={ms}"));
    }
    if let Some(s) = req.seed {
        line.push_str(&format!(" seed={s}"));
    }
    line.push_str(" rule=");
    line.push_str(&req.query);
    line
}

/// Encodes any client command as one line (no trailing newline).
pub fn encode_command(cmd: &Command) -> String {
    match cmd {
        Command::Run(req) => encode_request(req),
        Command::Use(db) => format!("use {db}"),
        Command::Create(db) => format!("create {db}"),
        Command::Drop(db) => format!("drop {db}"),
        Command::Load { db, rel, tuples } => {
            let mut line = format!("load {db} {rel} ");
            push_tuples(&mut line, tuples);
            line
        }
        Command::Add { db, rel, tuple } => {
            let mut line = format!("add {db} {rel} ");
            push_tuples(&mut line, std::slice::from_ref(tuple));
            line
        }
        Command::Stats => "stats".to_string(),
        Command::Trace(req) => encode_trace(req),
        Command::Explain(req) => encode_explain(req),
        Command::SlowLog => "slowlog".to_string(),
        Command::Dbs => "dbs".to_string(),
        Command::Ping => "ping".to_string(),
        Command::Hello { proto } => format!("hello proto={proto}"),
    }
}

/// Decodes one client line.
pub fn decode_command(line: &str) -> Result<Command, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if line.len() > MAX_LINE {
        return perr("line too long");
    }
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r),
        None => (line, ""),
    };
    match verb {
        "ping" => Ok(Command::Ping),
        "stats" => Ok(Command::Stats),
        "slowlog" => Ok(Command::SlowLog),
        "dbs" => Ok(Command::Dbs),
        "hello" => {
            let Some(v) = rest.trim().strip_prefix("proto=") else {
                return perr("hello needs proto=");
            };
            let proto: u32 = parse_num("proto", v)?;
            if proto < 2 {
                return perr(format!("hello proto={proto} is below 2 (v1 has no hello)"));
            }
            Ok(Command::Hello { proto })
        }
        "use" | "create" | "drop" => {
            let name = rest.trim();
            check_name("database", name)?;
            Ok(match verb {
                "use" => Command::Use(name.to_string()),
                "create" => Command::Create(name.to_string()),
                _ => Command::Drop(name.to_string()),
            })
        }
        "load" | "add" => {
            let mut parts = rest.split_whitespace();
            let (Some(db), Some(rel), Some(data), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return perr(format!("{verb} needs: {verb} <db> <rel> <tuples>"));
            };
            check_name("database", db)?;
            check_name("relation", rel)?;
            let tuples = decode_tuples(data)?;
            if verb == "load" {
                Ok(Command::Load {
                    db: db.to_string(),
                    rel: rel.to_string(),
                    tuples,
                })
            } else {
                if tuples.len() != 1 {
                    return perr("add takes exactly one tuple");
                }
                Ok(Command::Add {
                    db: db.to_string(),
                    rel: rel.to_string(),
                    tuple: tuples.into_iter().next().unwrap(),
                })
            }
        }
        "run" | "trace" => {
            let req = parse_run_body(verb, rest)?;
            Ok(if verb == "run" {
                Command::Run(req)
            } else {
                Command::Trace(req)
            })
        }
        "explain" => {
            let (mode_word, body) = match rest.split_once(' ') {
                Some((m, b)) => (m, b),
                None => (rest, ""),
            };
            let mode = match mode_word {
                "plan" => ExplainMode::Plan,
                "analyze" => ExplainMode::Analyze,
                other => {
                    return perr(format!(
                        "explain needs a mode word (plan|analyze), got `{other}`"
                    ))
                }
            };
            let req = parse_run_body("explain", body)?;
            Ok(Command::Explain(req.explain(mode)))
        }
        other => perr(format!("unknown verb `{other}`")),
    }
}

/// Parses `run`'s key-value grammar (`[db=] method= [max_tuples=]
/// [timeout_ms=] [seed=] rule=<text>`) — shared by the `run`, `trace`,
/// and `explain` verbs.
fn parse_run_body(verb: &str, rest: &str) -> Result<Request, ServiceError> {
    let Some(rule_at) = rest.find("rule=") else {
        return perr(format!("{verb} line needs rule="));
    };
    let query = rest[rule_at + "rule=".len()..].trim().to_string();
    if query.is_empty() {
        return perr("empty rule");
    }
    let mut method = None;
    let mut db = None;
    let mut max_tuples = None;
    let mut timeout_ms = None;
    let mut seed = None;
    for tok in rest[..rule_at].split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "method" => match Method::parse(v) {
                Some(m) => method = Some(m),
                None => return Err(ServiceError::UnknownMethod(v.to_string())),
            },
            "db" => {
                check_name("database", v)?;
                db = Some(v.to_string());
            }
            "max_tuples" => max_tuples = Some(parse_num(k, v)?),
            "timeout_ms" => timeout_ms = Some(parse_num(k, v)?),
            "seed" => seed = Some(parse_num(k, v)?),
            _ => return perr(format!("unknown key `{k}`")),
        }
    }
    let Some(method) = method else {
        return perr(format!("{verb} line needs method="));
    };
    let mut req = Request::new(query, method);
    req.db = db;
    req.max_tuples = max_tuples;
    req.timeout_ms = timeout_ms;
    req.seed = seed;
    Ok(req)
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, ServiceError> {
    v.parse()
        .map_err(|_| ServiceError::Protocol(format!("bad value for {key}: {v}")))
}

/// Splits the optional v2 pipeline tag off a request line. The tag is
/// always the **first** token after the verb (`run id=7 method=…`,
/// `use id=8 graphs`), so stripping it leaves a line the v1 decoder
/// understands unchanged — one decoder, two protocol versions.
///
/// Returns the id (if present) and the de-tagged line. A malformed id
/// value is a protocol error: the reply for such a line cannot be
/// tagged, so the server answers it untagged.
pub fn split_request_tag(line: &str) -> Result<(Option<u64>, String), ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    let Some((verb, rest)) = line.split_once(' ') else {
        return Ok((None, line.to_string()));
    };
    let (first, tail) = match rest.split_once(' ') {
        Some((f, t)) => (f, Some(t)),
        None => (rest, None),
    };
    let Some(v) = first.strip_prefix("id=") else {
        return Ok((None, line.to_string()));
    };
    let id: u64 = parse_num("id", v)?;
    let stripped = match tail {
        Some(t) => format!("{verb} {t}"),
        None => verb.to_string(),
    };
    Ok((Some(id), stripped))
}

/// Tags a request line with a pipeline id, splicing `id=N` in as the
/// first token after the verb (the inverse of [`split_request_tag`]).
pub fn tag_request(id: u64, line: &str) -> String {
    match line.split_once(' ') {
        Some((verb, rest)) => format!("{verb} id={id} {rest}"),
        None => format!("{line} id={id}"),
    }
}

/// Tags a reply line with the request's id: `ok …` → `ok id=N …`,
/// `err …` → `err id=N …`. The payload after the tag is byte-identical
/// to the untagged reply — pipelining changes ordering, never content.
pub fn tag_reply(id: u64, line: &str) -> String {
    for prefix in ["ok", "err"] {
        if let Some(rest) = line.strip_prefix(prefix) {
            if rest.is_empty() || rest.starts_with(' ') {
                // Sized up front: ` id=` and at most 20 digits on top of
                // a line that may be a whole result set.
                let mut tagged = String::with_capacity(line.len() + 24);
                write!(tagged, "{prefix} id={id}{rest}").expect("a String takes every write");
                return tagged;
            }
        }
    }
    debug_assert!(false, "tag_reply on a non-reply line: `{line}`");
    line.to_string()
}

/// Splits the id tag off a reply line (the inverse of [`tag_reply`]):
/// returns the id, if tagged, and the payload line any v1 decoder
/// (`decode_result`, `decode_ack`, `decode_stats`) understands.
pub fn split_reply_tag(line: &str) -> Result<(Option<u64>, String), ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    for prefix in ["ok ", "err "] {
        let Some(rest) = line.strip_prefix(prefix) else {
            continue;
        };
        let (first, tail) = match rest.split_once(' ') {
            Some((f, t)) => (f, Some(t)),
            None => (rest, None),
        };
        let Some(v) = first.strip_prefix("id=") else {
            break;
        };
        let id: u64 = parse_num("id", v)?;
        let payload = match tail {
            Some(t) => format!("{}{t}", prefix),
            None => prefix.trim_end().to_string(),
        };
        return Ok((Some(id), payload));
    }
    Ok((None, line.to_string()))
}

/// The server's answer to `hello`: the negotiated protocol version and
/// the per-connection in-flight window (how many tagged requests may be
/// outstanding before the server stops reading — backpressure, not
/// rejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Negotiated protocol version (`min(client, PROTO_VERSION)`).
    pub proto: u32,
    /// Per-connection in-flight window size.
    pub window: usize,
}

/// Encodes the handshake acceptance line.
pub fn encode_hello_ok(ack: &HelloAck) -> String {
    format!("ok proto={} window={}", ack.proto, ack.window)
}

/// Decodes the server's `hello` reply.
pub fn decode_hello_ok(line: &str) -> Result<HelloAck, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected hello ack, got `{line}`"));
    };
    let mut proto = None;
    let mut window = None;
    for tok in rest.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "proto" => proto = Some(parse_num(k, v)?),
            "window" => window = Some(parse_num(k, v)?),
            _ => return perr(format!("unknown key `{k}`")),
        }
    }
    match (proto, window) {
        (Some(proto), Some(window)) => Ok(HelloAck { proto, window }),
        _ => perr("hello ack needs proto= and window="),
    }
}

/// Encodes a catalog-verb outcome as one `ok`/`err` line.
pub fn encode_ack(result: &Result<Ack, ServiceError>) -> String {
    match result {
        Ok(Ack { db, version }) => match version {
            Some(v) => format!("ok db={db} version={v}"),
            None => format!("ok db={db}"),
        },
        Err(e) => encode_error(e),
    }
}

/// Decodes a server `ok`/`err` line for a catalog verb.
pub fn decode_ack(line: &str) -> Result<Ack, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected ack line, got `{line}`"));
    };
    let mut db = None;
    let mut version = None;
    for tok in rest.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "db" => db = Some(v.to_string()),
            "version" => version = Some(DbVersion(parse_num(k, v)?)),
            _ => return perr(format!("unknown key `{k}`")),
        }
    }
    let Some(db) = db else {
        return perr("ack line needs db=");
    };
    Ok(Ack { db, version })
}

/// Encodes an evaluation outcome as one `ok`/`err` line.
pub fn encode_result(result: &Result<Response, ServiceError>) -> String {
    match result {
        Ok(r) => {
            // Sized once: 512 bytes hold the sixteen keys and numbers of
            // any header.
            let columns = r.columns.join(",");
            let mut line = String::with_capacity(512 + columns.len() + tuples_len_bound(&r.rows));
            write!(
                line,
                "ok cache_hit={} result_hit={} plan_us={} elapsed_us={} cpu_us={} tuples={} \
                 scanned={} emitted={} ix_probes={} ix_builds={} \
                 materializations={} join_stages={} max_arity={} threads={} cols={} rows={} data=",
                r.cache_hit as u8,
                r.result_cache_hit as u8,
                r.plan_micros,
                r.stats.elapsed.as_micros(),
                r.stats.cpu_time.as_micros(),
                r.stats.tuples_flowed,
                r.stats.rows_scanned,
                r.stats.rows_emitted,
                r.stats.index_probes,
                r.stats.index_builds,
                r.stats.materializations,
                r.stats.join_stages,
                r.stats.max_intermediate_arity,
                r.stats.threads_used,
                columns,
                r.rows.len(),
            )
            .expect("a String takes every write");
            push_tuples(&mut line, &r.rows);
            line
        }
        Err(e) => encode_error(e),
    }
}

fn encode_error(e: &ServiceError) -> String {
    match e {
        ServiceError::Overloaded { inflight, capacity } => {
            format!("err kind=overloaded inflight={inflight} capacity={capacity}")
        }
        ServiceError::ShuttingDown => "err kind=shutting_down".to_string(),
        ServiceError::Parse(m) => format!("err kind=parse msg={m}"),
        ServiceError::MissingRelation(m) => format!("err kind=missing_relation msg={m}"),
        ServiceError::UnknownDatabase(m) => format!("err kind=unknown_db msg={m}"),
        ServiceError::Catalog(m) => format!("err kind=catalog msg={m}"),
        ServiceError::UnknownMethod(m) => format!("err kind=unknown_method msg={m}"),
        ServiceError::Exec(RelalgError::BudgetExceeded {
            kind,
            tuples_flowed,
        }) => {
            let which = match kind {
                BudgetKind::Tuples => "tuples",
                BudgetKind::Materialized => "materialized",
                BudgetKind::WallClock => "wallclock",
            };
            format!("err kind=budget which={which} tuples={tuples_flowed}")
        }
        // `InvalidPlan` round-trips losslessly; `MissingAttr` degrades to
        // `InvalidPlan` carrying its Display text (the client cannot act
        // on the distinction — both mean "the server built a bad plan").
        ServiceError::Exec(RelalgError::InvalidPlan(m)) => format!("err kind=exec msg={m}"),
        ServiceError::Exec(other) => format!("err kind=exec msg={other}"),
        ServiceError::Protocol(m) => format!("err kind=protocol msg={m}"),
        ServiceError::Io(m) => format!("err kind=io msg={m}"),
        ServiceError::Internal(m) => format!("err kind=internal msg={m}"),
    }
}

/// Decodes a server `ok`/`err` response line for a `run` request.
pub fn decode_result(line: &str) -> Result<Response, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected ok/err line, got `{line}`"));
    };
    let Some(data_at) = rest.find("data=") else {
        return perr("ok line needs data=");
    };
    let data = &rest[data_at + "data=".len()..];
    let mut stats = ExecStats::default();
    let mut cache_hit = false;
    let mut result_cache_hit = false;
    let mut plan_micros = 0;
    let mut columns = Vec::new();
    let mut expected_rows = None;
    for tok in rest[..data_at].split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "cache_hit" => cache_hit = v == "1",
            "result_hit" => result_cache_hit = v == "1",
            "plan_us" => plan_micros = parse_num(k, v)?,
            "elapsed_us" => stats.elapsed = Duration::from_micros(parse_num(k, v)?),
            "cpu_us" => stats.cpu_time = Duration::from_micros(parse_num(k, v)?),
            "tuples" => stats.tuples_flowed = parse_num(k, v)?,
            "scanned" => stats.rows_scanned = parse_num(k, v)?,
            "emitted" => stats.rows_emitted = parse_num(k, v)?,
            "ix_probes" => stats.index_probes = parse_num(k, v)?,
            "ix_builds" => stats.index_builds = parse_num(k, v)?,
            "materializations" => stats.materializations = parse_num(k, v)?,
            "join_stages" => stats.join_stages = parse_num(k, v)?,
            "max_arity" => stats.max_intermediate_arity = parse_num(k, v)?,
            "threads" => stats.threads_used = parse_num(k, v)?,
            "cols" => {
                columns = if v.is_empty() {
                    Vec::new()
                } else {
                    v.split(',').map(str::to_string).collect()
                }
            }
            "rows" => expected_rows = Some(parse_num::<usize>(k, v)?),
            _ => return perr(format!("unknown key `{k}`")),
        }
    }
    let rows: Vec<Box<[Value]>> = if data.is_empty() {
        Vec::new()
    } else {
        decode_tuples(data)?
    };
    if let Some(n) = expected_rows {
        if n != rows.len() {
            return perr(format!("row count {} does not match rows={n}", rows.len()));
        }
    }
    let mut resp = Response::empty();
    resp.columns = columns;
    resp.rows = rows;
    resp.stats = stats;
    resp.cache_hit = cache_hit;
    resp.result_cache_hit = result_cache_hit;
    resp.plan_micros = plan_micros;
    Ok(resp)
}

fn decode_error(rest: &str) -> ServiceError {
    let mut kind = "";
    let mut fields: Vec<(&str, &str)> = Vec::new();
    let msg = match rest.find("msg=") {
        Some(at) => {
            for tok in rest[..at].split_whitespace() {
                if let Some(kv) = tok.split_once('=') {
                    fields.push(kv);
                }
            }
            rest[at + "msg=".len()..].to_string()
        }
        None => {
            for tok in rest.split_whitespace() {
                if let Some(kv) = tok.split_once('=') {
                    fields.push(kv);
                }
            }
            String::new()
        }
    };
    for &(k, v) in &fields {
        if k == "kind" {
            kind = v;
        }
    }
    let num = |key: &str| -> u64 {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0)
    };
    match kind {
        "overloaded" => ServiceError::Overloaded {
            inflight: num("inflight") as usize,
            capacity: num("capacity") as usize,
        },
        "shutting_down" => ServiceError::ShuttingDown,
        "parse" => ServiceError::Parse(msg),
        "missing_relation" => ServiceError::MissingRelation(msg),
        "unknown_db" => ServiceError::UnknownDatabase(msg),
        "catalog" => ServiceError::Catalog(msg),
        "unknown_method" => ServiceError::UnknownMethod(msg),
        "budget" => {
            let which = fields
                .iter()
                .find(|(k, _)| *k == "which")
                .map(|&(_, v)| v)
                .unwrap_or("tuples");
            let kind = match which {
                "materialized" => BudgetKind::Materialized,
                "wallclock" => BudgetKind::WallClock,
                _ => BudgetKind::Tuples,
            };
            ServiceError::Exec(RelalgError::BudgetExceeded {
                kind,
                tuples_flowed: num("tuples"),
            })
        }
        "exec" => ServiceError::Exec(RelalgError::InvalidPlan(msg)),
        "io" => ServiceError::Io(msg),
        "internal" => ServiceError::Internal(msg),
        _ => ServiceError::Protocol(if msg.is_empty() {
            format!("unknown error kind `{kind}`")
        } else {
            msg
        }),
    }
}

/// Encodes the `stats` reply: the original counters plus, per phase,
/// the `{phase}_n` / `{phase}_p50` / `{phase}_p95` / `{phase}_p99` span
/// quantiles (and `total_*` for end-to-end latency), all in microseconds
/// from the engine's shared histograms.
pub fn encode_stats(s: &EngineStats) -> String {
    let mut line = format!(
        "ok served={} rejected={} inflight={} hits={} misses={} evictions={} collisions={} \
         cache_len={} r_hits={} r_misses={} r_evictions={} r_collisions={} r_oversized={} \
         r_len={} r_bytes={} r_cap={}",
        s.served,
        s.rejected,
        s.inflight,
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.collisions,
        s.cache.len,
        s.results.hits,
        s.results.misses,
        s.results.evictions,
        s.results.collisions,
        s.results.oversized,
        s.results.len,
        s.results.bytes,
        s.results.capacity_bytes,
    );
    line.push_str(&format!(
        " ix_probes={} ix_builds={}",
        s.index_probes, s.index_builds
    ));
    line.push_str(&format!(
        " passes={} decomp_hits={} d_hits={} d_misses={} d_evictions={} d_collisions={} \
         d_len={} d_cap={}",
        s.passes_run,
        s.decomp_cache_hits,
        s.decomps.hits,
        s.decomps.misses,
        s.decomps.evictions,
        s.decomps.collisions,
        s.decomps.len,
        s.decomps.capacity,
    ));
    let mut push_quantiles = |name: &str, q: &Quantiles| {
        line.push_str(&format!(
            " {name}_n={} {name}_p50={} {name}_p95={} {name}_p99={}",
            q.count, q.p50, q.p95, q.p99,
        ));
    };
    for (i, p) in PHASES.iter().enumerate() {
        push_quantiles(p.name(), &s.spans.phase[i]);
    }
    push_quantiles("total", &s.spans.total);
    line
}

/// Decodes the `stats` reply.
pub fn decode_stats(line: &str) -> Result<EngineStats, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected stats line, got `{line}`"));
    };
    let mut s = EngineStats::default();
    for tok in rest.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "served" => s.served = parse_num(k, v)?,
            "rejected" => s.rejected = parse_num(k, v)?,
            "inflight" => s.inflight = parse_num(k, v)?,
            "hits" => s.cache.hits = parse_num(k, v)?,
            "misses" => s.cache.misses = parse_num(k, v)?,
            "evictions" => s.cache.evictions = parse_num(k, v)?,
            "collisions" => s.cache.collisions = parse_num(k, v)?,
            "cache_len" => s.cache.len = parse_num(k, v)?,
            "r_hits" => s.results.hits = parse_num(k, v)?,
            "r_misses" => s.results.misses = parse_num(k, v)?,
            "r_evictions" => s.results.evictions = parse_num(k, v)?,
            "r_collisions" => s.results.collisions = parse_num(k, v)?,
            "r_oversized" => s.results.oversized = parse_num(k, v)?,
            "r_len" => s.results.len = parse_num(k, v)?,
            "r_bytes" => s.results.bytes = parse_num(k, v)?,
            "r_cap" => s.results.capacity_bytes = parse_num(k, v)?,
            "ix_probes" => s.index_probes = parse_num(k, v)?,
            "ix_builds" => s.index_builds = parse_num(k, v)?,
            "passes" => s.passes_run = parse_num(k, v)?,
            "decomp_hits" => s.decomp_cache_hits = parse_num(k, v)?,
            "d_hits" => s.decomps.hits = parse_num(k, v)?,
            "d_misses" => s.decomps.misses = parse_num(k, v)?,
            "d_evictions" => s.decomps.evictions = parse_num(k, v)?,
            "d_collisions" => s.decomps.collisions = parse_num(k, v)?,
            "d_len" => s.decomps.len = parse_num(k, v)?,
            "d_cap" => s.decomps.capacity = parse_num(k, v)?,
            // Span quantiles: `{phase}_{n|p50|p95|p99}` or `total_…`.
            other => {
                let quantile = other.rsplit_once('_').and_then(|(prefix, suffix)| {
                    let q = if prefix == "total" {
                        Some(&mut s.spans.total)
                    } else {
                        Phase::parse_name(prefix).map(|p| &mut s.spans.phase[p as usize])
                    }?;
                    match suffix {
                        "n" => Some(&mut q.count),
                        "p50" => Some(&mut q.p50),
                        "p95" => Some(&mut q.p95),
                        "p99" => Some(&mut q.p99),
                        _ => None,
                    }
                });
                match quantile {
                    Some(slot) => *slot = parse_num(k, v)?,
                    None => return perr(format!("unknown key `{k}`")),
                }
            }
        }
    }
    Ok(s)
}

/// The `trace` verb's reply: where one request's time went. The spans
/// are the worker's record; the digest fields give the execution scale
/// that explains them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Per-phase durations recorded by the worker (microseconds).
    pub spans: TraceSpans,
    /// Wall time the server observed around the engine call — an upper
    /// bound on the sum of the spans.
    pub total_us: u64,
    /// Result rows.
    pub rows: u64,
    /// Whether the request skipped re-planning.
    pub cache_hit: bool,
    /// Whether the rows came from the result cache.
    pub result_cache_hit: bool,
    /// Executor tuple flow (0 on a result-cache hit).
    pub tuples_flowed: u64,
    /// Largest materialized intermediate (rows).
    pub peak_materialized: u64,
    /// Join stages executed.
    pub join_stages: u64,
    /// Executor threads used.
    pub threads_used: u64,
    /// Physical input rows the executor read (0 on a result-cache hit;
    /// low on warm repeats thanks to cached secondary indexes).
    pub rows_scanned: u64,
    /// Rows pushed into pipeline sinks before `DISTINCT` dedup.
    pub rows_emitted: u64,
    /// Secondary-index lookups performed.
    pub index_probes: u64,
    /// Secondary indexes built (cache misses).
    pub index_builds: u64,
}

/// Builds the report for a completed response: spans ride on
/// [`Response::trace`], the digest comes from its stats.
impl TraceReport {
    /// Summarizes `resp`, observed to take `total_us` of wall time.
    pub fn of(resp: &Response, total_us: u64) -> TraceReport {
        let digest = resp.stats.digest();
        TraceReport {
            spans: resp.trace,
            total_us,
            rows: resp.rows.len() as u64,
            cache_hit: resp.cache_hit,
            result_cache_hit: resp.result_cache_hit,
            tuples_flowed: digest.tuples_flowed,
            peak_materialized: digest.peak_materialized,
            join_stages: digest.join_stages,
            threads_used: digest.threads_used,
            rows_scanned: digest.rows_scanned,
            rows_emitted: digest.rows_emitted,
            index_probes: digest.index_probes,
            index_builds: digest.index_builds,
        }
    }
}

/// Encodes a `trace` outcome as one `ok`/`err` line.
pub fn encode_trace_report(result: &Result<TraceReport, ServiceError>) -> String {
    match result {
        Ok(r) => {
            let mut line = String::from("ok");
            for p in PHASES {
                line.push_str(&format!(" {}_us={}", p.name(), r.spans.get(p)));
            }
            line.push_str(&format!(
                " total_us={} rows={} cache_hit={} result_hit={} tuples={} peak={} stages={} \
                 threads={} scanned={} emitted={} ix_probes={} ix_builds={}",
                r.total_us,
                r.rows,
                r.cache_hit as u8,
                r.result_cache_hit as u8,
                r.tuples_flowed,
                r.peak_materialized,
                r.join_stages,
                r.threads_used,
                r.rows_scanned,
                r.rows_emitted,
                r.index_probes,
                r.index_builds,
            ));
            line
        }
        Err(e) => encode_error(e),
    }
}

/// Decodes a `trace` reply line.
pub fn decode_trace_report(line: &str) -> Result<TraceReport, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected trace line, got `{line}`"));
    };
    let mut r = TraceReport::default();
    for tok in rest.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "total_us" => r.total_us = parse_num(k, v)?,
            "rows" => r.rows = parse_num(k, v)?,
            "cache_hit" => r.cache_hit = v == "1",
            "result_hit" => r.result_cache_hit = v == "1",
            "tuples" => r.tuples_flowed = parse_num(k, v)?,
            "peak" => r.peak_materialized = parse_num(k, v)?,
            "stages" => r.join_stages = parse_num(k, v)?,
            "threads" => r.threads_used = parse_num(k, v)?,
            "scanned" => r.rows_scanned = parse_num(k, v)?,
            "emitted" => r.rows_emitted = parse_num(k, v)?,
            "ix_probes" => r.index_probes = parse_num(k, v)?,
            "ix_builds" => r.index_builds = parse_num(k, v)?,
            other => match other.strip_suffix("_us").and_then(Phase::parse_name) {
                Some(p) => r.spans.set(p, parse_num(k, v)?),
                None => return perr(format!("unknown key `{k}`")),
            },
        }
    }
    Ok(r)
}

/// The `explain` verb's reply: the optimizer pass trace and the
/// (planned or measured) physical operator tree for one query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExplainReport {
    /// `true` for `explain analyze` (the tree carries measured
    /// counters); `false` for `explain plan` (all counters zero).
    pub analyze: bool,
    /// Planning wall time (microseconds). Explain bypasses both caches,
    /// so this is always a fresh planner run.
    pub plan_us: u64,
    /// Wall time the server observed around the engine call.
    pub total_us: u64,
    /// Result rows (`0` for `explain plan`, which never executes).
    pub rows: u64,
    /// Whether a cached plan was reused (always `false` today: explain
    /// bypasses the plan cache; kept on the wire for forward
    /// compatibility).
    pub cache_hit: bool,
    /// Whether the rows came from the result cache (always `false`:
    /// explain bypasses it).
    pub result_cache_hit: bool,
    /// Per-pass wall time and plan-delta spans, in pipeline order.
    pub passes: Vec<PassSpan>,
    /// The operator tree in pre-order, depth-annotated — planned shape
    /// for `plan`, measured profile for `analyze`.
    pub ops: Vec<OpNode>,
}

impl ExplainReport {
    /// Summarizes an explained response observed to take `total_us` of
    /// wall time. A response without explain data (not produced by an
    /// explain request) yields empty pass and operator lists.
    pub fn of(resp: &Response, total_us: u64) -> ExplainReport {
        let data = resp.explain.as_deref().cloned().unwrap_or_default();
        ExplainReport {
            analyze: data.analyze,
            plan_us: resp.plan_micros,
            total_us,
            rows: resp.rows.len() as u64,
            cache_hit: resp.cache_hit,
            result_cache_hit: resp.result_cache_hit,
            passes: data.passes,
            ops: data.ops,
        }
    }
}

/// Encodes an `explain` outcome as one `ok`/`err` line. Pass records are
/// `name:us:before:after`, `/`-separated; operator records are
/// `depth:kind:target:rows_in:rows_out:probes:time_us`, `/`-separated,
/// pre-order, with `-` for an empty target. Both are separator-safe:
/// pass names are fixed kebab-case identifiers and targets pass
/// `check_name` (no `:`, `/`, whitespace, or `=`).
pub fn encode_explain_report(result: &Result<ExplainReport, ServiceError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return encode_error(e),
    };
    let mut line = format!(
        "ok mode={} plan_us={} total_us={} rows={} cache_hit={} result_hit={} passes=",
        if r.analyze { "analyze" } else { "plan" },
        r.plan_us,
        r.total_us,
        r.rows,
        r.cache_hit as u8,
        r.result_cache_hit as u8,
    );
    for (i, p) in r.passes.iter().enumerate() {
        if i > 0 {
            line.push('/');
        }
        line.push_str(&format!(
            "{}:{}:{}:{}",
            p.name, p.micros, p.nodes_before, p.nodes_after
        ));
    }
    line.push_str(" ops=");
    for (i, n) in r.ops.iter().enumerate() {
        if i > 0 {
            line.push('/');
        }
        line.push_str(&format!(
            "{}:{}:{}:{}:{}:{}:{}",
            n.depth,
            n.op.name(),
            if n.target.is_empty() { "-" } else { &n.target },
            n.rows_in,
            n.rows_out,
            n.probes,
            n.time_us,
        ));
    }
    line
}

/// Decodes an `explain` reply line.
pub fn decode_explain_report(line: &str) -> Result<ExplainReport, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected explain line, got `{line}`"));
    };
    let mut r = ExplainReport::default();
    for tok in rest.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "mode" => match v {
                "plan" => r.analyze = false,
                "analyze" => r.analyze = true,
                other => return perr(format!("bad explain mode `{other}`")),
            },
            "plan_us" => r.plan_us = parse_num(k, v)?,
            "total_us" => r.total_us = parse_num(k, v)?,
            "rows" => r.rows = parse_num(k, v)?,
            "cache_hit" => r.cache_hit = v == "1",
            "result_hit" => r.result_cache_hit = v == "1",
            "passes" => {
                for record in v.split('/').filter(|s| !s.is_empty()) {
                    let parts: Vec<&str> = record.split(':').collect();
                    let [name, us, before, after] = parts[..] else {
                        return perr(format!("bad pass record `{record}`"));
                    };
                    r.passes.push(PassSpan {
                        name: name.to_string(),
                        micros: parse_num("pass micros", us)?,
                        nodes_before: parse_num("pass nodes_before", before)?,
                        nodes_after: parse_num("pass nodes_after", after)?,
                    });
                }
            }
            "ops" => {
                for record in v.split('/').filter(|s| !s.is_empty()) {
                    let parts: Vec<&str> = record.split(':').collect();
                    let [depth, kind, target, rows_in, rows_out, probes, time_us] = parts[..]
                    else {
                        return perr(format!("bad op record `{record}`"));
                    };
                    let Some(op) = OpKind::from_name(kind) else {
                        return perr(format!("unknown op kind `{kind}`"));
                    };
                    r.ops.push(OpNode {
                        depth: parse_num("op depth", depth)?,
                        op,
                        target: if target == "-" {
                            String::new()
                        } else {
                            target.to_string()
                        },
                        rows_in: parse_num("op rows_in", rows_in)?,
                        rows_out: parse_num("op rows_out", rows_out)?,
                        probes: parse_num("op probes", probes)?,
                        time_us: parse_num("op time_us", time_us)?,
                    });
                }
            }
            other => return perr(format!("unknown key `{other}`")),
        }
    }
    Ok(r)
}

/// Encodes the `slowlog` reply: `ok n=<count> entries=` then one
/// `,`-separated record per entry, `;`-separated, slowest first. The
/// `db`, `method`, and `outcome` columns are separator-safe by
/// construction (`check_name` bans `,`/`;` in database names; method
/// and outcome names are fixed identifiers).
pub fn encode_slowlog(result: &Result<Vec<SlowEntry>, ServiceError>) -> String {
    let entries = match result {
        Ok(entries) => entries,
        Err(e) => return encode_error(e),
    };
    let mut line = format!("ok n={} entries=", entries.len());
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            line.push(';');
        }
        line.push_str(&format!(
            "{},{},{:032x},{},{},{}",
            e.db, e.version, e.fingerprint, e.method, e.outcome, e.total_us
        ));
        for p in PHASES {
            line.push_str(&format!(",{}", e.spans.get(p)));
        }
        line.push_str(&format!(
            ",{},{},{},{},{},{},{},{},{},{}",
            e.rows,
            e.tuples_flowed,
            e.rows_scanned,
            e.peak_materialized,
            e.join_stages,
            e.threads_used,
            e.passes_run,
            u8::from(e.decomp_hit),
            // The operator digest uses `:` and `/` separators only, so it
            // is safe inside the `,`/`;` record syntax; `-` marks "no
            // profile" so the column is never empty.
            if e.op_digest.is_empty() {
                "-"
            } else {
                &e.op_digest
            },
            e.seq
        ));
    }
    line
}

/// Decodes the `slowlog` reply.
pub fn decode_slowlog(line: &str) -> Result<Vec<SlowEntry>, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected slowlog line, got `{line}`"));
    };
    let Some(data_at) = rest.find("entries=") else {
        return perr("slowlog line needs entries=");
    };
    let mut expected = None;
    for tok in rest[..data_at].split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "n" => expected = Some(parse_num::<usize>(k, v)?),
            _ => return perr(format!("unknown key `{k}`")),
        }
    }
    let data = &rest[data_at + "entries=".len()..];
    let mut entries = Vec::new();
    if !data.is_empty() {
        for record in data.split(';') {
            let fields: Vec<&str> = record.split(',').collect();
            // 6 identity/outcome columns + one per phase + 10 trailing.
            if fields.len() != 16 + Phase::COUNT {
                return perr(format!("bad slowlog record `{record}`"));
            }
            let mut spans = TraceSpans::new();
            for (i, p) in PHASES.into_iter().enumerate() {
                spans.set(p, parse_num(p.name(), fields[6 + i])?);
            }
            let tail = 6 + Phase::COUNT;
            entries.push(SlowEntry {
                db: fields[0].to_string(),
                version: parse_num("version", fields[1])?,
                fingerprint: u128::from_str_radix(fields[2], 16).map_err(|_| {
                    ServiceError::Protocol(format!("bad fingerprint `{}`", fields[2]))
                })?,
                method: fields[3].to_string(),
                outcome: fields[4].to_string(),
                total_us: parse_num("total_us", fields[5])?,
                spans,
                rows: parse_num("rows", fields[tail])?,
                tuples_flowed: parse_num("tuples", fields[tail + 1])?,
                rows_scanned: parse_num("scanned", fields[tail + 2])?,
                peak_materialized: parse_num("peak", fields[tail + 3])?,
                join_stages: parse_num("stages", fields[tail + 4])?,
                threads_used: parse_num("threads", fields[tail + 5])?,
                passes_run: parse_num("passes", fields[tail + 6])?,
                decomp_hit: fields[tail + 7] == "1",
                op_digest: if fields[tail + 8] == "-" {
                    String::new()
                } else {
                    fields[tail + 8].to_string()
                },
                seq: parse_num("seq", fields[tail + 9])?,
            });
        }
    }
    if let Some(n) = expected {
        if n != entries.len() {
            return perr(format!(
                "entry count {} does not match n={n}",
                entries.len()
            ));
        }
    }
    Ok(entries)
}

/// Encodes the `dbs` reply: `ok n=<count> dbs=` then one
/// `name,version,fingerprint,relations` record per database,
/// `;`-separated, sorted by name. Separator-safe because `check_name`
/// bans `,`/`;` in database names; the fingerprint is 32 lowercase hex
/// digits.
pub fn encode_dbs(result: &Result<Vec<DbInfo>, ServiceError>) -> String {
    let infos = match result {
        Ok(infos) => infos,
        Err(e) => return encode_error(e),
    };
    let mut line = format!("ok n={} dbs=", infos.len());
    for (i, d) in infos.iter().enumerate() {
        if i > 0 {
            line.push(';');
        }
        line.push_str(&format!(
            "{},{},{},{}",
            d.name, d.version, d.fingerprint, d.relations
        ));
    }
    line
}

/// Decodes the `dbs` reply.
pub fn decode_dbs(line: &str) -> Result<Vec<DbInfo>, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    let Some(rest) = line.strip_prefix("ok ") else {
        return perr(format!("expected dbs line, got `{line}`"));
    };
    let Some(data_at) = rest.find("dbs=") else {
        return perr("dbs line needs dbs=");
    };
    let mut expected = None;
    for tok in rest[..data_at].split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        match k {
            "n" => expected = Some(parse_num::<usize>(k, v)?),
            _ => return perr(format!("unknown key `{k}`")),
        }
    }
    let data = &rest[data_at + "dbs=".len()..];
    let mut infos = Vec::new();
    if !data.is_empty() {
        for record in data.split(';') {
            let fields: Vec<&str> = record.split(',').collect();
            let [name, version, fingerprint, relations] = fields[..] else {
                return perr(format!("bad dbs record `{record}`"));
            };
            check_name("database", name)?;
            infos.push(DbInfo {
                name: name.to_string(),
                version: DbVersion(parse_num("version", version)?),
                fingerprint: DbFingerprint(u128::from_str_radix(fingerprint, 16).map_err(
                    |_| ServiceError::Protocol(format!("bad fingerprint `{fingerprint}`")),
                )?),
                relations: parse_num("relations", relations)?,
            });
        }
    }
    if let Some(n) = expected {
        if n != infos.len() {
            return perr(format!("db count {} does not match n={n}", infos.len()));
        }
    }
    Ok(infos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Request {
        Request::query("q(x) :- edge(x, y), edge(y, x)")
            .method(Method::BucketElimination(
                ppr_core::methods::OrderHeuristic::Mcs,
            ))
            .on("graphs")
            .max_tuples(1000)
            .seed(7)
    }

    #[test]
    fn request_round_trips() {
        let mut req = sample_request();
        req.timeout_ms = Some(250);
        let line = encode_request(&req);
        assert!(line.contains("db=graphs"));
        assert_eq!(decode_command(&line).unwrap(), Command::Run(req));
    }

    #[test]
    fn minimal_request_round_trips() {
        let req = Request::new("q() :- edge(x, y)", Method::Straightforward);
        let line = encode_request(&req);
        assert!(!line.contains("max_tuples"));
        assert!(!line.contains("db="));
        assert_eq!(decode_command(&line).unwrap(), Command::Run(req));
    }

    #[test]
    fn rule_text_may_contain_spaces_and_equals_free_tokens() {
        let cmd = decode_command("run method=sf rule=q(x) :- edge(x, y), edge(y, z)").unwrap();
        match cmd {
            Command::Run(r) => assert_eq!(r.query, "q(x) :- edge(x, y), edge(y, z)"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn catalog_verbs_round_trip() {
        let cases = vec![
            Command::Use("graphs".into()),
            Command::Create("g-2.test".into()),
            Command::Drop("graphs".into()),
            Command::Load {
                db: "graphs".into(),
                rel: "edge".into(),
                tuples: vec![vec![1, 2].into_boxed_slice(), vec![2, 3].into_boxed_slice()],
            },
            Command::Add {
                db: "graphs".into(),
                rel: "edge".into(),
                tuple: vec![7, 9].into_boxed_slice(),
            },
        ];
        for cmd in cases {
            let line = encode_command(&cmd);
            assert_eq!(decode_command(&line).unwrap(), cmd, "line was `{line}`");
        }
    }

    #[test]
    fn bad_catalog_lines_are_rejected() {
        for line in [
            "use",                      // missing name
            "use two words",            // extra token
            "create bad name",          // space in name
            "drop semi;colon",          // bad character
            "use caf=e",                // `=` would collide with keys
            "load graphs edge",         // missing tuples
            "load graphs edge 1,2 3,4", // tuples must not contain spaces
            "load graphs edge 1,x",     // non-numeric value
            "add graphs edge 1,2;3,4",  // add takes exactly one tuple
            "add graphs bad/rel 1",     // bad relation name
        ] {
            assert!(
                matches!(decode_command(line), Err(ServiceError::Protocol(_))),
                "`{line}` should be rejected"
            );
        }
    }

    #[test]
    fn run_with_db_key_targets_that_database() {
        let cmd = decode_command("run db=g1 method=sf rule=q() :- e(x,y)").unwrap();
        match cmd {
            Command::Run(r) => assert_eq!(r.db.as_deref(), Some("g1")),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            decode_command("run db=bad/name method=sf rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn bad_lines_are_rejected() {
        assert!(matches!(
            decode_command("run rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            decode_command("run method=warp rule=q() :- e(x,y)"),
            Err(ServiceError::UnknownMethod(_))
        ));
        assert!(matches!(
            decode_command("run method=sf"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            decode_command("frobnicate"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            decode_command("run method=sf max_tuples=lots rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn ping_and_stats_decode() {
        assert_eq!(decode_command("ping\n").unwrap(), Command::Ping);
        assert_eq!(decode_command("stats").unwrap(), Command::Stats);
    }

    #[test]
    fn acks_round_trip() {
        let with_version = Ack {
            db: "graphs".into(),
            version: Some(DbVersion(12)),
        };
        let line = encode_ack(&Ok(with_version.clone()));
        assert_eq!(line, "ok db=graphs version=12");
        assert_eq!(decode_ack(&line).unwrap(), with_version);

        let dropped = Ack {
            db: "graphs".into(),
            version: None,
        };
        let line = encode_ack(&Ok(dropped.clone()));
        assert_eq!(line, "ok db=graphs");
        assert_eq!(decode_ack(&line).unwrap(), dropped);

        let err = ServiceError::UnknownDatabase("nope".into());
        assert_eq!(decode_ack(&encode_ack(&Err(err.clone()))).unwrap_err(), err);
    }

    fn sample_response() -> Response {
        let mut resp = Response::empty();
        resp.columns = vec!["x".into(), "y".into()];
        resp.rows = vec![vec![1, 2].into_boxed_slice(), vec![3, 1].into_boxed_slice()];
        resp.stats = ExecStats {
            tuples_flowed: 42,
            materializations: 2,
            join_stages: 3,
            max_intermediate_arity: 4,
            threads_used: 2,
            elapsed: Duration::from_micros(120),
            cpu_time: Duration::from_micros(200),
            rows_scanned: 90,
            rows_emitted: 11,
            index_probes: 5,
            index_builds: 1,
            ..ExecStats::default()
        };
        resp.cache_hit = true;
        resp.result_cache_hit = true;
        resp.plan_micros = 0;
        resp
    }

    #[test]
    fn response_round_trips() {
        let resp = sample_response();
        let line = encode_result(&Ok(resp.clone()));
        assert!(line.contains("result_hit=1"));
        let back = decode_result(&line).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn empty_result_round_trips() {
        let mut resp = Response::empty();
        resp.columns = vec!["x".into()];
        resp.plan_micros = 3;
        let line = encode_result(&Ok(resp.clone()));
        assert!(line.ends_with("data="));
        assert_eq!(decode_result(&line).unwrap(), resp);
    }

    #[test]
    fn row_count_mismatch_is_caught() {
        let line = "ok cache_hit=0 result_hit=0 plan_us=0 elapsed_us=0 cpu_us=0 tuples=0 \
                    materializations=0 join_stages=0 max_arity=0 threads=1 cols=x rows=2 data=1";
        assert!(matches!(
            decode_result(line),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn tuple_scanner_takes_what_str_parse_takes() {
        // The grammar is `str::parse::<u32>` per token, so that is the
        // reference: split, parse, collect.
        fn split_and_parse(text: &str) -> Result<Vec<Box<[Value]>>, ServiceError> {
            let row = |tup: &str| -> Result<Box<[Value]>, ServiceError> {
                let values: Result<Vec<Value>, _> = tup.split(',').map(str::parse).collect();
                values
                    .map(Vec::into_boxed_slice)
                    .map_err(|_| ServiceError::Protocol(format!("bad tuple `{tup}`")))
            };
            text.split(';').map(row).collect()
        }
        let texts = [
            "0",
            "1,2;3,4",
            "7;8;9",
            "4294967295",
            "4294967296",
            "999999999,1000000000",
            "0000000001",
            "00000000000000000001,1",
            "99999999999999999999",
            "+5",
            "+5,+0;1",
            "-0",
            "-1",
            "",
            ",",
            ";",
            "1,",
            ",1",
            "1;",
            ";1",
            "1,,2",
            "1;;2",
            "1, 2",
            " 1",
            "1 ;2",
            "1,2;3,x;5,6",
            "1,2;3,4x;5,6",
            "12a",
            "0x10",
            "1e3",
            "\u{661}",
            "1,\u{e9};2",
            "1;2,\u{1f600}",
        ];
        for text in texts {
            assert_eq!(decode_tuples(text), split_and_parse(text), "{text:?}");
        }
    }

    mod result_props {
        use super::*;
        use proptest::prelude::*;

        /// `encode_result`'s `ok` line, said the slow way.
        fn naive(r: &Response) -> String {
            let row = |row: &[Value]| {
                let values: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                values.join(",")
            };
            let rows: Vec<String> = r.rows.iter().map(|r| row(r)).collect();
            let s = &r.stats;
            format!(
                "ok cache_hit={} result_hit={} plan_us={} elapsed_us={} cpu_us={} tuples={} \
                 scanned={} emitted={} ix_probes={} ix_builds={} materializations={} \
                 join_stages={} max_arity={} threads={} cols={} rows={} data={}",
                r.cache_hit as u8,
                r.result_cache_hit as u8,
                r.plan_micros,
                s.elapsed.as_micros(),
                s.cpu_time.as_micros(),
                s.tuples_flowed,
                s.rows_scanned,
                s.rows_emitted,
                s.index_probes,
                s.index_builds,
                s.materializations,
                s.join_stages,
                s.max_intermediate_arity,
                s.threads_used,
                r.columns.join(","),
                r.rows.len(),
                rows.join(";"),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// 0–300 rows of arity 1–12 over the values where the digit
            /// count changes, and header numbers of any width: the reply
            /// is the naive one byte for byte, and decodes to what was
            /// encoded.
            #[test]
            fn replies_equal_the_naive_encoding_and_round_trip(
                arity in 1usize..=12,
                cells in prop::collection::vec((0u8..7, 0u32..=u32::MAX), 0..=3600),
                wide in prop::bool::ANY,
                id in 0u64..=u64::MAX,
            ) {
                let value = |&(pick, any): &(u8, u32)| match pick {
                    0 => 0,
                    1 => 9,
                    2 => 10,
                    3 => 99,
                    4 => 100,
                    5 => u32::MAX,
                    _ => any,
                };
                let mut resp = sample_response();
                resp.columns = (0..arity).map(|i| format!("v{i}")).collect();
                resp.rows = cells
                    .chunks_exact(12)
                    .map(|row| row[..arity].iter().map(value).collect())
                    .collect();
                if wide {
                    resp.plan_micros = u64::MAX;
                    resp.stats.tuples_flowed = u64::MAX;
                    resp.stats.rows_scanned = u64::MAX;
                    resp.stats.elapsed = Duration::from_micros(u64::MAX);
                }
                let line = encode_result(&Ok(resp.clone()));
                prop_assert_eq!(&line, &naive(&resp));
                prop_assert_eq!(decode_result(&line).unwrap(), resp);
                let tagged = tag_reply(id, &line);
                prop_assert_eq!(&tagged, &format!("ok id={id}{}", &line[2..]));
            }
        }
    }

    #[test]
    fn stats_round_trip() {
        let mut s = EngineStats {
            served: 10,
            rejected: 2,
            inflight: 1,
            ..Default::default()
        };
        s.cache.hits = 7;
        s.cache.misses = 3;
        s.cache.evictions = 1;
        s.cache.collisions = 1;
        s.cache.len = 2;
        s.results.hits = 20;
        s.results.misses = 4;
        s.results.evictions = 2;
        s.results.collisions = 1;
        s.results.oversized = 1;
        s.results.len = 3;
        s.results.bytes = 4096;
        s.results.capacity_bytes = 8 << 20;
        s.index_probes = 31;
        s.index_builds = 4;
        s.passes_run = 12;
        s.decomp_cache_hits = 3;
        s.decomps.hits = 3;
        s.decomps.misses = 2;
        s.decomps.evictions = 1;
        s.decomps.collisions = 1;
        s.decomps.len = 1;
        s.decomps.capacity = 256;
        s.spans.phase[Phase::QueueWait as usize] = Quantiles {
            count: 10,
            p50: 3,
            p95: 15,
            p99: 31,
        };
        s.spans.phase[Phase::Exec as usize] = Quantiles {
            count: 10,
            p50: 127,
            p95: 511,
            p99: 1023,
        };
        s.spans.total = Quantiles {
            count: 10,
            p50: 255,
            p95: 511,
            p99: 2047,
        };
        let line = encode_stats(&s);
        assert!(line.contains("queue_wait_p95=15"), "{line}");
        assert!(line.contains("exec_p50=127"), "{line}");
        assert!(line.contains("total_p99=2047"), "{line}");
        assert_eq!(decode_stats(&line).unwrap(), s);
        // Unknown keys are still rejected — the quantile fallback only
        // accepts `{phase}_{n|p50|p95|p99}`.
        for bad in ["ok zap_p50=1", "ok exec_p42=1", "ok total_q=1"] {
            assert!(decode_stats(bad).is_err(), "`{bad}` should be rejected");
        }
    }

    #[test]
    fn trace_command_round_trips_and_reuses_run_grammar() {
        let mut req = sample_request();
        req.timeout_ms = Some(250);
        let cmd = Command::Trace(req.clone());
        let line = encode_command(&cmd);
        assert!(line.starts_with("trace "), "{line}");
        assert_eq!(decode_command(&line).unwrap(), cmd);
        // `trace` rejects the same malformed lines as `run`.
        assert!(matches!(
            decode_command("trace rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            decode_command("trace method=warp rule=q() :- e(x,y)"),
            Err(ServiceError::UnknownMethod(_))
        ));
        // Tagging works on `trace` lines like any other verb.
        let tagged = tag_request(5, &line);
        let (id, rest) = split_request_tag(&tagged).unwrap();
        assert_eq!(id, Some(5));
        assert_eq!(rest, line);
    }

    #[test]
    fn trace_report_round_trips() {
        let mut r = TraceReport {
            total_us: 1234,
            rows: 6,
            cache_hit: true,
            result_cache_hit: false,
            tuples_flowed: 42,
            peak_materialized: 9,
            join_stages: 3,
            threads_used: 2,
            rows_scanned: 77,
            rows_emitted: 8,
            index_probes: 4,
            index_builds: 2,
            ..TraceReport::default()
        };
        r.spans.set(Phase::QueueWait, 10);
        r.spans.set(Phase::Parse, 20);
        r.spans.set(Phase::Fingerprint, 5);
        r.spans.set(Phase::CacheLookup, 1);
        r.spans.set(Phase::Plan, 300);
        r.spans.set(Phase::Exec, 800);
        let line = encode_trace_report(&Ok(r));
        assert!(line.contains("queue_wait_us=10"), "{line}");
        assert!(line.contains("exec_us=800"), "{line}");
        assert_eq!(decode_trace_report(&line).unwrap(), r);
        // Errors pass through the shared err matrix.
        let err = ServiceError::UnknownDatabase("nope".into());
        assert_eq!(
            decode_trace_report(&encode_trace_report(&Err(err.clone()))).unwrap_err(),
            err
        );
    }

    #[test]
    fn explain_command_round_trips_and_reuses_run_grammar() {
        let mut req = sample_request();
        req.timeout_ms = Some(250);
        for mode in [ExplainMode::Plan, ExplainMode::Analyze] {
            let cmd = Command::Explain(req.clone().explain(mode));
            let line = encode_command(&cmd);
            let word = if mode == ExplainMode::Analyze {
                "analyze"
            } else {
                "plan"
            };
            assert!(line.starts_with(&format!("explain {word} ")), "{line}");
            assert_eq!(decode_command(&line).unwrap(), cmd);
            // Tagging splices after the verb, leaving the mode word in
            // place for the de-tagged decoder.
            let tagged = tag_request(5, &line);
            let (id, rest) = split_request_tag(&tagged).unwrap();
            assert_eq!(id, Some(5));
            assert_eq!(rest, line);
        }
        // The mode word is mandatory and checked before the run grammar.
        assert!(matches!(
            decode_command("explain method=sf rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            decode_command("explain plan rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
        assert!(matches!(
            decode_command("explain analyze method=warp rule=q() :- e(x,y)"),
            Err(ServiceError::UnknownMethod(_))
        ));
    }

    #[test]
    fn explain_report_round_trips() {
        let r = ExplainReport {
            analyze: true,
            plan_us: 321,
            total_us: 1234,
            rows: 6,
            cache_hit: false,
            result_cache_hit: false,
            passes: vec![
                PassSpan {
                    name: "listing-order".into(),
                    micros: 12,
                    nodes_before: 0,
                    nodes_after: 0,
                },
                PassSpan {
                    name: "build-join-chain".into(),
                    micros: 30,
                    nodes_before: 0,
                    nodes_after: 5,
                },
            ],
            ops: vec![
                OpNode {
                    depth: 0,
                    op: OpKind::Distinct,
                    target: String::new(),
                    rows_in: 8,
                    rows_out: 6,
                    probes: 0,
                    time_us: 40,
                },
                OpNode {
                    depth: 1,
                    op: OpKind::IxJoin,
                    target: "edge".into(),
                    rows_in: 9,
                    rows_out: 8,
                    probes: 9,
                    time_us: 120,
                },
                OpNode {
                    depth: 2,
                    op: OpKind::TableScan,
                    target: "edge".into(),
                    rows_in: 0,
                    rows_out: 9,
                    probes: 0,
                    time_us: 15,
                },
            ],
        };
        let line = encode_explain_report(&Ok(r.clone()));
        assert!(line.starts_with("ok mode=analyze "), "{line}");
        assert!(line.contains("passes=listing-order:12:0:0/"), "{line}");
        assert!(line.contains("ops=0:distinct:-:8:6:0:40/"), "{line}");
        assert_eq!(decode_explain_report(&line).unwrap(), r);
        // A plan report with no passes or ops (cached shapes, empty
        // pipelines) still round-trips.
        let empty = ExplainReport {
            plan_us: 10,
            ..ExplainReport::default()
        };
        let line = encode_explain_report(&Ok(empty.clone()));
        assert!(line.contains("mode=plan"), "{line}");
        assert_eq!(decode_explain_report(&line).unwrap(), empty);
        // Errors pass through the shared err matrix; garbage is caught.
        let err = ServiceError::UnknownDatabase("nope".into());
        assert_eq!(
            decode_explain_report(&encode_explain_report(&Err(err.clone()))).unwrap_err(),
            err
        );
        assert!(decode_explain_report("ok mode=warp passes= ops=").is_err());
        assert!(decode_explain_report("ok mode=plan passes=a:b ops=").is_err());
        assert!(decode_explain_report("ok mode=plan passes= ops=0:warp:-:0:0:0:0").is_err());
    }

    #[test]
    fn slowlog_round_trips() {
        assert_eq!(decode_command("slowlog").unwrap(), Command::SlowLog);
        let mut spans = TraceSpans::new();
        spans.set(Phase::Exec, 900);
        let entries = vec![
            SlowEntry {
                db: "graphs".into(),
                version: 3,
                fingerprint: u128::MAX - 1,
                method: "be-mcs".into(),
                outcome: "ok".into(),
                total_us: 1000,
                spans,
                rows: 12,
                tuples_flowed: 420,
                peak_materialized: 64,
                join_stages: 4,
                threads_used: 2,
                rows_scanned: 96,
                passes_run: 4,
                decomp_hit: true,
                op_digest: "distinct:-:12:30/ix_join:edge:40:120".into(),
                seq: 7,
            },
            SlowEntry {
                db: "g-2.test".into(),
                version: 0,
                fingerprint: 0,
                method: "sf".into(),
                outcome: "budget".into(),
                total_us: 900,
                spans: TraceSpans::new(),
                rows: 0,
                tuples_flowed: 0,
                peak_materialized: 0,
                join_stages: 0,
                threads_used: 0,
                rows_scanned: 0,
                passes_run: 0,
                decomp_hit: false,
                op_digest: String::new(),
                seq: 2,
            },
        ];
        let line = encode_slowlog(&Ok(entries.clone()));
        assert!(line.starts_with("ok n=2 entries="), "{line}");
        assert_eq!(decode_slowlog(&line).unwrap(), entries);
        // Empty log round-trips too.
        assert_eq!(
            decode_slowlog(&encode_slowlog(&Ok(Vec::new()))).unwrap(),
            vec![]
        );
        // Count mismatches and malformed records are caught.
        assert!(decode_slowlog("ok n=2 entries=").is_err());
        assert!(decode_slowlog("ok n=1 entries=a,b").is_err());
        let err = ServiceError::ShuttingDown;
        assert_eq!(
            decode_slowlog(&encode_slowlog(&Err(err.clone()))).unwrap_err(),
            err
        );
    }

    #[test]
    fn dbs_round_trips() {
        assert_eq!(decode_command("dbs").unwrap(), Command::Dbs);
        assert_eq!(encode_command(&Command::Dbs), "dbs");
        let infos = vec![
            DbInfo {
                name: "default".into(),
                version: DbVersion(3),
                fingerprint: DbFingerprint(u128::MAX - 1),
                relations: 2,
            },
            DbInfo {
                name: "g-2.test".into(),
                version: DbVersion(0),
                fingerprint: DbFingerprint(0),
                relations: 0,
            },
        ];
        let line = encode_dbs(&Ok(infos.clone()));
        assert!(line.starts_with("ok n=2 dbs="), "{line}");
        assert_eq!(decode_dbs(&line).unwrap(), infos);
        // The fingerprint travels as full-width lowercase hex.
        assert!(line.contains(&format!("{:032x}", u128::MAX - 1)), "{line}");
        // An empty catalog round-trips too.
        assert_eq!(decode_dbs(&encode_dbs(&Ok(Vec::new()))).unwrap(), vec![]);
        // Count mismatches and malformed records are caught.
        assert!(decode_dbs("ok n=2 dbs=").is_err());
        assert!(decode_dbs("ok n=1 dbs=a,b").is_err());
        assert!(decode_dbs("ok n=1 dbs=a,1,zz,0").is_err(), "bad hex");
        let err = ServiceError::ShuttingDown;
        assert_eq!(decode_dbs(&encode_dbs(&Err(err.clone()))).unwrap_err(), err);
    }

    /// Every `ServiceError` variant survives the wire losslessly. The
    /// match in `variant_name` has no wildcard arm, so adding a variant
    /// to `ServiceError` without extending this matrix fails to compile;
    /// the coverage assertion at the bottom catches a variant that was
    /// added to the match but not to the sample list.
    #[test]
    fn error_matrix_round_trips() {
        fn variant_name(e: &ServiceError) -> &'static str {
            match e {
                ServiceError::Overloaded { .. } => "Overloaded",
                ServiceError::ShuttingDown => "ShuttingDown",
                ServiceError::Parse(_) => "Parse",
                ServiceError::MissingRelation(_) => "MissingRelation",
                ServiceError::UnknownDatabase(_) => "UnknownDatabase",
                ServiceError::Catalog(_) => "Catalog",
                ServiceError::UnknownMethod(_) => "UnknownMethod",
                ServiceError::Exec(_) => "Exec",
                ServiceError::Protocol(_) => "Protocol",
                ServiceError::Io(_) => "Io",
                ServiceError::Internal(_) => "Internal",
            }
        }
        const ALL: [&str; 11] = [
            "Overloaded",
            "ShuttingDown",
            "Parse",
            "MissingRelation",
            "UnknownDatabase",
            "Catalog",
            "UnknownMethod",
            "Exec",
            "Protocol",
            "Io",
            "Internal",
        ];
        // Messages exercise the awkward cases: spaces, `=`, backticks —
        // everything after `msg=` is the message, verbatim.
        let matrix = vec![
            ServiceError::Overloaded {
                inflight: 64,
                capacity: 64,
            },
            ServiceError::ShuttingDown,
            ServiceError::Parse("expected `:-` after head".into()),
            ServiceError::MissingRelation("edge (arity 2)".into()),
            ServiceError::UnknownDatabase("graphs".into()),
            ServiceError::Catalog("tuple arity 3 = bad for edge/2".into()),
            ServiceError::UnknownMethod("quantum".into()),
            ServiceError::Exec(RelalgError::BudgetExceeded {
                kind: BudgetKind::Tuples,
                tuples_flowed: 12_345,
            }),
            ServiceError::Exec(RelalgError::BudgetExceeded {
                kind: BudgetKind::Materialized,
                tuples_flowed: 7,
            }),
            ServiceError::Exec(RelalgError::BudgetExceeded {
                kind: BudgetKind::WallClock,
                tuples_flowed: u64::MAX,
            }),
            ServiceError::Exec(RelalgError::InvalidPlan("scan of unknown relation".into())),
            ServiceError::Protocol("bad token `x=`".into()),
            ServiceError::Io("connection reset by peer".into()),
            ServiceError::Internal("worker panicked: index out of bounds".into()),
        ];
        let mut covered = std::collections::BTreeSet::new();
        for e in matrix {
            covered.insert(variant_name(&e));
            let line = encode_result(&Err(e.clone()));
            assert!(line.starts_with("err "), "`{line}`");
            // The wire kind and `ServiceError::kind()` (the slow-query
            // log's outcome column) are the same vocabulary.
            assert!(
                line.starts_with(&format!("err kind={}", e.kind())),
                "`{line}` vs kind `{}`",
                e.kind()
            );
            let back = decode_result(&line).expect_err("err line must decode to an error");
            assert_eq!(back, e, "wire line was `{line}`");
        }
        for name in ALL {
            assert!(covered.contains(name), "no sample for variant {name}");
        }
    }

    #[test]
    fn hello_round_trips_and_v1_never_spoke_it() {
        let cmd = Command::Hello { proto: 2 };
        let line = encode_command(&cmd);
        assert_eq!(line, "hello proto=2");
        assert_eq!(decode_command(&line).unwrap(), cmd);
        // A client may ask for a future version; the server caps it.
        assert_eq!(
            decode_command("hello proto=9").unwrap(),
            Command::Hello { proto: 9 }
        );
        for bad in ["hello", "hello proto=1", "hello proto=x", "hello 2"] {
            assert!(
                matches!(decode_command(bad), Err(ServiceError::Protocol(_))),
                "`{bad}` should be rejected"
            );
        }
        let ack = HelloAck {
            proto: 2,
            window: 128,
        };
        let line = encode_hello_ok(&ack);
        assert_eq!(line, "ok proto=2 window=128");
        assert_eq!(decode_hello_ok(&line).unwrap(), ack);
        assert!(decode_hello_ok("ok proto=2").is_err());
        assert!(matches!(
            decode_hello_ok("err kind=protocol msg=nope"),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn request_tags_split_off_cleanly() {
        // Tagged lines: the id comes off, the rest is a v1 line.
        let (id, rest) = split_request_tag("run id=7 method=sf rule=q() :- e(x,y)\n").unwrap();
        assert_eq!(id, Some(7));
        assert_eq!(rest, "run method=sf rule=q() :- e(x,y)");
        let (id, rest) = split_request_tag("use id=8 graphs").unwrap();
        assert_eq!(id, Some(8));
        assert_eq!(rest, "use graphs");
        let (id, rest) = split_request_tag("ping id=9").unwrap();
        assert_eq!(id, Some(9));
        assert_eq!(rest, "ping");
        // Untagged lines pass through byte-identical.
        for line in [
            "run method=sf rule=q() :- e(x,y)",
            "use graphs",
            "ping",
            "stats",
        ] {
            assert_eq!(split_request_tag(line).unwrap(), (None, line.to_string()));
        }
        // `id=` anywhere but the first slot is not a tag (rule text may
        // legitimately contain it after `rule=`).
        let (id, rest) = split_request_tag("run method=sf rule=q() :- id(x)").unwrap();
        assert_eq!(id, None);
        assert_eq!(rest, "run method=sf rule=q() :- id(x)");
        // Malformed ids are protocol errors, not silently untagged.
        assert!(matches!(
            split_request_tag("run id=abc method=sf rule=q() :- e(x,y)"),
            Err(ServiceError::Protocol(_))
        ));
    }

    #[test]
    fn reply_tags_are_spliced_after_the_status_word() {
        let cases = [
            ("ok pong", "ok id=3 pong"),
            ("ok db=graphs version=2", "ok id=3 db=graphs version=2"),
            ("err kind=shutting_down", "err id=3 kind=shutting_down"),
        ];
        for (plain, tagged) in cases {
            assert_eq!(tag_reply(3, plain), tagged);
            assert_eq!(
                split_reply_tag(tagged).unwrap(),
                (Some(3), plain.to_string())
            );
        }
        // Untagged replies split to themselves.
        assert_eq!(
            split_reply_tag("ok pong").unwrap(),
            (None, "ok pong".to_string())
        );
        assert!(matches!(
            split_reply_tag("ok id=zzz pong"),
            Err(ServiceError::Protocol(_))
        ));
    }

    mod tag_props {
        use super::*;
        use proptest::prelude::*;

        /// A small corpus of representative request lines, indexed so
        /// proptest can pick one (the vendored shim has no string
        /// strategies).
        fn request_line(which: u32) -> String {
            match which % 5 {
                0 => encode_request(&sample_request()),
                1 => "use graphs".to_string(),
                2 => "load g1 edge 1,2;2,3".to_string(),
                3 => "stats".to_string(),
                _ => "ping".to_string(),
            }
        }

        fn reply_line(which: u32) -> String {
            match which % 4 {
                0 => encode_result(&Ok(sample_response())),
                1 => encode_ack(&Ok(Ack {
                    db: "graphs".into(),
                    version: Some(DbVersion(3)),
                })),
                2 => encode_result(&Err(ServiceError::UnknownDatabase("nope".into()))),
                _ => "ok pong".to_string(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Any id survives tag → split on any request line, and the
            /// de-tagged remainder decodes exactly like the original.
            #[test]
            fn tagged_requests_round_trip(id in 0u64..u64::MAX, which in 0u32..5) {
                let plain = request_line(which);
                let tagged = tag_request(id, &plain);
                let (got, rest) = split_request_tag(&tagged).unwrap();
                prop_assert_eq!(got, Some(id));
                prop_assert_eq!(&rest, &plain);
                prop_assert_eq!(
                    decode_command(&rest).unwrap(),
                    decode_command(&plain).unwrap()
                );
            }

            /// Any id survives tag → split on any reply line, restoring
            /// the payload byte-for-byte.
            #[test]
            fn tagged_replies_round_trip(id in 0u64..u64::MAX, which in 0u32..4) {
                let plain = reply_line(which);
                let tagged = tag_reply(id, &plain);
                let (got, payload) = split_reply_tag(&tagged).unwrap();
                prop_assert_eq!(got, Some(id));
                prop_assert_eq!(payload, plain);
            }

            /// Out-of-order interleaving demuxes losslessly: tag a batch
            /// of distinct replies with distinct ids, deliver them
            /// rotated, and each id still maps back to its own payload.
            #[test]
            fn interleaved_replies_demux_by_id(
                ids in prop::collection::vec(0u64..u64::MAX, 2..10),
                rot in 0usize..10,
            ) {
                let mut ids = ids;
                ids.sort_unstable();
                ids.dedup();
                let expected: Vec<(u64, String)> = ids
                    .iter()
                    .enumerate()
                    .map(|(i, &id)| (id, reply_line(i as u32)))
                    .collect();
                let mut wire: Vec<String> =
                    expected.iter().map(|(id, p)| tag_reply(*id, p)).collect();
                let k = rot % wire.len();
                wire.rotate_left(k);
                let mut got: Vec<(u64, String)> = wire
                    .iter()
                    .map(|line| {
                        let (id, payload) = split_reply_tag(line).unwrap();
                        (id.expect("every line was tagged"), payload)
                    })
                    .collect();
                got.sort_by_key(|(id, _)| *id);
                prop_assert_eq!(got, expected);
            }
        }
    }

    mod verb_props {
        use super::*;
        use proptest::prelude::*;

        /// The vendored proptest shim has no string strategies, so names
        /// are minted from integers (and stay inside the protocol's
        /// `[A-Za-z0-9_.-]` alphabet by construction).
        fn name(salt: u32, i: u32) -> String {
            match salt % 3 {
                0 => format!("db{i}"),
                1 => format!("g-{i}.v2"),
                _ => format!("rel_{i}"),
            }
        }

        fn tuples(raw: Vec<Vec<u32>>) -> Vec<Box<[u32]>> {
            raw.into_iter().map(Vec::into_boxed_slice).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn use_create_drop_round_trip(salt in 0u32..3, i in 0u32..1_000_000, which in 0u32..3) {
                let n = name(salt, i);
                let cmd = match which {
                    0 => Command::Use(n),
                    1 => Command::Create(n),
                    _ => Command::Drop(n),
                };
                let line = encode_command(&cmd);
                prop_assert_eq!(decode_command(&line).unwrap(), cmd);
            }

            #[test]
            fn load_round_trips(
                salt in 0u32..3,
                i in 0u32..1_000_000,
                raw in prop::collection::vec(prop::collection::vec(0u32..u32::MAX, 1..5), 1..8),
            ) {
                let cmd = Command::Load {
                    db: name(salt, i),
                    rel: name(salt.wrapping_add(1), i),
                    tuples: tuples(raw),
                };
                let line = encode_command(&cmd);
                prop_assert_eq!(decode_command(&line).unwrap(), cmd);
            }

            #[test]
            fn add_round_trips(
                salt in 0u32..3,
                i in 0u32..1_000_000,
                raw in prop::collection::vec(0u32..u32::MAX, 1..5),
            ) {
                let cmd = Command::Add {
                    db: name(salt, i),
                    rel: name(salt.wrapping_add(2), i),
                    tuple: raw.into_boxed_slice(),
                };
                let line = encode_command(&cmd);
                prop_assert_eq!(decode_command(&line).unwrap(), cmd);
            }

            #[test]
            fn acks_round_trip_for_any_version(i in 0u32..1_000_000, v in 0u64..u64::MAX, versioned in prop::bool::ANY) {
                let ack = Ack {
                    db: name(i % 3, i),
                    version: if versioned { Some(DbVersion(v)) } else { None },
                };
                let line = encode_ack(&Ok(ack.clone()));
                prop_assert_eq!(decode_ack(&line).unwrap(), ack);
            }
        }
    }
}

#[cfg(test)]
mod framer_tests {
    use super::*;

    #[test]
    fn framer_reassembles_split_lines_and_bounds_the_tail() {
        let mut f = LineFramer::new();
        f.push(b"pi");
        assert!(f.next_line().unwrap().is_none());
        f.push(b"ng\nstats\nsl");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("ping"));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("stats"));
        assert!(f.next_line().unwrap().is_none());
        assert_eq!(f.buffered(), 2);
        f.push(b"owlog\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("slowlog"));
        assert_eq!(f.buffered(), 0);

        // An unterminated line past MAX_LINE is a protocol error, but a
        // terminated line of any buffered size under it still frames.
        let mut f = LineFramer::new();
        f.push(&vec![b'x'; MAX_LINE + 1]);
        assert!(matches!(f.next_line(), Err(ServiceError::Protocol(_))));
    }

    #[test]
    fn framer_handles_empty_lines_and_crlf_is_not_special() {
        let mut f = LineFramer::new();
        f.push(b"\n\nping\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(f.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("ping"));
        assert!(f.next_line().unwrap().is_none());
    }
}
