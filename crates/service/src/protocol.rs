//! The newline-delimited wire format: encoding and decoding.
//!
//! **The protocol specification lives in `docs/PROTOCOL.md` (repository
//! root) — the one source of truth** for the grammar (v1 untagged and v2
//! tagged), every verb, the full `err kind=` matrix, and worked serial
//! and pipelined sessions. In one breath: one UTF-8 request per line, one
//! response line per request; a v2 client may tag requests with `id=` and
//! keep many in flight, and the server echoes the tag on every `ok`/`err`
//! line while completing them out of order.
//!
//! Each reply line's keys come from one private table of fields in wire
//! order, which the line's encoder and decoder both walk; a unit test
//! holds the grammar blocks of `docs/PROTOCOL.md` to the tables.

use ppr_core::methods::Method;
use ppr_obs::{OpKind, OpNode, PassSpan, Phase, Quantiles, SlowEntry, TraceSpans, PHASES};
use ppr_relalg::budget::BudgetKind;
use ppr_relalg::{ExecDigest, ExecStats, RelalgError, Value};
use std::fmt::Write as _;
use std::time::Duration;

use crate::catalog::{DbInfo, DbVersion};
use crate::engine::{Answer, EngineStats, ExplainMode, Request, Response, Reuse};
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

// ---------------------------------------------------------------------------
// Reply lines. Each is one table of fields in wire order, walked by the
// generic encoders and decoders below; `docs/PROTOCOL.md` is checked
// against the tables.

/// Keys spelled in more than one place (several lines, or a hand-written
/// encoder and decoder), spelled once.
mod key {
    pub const CACHE_HIT: &str = "cache_hit";
    pub const RESULT_HIT: &str = "result_hit";
    pub const PLAN_US: &str = "plan_us";
    pub const TOTAL_US: &str = "total_us";
    pub const ROWS: &str = "rows";
    pub const TUPLES: &str = "tuples";
    pub const SCANNED: &str = "scanned";
    pub const EMITTED: &str = "emitted";
    pub const IX_PROBES: &str = "ix_probes";
    pub const IX_BUILDS: &str = "ix_builds";
    pub const THREADS: &str = "threads";
    pub const JOIN_STAGES: &str = "join_stages";
    pub const PASSES: &str = "passes";
    pub const INFLIGHT: &str = "inflight";
    pub const DB: &str = "db";
    pub const VERSION: &str = "version";
    pub const FINGERPRINT: &str = "fingerprint";
    pub const COUNT: &str = "n";
    pub const COLS: &str = "cols";
    pub const DATA: &str = "data";
    pub const OPS: &str = "ops";
    pub const ENTRIES: &str = "entries";
    pub const DBS: &str = "dbs";
}

/// A value a reply field carries: written in its one canonical form and
/// read back strictly.
trait Token: Sized {
    fn put(&self, out: &mut String);
    fn take(text: &str) -> Option<Self>;
}

/// `token!(T, … => |v, out| put, |text| take)`: each `T`'s [`Token`].
macro_rules! token {
    ($($t:ty),* => |$v:ident, $out:ident| $put:expr, |$text:ident| $take:expr) => {$(
        impl Token for $t {
            fn put(&self, $out: &mut String) {
                let $v = self;
                $put
            }
            fn take($text: &str) -> Option<Self> {
                $take
            }
        }
    )*};
}

const WRITE: &str = "a String takes every write";

token!(u64 => |v, out| push_decimal(out, *v), |text| text.parse().ok());
token!(u32 => |v, out| push_decimal(out, u64::from(*v)), |text| text.parse().ok());
token!(usize => |v, out| push_decimal(out, *v as u64), |text| text.parse().ok());
token!(String => |v, out| out.push_str(v), |text| Some(text.to_string()));
// A `0|1` flag: nothing else reads as one.
token!(bool =>
    |v, out| out.push(if *v { '1' } else { '0' }),
    |text| ["0", "1"].iter().position(|&b| b == text).map(|i| i == 1));
// Whole microseconds.
token!(Duration =>
    |v, out| match u64::try_from(v.as_micros()) {
        Ok(us) => push_decimal(out, us),
        Err(_) => write!(out, "{}", v.as_micros()).expect(WRITE),
    },
    |text| text.parse().ok().map(Duration::from_micros));
// A fingerprint: 32 lowercase hex digits.
token!(u128 =>
    |v, out| write!(out, "{v:032x}").expect(WRITE),
    |text| u128::from_str_radix(text, 16).ok());
token!(DbVersion => |v, out| v.0.put(out), |text| u64::take(text).map(DbVersion));
token!(OpKind => |v, out| out.push_str(v.name()), |text| OpKind::from_name(text));

/// Appends `v` in decimal: the reply headers' one number writer, without
/// the formatting machinery's per-call cost.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// `None` writes nothing.
impl<T: Token> Token for Option<T> {
    fn put(&self, out: &mut String) {
        self.iter().for_each(|v| v.put(out));
    }
    fn take(text: &str) -> Option<Self> {
        T::take(text).map(Some)
    }
}

/// One `key=value` token of a reply line, or one column of a record: its
/// key, and how to write it from and read it into a `T`.
struct Field<T> {
    key: &'static str,
    get: fn(&T, &mut String),
    set: fn(&mut T, &str) -> Option<()>,
}

/// `field!(key, t => t.place)`: the field stored at `t.place`, written
/// and read as a [`Token`] or by the given `put` and `take`.
macro_rules! field {
    ($key:expr, $t:ident => $place:expr) => {
        field!($key, $t => $place, Token::put, Token::take)
    };
    ($key:expr, $t:ident => $place:expr, $put:expr, $take:expr) => {
        Field {
            key: $key,
            get: |$t, out| $put(&$place, out),
            set: |$t, text| {
                $place = $take(text)?;
                Some(())
            },
        }
    };
}

/// A text column where `-` stands for empty, so that it is never empty.
fn put_dashed(text: &str, out: &mut String) {
    out.push_str(if text.is_empty() { "-" } else { text });
}

fn take_dashed(text: &str) -> Option<String> {
    Some(if text == "-" { "" } else { text }.to_string())
}

/// Appends ` key=value` per field.
fn put_fields<T>(out: &mut String, table: &[Field<T>], t: &T) {
    for f in table {
        out.push(' ');
        out.push_str(f.key);
        out.push('=');
        (f.get)(t, out);
    }
}

/// `ok` and ` key=value` per field.
fn ok_line<T>(table: &[Field<T>], t: &T) -> String {
    let mut line = String::from("ok");
    put_fields(&mut line, table, t);
    line
}

/// Appends `items` as records of the fields' values: `seps[1]` between
/// values, `seps[0]` between records.
fn put_records<T>(out: &mut String, table: &[Field<T>], items: &[T], seps: [char; 2]) {
    for (i, t) in items.iter().enumerate() {
        for (j, f) in table.iter().enumerate() {
            if i + j > 0 {
                out.push(seps[usize::from(j > 0)]);
            }
            (f.get)(t, out);
        }
    }
}

fn set_field<T>(f: &Field<T>, t: &mut T, value: &str) -> Result<(), ServiceError> {
    (f.set)(t, value)
        .ok_or_else(|| ServiceError::Protocol(format!("bad value for {}: {value}", f.key)))
}

/// Reads `key=value` tokens into `t`, in any order, and returns the mask
/// of the table rows read. A key outside `table` goes to `other`, which
/// says whether it took it. Each lookup tries the row after the last one
/// first: that is where a well-formed line has it.
fn take_fields<T>(
    text: &str,
    table: &[Field<T>],
    t: &mut T,
    mut other: impl FnMut(&mut T, &str, &str) -> Result<bool, ServiceError>,
) -> Result<u64, ServiceError> {
    let (mut next, mut seen) = (0, 0);
    for tok in text.split_whitespace() {
        let Some((k, v)) = tok.split_once('=') else {
            return perr(format!("bad token `{tok}`"));
        };
        let row = match table.get(next) {
            Some(f) if f.key == k => Some(next),
            _ => table.iter().position(|f| f.key == k),
        };
        match row {
            Some(i) => {
                set_field(&table[i], t, v)?;
                (next, seen) = (i + 1, seen | 1 << i);
            }
            None if other(t, k, v)? => {}
            None => return perr(format!("unknown key `{k}`")),
        }
    }
    Ok(seen)
}

/// The `other` of a line that is its table alone.
fn no_other<T>(_: &mut T, _: &str, _: &str) -> Result<bool, ServiceError> {
    Ok(false)
}

/// Reads the next `table.len()` values of a record into `t`.
fn take_values<'a, T>(
    values: &mut impl Iterator<Item = &'a str>,
    table: &[Field<T>],
    t: &mut T,
) -> Result<(), ServiceError> {
    for f in table {
        let Some(v) = values.next() else {
            return perr(format!("record lacks {}", f.key));
        };
        set_field(f, t, v)?;
    }
    Ok(())
}

/// Reads one record [`put_records`] wrote, its values `sep`-separated.
fn take_record<T: Default>(record: &str, table: &[Field<T>], sep: char) -> Result<T, ServiceError> {
    let (mut t, mut values) = (T::default(), record.split(sep));
    take_values(&mut values, table, &mut t)?;
    match values.next() {
        Some(_) => perr(format!("bad record `{record}`")),
        None => Ok(t),
    }
}

/// The payload of an `ok …` reply, or the error of an `err …` one;
/// `what` names the expected reply in the error for anything else.
fn reply_body<'a>(line: &'a str, what: &str) -> Result<&'a str, ServiceError> {
    let line = line.trim_end_matches(['\r', '\n']);
    if let Some(rest) = line.strip_prefix("err") {
        return Err(decode_error(rest.trim_start()));
    }
    line.strip_prefix("ok ")
        .ok_or_else(|| ServiceError::Protocol(format!("expected {what} line, got `{line}`")))
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

const HELLO: &[Field<HelloAck>] = &[
    field!("proto", a => a.proto),
    field!("window", a => a.window),
];

/// Encodes the handshake acceptance line.
pub fn encode_hello_ok(ack: &HelloAck) -> String {
    ok_line(HELLO, ack)
}

/// Decodes the server's `hello` reply.
pub fn decode_hello_ok(line: &str) -> Result<HelloAck, ServiceError> {
    let mut ack = HelloAck {
        proto: 0,
        window: 0,
    };
    match take_fields(reply_body(line, "hello ack")?, HELLO, &mut ack, no_other)? {
        0b11 => Ok(ack),
        _ => perr("hello ack needs proto= and window="),
    }
}

/// An ack without a version has `db=` alone.
const ACK: &[Field<Ack>] = &[
    field!(key::DB, a => a.db),
    field!(key::VERSION, a => a.version),
];

/// Encodes a catalog-verb outcome as one `ok`/`err` line.
pub fn encode_ack(result: &Result<Ack, ServiceError>) -> String {
    match result {
        Ok(ack) if ack.version.is_none() => ok_line(&ACK[..1], ack),
        Ok(ack) => ok_line(ACK, ack),
        Err(e) => encode_error(e),
    }
}

/// Decodes a server `ok`/`err` line for a catalog verb.
pub fn decode_ack(line: &str) -> Result<Ack, ServiceError> {
    let mut ack = Ack {
        db: String::new(),
        version: None,
    };
    match take_fields(reply_body(line, "ack")?, ACK, &mut ack, no_other)? & 1 {
        1 => Ok(ack),
        _ => perr("ack line needs db="),
    }
}

/// The result header's first keys: what the request reused.
const REUSE: &[Field<Reuse>] = &[
    field!(key::CACHE_HIT, r => r.cache_hit),
    field!(key::RESULT_HIT, r => r.result_cache_hit),
    field!(key::PLAN_US, r => r.plan_micros),
];

/// The rest of the result header, before the hand-written
/// `cols= rows= data=`: the stats of the execution that produced the rows.
const EXEC: &[Field<ExecStats>] = &[
    field!("elapsed_us", s => s.elapsed),
    field!("cpu_us", s => s.cpu_time),
    field!(key::TUPLES, s => s.tuples_flowed),
    field!(key::SCANNED, s => s.rows_scanned),
    field!(key::EMITTED, s => s.rows_emitted),
    field!(key::IX_PROBES, s => s.index_probes),
    field!(key::IX_BUILDS, s => s.index_builds),
    field!("materializations", s => s.materializations),
    field!(key::JOIN_STAGES, s => s.join_stages),
    field!("max_arity", s => s.max_intermediate_arity),
    field!(key::THREADS, s => s.threads_used),
];

/// Encodes an evaluation outcome as one `ok`/`err` line.
pub fn encode_result(result: &Result<Response, ServiceError>) -> String {
    match result {
        Ok(r) => result_line(&r.reuse(), &r.columns.join(","), &r.rows, &r.stats),
        Err(e) => encode_error(e),
    }
}

/// [`encode_result`] of the engine's answer, written straight from the
/// result it shares with the result cache.
pub(crate) fn encode_answer(result: &Result<Answer, ServiceError>) -> String {
    match result {
        Ok(a) => {
            let r = &a.result;
            result_line(&a.reuse, &a.columns, &r.rows, &r.stats)
        }
        Err(e) => encode_error(e),
    }
}

fn result_line(reuse: &Reuse, columns: &str, rows: &[Box<[Value]>], stats: &ExecStats) -> String {
    // Sized once: 512 bytes hold the header's keys and numbers.
    let mut line = String::with_capacity(512 + columns.len() + tuples_len_bound(rows));
    line.push_str("ok");
    put_fields(&mut line, REUSE, reuse);
    put_fields(&mut line, EXEC, stats);
    let count = rows.len();
    write!(
        line,
        " {}={columns} {}={count} {}=",
        key::COLS,
        key::ROWS,
        key::DATA
    )
    .expect(WRITE);
    push_tuples(&mut line, rows);
    line
}

/// Decodes a server `ok`/`err` response line for a `run` request.
pub fn decode_result(line: &str) -> Result<Response, ServiceError> {
    let rest = reply_body(line, "ok/err")?;
    let Some((head, data)) = rest.split_once(&format!("{}=", key::DATA)) else {
        return perr("ok line needs data=");
    };
    let (mut reuse, mut stats) = (Reuse::default(), ExecStats::default());
    let mut columns = Vec::new();
    let mut expected_rows = None;
    take_fields(head, REUSE, &mut reuse, |_, k, v| {
        if let Some(f) = EXEC.iter().find(|f| f.key == k) {
            set_field(f, &mut stats, v)?;
            return Ok(true);
        }
        match k {
            key::COLS if v.is_empty() => columns = Vec::new(),
            key::COLS => columns = v.split(',').map(str::to_string).collect(),
            key::ROWS => expected_rows = Some(parse_num::<usize>(k, v)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let rows = if !data.is_empty() {
        decode_tuples(data)?
    } else if columns.is_empty() && expected_rows == Some(1) {
        // A Boolean `true`: one row of no columns, which `data=` cannot show.
        vec![Box::from([])]
    } else {
        Vec::new()
    };
    if let Some(n) = expected_rows.filter(|&n| n != rows.len()) {
        return perr(format!("row count {} does not match rows={n}", rows.len()));
    }
    Ok(Response {
        columns,
        rows,
        stats,
        cache_hit: reuse.cache_hit,
        result_cache_hit: reuse.result_cache_hit,
        plan_micros: reuse.plan_micros,
        trace: TraceSpans::new(),
        explain: None,
    })
}

/// The `which=` names of the three budgets.
const BUDGETS: [(BudgetKind, &str); 3] = [
    (BudgetKind::Tuples, "tuples"),
    (BudgetKind::Materialized, "materialized"),
    (BudgetKind::WallClock, "wallclock"),
];

/// `err kind=<ServiceError::kind()>` and the kind's fields (PROTOCOL.md §5).
fn encode_error(e: &ServiceError) -> String {
    let mut line = format!("err kind={}", e.kind());
    match e {
        ServiceError::Overloaded { inflight, capacity } => {
            write!(line, " {}={inflight} capacity={capacity}", key::INFLIGHT)
        }
        ServiceError::ShuttingDown => Ok(()),
        ServiceError::Exec(RelalgError::BudgetExceeded {
            kind,
            tuples_flowed,
        }) => {
            let (_, which) = BUDGETS.iter().find(|(k, _)| k == kind).expect("every kind");
            write!(line, " which={which} {}={tuples_flowed}", key::TUPLES)
        }
        // `InvalidPlan` round-trips losslessly; `MissingAttr` degrades to
        // `InvalidPlan` carrying its Display text (the client cannot act
        // on the distinction — both mean "the server built a bad plan").
        ServiceError::Exec(RelalgError::InvalidPlan(m))
        | ServiceError::Parse(m)
        | ServiceError::MissingRelation(m)
        | ServiceError::UnknownDatabase(m)
        | ServiceError::Catalog(m)
        | ServiceError::UnknownMethod(m)
        | ServiceError::Protocol(m)
        | ServiceError::Io(m)
        | ServiceError::Internal(m) => write!(line, " msg={m}"),
        ServiceError::Exec(other) => write!(line, " msg={other}"),
    }
    .expect(WRITE);
    line
}

fn decode_error(rest: &str) -> ServiceError {
    let (head, msg) = rest.split_once("msg=").unwrap_or((rest, ""));
    let msg = msg.to_string();
    let field = |key: &str| {
        let mut pairs = head
            .split_whitespace()
            .filter_map(|tok| tok.split_once('='));
        pairs.find(|(k, _)| *k == key).map(|(_, v)| v)
    };
    let num = |key: &str| field(key).and_then(|v| v.parse().ok()).unwrap_or(0);
    match field("kind").unwrap_or("") {
        "overloaded" => ServiceError::Overloaded {
            inflight: num(key::INFLIGHT) as usize,
            capacity: num("capacity") as usize,
        },
        "shutting_down" => ServiceError::ShuttingDown,
        "parse" => ServiceError::Parse(msg),
        "missing_relation" => ServiceError::MissingRelation(msg),
        "unknown_db" => ServiceError::UnknownDatabase(msg),
        "catalog" => ServiceError::Catalog(msg),
        "unknown_method" => ServiceError::UnknownMethod(msg),
        "budget" => ServiceError::Exec(RelalgError::BudgetExceeded {
            kind: BUDGETS
                .into_iter()
                .find(|(_, name)| Some(*name) == field("which"))
                .map_or(BudgetKind::Tuples, |(kind, _)| kind),
            tuples_flowed: num(key::TUPLES),
        }),
        "exec" => ServiceError::Exec(RelalgError::InvalidPlan(msg)),
        "io" => ServiceError::Io(msg),
        "internal" => ServiceError::Internal(msg),
        _ if !msg.is_empty() => ServiceError::Protocol(msg),
        kind => ServiceError::Protocol(format!("unknown error kind `{kind}`")),
    }
}

/// The `stats` counters, before the span quartets.
const STATS: &[Field<EngineStats>] = &[
    field!("served", s => s.served),
    field!("rejected", s => s.rejected),
    field!(key::INFLIGHT, s => s.inflight),
    field!("hits", s => s.cache.hits),
    field!("misses", s => s.cache.misses),
    field!("evictions", s => s.cache.evictions),
    field!("collisions", s => s.cache.collisions),
    field!("cache_len", s => s.cache.len),
    field!("r_hits", s => s.results.hits),
    field!("r_misses", s => s.results.misses),
    field!("r_evictions", s => s.results.evictions),
    field!("r_collisions", s => s.results.collisions),
    field!("r_oversized", s => s.results.oversized),
    field!("r_len", s => s.results.len),
    field!("r_bytes", s => s.results.bytes),
    field!("r_cap", s => s.results.capacity_bytes),
    field!(key::IX_PROBES, s => s.index_probes),
    field!(key::IX_BUILDS, s => s.index_builds),
    field!(key::PASSES, s => s.passes_run),
    field!("decomp_hits", s => s.decomp_cache_hits),
    field!("d_hits", s => s.decomps.hits),
    field!("d_misses", s => s.decomps.misses),
    field!("d_evictions", s => s.decomps.evictions),
    field!("d_collisions", s => s.decomps.collisions),
    field!("d_len", s => s.decomps.len),
    field!("d_cap", s => s.decomps.capacity),
];

/// One span quartet, keyed `<phase>_<key>`, or `total_<key>` for
/// end-to-end latency.
const QUARTET: &[Field<Quantiles>] = &[
    field!(key::COUNT, q => q.count),
    field!("p50", q => q.p50),
    field!("p95", q => q.p95),
    field!("p99", q => q.p99),
];

const TOTAL: &str = "total";

/// Encodes the `stats` reply: the counters, then one quartet of span
/// quantiles (microseconds, from the engine's shared histograms) per
/// phase and one for end-to-end latency.
pub fn encode_stats(s: &EngineStats) -> String {
    let mut line = ok_line(STATS, s);
    let quartets = PHASES
        .iter()
        .map(|&p| (p.name(), &s.spans.phase[p as usize]));
    for (name, q) in quartets.chain([(TOTAL, &s.spans.total)]) {
        for f in QUARTET {
            write!(line, " {name}_{}=", f.key).expect(WRITE);
            (f.get)(q, &mut line);
        }
    }
    line
}

/// Decodes the `stats` reply.
pub fn decode_stats(line: &str) -> Result<EngineStats, ServiceError> {
    let mut s = EngineStats::default();
    take_fields(reply_body(line, "stats")?, STATS, &mut s, |s, k, v| {
        let Some((prefix, suffix)) = k.rsplit_once('_') else {
            return Ok(false);
        };
        let q = match Phase::parse_name(prefix) {
            Some(p) => &mut s.spans.phase[p as usize],
            None if prefix == TOTAL => &mut s.spans.total,
            None => return Ok(false),
        };
        match QUARTET.iter().find(|f| f.key == suffix) {
            Some(f) => set_field(f, q, v).map(|()| true),
            None => Ok(false),
        }
    })?;
    Ok(s)
}

/// The `trace` verb's reply: where one request's time went. The spans
/// are the worker's record; the digest gives the execution scale that
/// explains them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Per-phase durations recorded by the worker (microseconds).
    pub spans: TraceSpans,
    /// Wall time the server observed around the engine call — an upper
    /// bound on the sum of the spans.
    pub total_us: u64,
    /// Result rows.
    pub rows: u64,
    /// Whether planning was skipped (a plan- or result-cache hit).
    pub cache_hit: bool,
    /// Whether the rows came from the result cache.
    pub result_cache_hit: bool,
    /// The execution's counters (all zero on a result-cache hit).
    pub digest: ExecDigest,
}

impl TraceReport {
    /// Summarizes `answer`, observed to take `total_us` of wall time: the
    /// spans ride on the answer, the row count and digest come from the
    /// result it shares with the result cache.
    pub(crate) fn of(answer: &Answer, total_us: u64) -> TraceReport {
        TraceReport {
            spans: answer.trace,
            total_us,
            rows: answer.result.rows.len() as u64,
            cache_hit: answer.reuse.cache_hit,
            result_cache_hit: answer.reuse.result_cache_hit,
            digest: answer.result.stats.digest(),
        }
    }
}

/// The `trace` reply after its `<phase>_us` spans.
const TRACE: &[Field<TraceReport>] = &[
    field!(key::TOTAL_US, r => r.total_us),
    field!(key::ROWS, r => r.rows),
    field!(key::CACHE_HIT, r => r.cache_hit),
    field!(key::RESULT_HIT, r => r.result_cache_hit),
    field!(key::TUPLES, r => r.digest.tuples_flowed),
    field!("peak", r => r.digest.peak_materialized),
    field!("stages", r => r.digest.join_stages),
    field!(key::THREADS, r => r.digest.threads_used),
    field!(key::SCANNED, r => r.digest.rows_scanned),
    field!(key::EMITTED, r => r.digest.rows_emitted),
    field!(key::IX_PROBES, r => r.digest.index_probes),
    field!(key::IX_BUILDS, r => r.digest.index_builds),
];

/// Encodes a `trace` outcome as one `ok`/`err` line.
pub fn encode_trace_report(result: &Result<TraceReport, ServiceError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return encode_error(e),
    };
    let mut line = String::from("ok");
    for p in PHASES {
        write!(line, " {}_us={}", p.name(), r.spans.get(p)).expect(WRITE);
    }
    put_fields(&mut line, TRACE, r);
    line
}

/// Decodes a `trace` reply line.
pub fn decode_trace_report(line: &str) -> Result<TraceReport, ServiceError> {
    let mut r = TraceReport::default();
    take_fields(reply_body(line, "trace")?, TRACE, &mut r, |r, k, v| {
        let Some(p) = k.strip_suffix("_us").and_then(Phase::parse_name) else {
            return Ok(false);
        };
        r.spans.set(p, parse_num(k, v)?);
        Ok(true)
    })?;
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
    /// Whether planning was skipped (always `false` today: explain
    /// bypasses both caches; kept on the wire for forward compatibility).
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
    /// Summarizes an explained answer observed to take `total_us` of
    /// wall time; the row count comes from its result. An answer without
    /// explain data (not produced by an explain request) yields empty
    /// pass and operator lists.
    pub(crate) fn of(answer: Answer, total_us: u64) -> ExplainReport {
        let data = answer.explain.map(|d| *d).unwrap_or_default();
        ExplainReport {
            analyze: data.analyze,
            plan_us: answer.reuse.plan_micros,
            total_us,
            rows: answer.result.rows.len() as u64,
            cache_hit: answer.reuse.cache_hit,
            result_cache_hit: answer.reuse.result_cache_hit,
            passes: data.passes,
            ops: data.ops,
        }
    }
}

/// The `explain` header, before its `passes=` and `ops=` record lists.
const EXPLAIN: &[Field<ExplainReport>] = &[
    field!("mode", r => r.analyze, put_mode, take_mode),
    field!(key::PLAN_US, r => r.plan_us),
    field!(key::TOTAL_US, r => r.total_us),
    field!(key::ROWS, r => r.rows),
    field!(key::CACHE_HIT, r => r.cache_hit),
    field!(key::RESULT_HIT, r => r.result_cache_hit),
];

const MODES: [&str; 2] = ["plan", "analyze"];

fn put_mode(&analyze: &bool, out: &mut String) {
    out.push_str(MODES[usize::from(analyze)]);
}

fn take_mode(text: &str) -> Option<bool> {
    MODES.iter().position(|&m| m == text).map(|i| i == 1)
}

/// A `passes=` record; records are `/`-separated, values `:`-separated.
const PASS: &[Field<PassSpan>] = &[
    field!("name", p => p.name),
    field!("micros", p => p.micros),
    field!("nodes_before", p => p.nodes_before),
    field!("nodes_after", p => p.nodes_after),
];

/// An `ops=` record, separated like [`PASS`]; `-` is an empty target.
const OP: &[Field<OpNode>] = &[
    field!("depth", n => n.depth),
    field!("kind", n => n.op),
    field!("target", n => n.target, put_dashed, take_dashed),
    field!("rows_in", n => n.rows_in),
    field!("rows_out", n => n.rows_out),
    field!("probes", n => n.probes),
    field!("time_us", n => n.time_us),
];

/// Encodes an `explain` outcome as one `ok`/`err` line. The pass and
/// operator records are separator-safe: pass names are fixed kebab-case
/// identifiers and targets pass `check_name` (no `:`, `/`, whitespace, or
/// `=`).
pub fn encode_explain_report(result: &Result<ExplainReport, ServiceError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return encode_error(e),
    };
    let mut line = ok_line(EXPLAIN, r);
    write!(line, " {}=", key::PASSES).expect(WRITE);
    put_records(&mut line, PASS, &r.passes, ['/', ':']);
    write!(line, " {}=", key::OPS).expect(WRITE);
    put_records(&mut line, OP, &r.ops, ['/', ':']);
    line
}

/// Decodes an `explain` reply line.
pub fn decode_explain_report(line: &str) -> Result<ExplainReport, ServiceError> {
    let mut r = ExplainReport::default();
    take_fields(reply_body(line, "explain")?, EXPLAIN, &mut r, |r, k, v| {
        let records = v.split('/').filter(|r| !r.is_empty());
        match k {
            key::PASSES => {
                r.passes = records
                    .map(|r| take_record(r, PASS, ':'))
                    .collect::<Result<_, _>>()?
            }
            key::OPS => {
                r.ops = records
                    .map(|r| take_record(r, OP, ':'))
                    .collect::<Result<_, _>>()?
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(r)
}

/// The `;`-separated records of a listing reply, each read by `record`
/// and their number checked against the `n=` count.
fn listing<T>(
    line: &str,
    what: &str,
    list: &str,
    record: impl FnMut(&str) -> Result<T, ServiceError>,
) -> Result<Vec<T>, ServiceError> {
    let rest = reply_body(line, what)?;
    let Some((head, data)) = rest.split_once(&format!("{list}=")) else {
        return perr(format!("{what} line needs {list}="));
    };
    let mut count = None;
    for tok in head.split_whitespace() {
        match tok.split_once('=') {
            Some((key::COUNT, v)) => count = Some(parse_num::<usize>(key::COUNT, v)?),
            _ => return perr(format!("bad token `{tok}`")),
        }
    }
    // An empty list is an empty `data`, not one empty record.
    let records = data.split(';').filter(|_| !data.is_empty());
    let items = records.map(record).collect::<Result<Vec<T>, _>>()?;
    match count {
        Some(n) if n != items.len() => {
            perr(format!("{what} count {} does not match n={n}", items.len()))
        }
        _ => Ok(items),
    }
}

/// A slowlog record's columns before its `<phase>_us` spans.
const SLOW_HEAD: &[Field<SlowEntry>] = &[
    field!(key::DB, e => e.db),
    field!(key::VERSION, e => e.version),
    field!(key::FINGERPRINT, e => e.fingerprint),
    field!("method", e => e.method),
    field!("outcome", e => e.outcome),
    field!(key::TOTAL_US, e => e.total_us),
];

/// A slowlog record's columns after its spans. The operator digest's own
/// separators are `:` and `/`, so it is safe inside a record.
const SLOW_TAIL: &[Field<SlowEntry>] = &[
    field!(key::ROWS, e => e.rows),
    field!("tuples_flowed", e => e.tuples_flowed),
    field!("rows_scanned", e => e.rows_scanned),
    field!("peak_materialized", e => e.peak_materialized),
    field!(key::JOIN_STAGES, e => e.join_stages),
    field!("threads_used", e => e.threads_used),
    field!("passes_run", e => e.passes_run),
    field!("decomp_hit", e => e.decomp_hit),
    field!("op_digest", e => e.op_digest, put_dashed, take_dashed),
    field!("seq", e => e.seq),
];

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
    let mut line = format!("ok {}={} {}=", key::COUNT, entries.len(), key::ENTRIES);
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            line.push(';');
        }
        let one = std::slice::from_ref(e);
        put_records(&mut line, SLOW_HEAD, one, [';', ',']);
        for p in PHASES {
            write!(line, ",{}", e.spans.get(p)).expect(WRITE);
        }
        line.push(',');
        put_records(&mut line, SLOW_TAIL, one, [';', ',']);
    }
    line
}

/// Decodes the `slowlog` reply.
pub fn decode_slowlog(line: &str) -> Result<Vec<SlowEntry>, ServiceError> {
    listing(line, "slowlog", key::ENTRIES, |record| {
        let (mut e, mut values) = (SlowEntry::default(), record.split(','));
        take_values(&mut values, SLOW_HEAD, &mut e)?;
        for p in PHASES {
            e.spans
                .set(p, parse_num(p.name(), values.next().unwrap_or_default())?);
        }
        take_values(&mut values, SLOW_TAIL, &mut e)?;
        match values.next() {
            Some(_) => perr(format!("bad slowlog record `{record}`")),
            None => Ok(e),
        }
    })
}

/// A `dbs` record; the name must be a database name.
const DB_INFO: &[Field<DbInfo>] = &[
    field!("name", d => d.name, Token::put, |name| check_name("database", name)
        .ok()
        .map(|()| name.to_string())),
    field!(key::VERSION, d => d.version),
    field!(key::FINGERPRINT, d => d.fingerprint.0),
    field!("relations", d => d.relations),
];

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
    let mut line = format!("ok {}={} {}=", key::COUNT, infos.len(), key::DBS);
    put_records(&mut line, DB_INFO, infos, [';', ',']);
    line
}

/// Decodes the `dbs` reply.
pub fn decode_dbs(line: &str) -> Result<Vec<DbInfo>, ServiceError> {
    listing(line, key::DBS, key::DBS, |record| {
        take_record(record, DB_INFO, ',')
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_relalg::ExecStats;

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
        for line in ["ok db=graphs version=12", "ok db=graphs"] {
            assert_eq!(encode_ack(&Ok(decode_ack(line).unwrap())), line);
        }
        assert!(decode_ack("ok version=12").is_err(), "no db=");
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

    /// Field values round-trip in `every_table_field_round_trips_with_a_value_of_its_own`.
    #[test]
    fn stats_round_trip() {
        let s = EngineStats::default();
        assert_eq!(decode_stats(&encode_stats(&s)).unwrap(), s);
        // The quantile fallback only accepts `{phase}_{n|p50|p95|p99}`.
        for bad in ["ok zap_p50=1", "ok exec_p42=1", "ok total_q=1", "ok _p50=1"] {
            assert!(decode_stats(bad).is_err(), "`{bad}` should be rejected");
        }
        let err = ServiceError::ShuttingDown;
        assert_eq!(decode_stats(&encode_error(&err)).unwrap_err(), err);
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
        let r = TraceReport::default();
        assert_eq!(
            decode_trace_report(&encode_trace_report(&Ok(r))).unwrap(),
            r
        );
        let err = ServiceError::UnknownDatabase("nope".into());
        assert_eq!(
            decode_trace_report(&encode_trace_report(&Err(err.clone()))).unwrap_err(),
            err
        );
        for bad in ["ok warp_us=1", "ok exec_ms=1", "ok peak"] {
            assert!(
                decode_trace_report(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
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
        // Pass and operator records, and their absence, read back as written.
        for line in [
            "ok mode=analyze plan_us=1 total_us=2 rows=6 cache_hit=0 result_hit=0 \
             passes=listing-order:12:0:0/push:3:1:2 ops=0:distinct:-:8:6:0:40/1:ix_join:edge:9:8:9:1",
            "ok mode=plan plan_us=10 total_us=0 rows=0 cache_hit=0 result_hit=0 passes= ops=",
        ] {
            let report = decode_explain_report(line).unwrap();
            assert_eq!(encode_explain_report(&Ok(report)), line);
        }
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
        assert_eq!(decode_dbs(&encode_dbs(&Ok(Vec::new()))).unwrap(), vec![]);
        // Count mismatches and malformed records are caught.
        assert!(decode_dbs("ok n=2 dbs=").is_err());
        assert!(decode_dbs("ok n=1 dbs=a,b").is_err());
        assert!(decode_dbs("ok n=1 dbs=a,1,zz,0").is_err(), "bad hex");
        assert!(decode_dbs("ok n=1 dbs=a;b,1,0,0").is_err(), "bad name");
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

    /// Gives each row of `table` a value no other row was given (the
    /// first of a distinct decimal, its 32-digit hex, `1` or `analyze`
    /// that the row reads back verbatim), then checks that every row
    /// still reads back its own: a row that writes or reads another's
    /// place fails here.
    fn fill<T>(table: &[Field<T>], t: &mut T, next: &mut u64) {
        let mut given = Vec::new();
        for f in table {
            *next += 1;
            let fits = |v: &str, t: &mut T| {
                let mut back = String::new();
                (f.set)(t, v).is_some() && {
                    (f.get)(t, &mut back);
                    back == v
                }
            };
            let candidates = [
                next.to_string(),
                format!("{next:032x}"),
                "1".into(),
                "analyze".into(),
            ];
            let value = candidates
                .into_iter()
                .find(|v| fits(v, t))
                .unwrap_or_else(|| panic!("no test value fits `{}`", f.key));
            given.push((f, value));
        }
        for (f, value) in given {
            let mut back = String::new();
            (f.get)(t, &mut back);
            assert_eq!(back, value, "`{}` reads back another row's value", f.key);
        }
    }

    /// Every field of every table, set to a value of its own, survives its
    /// line's encoder and decoder.
    #[test]
    fn every_table_field_round_trips_with_a_value_of_its_own() {
        let n = &mut 0;
        let mut hello = HelloAck {
            proto: 0,
            window: 0,
        };
        fill(HELLO, &mut hello, n);
        assert_eq!(decode_hello_ok(&encode_hello_ok(&hello)).unwrap(), hello);

        let mut ack = Ack {
            db: String::new(),
            version: None,
        };
        fill(ACK, &mut ack, n);
        assert_eq!(decode_ack(&encode_ack(&Ok(ack.clone()))).unwrap(), ack);

        let mut resp = sample_response();
        let mut reuse = Reuse::default();
        fill(REUSE, &mut reuse, n);
        (resp.cache_hit, resp.result_cache_hit, resp.plan_micros) =
            (reuse.cache_hit, reuse.result_cache_hit, reuse.plan_micros);
        fill(EXEC, &mut resp.stats, n);
        assert_eq!(
            decode_result(&encode_result(&Ok(resp.clone()))).unwrap(),
            resp
        );

        let mut stats = EngineStats::default();
        fill(STATS, &mut stats, n);
        for q in stats.spans.phase.iter_mut().chain([&mut stats.spans.total]) {
            fill(QUARTET, q, n);
        }
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);

        let mut trace = TraceReport::default();
        fill(TRACE, &mut trace, n);
        for p in PHASES {
            *n += 1;
            trace.spans.set(p, *n);
        }
        assert_eq!(
            decode_trace_report(&encode_trace_report(&Ok(trace))).unwrap(),
            trace
        );

        let mut explain = ExplainReport::default();
        fill(EXPLAIN, &mut explain, n);
        let line = encode_explain_report(&Ok(explain.clone()));
        assert_eq!(decode_explain_report(&line).unwrap(), explain);

        let mut entry = SlowEntry::default();
        fill(SLOW_HEAD, &mut entry, n);
        fill(SLOW_TAIL, &mut entry, n);
        entry.spans = trace.spans;
        let entries = vec![entry.clone(), entry];
        assert_eq!(
            decode_slowlog(&encode_slowlog(&Ok(entries.clone()))).unwrap(),
            entries
        );

        let mut db = DbInfo::default();
        fill(DB_INFO, &mut db, n);
        assert_eq!(
            decode_dbs(&encode_dbs(&Ok(vec![db.clone()]))).unwrap(),
            vec![db]
        );
    }

    /// The keys (or record columns) of every grammar block in
    /// `docs/PROTOCOL.md` §2 and §4, in order, with a run of `<phase>_…`
    /// placeholders expanded once per phase: one list per fenced block of
    /// the section, in document order.
    fn grammar(section: &str) -> Vec<Vec<String>> {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let start = doc
            .find(&format!("\n{section} "))
            .unwrap_or_else(|| panic!("PROTOCOL.md has no section `{section}`"));
        let body = &doc[start + 1..];
        let body = &body[..body[1..].find("\n#").map_or(body.len(), |end| end + 1)];
        let blocks = body.split("```").skip(1).step_by(2);
        blocks
            .map(|block| {
                let mut keys = Vec::new();
                let mut run: Vec<&str> = Vec::new();
                // A record block (no `=`) separates its columns with `,` or `:`.
                let seps: &[char] = if block.contains('=') {
                    &[' ']
                } else {
                    &[' ', ',', ':']
                };
                let lines = block
                    .lines()
                    .filter(|l| !l.trim_start().starts_with("client:"));
                for tok in lines.flat_map(|l| l.split(seps)) {
                    let tok = tok.trim_start_matches('[');
                    let key = tok.split('=').next().unwrap_or_default();
                    if let Some(suffix) = key.strip_prefix("<phase>_") {
                        run.push(suffix);
                        continue;
                    }
                    for p in PHASES {
                        keys.extend(run.iter().map(|s| format!("{}_{s}", p.name())));
                    }
                    run.clear();
                    if !(key.is_empty() || key == "ok" || key == "server:") {
                        keys.push(key.to_string());
                    }
                }
                for p in PHASES {
                    keys.extend(run.iter().map(|s| format!("{}_{s}", p.name())));
                }
                keys
            })
            .collect()
    }

    fn keys<T>(table: &[Field<T>]) -> Vec<String> {
        table.iter().map(|f| f.key.to_string()).collect()
    }

    fn phase_keys(suffix: &str) -> Vec<String> {
        PHASES
            .iter()
            .map(|p| format!("{}_{suffix}", p.name()))
            .collect()
    }

    /// Each grammar block of PROTOCOL.md lists exactly its table's keys,
    /// in wire order, so the document cannot drift from the code.
    #[test]
    fn protocol_md_lists_every_table_in_wire_order() {
        let listing = |list: &str| vec![key::COUNT.to_string(), list.to_string()];
        let mut stats = keys(STATS);
        for name in PHASES.iter().map(|p| p.name()).chain([TOTAL]) {
            stats.extend(QUARTET.iter().map(|f| format!("{name}_{}", f.key)));
        }
        let expected: [(&str, Vec<Vec<String>>); 8] = [
            ("## 2.", vec![keys(HELLO)]),
            (
                "### 4.1",
                vec![[
                    keys(REUSE),
                    keys(EXEC),
                    vec!["cols".into(), key::ROWS.into(), "data".into()],
                ]
                .concat()],
            ),
            ("### 4.2", vec![keys(ACK)]),
            ("### 4.3", vec![stats]),
            ("### 4.4", vec![[phase_keys("us"), keys(TRACE)].concat()]),
            (
                "### 4.5",
                vec![
                    listing(key::ENTRIES),
                    [keys(SLOW_HEAD), phase_keys("us"), keys(SLOW_TAIL)].concat(),
                ],
            ),
            ("### 4.6", vec![listing(key::DBS), keys(DB_INFO)]),
            (
                "### 4.7",
                vec![
                    [keys(EXPLAIN), vec![key::PASSES.into(), key::OPS.into()]].concat(),
                    keys(PASS),
                    keys(OP),
                ],
            ),
        ];
        for (section, tables) in expected {
            assert_eq!(grammar(section), tables, "PROTOCOL.md {section}");
        }
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
