//! The reply wire, frozen: `golden/wire.txt` holds one `case<TAB>line`
//! per encoder output of a fixed corpus, each followed by the same line
//! tagged with `tag_reply` (case `<case>+tag`). The file was written once
//! from the encoders and no flag regenerates it, so a codec rewrite that
//! moves a single byte of any reply fails here, at the first line that
//! differs. The same lines, mutated, and arbitrary bytes are fed to every
//! decoder, none of which may panic.

use std::time::Duration;

use ppr_obs::{OpKind, OpNode, PassSpan, Quantiles, SlowEntry, TraceSpans, PHASES};
use ppr_relalg::budget::BudgetKind;
use ppr_relalg::{ExecDigest, ExecStats, RelalgError, Value};
use ppr_service::protocol::{
    decode_ack, decode_command, decode_dbs, decode_explain_report, decode_hello_ok, decode_result,
    decode_slowlog, decode_stats, decode_trace_report, encode_ack, encode_dbs,
    encode_explain_report, encode_hello_ok, encode_result, encode_slowlog, encode_stats,
    encode_trace_report, split_reply_tag, split_request_tag, tag_reply, Ack, ExplainReport,
    HelloAck, LineFramer, TraceReport,
};
use ppr_service::{DbFingerprint, DbInfo, DbVersion, EngineStats, Response, ServiceError};
use proptest::prelude::*;

fn rows(raw: &[&[Value]]) -> Vec<Box<[Value]>> {
    raw.iter().map(|&r| Box::from(r)).collect()
}

/// A result whose every header number is distinct.
fn response(columns: &[&str], data: Vec<Box<[Value]>>) -> Response {
    let mut resp = Response::empty();
    resp.columns = columns.iter().map(|c| c.to_string()).collect();
    resp.rows = data;
    resp.cache_hit = true;
    resp.result_cache_hit = false;
    resp.plan_micros = 3;
    resp.stats = ExecStats {
        elapsed: Duration::from_micros(4),
        cpu_time: Duration::from_micros(5),
        tuples_flowed: 6,
        rows_scanned: 7,
        rows_emitted: 8,
        index_probes: 9,
        index_builds: 10,
        materializations: 11,
        join_stages: 12,
        max_intermediate_arity: 13,
        threads_used: 14,
        ..ExecStats::default()
    };
    resp
}

fn errors() -> Vec<(&'static str, ServiceError)> {
    let budget = |kind, tuples_flowed| {
        ServiceError::Exec(RelalgError::BudgetExceeded {
            kind,
            tuples_flowed,
        })
    };
    vec![
        (
            "overloaded",
            ServiceError::Overloaded {
                inflight: 64,
                capacity: 65,
            },
        ),
        ("shutting_down", ServiceError::ShuttingDown),
        (
            "parse",
            ServiceError::Parse("expected `:-` after head".into()),
        ),
        (
            "missing_relation",
            ServiceError::MissingRelation("unknown relation nosuch".into()),
        ),
        ("unknown_db", ServiceError::UnknownDatabase("graphs".into())),
        (
            "catalog",
            ServiceError::Catalog("tuple arity 3 = bad for edge/2".into()),
        ),
        (
            "unknown_method",
            ServiceError::UnknownMethod("quantum".into()),
        ),
        ("budget_tuples", budget(BudgetKind::Tuples, 12_345)),
        ("budget_materialized", budget(BudgetKind::Materialized, 7)),
        ("budget_wallclock", budget(BudgetKind::WallClock, u64::MAX)),
        (
            "exec_invalid_plan",
            ServiceError::Exec(RelalgError::InvalidPlan("scan of unknown relation".into())),
        ),
        (
            "exec_missing_attr",
            ServiceError::Exec(RelalgError::MissingAttr("z".into())),
        ),
        ("protocol", ServiceError::Protocol("bad token `x=`".into())),
        ("io", ServiceError::Io("connection reset by peer".into())),
        ("internal", ServiceError::Internal("worker panicked".into())),
    ]
}

/// Every counter and every quantile distinct.
fn stats() -> EngineStats {
    let mut s = EngineStats {
        served: 1,
        rejected: 2,
        inflight: 3,
        ..EngineStats::default()
    };
    s.cache.hits = 4;
    s.cache.misses = 5;
    s.cache.evictions = 6;
    s.cache.collisions = 7;
    s.cache.len = 8;
    s.results.hits = 9;
    s.results.misses = 10;
    s.results.evictions = 11;
    s.results.collisions = 12;
    s.results.oversized = 13;
    s.results.len = 14;
    s.results.bytes = 15;
    s.results.capacity_bytes = 16;
    s.index_probes = 17;
    s.index_builds = 18;
    s.passes_run = 19;
    s.decomp_cache_hits = 20;
    s.decomps.hits = 21;
    s.decomps.misses = 22;
    s.decomps.evictions = 23;
    s.decomps.collisions = 24;
    s.decomps.len = 25;
    s.decomps.capacity = 26;
    let quartet = |base: u64| Quantiles {
        count: base,
        p50: base + 1,
        p95: base + 2,
        p99: base + 3,
    };
    for p in PHASES {
        s.spans.phase[p as usize] = quartet(100 + 10 * p as u64);
    }
    s.spans.total = quartet(200);
    s
}

fn spans(base: u64) -> TraceSpans {
    let mut spans = TraceSpans::new();
    for p in PHASES {
        spans.set(p, base + p as u64);
    }
    spans
}

fn trace() -> TraceReport {
    TraceReport {
        spans: spans(1),
        total_us: 10,
        rows: 11,
        cache_hit: true,
        result_cache_hit: false,
        digest: ExecDigest {
            tuples_flowed: 12,
            peak_materialized: 13,
            join_stages: 14,
            threads_used: 15,
            rows_scanned: 16,
            rows_emitted: 17,
            index_probes: 18,
            index_builds: 19,
        },
    }
}

fn explain(analyze: bool, records: bool) -> ExplainReport {
    let pass = |name: &str, micros, nodes_before, nodes_after| PassSpan {
        name: name.into(),
        micros,
        nodes_before,
        nodes_after,
    };
    // Under `plan` every operator counter is zero.
    let counted = |n: u64| if analyze { n } else { 0 };
    let op = |depth, op, target: &str, [rows_in, rows_out, probes, time_us]: [u64; 4]| OpNode {
        depth,
        op,
        target: target.into(),
        rows_in: counted(rows_in),
        rows_out: counted(rows_out),
        probes: counted(probes),
        time_us: counted(time_us),
    };
    ExplainReport {
        analyze,
        plan_us: 21,
        total_us: 22,
        rows: counted(6),
        cache_hit: false,
        result_cache_hit: false,
        passes: match records {
            true => vec![
                pass("listing-order", 12, 0, 0),
                pass("projection-pushdown", 30, 4, 5),
            ],
            false => Vec::new(),
        },
        ops: match records {
            true => vec![
                op(0, OpKind::Distinct, "", [8, 6, 0, 40]),
                op(1, OpKind::IxJoin, "edge", [9, 8, 9, 120]),
                op(2, OpKind::TableScan, "edge", [0, 9, 0, 15]),
            ],
            false => Vec::new(),
        },
    }
}

fn slow_entries() -> Vec<SlowEntry> {
    vec![
        SlowEntry {
            db: "graphs".into(),
            version: 3,
            fingerprint: u128::MAX - 1,
            method: "bucket-mcs".into(),
            outcome: "ok".into(),
            total_us: 1000,
            spans: spans(900),
            rows: 12,
            tuples_flowed: 420,
            rows_scanned: 96,
            peak_materialized: 64,
            join_stages: 4,
            threads_used: 1,
            passes_run: 5,
            decomp_hit: true,
            op_digest: "distinct:-:12:30/ix_join:edge:40:120".into(),
            seq: 7,
        },
        SlowEntry {
            db: "g-2.test".into(),
            version: 0,
            fingerprint: 0xabc,
            method: "straightforward".into(),
            outcome: "budget".into(),
            total_us: 900,
            seq: 2,
            ..SlowEntry::default()
        },
    ]
}

fn dbs() -> Vec<DbInfo> {
    vec![
        DbInfo {
            name: "default".into(),
            version: DbVersion(3),
            fingerprint: DbFingerprint(u128::MAX - 1),
            relations: 2,
        },
        DbInfo {
            name: "g-2.test".into(),
            version: DbVersion(0),
            fingerprint: DbFingerprint(0x1f),
            relations: 0,
        },
    ]
}

/// The fixed corpus, `(case, untagged line)` in file order.
fn corpus() -> Vec<(String, String)> {
    let mut lines: Vec<(String, String)> = Vec::new();
    let mut add = |case: &str, line: String| lines.push((case.to_string(), line));

    add(
        "result/boolean-true",
        encode_result(&Ok(response(&[], rows(&[&[]])))),
    );
    add(
        "result/boolean-false",
        encode_result(&Ok(response(&[], Vec::new()))),
    );
    add(
        "result/empty",
        encode_result(&Ok(response(&["x"], Vec::new()))),
    );
    add(
        "result/one-row",
        encode_result(&Ok(response(&["x", "y"], rows(&[&[0, 1]])))),
    );
    add(
        "result/u32-max",
        encode_result(&Ok(response(
            &["x", "y"],
            rows(&[&[u32::MAX, 0], &[9, u32::MAX]]),
        ))),
    );
    add(
        "result/several-columns",
        encode_result(&Ok(response(
            &["a", "b", "c", "d"],
            rows(&[&[1, 22, 333, 4444], &[55555, 666666, 7777777, 88888888]]),
        ))),
    );
    for (name, e) in errors() {
        add(&format!("err/{name}"), encode_result(&Err(e)));
    }
    add(
        "ack/version",
        encode_ack(&Ok(Ack {
            db: "graphs".into(),
            version: Some(DbVersion(12)),
        })),
    );
    add(
        "ack/no-version",
        encode_ack(&Ok(Ack {
            db: "graphs".into(),
            version: None,
        })),
    );
    add(
        "ack/err",
        encode_ack(&Err(ServiceError::UnknownDatabase("nope".into()))),
    );
    add(
        "hello",
        encode_hello_ok(&HelloAck {
            proto: 2,
            window: 128,
        }),
    );
    add("stats", encode_stats(&stats()));
    add("trace", encode_trace_report(&Ok(trace())));
    add(
        "trace/err",
        encode_trace_report(&Err(ServiceError::ShuttingDown)),
    );
    for (mode, analyze) in [("plan", false), ("analyze", true)] {
        add(
            &format!("explain/{mode}"),
            encode_explain_report(&Ok(explain(analyze, true))),
        );
        add(
            &format!("explain/{mode}-bare"),
            encode_explain_report(&Ok(explain(analyze, false))),
        );
    }
    add(
        "explain/err",
        encode_explain_report(&Err(ServiceError::Parse("no head".into()))),
    );
    add("slowlog/0", encode_slowlog(&Ok(Vec::new())));
    add("slowlog/2", encode_slowlog(&Ok(slow_entries())));
    add("dbs/0", encode_dbs(&Ok(Vec::new())));
    add("dbs/2", encode_dbs(&Ok(dbs())));
    lines
}

#[test]
fn every_reply_line_matches_the_golden_file() {
    let mut expected: Vec<(String, String)> = Vec::new();
    for (i, (case, line)) in corpus().into_iter().enumerate() {
        // Ids of growing width, ending at the widest.
        let id = if i % 5 == 4 {
            u64::MAX
        } else {
            7u64.pow(i as u32 % 5 * 5)
        };
        let tagged = tag_reply(id, &line);
        expected.push((case.clone(), line));
        expected.push((format!("{case}+tag"), tagged));
    }
    let golden: Vec<(&str, &str)> = include_str!("golden/wire.txt")
        .lines()
        .map(|l| l.split_once('\t').expect("case<TAB>line"))
        .collect();
    for (at, (case, line)) in expected.iter().enumerate() {
        let Some(&(golden_case, golden_line)) = golden.get(at) else {
            panic!("case {case} is missing from the golden file; it encodes as\n{line}");
        };
        assert_eq!(case, golden_case, "case order differs from the file");
        assert!(
            line == golden_line,
            "case {case} (line {}) differs from the golden file\n--- golden\n{golden_line}\n--- now\n{line}",
            at + 1
        );
    }
    assert_eq!(expected.len(), golden.len(), "the file has stale cases");
}

/// `line` decoded by its case's decoder and encoded again.
fn re_encode(case: &str, line: &str) -> String {
    match case.split(['/', '+']).next().expect("a case has a family") {
        "result" | "err" => encode_result(&decode_result(line)),
        "ack" => encode_ack(&decode_ack(line)),
        "hello" => encode_hello_ok(&decode_hello_ok(line).expect("a hello ack")),
        "stats" => encode_stats(&decode_stats(line).expect("a stats line")),
        "trace" => encode_trace_report(&decode_trace_report(line)),
        "explain" => encode_explain_report(&decode_explain_report(line)),
        "slowlog" => encode_slowlog(&decode_slowlog(line)),
        "dbs" => encode_dbs(&decode_dbs(line)),
        other => panic!("no decoder for case family `{other}`"),
    }
}

/// Every golden line, tagged or not, decodes to what encodes back to it:
/// the decoders lose nothing the encoders write.
#[test]
fn every_golden_line_decodes_to_what_encodes_it() {
    for l in include_str!("golden/wire.txt").lines() {
        let (case, line) = l.split_once('\t').expect("case<TAB>line");
        let (id, payload) = split_reply_tag(line).expect("a well-formed tag");
        let again = re_encode(case, &payload);
        let again = id.map_or(again.clone(), |id| tag_reply(id, &again));
        assert_eq!(again, line, "case {case}");
    }
}

fn golden_lines() -> Vec<&'static str> {
    include_str!("golden/wire.txt")
        .lines()
        .map(|l| l.split_once('\t').expect("case<TAB>line").1)
        .collect()
}

/// Feeds `bytes` to the framer and, as lossy UTF-8, to the command
/// decoder, both tag splitters and every reply decoder. Each returns `Ok`
/// or a typed `Err`; a panic fails the caller.
fn decode_everything(bytes: &[u8]) {
    let mut framer = LineFramer::new();
    framer.push(bytes);
    framer.push(b"\n");
    while let Ok(Some(_)) = framer.next_line() {}
    let line = String::from_utf8_lossy(bytes);
    let _ = decode_command(&line);
    let _ = split_request_tag(&line);
    let _ = split_reply_tag(&line);
    let _ = decode_result(&line);
    let _ = decode_ack(&line);
    let _ = decode_hello_ok(&line);
    let _ = decode_stats(&line);
    let _ = decode_trace_report(&line);
    let _ = decode_explain_report(&line);
    let _ = decode_slowlog(&line);
    let _ = decode_dbs(&line);
}

/// `line` with one mutation: cut at byte `at`, its `at`-th token dropped
/// or doubled, or a stray `=` put in at byte `at`.
fn mutate(line: &str, how: u8, at: usize) -> Vec<u8> {
    let tokens: Vec<&str> = line.split(' ').collect();
    let nth = at % tokens.len();
    let mut bytes = line.as_bytes().to_vec();
    match how {
        0 => bytes.truncate(at % (bytes.len() + 1)),
        1 | 2 => {
            let mut kept = tokens.clone();
            if how == 1 {
                kept.remove(nth);
            } else {
                kept.insert(nth, tokens[nth]);
            }
            bytes = kept.join(" ").into_bytes();
        }
        _ => bytes.insert(at % (bytes.len() + 1), b'='),
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the codec.
    #[test]
    fn arbitrary_bytes_decode_to_ok_or_a_typed_error(
        bytes in prop::collection::vec(0u8..=255, 0..300),
    ) {
        decode_everything(&bytes);
    }

    /// Nor does any golden line cut short, missing or repeating a token,
    /// or carrying a stray `=`.
    #[test]
    fn mutated_golden_lines_decode_to_ok_or_a_typed_error(
        which in 0usize..1000,
        how in 0u8..4,
        at in 0usize..4096,
    ) {
        let lines = golden_lines();
        decode_everything(&mutate(lines[which % lines.len()], how, at));
    }
}

/// Every golden line cut at every byte: the truncations proptest would
/// only sample.
#[test]
fn every_truncated_golden_line_decodes_to_ok_or_a_typed_error() {
    for line in golden_lines() {
        for at in 0..=line.len() {
            decode_everything(&line.as_bytes()[..at]);
        }
    }
}

/// A `0|1` field reads `0` or `1` and nothing else.
#[test]
fn flags_take_only_zero_or_one() {
    let lines = golden_lines();
    let find = |prefix: &str| *lines.iter().find(|l| l.starts_with(prefix)).unwrap();
    let result = find("ok cache_hit=1 result_hit=0");
    let trace = find("ok queue_wait_us=");
    let explain = find("ok mode=plan");
    let slowlog = find("ok n=2 entries=");
    for bad in ["2", "01", "true", ""] {
        let flag = |line: &str, key: &str, was: &str| {
            line.replacen(&format!("{key}={was}"), &format!("{key}={bad}"), 1)
        };
        assert!(decode_result(&flag(result, "cache_hit", "1")).is_err());
        assert!(decode_result(&flag(result, "result_hit", "0")).is_err());
        assert!(decode_trace_report(&flag(trace, "cache_hit", "1")).is_err());
        assert!(decode_explain_report(&flag(explain, "result_hit", "0")).is_err());
        // `decomp_hit` is the column before the operator digest.
        let slow = slowlog.replacen(",1,distinct:", &format!(",{bad},distinct:"), 1);
        assert!(decode_slowlog(&slow).is_err(), "{slow}");
    }
    assert!(decode_result(result).is_ok());
    assert!(decode_slowlog(slowlog).is_ok());
}
