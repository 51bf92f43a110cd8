//! `ppr` — the command-line face of the projection-pushing library.
//!
//! ```text
//! ppr color  (--random N,D | --family NAME,ORDER | --edges FILE)
//!            [--k COLORS] [--free F] [--method M] [--seed S]
//!            [--timeout-ms T] [--sql] [--rows]
//! ppr sat    (--random N,D,K | --dimacs FILE) [--free F] [--method M]
//!            [--seed S] [--timeout-ms T] [--sql] [--rows]
//! ppr query  --rule 'q(x) :- e(x,y), e(y,z).' --rel 'e = {(1,2),(2,3)}'
//!            [--rel-file name=path.csv] [--method M] [--seed S]
//!            [--timeout-ms T] [--sql] [--rows]
//! ppr width  (--random N,D | --family NAME,ORDER | --edges FILE) [--seed S]
//! ppr serve  [--listen HOST:PORT] [--rel '…'] [--rel-file name=path.csv]
//!            [--colors K] [--queue N] [--cache N] [--result-cache-bytes N]
//!            [--metrics-addr HOST:PORT] [--data-dir DIR] [--profile-ops]
//! ppr client [--connect HOST:PORT] --rule 'q(x) :- edge(x,y)' [--method M]
//!            [--db NAME | --use NAME] [--max-tuples N] [--timeout-ms T]
//!            [--seed S] [--explain plan|analyze] [--stats] [--ping] [--dbs]
//! ppr client [--connect HOST:PORT] (--create NAME | --drop NAME |
//!            --load 'DB REL 1,2;2,3' | --add 'DB REL 1,2')
//! ```
//!
//! Methods: `naive`, `straightforward`, `early`, `reorder`, `bucket`
//! (default), `bucket-mindeg`, `bucket-minfill`. A subcommand exits 2 on
//! a flag it does not read.

use std::process::exit;
use std::time::Duration;

use projection_pushing::core::methods::{build_plan, emit_sql, Method, OrderHeuristic};
use projection_pushing::graph::{families, generate, Graph};
use projection_pushing::prelude::*;
use projection_pushing::relalg::exec;
use projection_pushing::sql::emit::render;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        die(USAGE);
    };
    let Some((_, run, known)) = SUBCOMMANDS.iter().find(|(name, ..)| name == cmd) else {
        die(USAGE);
    };
    let flags = Flags::parse(&args[1..]);
    flags.reject_unknown(cmd, known);
    run(&flags);
}

/// A subcommand: its name, its entry point and the flags it reads, as the
/// header lists them.
type Subcommand = (&'static str, fn(&Flags), &'static str);

const SUBCOMMANDS: &[Subcommand] = &[
    (
        "color",
        cmd_color,
        "random family edges k free method seed timeout-ms sql rows",
    ),
    (
        "sat",
        cmd_sat,
        "random dimacs free method seed timeout-ms sql rows",
    ),
    (
        "query",
        cmd_query,
        "rule rel rel-file method seed timeout-ms sql rows",
    ),
    ("width", cmd_width, "random family edges seed"),
    (
        "serve",
        cmd_serve,
        "listen rel rel-file colors queue cache result-cache-bytes metrics-addr data-dir \
         profile-ops",
    ),
    (
        "client",
        cmd_client,
        "connect rule method db use max-tuples timeout-ms seed explain stats ping dbs create \
         drop load add",
    ),
];

const USAGE: &str = "usage: ppr <color|sat|query|width|serve|client> [flags]\n  see `src/bin/ppr.rs` header for flags";

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(2)
}

/// Minimal flag map: `--name value` pairs plus boolean switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let name = args[i]
                .strip_prefix("--")
                .unwrap_or_else(|| die(&format!("expected flag, got {}", args[i])))
                .to_string();
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                pairs.push((name, args[i + 1].clone()));
                i += 2;
            } else {
                switches.push(name);
                i += 1;
            }
        }
        Flags { pairs, switches }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Exits 2 naming the first flag not in the space-separated `known`: a
    /// misspelt or retired flag must not silently fall back to a default.
    fn reject_unknown(&self, cmd: &str, known: &str) {
        let mut names = self.pairs.iter().map(|(n, _)| n).chain(&self.switches);
        if let Some(name) = names.find(|n| !known.split_whitespace().any(|k| k == n.as_str())) {
            die(&format!("ppr {cmd}: unknown flag --{name}"));
        }
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for --{name}: {v}"))),
            None => default,
        }
    }
}

/// Parses `N,D` (order, density).
fn parse_order_density(text: &str) -> Option<(usize, f64)> {
    let (n, d) = text.split_once(',')?;
    Some((n.trim().parse().ok()?, d.trim().parse().ok()?))
}

/// Parses an edge list: one `u v` pair per line, `#` comments.
fn parse_edge_list(text: &str) -> Result<Graph, String> {
    let mut edges = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(u), Some(v)) = (it.next(), it.next()) else {
            return Err(format!("line {}: expected `u v`", lineno + 1));
        };
        let u: usize = u.parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let v: usize = v.parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
        edges.push((u, v));
    }
    if edges.is_empty() {
        return Err("no edges".into());
    }
    Ok(Graph::from_edges(0, &edges))
}

/// Parses `NAME,ORDER` for a structured family.
fn family_graph(text: &str) -> Option<Graph> {
    let (name, order) = text.split_once(',')?;
    let n: usize = order.trim().parse().ok()?;
    Some(match name.trim() {
        "augpath" | "augmented-path" => families::augmented_path(n),
        "ladder" => families::ladder(n),
        "augladder" | "augmented-ladder" => families::augmented_ladder(n),
        "augcircladder" | "augmented-circular-ladder" => families::augmented_circular_ladder(n),
        "path" => families::path(n),
        "cycle" => families::cycle(n),
        "complete" => families::complete(n),
        "grid" => families::grid(n, n),
        _ => return None,
    })
}

fn graph_from_flags(flags: &Flags, rng: &mut StdRng) -> Graph {
    if let Some(spec) = flags.get("random") {
        let (n, d) = parse_order_density(spec).unwrap_or_else(|| die("--random expects N,D"));
        return generate::random_graph_density(n, d, rng);
    }
    if let Some(spec) = flags.get("family") {
        return family_graph(spec).unwrap_or_else(|| die("--family expects NAME,ORDER"));
    }
    if let Some(path) = flags.get("edges") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        return parse_edge_list(&text).unwrap_or_else(|e| die(&e));
    }
    die("need one of --random / --family / --edges")
}

fn run_and_report(query: &ConjunctiveQuery, db: &Database, flags: &Flags) {
    let method = match flags.get("method") {
        Some(name) => Method::parse(name).unwrap_or_else(|| die(&format!("unknown method {name}"))),
        None => Method::BucketElimination(OrderHeuristic::Mcs),
    };
    let seed: u64 = flags.num("seed", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    if flags.has("sql") {
        println!("{}", render(&emit_sql(method, query, db, &mut rng)));
        return;
    }
    let timeout_ms: u64 = flags.num("timeout-ms", 60_000);
    let budget = Budget::tuples(u64::MAX).with_timeout(Duration::from_millis(timeout_ms));
    let plan = build_plan(method, query, db, &mut rng);
    match exec::execute(&plan, &budget) {
        Ok((rel, stats)) => {
            println!(
                "method: {}  nonempty: {}  rows: {}",
                method.name(),
                !rel.is_empty(),
                rel.len()
            );
            println!(
                "time: {:.2} ms  tuples flowed: {}  max arity: {}  materializations: {}",
                stats.elapsed.as_secs_f64() * 1e3,
                stats.tuples_flowed,
                stats.max_intermediate_arity,
                stats.materializations
            );
            if flags.has("rows") {
                for t in rel.rows().take(50) {
                    println!("  {t:?}");
                }
            }
        }
        Err(e) => {
            println!("method: {}  {e}", method.name());
            exit(1);
        }
    }
}

fn cmd_color(flags: &Flags) {
    let seed: u64 = flags.num("seed", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let g = graph_from_flags(flags, &mut rng);
    let opts = ColorQueryOptions {
        colors: flags.num("k", 3u32),
        free_fraction: flags.num("free", 0.0f64),
    };
    eprintln!("instance: {} vertices, {} edges", g.order(), g.size());
    let (q, db) = color_query(&g, &opts, &mut rng);
    run_and_report(&q, &db, flags);
}

fn cmd_sat(flags: &Flags) {
    use projection_pushing::workload::{parse_dimacs, random_sat, sat_query};
    let seed: u64 = flags.num("seed", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = if let Some(spec) = flags.get("random") {
        let parts: Vec<&str> = spec.split(',').collect();
        if parts.len() != 3 {
            die("--random expects N,D,K");
        }
        let n: usize = parts[0].trim().parse().unwrap_or_else(|_| die("bad N"));
        let d: f64 = parts[1].trim().parse().unwrap_or_else(|_| die("bad D"));
        let k: usize = parts[2].trim().parse().unwrap_or_else(|_| die("bad K"));
        random_sat(n, (d * n as f64).round() as usize, k, &mut rng)
    } else if let Some(path) = flags.get("dimacs") {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        parse_dimacs(&text).unwrap_or_else(|e| die(&e))
    } else {
        die("need --random N,D,K or --dimacs FILE")
    };
    eprintln!(
        "instance: {} variables, {} clauses",
        instance.num_vars,
        instance.clauses.len()
    );
    let (q, db) = sat_query(&instance, flags.num("free", 0.0f64), &mut rng);
    run_and_report(&q, &db, flags);
}

/// The `--rel 'name = {(…)…}'` and `--rel-file name=path.csv` relations,
/// each given its own block of column ids.
fn relations_from_flags(flags: &Flags) -> Database {
    use projection_pushing::query::parse_relation;
    let mut db = Database::new();
    let mut base_col = 10_000_000u32;
    for rel_text in flags.get_all("rel") {
        let rel = parse_relation(rel_text, base_col).unwrap_or_else(|e| die(&e.to_string()));
        base_col += rel.arity() as u32;
        db.add(rel);
    }
    for spec in flags.get_all("rel-file") {
        let Some((name, path)) = spec.split_once('=') else {
            die("--rel-file expects name=path.csv");
        };
        let text = std::fs::read_to_string(path.trim())
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        let rel = projection_pushing::relalg::csv::relation_from_csv(name.trim(), &text, base_col)
            .unwrap_or_else(|e| die(&e));
        base_col += rel.arity() as u32;
        db.add(rel);
    }
    db
}

fn cmd_query(flags: &Flags) {
    use projection_pushing::query::parse_query;
    let rule = flags.get("rule").unwrap_or_else(|| die("need --rule"));
    let query = parse_query(rule).unwrap_or_else(|e| die(&e.to_string()));
    let db = relations_from_flags(flags);
    if db.is_empty() {
        die("need at least one --rel 'name = {(…)…}' or --rel-file name=path.csv");
    }
    run_and_report(&query, &db, flags);
}

fn cmd_width(flags: &Flags) {
    use projection_pushing::core::width;
    use projection_pushing::graph::treewidth;
    use projection_pushing::query::JoinGraph;
    let seed: u64 = flags.num("seed", 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let g = graph_from_flags(flags, &mut rng);
    let (q, _) = color_query(&g, &ColorQueryOptions::boolean(), &mut rng);
    let jg = JoinGraph::of(&q);
    println!(
        "join graph: {} vars, {} edges",
        jg.num_vars(),
        jg.graph.size()
    );
    println!(
        "treewidth bounds: lower {} / upper {}",
        treewidth::lower_bound(&jg.graph),
        treewidth::upper_bound(&jg.graph)
    );
    for h in [
        OrderHeuristic::Mcs,
        OrderHeuristic::MinDegree,
        OrderHeuristic::MinFill,
    ] {
        println!(
            "induced width ({h:?}): {}",
            width::heuristic_induced_width(&q, h, &mut rng)
        );
    }
    if jg.num_vars() <= 20 {
        println!(
            "treewidth (exact): {}",
            treewidth::treewidth_exact(&jg.graph)
        );
    } else {
        println!("treewidth (exact): skipped (> 20 vars)");
    }
}

/// Builds the server database: explicit `--rel` / `--rel-file` relations,
/// or the k-coloring edge relation (`--colors`, default 3) when none are
/// given — the natural database for the paper's 3-COLOR workload.
fn serve_database(flags: &Flags) -> Database {
    let mut db = relations_from_flags(flags);
    if db.is_empty() {
        let colors: u32 = flags.num("colors", 3);
        db.add(projection_pushing::workload::edge_relation(colors));
    }
    db
}

fn cmd_serve(flags: &Flags) {
    use projection_pushing::service::{EngineConfig, Server};
    let listen = flags.get("listen").unwrap_or("127.0.0.1:7171");
    let mut cfg = EngineConfig::default();
    cfg.queue_capacity = flags.num("queue", cfg.queue_capacity);
    cfg.cache_capacity = flags.num("cache", cfg.cache_capacity);
    cfg.result_cache_bytes = flags.num("result-cache-bytes", cfg.result_cache_bytes);
    // Profile every execution: per-operator rows/time feed the
    // ppr_op_* metrics and slow-log digests (small constant overhead).
    cfg.profile_ops = flags.has("profile-ops");

    // The builder owns the whole stack: with --data-dir the catalog is
    // durable (recovered on startup, mutations committed to a
    // write-ahead log and fsynced before the ack); the seed database
    // applies only when the catalog lacks a `default` — a recovered data
    // dir keeps its own.
    let mut builder = Server::builder()
        .addr(listen)
        .engine_config(cfg)
        .database(serve_database(flags));
    if let Some(dir) = flags.get("data-dir") {
        builder = builder.data_dir(dir);
    }
    // Optional Prometheus-style pull endpoint: GET /metrics returns the
    // exposition text (engine + connection layer), GET /slowlog the
    // worst-request table with the accept-error note.
    if let Some(addr) = flags.get("metrics-addr") {
        builder = builder.metrics_addr(addr);
    }
    let server = builder
        .start()
        .unwrap_or_else(|e| die(&format!("cannot listen on {listen}: {e}")));
    if let Some(report) = server.recovery() {
        eprintln!(
            "recovered {} database(s): {} record(s) replayed, \
             {} snapshot(s) loaded, {} torn tail(s) truncated, in {} us",
            report.databases,
            report.replayed_records,
            report.snapshots_loaded,
            report.torn_tails,
            report.duration_us
        );
    }
    eprintln!("databases: {:?}", server.handle().catalog().names());
    if let Some(addr) = server.metrics_addr() {
        eprintln!("metrics endpoint on http://{addr}/metrics");
    }
    eprintln!(
        "protocol: `run method=bucket rule=q(x) :- edge(x, y)` per line; also \
         `use`/`create`/`drop`/`load`/`add` for databases, `stats`, `trace`, \
         `explain plan|analyze`, `slowlog`, `ping`"
    );
    // Last line before serving: scripts (and the e2e test) wait for it,
    // then may close their end of the stderr pipe.
    eprintln!("ppr-service listening on {}", server.local_addr());
    // Serve until the process is killed. Requests in flight at kill time
    // are lost; with --data-dir every *acknowledged* mutation is already
    // fsynced to the write-ahead log, so a restart on the same directory
    // recovers the exact acknowledged catalog (memory-only mode keeps the
    // old nothing-survives behavior).
    loop {
        std::thread::park();
    }
}

/// Parses the `--load` / `--add` argument shape `DB REL 1,2;2,3`.
fn parse_mutation(spec: &str) -> (String, String, Vec<Box<[u32]>>) {
    let mut parts = spec.split_whitespace();
    let (Some(db), Some(rel), Some(data), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        die("expected 'DB REL 1,2;2,3'");
    };
    let tuples: Vec<Box<[u32]>> = data
        .split(';')
        .map(|tup| {
            tup.split(',')
                .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad value {v}"))))
                .collect()
        })
        .collect();
    (db.to_string(), rel.to_string(), tuples)
}

fn cmd_client(flags: &Flags) {
    use projection_pushing::service::{Client, Request};
    let addr = flags.get("connect").unwrap_or("127.0.0.1:7171");
    let mut client =
        Client::connect(addr).unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    if flags.has("ping") {
        client.ping().unwrap_or_else(|e| die(&e.to_string()));
        println!("pong");
        return;
    }
    if flags.has("dbs") {
        let infos = client.dbs().unwrap_or_else(|e| die(&e.to_string()));
        println!("{} database(s)", infos.len());
        for d in infos {
            println!(
                "{}  version={}  fingerprint={}  relations={}",
                d.name, d.version, d.fingerprint, d.relations
            );
        }
        return;
    }
    if flags.has("stats") {
        let s = client.stats().unwrap_or_else(|e| die(&e.to_string()));
        println!(
            "served: {}  rejected: {}  inflight: {}",
            s.served, s.rejected, s.inflight
        );
        println!(
            "plans: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} collisions, {} cached",
            s.cache.hits,
            s.cache.misses,
            s.cache.hit_rate() * 100.0,
            s.cache.evictions,
            s.cache.collisions,
            s.cache.len
        );
        println!(
            "results: {} hits / {} misses ({:.0}% hit rate), {} evictions, {} cached ({} bytes of {})",
            s.results.hits,
            s.results.misses,
            s.results.hit_rate() * 100.0,
            s.results.evictions,
            s.results.len,
            s.results.bytes,
            s.results.capacity_bytes
        );
        println!(
            "planner: {} passes run, {} decomp-cache plan hits ({} hits / {} misses, \
             {} evictions, {} collisions, {} cached orders)",
            s.passes_run,
            s.decomp_cache_hits,
            s.decomps.hits,
            s.decomps.misses,
            s.decomps.evictions,
            s.decomps.collisions,
            s.decomps.len
        );
        return;
    }
    // Catalog verbs: one mutation per invocation, acknowledged with the
    // database's new version.
    if let Some(name) = flags.get("create") {
        let v = client
            .create_db(name)
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("created {name} (version {v})");
        return;
    }
    if let Some(name) = flags.get("drop") {
        client.drop_db(name).unwrap_or_else(|e| die(&e.to_string()));
        println!("dropped {name}");
        return;
    }
    if let Some(spec) = flags.get("load") {
        let (db, rel, tuples) = parse_mutation(spec);
        let n = tuples.len();
        let v = client
            .load(&db, &rel, tuples)
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("loaded {n} tuples into {db}.{rel} (version {v})");
        return;
    }
    if let Some(spec) = flags.get("add") {
        let (db, rel, mut tuples) = parse_mutation(spec);
        if tuples.len() != 1 {
            die("--add takes exactly one tuple");
        }
        let v = client
            .add(&db, &rel, tuples.pop().unwrap())
            .unwrap_or_else(|e| die(&e.to_string()));
        println!("added to {db}.{rel} (version {v})");
        return;
    }
    let rule = flags.get("rule").unwrap_or_else(|| {
        die("need --rule (or --stats / --ping / --create / --drop / --load / --add)")
    });
    let method = match flags.get("method") {
        Some(name) => Method::parse(name).unwrap_or_else(|| die(&format!("unknown method {name}"))),
        None => Method::BucketElimination(OrderHeuristic::Mcs),
    };
    // --use selects a session database first (exercising the session
    // path); --db pins the database on the request itself.
    if let Some(name) = flags.get("use") {
        client.use_db(name).unwrap_or_else(|e| die(&e.to_string()));
    }
    let mut request = Request::new(rule, method);
    request.db = flags.get("db").map(str::to_string);
    request.max_tuples = flags.get("max-tuples").map(|_| flags.num("max-tuples", 0));
    request.timeout_ms = flags.get("timeout-ms").map(|_| flags.num("timeout-ms", 0));
    request.seed = flags.get("seed").map(|_| flags.num("seed", 0));
    // --explain renders the optimizer pass trace and the operator tree
    // instead of rows: `plan` without executing, `analyze` with measured
    // per-operator counters.
    if let Some(mode_word) = flags.get("explain") {
        use projection_pushing::service::ExplainMode;
        let mode = match mode_word {
            "plan" => ExplainMode::Plan,
            "analyze" => ExplainMode::Analyze,
            other => die(&format!("--explain takes plan|analyze, got `{other}`")),
        };
        let report = client
            .explain(&request, mode)
            .unwrap_or_else(|e| die(&e.to_string()));
        println!(
            "explain {}: {} rows in {} us (plan {} us)",
            if report.analyze { "analyze" } else { "plan" },
            report.rows,
            report.total_us,
            report.plan_us
        );
        println!("passes:");
        for p in &report.passes {
            println!(
                "  {:<24} {:>8} us  nodes {} -> {}",
                p.name, p.micros, p.nodes_before, p.nodes_after
            );
        }
        println!("operators:");
        for n in &report.ops {
            let indent = 2 + 2 * n.depth as usize;
            let label = if n.target.is_empty() {
                n.op.name().to_string()
            } else {
                format!("{}({})", n.op.name(), n.target)
            };
            if report.analyze {
                println!(
                    "{:indent$}{label}  rows_in={} rows_out={} probes={} time={} us",
                    "", n.rows_in, n.rows_out, n.probes, n.time_us
                );
            } else {
                println!("{:indent$}{label}", "");
            }
        }
        return;
    }
    match client.run(&request) {
        Ok(resp) => {
            println!(
                "rows: {}  cache_hit: {}  result_hit: {}  plan: {} us  exec: {} us  tuples flowed: {}",
                resp.rows.len(),
                resp.cache_hit,
                resp.result_cache_hit,
                resp.plan_micros,
                resp.stats.elapsed.as_micros(),
                resp.stats.tuples_flowed
            );
            if !resp.columns.is_empty() {
                println!("columns: {}", resp.columns.join(", "));
            }
            for row in resp.rows.iter().take(50) {
                println!("  {row:?}");
            }
            if resp.rows.len() > 50 {
                println!("  … {} more", resp.rows.len() - 50);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_resolve() {
        assert_eq!(
            Method::parse("bucket"),
            Some(Method::BucketElimination(OrderHeuristic::Mcs))
        );
        assert_eq!(Method::parse("sf"), Some(Method::Straightforward));
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn order_density_parses() {
        assert_eq!(parse_order_density("20,3.5"), Some((20, 3.5)));
        assert_eq!(parse_order_density("20"), None);
    }

    #[test]
    fn edge_list_parses() {
        let g = parse_edge_list("# comment\n0 1\n1 2\n").unwrap();
        assert_eq!(g.order(), 3);
        assert_eq!(g.size(), 2);
        assert!(parse_edge_list("").is_err());
        assert!(parse_edge_list("0\n").is_err());
    }

    #[test]
    fn families_resolve() {
        assert!(family_graph("ladder,4").is_some());
        assert!(family_graph("augcircladder,5").is_some());
        assert!(family_graph("mystery,4").is_none());
    }

    /// The header's usage block names exactly the flags each subcommand
    /// accepts.
    #[test]
    fn usage_header_lists_every_flag() {
        let mut header = std::collections::BTreeSet::new();
        let mut cmd = "";
        for line in include_str!("ppr.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
        {
            match line.strip_prefix("//! ppr ") {
                Some(rest) => cmd = rest.split_whitespace().next().unwrap(),
                None if line.starts_with("//!      ") => {}
                None => continue,
            }
            for flag in line.split("--").skip(1) {
                let end = flag.find(|c: char| !c.is_ascii_lowercase() && c != '-');
                header.insert((cmd, &flag[..end.unwrap_or(flag.len())]));
            }
        }
        let known = SUBCOMMANDS
            .iter()
            .flat_map(|(cmd, _, flags)| flags.split_whitespace().map(move |f| (*cmd, f)))
            .collect();
        assert_eq!(header, known);
    }

    #[test]
    fn flags_parse_pairs_and_switches() {
        let args: Vec<String> = ["--random", "10,2", "--sql", "--seed", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args);
        assert_eq!(f.get("random"), Some("10,2"));
        assert!(f.has("sql"));
        assert_eq!(f.num::<u64>("seed", 0), 5);
        assert_eq!(f.num::<u64>("missing", 9), 9);
    }
}
