//! The four workloads: what each sends, in what order, and what a correct
//! reply to each request is.
//!
//! A [`Stream`] is a deterministic function of (workload, seed): request
//! `i` is the same on every run. The server only ever sees the generated
//! lines.

use std::sync::Arc;

use ppr_core::methods::Method;
use ppr_service::protocol::{self, Ack, Command};
use ppr_service::{Request, Response, ServiceError};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::instances::{Expected, Pool, RowsDigest, BUCKET, MAX_TUPLES};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProtocolFloor,
    PaperCold,
    PaperHot,
    MutateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProtocolFloor,
        Workload::PaperCold,
        Workload::PaperHot,
        Workload::MutateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProtocolFloor => "protocol_floor",
            Workload::PaperCold => "paper_cold",
            Workload::PaperHot => "paper_hot",
            Workload::MutateMix => "mutate_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests kept in flight on the one connection (closed loop).
    pub fn depth(self) -> usize {
        match self {
            Workload::ProtocolFloor => 32,
            _ => 4,
        }
    }

    /// Whether the server runs with `--data-dir` (fsync on commit).
    pub fn durable(self) -> bool {
        self == Workload::MutateMix
    }

    /// Requests in the depth-1 ledger pass and the layer replay. Fixed per
    /// workload so the replay's counters repeat exactly.
    pub fn ledger_requests(self, smoke: bool) -> u64 {
        let full = match self {
            Workload::ProtocolFloor => 20_000,
            Workload::PaperCold => 1_500,
            Workload::PaperHot => 3_000,
            Workload::MutateMix => 1_500,
        };
        if smoke {
            full / 20
        } else {
            full
        }
    }
}

/// Rows `visits(x, c)` holds before the measured window.
pub const VISITS_PRELOAD: u32 = 10_000;
const VISITS_PRELOAD_SMOKE: u32 = 500;

const VISITS_QUERY: &str = "q() :- edge(c, d), visits(x, c)";
/// Dumps `visits` whole — the recovery check, not part of any window.
pub const VISITS_DUMP: &str = "q(x, c) :- visits(x, c)";

/// What a correct reply to an [`Op`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// 3-COLOR of a short path: always colorable.
    Colorable,
    /// The pool instance with this index.
    Instance(usize),
    /// The colors `c` some `visits(x, c)` row carries.
    VisitColors,
    /// An acknowledgement of this `visits` tuple.
    Added(u32, u32),
}

/// One request: the command to encode and how to judge the reply.
#[derive(Debug, Clone)]
pub struct Op {
    pub command: Command,
    pub expect: Expect,
}

impl Op {
    pub fn is_write(&self) -> bool {
        matches!(self.expect, Expect::Added(..))
    }
}

/// A decoded reply.
pub enum Reply {
    Rows(Result<Box<Response>, ServiceError>),
    Ack(Result<Ack, ServiceError>),
}

/// Decodes the untagged payload of the reply to `op`.
pub fn decode_reply(op: &Op, payload: &str) -> Reply {
    if op.is_write() {
        Reply::Ack(protocol::decode_ack(payload))
    } else {
        Reply::Rows(protocol::decode_result(payload).map(Box::new))
    }
}

/// The request sequence of one workload at one seed, plus the harness-side
/// state the output check needs (which `visits` tuples were acknowledged).
#[derive(Clone)]
pub struct Stream {
    workload: Workload,
    pool: Arc<Pool>,
    rng: StdRng,
    issued: u64,
    /// `paper_cold`: every admitted (instance, method, planner seed),
    /// shuffled once and then cycled. `paper_hot` and `mutate_mix`: each
    /// (instance, method) under its first admitted seed — the keys their
    /// reads use, sent once in canonical spelling before anything else.
    keys: Arc<Vec<(usize, Method, u64)>>,
    preload: u32,
    next_x: u32,
    acked: Vec<(u32, u32)>,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, pool: Arc<Pool>, smoke: bool) -> Stream {
        let preload = if smoke {
            VISITS_PRELOAD_SMOKE
        } else {
            VISITS_PRELOAD
        };
        // Offset so the request order is not the pool's own stream.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b5e);
        let mut keys = Vec::new();
        for (idx, instance) in pool.instances.iter().enumerate() {
            for plan in &instance.plans {
                match workload {
                    Workload::ProtocolFloor => {}
                    Workload::PaperCold => {
                        keys.extend(plan.seeds.iter().map(|&seed| (idx, plan.method, seed)))
                    }
                    Workload::PaperHot | Workload::MutateMix => {
                        keys.push((idx, plan.method, plan.seeds[0]))
                    }
                }
            }
        }
        if workload == Workload::PaperCold {
            keys.shuffle(&mut rng);
        }
        Stream {
            workload,
            pool,
            rng,
            issued: 0,
            keys: Arc::new(keys),
            preload,
            next_x: preload,
            acked: Vec::new(),
        }
    }

    /// The tuple set `visits` starts with: every color occurs, so the
    /// `visits` query's answer never depends on an add still in flight.
    pub fn preloaded_visits(&self) -> Vec<(u32, u32)> {
        (0..self.preload).map(|x| (x, 1 + x % 3)).collect()
    }

    /// Catalog verbs that bring a fresh server to the workload's starting
    /// state (`ppr serve` itself seeds `edge`).
    pub fn setup_commands(&self) -> Vec<Command> {
        let mut commands: Vec<Command> = match self.workload {
            Workload::ProtocolFloor => Vec::new(),
            _ => self
                .pool
                .relations_to_load()
                .into_iter()
                .map(|(rel, tuples)| Command::Load {
                    db: "default".to_string(),
                    rel,
                    tuples,
                })
                .collect(),
        };
        if self.workload == Workload::MutateMix {
            commands.push(Command::Load {
                db: "default".to_string(),
                rel: "visits".to_string(),
                tuples: self
                    .preloaded_visits()
                    .into_iter()
                    .map(|(x, c)| vec![x, c].into_boxed_slice())
                    .collect(),
            });
        }
        commands
    }

    /// Every `visits` tuple a correct server now holds: the preload plus
    /// each acknowledged add.
    pub fn expected_visits(&self) -> Vec<(u32, u32)> {
        let mut rows = self.preloaded_visits();
        rows.extend_from_slice(&self.acked);
        rows
    }

    pub fn acked_adds(&self) -> usize {
        self.acked.len()
    }

    /// The next request of the sequence.
    pub fn next_op(&mut self) -> Op {
        let i = self.issued;
        self.issued += 1;
        match self.workload {
            Workload::ProtocolFloor => {
                // The committed serve bench's mix: Boolean 3-COLOR on the
                // 1- and 2-edge paths, a distinct planner seed per request
                // so neither cache can answer.
                const MIX: [&str; 2] = ["q() :- edge(v0, v1)", "q() :- edge(v0, v1), edge(v1, v2)"];
                run(MIX[(i % 2) as usize], BUCKET, i + 1, Expect::Colorable)
            }
            Workload::PaperCold => {
                // Both caches key on the planner seed. Cycling through every
                // admitted key puts ~1 300 other keys (tens of MiB of
                // results against an 8 MiB cache, 256-entry plan caches)
                // between two uses of one, so LRU has always dropped it:
                // every request parses, plans and executes.
                let (idx, method, seed) = self.keys[(i % self.keys.len() as u64) as usize];
                pool_run(&self.pool.instances[idx].text, method, seed, idx)
            }
            // The first pass over the keys is in canonical spelling, so the
            // plan each key caches is the admitted one.
            Workload::PaperHot | Workload::MutateMix if (i as usize) < self.keys.len() => {
                let (idx, method, seed) = self.keys[i as usize];
                pool_run(&self.pool.instances[idx].text, method, seed, idx)
            }
            // Every later request is a result-cache hit reached through the
            // canonical fingerprint, whatever its spelling.
            Workload::PaperHot => self.hot_read(true),
            Workload::MutateMix => match self.rng.random_range(0..100u32) {
                0..=1 => {
                    let tuple = (self.next_x, self.rng.random_range(1..=3u32));
                    self.next_x += 1;
                    Op {
                        command: Command::Add {
                            db: "default".to_string(),
                            rel: "visits".to_string(),
                            tuple: vec![tuple.0, tuple.1].into_boxed_slice(),
                        },
                        expect: Expect::Added(tuple.0, tuple.1),
                    }
                }
                // Adds invalidate both caches, so these reads re-plan:
                // renamed only, which keeps the admitted plan.
                2..=89 => self.hot_read(false),
                _ => run(VISITS_QUERY, BUCKET, 1, Expect::VisitColors),
            },
        }
    }

    /// A pool instance under its one fixed seed, spelled afresh: only the
    /// canonical fingerprint can recognise it.
    fn hot_read(&mut self, permute_atoms: bool) -> Op {
        let (idx, method, seed) = self.keys[self.rng.random_range(0..self.keys.len())];
        let text = self.pool.instances[idx].render_variant(&mut self.rng, permute_atoms);
        pool_run(&text, method, seed, idx)
    }

    /// Judges `reply` against what `op` should have produced, recording an
    /// acknowledged add.
    pub fn verify(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        match (op.expect, reply) {
            (_, Reply::Rows(Err(e))) | (_, Reply::Ack(Err(e))) => Err(format!("server error: {e}")),
            (Expect::Added(x, c), Reply::Ack(Ok(_))) => {
                self.acked.push((x, c));
                Ok(())
            }
            (Expect::Colorable, Reply::Rows(Ok(r))) => {
                check(!r.rows.is_empty(), "no coloring found")
            }
            (Expect::VisitColors, Reply::Rows(Ok(r))) => {
                let mut colors: Vec<u32> = r.rows.iter().map(|row| row[0]).collect();
                colors.sort_unstable();
                check(colors == [1, 2, 3], "visits colors differ")
            }
            (Expect::Instance(idx), Reply::Rows(Ok(r))) => {
                match self.pool.instances[idx].expected {
                    Expected::Nonempty(yes) => {
                        check(r.rows.is_empty() != yes, "satisfiability differs")
                    }
                    Expected::Rows(digest) => {
                        check(RowsDigest::of(&r.rows) == digest, "rows differ")
                    }
                }
            }
            _ => Err("reply kind does not match the request".to_string()),
        }
    }
}

fn run(text: &str, method: Method, seed: u64, expect: Expect) -> Op {
    Op {
        command: Command::Run(Request::new(text, method).seed(seed)),
        expect,
    }
}

/// A request for pool instance `idx`. Its tuple budget is a backstop, far
/// above the admission band: should a change ever make an admitted plan
/// run away, the request fails and is counted, and the run still ends.
fn pool_run(text: &str, method: Method, seed: u64, idx: usize) -> Op {
    let request = Request::new(text, method)
        .seed(seed)
        .max_tuples(20 * MAX_TUPLES);
    Op {
        command: Command::Run(request),
        expect: Expect::Instance(idx),
    }
}

fn check(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::build_pool;

    fn lines(workload: Workload, seed: u64, pool: &Arc<Pool>, n: usize) -> Vec<String> {
        let mut stream = Stream::new(workload, seed, pool.clone(), true);
        (0..n)
            .map(|_| protocol::encode_command(&stream.next_op().command))
            .collect()
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let pool = Arc::new(build_pool(1, 25));
        for workload in Workload::ALL {
            assert_eq!(lines(workload, 5, &pool, 50), lines(workload, 5, &pool, 50));
            if workload != Workload::ProtocolFloor {
                assert_ne!(lines(workload, 5, &pool, 50), lines(workload, 6, &pool, 50));
            }
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
    }

    #[test]
    fn cold_keys_cycle_without_repeats_and_hot_seeds_are_fixed() {
        let pool = Arc::new(build_pool(1, 25));
        let key_of = |op: &Op| match &op.command {
            Command::Run(r) => (r.query.clone(), r.method, r.seed.unwrap()),
            _ => unreachable!(),
        };
        let mut cold = Stream::new(Workload::PaperCold, 1, pool.clone(), true);
        let cycle = cold.keys.len();
        let first: Vec<_> = (0..cycle).map(|_| key_of(&cold.next_op())).collect();
        let distinct: std::collections::HashSet<_> = first.iter().cloned().collect();
        assert_eq!(distinct.len(), cycle, "a key repeats inside one cycle");
        assert_eq!(
            key_of(&cold.next_op()),
            first[0],
            "the cycle restarts in the same order"
        );
        let mut hot = Stream::new(Workload::PaperHot, 1, pool.clone(), true);
        for i in 0..hot.keys.len() + 200 {
            let op = hot.next_op();
            let Expect::Instance(idx) = op.expect else {
                unreachable!()
            };
            let (text, method, seed) = key_of(&op);
            let plan = pool.instances[idx]
                .plans
                .iter()
                .find(|p| p.method == method)
                .unwrap();
            assert_eq!(seed, plan.seeds[0]);
            // Canonical spelling first, fresh spellings after.
            assert_eq!(text == pool.instances[idx].text, i < hot.keys.len());
        }
    }

    #[test]
    fn mutate_mix_tracks_acknowledged_tuples() {
        let pool = Arc::new(build_pool(1, 25));
        let mut stream = Stream::new(Workload::MutateMix, 2, pool, true);
        let before = stream.expected_visits().len();
        let mut adds = 0;
        for _ in 0..2_000 {
            let op = stream.next_op();
            if op.is_write() {
                adds += 1;
                let ack = Ack {
                    db: "default".into(),
                    version: None,
                };
                stream.verify(&op, &Reply::Ack(Ok(ack))).unwrap();
            }
        }
        // 2% of the schedule, give or take sampling noise.
        assert!((15..=70).contains(&adds), "{adds} adds in 2000 ops");
        assert_eq!(stream.acked_adds(), adds);
        assert_eq!(stream.expected_visits().len(), before + adds);
    }
}
