//! The three workloads and their seeded inputs.
//!
//! Every input is made here, from `--seed`, before any timing: the
//! instances, the request bytes, the reference answer each reply is
//! checked against, and (for `solve-cold`) the pre-filled store log.
//! The program only ever sees the generated requests.
//!
//! `solve-cold` and `batch-stream` send a fixed pool of distinct
//! instances in a cycle. Each pool is larger than the server's
//! 4,096-entry LRU cache, so an instance has always been evicted before
//! it comes round again: every request misses, however long the run.

use crate::client::{self, Expect};
use crate::stats::Rng;
use mst_api::wire::{instance_to_json, solution_to_json, Json};
use mst_api::{CanonicalInstance, Instance, Solution, SolverRegistry, TopologyKind};
use mst_platform::HeterogeneityProfile;
use mst_store::{FileStore, Record, StoreBackend};
use std::collections::HashSet;
use std::path::Path;

/// The solver every request names (the server default).
pub const SOLVER: &str = "optimal";

/// The server's default cache capacity, which the pools are sized
/// against.
const CACHE_ENTRIES: usize = 4096;
/// `solve-hot` pool size: well inside the cache.
const HOT_POOL: usize = 1000;
/// `solve-cold` pool size: half again the cache, so a cycle misses.
const COLD_POOL: usize = CACHE_ENTRIES * 3 / 2;
/// Records pre-filled into the `solve-cold` store log.
const COLD_PREFILL: usize = 2000;
/// Untimed requests that warm a `solve-cold` server.
const COLD_WARMUP: usize = 200;
/// Instances per `batch-stream` sweep request.
pub const SWEEP: usize = 256;
/// `batch-stream` sweeps in the cycle: twice the cache in instances.
const SWEEPS: usize = 2 * CACHE_ENTRIES / SWEEP;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SolveHot,
    SolveCold,
    BatchStream,
}

/// How each workload loads the server.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Open-loop reference rate (req/s); `None` for the closed loop.
    pub ref_rate: Option<f64>,
    /// The p99 a capacity step must stay under, in ms.
    pub p99_limit_ms: f64,
    /// What the server's store starts as.
    pub store: StoreMode,
    /// Server starts timed for `setup_s` before the load.
    pub setups: usize,
    /// Requests a store-backed server takes before it is restarted.
    pub restart_after: Option<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    None,
    Prefilled,
    Empty,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SolveHot, Workload::SolveCold, Workload::BatchStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveHot => "solve-hot",
            Workload::SolveCold => "solve-cold",
            Workload::BatchStream => "batch-stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn plan(self) -> Plan {
        match self {
            Workload::SolveHot => Plan {
                ref_rate: Some(2000.0),
                p99_limit_ms: 25.0,
                store: StoreMode::None,
                setups: 31,
                restart_after: None,
            },
            Workload::SolveCold => Plan {
                ref_rate: Some(400.0),
                p99_limit_ms: 50.0,
                store: StoreMode::Prefilled,
                setups: 9,
                restart_after: Some(3000),
            },
            Workload::BatchStream => Plan {
                ref_rate: None,
                p99_limit_ms: f64::INFINITY,
                store: StoreMode::Empty,
                setups: 31,
                restart_after: Some(150),
            },
        }
    }
}

/// One request: its bytes on the wire and the reply it must get.
#[derive(Debug, Clone)]
pub struct Req {
    pub bytes: Vec<u8>,
    pub expect: Expect,
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    pub reqs: Vec<Req>,
    /// `reqs[..warmup]` are sent once, untimed, before the first phase.
    pub warmup: usize,
    /// Timed phases draw uniformly from `reqs` when set; otherwise they
    /// cycle through `reqs` in order, starting after the warm-up.
    pub uniform: bool,
    /// Every distinct instance behind the requests.
    pub instances: Vec<Instance>,
    /// The reference solution of each instance.
    pub solutions: Vec<Solution>,
}

/// Hands out request indices to the phases of one run.
#[derive(Debug)]
pub struct Picker {
    rng: Rng,
    next: usize,
}

impl Picker {
    pub fn new(inputs: &Inputs, seed: u64) -> Picker {
        Picker { rng: Rng::new(seed, 0x7069_636b), next: inputs.warmup }
    }

    /// The next request index.
    pub fn next(&mut self, inputs: &Inputs) -> usize {
        let n = inputs.reqs.len();
        if inputs.uniform {
            return self.rng.below(n as u64) as usize;
        }
        let pick = self.next % n;
        self.next = pick + 1;
        pick
    }

    /// `n` request indices for the next phase.
    pub fn take(&mut self, inputs: &Inputs, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.next(inputs)).collect()
    }
}

/// Instance shapes: `mst_api::fleet::mixed_fleet` sizes, or the medium
/// shapes that make every `solve-cold` request real kernel work.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Small,
    Medium,
}

fn instance(rng: &mut Rng, shape: Shape) -> Instance {
    let kind = TopologyKind::ALL[rng.below(4) as usize];
    let profile = HeterogeneityProfile::ALL[rng.below(5) as usize];
    let (size, tasks) = match shape {
        Shape::Small => (1 + rng.below(5), 1 + rng.below(9)),
        Shape::Medium => (4 + rng.below(5), 16 + rng.below(49)),
    };
    Instance::generate(kind, profile, rng.next_u64(), size as usize, tasks as usize)
}

/// `n` instances whose canonical forms are pairwise distinct and not in
/// `seen` (so each is a cache miss the first time it is sent).
fn distinct(rng: &mut Rng, n: usize, shape: Shape, seen: &mut HashSet<u128>) -> Vec<Instance> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let candidate = instance(rng, shape);
        if seen.insert(CanonicalInstance::of(&candidate, SOLVER, None).hash()) {
            out.push(candidate);
        }
    }
    out
}

/// Maps `f` over `items` on every core (reference answers and store
/// records are made before timing, so this never competes with a phase).
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        parts.into_iter().flat_map(|p| p.join().expect("reference worker panicked")).collect()
    })
}

/// The reference answer: the registry's own solve of the instance.
/// Chains, forks and spiders are solved as sent, since their solvers
/// are optimal and any correct reply has that makespan. Trees go
/// through a spider-cover heuristic whose makespan depends on node
/// numbering, so their reference solves the canonical form the service
/// solves and restores it (a direct solve can differ by a time unit).
fn reference(instance: &Instance) -> Solution {
    let registry = SolverRegistry::global();
    let solved = match instance.kind() {
        TopologyKind::Tree => {
            let canon = CanonicalInstance::of(instance, SOLVER, None);
            registry.solve(SOLVER, canon.instance()).map(|s| canon.restore(&s))
        }
        _ => registry.solve(SOLVER, instance),
    };
    solved.unwrap_or_else(|e| panic!("reference solve failed on {instance}: {e}"))
}

fn solve_req(instance: &Instance, solution: &Solution, verify: bool) -> Req {
    let mut body = match instance_to_json(instance) {
        Json::Obj(members) => members,
        other => unreachable!("instances encode as objects, got {other}"),
    };
    if verify {
        body.push(("verify".to_string(), Json::Bool(true)));
    }
    Req {
        bytes: client::post("/solve", &Json::Obj(body).to_string()),
        expect: Expect::Solve {
            makespan: solution.makespan(),
            scheduled: solution.n() as i64,
            verified: verify,
        },
    }
}

fn batch_req(instances: &[Instance], solutions: &[Solution]) -> Req {
    let body = Json::obj([
        ("instances", Json::Arr(instances.iter().map(instance_to_json).collect())),
        ("stream", Json::Bool(true)),
    ]);
    Req {
        bytes: client::post("/batch", &body.to_string()),
        expect: Expect::Batch { makespans: solutions.iter().map(Solution::makespan).collect() },
    }
}

/// Generates a run's inputs.
pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0x696e_7075_7473);
    let mut seen = HashSet::new();
    let (shape, count, verify) = match workload {
        Workload::SolveHot => (Shape::Small, HOT_POOL, false),
        Workload::SolveCold => {
            // The pre-filled records come first in the same stream, so
            // no request can hit a warm-started cache entry.
            let _prefill = distinct(&mut rng, COLD_PREFILL, Shape::Medium, &mut seen);
            (Shape::Medium, COLD_POOL, true)
        }
        Workload::BatchStream => (Shape::Small, SWEEPS * SWEEP, false),
    };
    let instances = distinct(&mut rng, count, shape, &mut seen);
    let solutions = par_map(&instances, reference);
    let (reqs, warmup, uniform) = match workload {
        Workload::BatchStream => {
            let reqs = (0..SWEEPS)
                .map(|k| {
                    let at = k * SWEEP;
                    batch_req(&instances[at..at + SWEEP], &solutions[at..at + SWEEP])
                })
                .collect();
            (reqs, 1, false)
        }
        _ => {
            let reqs =
                instances.iter().zip(&solutions).map(|(i, s)| solve_req(i, s, verify)).collect();
            match workload {
                Workload::SolveHot => (reqs, HOT_POOL, true),
                _ => (reqs, COLD_WARMUP, false),
            }
        }
    };
    Inputs { reqs, warmup, uniform, instances, solutions }
}

/// The store record `mst serve` appends for one solved instance.
fn record(instance: &Instance) -> Record {
    let canon = CanonicalInstance::of(instance, SOLVER, None);
    let solution = reference(canon.instance());
    record_of(&canon, &solution)
}

/// The store record of a canonical instance and its solution.
pub fn record_of(canon: &CanonicalInstance, solution: &Solution) -> Record {
    Record {
        tenant: "default".to_string(),
        solver: SOLVER.to_string(),
        platform: canon.instance().platform.to_text(),
        tasks: canon.instance().tasks,
        deadline: canon.deadline(),
        canon_hash: canon.hash_hex(),
        makespan: solution.makespan(),
        scheduled: solution.n(),
        elapsed_us: 0,
        solution: solution_to_json(solution),
    }
}

/// Writes the `solve-cold` store log: `COLD_PREFILL` distinct records,
/// disjoint from every request of the run.
pub fn prefill_store(seed: u64, path: &Path) -> Result<(), String> {
    let mut rng = Rng::new(seed, 0x696e_7075_7473);
    let instances = distinct(&mut rng, COLD_PREFILL, Shape::Medium, &mut HashSet::new());
    let records = par_map(&instances, record);
    let _ = std::fs::remove_file(path);
    let store =
        FileStore::open(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    store.append_all(&records).map_err(|e| format!("cannot fill {}: {e}", path.display()))
}
