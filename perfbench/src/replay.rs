//! `--trace 1`: the traced per-layer replay.
//!
//! The workload's request stream (the same bytes the load phase sends,
//! in the same order) is handled one request at a time, in this
//! process, three ways, each on the `ServiceState` of its own
//! `mst_serve::Server`, bound and never run, so cache and store see the
//! same sequence on every path:
//!
//! * **route**: `http::try_parse`, then `routes::route_on`, the
//!   server's own handler, timed as a whole (`serve.routes.handler_us`);
//! * **layers**: the same handler rebuilt from the public functions it
//!   calls, in the order a request reaches them, timed as a whole;
//! * **traced**: the layers path again, with a span around every call.
//!
//! The three paths take turns on each request, in rotating order. The
//! traced path's spans give each layer's self time and its share of
//! the handler; traced minus layers is the tracing overhead; layers
//! against route shows that the rebuilt handler accounts for the real
//! one. Calls a workload's requests never make (the oracle on
//! `solve-hot`, say) are timed by a probe on the workload's own
//! instances instead, and reported as such.

use crate::client::{check, Reply};
use crate::stats::{median, Samples};
use crate::workload::{self, Inputs, Picker, StoreMode, Workload, SOLVER};
use crate::{Args, Metrics, Outcome, Verdict};
use mst_api::wire::{instance_from_json, solution_to_json, Json};
use mst_api::{
    verify, Batch, BatchSummary, CacheKey, CanonicalInstance, Instance, Solution, SolverRegistry,
    TopologyKind,
};
use mst_serve::http::{try_parse, Parsed};
use mst_serve::routes::route_on;
use mst_serve::server::ServiceState;
use mst_serve::{BufferedStream, Request, ResponseBody, ServeConfig, Server};
use mst_store::{FileStore, StoreBackend};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cap on replayed requests, so a fast workload's span file stays small.
const MAX_REQUESTS: usize = 4000;
/// Cap on replayed `/batch` sweeps (each carries hundreds of spans).
const MAX_SWEEPS: usize = 60;
/// Per-call samples wanted from a probe.
const PROBE_CALLS: usize = 400;
/// `mst-obs` lifecycle iterations, and contended `finish_trace` calls
/// over all threads.
const OBS_CALLS: usize = 20_000;

/// One span: a call into a layer. Ids are positions in the span list
/// plus one; parent 0 is none.
#[derive(Debug, Clone)]
struct Span {
    req: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory around calls, when switched on.
#[derive(Debug)]
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

impl Tracer {
    fn new(on: bool, origin: Instant) -> Tracer {
        Tracer { on, origin, spans: Vec::new(), open: Vec::new(), req: 0 }
    }

    /// Runs `f` inside a span named `name` (a plain call when off).
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { req: self.req, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }
}

fn kind_index(kind: TopologyKind) -> usize {
    TopologyKind::ALL.iter().position(|k| *k == kind).expect("kind in catalog")
}

const SOLVE_SPANS: [&str; 4] = ["solve.chain", "solve.fork", "solve.spider", "solve.tree"];
const VERIFY_SPANS: [&str; 4] = ["verify.chain", "verify.fork", "verify.spider", "verify.tree"];

/// The per-layer results of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// `serve.routes.handler_us` per request (route path).
    pub handler_us: Samples,
    parse_us: Samples,
    /// Per-call samples by metric name, and where each came from.
    calls: BTreeMap<&'static str, (Samples, &'static str)>,
    reply_bytes: Samples,
    hit_ratio: f64,
    pool_rate: f64,
    pool_efficiency: f64,
    store_bytes_per_record: f64,
    store_replay_us_per_record: f64,
}

/// A path's `ServiceState`: that of a server bound over `store`, then
/// dropped without ever running.
fn bind(store: Option<FileStore>) -> Result<Arc<ServiceState>, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_backend: store.map(|s| Arc::new(s) as Arc<dyn StoreBackend>),
        ..ServeConfig::default()
    };
    let server = Server::bind(config).map_err(|e| format!("cannot bind a replay server: {e}"))?;
    Ok(Arc::clone(server.handle().state_arc()))
}

/// The replay's request order: the warm-up, then the load phase's picks.
fn stream(inputs: &Inputs, seed: u64, max: usize) -> Vec<usize> {
    let mut picker = Picker::new(inputs, seed);
    let mut order: Vec<usize> = (0..inputs.warmup).collect();
    while order.len() < max.max(inputs.warmup + 1) {
        order.push(picker.next(inputs));
    }
    order
}

/// A path's reply, with its parse and handler times in µs.
type Answer = (Reply, f64, f64);

fn parse(buf: &mut Vec<u8>, state: &ServiceState) -> Result<Request, String> {
    match try_parse(buf, state.config.max_body_bytes) {
        Ok(Parsed::Complete(request)) => Ok(request),
        other => Err(format!("request did not parse: {other:?}")),
    }
}

/// The route path: parse, then the server's own handler.
fn route_path(bytes: &[u8], state: &ServiceState) -> Result<Answer, String> {
    let mut buf = bytes.to_vec();
    let t0 = Instant::now();
    let request = parse(&mut buf, state)?;
    let t1 = Instant::now();
    let mut sink = BufferedStream::default();
    let answered = route_on(&request, state, Some(&mut sink));
    let handler_us = t1.elapsed().as_secs_f64() * 1e6;
    let reply = match answered {
        ResponseBody::Full(response) => {
            Reply { status: response.status, body: response.body.into_bytes(), close: false }
        }
        ResponseBody::Streamed => Reply { status: 200, body: sink.body, close: true },
    };
    Ok((reply, (t1 - t0).as_secs_f64() * 1e6, handler_us))
}

/// The layers path (traced or not): parse, then the rebuilt handler.
fn layers_path(
    bytes: &[u8],
    state: &ServiceState,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Answer, String> {
    let mut buf = bytes.to_vec();
    tr.time("request", |tr| {
        let t0 = Instant::now();
        let request = tr.time("serve.http.parse", |_| parse(&mut buf, state))?;
        let t1 = Instant::now();
        let reply = tr.time("serve.routes.handler", |tr| match request.path.as_str() {
            "/solve" => solve_layers(&request, state, tr, tally),
            "/batch" => batch_layers(&request, state, tr, tally),
            other => Err(format!("the replay has no path for {other}")),
        })?;
        Ok((reply, (t1 - t0).as_secs_f64() * 1e6, t1.elapsed().as_secs_f64() * 1e6))
    })
}

/// Cache outcomes on a path, for the hit ratio.
#[derive(Debug, Default)]
struct Tally {
    hits: u64,
    misses: u64,
}

fn decode_body(request: &Request) -> Result<Json, String> {
    let text = std::str::from_utf8(&request.body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("bad JSON: {e}"))
}

/// Builds and appends the store record of one solved canonical
/// instance, as the server does after a miss.
fn append(
    store: &dyn StoreBackend,
    canon: &CanonicalInstance,
    solution: &Solution,
    tr: &mut Tracer,
) -> Result<(), String> {
    let record = tr.time("store.record", |_| workload::record_of(canon, solution));
    tr.time("store.append", |_| store.append(&record)).map_err(|e| format!("store append: {e}"))
}

/// `POST /solve`, rebuilt from `routes::solve`'s calls.
fn solve_layers(
    request: &Request,
    state: &ServiceState,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Reply, String> {
    let tenant = state.default_exec();
    let (body, instance) = tr.time("api.wire.decode", |_| {
        let body = decode_body(request)?;
        let instance = instance_from_json(&body).map_err(|e| format!("bad instance: {e}"))?;
        Ok::<_, String>((body, instance))
    })?;
    tr.time("api.exec.admit", |_| tenant.check_rate()).map_err(|e| format!("refused: {e}"))?;
    let check = body.get("verify").and_then(Json::as_bool).unwrap_or(false);
    let kind = kind_index(instance.kind());
    let (canon, key) = tr.time("api.canon.of", |_| {
        let canon = CanonicalInstance::of(&instance, SOLVER, None);
        let key = CacheKey::of(&canon, SOLVER);
        (canon, key)
    });
    let cached = tr.time("api.cache.get", |_| tenant.cache().get(&key));
    let hit = cached.is_some();
    let canonical = match cached {
        Some(solution) => {
            tally.hits += 1;
            solution
        }
        None => {
            tally.misses += 1;
            let _slot = tr
                .time("api.exec.admit", |_| tenant.admit())
                .map_err(|e| format!("refused: {e}"))?;
            let registry = tenant.batch().registry();
            let solved = tr.time(SOLVE_SPANS[kind], |_| registry.solve(SOLVER, canon.instance()));
            let solved = solved.map_err(|e| format!("solve failed: {e}"))?;
            tr.time("api.cache.insert", |_| tenant.cache().insert(key, solved.clone()));
            if let Some(store) = &state.store {
                append(store.as_ref(), &canon, &solved, tr)?;
            }
            solved
        }
    };
    let solution = tr.time("api.canon.restore", |_| canon.restore(&canonical));
    if check {
        let report = tr.time(VERIFY_SPANS[kind], |_| verify(&instance, &solution));
        if !matches!(report, Ok(r) if r.is_feasible()) {
            return Err("the oracle rejects the solution".into());
        }
    }
    let text = tr.time("api.wire.encode", |_| {
        let mut reply = match solution_to_json(&solution) {
            Json::Obj(members) => members,
            other => vec![("result".to_string(), other)],
        };
        if hit {
            reply.push(("cached".to_string(), Json::Bool(true)));
        }
        if check {
            reply.push(("feasible".to_string(), Json::Bool(true)));
        }
        Json::Obj(reply).to_string()
    });
    Ok(Reply { status: 200, body: text.into_bytes(), close: false })
}

/// `POST /batch` with `"stream": true`, rebuilt from `routes::batch`.
fn batch_layers(
    request: &Request,
    state: &ServiceState,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Reply, String> {
    let tenant = state.default_exec();
    let instances = tr.time("api.wire.decode", |_| {
        let body = decode_body(request)?;
        let items = body.get("instances").and_then(Json::as_arr).ok_or("no instances array")?;
        items
            .iter()
            .map(|item| instance_from_json(item).map_err(|e| format!("bad instance: {e}")))
            .collect::<Result<Vec<Instance>, String>>()
    })?;
    tr.time("api.exec.admit", |_| {
        tenant.check_rate().and_then(|_| tenant.check_instances(instances.len()))
    })
    .map_err(|e| format!("refused: {e}"))?;
    let engine = tenant.batch().clone().with_solver(SOLVER);
    let mut planned = Vec::with_capacity(instances.len());
    for instance in &instances {
        let (canon, key) = tr.time("api.canon.of", |_| {
            let canon = CanonicalInstance::of(instance, SOLVER, None);
            let key = CacheKey::of(&canon, SOLVER);
            (canon, key)
        });
        let cached = tr.time("api.cache.get", |_| tenant.cache().get(&key));
        match &cached {
            Some(_) => tally.hits += 1,
            None => tally.misses += 1,
        }
        planned.push((canon, key, cached));
    }
    let misses = planned.iter().filter(|p| p.2.is_none()).count();
    let _slot = if misses > 0 {
        Some(tr.time("api.exec.admit", |_| tenant.admit()).map_err(|e| format!("refused: {e}"))?)
    } else {
        None
    };
    let cancel = tenant.cancel_token();
    let mut body = String::new();
    let mut results: Vec<Result<Solution, mst_api::SolveError>> =
        Vec::with_capacity(instances.len());
    for chunk in planned.chunks(state.config.batch_chunk.max(1)) {
        let jobs: Vec<(Instance, Option<mst_platform::Time>)> = chunk
            .iter()
            .filter(|p| p.2.is_none())
            .map(|(canon, _, _)| (canon.instance().clone(), canon.deadline()))
            .collect();
        let solved = if jobs.is_empty() {
            Vec::new()
        } else {
            tr.time("sim.pool", |_| engine.solve_each_cancellable(&jobs, &cancel))
        };
        let mut solved = solved.into_iter();
        for (canon, key, cached) in chunk {
            let canonical = match cached {
                Some(solution) => solution.clone(),
                None => {
                    let solution = solved
                        .next()
                        .expect("one result per miss")
                        .map_err(|e| format!("solve failed: {e}"))?;
                    tr.time("api.cache.insert", |_| {
                        tenant.cache().insert(key.clone(), solution.clone())
                    });
                    if let Some(store) = &state.store {
                        append(store.as_ref(), canon, &solution, tr)?;
                    }
                    solution
                }
            };
            let solution = tr.time("api.canon.restore", |_| canon.restore(&canonical));
            let index = results.len();
            tr.time("api.wire.encode", |_| {
                let mut members = vec![("index".to_string(), Json::int(index as i64))];
                match solution_to_json(&solution) {
                    Json::Obj(obj) => members.extend(obj),
                    other => members.push(("result".to_string(), other)),
                }
                body.push_str(&Json::Obj(members).to_string());
                body.push('\n');
            });
            results.push(Ok(solution));
        }
    }
    let summary = BatchSummary::of(&results);
    let line = Json::obj([(
        "summary",
        Json::obj([
            ("count", Json::int(instances.len() as i64)),
            ("solved", Json::int(summary.solved as i64)),
        ]),
    )]);
    let _ = writeln!(body, "{line}");
    Ok(Reply { status: 200, body: body.into_bytes(), close: true })
}

/// Self time of each span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| (s.end_ns - s.start_ns) as f64).collect();
    for s in spans {
        if s.parent > 0 {
            own[s.parent as usize - 1] -= (s.end_ns - s.start_ns) as f64;
        }
    }
    own
}

/// Writes the spans as JSON lines: id, parent, request, name, start, end.
fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            i + 1,
            s.parent,
            s.req,
            s.name,
            s.start_ns,
            s.end_ns
        )
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    out.flush().map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Per-call timings of the calls a workload's requests never make,
/// taken on its own instances: the solvers (on `/batch` they run inside
/// the pool), the oracle, and store appends and replay. Also the pool
/// against a serial loop over the same instances.
fn probe(inputs: &Inputs, dir: &Path, layers: &mut Layers, budget: Duration) -> Result<(), String> {
    let registry = SolverRegistry::global();
    let started = Instant::now();
    let log = dir.join("probe.log");
    let _ = std::fs::remove_file(&log);
    let store =
        FileStore::open(&log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
    let mut solve = [(); 4].map(|_| Samples::default());
    let mut check = [(); 4].map(|_| Samples::default());
    let mut appends = Samples::default();
    let mut canon_instances = Vec::new();
    for (instance, expected) in inputs.instances.iter().zip(&inputs.solutions) {
        if canon_instances.len() >= PROBE_CALLS && started.elapsed() > budget / 2 {
            break;
        }
        let kind = kind_index(instance.kind());
        let canon = CanonicalInstance::of(instance, SOLVER, None);
        let t = Instant::now();
        let solved =
            registry.solve(SOLVER, canon.instance()).map_err(|e| format!("probe solve: {e}"))?;
        solve[kind].push(t.elapsed().as_secs_f64() * 1e6);
        let restored = canon.restore(&solved);
        if restored.makespan() != expected.makespan() {
            return Err(format!(
                "probe: makespan {} differs from the reference {}",
                restored.makespan(),
                expected.makespan()
            ));
        }
        let t = Instant::now();
        let report = verify(instance, &restored);
        check[kind].push(t.elapsed().as_secs_f64() * 1e6);
        if !matches!(report, Ok(r) if r.is_feasible()) {
            return Err("probe: the oracle rejects a solution".into());
        }
        let record = workload::record_of(&canon, &solved);
        let t = Instant::now();
        store.append(&record).map_err(|e| format!("probe append: {e}"))?;
        appends.push(t.elapsed().as_secs_f64() * 1e6);
        canon_instances.push(canon.instance().clone());
    }
    for k in 0..4 {
        layers.fill(SOLVE_SPANS[k], &solve[k]);
        layers.fill(VERIFY_SPANS[k], &check[k]);
    }
    layers.fill("store.append", &appends);
    // The pool against a serial loop over the same instances, in turns.
    let batch = Batch::new(registry.clone());
    let (mut pooled, mut serial) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let results = batch.solve_all(&canon_instances);
        pooled.push(t.elapsed().as_secs_f64());
        if results.iter().any(Result::is_err) {
            return Err("probe: a pooled solve failed".into());
        }
        let t = Instant::now();
        for instance in &canon_instances {
            std::hint::black_box(registry.solve(SOLVER, std::hint::black_box(instance)).is_ok());
        }
        serial.push(t.elapsed().as_secs_f64());
    }
    let wall = median(&pooled);
    layers.pool_rate = canon_instances.len() as f64 / wall;
    layers.pool_efficiency = median(&serial) / (wall * batch.pool().workers() as f64);
    if layers.store_replay_us_per_record == 0.0 {
        let bytes = std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0) as f64;
        let t = Instant::now();
        let reopened =
            FileStore::open(&log).map_err(|e| format!("cannot reopen {}: {e}", log.display()))?;
        let records = reopened.len().max(1) as f64;
        layers.store_replay_us_per_record = t.elapsed().as_secs_f64() * 1e6 / records;
        layers.store_bytes_per_record = bytes / records;
    }
    Ok(())
}

impl Layers {
    /// Adds probe samples for a call the replay did not see.
    fn fill(&mut self, name: &'static str, samples: &Samples) {
        let entry = self.calls.entry(name).or_insert_with(|| (Samples::default(), "replay"));
        if entry.0.is_empty() {
            *entry = (samples.clone(), "probe");
        }
    }
}

/// `mst-obs` costs: one request's trace lifecycle, and `finish_trace`
/// called from every core at once.
fn obs_costs(layers: &mut Layers) {
    use mst_obs::{begin_trace, enter_trace, finish_trace, span, take_notes, Stage, TraceMeta};
    let meta = |id: u64| TraceMeta {
        id,
        route: "/solve".to_string(),
        status: 200,
        start_ns: 0,
        total_ns: 1,
        notes: take_notes(),
    };
    let mut lifecycle = Samples::default();
    for _ in 0..OBS_CALLS {
        let t = Instant::now();
        let id = begin_trace();
        {
            let _scope = enter_trace(id);
            let _span = span(Stage::Cache);
        }
        finish_trace(meta(id));
        lifecycle.push(t.elapsed().as_nanos() as f64);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let barrier = std::sync::Barrier::new(threads);
    let parts: Vec<Samples> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Samples::default();
                    barrier.wait();
                    for _ in 0..OBS_CALLS / threads {
                        let id = begin_trace();
                        let t = Instant::now();
                        finish_trace(meta(id));
                        samples.push(t.elapsed().as_nanos() as f64);
                    }
                    samples
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("obs worker panicked")).collect()
    });
    let mut contended = Samples::default();
    for part in &parts {
        contended.extend(part);
    }
    layers.calls.insert("obs.lifecycle", (lifecycle, "replay"));
    layers.calls.insert("obs.finish_contended", (contended, "replay"));
}

/// The replay, the probe and the `mst-obs` costs, within `seconds`.
pub fn run(
    args: &Args,
    inputs: &Inputs,
    store: &Path,
    dir: &Path,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Layers, String> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mode = args.workload.plan().store;
    let mut layers = Layers::default();
    let mut replays = Vec::new();
    let mut states = Vec::new();
    for name in ["route", "layers", "traced"] {
        // Each path replays its own copy of the workload's store log.
        let own = dir.join(format!("replay-{name}.log"));
        let store = match mode {
            StoreMode::None => None,
            StoreMode::Prefilled | StoreMode::Empty => {
                match mode {
                    StoreMode::Prefilled => std::fs::copy(store, &own).map(|_| ()),
                    _ => std::fs::write(&own, b""),
                }
                .map_err(|e| format!("cannot prepare {}: {e}", own.display()))?;
                let started = Instant::now();
                let opened = FileStore::open(&own)
                    .map_err(|e| format!("cannot open {}: {e}", own.display()))?;
                if mode == StoreMode::Prefilled {
                    let records = opened.len().max(1) as f64;
                    let bytes = std::fs::metadata(&own).map(|m| m.len()).unwrap_or(0) as f64;
                    replays.push(started.elapsed().as_secs_f64() * 1e6 / records);
                    layers.store_bytes_per_record = bytes / records;
                }
                Some(opened)
            }
        };
        states.push(bind(store)?);
    }
    if !replays.is_empty() {
        layers.store_replay_us_per_record = median(&replays);
    }
    let max = match args.workload {
        Workload::BatchStream => MAX_SWEEPS,
        _ => MAX_REQUESTS,
    };
    let order = stream(inputs, args.seed, max);
    let origin = Instant::now();
    let mut plain = Tracer::new(false, origin);
    let mut traced = Tracer::new(true, origin);
    let (mut tally_b, mut tally_c) = (Tally::default(), Tally::default());
    let mut timed_hits = (0u64, 0u64);
    let (mut layers_us, mut traced_us) = (Samples::default(), Samples::default());
    let mut replayed = 0usize;
    let replay_budget = budget.mul_f64(0.6);
    for (n, &pick) in order.iter().enumerate() {
        if n >= inputs.warmup && started.elapsed() > replay_budget {
            break;
        }
        let req = &inputs.reqs[pick];
        traced.req = n as u32;
        let before = (tally_c.hits, tally_c.misses);
        for k in 0..3 {
            let path = (n + k) % 3;
            let (reply, parse_us, handler_us) = match path {
                0 => route_path(&req.bytes, &states[0])?,
                1 => layers_path(&req.bytes, &states[1], &mut plain, &mut tally_b)?,
                _ => layers_path(&req.bytes, &states[2], &mut traced, &mut tally_c)?,
            };
            check(&reply, &req.expect).map_err(|e| format!("replay request {n}: {e}"))?;
            match path {
                0 => {
                    layers.parse_us.push(parse_us);
                    layers.handler_us.push(handler_us);
                    layers.reply_bytes.push(reply.body.len() as f64);
                }
                1 => layers_us.push(handler_us),
                _ => traced_us.push(handler_us),
            }
        }
        if n >= inputs.warmup {
            timed_hits.0 += tally_c.hits - before.0;
            timed_hits.1 += tally_c.misses - before.1;
        }
        replayed += 1;
    }
    let timed = replayed.saturating_sub(inputs.warmup);
    layers.hit_ratio = timed_hits.0 as f64 / (timed_hits.0 + timed_hits.1).max(1) as f64;

    // Per-call samples and per-request self time of each span name.
    let own = self_times(&traced.spans);
    let mut self_by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (span, own_ns) in traced.spans.iter().zip(&own) {
        let name: &'static str = match span.name {
            "serve.http.parse" | "serve.routes.handler" | "request" => "",
            name => name,
        };
        if !name.is_empty() {
            let us = (span.end_ns - span.start_ns) as f64 / 1e3;
            layers.calls.entry(name).or_insert_with(|| (Samples::default(), "replay")).0.push(us);
        }
        if span.req as usize >= inputs.warmup {
            *self_by_layer.entry(span.name).or_default() += own_ns / 1e3;
        }
    }
    let path = args.work.join(format!("spans-{}.jsonl", args.workload.name()));
    write_spans(&path, &traced.spans)?;

    probe(inputs, dir, &mut layers, budget.saturating_sub(started.elapsed()))?;
    obs_costs(&mut layers);

    // The share table over the timed requests.
    let skip = inputs.warmup;
    let timed_mean = |s: &Samples| {
        let v = &s.values()[skip.min(s.len())..];
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let handler = timed_mean(&layers.handler_us);
    let plain_total = timed_mean(&layers_us);
    let traced_total = timed_mean(&traced_us);
    let overhead = traced_total - plain_total;
    let per_req = |us: f64| us / timed.max(1) as f64;
    let traced_handler = per_req(
        self_by_layer
            .iter()
            .filter(|(l, _)| !matches!(**l, "request" | "serve.http.parse"))
            .map(|(_, v)| v)
            .sum(),
    );
    out.notes.push(format!(
        "replay: {replayed} requests ({} warm-up, {timed} timed), {} spans in {}",
        inputs.warmup.min(replayed),
        traced.spans.len(),
        path.display()
    ));
    out.notes.push(format!(
        "{:<24} {:>12} {:>9}   (timed requests; self time per request)",
        "span", "self us", "share"
    ));
    for (layer, us) in &self_by_layer {
        if matches!(*layer, "request" | "serve.http.parse") {
            continue;
        }
        let label = if *layer == "serve.routes.handler" { "serve.routes (glue)" } else { layer };
        out.notes.push(format!(
            "{label:<24} {:>12.3} {:>8.1}%",
            per_req(*us),
            100.0 * per_req(*us) / handler.max(1e-9)
        ));
    }
    let off = (handler - plain_total) / handler.max(1e-9);
    out.notes.push(format!(
        "handler per request: route() {handler:.3} us; rebuilt {plain_total:.3} us untraced, {traced_total:.3} us traced \
         (spans {traced_handler:.3} us under the handler); tracing overhead {overhead:.3} us/request"
    ));
    let accounted = (handler - plain_total).abs() <= overhead.abs().max(0.1 * handler);
    out.verdicts.push(Verdict::new(
        "replay.accounts",
        accounted,
        format!("{:+.1}% vs route()", -100.0 * off),
        "rebuilt handler within the tracing overhead (or 10%) of route()",
    ));
    let mut shares = Vec::new();
    for (layer, us) in &self_by_layer {
        shares.push((
            layer.to_string(),
            Json::obj([
                ("self_us", Json::Num(per_req(*us))),
                ("share", Json::Num(per_req(*us) / handler.max(1e-9))),
            ]),
        ));
    }
    out.extra.push(("layer_shares".into(), Json::Obj(shares)));
    out.extra.push((
        "replay".into(),
        Json::obj([
            ("requests", Json::int(replayed as i64)),
            ("timed", Json::int(timed as i64)),
            ("handler_us", Json::Num(handler)),
            ("rebuilt_us", Json::Num(plain_total)),
            ("traced_us", Json::Num(traced_total)),
            ("tracing_overhead_us", Json::Num(overhead)),
            ("spans", Json::int(traced.spans.len() as i64)),
        ]),
    ));
    out.extra.push((
        "call_sources".into(),
        Json::Obj(
            layers
                .calls
                .iter()
                .map(|(k, (s, src))| {
                    (
                        k.to_string(),
                        Json::obj([("source", Json::str(*src)), ("n", Json::int(s.len() as i64))]),
                    )
                })
                .collect(),
        ),
    ));
    Ok(layers)
}

/// Puts the per-layer metrics the replay measured.
pub fn put_layer_metrics(m: &mut Metrics, layers: &Layers) {
    m.timing("serve.http.parse_us", &layers.parse_us, "us");
    m.timing("serve.routes.handler_us", &layers.handler_us, "us");
    let calls = |name: &str| layers.calls.get(name).map(|(s, _)| s.clone()).unwrap_or_default();
    for (metric, call) in [
        ("api.wire.decode_us", "api.wire.decode"),
        ("api.wire.encode_us", "api.wire.encode"),
        ("api.canon.of_us", "api.canon.of"),
        ("api.canon.restore_us", "api.canon.restore"),
        ("api.cache.get_us", "api.cache.get"),
        ("api.cache.insert_us", "api.cache.insert"),
        ("api.exec.admit_us", "api.exec.admit"),
        ("solve.chain_us", "solve.chain"),
        ("solve.fork_us", "solve.fork"),
        ("solve.spider_us", "solve.spider"),
        ("solve.tree_us", "solve.tree"),
        ("verify.chain_us", "verify.chain"),
        ("verify.fork_us", "verify.fork"),
        ("verify.spider_us", "verify.spider"),
        ("verify.tree_us", "verify.tree"),
        ("store.append_us", "store.append"),
    ] {
        m.timing(metric, &calls(call), "us");
    }
    m.timing("obs.lifecycle_ns", &calls("obs.lifecycle"), "ns");
    m.timing("obs.finish_contended_ns", &calls("obs.finish_contended"), "ns");
    m.put("api.wire.reply_bytes", layers.reply_bytes.mean(), "bytes");
    m.put("api.cache.hit_ratio", layers.hit_ratio, "ratio");
    m.put("sim.pool.instances_per_s", layers.pool_rate, "1/s");
    m.put("sim.pool.efficiency", layers.pool_efficiency, "ratio");
    m.put("store.bytes_per_record", layers.store_bytes_per_record, "bytes");
    m.put("store.replay_us_per_record", layers.store_replay_us_per_record, "us");
}
