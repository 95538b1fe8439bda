//! `perfbench` — the repository benchmark for `mst serve`.
//!
//! ```text
//! perfbench --workload solve-hot|solve-cold|batch-stream --seed N
//!           --seconds S --trace 0|1 --mst PATH --work DIR
//!           [--commit ID] [--record FILE]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics against a live `mst
//! serve`. `--trace 1` runs a shorter live phase for the server's own
//! counters, then replays the same request stream in-process through
//! each layer's public functions with spans (see `replay.rs`). Either
//! way the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the full result, with its
//! provenance, goes to `--record`. `run.py` builds and drives this.

mod client;
mod load;
mod replay;
mod server;
mod stats;
mod workload;

use load::{Capacity, PhaseStats};
use mst_api::wire::Json;
use server::{Counters, ServerProc};
use stats::{median, Rng, Samples};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Inputs, Picker, StoreMode, Workload};

/// Connections (and load threads): one per core, at most two.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 2)
}

/// A run is invalid when the generator itself sent this late (p99, ms).
/// It is well above the host's own stalls (a few ms, at most a few
/// times a second) and well below a generator that cannot keep up.
const GEN_LAG_LIMIT_MS: f64 = 10.0;
/// Share of `--seconds` spent at the reference rate; the capacity
/// search takes the rest.
const REFERENCE_SHARE: f64 = 0.4;
/// `GET /healthz` round trips timed on an idle connection.
const HEALTHZ_PINGS: usize = 200;

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub mst: PathBuf,
    pub work: PathBuf,
    pub commit: String,
    pub record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opt = |key: &str| {
        argv.iter().position(|a| a == key).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let need = |key: &str| opt(key).ok_or(format!("{key} is required"));
    let workload = need("--workload")?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "--seconds must be a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?.parse().map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        mst: need("--mst")?.into(),
        work: need("--work")?.into(),
        commit: opt("--commit").unwrap_or("unknown").to_string(),
        record: opt("--record").map(PathBuf::from),
    })
}

/// Metrics in print order: name, value, unit.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// `<name>.p50` and `<name>.p99` of per-call samples.
    pub fn timing(&mut self, name: &str, samples: &Samples, unit: &'static str) {
        self.put(format!("{name}.p50"), samples.pct(50.0), unit);
        self.put(format!("{name}.p99"), samples.pct(99.0), unit);
    }

    fn json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// A named pass/fail check with the value it saw.
#[derive(Debug)]
pub struct Verdict {
    pub name: String,
    pub passed: bool,
    pub value: String,
    pub rule: String,
}

impl Verdict {
    pub fn new(name: &str, passed: bool, value: String, rule: &str) -> Verdict {
        Verdict { name: name.into(), passed, value, rule: rule.into() }
    }
}

/// The store logs of a run: the pre-filled one, kept as written, and
/// the live server's working copy.
#[derive(Debug)]
struct Logs {
    prefill: PathBuf,
    live: PathBuf,
}

/// What a run measured, before it is reported.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub phases: Vec<PhaseStats>,
    pub verdicts: Vec<Verdict>,
    pub setups_s: Vec<f64>,
    pub capacity: Option<Capacity>,
    pub server: Vec<(String, f64)>,
    /// Extra fixed-width report lines (the traced run's layer table).
    pub notes: Vec<String>,
    /// Extra record fields (the traced run's shares and sources).
    pub extra: Vec<(String, Json)>,
    /// Figures printed and recorded that `BENCHMARK.json` does not bound.
    pub reported: Metrics,
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counter deltas summed over the servers of a run.
#[derive(Debug, Default)]
struct Tally {
    hits: f64,
    misses: f64,
    jobs: f64,
    records: f64,
}

impl Tally {
    fn add(&mut self, from: &Counters, to: &Counters) {
        self.hits += to.tenant("cache_hits_total") - from.tenant("cache_hits_total");
        self.misses += to.tenant("cache_misses_total") - from.tenant("cache_misses_total");
        self.jobs += to.global("pool_jobs_submitted") - from.global("pool_jobs_submitted");
        self.records += to.global("store_records") - from.global("store_records");
    }
}

/// The live `mst serve` of a run. The server mirrors every stored
/// record in memory, so a store-backed server is restarted (on a fresh
/// copy of its log, between phases, untimed) once it has taken the
/// workload's `restart_after` requests: the run's memory stays bounded
/// however long it measures, and every start is one more `setup_s`
/// sample.
struct Live<'a> {
    args: &'a Args,
    logs: &'a Logs,
    server: ServerProc,
    boot: Counters,
    sent: u64,
    setups: Vec<f64>,
    /// Deltas of the servers already retired.
    tally: Tally,
    /// The warm-up's share of the first server's deltas.
    warmup: Tally,
}

impl<'a> Live<'a> {
    /// Starts the server `count` times, keeping the last one.
    fn start(args: &'a Args, logs: &'a Logs, count: usize) -> Result<Live<'a>, String> {
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..count.max(1) {
            drop(server.take());
            let started = Live::spawn(args, logs)?;
            setups.push(started.setup.as_secs_f64());
            server = Some(started);
        }
        let server = server.expect("at least one start");
        let boot = server.counters()?;
        Ok(Live {
            args,
            logs,
            server,
            boot,
            sent: 0,
            setups,
            tally: Tally::default(),
            warmup: Tally::default(),
        })
    }

    /// One start: `solve-cold` on a fresh copy of the pre-filled log,
    /// `batch-stream` on an empty one.
    fn spawn(args: &Args, logs: &Logs) -> Result<ServerProc, String> {
        let mode = args.workload.plan().store;
        match mode {
            StoreMode::Empty => {
                let _ = std::fs::remove_file(&logs.live);
            }
            StoreMode::Prefilled => {
                std::fs::copy(&logs.prefill, &logs.live)
                    .map_err(|e| format!("cannot copy the pre-filled log: {e}"))?;
            }
            StoreMode::None => {}
        }
        ServerProc::start(&args.mst, (mode != StoreMode::None).then_some(logs.live.as_path()))
    }

    fn addr(&self) -> std::net::SocketAddr {
        self.server.addr
    }

    /// Sends the warm-up and books its counter deltas apart.
    fn warm(&mut self, inputs: &Inputs) -> Result<PhaseStats, String> {
        let phase = load::warm(self.addr(), inputs, connections());
        let after = self.server.counters()?;
        self.warmup.add(&self.boot, &after);
        self.sent += phase.sent;
        Ok(phase)
    }

    /// Books `sent` requests of the phase just run; restarts the server
    /// when it has taken its share. Returns the address to load next.
    fn next(&mut self, sent: u64) -> Result<std::net::SocketAddr, String> {
        self.sent += sent;
        let Some(limit) = self.args.workload.plan().restart_after else { return Ok(self.addr()) };
        if self.sent >= limit {
            let end = self.server.counters()?;
            self.tally.add(&self.boot, &end);
            let server = Live::spawn(self.args, self.logs)?;
            drop(std::mem::replace(&mut self.server, server));
            self.setups.push(self.server.setup.as_secs_f64());
            self.boot = self.server.counters()?;
            self.sent = 0;
        }
        Ok(self.addr())
    }

    /// Retires the last server: the run's tally and its final counters.
    fn finish(mut self) -> Result<(Tally, Tally, Counters, Vec<f64>), String> {
        let end = self.server.counters()?;
        self.tally.add(&self.boot, &end);
        Ok((self.tally, self.warmup, end, self.setups))
    }
}

/// The workload self-checks, from the run's counter deltas.
fn self_checks(workload: Workload, all: &Tally, warmup: &Tally) -> Vec<Verdict> {
    let hits = all.hits - warmup.hits;
    let misses = all.misses - warmup.misses;
    let ratio = hits / (hits + misses).max(1.0);
    let mut verdicts = vec![match workload {
        Workload::SolveHot => {
            Verdict::new("cache.hit_ratio", ratio >= 0.999, format!("{ratio:.4}"), ">= 0.999")
        }
        _ => Verdict::new("cache.hit_ratio", ratio <= 0.001, format!("{ratio:.4}"), "<= 0.001"),
    }];
    verdicts.push(match workload {
        Workload::BatchStream => Verdict::new(
            "pool.jobs",
            all.jobs > 0.0,
            format!("{}", all.jobs),
            "> 0 (sweeps fan out)",
        ),
        _ => Verdict::new(
            "pool.jobs",
            all.jobs == 0.0,
            format!("{}", all.jobs),
            "== 0 (/solve never enters the pool)",
        ),
    });
    verdicts.push(match workload {
        Workload::SolveHot => Verdict::new(
            "store.records",
            all.records == 0.0,
            format!("{}", all.records),
            "== 0 (no store)",
        ),
        _ => Verdict::new(
            "store.records",
            all.records == all.misses && all.records > 0.0,
            format!("{} records / {} misses", all.records, all.misses),
            "one record per solved cache miss",
        ),
    });
    verdicts
}

/// The generator-lateness check that decides whether a run is valid.
fn lag_check(phase: &PhaseStats) -> Verdict {
    let lag = phase.lag_ms.pct(99.0);
    Verdict::new(
        "gen.lag_p99_ms",
        lag <= GEN_LAG_LIMIT_MS,
        format!("{lag:.3}"),
        &format!("<= {GEN_LAG_LIMIT_MS} (else the run is invalid)"),
    )
}

/// The timed load after the warm-up: the reference phase (or the sweep
/// loop), then, when `search` is set, the capacity search. The peak
/// memory is read after a fixed amount of work (the reference phase, or
/// the first server's sweeps), so that it does not grow with the speed
/// of the server.
fn load_phases(
    args: &Args,
    live: &mut Live,
    inputs: &Inputs,
    seconds: f64,
    search: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = args.workload.plan();
    let conns = connections();
    let mut picker = Picker::new(inputs, args.seed);
    let mut rng = Rng::new(args.seed, 0x7363_6865_6475_6c65);
    match plan.ref_rate {
        Some(rate) => {
            let ref_seconds = if search { seconds * REFERENCE_SHARE } else { seconds };
            let offsets = load::poisson(rate, ref_seconds, &mut rng);
            let picks = picker.take(inputs, offsets.len());
            let reference = load::open_loop(
                "reference",
                live.addr(),
                inputs,
                &picks,
                &offsets,
                ref_seconds,
                conns,
            );
            let sent = reference.sent;
            out.phases.push(reference);
            if search {
                out.metrics.put("peak_rss_mb", live.server.peak_rss_mb()?, "MB");
                let steps = load::LADDER.len() as f64 + load::PROBE_WINDOWS as f64 / 2.0;
                let step = seconds * (1.0 - REFERENCE_SHARE) / steps;
                // Each step books the one before it, which may restart
                // the server.
                live.next(sent)?;
                let mut next = |last| live.next(last);
                let cap = load::capacity(
                    &mut next,
                    inputs,
                    &mut picker,
                    plan.p99_limit_ms,
                    step,
                    conns,
                    &mut rng,
                )?;
                out.metrics.put("capacity_rps", cap.rate, "req/s");
                out.capacity = Some(cap);
            }
        }
        None => {
            // The sweeps run in chunks of one server's share, restarting
            // in between; elapsed time counts the chunks only.
            let limit = plan.restart_after.unwrap_or(u64::MAX) as usize;
            let mut sweeps = PhaseStats { name: "sweeps".into(), ..PhaseStats::default() };
            loop {
                let chunk = load::closed_loop(
                    "sweeps",
                    live.addr(),
                    inputs,
                    &mut picker,
                    seconds - sweeps.elapsed,
                    limit,
                    conns,
                );
                if search && sweeps.sent == 0 {
                    out.metrics.put("peak_rss_mb", live.server.peak_rss_mb()?, "MB");
                }
                let sent = chunk.sent;
                sweeps.append(chunk);
                if sweeps.elapsed >= seconds {
                    break;
                }
                live.next(sent)?;
            }
            if search {
                out.metrics.put("capacity_rps", sweeps.achieved(), "req/s");
                // The same throughput counted in instances.
                out.reported.put(
                    "instances_per_s",
                    sweeps.achieved() * workload::SWEEP as f64,
                    "1/s",
                );
            }
            out.phases.push(sweeps);
        }
    }
    Ok(())
}

/// `--trace 0`: the end-to-end metrics against a live server.
fn run_live(args: &Args, inputs: &Inputs, logs: &Logs, out: &mut Outcome) -> Result<(), String> {
    let plan = args.workload.plan();
    let mut live = Live::start(args, logs, plan.setups)?;
    out.phases.push(live.warm(inputs)?);
    load_phases(args, &mut live, inputs, args.seconds, true, out)?;
    let (all, warmup, end, setups) = live.finish()?;
    out.setups_s = setups;
    out.metrics.put("setup_s", median(&out.setups_s), "s");
    let measured = &out.phases[1];
    // Reported, but not bounded: see README.md.
    let tail = if plan.ref_rate.is_some() { 99.0 } else { 90.0 };
    out.reported.put("latency_p50_ms", measured.latency_ms.pct(50.0), "ms");
    out.reported.put(format!("latency_p{tail}_ms"), measured.latency_ms.pct(tail), "ms");
    if plan.ref_rate.is_some() {
        out.verdicts.push(lag_check(measured));
    }
    out.verdicts.extend(self_checks(args.workload, &all, &warmup));
    out.server = end.flat().into_iter().collect();
    Ok(())
}

/// `GET /healthz` round trips on one idle keep-alive connection, µs.
fn healthz_rtts(server: &ServerProc) -> Result<Samples, String> {
    let mut conn = client::Conn::new(server.addr);
    let request = client::get("/healthz");
    let mut rtts = Samples::default();
    for _ in 0..HEALTHZ_PINGS {
        std::thread::sleep(Duration::from_millis(2));
        let sent = Instant::now();
        let reply = conn.exchange(&request).map_err(|e| format!("GET /healthz: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET /healthz answered {}", reply.status));
        }
        rtts.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    Ok(rtts)
}

/// `--trace 1`: a live phase for what only the server process shows
/// (its poll counters, dropped spans, the client-side latency the
/// replay is tied to), then the in-process replay.
fn run_traced(
    args: &Args,
    inputs: &Inputs,
    logs: &Logs,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = args.workload.plan();
    let live_seconds = args.seconds * 0.4;
    let mut live = Live::start(args, logs, 1)?;
    let rtts = healthz_rtts(&live.server)?;
    out.phases.push(live.warm(inputs)?);
    let timed = live.server.counters()?;
    load_phases(args, &mut live, inputs, live_seconds, false, out)?;
    // Reading the trace table drains the span rings, which is when the
    // server counts the spans it overwrote.
    live.server.fetch("/trace/slow?limit=1")?;
    // Poll counters over the last server's share of the phase.
    let from = if live.setups.len() > 1 { live.boot.clone() } else { timed };
    let (all, warmup, end, setups) = live.finish()?;
    out.setups_s = setups;
    out.verdicts.extend(self_checks(args.workload, &all, &warmup));
    out.server = end.flat().into_iter().collect();
    let live = &out.phases[1];
    if plan.ref_rate.is_some() {
        out.verdicts.push(lag_check(live));
    }
    let client_p50_us = live.latency_ms.pct(50.0) * 1e3;
    let gen_lag = live.lag_ms.pct(99.0);

    let layers = replay::run(args, inputs, &logs.prefill, dir, args.seconds * 0.6, out)?;
    let m = &mut out.metrics;
    m.put("serve.event.overhead_us", client_p50_us - layers.handler_us.pct(50.0), "us");
    m.timing("serve.event.healthz_rtt_us", &rtts, "us");
    let waits = end.prom("mst_poll_waits_total") - from.prom("mst_poll_waits_total");
    let events = end.prom("mst_poll_events_total") - from.prom("mst_poll_events_total");
    let wait_us = end.prom("mst_poll_wait_us_total") - from.prom("mst_poll_wait_us_total");
    let wall_us = end.at.duration_since(from.at).as_secs_f64() * 1e6;
    m.put("net.events_per_wait", events / waits.max(1.0), "ratio");
    m.put("net.idle_frac", wait_us / wall_us.max(1.0), "ratio");
    m.put("obs.dropped_spans", end.prom("mst_obs_dropped_spans_total"), "count");
    m.put("gen.lag_p99_ms", gen_lag, "ms");
    replay::put_layer_metrics(m, &layers);
    Ok(())
}

fn phase_json(phase: &PhaseStats) -> Json {
    Json::obj([
        ("name", Json::str(phase.name.clone())),
        ("offered_rps", Json::Num(phase.offered)),
        ("sent", Json::int(phase.sent as i64)),
        ("ok", Json::int(phase.ok as i64)),
        ("failed", Json::int(phase.failed as i64)),
        ("achieved_rps", Json::Num(phase.achieved())),
        ("latency_p50_ms", Json::Num(phase.latency_ms.pct(50.0))),
        ("latency_p90_ms", Json::Num(phase.latency_ms.pct(90.0))),
        ("latency_p99_ms", Json::Num(phase.latency_ms.pct(99.0))),
        ("gen_lag_p99_ms", Json::Num(phase.lag_ms.pct(99.0))),
        ("first_error", phase.first_error.clone().map(Json::str).unwrap_or(Json::Null)),
    ])
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let wall = Instant::now();
    let dir = args.work.join(format!("{}-{}", args.workload.name(), args.seed));
    let logs = Logs { prefill: dir.join("prefill.log"), live: dir.join("store.log") };
    let mut out = Outcome::default();
    let spinners = load::Spinners::start();
    let result = (|| -> Result<(), String> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        if args.workload.plan().store == StoreMode::Prefilled {
            workload::prefill_store(args.seed, &logs.prefill)?;
        }
        let inputs = workload::inputs(args.workload, args.seed);
        if args.trace {
            run_traced(&args, &inputs, &logs, &dir, &mut out)
        } else {
            run_live(&args, &inputs, &logs, &mut out)
        }
    })();
    drop(spinners);
    // Store logs grow by one record per request; keep none between runs.
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        std::process::exit(2);
    }
    let attempted: u64 = out.phases.iter().map(|p| p.sent).sum::<u64>()
        + out.capacity.iter().flat_map(|c| &c.steps).map(|p| p.sent).sum::<u64>();
    let failed: u64 = out.phases.iter().map(|p| p.failed).sum::<u64>()
        + out.capacity.iter().flat_map(|c| &c.steps).map(|p| p.failed).sum::<u64>();
    let correct = failed == 0 && out.verdicts.iter().all(|v| v.passed);
    print!("{}", report(&args, &out, attempted, failed, wall.elapsed().as_secs_f64()));
    if let Some(path) = &args.record {
        let record = record_json(&args, &out, correct, attempted, failed);
        if let Err(e) = std::fs::write(path, record.to_string()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    // An invalid or failed run reports no numbers.
    let last = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(attempted.max(1) as i64)),
        ("failed", Json::int(failed as i64)),
        ("metrics", if correct { out.metrics.json() } else { Json::Obj(Vec::new()) }),
    ]);
    println!("{last}");
    std::process::exit(if correct { 0 } else { 1 });
}

/// The fixed-width report printed above the JSON line.
fn report(args: &Args, out: &Outcome, attempted: u64, failed: u64, wall: f64) -> String {
    let mut s = String::new();
    let w = args.workload.name();
    let plan = args.workload.plan();
    let _ = writeln!(
        s,
        "perfbench {w}: seed {} seconds {} trace {} wall {wall:.1}s",
        args.seed, args.seconds, args.trace as u8
    );
    let _ = writeln!(s, "  host: {} cpus, {}; commit {}", cpu_count(), cpu_model(), args.commit);
    if let Some(rate) = plan.ref_rate {
        let _ = writeln!(
            s,
            "  open loop: reference {rate} req/s, capacity p99 limit {} ms, {} connections",
            plan.p99_limit_ms,
            connections()
        );
    } else {
        let _ = writeln!(
            s,
            "  closed loop: {} connections, {} instances per sweep",
            connections(),
            workload::SWEEP
        );
    }
    let _ = writeln!(
        s,
        "  {:<14} {:>8} {:>8} {:>7} {:>12} {:>12} {:>10} {:>10} {:>9}",
        "phase", "sent", "ok", "failed", "offered/s", "achieved/s", "p50 ms", "p99 ms", "lag p99"
    );
    let steps = out.capacity.iter().flat_map(|c| &c.steps);
    for p in out.phases.iter().chain(steps) {
        let _ = writeln!(
            s,
            "  {:<14} {:>8} {:>8} {:>7} {:>12.1} {:>12.1} {:>10.3} {:>10.3} {:>9.3}",
            p.name,
            p.sent,
            p.ok,
            p.failed,
            p.offered,
            p.achieved(),
            p.latency_ms.pct(50.0),
            p.latency_ms.pct(99.0),
            p.lag_ms.pct(99.0)
        );
        if let Some(e) = &p.first_error {
            let _ = writeln!(s, "    first error: {e}");
        }
    }
    if !out.setups_s.is_empty() {
        let setups: Vec<String> = out.setups_s.iter().map(|v| format!("{v:.4}")).collect();
        let _ = writeln!(s, "  setups (s): {}", setups.join(" "));
    }
    let _ = writeln!(
        s,
        "  failed_frac {:.6} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &out.reported.0 {
        let _ = writeln!(s, "  {name:<34} {value:>16.4} {unit} (reported, not bounded)");
    }
    for v in &out.verdicts {
        let _ = writeln!(
            s,
            "  check {:<18} {:<5} {:<30} rule {}",
            v.name,
            if v.passed { "PASS" } else { "FAIL" },
            v.value,
            v.rule
        );
    }
    for note in &out.notes {
        let _ = writeln!(s, "  {note}");
    }
    for (name, value, unit) in &out.metrics.0 {
        let _ = writeln!(s, "  {name:<34} {value:>16.4} {unit}");
    }
    s
}

/// The full result with its provenance, for `compare.py`.
fn record_json(args: &Args, out: &Outcome, correct: bool, attempted: u64, failed: u64) -> Json {
    let plan = args.workload.plan();
    let steps = out.capacity.iter().flat_map(|c| &c.steps);
    let phases: Vec<Json> = out.phases.iter().chain(steps).map(phase_json).collect();
    let lag = out.phases.get(1).map_or(0.0, |p| p.lag_ms.pct(99.0));
    let mut fields = vec![
        ("workload".to_string(), Json::str(args.workload.name())),
        ("seed".to_string(), Json::int(args.seed as i64)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("commit".to_string(), Json::str(args.commit.clone())),
        ("host_cpus".to_string(), Json::int(cpu_count() as i64)),
        ("host_cpu_model".to_string(), Json::str(cpu_model())),
        ("connections".to_string(), Json::int(connections() as i64)),
        ("reference_rate_rps".to_string(), plan.ref_rate.map_or(Json::Null, Json::Num)),
        (
            "capacity_p99_limit_ms".to_string(),
            if plan.p99_limit_ms.is_finite() { Json::Num(plan.p99_limit_ms) } else { Json::Null },
        ),
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::int(attempted as i64)),
        ("failed".to_string(), Json::int(failed as i64)),
        ("failed_frac".to_string(), Json::Num(failed as f64 / attempted.max(1) as f64)),
        ("gen_lag_p99_ms".to_string(), Json::Num(lag)),
        ("setups_s".to_string(), Json::Arr(out.setups_s.iter().map(|v| Json::Num(*v)).collect())),
        ("phases".to_string(), Json::Arr(phases)),
        (
            "checks".to_string(),
            Json::Arr(
                out.verdicts
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("name", Json::str(v.name.clone())),
                            ("passed", Json::Bool(v.passed)),
                            ("value", Json::str(v.value.clone())),
                            ("rule", Json::str(v.rule.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "server_counters".to_string(),
            Json::Obj(out.server.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
        ),
        ("metrics".to_string(), out.metrics.json()),
        ("reported".to_string(), out.reported.json()),
    ];
    fields.extend(out.extra.iter().cloned());
    Json::Obj(fields)
}
