//! `mst loadgen` — an open-loop arrival-rate traffic generator and
//! capacity gate for a live `mst serve` instance.
//!
//! **Open loop** means the arrival schedule is fixed *before* the run:
//! a seeded Poisson process of `rate × seconds` request arrivals is
//! precomputed, and every latency is measured from the request's
//! *scheduled* arrival time, not from when the client got around to
//! sending it. A closed-loop generator (send, wait, send) silently
//! stops applying load the moment the server slows down — the
//! **coordinated omission** trap — and reports flattering latencies
//! under exactly the overload it was meant to measure. Here a slow
//! server makes the generator fall *behind schedule*, and the queueing
//! delay lands in the recorded percentiles where it belongs.
//!
//! The traffic is a fixed op mix over `--tenants` keep-alive
//! connections (each simulated tenant holds one persistent connection,
//! reconnecting when the server rotates it out after
//! `max_requests_per_connection` or an idle timeout):
//!
//! * 70% `POST /solve` — one small chain instance;
//! * 20% `POST /batch` — a 16-instance generated sweep;
//! * 10% `POST /session` — a create + close lifecycle (two requests,
//!   both timed, no leaked sessions).
//!
//! The run ends with a flat `{"key": number}` JSON report (same codec
//! convention as `BENCH_batch.json`): request counts, error count,
//! achieved throughput and the p50/p99/p999/max latency quantiles in
//! milliseconds. With `--check <baseline.json>` the run becomes a
//! **capacity gate**: it exits non-zero when any request errored, when
//! throughput dropped more than `--tolerance` below the baseline, or
//! when p99 exceeds `--p99-limit` milliseconds — the CI smoke boots a
//! server, runs a short fixed-seed load, and compares against the
//! committed `BENCH_serve.json`.
//!
//! Three optional layers on top of the base run:
//!
//! * `--solvers-config <file>` parses the same tenant config `mst
//!   serve` loads and spreads the workers across the named tenants'
//!   real `X-Api-Token` values, so per-tenant admission, quotas, and
//!   the per-tenant latency histograms all see authenticated traffic.
//! * `--server-metrics` scrapes `GET /metrics?format=prometheus` after
//!   the run and attributes latency: the report gains the server-side
//!   `/solve` p50/p99 (from the in-server `mst-obs` histograms) next
//!   to the client-observed quantiles, so "is the time in the server
//!   or in the client/network/queueing?" is answered by one artifact.
//! * While the run is in flight a one-line status ticker
//!   (`sent/ok/errors`) redraws on stderr — only when stderr is a real
//!   terminal, so piped CI logs stay clean.

use crate::args::Args;
use mst_api::wire::Json;
use std::fmt::Write as _;
use std::io::{IsTerminal as _, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Transport-level cap on any single exchange; a response slower than
/// this counts as an error, not an infinite stall.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled request: when it arrives (offset from the run start)
/// and what it asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arrival {
    offset_us: u64,
    op: Op,
}

/// The op mix; weights live in [`schedule_arrivals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Solve,
    Batch,
    Session,
}

/// SplitMix64 — the same tiny deterministic generator the fault plans
/// use: one u64 of state, full period, no dependencies.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1] — never 0, so `ln` below is finite.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

/// Precomputes the full seeded arrival schedule: exponential
/// inter-arrival gaps (a Poisson process at `rate` per second) and the
/// weighted op mix. Same seed, same schedule — a CI failure replays
/// exactly.
fn schedule_arrivals(rate: f64, seconds: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng(seed ^ 0x6d73_745f_6c6f_6164); // "mst_load"
    let horizon_us = (seconds * 1e6) as u64;
    let mut arrivals = Vec::new();
    let mut at_us = 0.0f64;
    loop {
        at_us += -rng.next_unit().ln() / rate * 1e6;
        if at_us as u64 >= horizon_us {
            break;
        }
        let roll = rng.next_u64() % 10;
        let op = match roll {
            0..=6 => Op::Solve,
            7..=8 => Op::Batch,
            _ => Op::Session,
        };
        arrivals.push(Arrival { offset_us: at_us as u64, op });
    }
    arrivals
}

/// Latency samples and error counts of one run, merged across workers.
#[derive(Debug, Default)]
struct Tally {
    /// Latency from *scheduled arrival* to full response, in µs.
    latencies_us: Vec<u64>,
    /// Requests answered with a non-2xx status.
    http_errors: u64,
    /// Requests that failed at the transport (connect/write/read).
    transport_errors: u64,
}

/// A percentile of a **sorted** sample set (nearest-rank).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The final flat-JSON report of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Simulated tenants (keep-alive connections).
    pub tenants: u64,
    /// Target arrival rate, requests per second.
    pub rate: f64,
    /// Scheduled run length in seconds.
    pub seconds: f64,
    /// The arrival-schedule seed.
    pub seed: u64,
    /// Requests the schedule dispatched.
    pub sent: u64,
    /// Requests answered 2xx.
    pub ok: u64,
    /// Non-2xx answers plus transport failures.
    pub errors: u64,
    /// Completed requests per wall-clock second.
    pub throughput: f64,
    /// Latency quantiles, milliseconds, measured from scheduled arrival.
    pub p50_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th percentile latency, milliseconds.
    pub p999_ms: f64,
    /// Worst observed latency, milliseconds.
    pub max_ms: f64,
    /// Server-side attribution (`--server-metrics`); `None` when the
    /// run did not scrape the target's `/metrics` endpoint.
    pub server: Option<ServerSample>,
}

/// Server-side latency attribution, scraped from the target's
/// `GET /metrics?format=prometheus` exposition after the run.
///
/// The server quantiles come from the in-process `mst-obs` route
/// histogram for `/solve` (measured parse-to-write inside the server),
/// while the client quantiles in [`LoadReport`] are measured from the
/// *scheduled* arrival. The gap between them is connect/queueing/
/// network/client time — the attribution the CI artifact records.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSample {
    /// Server-side `/solve` median latency, milliseconds.
    pub solve_p50_ms: f64,
    /// Server-side `/solve` 99th-percentile latency, milliseconds.
    pub solve_p99_ms: f64,
    /// `mst_requests_total` at scrape time (includes the scrape itself).
    pub requests_total: u64,
    /// `mst_obs_dropped_spans_total` at scrape time — non-zero means
    /// some spans reached no trace (past a trace's span cap, or for a
    /// trace already evicted from the table), so some traces are
    /// incomplete.
    pub dropped_spans: u64,
}

impl LoadReport {
    /// Renders the flat `{"key": number}` JSON document (the
    /// `BENCH_serve.json` format; parse back with [`Json`]). The
    /// `server_*` attribution keys appear only on `--server-metrics`
    /// runs, so committed baselines stay minimal.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"tenants\": {},", self.tenants).unwrap();
        writeln!(out, "  \"rate_per_sec\": {:.1},", self.rate).unwrap();
        writeln!(out, "  \"seconds\": {:.1},", self.seconds).unwrap();
        writeln!(out, "  \"seed\": {},", self.seed).unwrap();
        writeln!(out, "  \"requests_sent\": {},", self.sent).unwrap();
        writeln!(out, "  \"requests_ok\": {},", self.ok).unwrap();
        writeln!(out, "  \"errors\": {},", self.errors).unwrap();
        writeln!(out, "  \"throughput_per_sec\": {:.1},", self.throughput).unwrap();
        writeln!(out, "  \"p50_ms\": {:.3},", self.p50_ms).unwrap();
        writeln!(out, "  \"p99_ms\": {:.3},", self.p99_ms).unwrap();
        writeln!(out, "  \"p999_ms\": {:.3},", self.p999_ms).unwrap();
        match &self.server {
            None => writeln!(out, "  \"max_ms\": {:.3}", self.max_ms).unwrap(),
            Some(server) => {
                writeln!(out, "  \"max_ms\": {:.3},", self.max_ms).unwrap();
                writeln!(out, "  \"server_solve_p50_ms\": {:.3},", server.solve_p50_ms).unwrap();
                writeln!(out, "  \"server_solve_p99_ms\": {:.3},", server.solve_p99_ms).unwrap();
                let overhead_p50 = (self.p50_ms - server.solve_p50_ms).max(0.0);
                let overhead_p99 = (self.p99_ms - server.solve_p99_ms).max(0.0);
                writeln!(out, "  \"client_overhead_p50_ms\": {overhead_p50:.3},").unwrap();
                writeln!(out, "  \"client_overhead_p99_ms\": {overhead_p99:.3},").unwrap();
                writeln!(out, "  \"server_requests_total\": {},", server.requests_total).unwrap();
                writeln!(out, "  \"server_dropped_spans\": {}", server.dropped_spans).unwrap();
            }
        }
        writeln!(out, "}}").unwrap();
        out
    }
}

/// Fetches the raw Prometheus text exposition from a live server
/// (shared by the attribution scrape and `mst top`).
pub(crate) fn fetch_metrics_text(addr: &str) -> Result<String, String> {
    let resolved: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))?;
    let mut conn = TenantConn { addr: resolved, stream: None };
    let raw = b"GET /metrics?format=prometheus HTTP/1.1\r\nHost: loadgen\r\n\r\n".to_vec();
    let (status, body) =
        conn.exchange(&raw).map_err(|e| format!("metrics scrape of {addr} failed: {e}"))?;
    if !(200..300).contains(&status) {
        return Err(format!("metrics scrape of {addr} answered {status}"));
    }
    Ok(String::from_utf8_lossy(&body).to_string())
}

/// One parsed Prometheus sample: `(name, labels, value)`.
type Sample<'a> = (&'a str, Vec<(&'a str, &'a str)>, f64);

/// Splits one Prometheus sample line into `(name, labels, value)`.
/// Label values in this exposition never contain commas or escaped
/// quotes (routes, tenant names, solver names), so a flat split is
/// exact.
pub(crate) fn parse_sample(line: &str) -> Option<Sample<'_>> {
    let (rest, value) = line.rsplit_once(' ')?;
    let value: f64 = value.trim().parse().ok()?;
    match rest.split_once('{') {
        None => Some((rest, Vec::new(), value)),
        Some((name, labels)) => {
            let labels = labels.strip_suffix('}')?;
            let mut pairs = Vec::new();
            for part in labels.split(',') {
                let (key, quoted) = part.split_once("=\"")?;
                pairs.push((key, quoted.strip_suffix('"')?));
            }
            Some((name, pairs, value))
        }
    }
}

/// The value of the first sample named exactly `name` whose labels
/// include every `(key, value)` pair of `labels`.
pub(crate) fn sample_value(text: &str, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    text.lines().find_map(|line| {
        let (sample_name, sample_labels, value) = parse_sample(line)?;
        (sample_name == name && labels.iter().all(|pair| sample_labels.contains(pair)))
            .then_some(value)
    })
}

/// Scrapes the target's Prometheus exposition and extracts the
/// server-side `/solve` latency quantiles for the attribution report.
pub fn fetch_server_sample(addr: &str) -> Result<ServerSample, String> {
    let text = fetch_metrics_text(addr)?;
    // Histogram quantiles are recorded in microseconds server-side.
    let p50_us =
        sample_value(&text, "mst_route_latency_us", &[("route", "/solve"), ("quantile", "0.5")]);
    let p99_us =
        sample_value(&text, "mst_route_latency_us", &[("route", "/solve"), ("quantile", "0.99")]);
    match (p50_us, p99_us) {
        (Some(p50), Some(p99)) => Ok(ServerSample {
            solve_p50_ms: p50 / 1e3,
            solve_p99_ms: p99 / 1e3,
            requests_total: sample_value(&text, "mst_requests_total", &[]).unwrap_or(0.0) as u64,
            dropped_spans: sample_value(&text, "mst_obs_dropped_spans_total", &[]).unwrap_or(0.0)
                as u64,
        }),
        _ => Err(format!(
            "metrics scrape of {addr} carries no /solve latency summary (did any /solve \
             requests land?)"
        )),
    }
}

/// Why a `--check` gate failed; empty means the gate passed.
fn gate_failures(
    report: &LoadReport,
    baseline: &Json,
    tolerance: f64,
    p99_limit_ms: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if report.errors > 0 {
        failures
            .push(format!("{} request(s) errored; the capacity gate allows none", report.errors));
    }
    if let Some(recorded) = baseline.get("throughput_per_sec").and_then(Json::as_f64) {
        let floor = recorded * (1.0 - tolerance);
        if report.throughput < floor {
            failures.push(format!(
                "throughput {:.1}/s is below the {floor:.1}/s floor ({:.0}% of the {recorded:.1}/s \
                 baseline)",
                report.throughput,
                (1.0 - tolerance) * 100.0
            ));
        }
    }
    if report.p99_ms > p99_limit_ms {
        failures.push(format!(
            "p99 latency {:.1}ms exceeds the {p99_limit_ms:.1}ms limit",
            report.p99_ms
        ));
    }
    failures
}

/// One tenant's persistent connection: lazily (re)connected, dropped
/// whenever the server rotates it out or an exchange fails.
struct TenantConn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl TenantConn {
    fn connect(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, EXCHANGE_TIMEOUT)?;
            stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
            stream.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    /// Sends one keep-alive request and reads one full response;
    /// returns the status code and body. A stale keep-alive connection
    /// (the server idle-closed or rotated it) is retried once on a
    /// fresh socket before counting as a transport error.
    fn exchange(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        for attempt in 0..2 {
            let result = self.try_exchange(raw);
            match result {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    self.stream = None;
                    if attempt == 1 {
                        return Err(e);
                    }
                }
            }
        }
        unreachable!("the loop returns on success or second failure")
    }

    fn try_exchange(&mut self, raw: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let stream = self.connect()?;
        stream.write_all(raw)?;
        let (status, body, close) = read_one_response(stream)?;
        if close {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// Reads exactly one HTTP/1.1 response off a keep-alive stream:
/// headers, then a `Content-Length` (or chunked) body. Returns
/// `(status, body, server_wants_close)`.
fn read_one_response(stream: &mut TcpStream) -> std::io::Result<(u16, Vec<u8>, bool)> {
    let mut buf = Vec::with_capacity(1024);
    let mut scratch = [0u8; 4096];
    let head_end = loop {
        if let Some(at) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break at + 4;
        }
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a full response head",
            ));
        }
        buf.extend_from_slice(&scratch[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let header = |name: &str| -> Option<String> {
        head.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim().to_ascii_lowercase())
        })
    };
    let close = header("connection").as_deref() == Some("close");
    if header("transfer-encoding").as_deref() == Some("chunked") {
        // The loadgen mix never streams; drain until the terminator.
        let mut body = buf[head_end..].to_vec();
        while !body.windows(5).any(|w| w == b"0\r\n\r\n") {
            let n = stream.read(&mut scratch)?;
            if n == 0 {
                break;
            }
            body.extend_from_slice(&scratch[..n]);
        }
        return Ok((status, body, close));
    }
    let content_length: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no content length"))?;
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&scratch[..n]);
    }
    body.truncate(content_length);
    Ok((status, body, close))
}

/// Frames a keep-alive `POST` request, with an `X-Api-Token` header
/// when the worker impersonates a named tenant.
fn post(path: &str, body: &str, token: Option<&str>) -> Vec<u8> {
    let auth = match token {
        Some(token) => format!("X-Api-Token: {token}\r\n"),
        None => String::new(),
    };
    format!(
        "POST {path} HTTP/1.1\r\nHost: loadgen\r\n{auth}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The first (or only) request of one op. `salt` varies the solve
/// sizes deterministically across the schedule.
fn request_bytes(op: Op, salt: u64, token: Option<&str>) -> Vec<u8> {
    match op {
        Op::Solve => {
            // Vary the task count so the solve path sees distinct work.
            let tasks = 3 + salt % 6;
            post(
                "/solve",
                &format!("{{\"platform\": \"chain\\n2 3\\n3 5\\n\", \"tasks\": {tasks}}}"),
                token,
            )
        }
        Op::Batch => post(
            "/batch",
            "{\"generate\": {\"kind\": \"chain\", \"count\": 16, \"size\": 3, \"tasks\": 5}}",
            token,
        ),
        Op::Session => post(
            "/session",
            "{\"op\": \"create\", \"platform\": \"chain\\n2 3\\n3 5\\n\", \"tasks\": 5}",
            token,
        ),
    }
}

/// The close request for the `"session": N` id a create reply carried,
/// so a session op never leaks a table slot.
fn close_request(create_body: &[u8], token: Option<&str>) -> Option<Vec<u8>> {
    let body = std::str::from_utf8(create_body).ok()?;
    let id = Json::parse(body).ok()?.get("session")?.as_i64()?;
    Some(post("/session", &format!("{{\"op\": \"close\", \"session\": {id}}}"), token))
}

/// Live progress counters shared between the workers and the status
/// ticker thread.
#[derive(Debug, Default)]
struct LiveCounters {
    sent: AtomicU64,
    ok: AtomicU64,
    errors: AtomicU64,
    done: AtomicBool,
}

/// Optional layers over the base [`run_load_with`] behaviour.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// `X-Api-Token` values distributed round-robin across the tenant
    /// workers (from `--solvers-config`); empty means every request is
    /// unauthenticated default-tenant traffic.
    pub tokens: Vec<String>,
    /// Redraw a one-line `sent/ok/errors` ticker on stderr during the
    /// run. Callers gate this on stderr being a terminal.
    pub live_status: bool,
}

/// Runs the schedule against `addr`: `tenants` workers, each owning a
/// keep-alive connection and its own slice of the arrival schedule,
/// with the optional layers in [`LoadOptions`] (tenant tokens
/// round-robined across workers, the live stderr status ticker).
pub fn run_load_with(
    addr: &str,
    tenants: usize,
    rate: f64,
    seconds: f64,
    seed: u64,
    options: &LoadOptions,
) -> Result<LoadReport, String> {
    let resolved: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))?;
    let arrivals = schedule_arrivals(rate, seconds, seed);
    if arrivals.is_empty() {
        return Err(format!("rate {rate}/s over {seconds}s schedules no requests"));
    }
    // Round-robin the arrivals across the tenant workers: each worker's
    // slice stays sorted by offset, so a worker sleeps forward only.
    let mut slices: Vec<Vec<Arrival>> = vec![Vec::new(); tenants];
    for (i, arrival) in arrivals.iter().enumerate() {
        slices[i % tenants].push(*arrival);
    }
    let tally = Arc::new(Mutex::new(Tally::default()));
    let live = Arc::new(LiveCounters::default());
    let total = arrivals.len() as u64;
    let ticker = options.live_status.then(|| {
        let live = Arc::clone(&live);
        std::thread::spawn(move || {
            while !live.done.load(Ordering::Acquire) {
                eprint!(
                    "\r  loadgen: {}/{total} sent, {} ok, {} errors   ",
                    live.sent.load(Ordering::Relaxed),
                    live.ok.load(Ordering::Relaxed),
                    live.errors.load(Ordering::Relaxed),
                );
                let _ = std::io::stderr().flush();
                std::thread::sleep(Duration::from_millis(200));
            }
            // Blank the ticker line so the report starts on a clean row.
            eprint!("\r{:64}\r", "");
            let _ = std::io::stderr().flush();
        })
    });
    let started = Instant::now();
    let start_at = started + Duration::from_millis(20); // workers align on one epoch
    let workers: Vec<_> = slices
        .into_iter()
        .enumerate()
        .map(|(worker_idx, slice)| {
            let tally = Arc::clone(&tally);
            let live = Arc::clone(&live);
            // Worker i impersonates tenant token i mod N; no tokens
            // means plain default-tenant traffic.
            let token = (!options.tokens.is_empty())
                .then(|| options.tokens[worker_idx % options.tokens.len()].clone());
            std::thread::spawn(move || {
                let mut conn = TenantConn { addr: resolved, stream: None };
                let mut local = Tally::default();
                for arrival in slice {
                    let scheduled = start_at + Duration::from_micros(arrival.offset_us);
                    // Open loop: sleep only until the *scheduled*
                    // arrival; once behind, fire back-to-back and let
                    // the backlog show up in the latency numbers.
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    // A session op is create + close: both exchanges happen
                    // inside the one timed arrival, and the close
                    // targets the id the create just returned so no
                    // table slot leaks into later arrivals.
                    let frame = request_bytes(arrival.op, arrival.offset_us, token.as_deref());
                    live.sent.fetch_add(1, Ordering::Relaxed);
                    let mut ok = true;
                    match conn.exchange(&frame) {
                        Ok((status, body)) if (200..300).contains(&status) => {
                            if arrival.op == Op::Session {
                                match close_request(&body, token.as_deref())
                                    .map(|f| conn.exchange(&f))
                                {
                                    Some(Ok((status, _))) if (200..300).contains(&status) => {}
                                    Some(Ok(_)) | None => {
                                        ok = false;
                                        local.http_errors += 1;
                                    }
                                    Some(Err(_)) => {
                                        ok = false;
                                        local.transport_errors += 1;
                                    }
                                }
                            }
                        }
                        Ok(_) => {
                            ok = false;
                            local.http_errors += 1;
                        }
                        Err(_) => {
                            ok = false;
                            local.transport_errors += 1;
                        }
                    }
                    if ok {
                        live.ok.fetch_add(1, Ordering::Relaxed);
                        let latency = Instant::now().saturating_duration_since(scheduled);
                        local.latencies_us.push(latency.as_micros() as u64);
                    } else {
                        live.errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                let mut merged = tally.lock().unwrap_or_else(|e| e.into_inner());
                merged.latencies_us.extend_from_slice(&local.latencies_us);
                merged.http_errors += local.http_errors;
                merged.transport_errors += local.transport_errors;
            })
        })
        .collect();
    for worker in workers {
        worker.join().map_err(|_| "a loadgen worker panicked".to_string())?;
    }
    let elapsed = started.elapsed().as_secs_f64();
    live.done.store(true, Ordering::Release);
    if let Some(ticker) = ticker {
        let _ = ticker.join();
    }
    let mut tally = Arc::try_unwrap(tally)
        .map_err(|_| "tally still shared".to_string())?
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    tally.latencies_us.sort_unstable();
    let sent = arrivals.len() as u64;
    let ok = tally.latencies_us.len() as u64;
    Ok(LoadReport {
        tenants: tenants as u64,
        rate,
        seconds,
        seed,
        sent,
        ok,
        errors: tally.http_errors + tally.transport_errors,
        throughput: ok as f64 / elapsed.max(1e-9),
        p50_ms: percentile_us(&tally.latencies_us, 50.0) as f64 / 1e3,
        p99_ms: percentile_us(&tally.latencies_us, 99.0) as f64 / 1e3,
        p999_ms: percentile_us(&tally.latencies_us, 99.9) as f64 / 1e3,
        max_ms: tally.latencies_us.last().copied().unwrap_or(0) as f64 / 1e3,
        server: None,
    })
}

/// `mst loadgen` — parse flags, run the schedule, write/print the
/// report, optionally enforce the capacity gate.
pub fn cmd_loadgen(args: &Args) -> Result<String, String> {
    let addr = args.opt("addr").unwrap_or("127.0.0.1:8080").to_string();
    let tenants = match args.int_opt("tenants", 4)? {
        n if n >= 1 => n as usize,
        n => return Err(format!("--tenants must be at least 1, got {n}")),
    };
    let rate: f64 = match args.opt("rate") {
        None => 50.0,
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|r: &f64| r.is_finite() && *r > 0.0)
            .ok_or_else(|| format!("--rate must be a positive number, got {raw:?}"))?,
    };
    let seconds: f64 = match args.opt("seconds") {
        None => 5.0,
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
            .ok_or_else(|| format!("--seconds must be in (0, 600], got {raw:?}"))?,
    };
    let seed = match args.int_opt("seed", 2003)? {
        s if s >= 0 => s as u64,
        _ => return Err("--seed must be non-negative".into()),
    };
    let tolerance: f64 = match args.opt("tolerance") {
        None => 0.30,
        Some(raw) => raw
            .parse()
            .ok()
            .filter(|t: &f64| (0.0..1.0).contains(t))
            .ok_or_else(|| format!("--tolerance must be a fraction in [0, 1), got {raw:?}"))?,
    };
    let p99_limit_ms: f64 = match args.opt("p99-limit") {
        None => 1_000.0,
        Some(raw) => {
            raw.parse().ok().filter(|l: &f64| l.is_finite() && *l > 0.0).ok_or_else(|| {
                format!("--p99-limit must be a positive number of ms, got {raw:?}")
            })?
        }
    };

    let mut options = LoadOptions {
        tokens: Vec::new(),
        // Only a human at a terminal sees the ticker; piped CI logs
        // and redirected output stay line-oriented.
        live_status: std::io::stderr().is_terminal(),
    };
    if let Some(config_path) = args.opt("solvers-config") {
        if config_path.is_empty() {
            return Err("--solvers-config expects a file path".into());
        }
        let text = std::fs::read_to_string(config_path)
            .map_err(|e| format!("cannot read {config_path}: {e}"))?;
        let set =
            mst_api::RegistrySet::parse(&text).map_err(|e| format!("config {config_path}: {e}"))?;
        // Each named tenant's effective X-Api-Token (explicit `token =`
        // or the tenant name), same resolution the server applies.
        options.tokens = set
            .tenants()
            .map(|(name, _, limits)| limits.token.clone().unwrap_or_else(|| name.to_string()))
            .collect();
        if options.tokens.is_empty() {
            return Err(format!(
                "--solvers-config {config_path} defines no named tenants to authenticate as"
            ));
        }
    }

    let mut report = run_load_with(&addr, tenants, rate, seconds, seed, &options)?;
    if args.flag("server-metrics") {
        report.server = Some(fetch_server_sample(&addr)?);
    }
    let json = report.to_json();
    if let Some(path) = args.opt("out") {
        if path.is_empty() {
            return Err("--out expects a file path".into());
        }
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(baseline_path) = args.opt("check") {
        if baseline_path.is_empty() {
            return Err("--check expects a baseline file path".into());
        }
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
        let baseline = Json::parse(&text).map_err(|e| format!("baseline {baseline_path}: {e}"))?;
        let failures = gate_failures(&report, &baseline, tolerance, p99_limit_ms);
        if !failures.is_empty() {
            let mut message = format!("{json}capacity gate FAILED against {baseline_path}:\n");
            for failure in &failures {
                writeln!(message, "  - {failure}").unwrap();
            }
            return Err(message);
        }
        return Ok(format!(
            "{json}capacity gate passed against {baseline_path} \
             (tolerance {:.0}%, p99 limit {p99_limit_ms:.0}ms)\n",
            tolerance * 100.0
        ));
    }
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The base run: no tokens, no ticker.
    fn run_load(
        addr: &str,
        tenants: usize,
        rate: f64,
        seconds: f64,
        seed: u64,
    ) -> Result<LoadReport, String> {
        run_load_with(addr, tenants, rate, seconds, seed, &LoadOptions::default())
    }

    #[test]
    fn arrival_schedules_are_seeded_and_dense() {
        let a = schedule_arrivals(100.0, 2.0, 7);
        let b = schedule_arrivals(100.0, 2.0, 7);
        assert_eq!(a, b, "same seed, same schedule");
        let c = schedule_arrivals(100.0, 2.0, 8);
        assert_ne!(a, c, "different seeds differ");
        // ~200 expected arrivals; Poisson noise stays well inside 2x.
        assert!((100..400).contains(&a.len()), "{} arrivals", a.len());
        // Offsets are sorted and inside the horizon.
        assert!(a.windows(2).all(|w| w[0].offset_us <= w[1].offset_us));
        assert!(a.iter().all(|x| x.offset_us < 2_000_000));
        // All three ops appear in a schedule this size.
        for op in [Op::Solve, Op::Batch, Op::Session] {
            assert!(a.iter().any(|x| x.op == op), "{op:?} missing from the mix");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank_on_sorted_samples() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&samples, 50.0), 50);
        assert_eq!(percentile_us(&samples, 99.0), 99);
        assert_eq!(percentile_us(&samples, 99.9), 100);
        assert_eq!(percentile_us(&samples, 100.0), 100);
        assert_eq!(percentile_us(&[42], 99.0), 42);
        assert_eq!(percentile_us(&[], 50.0), 0);
    }

    #[test]
    fn reports_render_parseable_flat_json() {
        let report = LoadReport {
            tenants: 4,
            rate: 50.0,
            seconds: 5.0,
            seed: 2003,
            sent: 250,
            ok: 250,
            errors: 0,
            throughput: 49.8,
            p50_ms: 1.25,
            p99_ms: 8.5,
            p999_ms: 12.0,
            max_ms: 15.75,
            server: None,
        };
        let json = Json::parse(&report.to_json()).expect("report is valid JSON");
        assert_eq!(json.get("requests_sent").and_then(Json::as_i64), Some(250));
        assert_eq!(json.get("errors").and_then(Json::as_i64), Some(0));
        assert_eq!(json.get("throughput_per_sec").and_then(Json::as_f64), Some(49.8));
        assert_eq!(json.get("p99_ms").and_then(Json::as_f64), Some(8.5));
        assert!(json.get("server_solve_p50_ms").is_none(), "no server keys without a scrape");

        let attributed = LoadReport {
            server: Some(ServerSample {
                solve_p50_ms: 0.75,
                solve_p99_ms: 6.0,
                requests_total: 251,
                dropped_spans: 0,
            }),
            ..report
        };
        let json = Json::parse(&attributed.to_json()).expect("attributed report is valid JSON");
        assert_eq!(json.get("server_solve_p50_ms").and_then(Json::as_f64), Some(0.75));
        assert_eq!(json.get("server_solve_p99_ms").and_then(Json::as_f64), Some(6.0));
        // Client overhead = client quantile minus server quantile.
        assert_eq!(json.get("client_overhead_p50_ms").and_then(Json::as_f64), Some(0.5));
        assert_eq!(json.get("client_overhead_p99_ms").and_then(Json::as_f64), Some(2.5));
        assert_eq!(json.get("server_requests_total").and_then(Json::as_i64), Some(251));
        assert_eq!(json.get("server_dropped_spans").and_then(Json::as_i64), Some(0));
    }

    #[test]
    fn samples_parse_names_labels_and_values() {
        assert_eq!(parse_sample("mst_uptime_secs 12"), Some(("mst_uptime_secs", vec![], 12.0)));
        let (name, labels, value) =
            parse_sample("mst_kernel_latency_us{kernel=\"solve\",solver=\"optimal\"} 400")
                .expect("labelled line parses");
        assert_eq!(name, "mst_kernel_latency_us");
        assert_eq!(labels, vec![("kernel", "solve"), ("solver", "optimal")]);
        assert_eq!(value, 400.0);
        assert_eq!(parse_sample("# HELP not a sample"), None);
    }

    #[test]
    fn sample_value_matches_exact_names_and_label_subsets() {
        let text = "mst_requests_total 42\n\
                    mst_route_latency_us{route=\"/solve\",quantile=\"0.5\"} 750\n\
                    mst_route_latency_us{route=\"/solve\",quantile=\"0.99\"} 6000\n\
                    mst_route_latency_us{route=\"/batch\",quantile=\"0.5\"} 9000\n\
                    mst_route_latency_us_sum{route=\"/solve\"} 123456\n";
        assert_eq!(sample_value(text, "mst_requests_total", &[]), Some(42.0));
        assert_eq!(
            sample_value(text, "mst_route_latency_us", &[("route", "/solve"), ("quantile", "0.5")]),
            Some(750.0)
        );
        assert_eq!(
            sample_value(text, "mst_route_latency_us", &[("route", "/batch"), ("quantile", "0.5")]),
            Some(9000.0)
        );
        // `_sum` is a longer metric name, not a label variant of the base.
        assert_eq!(
            sample_value(text, "mst_route_latency_us_sum", &[("route", "/solve")]),
            Some(123456.0)
        );
        assert_eq!(sample_value(text, "mst_route_latency", &[]), None);
        assert_eq!(sample_value(text, "mst_missing_total", &[]), None);
    }

    #[test]
    fn post_frames_carry_the_tenant_token_only_when_given() {
        let plain = String::from_utf8(post("/solve", "{}", None)).unwrap();
        assert!(!plain.contains("X-Api-Token"), "{plain}");
        let authed = String::from_utf8(post("/solve", "{}", Some("acme-key"))).unwrap();
        assert!(authed.contains("X-Api-Token: acme-key\r\n"), "{authed}");
        assert!(authed.ends_with("\r\n\r\n{}"), "{authed}");
    }

    #[test]
    fn the_gate_fails_on_errors_throughput_drops_and_slow_p99() {
        let good = LoadReport {
            tenants: 4,
            rate: 50.0,
            seconds: 5.0,
            seed: 1,
            sent: 250,
            ok: 250,
            errors: 0,
            throughput: 49.0,
            p50_ms: 1.0,
            p99_ms: 10.0,
            p999_ms: 20.0,
            max_ms: 30.0,
            server: None,
        };
        let baseline = Json::parse(r#"{"throughput_per_sec": 50.0, "p99_ms": 9.0}"#).unwrap();
        assert!(gate_failures(&good, &baseline, 0.30, 1000.0).is_empty());

        let errored = LoadReport { errors: 3, ..good.clone() };
        let failures = gate_failures(&errored, &baseline, 0.30, 1000.0);
        assert!(failures.iter().any(|f| f.contains("errored")), "{failures:?}");

        let slow = LoadReport { throughput: 20.0, ..good.clone() };
        let failures = gate_failures(&slow, &baseline, 0.30, 1000.0);
        assert!(failures.iter().any(|f| f.contains("below the")), "{failures:?}");

        let laggy = LoadReport { p99_ms: 2_000.0, ..good.clone() };
        let failures = gate_failures(&laggy, &baseline, 0.30, 1000.0);
        assert!(failures.iter().any(|f| f.contains("p99")), "{failures:?}");

        // A baseline without the throughput key guards nothing but the
        // error and p99 rules still apply.
        let bare = Json::parse("{}").unwrap();
        assert!(gate_failures(&good, &bare, 0.30, 1000.0).is_empty());
    }

    #[test]
    fn the_committed_baseline_parses_and_carries_the_gated_keys() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
        let text = std::fs::read_to_string(path).expect("BENCH_serve.json is committed");
        let baseline = Json::parse(&text).expect("baseline is valid JSON");
        let throughput = baseline
            .get("throughput_per_sec")
            .and_then(Json::as_f64)
            .expect("baseline records throughput_per_sec");
        assert!(throughput > 0.0, "recorded throughput must be positive, got {throughput}");
        assert_eq!(baseline.get("errors").and_then(Json::as_i64), Some(0));
        assert!(baseline.get("p99_ms").and_then(Json::as_f64).is_some());
        assert!(baseline.get("seed").and_then(Json::as_i64).is_some());
    }

    #[test]
    fn a_short_run_against_a_live_server_reports_clean_numbers() {
        let server = mst_serve::Server::bind(mst_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..mst_serve::ServeConfig::default()
        })
        .expect("bind");
        let addr = server.addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        let report = run_load(&addr.to_string(), 2, 40.0, 1.0, 2003).expect("load run");
        assert!(report.sent > 0, "{report:?}");
        assert_eq!(report.errors, 0, "{report:?}");
        assert_eq!(report.ok, report.sent, "{report:?}");
        assert!(report.p50_ms <= report.p99_ms && report.p99_ms <= report.max_ms, "{report:?}");
        assert!(report.throughput > 0.0, "{report:?}");

        // The attribution scrape sees the traffic the run just sent.
        let sample = fetch_server_sample(&addr.to_string()).expect("metrics scrape");
        assert!(sample.requests_total > 0, "{sample:?}");
        assert!(sample.solve_p50_ms <= sample.solve_p99_ms, "{sample:?}");
        assert!(sample.solve_p99_ms > 0.0, "{sample:?}");

        handle.shutdown();
        runner.join().expect("server joins");
    }

    #[test]
    fn unreachable_targets_error_rather_than_hang() {
        // Nothing listens on port 1: every request is a transport error.
        let report = run_load("127.0.0.1:1", 1, 100.0, 0.2, 5).expect("run completes");
        assert_eq!(report.ok, 0, "{report:?}");
        assert!(report.errors > 0, "{report:?}");
    }
}
