//! End-to-end tests of the execution-policy layer over real sockets:
//! per-tenant admission (quota exhaustion answers 429 with
//! `Retry-After` and the slot frees again), deadline budgets (a
//! cancelled batch returns promptly and leaves no stuck workers),
//! thread-budget isolation (a heavy tenant cannot starve a light one),
//! client-disconnect cancellation, streamed batches and the per-tenant
//! `/metrics` section.

use master_slave_tasking::api::wire::Json;
use master_slave_tasking::serve::{ServeConfig, Server, ServerHandle};
use mst_api::RegistrySet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The two-tenant config every test boots:
///
/// * `slow` — one solve thread, one admission slot (the tenant whose
///   quota and budget we exhaust);
/// * `fast` — three solve threads, no quota (the tenant that must not
///   be starved);
/// * `budget` — a 150 ms per-request deadline budget and a small
///   per-request instance cap;
/// * `metered` — a time-windowed rate limit of 3 requests per minute
///   (the window is long so tokens do not regrow mid-test).
fn tenant_config() -> RegistrySet {
    RegistrySet::parse(
        r#"{
            "registries": {
                "slow": {"threads": 1, "quota": 1, "token": "slow-key"},
                "fast": {"threads": 3},
                "budget": {"threads": 2, "deadline_ms": 150, "max_instances": 50000},
                "metered": {"requests_per_window": 3, "window_ms": 60000}
            }
        }"#,
    )
    .expect("test config parses")
}

fn start_server() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        conn_threads: 8,
        // Tight chunks = tight cancellation checkpoints, so disconnect
        // and deadline cancellation land quickly in these tests.
        batch_chunk: 64,
        registries: Some(tenant_config()),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

/// Sends one request and reads the full reply (head + body).
fn raw_request(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(raw).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    String::from_utf8_lossy(&reply).to_string()
}

fn status_of(reply: &str) -> u16 {
    reply.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line")
}

fn body_of(reply: &str) -> String {
    reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default()
}

fn get(addr: SocketAddr, path: &str) -> String {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, token: Option<&str>, body: &str) -> String {
    let token_header = token.map(|t| format!("X-Api-Token: {t}\r\n")).unwrap_or_default();
    raw_request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\n{token_header}Connection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// A small solve request body (one 3-processor chain, 5 tasks).
const SMALL_SOLVE: &str = r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5}"#;

/// A `/batch` body big enough to keep a one-thread tenant busy for
/// many seconds (the tests cancel it; it never runs to completion).
const HUGE_BATCH: &str =
    r#"{"generate": {"kind": "chain", "count": 100000, "size": 10, "tasks": 200}}"#;

/// Opens a connection, sends `body` as the tenant's `/batch` and
/// returns the open stream *without reading the response* — the
/// request is now in flight server-side, holding its admission slot.
fn send_batch_without_reading(addr: SocketAddr, token: &str, body: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "POST /batch HTTP/1.1\r\nHost: t\r\nX-Api-Token: {token}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    stream
}

/// Polls `/metrics` until the tenant's live queue depth reaches
/// `depth` (the in-flight request has been admitted).
fn wait_for_queue_depth(addr: SocketAddr, tenant: &str, depth: i64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = Json::parse(&body_of(&get(addr, "/metrics"))).expect("metrics JSON");
        let current = metrics
            .get("tenants")
            .and_then(|t| t.get(tenant))
            .and_then(|t| t.get("queue_depth"))
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("no queue_depth for {tenant}"));
        if current == depth {
            return;
        }
        assert!(Instant::now() < deadline, "tenant {tenant} never reached queue depth {depth}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn quota_exhaustion_answers_429_and_the_slot_frees_on_disconnect() {
    let (addr, handle, runner) = start_server();

    // Occupy tenant `slow`'s single admission slot with a long batch.
    let held = send_batch_without_reading(addr, "slow-key", HUGE_BATCH);
    wait_for_queue_depth(addr, "slow", 1);

    // A second request on the same token is refused: structured 429
    // with Retry-After, while other tenants still get in.
    let reply = post(addr, "/solve", Some("slow-key"), SMALL_SOLVE);
    assert_eq!(status_of(&reply), 429, "{reply}");
    assert!(reply.contains("Retry-After: 1"), "{reply}");
    assert!(body_of(&reply).contains("\"kind\":\"quota-exhausted\""), "{reply}");
    let reply = post(addr, "/solve", Some("fast"), SMALL_SOLVE);
    assert_eq!(status_of(&reply), 200, "quota is per tenant: {reply}");

    // Abandon the held request: the server notices the disconnect at
    // the next chunk checkpoint, cancels the sweep and releases the
    // slot — the tenant is usable again, the pool not stuck.
    drop(held);
    wait_for_queue_depth(addr, "slow", 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let reply = post(addr, "/solve", Some("slow-key"), SMALL_SOLVE);
        if status_of(&reply) == 200 {
            assert!(body_of(&reply).contains("\"makespan\":14"), "{reply}");
            break;
        }
        assert!(Instant::now() < deadline, "the freed slot never re-admitted: {reply}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The refusal and the cancellation both show in the tenant metrics.
    let metrics = Json::parse(&body_of(&get(addr, "/metrics"))).unwrap();
    let slow = metrics.get("tenants").and_then(|t| t.get("slow")).expect("slow tenant metrics");
    assert!(slow.get("rejected_total").and_then(Json::as_i64).unwrap() >= 1);
    assert!(slow.get("cancelled_total").and_then(Json::as_i64).unwrap() >= 1);

    handle.shutdown();
    runner.join().expect("server joins cleanly — no stuck handler threads");
}

/// The five-processor chain whose degraded shape the repair tests
/// re-solve: losing processor 4 at `t = 3` commits nothing and leaves
/// a three-processor chain with all nine tasks.
const REPAIR_CHAIN: &str = r#""platform": "chain\n1 2\n2 3\n1 1\n3 2\n2 2\n", "tasks": 9"#;

/// The session id of a `/session create` reply.
fn session_id(reply: &str) -> i64 {
    Json::parse(&body_of(reply))
        .ok()
        .and_then(|j| j.get("session").and_then(Json::as_i64))
        .unwrap_or_else(|| panic!("no session id in {reply}"))
}

#[test]
fn repairs_that_need_no_solve_take_no_admission_slot() {
    let (addr, handle, runner) = start_server();
    let session = |body: &str| post(addr, "/session", Some("slow-key"), body);
    let fail = |id: i64, processor: i64, at: i64| {
        session(&format!(
            r#"{{"op": "fail", "session": {id}, "processor": {processor}, "at": {at}}}"#
        ))
    };

    // With the slot free: one repair miss caches the degraded chain, and
    // two more sessions wait to be struck while the slot is held.
    let first = session(&format!(r#"{{"op": "create", {REPAIR_CHAIN}}}"#));
    assert_eq!(status_of(&first), 200, "{first}");
    let reply = fail(session_id(&first), 4, 3);
    assert_eq!(status_of(&reply), 200, "{reply}");
    assert!(body_of(&reply).contains("\"cached\":false"), "the first repair misses: {reply}");
    let cached = session(&format!(r#"{{"op": "create", {REPAIR_CHAIN}}}"#));
    assert_eq!(status_of(&cached), 200, "{cached}");
    let noop = session(r#"{"op": "create", "platform": "chain\n1 1\n1 1\n50 50\n", "tasks": 2}"#);
    assert_eq!(status_of(&noop), 200, "{noop}");

    // Occupy tenant `slow`'s single admission slot with a long batch.
    let held = send_batch_without_reading(addr, "slow-key", HUGE_BATCH);
    wait_for_queue_depth(addr, "slow", 1);

    // A repair answered from the cache needs no slot...
    let reply = fail(session_id(&cached), 4, 3);
    assert_eq!(status_of(&reply), 200, "a cached repair must not queue for a slot: {reply}");
    assert!(body_of(&reply).contains("\"cached\":true"), "{reply}");
    // ...nor does one with nothing left to run...
    let reply = fail(session_id(&noop), 3, 1000);
    assert_eq!(status_of(&reply), 200, "a no-op repair must not queue for a slot: {reply}");
    assert!(body_of(&reply).contains("\"event_remaining\":0"), "{reply}");
    // ...and a processor that does not exist is the client's mistake.
    let reply = fail(session_id(&cached), 99, 3);
    assert_eq!(status_of(&reply), 400, "{reply}");
    assert!(body_of(&reply).contains("\"kind\":\"bad-processor\""), "{reply}");

    drop(held);
    wait_for_queue_depth(addr, "slow", 0);
    handle.shutdown();
    runner.join().expect("server joins cleanly");
}

#[test]
fn deadline_budgets_cancel_batches_promptly_and_leave_workers_reusable() {
    let (addr, handle, runner) = start_server();

    // Far more work than a 150 ms budget covers.
    let started = Instant::now();
    let reply = post(
        addr,
        "/batch",
        Some("budget"),
        r#"{"generate": {"kind": "chain", "count": 50000, "size": 10, "tasks": 200}}"#,
    );
    let elapsed = started.elapsed();
    assert_eq!(status_of(&reply), 200, "{reply}");
    let body = Json::parse(&body_of(&reply)).expect("batch summary JSON");
    assert_eq!(body.get("complete").and_then(Json::as_bool), Some(false), "{reply}");
    let cancelled = body.get("cancelled").and_then(Json::as_i64).unwrap();
    let solved = body.get("solved").and_then(Json::as_i64).unwrap();
    assert!(cancelled > 0, "the budget cannot cover 50k instances: {reply}");
    assert!(solved > 0, "instances before the deadline did solve: {reply}");
    assert_eq!(solved + cancelled + body.get("failed").and_then(Json::as_i64).unwrap(), 50_000);
    assert!(
        elapsed < Duration::from_secs(30),
        "a budgeted batch must return promptly, took {elapsed:?}"
    );

    // The tenant's dedicated pool survives: a small sweep completes.
    let reply = post(
        addr,
        "/batch",
        Some("budget"),
        r#"{"generate": {"kind": "chain", "count": 64, "size": 3, "tasks": 5}}"#,
    );
    assert_eq!(status_of(&reply), 200, "{reply}");
    let body = Json::parse(&body_of(&reply)).unwrap();
    assert_eq!(body.get("complete").and_then(Json::as_bool), Some(true), "{reply}");
    assert_eq!(body.get("solved").and_then(Json::as_i64), Some(64), "{reply}");

    // Per-request instance caps refuse before solving anything.
    let reply = post(
        addr,
        "/batch",
        Some("budget"),
        r#"{"generate": {"kind": "chain", "count": 60000, "size": 3, "tasks": 5}}"#,
    );
    assert_eq!(status_of(&reply), 400, "{reply}");
    assert!(body_of(&reply).contains("\"kind\":\"too-many-instances\""), "{reply}");

    handle.shutdown();
    runner.join().expect("server joins cleanly");
}

#[test]
fn a_heavy_tenant_cannot_starve_a_light_one() {
    let (addr, handle, runner) = start_server();

    // Baseline: tenant `fast` solve latency with an idle service.
    let mut baseline = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let reply = post(addr, "/solve", Some("fast"), SMALL_SOLVE);
        assert_eq!(status_of(&reply), 200);
        baseline.push(started.elapsed());
    }
    baseline.sort();
    let baseline_median = baseline[baseline.len() / 2];

    // Tenant `slow` (1 thread) starts a batch that would run for many
    // seconds; its sweep stays pinned to its own dedicated pool.
    let held = send_batch_without_reading(addr, "slow-key", HUGE_BATCH);
    wait_for_queue_depth(addr, "slow", 1);

    // Tenant `fast` keeps its latency while `slow` burns its budget:
    // bounded by a generous absolute cap AND a factor of the baseline.
    let mut during = Vec::new();
    for _ in 0..10 {
        let started = Instant::now();
        let reply = post(addr, "/solve", Some("fast"), SMALL_SOLVE);
        assert_eq!(status_of(&reply), 200, "{reply}");
        during.push(started.elapsed());
    }
    during.sort();
    let during_median = during[during.len() / 2];
    let bound = Duration::from_secs(2).max(baseline_median * 100);
    assert!(
        during_median < bound,
        "fast tenant latency degraded beyond the bound: {baseline_median:?} -> {during_median:?}"
    );
    // The heavy sweep really was still in flight while fast solved.
    let metrics = Json::parse(&body_of(&get(addr, "/metrics"))).unwrap();
    let depth = metrics
        .get("tenants")
        .and_then(|t| t.get("slow"))
        .and_then(|t| t.get("queue_depth"))
        .and_then(Json::as_i64)
        .unwrap();
    assert_eq!(depth, 1, "slow's batch must still be running for the comparison to mean anything");

    // Cancelling the heavy request (client disconnect) frees its budget.
    drop(held);
    wait_for_queue_depth(addr, "slow", 0);

    handle.shutdown();
    runner.join().expect("server joins cleanly");
}

#[test]
fn streamed_batches_deliver_ndjson_lines_and_a_summary() {
    let (addr, handle, runner) = start_server();

    let reply = post(
        addr,
        "/batch",
        Some("fast"),
        r#"{"generate": {"kind": "chain", "count": 100, "size": 3, "tasks": 5}, "stream": true}"#,
    );
    assert_eq!(status_of(&reply), 200, "{reply}");
    assert!(reply.contains("Transfer-Encoding: chunked"), "{reply}");
    assert!(reply.contains("Content-Type: application/x-ndjson"), "{reply}");
    // De-frame the chunked body, then parse the NDJSON lines.
    let body = body_of(&reply);
    let payload: String = body
        .split("\r\n")
        .filter(|part| !part.is_empty() && !part.chars().all(|c| c.is_ascii_hexdigit()))
        .collect();
    let lines: Vec<Json> =
        payload.lines().map(|l| Json::parse(l).expect("NDJSON line parses")).collect();
    assert_eq!(lines.len(), 101, "100 instance lines + 1 summary line");
    for (i, line) in lines[..100].iter().enumerate() {
        assert_eq!(line.get("index").and_then(Json::as_i64), Some(i as i64));
        assert!(line.get("makespan").is_some(), "line {i} carries a solution: {line}");
    }
    let summary = lines[100].get("summary").expect("final summary line");
    assert_eq!(summary.get("solved").and_then(Json::as_i64), Some(100));
    assert_eq!(summary.get("complete").and_then(Json::as_bool), Some(true));

    handle.shutdown();
    runner.join().expect("server joins cleanly");
}

#[test]
fn rate_limits_answer_429_with_an_accurate_retry_after() {
    let (addr, handle, runner) = start_server();

    // The bucket starts full: the whole 3-request window allowance may
    // burst immediately.
    for i in 0..3 {
        let reply = post(addr, "/solve", Some("metered"), SMALL_SOLVE);
        assert_eq!(status_of(&reply), 200, "burst request {i}: {reply}");
    }

    // The fourth request is refused with the computed Retry-After: one
    // token regrows in window/requests = 20s (the handful of seconds
    // the burst itself took may already have refilled part of it).
    let reply = post(addr, "/solve", Some("metered"), SMALL_SOLVE);
    assert_eq!(status_of(&reply), 429, "{reply}");
    assert!(body_of(&reply).contains("\"kind\":\"rate-limited\""), "{reply}");
    let retry_after: u64 = reply
        .lines()
        .find_map(|l| l.strip_prefix("Retry-After: "))
        .expect("a rate-limited refusal carries Retry-After")
        .trim()
        .parse()
        .expect("Retry-After is an integer");
    assert!((1..=20).contains(&retry_after), "Retry-After = {retry_after}");

    // The rate limit is per tenant: others are unaffected, and the
    // refusal shows in the tenant's /metrics counters.
    let reply = post(addr, "/solve", Some("fast"), SMALL_SOLVE);
    assert_eq!(status_of(&reply), 200, "{reply}");
    let metrics = Json::parse(&body_of(&get(addr, "/metrics"))).unwrap();
    let metered = metrics.get("tenants").and_then(|t| t.get("metered")).expect("metered metrics");
    assert!(metered.get("rate_limited_total").and_then(Json::as_i64).unwrap() >= 1);
    assert_eq!(
        metrics
            .get("tenants")
            .and_then(|t| t.get("fast"))
            .and_then(|t| t.get("rate_limited_total"))
            .and_then(Json::as_i64),
        Some(0),
        "rate refusals are per tenant"
    );

    // /tenants surfaces the configured limit (but no token values).
    let tenants = body_of(&get(addr, "/tenants"));
    assert!(tenants.contains("\"requests_per_window\":3"), "{tenants}");
    assert!(tenants.contains("\"window_ms\":60000"), "{tenants}");

    handle.shutdown();
    runner.join().expect("server joins cleanly");
}

#[test]
fn token_routing_rejects_unknown_and_ambiguous_selectors() {
    let (addr, handle, runner) = start_server();

    let reply = post(addr, "/solve", Some("no-such-token"), SMALL_SOLVE);
    assert_eq!(status_of(&reply), 401, "{reply}");
    assert!(body_of(&reply).contains("\"kind\":\"unknown-token\""), "{reply}");

    // A token plus a "registry" body selector is ambiguous.
    let reply = post(
        addr,
        "/solve",
        Some("fast"),
        r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5, "registry": "slow"}"#,
    );
    assert_eq!(status_of(&reply), 400, "{reply}");
    assert!(body_of(&reply).contains("\"kind\":\"conflicting-selectors\""), "{reply}");

    // Anonymous requests run as the default tenant; the legacy
    // "registry" selector still works for them.
    let reply = post(addr, "/solve", None, SMALL_SOLVE);
    assert_eq!(status_of(&reply), 200, "{reply}");

    // /tenants lists the resolved policies without leaking tokens.
    let reply = get(addr, "/tenants");
    assert_eq!(status_of(&reply), 200);
    let body = body_of(&reply);
    assert!(body.contains("\"name\":\"slow\""), "{body}");
    assert!(!body.contains("slow-key"), "token values must not be echoed: {body}");

    handle.shutdown();
    runner.join().expect("server joins cleanly");
}

#[test]
fn noop_repairs_count_no_cache_miss_and_solve_totals_sum_over_tenants() {
    let (addr, handle, runner) = start_server();
    let metrics = || Json::parse(&body_of(&get(addr, "/metrics"))).expect("metrics JSON");
    let default_misses = |metrics: &Json| {
        metrics
            .get("tenants")
            .and_then(|t| t.get("default"))
            .and_then(|t| t.get("cache_misses_total"))
            .and_then(Json::as_i64)
            .expect("default cache_misses_total")
    };

    // Both tasks finish on processors 1 and 2 long before processor 3
    // fails, so the repair has nothing left to look up or re-solve.
    let reply = post(
        addr,
        "/session",
        None,
        r#"{"op": "create", "platform": "chain\n1 1\n1 1\n50 50\n", "tasks": 2}"#,
    );
    assert_eq!(status_of(&reply), 200, "{reply}");
    let session = Json::parse(&body_of(&reply))
        .ok()
        .and_then(|j| j.get("session").and_then(Json::as_i64))
        .expect("session id");
    let misses = default_misses(&metrics());
    let reply = post(
        addr,
        "/session",
        None,
        &format!(r#"{{"op": "fail", "session": {session}, "processor": 3, "at": 1000}}"#),
    );
    assert_eq!(status_of(&reply), 200, "{reply}");
    assert!(body_of(&reply).contains("\"event_remaining\":0"), "{reply}");
    assert_eq!(default_misses(&metrics()), misses, "a repair without a lookup counts no miss");

    // /solve, /batch and /session traffic on several tenants.
    for token in [None, Some("fast")] {
        assert_eq!(status_of(&post(addr, "/solve", token, SMALL_SOLVE)), 200);
        let sweep = r#"{"generate": {"kind": "spider", "count": 20, "size": 3, "tasks": 6}}"#;
        assert_eq!(status_of(&post(addr, "/batch", token, sweep)), 200);
    }
    let reply = post(
        addr,
        "/session",
        Some("slow-key"),
        r#"{"op": "create", "platform": "chain\n2 3\n3 5\n", "tasks": 4}"#,
    );
    assert_eq!(status_of(&reply), 200, "{reply}");

    // The top-level solve counters are sums over the tenants.
    let metrics = metrics();
    let tenants = metrics.get("tenants").and_then(Json::as_obj).expect("tenant section");
    for key in ["solved_total", "failed_total", "cancelled_total"] {
        let sum: i64 = tenants
            .iter()
            .map(|(_, t)| t.get(key).and_then(Json::as_i64).expect("tenant counter"))
            .sum();
        assert_eq!(metrics.get(key).and_then(Json::as_i64), Some(sum), "{key}");
    }
    let solved = metrics.get("solved_total").and_then(Json::as_i64).expect("solved_total");
    assert!(solved > 0, "the traffic ran solvers");

    handle.shutdown();
    let report = runner.join().expect("server joins cleanly");
    assert_eq!(report.solved, solved as u64, "the serve report reads the same sum");
}
