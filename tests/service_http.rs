//! End-to-end tests of the `mst-serve` HTTP front-end over real
//! `TcpStream`s: wire-layer robustness (malformed, truncated and
//! oversized bodies answer structured 4xx — never a panic or a hang),
//! solver parity with the direct `Batch` path under 32 concurrent
//! clients, and graceful shutdown that leaves no stuck threads.

use master_slave_tasking::api::wire::{instance_to_json, solution_to_json, Json};
use master_slave_tasking::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Binds a server on an ephemeral port and runs it on a background
/// thread. Returns the address, the shutdown handle and the runner.
fn start_server() -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        conn_threads: 8,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

/// Sends raw bytes, returns `(status, body)`. The read timeout
/// guarantees these tests fail loudly instead of hanging when the
/// server stops responding.
fn raw_request(addr: SocketAddr, raw: &[u8], half_close: bool) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(raw).expect("send request");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let reply = String::from_utf8_lossy(&reply).to_string();
    let status: u16 = reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {reply:?}"));
    let body = reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        false,
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    raw_request(addr, raw.as_bytes(), false)
}

/// The `error.kind` field of a structured error body.
fn error_kind_of(body: &str) -> String {
    Json::parse(body)
        .ok()
        .and_then(|j| j.get("error")?.get("kind")?.as_str().map(String::from))
        .unwrap_or_else(|| panic!("no error kind in {body:?}"))
}

#[test]
fn read_endpoints_round_trip() {
    let (addr, handle, runner) = start_server();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    let (status, body) = get(addr, "/solvers");
    assert_eq!(status, 200);
    let solvers = Json::parse(&body).unwrap();
    let names: Vec<String> = solvers
        .get("solvers")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    assert_eq!(names, SolverRegistry::global().names(), "registry listing must match");

    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).unwrap();
    for key in ["uptime_secs", "requests_total", "solved_total", "pool_workers"] {
        assert!(metrics.get(key).is_some(), "missing {key} in {body}");
    }

    let (status, body) = get(addr, "/");
    assert_eq!(status, 200);
    assert!(body.contains("mst-serve"), "{body}");

    // Unknown paths and wrong methods answer structured errors.
    let (status, body) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert_eq!(error_kind_of(&body), "not-found");
    let (status, body) = post(addr, "/healthz", "{}");
    assert_eq!(status, 405);
    assert_eq!(error_kind_of(&body), "method-not-allowed");

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn solve_round_trip_matches_the_direct_path_and_verifies() {
    let (addr, handle, runner) = start_server();
    let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);

    let mut request = match instance_to_json(&instance) {
        Json::Obj(members) => members,
        _ => unreachable!(),
    };
    request.push(("verify".to_string(), Json::Bool(true)));
    let (status, body) = post(addr, "/solve", &Json::Obj(request).to_string());
    assert_eq!(status, 200, "{body}");

    let reply = Json::parse(&body).unwrap();
    assert_eq!(reply.get("makespan").and_then(Json::as_i64), Some(14));
    assert_eq!(reply.get("scheduled").and_then(Json::as_i64), Some(5));
    assert_eq!(reply.get("feasible").and_then(Json::as_bool), Some(true));

    // Everything except the appended verification flag must be exactly
    // the wire encoding of the direct library solve.
    let direct = SolverRegistry::global().solve("optimal", &instance).unwrap();
    let mut members = match reply {
        Json::Obj(members) => members,
        _ => panic!("object expected"),
    };
    assert_eq!(members.pop().map(|(k, _)| k), Some("feasible".to_string()));
    assert_eq!(Json::Obj(members), solution_to_json(&direct));

    // The deadline (T_lim) variant rides the same endpoint.
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 9, "deadline": 14, "verify": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    assert_eq!(reply.get("scheduled").and_then(Json::as_i64), Some(5));
    assert!(reply.get("makespan").and_then(Json::as_i64).unwrap() <= 14);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn wire_layer_rejects_bad_bodies_with_structured_4xx() {
    let (addr, handle, runner) = start_server();

    // Not JSON at all.
    let (status, body) = post(addr, "/solve", "{{{never json");
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind_of(&body), "bad-json");

    // Valid JSON, not a valid instance.
    for bad in [
        "{}",
        r#"{"platform": 7, "tasks": 3}"#,
        r#"{"platform": "chain\n2 3\n", "tasks": 0}"#,
        r#"{"platform": "ring\n2 3\n", "tasks": 3}"#,
        r#"{"platform": "chain\n2 3\n"}"#,
    ] {
        let (status, body) = post(addr, "/solve", bad);
        assert_eq!(status, 400, "{bad} -> {body}");
        assert_eq!(error_kind_of(&body), "bad-instance", "{bad}");
    }

    // Unknown solver names are a structured 404.
    let (status, body) =
        post(addr, "/solve", r#"{"platform": "chain\n2 3\n", "tasks": 3, "solver": "nope"}"#);
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind_of(&body), "unknown-solver");

    // Wrongly-typed option fields.
    let (status, body) =
        post(addr, "/solve", r#"{"platform": "chain\n2 3\n", "tasks": 3, "deadline": -4}"#);
    assert_eq!(status, 400);
    assert_eq!(error_kind_of(&body), "bad-request", "{body}");

    // Resource caps: a bare number must not buy unbounded work. The
    // default config caps tasks per instance and generated platform
    // sizes; exceeding either is a structured 400, not an allocation.
    let (status, body) =
        post(addr, "/solve", r#"{"platform": "chain\n2 3\n", "tasks": 100000000000}"#);
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind_of(&body), "too-many-tasks");
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"generate": {"kind": "chain", "count": 1, "size": 100000000000}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind_of(&body), "too-many-processors");
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"generate": {"kind": "chain", "count": 1, "tasks": 100000000000}}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind_of(&body), "too-many-tasks");
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"instances": [{"platform": "chain\n2 3\n", "tasks": 100000000000}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind_of(&body), "too-many-tasks");

    // A declared body that never arrives: truncated, answered 400, no
    // hang (the request helper enforces a read timeout).
    let (status, body) =
        raw_request(addr, b"POST /solve HTTP/1.1\r\nContent-Length: 400\r\n\r\n{\"plat", true);
    assert_eq!(status, 400, "{body}");

    // A body bigger than the cap is refused up front.
    let (status, body) =
        raw_request(addr, b"POST /solve HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", true);
    assert_eq!(status, 413, "{body}");

    // Empty and non-HTTP requests answer 400 instead of wedging a
    // handler thread.
    let (status, _) = raw_request(addr, b"\r\n\r\n", true);
    assert_eq!(status, 400);
    let (status, _) = raw_request(addr, b"FROB / SPDY/3\r\n\r\n", true);
    assert_eq!(status, 400);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn batch_endpoint_sweeps_generates_and_verifies() {
    let (addr, handle, runner) = start_server();

    let (status, body) = post(
        addr,
        "/batch",
        r#"{"generate": {"kind": "chain", "count": 64, "size": 3, "tasks": 6},
            "verify": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    assert_eq!(reply.get("count").and_then(Json::as_i64), Some(64));
    assert_eq!(reply.get("solved").and_then(Json::as_i64), Some(64));
    assert_eq!(reply.get("failed").and_then(Json::as_i64), Some(0));
    assert_eq!(reply.get("infeasible").and_then(Json::as_i64), Some(0));
    assert_eq!(reply.get("verified").and_then(Json::as_bool), Some(true));
    assert!(reply.get("results").is_none(), "results only on request");

    // Explicit instance lists with results; entries match direct solves.
    let fig2 = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);
    let body_json = Json::obj([
        ("instances", Json::Arr(vec![instance_to_json(&fig2)])),
        ("include_results", Json::Bool(true)),
    ]);
    let (status, body) = post(addr, "/batch", &body_json.to_string());
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    let results = reply.get("results").unwrap().as_arr().unwrap();
    let direct = SolverRegistry::global().solve("optimal", &fig2).unwrap();
    assert_eq!(results, [solution_to_json(&direct)]);

    // Caps and bad specs are structured 400s.
    let (status, body) =
        post(addr, "/batch", r#"{"generate": {"kind": "chain", "count": 999999999}}"#);
    assert_eq!(status, 400);
    assert_eq!(error_kind_of(&body), "too-many-instances");
    for bad in [
        r#"{"generate": {"kind": "ring", "count": 2}}"#,
        r#"{"generate": {"kind": "chain", "count": 0}}"#,
        r#"{"generate": {"kind": "chain", "count": 2, "profile": "alien"}}"#,
        r#"{"generate": {"count": 2}}"#,
        r#"{"instances": 3}"#,
        r#"{}"#,
    ] {
        let (status, _) = post(addr, "/batch", bad);
        assert_eq!(status, 400, "{bad}");
    }
    let (status, body) =
        post(addr, "/batch", r#"{"generate": {"kind": "chain", "count": 2}, "solver": "nope"}"#);
    assert_eq!(status, 404);
    assert_eq!(error_kind_of(&body), "unknown-solver");

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn thirty_two_concurrent_clients_match_direct_batch_results() {
    let (addr, handle, runner) = start_server();

    // A mixed fleet, solved directly through the library Batch engine...
    let instances: Vec<Instance> = (0..32)
        .map(|seed| {
            let kind = TopologyKind::ALL[(seed % 3) as usize];
            Instance::generate(
                kind,
                HeterogeneityProfile::ALL[(seed % 5) as usize],
                seed,
                1 + (seed % 4) as usize,
                1 + (seed % 6) as usize,
            )
        })
        .collect();
    let direct = Batch::default().solve_all(&instances);

    // ...and concurrently over HTTP by 32 clients, one instance each.
    std::thread::scope(|scope| {
        let handles: Vec<_> = instances
            .iter()
            .zip(&direct)
            .map(|(instance, expected)| {
                scope.spawn(move || {
                    let mut request = match instance_to_json(instance) {
                        Json::Obj(members) => members,
                        _ => unreachable!(),
                    };
                    request.push(("verify".to_string(), Json::Bool(true)));
                    let (status, body) = post(addr, "/solve", &Json::Obj(request).to_string());
                    assert_eq!(status, 200, "{instance}: {body}");
                    let mut members = match Json::parse(&body).unwrap() {
                        Json::Obj(members) => members,
                        _ => panic!("object expected"),
                    };
                    assert_eq!(members.pop().map(|(k, _)| k), Some("feasible".to_string()));
                    let expected = expected.as_ref().expect("fleet solves cleanly");
                    // The service solves the *canonical* form of the
                    // instance (the solution-cache key) and restores it,
                    // so tie-breaks may legitimately differ from a
                    // direct solve of the raw instance. The contract is
                    // semantic: same optimal makespan, same task count,
                    // and a witness the oracle accepted against the
                    // original instance (the "feasible" flag above).
                    let served = Json::Obj(members);
                    assert_eq!(
                        served.get("makespan").and_then(Json::as_i64),
                        Some(expected.makespan()),
                        "served makespan diverges from the direct Batch result for {instance}"
                    );
                    assert_eq!(
                        served.get("scheduled").and_then(Json::as_i64),
                        Some(expected.n() as i64),
                        "served task count diverges from the direct Batch result for {instance}"
                    );
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });

    // The metrics saw all 32 solves.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).unwrap();
    assert!(metrics.get("solved_total").and_then(Json::as_i64).unwrap() >= 32, "{body}");

    handle.shutdown();
    let report = runner.join().unwrap();
    assert!(report.solved >= 32);
}

/// Reads exactly one HTTP response (headers + `Content-Length` body)
/// off a keep-alive stream.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("length header")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    (status, head, String::from_utf8_lossy(&body).to_string())
}

#[test]
fn keep_alive_stream_reuse_matches_fresh_connections() {
    let (addr, handle, runner) = start_server();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();

    // Three sequential solves over ONE TcpStream.
    let mut makespans = Vec::new();
    for tasks in [1, 3, 5] {
        let body = format!(r#"{{"platform": "chain\n2 3\n3 5\n", "tasks": {tasks}}}"#);
        write!(
            stream,
            "POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send over reused stream");
        let (status, head, body) = read_one_response(&mut stream);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("Connection: keep-alive"), "{head}");
        makespans.push(Json::parse(&body).unwrap().get("makespan").unwrap().as_i64().unwrap());
    }
    assert_eq!(makespans, vec![5, 10, 14], "reused connections solve like fresh ones");

    // An explicit close is honoured.
    write!(stream, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let (status, head, _) = read_one_response(&mut stream);
    assert_eq!(status, 200);
    assert!(head.contains("Connection: close"), "{head}");
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "server must close after Connection: close");

    handle.shutdown();
    let report = runner.join().unwrap();
    assert_eq!(report.connections, 1, "all four requests shared one connection");
    assert_eq!(report.requests, 4);
}

#[test]
fn per_request_registries_pin_tenant_solver_sets() {
    let config_text = r#"{
        "default": {"solvers": [{"solver": "random", "name": "random-7", "seed": 7}]},
        "registries": {
            "lean": {"base": "empty", "solvers": [
                {"solver": "optimal"},
                {"solver": "alias", "name": "best", "target": "optimal"}
            ]}
        }
    }"#;
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        registries: Some(RegistrySet::parse(config_text).expect("valid config")),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));

    // The default registry gained the configured overlay solver.
    let (status, body) = get(addr, "/solvers");
    assert_eq!(status, 200);
    let listing = Json::parse(&body).unwrap();
    let names: Vec<&str> = listing
        .get("solvers")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(names.contains(&"random-7"), "{names:?}");
    let registries = listing.get("registries").unwrap().as_arr().unwrap();
    assert_eq!(registries, [Json::str("lean")]);

    // The tenant view lists exactly its pinned set.
    let (status, body) = get(addr, "/solvers?registry=lean");
    assert_eq!(status, 200, "{body}");
    let listing = Json::parse(&body).unwrap();
    let names: Vec<&str> = listing
        .get("solvers")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, ["optimal", "best"]);

    // Solving through the tenant registry: aliases resolve...
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5, "solver": "best",
            "registry": "lean", "verify": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    assert_eq!(reply.get("makespan").and_then(Json::as_i64), Some(14));
    assert_eq!(reply.get("feasible").and_then(Json::as_bool), Some(true));

    // ...unpinned solvers do not exist for the tenant...
    let (status, body) = post(
        addr,
        "/solve",
        r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5, "solver": "eager", "registry": "lean"}"#,
    );
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind_of(&body), "unknown-solver");

    // ...but still exist in the default registry.
    let (status, _) =
        post(addr, "/solve", r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5, "solver": "eager"}"#);
    assert_eq!(status, 200);

    // Unknown registries are a structured 404, on /batch too.
    let (status, body) =
        post(addr, "/batch", r#"{"generate": {"kind": "chain", "count": 2}, "registry": "nope"}"#);
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind_of(&body), "unknown-registry");
    let (status, body) = get(addr, "/solvers?registry=nope");
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind_of(&body), "unknown-registry");

    // A tenant /batch sweep solves through the pinned set.
    let (status, body) = post(
        addr,
        "/batch",
        r#"{"generate": {"kind": "spider", "count": 16, "size": 3, "tasks": 5},
            "registry": "lean", "solver": "best", "verify": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    assert_eq!(reply.get("solved").and_then(Json::as_i64), Some(16));
    assert_eq!(reply.get("infeasible").and_then(Json::as_i64), Some(0));

    handle.shutdown();
    runner.join().unwrap();
}

/// A config whose `lean` tenant answers `optimal` with `master-only`,
/// so a lean answer can be told from the default one.
const LEAN_MASTER_ONLY: &str = r#"{
    "default": {"base": "defaults"},
    "registries": {"lean": {"base": "empty",
        "solvers": [{"solver": "master-only", "name": "optimal"}]}}
}"#;

/// A five-processor chain: `optimal` schedules its nine tasks by 12,
/// lean's `optimal` (master-only) by 19.
const NINE_ON_FIVE: &str = r#""platform": "chain\n1 2\n2 3\n1 1\n3 2\n2 2\n", "tasks": 9"#;

fn start_lean_server(
    store: &std::path::Path,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        registries: Some(RegistrySet::parse(LEAN_MASTER_ONLY).expect("valid config")),
        store_backend: Some(Arc::new(FileStore::open(store).expect("open the store"))),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

fn makespan_of(body: &str) -> Option<i64> {
    Json::parse(body).ok()?.get("makespan")?.as_i64()
}

#[test]
fn anonymous_registry_selectors_answer_from_their_own_tenant_cache_and_log() {
    let path =
        std::env::temp_dir().join(format!("mst-service-http-selector-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let plain = format!("{{{NINE_ON_FIVE}, \"verify\": true}}");
    let lean = format!("{{{NINE_ON_FIVE}, \"registry\": \"lean\"}}");

    let (addr, handle, runner) = start_lean_server(&path);
    let (status, body) = post(addr, "/solve", &lean);
    assert_eq!((status, makespan_of(&body)), (200, Some(19)), "{body}");
    // The lean answer must not leak into the default tenant's cache...
    let (status, body) = post(addr, "/solve", &plain);
    assert_eq!((status, makespan_of(&body)), (200, Some(12)), "{body}");
    assert!(!body.contains("\"cached\""), "the default cache holds no lean answer: {body}");
    assert!(body.contains("\"feasible\":true"), "{body}");
    let (status, body) = post(
        addr,
        "/batch",
        &format!("{{\"instances\": [{{{NINE_ON_FIVE}}}], \"include_results\": true}}"),
    );
    assert_eq!(status, 200, "{body}");
    let results =
        Json::parse(&body).unwrap().get("results").and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(results[0].get("makespan").and_then(Json::as_i64), Some(12), "{body}");
    // ...and the log files each answer under the tenant that made it.
    let (status, body) = get(addr, "/history");
    assert_eq!(status, 200, "{body}");
    let records =
        Json::parse(&body).unwrap().get("records").and_then(Json::as_arr).unwrap().to_vec();
    let listed: Vec<(String, String, i64)> = records
        .iter()
        .map(|r| {
            let text = |key: &str| r.get(key).and_then(Json::as_str).unwrap().to_string();
            (text("tenant"), text("solver"), r.get("makespan").and_then(Json::as_i64).unwrap())
        })
        .collect();
    assert_eq!(
        listed,
        [("default".into(), "optimal".into(), 12), ("lean".into(), "optimal".into(), 19)],
        "{body}"
    );
    handle.shutdown();
    runner.join().unwrap();

    // After a restart on the log, each cache warms with its own answers.
    let (addr, handle, runner) = start_lean_server(&path);
    let (status, body) = post(addr, "/solve", &plain);
    assert_eq!((status, makespan_of(&body)), (200, Some(12)), "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    let (status, body) = post(addr, "/solve", &lean);
    assert_eq!((status, makespan_of(&body)), (200, Some(19)), "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn sessions_refuse_the_registry_selector() {
    let path = std::env::temp_dir()
        .join(format!("mst-service-http-session-selector-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (addr, handle, runner) = start_lean_server(&path);
    let (status, body) = post(
        addr,
        "/session",
        &format!("{{\"op\": \"create\", {NINE_ON_FIVE}, \"registry\": \"lean\"}}"),
    );
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind_of(&body), "bad-request");
    assert!(body.contains("X-Api-Token"), "the refusal names the way to pick a tenant: {body}");
    let (_, health) = get(addr, "/healthz");
    assert!(health.contains("\"sessions_open\":0"), "{health}");
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn exact_tree_solves_serve_checkable_witnesses() {
    use master_slave_tasking::api::wire::tree_schedule_from_json;
    let (addr, handle, runner) = start_server();

    let (status, body) = post(
        addr,
        "/solve",
        r#"{"platform": "tree\nnode 0 1 9\nnode 1 1 3\nnode 1 1 3\n", "tasks": 5,
            "solver": "exact", "verify": true}"#,
    );
    assert_eq!(status, 200, "{body}");
    let reply = Json::parse(&body).unwrap();
    assert_eq!(reply.get("witnessed").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("feasible").and_then(Json::as_bool), Some(true));
    let schedule = reply.get("schedule").unwrap();
    assert_eq!(schedule.get("repr").and_then(Json::as_str), Some("tree"));
    // The served witness reconstructs losslessly and re-verifies
    // client-side against the platform.
    let decoded = tree_schedule_from_json(schedule).unwrap();
    let tree = mst_platform::Tree::from_triples(&[(0, 1, 9), (1, 1, 3), (1, 1, 3)]).unwrap();
    let report = mst_schedule::check_tree(&tree, &decoded);
    report.assert_feasible();
    assert_eq!(Some(report.makespan), reply.get("makespan").and_then(Json::as_i64));

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn graceful_shutdown_drains_and_joins_every_thread() {
    let (addr, handle, runner) = start_server();
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    handle.shutdown();
    // `run` only returns once the accept loop stopped and every handler
    // thread joined — a stuck thread would hang this join (and the
    // test harness would flag it), not leak silently.
    let report = runner.join().expect("no stuck threads");
    assert_eq!(report.connections, 1);
    assert_eq!(report.requests, 1);

    // A second shutdown is a no-op, and the handle stays usable.
    handle.shutdown();
    assert!(handle.state().shutdown_requested());
    assert_eq!(handle.addr(), addr);
}
