//! `mst chaos` — a seeded fault-injection harness for a **live**
//! `mst serve` instance.
//!
//! The harness turns a deterministic [`FaultPlan`] (`mst_sim::faults`)
//! into hostile client behaviour against a running server and asserts
//! the service's **availability invariants** after every action:
//!
//! * [`FaultKind::ProcessorDown`] → a full `/session` lifecycle with a
//!   posted processor-failure event: create, repair, close — repair
//!   must answer structurally even when the failure is unrepairable
//!   (`409 no-survivors`), never with a 5xx;
//! * [`FaultKind::StoreWriteFail`] → `/metrics` and `/healthz` probes:
//!   the store may be degraded, the *service* must say so in a
//!   well-formed body, not fail;
//! * [`FaultKind::ConnectionDrop`] → a connection is opened, half a
//!   request written, and the socket dropped mid-frame — the next
//!   request must be served as if nothing happened;
//! * [`FaultKind::WorkerPanic`] → poison pills: malformed JSON, bogus
//!   ops, unknown paths — every one must come back as a structured
//!   `{"error": {"kind", ...}}`, and none may kill the handler.
//!
//! Once per run, after the plan's laps so that every seed keeps its
//! schedule, a **burst** opens [`BURST_CONNECTIONS`] keep-alive
//! connections and writes `GET /healthz` on each before reading any
//! reply. A burst of that size is legal load: it must wait for the
//! dispatch threads, so any reply other than `200`, and any socket
//! dropped before its reply, is a violation. The report's
//! `burst_requests` counts the requests the burst wrote.
//!
//! After each action the harness re-probes `/healthz`; any unreachable
//! server, unparseable reply or 5xx (outside the documented
//! `infeasible-solution`/`internal-error` contract, which would itself
//! be a bug worth failing on) is recorded as a **violation**. The run
//! ends with a structured JSON report; any violation makes the command
//! exit non-zero with the same report on stderr — fail closed, so a CI
//! job cannot green-wash a flaky server.
//!
//! The kill-9-mid-sweep / warm-restart / torn-store-frame scenarios
//! need control of the server *process* and live in the CI chaos job
//! (see `.github/workflows/ci.yml`), which wraps two `mst chaos` runs
//! around a SIGKILL + restart of the same `--store` server.

use crate::loadgen::read_one_response;
use mst_sim::{FaultEvent, FaultKind, FaultPlan};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long any single request may take before the harness calls the
/// server unavailable.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Connections in the once-per-run burst, one request each.
const BURST_CONNECTIONS: usize = 512;

/// Counters and violations of one chaos run; rendered as JSON.
#[derive(Debug, Default)]
pub struct ChaosReport {
    seed: u64,
    elapsed_secs: f64,
    sessions_driven: u64,
    store_probes: u64,
    connections_dropped: u64,
    poison_pills: u64,
    health_checks: u64,
    burst_requests: u64,
    violations: Vec<String>,
}

impl ChaosReport {
    /// Whether the run finished without a single violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The structured report body (one JSON object, newline-terminated).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"chaos\": {{\"seed\": {}, \"elapsed_secs\": {:.3}, \
             \"sessions_driven\": {}, \"store_probes\": {}, \
             \"connections_dropped\": {}, \"poison_pills\": {}, \
             \"health_checks\": {}, \"burst_requests\": {}, \"violations\": [",
            self.seed,
            self.elapsed_secs,
            self.sessions_driven,
            self.store_probes,
            self.connections_dropped,
            self.poison_pills,
            self.health_checks,
            self.burst_requests,
        )
        .unwrap();
        for (i, violation) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "{}", mst_api::wire::quoted(violation)).unwrap();
        }
        writeln!(out, "], \"ok\": {}}}}}", self.violations.is_empty()).unwrap();
        out
    }
}

/// One raw HTTP exchange; `Err` is "server unavailable" (connect,
/// write or read failure — the invariant every action re-checks).
fn exchange(addr: SocketAddr, raw: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT)).map_err(|e| format!("timeout: {e}"))?;
    stream.write_all(raw.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply).map_err(|e| format!("read: {e}"))?;
    if reply.is_empty() {
        return Err("empty reply".into());
    }
    Ok(reply)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The reply's status code, when it parses as HTTP at all.
fn status_of(reply: &str) -> Option<u16> {
    reply.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

/// The availability invariant: `/healthz` answers `200` with a
/// parseable `"status"` of `ok` or `store_degraded` — degraded is
/// fine, silent or dead is not.
fn check_health(addr: SocketAddr, report: &mut ChaosReport, context: &str) {
    report.health_checks += 1;
    match exchange(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n") {
        Ok(reply) => {
            let healthy = status_of(&reply) == Some(200)
                && (reply.contains("\"status\":\"ok\"")
                    || reply.contains("\"status\":\"store_degraded\""));
            if !healthy {
                report
                    .violations
                    .push(format!("healthz unwell after {context}: {}", first_line(&reply)));
            }
        }
        Err(e) => report.violations.push(format!("healthz unreachable after {context}: {e}")),
    }
}

fn first_line(reply: &str) -> &str {
    reply.lines().next().unwrap_or("")
}

/// A well-formed request must be answered structurally: parseable
/// HTTP, a status below 500, and for errors a `{"error":{"kind"` body.
fn expect_structured(
    reply: Result<String, String>,
    what: &str,
    report: &mut ChaosReport,
) -> Option<String> {
    match reply {
        Ok(reply) => {
            let status = status_of(&reply);
            match status {
                Some(s) if s < 500 => {
                    if s >= 400 && !reply.contains("\"error\"") {
                        report.violations.push(format!(
                            "{what}: {s} without a structured error body: {}",
                            first_line(&reply)
                        ));
                    }
                    Some(reply)
                }
                Some(s) => {
                    report
                        .violations
                        .push(format!("{what}: server-side {s}: {}", first_line(&reply)));
                    None
                }
                None => {
                    report
                        .violations
                        .push(format!("{what}: unparseable reply: {}", first_line(&reply)));
                    None
                }
            }
        }
        Err(e) => {
            report.violations.push(format!("{what}: unavailable: {e}"));
            None
        }
    }
}

/// Extracts `"session":N` from a create reply.
fn session_id(reply: &str) -> Option<u64> {
    let at = reply.find("\"session\":")?;
    let digits: String =
        reply[at + "\"session\":".len()..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// `ProcessorDown` → a `/session` lifecycle: create on a 3-processor
/// chain, post the failure, close. An unrepairable failure (processor
/// 1 has no survivors) must still answer structurally (`409`).
fn drive_session(addr: SocketAddr, event: &FaultEvent, processor: usize, report: &mut ChaosReport) {
    report.sessions_driven += 1;
    let created = expect_structured(
        post(
            addr,
            "/session",
            r#"{"op": "create", "platform": "chain\n2 3\n3 5\n1 2\n", "tasks": 6}"#,
        ),
        "session create",
        report,
    );
    let Some(created) = created else { return };
    let Some(id) = session_id(&created) else {
        report.violations.push(format!("session create: no id in {}", first_line(&created)));
        return;
    };
    let fail_body = format!(
        "{{\"op\": \"fail\", \"session\": {id}, \"processor\": {processor}, \"at\": {}}}",
        event.at
    );
    expect_structured(post(addr, "/session", &fail_body), "session fail", report);
    expect_structured(
        post(addr, "/session", &format!("{{\"op\": \"close\", \"session\": {id}}}")),
        "session close",
        report,
    );
}

/// `StoreWriteFail` → the observability probes: `/metrics` and a solve
/// that would append a record. Degradation is allowed; opacity is not.
fn probe_store(addr: SocketAddr, salt: usize, report: &mut ChaosReport) {
    report.store_probes += 1;
    expect_structured(
        exchange(addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"),
        "metrics probe",
        report,
    );
    let body = format!("{{\"platform\": \"chain\\n2 3\\n3 5\\n\", \"tasks\": {}}}", 1 + salt % 32);
    expect_structured(post(addr, "/solve", &body), "store-path solve", report);
}

/// `ConnectionDrop` → half a request, then hang up mid-frame.
fn drop_connection(addr: SocketAddr, report: &mut ChaosReport) {
    report.connections_dropped += 1;
    if let Ok(mut stream) = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT) {
        // An incomplete head *and* a declared-but-missing body: the
        // reader must time the fragment out, not wedge the handler.
        let _ = stream.write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 512\r\n\r\n{\"pla");
        drop(stream);
    }
}

/// `WorkerPanic` → poison pills that historically crash naive servers.
fn poison(addr: SocketAddr, salt: u64, report: &mut ChaosReport) {
    report.poison_pills += 1;
    let pills: [(&str, String); 4] = [
        ("malformed json", "{\"platform\": \"chain".to_string()),
        ("bogus session op", format!("{{\"op\": \"explode\", \"session\": {salt}}}")),
        (
            "hostile numbers",
            "{\"platform\": \"chain\\n2 3\\n\", \"tasks\": -9223372036854775808}".to_string(),
        ),
        ("deep garbage", "[".repeat(64) + &"]".repeat(64)),
    ];
    let (name, body) = &pills[(salt % 4) as usize];
    let path = if salt.is_multiple_of(2) { "/solve" } else { "/session" };
    expect_structured(post(addr, path, body), &format!("poison ({name})"), report);
    // Unknown endpoints answer structured 404s, whatever the method.
    expect_structured(
        exchange(addr, "DELETE /no-such-endpoint HTTP/1.1\r\nConnection: close\r\n\r\n"),
        "poison (unknown endpoint)",
        report,
    );
}

/// The burst invariant (see the module docs): one violation per kind
/// of failure, with its count and its first connection.
fn burst(addr: SocketAddr, report: &mut ChaosReport) {
    let mut failures: BTreeMap<String, (usize, String)> = BTreeMap::new();
    let mut fail = |kind: String, detail: String| {
        failures.entry(kind).or_insert((0, detail)).0 += 1;
    };
    let mut open = Vec::with_capacity(BURST_CONNECTIONS);
    for conn in 0..BURST_CONNECTIONS {
        let sent = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT).and_then(|mut stream| {
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n")?;
            Ok(stream)
        });
        match sent {
            Ok(stream) => {
                report.burst_requests += 1;
                open.push((conn, stream));
            }
            Err(e) => fail("requests unsent".into(), format!("conn {conn}: {e}")),
        }
    }
    for (conn, mut stream) in open {
        match read_one_response(&mut stream) {
            Ok((200, ..)) => {}
            Ok((status, ..)) => fail(format!("replies were {status}"), format!("conn {conn}")),
            Err(e) => fail("sockets dropped".into(), format!("conn {conn}: {e}")),
        }
    }
    for (kind, (count, first)) in failures {
        report
            .violations
            .push(format!("burst: {count} of {BURST_CONNECTIONS} {kind} (first: {first})"));
    }
}

/// Runs the chaos sweep against `addr` for roughly `minutes`, cycling
/// a fresh seeded [`FaultPlan`] per lap. Returns the report; the
/// caller turns a violating report into a non-zero exit.
pub fn run_chaos(addr: &str, seed: u64, minutes: f64) -> ChaosReport {
    let mut report = ChaosReport { seed, ..ChaosReport::default() };
    let resolved: Vec<SocketAddr> = match addr.to_socket_addrs() {
        Ok(addrs) => addrs.collect(),
        Err(e) => {
            report.violations.push(format!("cannot resolve {addr}: {e}"));
            return report;
        }
    };
    let Some(addr) = resolved.first().copied() else {
        report.violations.push(format!("{addr} resolves to nothing"));
        return report;
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64((minutes * 60.0).max(1.0));
    check_health(addr, &mut report, "startup");
    let mut lap = 0u64;
    'laps: while Instant::now() < deadline {
        // A fresh deterministic plan each lap (seed ⊕ lap): the same
        // seed and duration replay the same hostile schedule.
        let plan = FaultPlan::seeded(seed ^ lap, 16, 3, 1_000);
        for event in plan.events() {
            if Instant::now() >= deadline {
                break 'laps;
            }
            match event.kind {
                FaultKind::ProcessorDown { processor } => {
                    drive_session(addr, event, processor, &mut report)
                }
                FaultKind::StoreWriteFail { writes } => probe_store(addr, writes, &mut report),
                FaultKind::ConnectionDrop => drop_connection(addr, &mut report),
                FaultKind::WorkerPanic => poison(addr, event.at as u64, &mut report),
            }
            check_health(addr, &mut report, &format!("{:?}", event.kind));
            // Fail closed *early* on a dead server: once unreachable,
            // further laps only repeat the same violation.
            if report.violations.len() > 32 {
                report.violations.push("aborting: too many violations".into());
                break 'laps;
            }
        }
        lap += 1;
    }
    // After the laps, so that their schedule and timing do not depend on
    // how long the burst takes.
    burst(addr, &mut report);
    check_health(addr, &mut report, "burst");
    report.elapsed_secs = started.elapsed().as_secs_f64();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_render_as_json_and_escape_violations() {
        let mut report = ChaosReport { seed: 7, ..ChaosReport::default() };
        report.violations.push("quote \" backslash \\ newline \n done".into());
        let json = report.to_json();
        assert!(json.contains("\"seed\": 7"), "{json}");
        assert!(json.contains("\"ok\": false"), "{json}");
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n done"), "{json}");
        report.violations.clear();
        assert!(report.to_json().contains("\"ok\": true"));
    }

    #[test]
    fn violations_quoting_control_characters_stay_valid_json() {
        use mst_api::wire::Json;
        let violation = "reply \"HTTP/1.1 500\r\n\tbody\u{1}\" at C:\\log";
        let report = ChaosReport { violations: vec![violation.into()], ..ChaosReport::default() };
        let json = Json::parse(&report.to_json()).expect("the report is valid JSON");
        let listed = json.get("chaos").and_then(|c| c.get("violations")).and_then(Json::as_arr);
        assert_eq!(listed.and_then(|v| v.first()).and_then(Json::as_str), Some(violation));
    }

    #[test]
    fn status_and_session_ids_parse_from_raw_replies() {
        assert_eq!(status_of("HTTP/1.1 200 OK\r\n"), Some(200));
        assert_eq!(status_of("HTTP/1.1 429 Too Many Requests\r\n"), Some(429));
        assert_eq!(status_of("garbage"), None);
        assert_eq!(session_id("{\"session\":42,\"tasks\":5}"), Some(42));
        assert_eq!(session_id("{\"tasks\":5}"), None);
    }

    #[test]
    fn an_unreachable_server_is_a_violation_not_a_hang() {
        // A port nothing listens on: the run must come back quickly
        // with violations, not blocking for the full duration.
        let report = run_chaos("127.0.0.1:1", 99, 10.0);
        assert!(!report.violations.is_empty());
        assert!(report.to_json().contains("\"ok\": false"));
    }

    #[test]
    fn a_live_server_survives_a_short_chaos_run_with_zero_violations() {
        let server = mst_serve::Server::bind(mst_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..mst_serve::ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));
        // minutes below the 1-second floor: one lap's worth of events.
        let report = run_chaos(&addr.to_string(), 2003, 0.0);
        assert!(
            report.violations.is_empty(),
            "chaos violations against a healthy server: {:?}",
            report.violations
        );
        assert!(report.sessions_driven + report.store_probes + report.poison_pills > 0);
        assert!(report.health_checks > 0);
        assert_eq!(report.burst_requests, BURST_CONNECTIONS as u64);
        assert!(report.to_json().contains("\"burst_requests\": 512,"));
        handle.shutdown();
        runner.join().expect("runner joins");
    }

    #[test]
    fn a_burst_the_server_refuses_is_a_violation() {
        // A connection cap below the burst: the connections past it are
        // refused (or reset), and the burst must say so.
        let server = mst_serve::Server::bind(mst_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 64,
            keep_alive_timeout: Duration::from_secs(30),
            ..mst_serve::ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));
        let mut report = ChaosReport::default();
        burst(addr, &mut report);
        assert!(!report.ok(), "a refused burst must be a violation");
        assert!(
            report.violations.iter().all(|v| v.starts_with("burst: ")),
            "{:?}",
            report.violations
        );
        handle.shutdown();
        runner.join().expect("runner joins");
    }
}
