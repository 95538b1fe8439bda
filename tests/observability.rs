//! End-to-end tests of the request-lifecycle observability surface:
//! every response carries an `X-Trace-Id`, `GET /trace?id=` replays the
//! span tree of a `/solve` with the full parse → queue → admit → cache
//! → solve → write lifecycle, `GET /trace/slow` ranks recent traces,
//! and `GET /metrics?format=prometheus` exposes deterministic
//! per-route / per-tenant / per-solver-kernel latency summaries,
//! sample for sample the members of the JSON `/metrics` document.

use master_slave_tasking::api::wire::Json;
use master_slave_tasking::prelude::*;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Binds a server on an ephemeral port and runs it on a background
/// thread; `registries` configures named tenants when given.
fn start_server(
    registries: Option<RegistrySet>,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        conn_threads: 8,
        registries,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

/// Sends one request, reads the whole reply, and splits it into
/// `(status, head, body)` so tests can assert on headers too.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(raw).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let reply = String::from_utf8_lossy(&reply).to_string();
    let status: u16 = reply
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {reply:?}"));
    let (head, body) = reply.split_once("\r\n\r\n").expect("response head");
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    raw_exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str, token: Option<&str>) -> (u16, String, String) {
    let auth = token.map(|t| format!("X-Api-Token: {t}\r\n")).unwrap_or_default();
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n{auth}Content-Length: {}\r\n\r\n\
         {body}",
        body.len()
    );
    raw_exchange(addr, raw.as_bytes())
}

/// A response header's value, case-insensitively.
fn header(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim().to_string())
    })
}

const SOLVE_BODY: &str = "{\"platform\": \"chain\\n2 3\\n3 5\\n\", \"tasks\": 5}";

/// Fetches a trace by id, retrying briefly: the server finishes the
/// trace bookkeeping right after pushing the response bytes, so a
/// fast client can race it by a few microseconds.
fn fetch_finished_trace(addr: SocketAddr, id: &str) -> Json {
    for _ in 0..100 {
        let (status, _, body) = get(addr, &format!("/trace?id={id}"));
        if status == 200 {
            let trace = Json::parse(&body).expect("trace JSON parses");
            if trace.get("finished").and_then(Json::as_bool) == Some(true) {
                return trace;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("trace {id} never finished");
}

#[test]
fn solve_traces_replay_the_full_request_lifecycle() {
    let (addr, handle, runner) = start_server(None);

    let (status, head, _) = post(addr, "/solve", SOLVE_BODY, None);
    assert_eq!(status, 200);
    let id = header(&head, "X-Trace-Id").expect("solve response carries X-Trace-Id");

    let trace = fetch_finished_trace(addr, &id);
    assert_eq!(trace.get("route").and_then(Json::as_str), Some("/solve"));
    assert_eq!(trace.get("status").and_then(Json::as_i64), Some(200));
    let total_ns = trace.get("total_ns").and_then(Json::as_i64).expect("total_ns");
    assert!(total_ns > 0, "{trace:?}");
    let sequential_ns = trace.get("sequential_ns").and_then(Json::as_i64).expect("sequential_ns");
    assert!(
        sequential_ns <= total_ns,
        "stage durations ({sequential_ns}ns) must fit inside the wall time ({total_ns}ns)"
    );

    let spans = trace.get("spans").and_then(Json::as_arr).expect("span list").to_vec();
    let duration_of = |stage: &str| -> Option<i64> {
        spans.iter().find_map(|span| {
            (span.get("stage")?.as_str()? == stage).then(|| span.get("dur_ns")?.as_i64())?
        })
    };
    // The acceptance lifecycle: every stage present with real duration.
    for stage in ["parse", "queue", "admit", "cache", "solve", "write"] {
        let dur = duration_of(stage)
            .unwrap_or_else(|| panic!("stage {stage} missing from trace: {trace:?}"));
        assert!(dur > 0, "stage {stage} has zero duration: {trace:?}");
    }

    // An uncached repeat of the same instance hits the solution cache:
    // its trace still has a cache stage but no solve stage.
    let (status, head, _) = post(addr, "/solve", SOLVE_BODY, None);
    assert_eq!(status, 200);
    let id = header(&head, "X-Trace-Id").expect("X-Trace-Id");
    let cached = fetch_finished_trace(addr, &id);
    assert_eq!(cached.get("cached").and_then(Json::as_bool), Some(true), "{cached:?}");

    // Unknown and malformed ids answer structured errors, not panics.
    let (status, _, _) = get(addr, "/trace?id=18446744073709551615");
    assert_eq!(status, 404);
    let (status, _, _) = get(addr, "/trace?id=not-a-number");
    assert_eq!(status, 400);

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn trace_slow_ranks_recent_requests_by_wall_time() {
    let (addr, handle, runner) = start_server(None);

    for tasks in 3..9 {
        let body = format!("{{\"platform\": \"chain\\n2 3\\n3 5\\n\", \"tasks\": {tasks}}}");
        let (status, _, _) = post(addr, "/solve", &body, None);
        assert_eq!(status, 200);
    }

    let (status, _, body) = get(addr, "/trace/slow?limit=4");
    assert_eq!(status, 200, "{body}");
    let listing = Json::parse(&body).expect("slow listing parses");
    let traces = listing.get("traces").and_then(Json::as_arr).expect("traces array").to_vec();
    assert!(!traces.is_empty(), "{body}");
    assert!(traces.len() <= 4, "limit respected: {body}");
    let totals: Vec<i64> =
        traces.iter().map(|t| t.get("total_ns").and_then(Json::as_i64).unwrap()).collect();
    assert!(totals.windows(2).all(|w| w[0] >= w[1]), "slowest first: {totals:?}");

    handle.shutdown();
    runner.join().unwrap();
}

/// The label part of every Prometheus sample line of one family, in
/// exposition order.
fn family_labels(text: &str, family: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(family)?;
            let rest = rest.strip_prefix('{')?;
            Some(rest.split_once('}')?.0.to_string())
        })
        .collect()
}

/// The Prometheus samples a JSON metrics document maps to, keyed
/// `name{labels}`, by the three rules of `mst_serve::metrics`: a
/// top-level number or bool `X` is `mst_X`; `tenants.<T>.X` is
/// `mst_tenant_X{tenant="T"}`; a summary family `F` is an array of rows
/// whose strings are labels, whose `p50`/`p99`/`p999`/`max` are
/// `mst_F{labels,quantile=...}` and whose other numbers `N` are
/// `mst_F_N{labels}`.
fn expected_samples(document: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (key, value) in document.as_obj().expect("the metrics document is an object") {
        match value {
            Json::Num(n) => {
                out.insert(format!("mst_{key}"), *n);
            }
            Json::Bool(b) => {
                out.insert(format!("mst_{key}"), if *b { 1.0 } else { 0.0 });
            }
            Json::Obj(tenants) => {
                for (tenant, members) in tenants {
                    for (name, value) in members.as_obj().expect("a tenant is an object") {
                        let value = value
                            .as_f64()
                            .unwrap_or_else(|| panic!("tenants.{tenant}.{name} is no number"));
                        out.insert(format!("mst_tenant_{name}{{tenant=\"{tenant}\"}}"), value);
                    }
                }
            }
            Json::Arr(rows) => {
                for row in rows {
                    let members = row.as_obj().expect("a summary row is an object");
                    let labels: Vec<String> = members
                        .iter()
                        .filter_map(|(k, v)| Some(format!("{k}=\"{}\"", v.as_str()?)))
                        .collect();
                    let labels = labels.join(",");
                    for (name, value) in members {
                        let Some(value) = value.as_f64() else { continue };
                        let sample = match name.as_str() {
                            "p50" => format!("mst_{key}{{{labels},quantile=\"0.5\"}}"),
                            "p99" => format!("mst_{key}{{{labels},quantile=\"0.99\"}}"),
                            "p999" => format!("mst_{key}{{{labels},quantile=\"0.999\"}}"),
                            "max" => format!("mst_{key}{{{labels},quantile=\"1\"}}"),
                            _ => format!("mst_{key}_{name}{{{labels}}}"),
                        };
                        out.insert(sample, value);
                    }
                }
            }
            other => panic!("{key} = {other:?} has no Prometheus shape"),
        }
    }
    out
}

/// Every sample of a Prometheus text exposition, keyed `name{labels}`.
fn exposition_samples(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .map(|line| {
            let (sample, value) = line.rsplit_once(' ').expect("a sample line");
            (sample.to_string(), value.parse().expect("a numeric sample"))
        })
        .collect()
}

#[test]
fn prometheus_exposition_is_deterministic_and_mirrors_the_json() {
    let (addr, handle, runner) = start_server(None);

    let (status, _, _) = post(addr, "/solve", SOLVE_BODY, None);
    assert_eq!(status, 200);
    let (status, _, _) = post(
        addr,
        "/batch",
        "{\"generate\": {\"kind\": \"chain\", \"count\": 4, \"size\": 3, \"tasks\": 5}}",
        None,
    );
    assert_eq!(status, 200);

    // The default /metrics is the JSON document CI greps. This first
    // scrape also gives the /metrics route its own latency row.
    let (status, head, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(header(&head, "Content-Type").unwrap().contains("application/json"), "{head}");
    let json = Json::parse(&body).expect("JSON metrics parse");
    assert!(json.get("requests_total").is_some(), "{body}");

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let json = Json::parse(&body).expect("JSON metrics parse");
    let (status, head, first) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    assert!(header(&head, "Content-Type").unwrap().contains("text/plain"), "{head}");
    let (status, _, second) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);

    // One list, two renderers: every JSON member has its Prometheus
    // sample and every sample has its JSON member.
    let expected = expected_samples(&json);
    let actual = exposition_samples(&first);
    let missing: Vec<_> = expected.keys().filter(|k| !actual.contains_key(*k)).collect();
    assert!(missing.is_empty(), "JSON members without a sample: {missing:?}\n{first}");
    let extra: Vec<_> = actual.keys().filter(|k| !expected.contains_key(*k)).collect();
    assert!(extra.is_empty(), "samples without a JSON member: {extra:?}\n{body}");
    // Counters that do not move between the two scrapes agree.
    for sample in [
        "mst_solved_total",
        "mst_tenant_cache_hits_total{tenant=\"default\"}",
        "mst_tenant_cache_misses_total{tenant=\"default\"}",
        "mst_tenant_store_records{tenant=\"default\"}",
        "mst_tenant_cache_entries{tenant=\"default\"}",
        "mst_tenant_cache_bytes{tenant=\"default\"}",
    ] {
        assert_eq!(expected[sample], actual[sample], "{sample}");
    }
    assert!(expected["mst_solved_total"] >= 1.0, "the /solve ran a solver");
    assert!(
        expected["mst_tenant_cache_bytes{tenant=\"default\"}"] > 0.0,
        "the cache counts the packed bytes of its entries"
    );

    for text in [&first, &second] {
        assert!(
            text.contains("mst_route_latency_us{route=\"/solve\",quantile=\"0.5\"}"),
            "missing /solve latency summary:\n{text}"
        );
        assert!(
            text.contains("mst_kernel_latency_us{kernel=\"solve\""),
            "missing solve-kernel summary:\n{text}"
        );
        assert!(text.contains("mst_requests_total"), "{text}");

        // Determinism satellite: route keys appear sorted, every scrape.
        let routes: Vec<String> = family_labels(text, "mst_route_latency_us_count")
            .iter()
            .map(|labels| labels.split('"').nth(1).unwrap().to_string())
            .collect();
        let mut sorted = routes.clone();
        sorted.sort();
        assert_eq!(routes, sorted, "route keys must be sorted:\n{text}");
    }
    // The second scrape extends the first's series (the /metrics route
    // itself got a sample) without reshuffling anything else.
    let first_series = family_labels(&first, "mst_route_latency_us_count");
    let second_series = family_labels(&second, "mst_route_latency_us_count");
    let mut remaining = second_series.iter();
    for series in &first_series {
        assert!(
            remaining.any(|s| s == series),
            "series {series} vanished or moved between scrapes"
        );
    }

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn tenant_tokens_light_up_per_tenant_histograms() {
    let registries = RegistrySet::parse(
        r#"{
            "registries": {
                "acme": {"threads": 2, "token": "acme-key"},
                "zeta": {"threads": 2}
            }
        }"#,
    )
    .expect("tenant config parses");
    let (addr, handle, runner) = start_server(Some(registries));

    let (status, _, _) = post(addr, "/solve", SOLVE_BODY, Some("acme-key"));
    assert_eq!(status, 200);
    // zeta's effective token defaults to its name.
    let (status, _, _) = post(addr, "/solve", SOLVE_BODY, Some("zeta"));
    assert_eq!(status, 200);

    let (status, _, text) = get(addr, "/metrics?format=prometheus");
    assert_eq!(status, 200);
    for tenant in ["acme", "zeta"] {
        assert!(
            text.contains(&format!(
                "mst_tenant_latency_us{{tenant=\"{tenant}\",quantile=\"0.5\"}}"
            )),
            "missing {tenant} latency summary:\n{text}"
        );
        assert!(
            text.contains(&format!("mst_tenant_requests_total{{tenant=\"{tenant}\"}}")),
            "missing {tenant} request counter:\n{text}"
        );
    }
    // Tenant label blocks appear in sorted tenant order.
    let tenants: Vec<String> = family_labels(&text, "mst_tenant_requests_total")
        .iter()
        .map(|labels| labels.split('"').nth(1).unwrap().to_string())
        .collect();
    let mut sorted = tenants.clone();
    sorted.sort();
    assert_eq!(tenants, sorted, "tenant keys must be sorted:\n{text}");

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn every_response_carries_a_trace_id_even_on_errors() {
    let (addr, handle, runner) = start_server(None);

    let (status, head, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(header(&head, "X-Trace-Id").is_some(), "{head}");

    let (status, head, _) = get(addr, "/definitely-not-a-route");
    assert_eq!(status, 404);
    assert!(header(&head, "X-Trace-Id").is_some(), "{head}");

    let (status, head, _) = post(addr, "/solve", "{not json", None);
    assert_eq!(status, 400);
    assert!(header(&head, "X-Trace-Id").is_some(), "{head}");

    handle.shutdown();
    runner.join().unwrap();
}
