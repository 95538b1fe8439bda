//! The canonical-form solution cache, end to end:
//!
//! * **soundness of canonicalization** — for every registered solver and
//!   every topology, solving the canonical instance and restoring the
//!   result (rescale + leg/node remap) yields the same makespan and
//!   task count as solving the instance directly, and the restored
//!   witness passes the [`verify`] oracle against the *original*
//!   instance — including degenerate scale factors (0 tasks, one
//!   processor) and the deadline (`T_lim`) path;
//! * **memoisation** — rescaled copies of one instance share a cache
//!   entry through [`mst_api::cache::solve_through`];
//! * **resolution** — the cache canonicalises for the solver a name
//!   resolves to, so a heuristic renamed `optimal` round-trips too, and a
//!   name the registry lacks answers 404 even when the log holds its
//!   record;
//! * **persistence** — a `--store` server killed and restarted serves
//!   its **first** repeated `/batch` with a full cache-hit rate, and
//!   `GET /history` returns the prior records.

use master_slave_tasking::api::cache::solve_through;
use master_slave_tasking::api::wire::Json;
use master_slave_tasking::prelude::*;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// The platform with every communication and work time multiplied by
/// `g` — an instance the canonicalizer must map back onto the original.
fn scale_platform(platform: &Platform, g: Time) -> Platform {
    let proc = |p: &Processor| Processor::new(p.comm * g, p.work * g).expect("positive times");
    match platform {
        Platform::Chain(chain) => {
            Chain::new(chain.processors().iter().map(proc).collect()).unwrap().into()
        }
        Platform::Fork(fork) => Fork::new(fork.slaves().iter().map(proc).collect()).unwrap().into(),
        Platform::Spider(spider) => Spider::new(
            spider
                .legs()
                .iter()
                .map(|leg| Chain::new(leg.processors().iter().map(proc).collect()).unwrap())
                .collect(),
        )
        .unwrap()
        .into(),
        Platform::Tree(tree) => Tree::from_triples(
            &(1..=tree.len())
                .map(|id| {
                    let node = tree.node(id);
                    (node.parent, node.comm * g, node.work * g)
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()
        .into(),
    }
}

/// Asserts the canonical-solve round trip for one (instance, solver,
/// deadline) triple in `registry`: through a cache that keeps nothing,
/// so [`solve_through`] canonicalises, solves and restores, the outcome
/// is the direct solve's, with the same makespan and task count, and
/// the restored witness passes the oracle.
fn assert_round_trip(
    registry: &SolverRegistry,
    instance: &Instance,
    solver: &str,
    deadline: Option<Time>,
) {
    let direct = match deadline {
        Some(t) => registry.solve_by_deadline(solver, instance, t),
        None => registry.solve(solver, instance),
    };
    let via_canon = solve_through(&SolutionCache::disabled(), registry, solver, instance, deadline)
        .map(|solved| solved.solution);
    match (direct, via_canon) {
        (Ok(direct), Ok(restored)) => {
            assert_eq!(
                restored.makespan(),
                direct.makespan(),
                "{solver} (level {:?}, deadline {deadline:?}) on {}",
                registry.resolve(solver).map(|s| s.canon_level()),
                instance.platform
            );
            assert_eq!(restored.n(), direct.n(), "{solver} on {}", instance.platform);
            if restored.schedule().is_some() {
                let report = verify(instance, &restored)
                    .unwrap_or_else(|e| panic!("{solver} restored witness rejected: {e}"));
                assert!(
                    report.is_feasible(),
                    "{solver} restored witness infeasible on {} ({} violations)",
                    instance.platform,
                    report.violations.len()
                );
            }
        }
        (Err(direct), Err(canonical)) => {
            assert_eq!(direct.to_string(), canonical.to_string(), "{solver} error drift");
        }
        (direct, canonical) => panic!(
            "{solver} diverges on {}: direct {direct:?} vs canonical {canonical:?}",
            instance.platform
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registered solver, every topology: a uniformly rescaled
    /// instance solves identically through its canonical form.
    #[test]
    fn every_solver_round_trips_through_canonical_form(
        seed in 0u64..1_000_000,
        scale in 1i64..6,
        tasks in 0usize..10,
    ) {
        let kind = TopologyKind::ALL[(seed % 4) as usize];
        let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
        let size = 1 + (seed % 4) as usize;
        let base = Instance::generate(kind, profile, seed, size, tasks);
        let scaled = Instance::new(scale_platform(&base.platform, scale), tasks);
        for solver in SolverRegistry::global().names() {
            assert_round_trip(SolverRegistry::global(), &scaled, solver, None);
        }
    }

    /// The deadline (`T_lim`) path: canonical deadlines divide by the
    /// extracted scale, and the restored plan matches the direct one.
    #[test]
    fn deadline_solves_round_trip_through_canonical_form(
        seed in 0u64..1_000_000,
        scale in 1i64..6,
        deadline in 0i64..60,
    ) {
        let kind = TopologyKind::ALL[(seed % 4) as usize];
        let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
        let base = Instance::generate(kind, profile, seed, 1 + (seed % 3) as usize, 8);
        let scaled = Instance::new(scale_platform(&base.platform, scale), 8);
        for solver in SolverRegistry::global().names() {
            assert_round_trip(SolverRegistry::global(), &scaled, solver, Some(deadline * scale));
        }
    }
}

/// Regression: a covered-tree solution carries its spider cover as the
/// verification platform, and restoring from the canonical form must
/// rescale that cover *up* (multiply by the extracted scale) — an early
/// version divided instead, collapsing the cover to zero-cost
/// processors the oracle rejected.
#[test]
fn covered_tree_solutions_rescale_their_recorded_cover() {
    let tree = Tree::from_triples(&[(0, 10, 15), (0, 10, 15), (0, 10, 15), (2, 10, 15)]).unwrap();
    let instance = Instance::new(tree, 6);
    let canon = CanonicalInstance::of(&instance, "optimal", None);
    assert_eq!(canon.scale(), 5, "gcd of 10 and 15");
    let solved = SolverRegistry::global().solve("optimal", canon.instance()).unwrap();
    let restored = canon.restore(&solved);
    let cover = restored.sub_platform().expect("tree solved through a spider cover");
    assert!(
        cover.legs().iter().all(|leg| leg.processors().iter().all(|p| p.comm == 10)),
        "cover communication times must be back at the original scale"
    );
    assert_eq!(restored.makespan(), solved.makespan() * 5);
    assert!(verify(&instance, &restored).unwrap().is_feasible());
}

#[test]
fn degenerate_instances_round_trip_through_canonical_form() {
    let registry = SolverRegistry::global();
    // 0 tasks, a single processor, and both at once — the degenerate
    // scale factors the canonicalizer must not trip over.
    let single = Instance::new(Platform::parse("chain\n6 9\n").unwrap(), 0);
    let one_proc = Instance::new(Platform::parse("chain\n6 9\n").unwrap(), 4);
    let zero_tasks = Instance::new(Platform::parse("spider\nleg 4 6 2 8\nleg 2 2\n").unwrap(), 0);
    let tiny_tree = Instance::new(Platform::parse("tree\nnode 0 3 3\n").unwrap(), 2);
    for instance in [&single, &one_proc, &zero_tasks, &tiny_tree] {
        for solver in registry.names() {
            assert_round_trip(registry, instance, solver, None);
            assert_round_trip(registry, instance, solver, Some(0));
            assert_round_trip(registry, instance, solver, Some(12));
        }
    }
}

/// A registry that answers `optimal` with round-robin, a heuristic whose
/// answer depends on the order of the legs.
const ROUND_ROBIN_AS_OPTIMAL: &str =
    r#"{"base": "defaults", "solvers": [{"solver": "round-robin", "name": "optimal"}]}"#;

/// The level belongs to the algorithm, not the name: a heuristic renamed
/// `optimal` is canonicalised as a heuristic, with its legs kept in
/// order, so every spider answers through the cache as it solves
/// directly.
#[test]
fn a_renamed_heuristic_round_trips_at_its_own_level() {
    let set = RegistrySet::parse(ROUND_ROBIN_AS_OPTIMAL).expect("valid config");
    let registry = &set.default_policy().registry;
    for seed in 0..200u64 {
        let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
        let instance = Instance::generate(TopologyKind::Spider, profile, seed / 5, 6, 12);
        assert_round_trip(registry, &instance, "optimal", None);
    }
}

#[test]
fn rescaled_instances_share_one_cache_entry() {
    let registry = SolverRegistry::global();
    let cache = SolutionCache::new(64);
    let base = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);
    let tripled = Instance::new(scale_platform(&base.platform, 3), 5);

    let first = solve_through(&cache, registry, "optimal", &base, None).unwrap();
    assert!(!first.cache_hit);
    assert_eq!(first.solution.makespan(), 14);

    // The ×3 copy is the same canonical instance: a hit, restored to
    // the tripled scale, still oracle-approved.
    let second = solve_through(&cache, registry, "optimal", &tripled, None).unwrap();
    assert!(second.cache_hit, "rescaling must hit the same entry");
    assert_eq!(second.solution.makespan(), 42);
    assert!(verify(&tripled, &second.solution).unwrap().is_feasible());
    assert_eq!(cache.len(), 1);

    // Different solver, different entry; errors are never cached.
    let eager = solve_through(&cache, registry, "eager", &base, None).unwrap();
    assert!(!eager.cache_hit);
    assert_eq!(cache.len(), 2);
    assert!(solve_through(&cache, registry, "nope", &base, None).is_err());
    assert_eq!(cache.len(), 2);
}

// ---------------------------------------------------------------------------
// Persistence: kill a --store server, restart it on the same log, and
// the first repeated sweep is answered from the warm-started cache.
// ---------------------------------------------------------------------------

fn start_store_server(
    store: &std::path::Path,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    start_configured_store_server(store, None)
}

fn start_configured_store_server(
    store: &std::path::Path,
    registries: Option<RegistrySet>,
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        registries,
        store_backend: Some(Arc::new(FileStore::open(store).expect("open the store"))),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port with store");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

fn request(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read response");
    let reply = String::from_utf8_lossy(&reply).to_string();
    let status: u16 = reply.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, reply.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn int_field(body: &str, key: &str) -> i64 {
    Json::parse(body)
        .unwrap()
        .get(key)
        .and_then(Json::as_i64)
        .unwrap_or_else(|| panic!("no integer {key} in {body}"))
}

#[test]
fn restarted_store_server_hits_its_warm_cache() {
    let path =
        std::env::temp_dir().join(format!("mst-result-cache-restart-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sweep = r#"{"generate": {"kind": "chain", "count": 20, "size": 3, "tasks": 12}}"#;
    let one = r#"{"platform": "chain\n4 6\n6 10\n", "tasks": 7, "verify": true}"#;

    // First life: a cold sweep misses, its repeat fully hits.
    let (addr, handle, runner) = start_store_server(&path);
    let (status, body) = post(addr, "/batch", sweep);
    assert_eq!(status, 200, "{body}");
    assert_eq!(int_field(&body, "cache_hits"), 0, "cold cache: {body}");
    assert_eq!(int_field(&body, "solved"), 20, "{body}");
    let (status, body) = post(addr, "/batch", sweep);
    assert_eq!(status, 200, "{body}");
    assert_eq!(int_field(&body, "cache_hits"), 20, "warm repeat: {body}");
    let (_, body) = post(addr, "/solve", one);
    assert!(!body.contains("\"cached\""), "first solve is a miss: {body}");
    handle.shutdown();
    runner.join().unwrap();

    // Second life, same log: /history has the prior records and the
    // FIRST repeated requests are answered from the warm-started cache.
    let (addr, handle, runner) = start_store_server(&path);
    let (status, body) = get(addr, "/history?limit=5");
    assert_eq!(status, 200, "{body}");
    assert_eq!(int_field(&body, "total"), 21, "20 sweep records + 1 solve: {body}");
    assert_eq!(int_field(&body, "count"), 5, "{body}");
    let (status, body) = post(addr, "/batch", sweep);
    assert_eq!(status, 200, "{body}");
    assert_eq!(int_field(&body, "cache_hits"), 20, "warm restart: {body}");
    let (status, body) = post(addr, "/solve", one);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "warm restart solve: {body}");
    assert!(body.contains("\"feasible\":true"), "cached witness verifies: {body}");

    // The warm hits appended nothing new, and the metrics say so.
    let (_, body) = get(addr, "/metrics");
    assert_eq!(int_field(&body, "store_records"), 21, "{body}");
    let tenants = Json::parse(&body).unwrap();
    let default = tenants.get("tenants").and_then(|t| t.get("default")).expect("default tenant");
    assert_eq!(default.get("cache_hits_total").and_then(Json::as_i64), Some(21), "{body}");
    assert_eq!(default.get("store_records").and_then(Json::as_i64), Some(21), "{body}");
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A solver name resolves before the cache is consulted: restarted
/// without the solver a record names, the server answers the recorded
/// instance 404, as it answers any other instance for that name, on
/// `/solve` and on `/batch` alike.
#[test]
fn a_solver_the_registry_lost_answers_404_over_its_recorded_solution() {
    let path = std::env::temp_dir()
        .join(format!("mst-result-cache-lost-solver-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let instance = |tasks| format!(r#"{{"platform": "chain\n4 6\n6 10\n", "tasks": {tasks}}}"#);
    let eager = |tasks| {
        format!(r#"{{"platform": "chain\n4 6\n6 10\n", "tasks": {tasks}, "solver": "eager"}}"#)
    };

    let (addr, handle, runner) = start_store_server(&path);
    let (status, body) = post(addr, "/solve", &eager(7));
    assert_eq!(status, 200, "{body}");
    handle.shutdown();
    runner.join().unwrap();

    let only_optimal = RegistrySet::parse(r#"{"base": "defaults", "only": ["optimal"]}"#).unwrap();
    let (addr, handle, runner) = start_configured_store_server(&path, Some(only_optimal));
    let batch = format!(r#"{{"instances": [{}], "solver": "eager"}}"#, instance(7));
    for (route, body) in [("/solve", eager(7)), ("/solve", eager(8)), ("/batch", batch)] {
        let (status, reply) = post(addr, route, &body);
        assert_eq!(status, 404, "{route} {body}: {reply}");
        assert!(reply.contains("\"unknown-solver\""), "{route} {body}: {reply}");
    }
    assert_eq!(metric(addr, "solved_total"), 0, "no request was admitted to solve");
    assert_eq!(metric(addr, "failed_total"), 0, "an unknown name is no failed solve");
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A five-processor chain whose repair after losing processor 4 at
/// `t = 3` commits nothing and re-solves all nine tasks on the
/// surviving three-processor chain.
const REPAIR_CHAIN: &str = r#""platform": "chain\n1 2\n2 3\n1 1\n3 2\n2 2\n", "tasks": 9"#;

/// Opens a session on [`REPAIR_CHAIN`] and strikes its processor 4 at
/// `t = 3`; returns the repair's reply body.
fn create_and_fail(addr: SocketAddr) -> String {
    let (status, body) = post(addr, "/session", &format!(r#"{{"op": "create", {REPAIR_CHAIN}}}"#));
    assert_eq!(status, 200, "{body}");
    let id = int_field(&body, "session");
    let (status, body) = post(
        addr,
        "/session",
        &format!(r#"{{"op": "fail", "session": {id}, "processor": 4, "at": 3}}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(int_field(&body, "event_remaining"), 9, "{body}");
    body
}

fn metric(addr: SocketAddr, key: &str) -> i64 {
    int_field(&get(addr, "/metrics").1, key)
}

#[test]
fn repair_misses_are_recorded_in_the_store() {
    let path =
        std::env::temp_dir().join(format!("mst-result-cache-repair-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (addr, handle, runner) = start_store_server(&path);
    let body = create_and_fail(addr);
    assert!(body.contains("\"cached\":false"), "{body}");
    // One record for the created instance, one for the repaired suffix.
    let (_, history) = get(addr, "/history");
    assert_eq!(int_field(&history, "total"), 2, "{history}");
    assert_eq!(metric(addr, "store_records"), 2);
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cached_repairs_count_no_solve() {
    let path = std::env::temp_dir()
        .join(format!("mst-result-cache-repair-hit-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (addr, handle, runner) = start_store_server(&path);
    create_and_fail(addr);
    let (status, body) = post(addr, "/session", &format!(r#"{{"op": "create", {REPAIR_CHAIN}}}"#));
    assert_eq!(status, 200, "{body}");
    let id = int_field(&body, "session");
    let solved = metric(addr, "solved_total");
    let (status, body) = post(
        addr,
        "/session",
        &format!(r#"{{"op": "fail", "session": {id}, "processor": 4, "at": 3}}"#),
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"cached\":true"), "{body}");
    assert_eq!(metric(addr, "solved_total"), solved, "a cached repair solves nothing");
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_restarted_server_answers_a_repeated_repair_from_its_log() {
    let path = std::env::temp_dir()
        .join(format!("mst-result-cache-repair-restart-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (addr, handle, runner) = start_store_server(&path);
    create_and_fail(addr);
    handle.shutdown();
    runner.join().unwrap();

    let (addr, handle, runner) = start_store_server(&path);
    let body = create_and_fail(addr);
    assert!(body.contains("\"cached\":true"), "the first repeated repair hits: {body}");
    assert_eq!(metric(addr, "solved_total"), 0, "the warm cache answered both ops");
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// A chain whose 10-task makespan, 10000000000000001, is past 2^53: a
/// JSON number here is a double and prints it rounded.
const WIDE_CHAIN: &str = r#"{"platform": "chain\n1000000000000000 1\n", "tasks": 10}"#;

#[test]
fn a_record_the_log_cannot_hold_is_refused_without_degrading_the_store() {
    let path = std::env::temp_dir()
        .join(format!("mst-result-cache-wide-record-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let fig2 = r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5}"#;
    let (addr, handle, runner) = start_store_server(&path);
    let (status, body) = post(addr, "/solve", WIDE_CHAIN);
    assert_eq!(status, 200, "{body}");
    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(
        health.contains("\"store_degraded\":false"),
        "a refused record is no disk fault: {health}"
    );
    assert_eq!(metric(addr, "store_failures_total"), 1, "the refusal is counted");
    let (status, body) = post(addr, "/solve", fig2);
    assert_eq!(status, 200, "{body}");
    let history = |addr| {
        let (status, body) = get(addr, "/history");
        assert_eq!(status, 200, "{body}");
        assert_eq!(int_field(&body, "total"), 1, "only the Figure-2 record: {body}");
        assert!(body.contains("\"makespan\":14"), "{body}");
    };
    history(addr);
    handle.shutdown();
    runner.join().unwrap();

    // The log reopens whole: the record after the refusal survives.
    let (addr, handle, runner) = start_store_server(&path);
    history(addr);
    handle.shutdown();
    runner.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn history_endpoint_requires_a_store() {
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
        .expect("bind");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("run"));
    let (status, body) = get(addr, "/history");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no-store"), "{body}");
    handle.shutdown();
    runner.join().unwrap();
}
