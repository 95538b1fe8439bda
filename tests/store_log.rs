//! The result store is a log with an index, end to end through
//! `mst-serve`:
//!
//! * `GET /history` pages come from the index: on a 10,000-record store
//!   a one-row page reads no solution back, `total` still counts every
//!   record, and the filters and newest-first order match a walk over
//!   the records as written;
//! * warm start leaves every tenant's cache as an oldest-first replay of
//!   `Record::from_json` records leaves a fresh cache: the same keys, the
//!   same eviction order and the same `store_records` gauge, reading each
//!   record of a configured tenant back once;
//! * a record whose solution this build cannot decode survives a
//!   restart: history lists it and warm start skips it.

use master_slave_tasking::api::wire::{solution_from_json, solution_to_json, Json};
use master_slave_tasking::prelude::*;
use mst_serve::http::{try_parse, Parsed};
use mst_serve::routes::route_on;
use mst_serve::{ResponseBody, ServiceState};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("mst-store-log-{}-{name}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// A record of the Figure-2 chain with `tasks` tasks, solved by `solver`
/// and filed under `hash`.
fn record(tenant: &str, solver: &str, tasks: usize, hash: u128) -> Record {
    let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), tasks);
    let solution = SolverRegistry::global().solve(solver, &instance).unwrap();
    Record {
        tenant: tenant.to_string(),
        solver: solver.to_string(),
        platform: instance.platform.to_text(),
        tasks,
        deadline: None,
        canon_hash: format!("{hash:032x}"),
        makespan: solution.makespan(),
        scheduled: solution.n(),
        elapsed_us: hash as u64,
        solution: solution_to_json(&solution),
    }
}

/// `record`, with a solution naming a schedule representation this build
/// does not know, as a newer build might write.
fn undecodable(mut record: Record) -> Record {
    let text = record.solution.to_string().replace("\"repr\":\"chain\"", "\"repr\":\"hypercube\"");
    record.solution = Json::parse(&text).unwrap();
    assert!(solution_from_json(&record.solution).is_err());
    record
}

fn bind(config: ServeConfig) -> Server {
    Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..config }).expect("bind")
}

/// Answers one `GET` in process, through the server's own handler.
fn get(state: &ServiceState, target: &str) -> Json {
    let mut raw = format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes();
    let Ok(Parsed::Complete(request)) = try_parse(&mut raw, 1 << 20) else {
        panic!("unparsable request {target}")
    };
    let ResponseBody::Full(response) = route_on(&request, state, None) else {
        panic!("{target} streamed its reply")
    };
    assert_eq!(response.status, 200, "{target}: {}", response.body);
    Json::parse(&response.body).unwrap()
}

fn int(json: &Json, key: &str) -> i64 {
    json.get(key).and_then(Json::as_i64).unwrap_or_else(|| panic!("no integer {key} in {json}"))
}

#[test]
fn history_pages_read_no_solution_and_match_a_walk_of_the_log() {
    let path = tmp("history");
    let tenants = ["default", "acme", "zeta"];
    let solvers = ["optimal", "eager"];
    let mut solved = std::collections::HashMap::new();
    let written: Vec<Record> = (0..10_000usize)
        .map(|i| {
            let (tenant, solver, tasks) = (tenants[i % 3], solvers[i % 7 % 2], 1 + i % 8);
            let mut r = solved
                .entry((solver, tasks))
                .or_insert_with(|| record(tenant, solver, tasks, 0))
                .clone();
            r.tenant = tenant.to_string();
            r.canon_hash = format!("{i:032x}");
            r.elapsed_us = i as u64;
            r
        })
        .collect();
    let store = Arc::new(FileStore::open(&path).unwrap());
    store.append_all(&written).unwrap();
    let server = bind(ServeConfig { store_backend: Some(store.clone()), ..ServeConfig::default() });
    let handle = server.handle();
    let state = handle.state();
    // Warm start read the default tenant's records, each once.
    let booted = store.frames_read();
    assert_eq!(booted, written.iter().filter(|r| r.tenant == "default").count() as u64);

    let page = get(state, "/history?limit=1");
    assert_eq!(store.frames_read(), booted, "a one-row page reads no solution back");
    assert_eq!(int(&page, "total"), 10_000, "total counts every record");
    assert_eq!(int(&page, "count"), 1);
    let newest = &written[9_999];
    let row = &page.get("records").and_then(Json::as_arr).unwrap()[0];
    let mut expected = newest.to_json();
    if let Json::Obj(members) = &mut expected {
        members.retain(|(key, _)| key != "solution");
    }
    assert_eq!(row, &expected, "a row is the record without its solution");

    for (query, tenant, solver, limit) in [
        ("tenant=acme&limit=50", Some("acme"), None, 50),
        ("solver=eager", None, Some("eager"), 100),
        ("tenant=zeta&solver=optimal&limit=7", Some("zeta"), Some("optimal"), 7),
        ("limit=0", None, None, 0),
        ("tenant=nobody", Some("nobody"), None, 100),
        ("solver=nobody&limit=20000", None, Some("nobody"), 20_000),
        ("limit=20000", None, None, 20_000),
    ] {
        let page = get(state, &format!("/history?{query}"));
        let walk: Vec<String> = written
            .iter()
            .rev()
            .filter(|r| tenant.is_none_or(|t| r.tenant == t))
            .filter(|r| solver.is_none_or(|s| r.solver == s))
            .take(limit)
            .map(|r| r.canon_hash.clone())
            .collect();
        let rows = page.get("records").and_then(Json::as_arr).unwrap();
        let got: Vec<String> = rows
            .iter()
            .map(|r| r.get("canon_hash").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(got, walk, "{query}");
        assert_eq!(int(&page, "count"), walk.len() as i64, "{query}");
        assert_eq!(int(&page, "total"), 10_000, "{query}");
    }
    assert_eq!(store.frames_read(), booted, "no history page read a solution");
    drop(server);
    let _ = std::fs::remove_file(&path);
}

/// The caches and `store_records` gauges an oldest-first replay of the
/// log at `path` leaves: each frame decoded with `Record::from_json` and
/// inserted into a fresh cache of its tenant's capacity. A record counts
/// toward its tenant's gauge even when its solution does not decode.
fn reference_replay(path: &Path, tenants: &[(&str, usize)]) -> Vec<(SolutionCache, u64)> {
    let bytes = std::fs::read(path).unwrap();
    let mut replayed: Vec<(SolutionCache, u64)> =
        tenants.iter().map(|&(_, entries)| (SolutionCache::new(entries), 0)).collect();
    let mut pos = 0;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let json = Json::parse(std::str::from_utf8(&bytes[pos + 4..pos + 4 + len]).unwrap());
        let json = json.unwrap();
        pos += 4 + len;
        let tenant = json.get("tenant").and_then(Json::as_str).unwrap();
        let Some(t) = tenants.iter().position(|&(name, _)| name == tenant) else { continue };
        replayed[t].1 += 1;
        let Ok(record) = Record::from_json(&json) else { continue };
        let key = CacheKey {
            hash: u128::from_str_radix(&record.canon_hash, 16).unwrap(),
            solver: record.solver,
            deadline: record.deadline,
        };
        replayed[t].0.insert(key, solution_from_json(&record.solution).unwrap());
    }
    replayed
}

#[test]
fn warm_start_leaves_each_cache_as_an_oldest_first_replay_does() {
    let path = tmp("warm");
    // Two configured tenants with 16-entry caches, an unknown tenant,
    // deadline keys, undecodable solutions, and later copies of earlier
    // keys that refresh their recency.
    let tenants = [("default", 4096), ("acme", 16), ("zeta", 16)];
    let mut written: Vec<Record> = (0..90usize)
        .map(|i| {
            let tenant = ["acme", "zeta", "acme", "zeta", "ghost"][i % 5];
            let mut r = record(tenant, ["optimal", "eager"][i % 3 % 2], 1 + i % 6, i as u128);
            if i % 4 == 0 {
                r.deadline = Some(i as i64);
            }
            r
        })
        .collect();
    written.extend(written[10..40].to_vec());
    written[50] = undecodable(written[50].clone());
    written.push(undecodable(record("zeta", "optimal", 3, 7)));
    assert!(written.iter().filter(|r| r.tenant == "acme").count() > 16);
    let known = written.iter().filter(|r| r.tenant != "ghost").count() as u64;
    FileStore::open(&path).unwrap().append_all(&written).unwrap();

    let registries = RegistrySet::parse(
        r#"{"registries": {"acme": {"cache_entries": 16}, "zeta": {"cache_entries": 16}}}"#,
    )
    .unwrap();
    let mut keys: Vec<CacheKey> = written
        .iter()
        .map(|r| CacheKey {
            hash: u128::from_str_radix(&r.canon_hash, 16).unwrap(),
            solver: r.solver.clone(),
            deadline: r.deadline,
        })
        .collect();
    let fresh: Vec<CacheKey> = (0..40u128)
        .map(|i| CacheKey { hash: 1_000_000 + i, solver: "optimal".into(), deadline: None })
        .collect();
    keys.extend(fresh.iter().cloned());
    let filler = solution_from_json(&written[0].solution).unwrap();

    // After `n` fresh inserts into a booted cache and into its reference,
    // the same keys must survive: the two evict in the same order.
    for n in [0, 1, 2, 5, 9, 16, 40] {
        let store = Arc::new(FileStore::open(&path).unwrap());
        let server = bind(ServeConfig {
            registries: Some(registries.clone()),
            store_backend: Some(store.clone()),
            ..ServeConfig::default()
        });
        assert_eq!(store.frames_read(), known, "each known tenant's record is read once");
        let handle = server.handle();
        let reference = reference_replay(&path, &tenants);
        for (&(name, _), (cache, gauge)) in tenants.iter().zip(&reference) {
            let exec = handle.state().execs().find(|t| t.policy().name == name).unwrap();
            let booted = exec.cache();
            assert_eq!(exec.stats().store_records.load(Ordering::Relaxed), *gauge, "{name}");
            assert_eq!(booted.len(), cache.len(), "{name}");
            assert_eq!(booted.evictions(), cache.evictions(), "{name}");
            for key in &fresh[..n] {
                booted.insert(key.clone(), filler.clone());
                cache.insert(key.clone(), filler.clone());
                assert_eq!(booted.evictions(), cache.evictions(), "{name}, {key:?}");
            }
            for key in &keys {
                let (got, want) = (booted.get(key).is_some(), cache.get(key).is_some());
                assert_eq!(got, want, "{name} after {n} fresh inserts: {key:?}");
            }
        }
        let gauges: Vec<u64> = reference.iter().map(|(_, gauge)| *gauge).collect();
        let count = |name: &str| written.iter().filter(|r| r.tenant == name).count() as u64;
        assert_eq!(gauges, [0, count("acme"), count("zeta")], "the replay saw every known record");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn undecodable_records_are_kept_listed_and_skipped() {
    // The log a newer build could leave: chain, hypercube, chain. Opening
    // it used to truncate it after the first record.
    let path = tmp("undecodable");
    let written =
        [record("default", "optimal", 3, 3), undecodable(record("default", "optimal", 4, 4))];
    FileStore::open(&path).unwrap().append_all(&written).unwrap();
    FileStore::open(&path).unwrap().append(&record("default", "optimal", 5, 5)).unwrap();
    let size = std::fs::metadata(&path).unwrap().len();

    let store = Arc::new(FileStore::open(&path).unwrap());
    let server = bind(ServeConfig { store_backend: Some(store), ..ServeConfig::default() });
    assert_eq!(std::fs::metadata(&path).unwrap().len(), size, "reopening truncated nothing");
    let handle = server.handle();
    let state = handle.state();
    let page = get(state, "/history");
    assert_eq!((int(&page, "total"), int(&page, "count")), (3, 3), "{page}");
    let tasks: Vec<i64> = page
        .get("records")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|r| int(r, "tasks"))
        .collect();
    assert_eq!(tasks, [5, 4, 3], "newest first, the undecodable one included");
    let default = state.default_exec();
    assert_eq!(default.cache().len(), 2, "warm start inserted the two it can decode");
    assert_eq!(default.stats().store_records.load(Ordering::Relaxed), 3);
    assert_eq!(int(&get(state, "/metrics"), "store_records"), 3);
    drop(server);
    let _ = std::fs::remove_file(&path);
}
