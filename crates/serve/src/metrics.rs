//! `GET /metrics`: the one place that names a metric.
//!
//! [`document`] walks the [`ServiceState`] once and returns the JSON
//! body. [`prometheus`] derives the text exposition from that document
//! mechanically, so the two formats carry the same members by
//! construction. A JSON member maps to Prometheus samples by one of
//! three rules:
//!
//! * a top-level number or bool `X` is `mst_X` (a bool renders as 0/1);
//! * `tenants.<T>.X` is `mst_tenant_X{tenant="T"}`;
//! * a summary family `F` (`route_latency_us`, `tenant_latency_us`,
//!   `kernel_latency_us`) is an array of rows. A row's string members
//!   are its labels (`route`; `tenant`; `kernel`, `solver`) and its
//!   numbers are latencies in µs: `p50`, `p99`, `p999` and `max` become
//!   `mst_F{labels,quantile="0.5"|"0.99"|"0.999"|"1"}`, `sum` and
//!   `count` become `mst_F_sum{labels}` and `mst_F_count{labels}`.
//!
//! Tenants and rows come in sorted key order, so consecutive scrapes
//! diff cleanly.
//!
//! Every number has one counter. The transport counts into
//! [`Metrics`]; each tenant counts into its [`TenantStats`] and its
//! solution cache; the top-level solve counters are sums over the
//! tenants. The `/healthz` body ([`health`]) reuses the document's
//! first four members.

use crate::server::ServiceState;
use mst_api::exec::TenantStats;
use mst_api::wire::Json;
use mst_obs::HistSnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The transport's counters. Everything else `/metrics` reports is
/// counted per tenant ([`TenantStats`]) or read live.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Connections accepted by the listener.
    pub connections_total: AtomicU64,
    /// `503 overloaded` answers: connections refused at
    /// [`ServeConfig::max_connections`](crate::ServeConfig::max_connections),
    /// and requests refused because the dispatch queue already held
    /// `max_connections` requests, which happens only when clients
    /// left while their requests were queued.
    pub overloaded_total: AtomicU64,
    /// Requests routed (any method, any path).
    pub requests_total: AtomicU64,
    /// Responses with a 4xx/5xx status.
    pub http_errors_total: AtomicU64,
}

/// A summary row's quantiles: JSON member, quantile, Prometheus label.
const QUANTILES: [(&str, f64, &str); 4] =
    [("p50", 0.5, "0.5"), ("p99", 0.99, "0.99"), ("p999", 0.999, "0.999"), ("max", 1.0, "1")];

/// Picks one counter out of a tenant's [`TenantStats`].
type Counter = fn(&TenantStats) -> &AtomicU64;

/// Tenant counters the top level also reports, summed over tenants.
const SUMMED: [(&str, Counter); 3] = [
    ("solved_total", |s| &s.solved_total),
    ("failed_total", |s| &s.failed_total),
    ("cancelled_total", |s| &s.cancelled_total),
];

/// One [`TenantStats`] counter summed over every tenant.
pub(crate) fn tenant_total(state: &ServiceState, counter: Counter) -> u64 {
    state.execs().map(|tenant| counter(tenant.stats()).load(Ordering::Relaxed)).sum()
}

fn count(n: u64) -> Json {
    Json::Num(n as f64)
}

fn load(counter: &AtomicU64) -> Json {
    count(counter.load(Ordering::Relaxed))
}

/// The gauges `GET /healthz` reports; the metrics document opens with
/// them too.
fn gauges(state: &ServiceState) -> [(&'static str, Json); 4] {
    [
        ("uptime_secs", Json::Num(state.started.elapsed().as_secs_f64())),
        ("queue_depth", count(state.queue_depth() as u64)),
        ("sessions_open", count(state.sessions.open_count() as u64)),
        ("store_degraded", Json::Bool(state.store_health.is_degraded())),
    ]
}

/// The `GET /healthz` body: `"status"` (`"ok"` or `"store_degraded"`)
/// followed by the shared gauges.
pub fn health(state: &ServiceState) -> Json {
    let status = if state.store_health.is_degraded() { "store_degraded" } else { "ok" };
    Json::obj(std::iter::once(("status", Json::str(status))).chain(gauges(state)))
}

/// The `GET /metrics` JSON document: every metric the server exports.
pub fn document(state: &ServiceState) -> Json {
    let m = &state.metrics;
    let (polls, poll_wait_us, poll_events) =
        state.poll_stats.get().map_or((0, 0, 0), |poll| poll.snapshot());
    let mut members = Vec::from(gauges(state));
    members.extend([
        ("connections_total", load(&m.connections_total)),
        ("overloaded_total", load(&m.overloaded_total)),
        ("requests_total", load(&m.requests_total)),
        ("http_errors_total", load(&m.http_errors_total)),
    ]);
    members.extend(SUMMED.map(|(name, counter)| (name, count(tenant_total(state, counter)))));
    members.extend([
        ("solve_secs_total", Json::Num(tenant_total(state, |s| &s.solve_ns_total) as f64 / 1e9)),
        ("store_records", count(state.store.as_ref().map_or(0, |s| s.len()) as u64)),
        ("store_failures_total", count(state.store_health.failures_total())),
        ("store_retries_total", count(state.store_health.retries_total())),
        ("store_recoveries_total", count(state.store_health.recoveries_total())),
        ("pool_workers", count(state.default_exec().batch().pool().workers() as u64)),
        ("pool_jobs_submitted", count(state.default_exec().batch().pool().jobs_submitted())),
        ("obs_dropped_spans_total", count(mst_obs::dropped_events())),
        ("poll_waits_total", count(polls)),
        ("poll_wait_us_total", count(poll_wait_us)),
        ("poll_events_total", count(poll_events)),
        ("tenants", Json::Obj(tenants(state))),
        // Route and tenant histograms are this server's; kernel
        // histograms are process-global.
        ("route_latency_us", summaries(state.obs.route_snapshots(), |r| vec![("route", r)])),
        ("tenant_latency_us", summaries(state.obs.tenant_snapshots(), |t| vec![("tenant", t)])),
        (
            "kernel_latency_us",
            summaries(mst_obs::kernel_snapshots(), |(kernel, solver)| {
                vec![("kernel", kernel.name().to_string()), ("solver", solver)]
            }),
        ),
    ]);
    Json::obj(members)
}

/// One object of counters per tenant, sorted by tenant name: config
/// order is an accident of the tenant file, and scrapes must not
/// reshuffle when the file is reordered.
fn tenants(state: &ServiceState) -> Vec<(String, Json)> {
    let mut tenants: Vec<(String, Json)> = state
        .execs()
        .map(|tenant| {
            let stats = tenant.stats();
            let cache = tenant.cache();
            let mut members = vec![
                ("requests_total", load(&stats.requests_total)),
                ("rejected_total", load(&stats.rejected_total)),
                ("rate_limited_total", load(&stats.rate_limited_total)),
            ];
            members.extend(SUMMED.map(|(name, counter)| (name, load(counter(stats)))));
            members.extend([
                ("cache_hits_total", count(cache.hits())),
                ("cache_misses_total", count(cache.misses())),
                ("cache_entries", count(cache.len() as u64)),
                ("cache_bytes", count(cache.bytes() as u64)),
                ("store_records", load(&stats.store_records)),
                ("queue_depth", count(tenant.queue_depth() as u64)),
            ]);
            (tenant.policy().name.clone(), Json::obj(members))
        })
        .collect();
    tenants.sort_by(|a, b| a.0.cmp(&b.0));
    tenants
}

/// A summary family: one row per histogram, in the map's sorted key
/// order, led by the labels `labels` makes of its key.
fn summaries<K>(
    snapshots: BTreeMap<K, HistSnapshot>,
    labels: impl Fn(K) -> Vec<(&'static str, String)>,
) -> Json {
    let rows = snapshots.into_iter().map(|(key, snap)| {
        let mut row: Vec<(&str, Json)> =
            labels(key).into_iter().map(|(name, value)| (name, Json::Str(value))).collect();
        row.extend(QUANTILES.map(|(name, q, _)| (name, count(snap.percentile(q)))));
        row.extend([("sum", count(snap.sum)), ("count", count(snap.count()))]);
        Json::obj(row)
    });
    Json::Arr(rows.collect())
}

/// The Prometheus text exposition of a [`document`], by the three
/// rules in the module docs.
pub fn prometheus(document: &Json) -> String {
    let mut out = String::with_capacity(4096);
    for (key, value) in document.as_obj().unwrap_or_default() {
        match value {
            // The document's only object member is `tenants`.
            Json::Obj(tenants) => {
                for (tenant, members) in tenants {
                    for (name, value) in members.as_obj().unwrap_or_default() {
                        let labels = [("tenant", tenant.as_str())];
                        sample(&mut out, &format!("mst_tenant_{name}"), &labels, value);
                    }
                }
            }
            Json::Arr(rows) => {
                for row in rows {
                    summary_row(&mut out, key, row.as_obj().unwrap_or_default());
                }
            }
            scalar => sample(&mut out, &format!("mst_{key}"), &[], scalar),
        }
    }
    out
}

/// The samples of one summary row of family `family`.
fn summary_row(out: &mut String, family: &str, row: &[(String, Json)]) {
    let labels: Vec<(&str, &str)> =
        row.iter().filter_map(|(name, value)| Some((name.as_str(), value.as_str()?))).collect();
    for (name, value) in row {
        match QUANTILES.iter().find(|(member, ..)| name == member) {
            Some((_, _, quantile)) => {
                let mut labels = labels.clone();
                labels.push(("quantile", *quantile));
                sample(out, &format!("mst_{family}"), &labels, value);
            }
            None => sample(out, &format!("mst_{family}_{name}"), &labels, value),
        }
    }
}

/// One sample line for a number or bool; other values (a summary
/// row's labels) carry no sample.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: &Json) {
    let value = match value {
        Json::Num(n) => *n,
        Json::Bool(b) => f64::from(u8::from(*b)),
        _ => return,
    };
    mst_obs::write_prom_gauge(out, name, labels, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_lines_render_with_labels_and_quantiles() {
        let h = mst_obs::Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let snaps = BTreeMap::from([("/solve".to_string(), h.snapshot())]);
        let document = Json::Obj(vec![
            ("requests_total".to_string(), count(7)),
            ("uptime_secs".to_string(), Json::Num(1.25)),
            ("store_degraded".to_string(), Json::Bool(true)),
            (
                "tenants".to_string(),
                Json::Obj(vec![(
                    "acme".to_string(),
                    Json::obj([
                        ("requests_total", count(3)),
                        ("cache_entries", count(2)),
                        ("cache_bytes", count(431)),
                    ]),
                )]),
            ),
            ("route_latency_us".to_string(), summaries(snaps, |r| vec![("route", r)])),
        ]);
        let out = prometheus(&document);
        assert!(out.contains("mst_requests_total 7\n"), "{out}");
        assert!(out.contains("mst_uptime_secs 1.250\n"), "{out}");
        assert!(out.contains("mst_store_degraded 1\n"), "{out}");
        assert!(out.contains("mst_tenant_requests_total{tenant=\"acme\"} 3\n"), "{out}");
        assert!(out.contains("mst_tenant_cache_entries{tenant=\"acme\"} 2\n"), "{out}");
        assert!(out.contains("mst_tenant_cache_bytes{tenant=\"acme\"} 431\n"), "{out}");
        assert!(
            out.contains("mst_route_latency_us{route=\"/solve\",quantile=\"0.5\"} 20\n"),
            "{out}"
        );
        assert!(
            out.contains("mst_route_latency_us{route=\"/solve\",quantile=\"1\"} 30\n"),
            "{out}"
        );
        assert!(out.contains("mst_route_latency_us_sum{route=\"/solve\"} 60\n"), "{out}");
        assert!(out.contains("mst_route_latency_us_count{route=\"/solve\"} 3\n"), "{out}");
        assert_eq!(out.lines().count(), 12, "one line per number or bool:\n{out}");
    }
}
