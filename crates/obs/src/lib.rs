//! # mst-obs — dependency-free request-lifecycle observability
//!
//! The telemetry layer behind `mst serve`'s `/metrics`, `/trace` and
//! `mst top`: span tracing and log-linear latency histograms with no
//! external dependencies and zero allocation on the hot path.
//!
//! ## Spans
//!
//! A request becomes a **trace** at parse time ([`begin_trace`]); the
//! id travels with the request (transports carry it across the
//! dispatch handoff, the `X-Trace-Id` response header returns it to
//! the client) and rides whichever thread is working on the request
//! as an ambient thread-local ([`enter_trace`]). Any layer can then
//! record a **span** — `(trace, stage, start, duration)` — by holding
//! a [`SpanGuard`] ([`span()`]) or calling [`record_span`]: spans go
//! into the recording thread's fixed-capacity lock-free ring
//! (overwrite-oldest, wait-free, allocation-free; [`ring`]), and a
//! collector drains the rings into a bounded recent-traces table
//! ([`trace`]) on demand. [`Stage::SEQUENTIAL`] names the stages that
//! partition a request's wall time without overlap, so their
//! durations always sum to ≤ the request total.
//!
//! ## Histograms
//!
//! [`Histogram`] is a log-linear (HDR-style) concurrent histogram:
//! exact below 64µs, ≤3.1% relative quantization error above,
//! lock-free recording, snapshot-consistent reads and lossless
//! merging ([`HistSnapshot`]). [`Obs`] groups them per route and per
//! tenant for one server; solver-kernel histograms (solve / probe /
//! verify, per solver name) are process-global ([`kernel_observe`])
//! so the batch engine and worker pool can record without plumbing.
//!
//! ## Exposition
//!
//! [`write_prom_gauge`] renders one Prometheus sample line, integral
//! values without decimals. `mst serve` writes every sample of its
//! `/metrics?format=prometheus` text through it, derived from its JSON
//! metrics document. The snapshot maps above iterate sorted
//! `BTreeMap`s, so scrapes are deterministically ordered and diff
//! cleanly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod ring;
pub mod span;
pub mod trace;

pub use hist::{HistSnapshot, Histogram};
pub use ring::{dropped_events, SpanEvent};
pub use span::{
    begin_trace, current_trace, enter_trace, note_cached, note_solver, note_tenant, now_ns,
    record_span, span, take_notes, Notes, SpanGuard, Stage, TraceScope,
};
pub use trace::{finish_trace, json_string, lookup, slowest, Trace, TraceMeta};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// The solver-kernel families measured process-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kernel {
    /// A plain makespan solve.
    Solve,
    /// A deadline (`T_lim`) probe/solve.
    Probe,
    /// An oracle feasibility verification.
    Verify,
}

impl Kernel {
    /// The lowercase exposition name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Solve => "solve",
            Kernel::Probe => "probe",
            Kernel::Verify => "verify",
        }
    }
}

type KernelKey = (Kernel, String);

fn kernels() -> &'static Mutex<BTreeMap<KernelKey, Arc<Histogram>>> {
    static KERNELS: OnceLock<Mutex<BTreeMap<KernelKey, Arc<Histogram>>>> = OnceLock::new();
    KERNELS.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The process-global histogram for `(kernel, solver)`. Callers on a
/// hot loop should fetch the `Arc` once and [`Histogram::record`]
/// lock-free per sample.
pub fn kernel_hist(kernel: Kernel, solver: &str) -> Arc<Histogram> {
    let mut map = kernels().lock().expect("kernel table poisoned");
    if let Some(h) = map.get(&(kernel, solver.to_string())) {
        return Arc::clone(h);
    }
    let h = Arc::new(Histogram::new());
    map.insert((kernel, solver.to_string()), Arc::clone(&h));
    h
}

/// Records one solver-kernel latency sample (microseconds).
pub fn kernel_observe(kernel: Kernel, solver: &str, us: u64) {
    kernel_hist(kernel, solver).record(us);
}

/// Snapshots every `(kernel, solver)` histogram, sorted by key.
pub fn kernel_snapshots() -> BTreeMap<(Kernel, String), HistSnapshot> {
    kernels()
        .lock()
        .expect("kernel table poisoned")
        .iter()
        .map(|(k, h)| (k.clone(), h.snapshot()))
        .collect()
}

/// One server's latency histograms, grouped per route and per tenant.
///
/// Held by the serving state; recording looks the histogram up under
/// a short mutex (once per request) and then records lock-free.
#[derive(Debug, Default)]
pub struct Obs {
    routes: Mutex<BTreeMap<String, Arc<Histogram>>>,
    tenants: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Obs {
    /// An empty observation registry.
    pub fn new() -> Obs {
        Obs::default()
    }

    fn hist_for(map: &Mutex<BTreeMap<String, Arc<Histogram>>>, key: &str) -> Arc<Histogram> {
        let mut map = map.lock().expect("obs map poisoned");
        if let Some(h) = map.get(key) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(key.to_string(), Arc::clone(&h));
        h
    }

    /// Records one request latency sample (µs) for `route`.
    pub fn observe_route(&self, route: &str, us: u64) {
        Obs::hist_for(&self.routes, route).record(us);
    }

    /// Records one request latency sample (µs) for `tenant`.
    pub fn observe_tenant(&self, tenant: &str, us: u64) {
        Obs::hist_for(&self.tenants, tenant).record(us);
    }

    /// Snapshots every route histogram, sorted by route.
    pub fn route_snapshots(&self) -> BTreeMap<String, HistSnapshot> {
        self.routes
            .lock()
            .expect("obs map poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// Snapshots every tenant histogram, sorted by tenant.
    pub fn tenant_snapshots(&self) -> BTreeMap<String, HistSnapshot> {
        self.tenants
            .lock()
            .expect("obs map poisoned")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

fn prom_labels(out: &mut String, labels: &[(&str, &str)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = v.replace('\\', "\\\\").replace('"', "\\\"");
        write!(out, "{k}=\"{escaped}\"").expect("write to String");
    }
    out.push('}');
}

/// Appends one Prometheus sample line, counter or gauge: integral
/// values print without decimals, others with three.
pub fn write_prom_gauge(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    prom_labels(out, labels);
    if value.fract() == 0.0 {
        writeln!(out, " {}", value as i64).expect("write to String");
    } else {
        writeln!(out, " {value:.3}").expect("write to String");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_groups_routes_and_tenants_sorted() {
        let obs = Obs::new();
        obs.observe_route("/solve", 120);
        obs.observe_route("/batch", 4000);
        obs.observe_route("/solve", 180);
        obs.observe_tenant("zeta", 10);
        obs.observe_tenant("acme", 20);
        let routes = obs.route_snapshots();
        assert_eq!(routes.keys().collect::<Vec<_>>(), ["/batch", "/solve"]);
        assert_eq!(routes["/solve"].count(), 2);
        let tenants = obs.tenant_snapshots();
        assert_eq!(tenants.keys().collect::<Vec<_>>(), ["acme", "zeta"], "sorted keys");
    }

    #[test]
    fn kernel_histograms_are_shared_process_wide() {
        kernel_observe(Kernel::Solve, "obs-test-solver", 100);
        kernel_observe(Kernel::Solve, "obs-test-solver", 200);
        kernel_observe(Kernel::Probe, "obs-test-solver", 300);
        let snaps = kernel_snapshots();
        assert!(snaps[&(Kernel::Solve, "obs-test-solver".to_string())].count() >= 2);
        assert!(snaps[&(Kernel::Probe, "obs-test-solver".to_string())].count() >= 1);
    }

    #[test]
    fn gauge_renders_integers_cleanly() {
        let mut out = String::new();
        write_prom_gauge(&mut out, "mst_queue_depth", &[], 4.0);
        write_prom_gauge(&mut out, "mst_rate", &[], 1.25);
        assert!(out.contains("mst_queue_depth 4\n"), "{out}");
        assert!(out.contains("mst_rate 1.250\n"), "{out}");
    }
}
