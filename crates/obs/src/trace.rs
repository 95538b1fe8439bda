//! The bounded recent-traces table and its JSON surface.
//!
//! The collector drains every thread's span ring into this
//! process-wide table on demand (every lookup and scrape), attaching
//! span events to their trace by id. A trace becomes *finished* when
//! the transport reports its metadata ([`finish_trace`]): route,
//! tenant, solver, status and total wall time. The table is bounded
//! ([`TRACE_TABLE_CAP`]): oldest traces are evicted first, so memory
//! stays constant under any load.
//!
//! Trace ids are process-unique, so several servers embedded in one
//! process (tests) share the table safely — lookups by id never
//! collide, and the slow list simply spans all of them.

use crate::ring;
use crate::span::{Notes, Stage};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Maximum traces held; oldest are evicted beyond this.
pub const TRACE_TABLE_CAP: usize = 512;

/// One recorded span of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// The lifecycle stage measured.
    pub stage: Stage,
    /// Start time (ns, process clock).
    pub start_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
}

/// A request's collected trace: metadata plus its span tree (spans
/// sorted by start time; nesting is implied by interval containment).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The trace id (the `X-Trace-Id` response header value).
    pub id: u64,
    /// Request route (path), e.g. `/solve`.
    pub route: String,
    /// Tenant the request resolved to.
    pub tenant: String,
    /// Solver that served it, when one was selected.
    pub solver: Option<String>,
    /// Whether the solution cache answered (`None`: not consulted).
    pub cached: Option<bool>,
    /// HTTP status of the response.
    pub status: u16,
    /// Request start (ns, process clock).
    pub start_ns: u64,
    /// Total wall time from parse start to response written (ns).
    pub total_ns: u64,
    /// Whether the transport reported completion metadata yet.
    pub finished: bool,
    /// The spans collected so far, sorted by start time.
    pub spans: Vec<SpanRec>,
}

impl Trace {
    /// Sum of the non-overlapping sequential stage durations
    /// ([`Stage::SEQUENTIAL`]); by construction this is ≤ `total_ns`
    /// for a finished trace (up to clock-read jitter).
    pub fn sequential_ns(&self) -> u64 {
        self.spans.iter().filter(|s| Stage::SEQUENTIAL.contains(&s.stage)).map(|s| s.dur_ns).sum()
    }

    /// Renders the trace as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 64);
        write!(
            out,
            "{{\"id\":{},\"route\":{},\"tenant\":{},\"solver\":{},\"status\":{},\"cached\":{},\
             \"finished\":{},\"start_ns\":{},\"total_ns\":{},\"sequential_ns\":{},\"spans\":[",
            self.id,
            json_string(&self.route),
            json_string(&self.tenant),
            self.solver.as_deref().map_or_else(|| "null".to_string(), json_string),
            self.status,
            self.cached.map_or_else(|| "null".to_string(), |c| c.to_string()),
            self.finished,
            self.start_ns,
            self.total_ns,
            self.sequential_ns(),
        )
        .expect("write to String");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"stage\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                span.stage.name(),
                span.start_ns,
                span.dur_ns
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Completion metadata the transport reports when a request's
/// response has been written.
#[derive(Debug, Clone)]
pub struct TraceMeta {
    /// The trace id allocated at parse time.
    pub id: u64,
    /// Request route (path).
    pub route: String,
    /// HTTP status written.
    pub status: u16,
    /// Parse start (ns, process clock).
    pub start_ns: u64,
    /// Parse start → response written (ns).
    pub total_ns: u64,
    /// Handler annotations harvested via [`crate::take_notes`].
    pub notes: Notes,
}

#[derive(Default)]
struct Table {
    map: HashMap<u64, Trace>,
    /// First-seen order, for eviction.
    order: VecDeque<u64>,
}

impl Table {
    fn entry(&mut self, id: u64) -> &mut Trace {
        if !self.map.contains_key(&id) {
            self.order.push_back(id);
            self.map.insert(id, Trace { id, ..Trace::default() });
        }
        while self.map.len() > TRACE_TABLE_CAP {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            } else {
                break;
            }
        }
        self.map.get_mut(&id).expect("just inserted")
    }

    fn drain_rings(&mut self) {
        let mut events = Vec::new();
        ring::drain_all(|ev| events.push(ev));
        let mut touched: Vec<u64> = Vec::new();
        for ev in events {
            let trace = self.entry(ev.trace);
            trace.spans.push(SpanRec { stage: ev.stage, start_ns: ev.start_ns, dur_ns: ev.dur_ns });
            if touched.last() != Some(&ev.trace) {
                touched.push(ev.trace);
            }
        }
        // Restore the sorted-spans invariant once per touched trace,
        // not once per event (a trace's events arrive nearly ordered,
        // so the sorts are cheap, but the n-sorts-of-n-spans pattern
        // was the collector's hottest path).
        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            if let Some(trace) = self.map.get_mut(&id) {
                trace.spans.sort_by_key(|s| s.start_ns);
            }
        }
    }
}

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Table::default()))
}

/// Reports a request's completion metadata, making its trace
/// queryable as *finished*.
///
/// Deliberately does **not** drain the span rings: finishing runs on
/// every request's hot path, while draining is the reader's job
/// ([`lookup`] / [`slowest`] drain on demand). The rings buffer
/// thousands of events per thread, far more than the table retains.
pub fn finish_trace(meta: TraceMeta) {
    let mut table = table().lock().expect("trace table poisoned");
    let trace = table.entry(meta.id);
    trace.route = meta.route;
    trace.status = meta.status;
    trace.start_ns = meta.start_ns;
    trace.total_ns = meta.total_ns;
    trace.tenant = meta.notes.tenant.unwrap_or_else(|| "default".to_string());
    trace.solver = meta.notes.solver;
    trace.cached = meta.notes.cached;
    trace.finished = true;
}

/// Looks up a trace by id (draining pending ring events first).
pub fn lookup(id: u64) -> Option<Trace> {
    let mut table = table().lock().expect("trace table poisoned");
    table.drain_rings();
    table.map.get(&id).cloned()
}

/// The slowest `limit` finished traces, slowest first.
pub fn slowest(limit: usize) -> Vec<Trace> {
    let mut table = table().lock().expect("trace table poisoned");
    table.drain_rings();
    let mut finished: Vec<Trace> = table.map.values().filter(|t| t.finished).cloned().collect();
    finished.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
    finished.truncate(limit);
    finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{
        begin_trace, enter_trace, note_solver, note_tenant, now_ns, span, take_notes,
    };

    /// The trace table is process-global; serialize the tests that
    /// assert on its eviction/ordering behaviour.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn finish(id: u64, route: &str, total_ns: u64) {
        finish_trace(TraceMeta {
            id,
            route: route.to_string(),
            status: 200,
            start_ns: 0,
            total_ns,
            notes: take_notes(),
        });
    }

    #[test]
    fn spans_attach_to_their_trace_and_meta_completes_it() {
        let _serial = test_lock();
        let id = begin_trace();
        // The wall time is measured, not assumed: a 50µs sleep can
        // take milliseconds on a loaded box.
        let start_ns = now_ns();
        {
            let _scope = enter_trace(id);
            note_tenant("acme");
            note_solver("optimal");
            let _solve = span(Stage::Solve);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        finish(id, "/solve", now_ns() - start_ns);
        let trace = lookup(id).expect("trace recorded");
        assert!(trace.finished);
        assert_eq!(trace.route, "/solve");
        assert_eq!(trace.tenant, "acme");
        assert_eq!(trace.solver.as_deref(), Some("optimal"));
        let solve = trace.spans.iter().find(|s| s.stage == Stage::Solve).expect("solve span");
        assert!(solve.dur_ns > 0, "non-zero duration");
        assert!(trace.sequential_ns() <= trace.total_ns);
        let json = trace.to_json();
        assert!(json.contains("\"stage\":\"solve\""), "{json}");
        assert!(json.contains("\"route\":\"/solve\""), "{json}");
    }

    #[test]
    fn slowest_orders_by_total_and_respects_limit() {
        let _serial = test_lock();
        let ids: Vec<u64> = (0..3).map(|_| begin_trace()).collect();
        finish(ids[0], "/a", 30_000);
        finish(ids[1], "/b", 99_000_000_000);
        finish(ids[2], "/c", 98_000_000_000);
        let slow = slowest(2);
        assert_eq!(slow.len(), 2);
        assert!(slow[0].total_ns >= slow[1].total_ns);
        assert!(slow.iter().any(|t| t.id == ids[1]), "the slowest trace is present");
    }

    #[test]
    fn the_table_stays_bounded() {
        let _serial = test_lock();
        let first = begin_trace();
        finish(first, "/old", 1);
        for _ in 0..(TRACE_TABLE_CAP + 10) {
            finish(begin_trace(), "/fill", 1);
        }
        assert!(lookup(first).is_none(), "oldest evicted");
    }

    #[test]
    fn json_strings_escape_quotes_and_control_bytes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
