//! The bounded recent-traces table: the one place spans are stored.
//!
//! A span goes straight into the trace it belongs to. Spans recorded
//! on the thread that is working under the trace wait in that
//! thread's buffer; [`finish_trace`] copies them, with the request's
//! metadata (route, tenant, solver, status, wall time), into the
//! oldest of [`TRACE_TABLE_CAP`] reused slots under the table's one
//! lock. A span recorded elsewhere (a pool worker's [`Stage::Pool`]
//! span) is handed to the table when that thread leaves the trace's
//! scope, and attaches to its trace whether the trace is still in
//! flight or already finished. Memory stays constant under any load:
//! slots are reused oldest first, and each trace keeps at most
//! [`TRACE_SPAN_CAP`] spans.
//!
//! Every span ends in a trace or in [`dropped_events`]: a span past
//! its trace's cap, a span for a trace the table no longer holds, and
//! the spans of an in-flight trace whose slot was reused before it
//! finished are counted there. Readers ([`lookup`], [`slowest`]) only
//! read, and see finished traces only.
//!
//! Trace ids are process-unique, so several servers embedded in one
//! process (tests) share the table safely — lookups by id never
//! collide, and the slow list simply spans all of them.

use crate::span::{current_trace, Notes, Stage};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Traces held; the oldest slot is reused beyond this.
pub const TRACE_TABLE_CAP: usize = 512;

/// Spans one trace keeps; later ones are dropped and counted. A
/// `/batch` on a `--store` server records one store span per miss,
/// so a large sweep would otherwise grow its trace without bound.
pub const TRACE_SPAN_CAP: usize = 1024;

static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Spans dropped so far: past their trace's [`TRACE_SPAN_CAP`], for
/// a trace the table no longer holds, or held by an in-flight trace
/// whose slot was reused before it finished.
pub fn dropped_events() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn count_dropped(n: usize) {
    if n > 0 {
        DROPPED.fetch_add(n as u64, Ordering::Relaxed);
    }
}

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

    /// Appends `spans` up to [`TRACE_SPAN_CAP`] and restores the
    /// start-time order. Grows the span list exactly, so a reused slot
    /// holds no more than the largest trace it has held.
    fn add_spans(&mut self, spans: &[SpanRec]) {
        let room = TRACE_SPAN_CAP.saturating_sub(self.spans.len());
        let kept = &spans[..spans.len().min(room)];
        count_dropped(spans.len() - kept.len());
        self.spans.reserve_exact(kept.len());
        self.spans.extend_from_slice(kept);
        self.spans.sort_by_key(|s| s.start_ns);
    }
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

struct Slot {
    trace: Trace,
    /// The trace this slot held before `trace`. Its index entry stays
    /// for one more lap of the table, so a late span for it is known to
    /// be for an evicted trace rather than an in-flight one.
    evicted: u64,
}

struct Table {
    /// [`TRACE_TABLE_CAP`] slots, reused in order.
    slots: Vec<Slot>,
    /// The slot reused next: the oldest.
    next: usize,
    /// Trace id → slot, for every held trace and every trace evicted
    /// within the last lap.
    index: HashMap<u64, usize>,
}

impl Table {
    fn new() -> Table {
        Table {
            slots: (0..TRACE_TABLE_CAP)
                .map(|_| Slot { trace: Trace::default(), evicted: 0 })
                .collect(),
            next: 0,
            index: HashMap::with_capacity(2 * TRACE_TABLE_CAP),
        }
    }

    /// The slot holding trace `id`, if the table still holds it.
    fn held(&self, id: u64) -> Option<usize> {
        self.index.get(&id).copied().filter(|&i| self.slots[i].trace.id == id)
    }

    /// Reuses the oldest slot for trace `id`. An unfinished trace
    /// evicted here never finishes in the table: its spans are dropped.
    fn claim(&mut self, id: u64) -> &mut Trace {
        let i = self.next;
        self.next = (i + 1) % TRACE_TABLE_CAP;
        let slot = &mut self.slots[i];
        if self.index.get(&slot.evicted) == Some(&i) {
            self.index.remove(&slot.evicted);
        }
        slot.evicted = slot.trace.id;
        if !slot.trace.finished {
            count_dropped(slot.trace.spans.len());
        }
        let trace = &mut slot.trace;
        trace.id = id;
        trace.finished = false;
        trace.spans.clear();
        self.index.insert(id, i);
        trace
    }

    /// Attaches spans recorded away from the finishing thread: to the
    /// held trace, to a new in-flight slot for an unknown id, or to
    /// nothing (dropped) when the trace was evicted.
    fn attach(&mut self, id: u64, spans: &[SpanRec]) {
        let trace = match self.held(id) {
            Some(i) => &mut self.slots[i].trace,
            None if self.index.contains_key(&id) => return count_dropped(spans.len()),
            None => self.claim(id),
        };
        trace.add_spans(spans);
    }

    fn finish(&mut self, meta: TraceMeta, spans: &[SpanRec]) {
        let trace = match self.held(meta.id) {
            Some(i) => &mut self.slots[i].trace,
            None => self.claim(meta.id),
        };
        trace.route = meta.route;
        trace.status = meta.status;
        trace.start_ns = meta.start_ns;
        trace.total_ns = meta.total_ns;
        trace.tenant = meta.notes.tenant.unwrap_or_else(|| "default".to_string());
        trace.solver = meta.notes.solver;
        trace.cached = meta.notes.cached;
        trace.finished = true;
        trace.add_spans(spans);
    }
}

/// The process-wide table. Scope guards hand spans off from `Drop`,
/// which must not panic, so a poisoned lock is recovered: every update
/// leaves the table usable, since [`Table::held`] checks each index
/// entry against its slot.
fn table() -> MutexGuard<'static, Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Table::new())).lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// Spans of this thread's current trace not yet in the table.
    static PENDING: RefCell<Vec<SpanRec>> = const { RefCell::new(Vec::new()) };
}

/// Stores one span of trace `id`: buffered while `id` is this thread's
/// current trace, handed to the table at once otherwise.
pub(crate) fn store(id: u64, span: SpanRec) {
    if id != current_trace() {
        table().attach(id, &[span]);
        return;
    }
    PENDING.with(|pending| {
        let mut pending = pending.borrow_mut();
        if pending.len() < TRACE_SPAN_CAP {
            pending.push(span);
        } else {
            count_dropped(1);
        }
    });
}

/// Hands the buffered spans of trace `id`, the current trace, to the
/// table: the thread is leaving its scope without finishing it.
pub(crate) fn hand_off(id: u64) {
    PENDING.with(|pending| {
        let mut pending = pending.borrow_mut();
        if !pending.is_empty() {
            table().attach(id, &pending);
            pending.clear();
        }
    });
}

/// Reports a request's completion metadata, making its trace
/// queryable as *finished*. Called under the trace's scope, it also
/// moves the spans this thread buffered for it into the table, so a
/// request takes the table lock once.
pub fn finish_trace(meta: TraceMeta) {
    PENDING.with(|pending| {
        let mut pending = pending.borrow_mut();
        let here = meta.id == current_trace();
        table().finish(meta, if here { &pending[..] } else { &[] });
        if here {
            pending.clear();
        }
    });
}

/// Looks up a finished trace by id.
pub fn lookup(id: u64) -> Option<Trace> {
    let table = table();
    table.held(id).map(|i| &table.slots[i].trace).filter(|t| t.finished).cloned()
}

/// The slowest `limit` finished traces, slowest first.
pub fn slowest(limit: usize) -> Vec<Trace> {
    let table = table();
    let mut finished: Vec<&Trace> =
        table.slots.iter().map(|s| &s.trace).filter(|t| t.finished).collect();
    finished.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
    finished.into_iter().take(limit).cloned().collect()
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
    fn ten_laps_of_traces_from_eight_threads_keep_the_slowest() {
        let _serial = test_lock();
        let dropped = dropped_events();
        let per_thread = 10 * TRACE_TABLE_CAP / 8;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        let id = begin_trace();
                        let _scope = enter_trace(id);
                        drop(span(Stage::Parse));
                        drop(span(Stage::Solve));
                        drop(span(Stage::Write));
                        finish(id, "/solve", 1_000 + id);
                    }
                });
            }
        });
        let slow = slowest(10);
        assert_eq!(slow.len(), 10, "a table wrapped ten times still lists its slowest");
        for trace in &slow {
            assert!(trace.finished);
            assert_eq!(trace.spans.len(), 3, "trace {} keeps its spans: {trace:?}", trace.id);
        }
        assert_eq!(dropped_events() - dropped, 0, "no span was dropped");
    }

    #[test]
    fn cross_thread_spans_join_their_trace_before_or_after_it_finishes() {
        let _serial = test_lock();
        // Recorded by a pool worker under the submitter's trace, and
        // handed off when the worker leaves that trace's scope.
        let worker_span = |id: u64| {
            std::thread::spawn(move || {
                let _scope = enter_trace(id);
                drop(span(Stage::Pool));
            })
            .join()
            .expect("worker thread");
        };
        let count =
            |trace: &Trace, stage: Stage| trace.spans.iter().filter(|s| s.stage == stage).count();

        let early = begin_trace();
        {
            let _scope = enter_trace(early);
            worker_span(early);
            assert!(lookup(early).is_none(), "an in-flight trace is not listed");
            drop(span(Stage::Solve));
            finish(early, "/batch", 1);
        }
        let trace = lookup(early).expect("finished trace");
        assert_eq!((count(&trace, Stage::Pool), count(&trace, Stage::Solve)), (1, 1), "{trace:?}");

        let late = begin_trace();
        {
            let _scope = enter_trace(late);
            drop(span(Stage::Solve));
            finish(late, "/batch", 1);
        }
        worker_span(late);
        let trace = lookup(late).expect("finished trace");
        assert_eq!((count(&trace, Stage::Pool), count(&trace, Stage::Solve)), (1, 1), "{trace:?}");

        // Once the table has moved on, a late span has no trace to join.
        for _ in 0..TRACE_TABLE_CAP {
            finish(begin_trace(), "/fill", 1);
        }
        assert!(lookup(late).is_none(), "evicted");
        let dropped = dropped_events();
        worker_span(late);
        assert_eq!(dropped_events() - dropped, 1, "the late span is counted as dropped");
        assert!(lookup(late).is_none(), "and does not bring its trace back");
    }

    #[test]
    fn a_trace_keeps_at_most_its_span_cap() {
        let _serial = test_lock();
        let dropped = dropped_events();
        let id = begin_trace();
        {
            let _scope = enter_trace(id);
            for _ in 0..TRACE_SPAN_CAP + 5 {
                drop(span(Stage::Store));
            }
            finish(id, "/batch", 1);
        }
        assert_eq!(lookup(id).expect("finished").spans.len(), TRACE_SPAN_CAP);
        assert_eq!(dropped_events() - dropped, 5);
    }
}
