//! Trace contexts, stages and the ambient span-recording API.
//!
//! A **trace** is one request's lifetime, identified by a process-wide
//! `u64` id allocated at parse time ([`begin_trace`]). The id rides
//! the thread that is currently working on the request as an ambient
//! thread-local ([`enter_trace`] / [`current_trace`]) so deep layers —
//! the cache, the worker pool — can attribute work without any
//! plumbing through their signatures. Each unit of attributable work
//! is a **span**: `(trace, stage, start, duration)` in nanoseconds
//! since process start, recorded by dropping a [`SpanGuard`] or
//! explicitly via [`record_span`] (for stages timed from stored
//! timestamps, like the dispatch queue wait). A span of the thread's
//! current trace waits in a thread-local buffer until the thread
//! finishes the trace or leaves its scope; any other span goes to the
//! trace table at once ([`crate::trace`]).
//!
//! Handlers annotate the in-flight request through the same ambient
//! channel ([`note_tenant`], [`note_solver`], [`note_cached`]); the
//! transport harvests the notes with [`take_notes`] right after the
//! handler returns, on the same thread, and folds them into the
//! trace's metadata.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The fixed catalog of request-lifecycle stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// HTTP head + body parsing (the successful parse attempt only).
    Parse,
    /// Dispatch handoff: parsed request waiting for a worker.
    Queue,
    /// Admission control: quota CAS + rate-limit check.
    Admit,
    /// Canonicalisation + solution-cache lookup.
    Cache,
    /// Solver kernel execution (a cache miss reaching the registry).
    Solve,
    /// Oracle feasibility verification.
    Verify,
    /// Schedule repair after an injected/declared fault.
    Repair,
    /// Result-store append.
    Store,
    /// Response serialization + socket write.
    Write,
    /// Worker-pool participation (one span per participating worker).
    Pool,
    /// Session-table operation (arrive/fail/get bookkeeping).
    Session,
}

impl Stage {
    /// The stages that partition a request's wall time without
    /// overlap: every other stage is excluded ([`Stage::Pool`] runs
    /// nested inside [`Stage::Solve`] and in parallel across workers;
    /// [`Stage::Repair`] wraps a cache-fronted re-solve that records
    /// its own [`Stage::Cache`]/[`Stage::Solve`] spans), so summing
    /// these durations never exceeds the request's total.
    pub const SEQUENTIAL: [Stage; 9] = [
        Stage::Parse,
        Stage::Queue,
        Stage::Admit,
        Stage::Cache,
        Stage::Solve,
        Stage::Verify,
        Stage::Store,
        Stage::Write,
        Stage::Session,
    ];

    /// The lowercase wire name of the stage.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Admit => "admit",
            Stage::Cache => "cache",
            Stage::Solve => "solve",
            Stage::Verify => "verify",
            Stage::Repair => "repair",
            Stage::Store => "store",
            Stage::Write => "write",
            Stage::Pool => "pool",
            Stage::Session => "session",
        }
    }
}

/// Nanoseconds since the first observability call in this process.
/// Monotonic and cheap; all span timestamps use this clock.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    Instant::now().duration_since(origin).as_nanos() as u64
}

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    static NOTES: RefCell<Notes> = RefCell::new(Notes::default());
}

/// Allocates a fresh process-unique trace id (never 0).
pub fn begin_trace() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id the current thread is working under (0 = none).
pub fn current_trace() -> u64 {
    CURRENT.with(|c| c.get())
}

/// Ambient-trace scope guard: restores the previous trace id on drop.
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

/// Makes `id` the current thread's ambient trace until the returned
/// guard drops (scopes nest; the previous id is restored). Switching
/// to another trace, either way, hands the spans buffered for the one
/// left behind to the trace table.
pub fn enter_trace(id: u64) -> TraceScope {
    TraceScope { prev: switch_to(id) }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        switch_to(self.prev);
    }
}

/// Makes `id` current and returns the previous current trace.
fn switch_to(id: u64) -> u64 {
    let prev = current_trace();
    if prev != id {
        crate::trace::hand_off(prev);
        CURRENT.with(|c| c.set(id));
    }
    prev
}

/// An in-flight span: records `(current trace, stage, start, dur)`
/// when dropped. A guard opened with no ambient trace records nothing.
#[derive(Debug)]
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    trace: u64,
    stage: Stage,
    start: u64,
}

/// Opens a span for `stage` under the current ambient trace.
pub fn span(stage: Stage) -> SpanGuard {
    let trace = current_trace();
    SpanGuard { trace, stage, start: if trace == 0 { 0 } else { now_ns() } }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.trace != 0 {
            let end = now_ns();
            record_span(self.trace, self.stage, self.start, end.saturating_sub(self.start));
        }
    }
}

/// Records a completed span explicitly (for stages timed from stored
/// timestamps, like the dispatch queue wait). No-op when `trace` is 0.
pub fn record_span(trace: u64, stage: Stage, start_ns: u64, dur_ns: u64) {
    if trace != 0 {
        crate::trace::store(trace, crate::trace::SpanRec { stage, start_ns, dur_ns });
    }
}

/// Request annotations contributed by handlers while a trace is
/// current, harvested by the transport after the handler returns.
#[derive(Debug, Clone, Default)]
pub struct Notes {
    /// The tenant the request routed to.
    pub tenant: Option<String>,
    /// The solver that (would have) run.
    pub solver: Option<String>,
    /// Whether the solution cache answered (`None` = cache not
    /// consulted).
    pub cached: Option<bool>,
}

/// Notes the tenant the current request routed to.
pub fn note_tenant(tenant: &str) {
    NOTES.with(|n| n.borrow_mut().tenant = Some(tenant.to_string()));
}

/// Notes the solver serving the current request.
pub fn note_solver(solver: &str) {
    NOTES.with(|n| n.borrow_mut().solver = Some(solver.to_string()));
}

/// Notes whether the solution cache answered the current request.
pub fn note_cached(hit: bool) {
    NOTES.with(|n| n.borrow_mut().cached = Some(hit));
}

/// Takes (and clears) the current thread's accumulated notes. The
/// transport calls this right after the handler returns, on the same
/// thread the handler ran on.
pub fn take_notes() -> Notes {
    NOTES.with(|n| std::mem::take(&mut *n.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = begin_trace();
        let b = begin_trace();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn enter_trace_nests_and_restores() {
        assert_eq!(current_trace(), 0);
        let outer = enter_trace(7);
        assert_eq!(current_trace(), 7);
        {
            let _inner = enter_trace(9);
            assert_eq!(current_trace(), 9);
        }
        assert_eq!(current_trace(), 7);
        drop(outer);
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn notes_accumulate_and_clear_on_take() {
        note_tenant("acme");
        note_solver("optimal");
        note_cached(true);
        let notes = take_notes();
        assert_eq!(notes.tenant.as_deref(), Some("acme"));
        assert_eq!(notes.solver.as_deref(), Some("optimal"));
        assert_eq!(notes.cached, Some(true));
        assert!(take_notes().tenant.is_none(), "taking clears");
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
