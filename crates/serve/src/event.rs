//! The event-driven transport: one epoll readiness loop owning every
//! client socket, driving [`crate::routes::route_on`].
//!
//! Layout:
//!
//! * the **loop thread** owns the listener, all connection sockets, the
//!   [`mst_net::Poller`], and a [`mst_net::TimerWheel`]. Each
//!   connection is a small state machine (`Phase`): bytes arrive and
//!   are fed to the incremental [`crate::http::try_parse`]; a complete
//!   request is handed to the **dispatch pool**; response bytes flow
//!   back and are flushed as the socket accepts them, with partial
//!   reads and partial writes resumed on the next readiness event. A
//!   parked keep-alive connection therefore costs its buffers, not a
//!   thread;
//! * the **dispatch pool** ([`crate::ServeConfig::conn_threads`] threads) runs
//!   the handlers. Responses travel back through a per-request
//!   `ConnShared` mailbox: full responses as one byte blob, streamed
//!   `/batch` bodies chunk by chunk with **backpressure** — a push
//!   blocks while more than [`crate::ServeConfig::stream_high_water`] bytes
//!   are queued unflushed, so a slow NDJSON consumer bounds server
//!   memory instead of growing it;
//! * **timeouts** live in the timer wheel: a request that drips in too
//!   slowly gets `408` after [`crate::ServeConfig::io_timeout`], an idle
//!   keep-alive connection is closed silently after
//!   [`crate::ServeConfig::keep_alive_timeout`], and a client that stops
//!   reading its response is torn down once the write side makes no
//!   progress for an `io_timeout`;
//! * **overload** answers `503` + `Retry-After: 1` — at accept time
//!   when [`crate::ServeConfig::max_connections`] sockets are already open,
//!   and at dispatch time when the bounded hand-off queue
//!   ([`crate::ServeConfig::backlog`]) is full;
//! * **shutdown** accepts the connections already queued on the
//!   listener, closes the listener and every idle connection, lets
//!   in-flight requests finish (bounded by their own timers), then
//!   joins the dispatch pool.

use crate::http::{self, Parsed, Request, Response};
use crate::routes::{self, error_response};
use crate::server::{ServeReport, ServiceState};
use crate::service::{ResponseBody, StreamWriter};
use mst_net::{Interest, Poller, Slab, TimerWheel, Token, Waker};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The listener's registration token.
const LISTENER: Token = Token(0);
/// The waker's registration token.
const WAKER: Token = Token(1);
/// Connection slab slot `s` registers as token `s + TOKEN_BASE`.
const TOKEN_BASE: u64 = 2;

/// Timer wheel granularity.
const TICK: Duration = Duration::from_millis(5);
/// Timer wheel buckets (with [`TICK`], one rotation ≈ 10s).
const WHEEL_SLOTS: usize = 2048;
/// Longest the loop sleeps between shutdown-flag checks.
const POLL_CAP: Duration = Duration::from_millis(5);

fn token_of(slot: usize) -> Token {
    Token(slot as u64 + TOKEN_BASE)
}

fn slot_of(token: Token) -> usize {
    (token.0 - TOKEN_BASE) as usize
}

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for (more of) a request head/body.
    Reading,
    /// The current request is with the dispatch pool.
    Dispatched,
    /// The response tail is queued in `out`; once flushed, keep or
    /// close per the flag.
    Finishing {
        /// Whether the connection survives this response.
        keep_alive: bool,
    },
}

/// Loop-owned per-connection state.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes not yet parsed into a request.
    buf: Vec<u8>,
    /// Outbound bytes not yet accepted by the socket (front at
    /// `out_pos` — drained lazily to avoid shifting).
    out: Vec<u8>,
    out_pos: usize,
    phase: Phase,
    /// The in-flight request's mailbox, while `phase` is `Dispatched`.
    shared: Option<Arc<ConnShared>>,
    /// Requests served (or dispatched) on this connection.
    served: usize,
    /// The peer sent FIN: no more requests will arrive.
    read_closed: bool,
    /// Generation of the connection's live timer arm (see
    /// [`TimerWheel::schedule`]); stale wheel entries fail to match.
    timer_gen: u64,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// When the first byte of the *current* request arrived
    /// ([`mst_obs::now_ns`]); the parse span starts here, not at the
    /// end of an idle keep-alive wait.
    req_start_ns: Option<u64>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            phase: Phase::Reading,
            shared: None,
            served: 0,
            read_closed: false,
            timer_gen: 0,
            interest: Interest::READ,
            req_start_ns: None,
        }
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// What the worker pushes into [`ConnShared::out`].
#[derive(Default)]
struct SharedOut {
    bytes: Vec<u8>,
    /// Set when the response is complete: `Some(keep_alive)`.
    done: Option<bool>,
}

/// The mailbox between one dispatched request's worker and the loop.
///
/// The worker pushes response bytes and blocks once `high_water` of
/// them sit unconsumed (streaming backpressure); the loop drains them
/// into the connection's outbound buffer as the socket accepts writes.
/// `slot`/`generation` address the connection — if it died meanwhile
/// the generations disagree and the loop drops the output on the floor.
struct ConnShared {
    slot: usize,
    generation: u64,
    /// Hard death: the socket errored or was torn down. Pushes fail.
    gone: AtomicBool,
    /// The peer half-closed. [`StreamWriter::client_gone`] reports it
    /// (FIN means *abandoned* for a streaming sweep: a dropped `/batch`
    /// must stop burning cores, so clients keep their write side open
    /// until the answer arrives) but buffered responses are still
    /// delivered.
    read_closed: AtomicBool,
    out: Mutex<SharedOut>,
    cond: Condvar,
    ready: Mutex<mpsc::Sender<(usize, u64)>>,
    waker: Waker,
    high_water: usize,
}

impl ConnShared {
    /// Queues response bytes. With `block`, waits while more than
    /// `high_water` bytes are already queued — the streaming
    /// backpressure. Fails once the connection is hard-gone.
    fn push(&self, bytes: &[u8], block: bool) -> io::Result<()> {
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        if block {
            while out.bytes.len() >= self.high_water && !self.gone.load(Ordering::Relaxed) {
                out = self.cond.wait(out).unwrap_or_else(|e| e.into_inner());
            }
        }
        if self.gone.load(Ordering::Relaxed) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client is gone"));
        }
        out.bytes.extend_from_slice(bytes);
        drop(out);
        self.notify();
        Ok(())
    }

    /// Marks the response complete (`keep_alive` decides the
    /// connection's fate once the bytes flush).
    fn finish(&self, keep_alive: bool) {
        self.out.lock().unwrap_or_else(|e| e.into_inner()).done = Some(keep_alive);
        self.notify();
    }

    /// Tells the loop this mailbox has news, and wakes it.
    fn notify(&self) {
        let _ =
            self.ready.lock().unwrap_or_else(|e| e.into_inner()).send((self.slot, self.generation));
        self.waker.wake();
    }

    /// Loop side: the connection died. Unblocks any worker waiting in
    /// [`ConnShared::push`].
    fn mark_gone(&self) {
        self.gone.store(true, Ordering::Relaxed);
        self.read_closed.store(true, Ordering::Relaxed);
        let _guard = self.out.lock().unwrap_or_else(|e| e.into_inner());
        self.cond.notify_all();
    }
}

/// The event transport's [`StreamWriter`]: frames chunks and pushes
/// them through the request's mailbox with blocking backpressure.
struct EventWriter<'a> {
    shared: &'a ConnShared,
}

impl StreamWriter for EventWriter<'_> {
    fn client_gone(&mut self) -> bool {
        self.shared.gone.load(Ordering::Relaxed) || self.shared.read_closed.load(Ordering::Relaxed)
    }

    fn begin(&mut self) -> io::Result<()> {
        self.shared.push(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
              Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            true,
        )
    }

    fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        if bytes.is_empty() {
            // An empty chunk would terminate the chunked body.
            return Ok(());
        }
        let mut framed = Vec::with_capacity(bytes.len() + 16);
        write!(framed, "{:x}\r\n", bytes.len())?;
        framed.extend_from_slice(bytes);
        framed.extend_from_slice(b"\r\n");
        self.shared.push(&framed, true)
    }

    fn end(&mut self) -> io::Result<()> {
        self.shared.push(b"0\r\n\r\n", true)
    }
}

/// One parsed request on its way to the dispatch pool.
struct Job {
    request: Request,
    shared: Arc<ConnShared>,
    /// Whether the connection may stay open after this response
    /// (keep-alive asked, per-connection request bound not reached).
    may_keep: bool,
    /// The request's trace id, allocated at parse completion.
    trace: u64,
    /// First byte arrival ([`mst_obs::now_ns`]) — the trace's origin.
    start_ns: u64,
    /// Parse completion; the dispatch-queue wait starts here.
    parsed_ns: u64,
}

/// Dispatch-pool worker: routes jobs through [`routes::route_on`].
fn dispatch_worker(rx: Arc<Mutex<mpsc::Receiver<Job>>>, state: Arc<ServiceState>) {
    loop {
        let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match job {
            Ok(job) => handle_job(job, &state),
            Err(_) => return, // queue closed: shutdown
        }
    }
}

fn handle_job(job: Job, state: &ServiceState) {
    let Job { request, shared, may_keep, trace, start_ns, parsed_ns } = job;
    // The whole request runs under its trace, so its spans, the finish
    // record included, reach the trace table under one lock.
    let _scope = mst_obs::enter_trace(trace);
    mst_obs::record_span(
        trace,
        mst_obs::Stage::Parse,
        start_ns,
        parsed_ns.saturating_sub(start_ns),
    );
    let queue_end = mst_obs::now_ns();
    mst_obs::record_span(
        trace,
        mst_obs::Stage::Queue,
        parsed_ns,
        queue_end.saturating_sub(parsed_ns),
    );
    let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut writer = EventWriter { shared: &shared };
        routes::route_on(&request, state, Some(&mut writer))
    }));
    // The handler ran on this thread: harvest its ambient annotations.
    let notes = mst_obs::take_notes();
    let route = routes::route_label(&request.method, &request.path);
    let (response, status, keep) = match routed {
        Ok(ResponseBody::Full(response)) => {
            let status = response.status;
            (Some(response), status, may_keep && !state.shutdown_requested())
        }
        // Streamed responses wrote their own head and always close.
        Ok(ResponseBody::Streamed) => (None, 200, false),
        Err(_) => {
            let message = "request handler panicked; see server logs";
            (Some(error_response(500, "internal-error", message)), 500, false)
        }
    };
    if status >= 400 {
        state.metrics.http_errors_total.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(response) = response {
        // The write span covers serialization + the mailbox handoff
        // (including any backpressure wait); the socket flush itself
        // happens later on the loop thread.
        let _write_span = mst_obs::span(mst_obs::Stage::Write);
        let _ = shared.push(&response.with_trace_id(trace).to_bytes(keep), true);
    }
    crate::server::finish_request(state, trace, start_ns, status, notes, route);
    shared.finish(keep);
}

/// Runs the event transport until shutdown. Called by
/// [`Server::run`](crate::server::Server::run).
pub(crate) fn run_event(
    listener: TcpListener,
    state: Arc<ServiceState>,
) -> io::Result<ServeReport> {
    // Thousands of parked keep-alive sockets need the descriptors.
    let _ = mst_net::raise_nofile_limit(state.config.max_connections as u64 + 64);
    let poller = Poller::new()?;
    let _ = state.poll_stats.set(poller.stats());
    poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    let waker = Waker::new(&poller, WAKER)?;
    let (ready_tx, ready_rx) = mpsc::channel();
    let (dispatch_tx, dispatch_rx) = mpsc::sync_channel(state.config.backlog.max(1));
    let dispatch_rx = Arc::new(Mutex::new(dispatch_rx));
    let workers: Vec<_> = (0..state.config.conn_threads.max(1))
        .map(|_| {
            let rx = Arc::clone(&dispatch_rx);
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("mst-serve-dispatch".into())
                .spawn(move || dispatch_worker(rx, state))
                .expect("spawn dispatch worker")
        })
        .collect();

    let mut el = EventLoop {
        listener: Some(listener),
        poller,
        waker,
        timers: TimerWheel::new(TICK, WHEEL_SLOTS),
        timer_seq: 0,
        conns: Slab::new(),
        gens: Vec::new(),
        state: Arc::clone(&state),
        dispatch: dispatch_tx,
        ready_tx,
        ready_rx,
        shutting_down: false,
    };
    let result = el.run();
    // On a loop failure some connections may still be live with workers
    // blocked on backpressure; tear everything down so they unblock.
    for slot in el.conns.keys() {
        el.teardown(slot);
    }
    drop(el); // drops the dispatch sender: workers see the hangup
    for worker in workers {
        let _ = worker.join();
    }
    result
}

struct EventLoop {
    /// Closed (`None`) once shutdown begins.
    listener: Option<TcpListener>,
    poller: Poller,
    waker: Waker,
    timers: TimerWheel,
    /// Monotone arm counter: every (re-)arm gets a fresh generation, so
    /// a stale wheel entry can never match a reused slot.
    timer_seq: u64,
    conns: Slab<Conn>,
    /// Per-slot occupancy generation, bumped on insert and teardown:
    /// mailbox messages addressed to a previous occupant fail to match.
    gens: Vec<u64>,
    state: Arc<ServiceState>,
    dispatch: mpsc::SyncSender<Job>,
    ready_tx: mpsc::Sender<(usize, u64)>,
    ready_rx: mpsc::Receiver<(usize, u64)>,
    shutting_down: bool,
}

impl EventLoop {
    fn run(&mut self) -> io::Result<ServeReport> {
        let mut events = Vec::new();
        loop {
            if !self.shutting_down && self.state.shutdown_requested() {
                self.begin_shutdown();
            }
            if self.shutting_down && self.conns.is_empty() {
                break;
            }
            let now = Instant::now();
            let timeout = match self.timers.next_timeout(now) {
                Some(t) => t.min(POLL_CAP),
                None => POLL_CAP,
            };
            events.clear();
            self.poller.wait(Some(timeout), |ev| events.push(ev))?;
            for ev in &events {
                match ev.token {
                    LISTENER => self.accept_ready()?,
                    WAKER => self.waker.drain(),
                    token => {
                        let slot = slot_of(token);
                        if ev.hangup {
                            self.teardown(slot);
                            continue;
                        }
                        if ev.readable || ev.read_closed {
                            self.on_readable(slot);
                        }
                        if ev.writable {
                            self.service_out(slot);
                        }
                    }
                }
            }
            let mut fired = Vec::new();
            self.timers.poll(Instant::now(), |token, generation| fired.push((token, generation)));
            for (token, generation) in fired {
                self.on_timer(slot_of(token), generation);
            }
            while let Ok((slot, generation)) = self.ready_rx.try_recv() {
                if self.gens.get(slot) == Some(&generation) {
                    self.service_out(slot);
                }
            }
        }
        Ok(ServeReport {
            connections: self.state.metrics.connections_total.load(Ordering::Relaxed),
            requests: self.state.metrics.requests_total.load(Ordering::Relaxed),
            solved: crate::metrics::tenant_total(&self.state, |s| &s.solved_total),
        })
    }

    /// Stop accepting; idle connections close now, in-flight ones
    /// drain (each bounded by its own timer). Closing a listener resets
    /// the connections still queued on it, so the queue is accepted
    /// first and those connections close like any idle one.
    fn begin_shutdown(&mut self) {
        let _ = self.accept_ready();
        self.shutting_down = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        for slot in self.conns.keys() {
            let idle = matches!(
                self.conns.get(slot),
                Some(c) if c.phase == Phase::Reading && c.buf.is_empty()
            );
            if idle {
                self.teardown(slot);
            }
        }
    }

    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            let Some(listener) = &self.listener else { return Ok(()) };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.state.metrics.connections_total.fetch_add(1, Ordering::Relaxed);
                    if self.conns.len() >= self.state.config.max_connections {
                        self.refuse(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let slot = self.conns.insert(Conn::new(stream));
                    if self.gens.len() <= slot {
                        self.gens.resize(slot + 1, 0);
                    }
                    self.gens[slot] += 1;
                    if self.poller.add(fd, token_of(slot), Interest::READ).is_err() {
                        self.conns.remove(slot);
                        continue;
                    }
                    // First-request budget.
                    self.arm(slot, self.state.config.io_timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Too many connections: answer `503` + `Retry-After` best-effort
    /// and drop. The write lands in the socket's send buffer, so a
    /// blocking write is unnecessary (and would stall the loop).
    fn refuse(&mut self, mut stream: TcpStream) {
        self.state.metrics.overloaded_total.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nonblocking(true);
        let body = error_response(503, "overloaded", "connection limit reached; retry")
            .with_retry_after(1)
            .to_bytes(false);
        let _ = stream.write(&body);
    }

    /// Arms (or re-arms) the connection's single timer.
    fn arm(&mut self, slot: usize, after: Duration) {
        self.timer_seq += 1;
        let seq = self.timer_seq;
        if let Some(conn) = self.conns.get_mut(slot) {
            conn.timer_gen = seq;
            self.timers.schedule(token_of(slot), seq, Instant::now() + after);
        }
    }

    /// Cancels the connection's timer (lazily — the wheel entry stays
    /// and fails the generation check when it fires).
    fn disarm(&mut self, slot: usize) {
        self.timer_seq += 1;
        let seq = self.timer_seq;
        if let Some(conn) = self.conns.get_mut(slot) {
            conn.timer_gen = seq;
        }
    }

    fn on_timer(&mut self, slot: usize, generation: u64) {
        let Some(conn) = self.conns.get(slot) else { return };
        if conn.timer_gen != generation {
            return; // superseded or cancelled
        }
        match conn.phase {
            Phase::Reading => {
                if conn.buf.is_empty() && conn.served > 0 {
                    // Idle keep-alive expiry: close silently.
                    self.teardown(slot);
                } else {
                    // The request never arrived, or is dripping in too
                    // slowly (slowloris): one 408, then close.
                    self.state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                    self.queue_response(
                        slot,
                        error_response(408, "bad-request", "request timed out"),
                        false,
                    );
                }
            }
            // Response bytes pending but the socket accepted nothing
            // for a whole io_timeout: the client stopped reading.
            Phase::Dispatched | Phase::Finishing { .. } => self.teardown(slot),
        }
    }

    fn on_readable(&mut self, slot: usize) {
        enum ReadEnd {
            Open,
            Eof,
            Dead,
        }
        let max_buffer = 2 * self.state.config.max_body_bytes + 64 * 1024;
        let Some(conn) = self.conns.get_mut(slot) else { return };
        if conn.read_closed {
            return;
        }
        let was_empty = conn.buf.is_empty();
        let mut end = ReadEnd::Open;
        let mut scratch = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    end = ReadEnd::Eof;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&scratch[..n]);
                    if conn.buf.len() > max_buffer {
                        end = ReadEnd::Dead;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    end = ReadEnd::Dead;
                    break;
                }
            }
        }
        if matches!(end, ReadEnd::Dead) {
            self.teardown(slot);
            return;
        }
        if conn.req_start_ns.is_none() && !conn.buf.is_empty() {
            conn.req_start_ns = Some(mst_obs::now_ns());
        }
        let reading = {
            let conn = self.conns.get_mut(slot).expect("checked above");
            conn.phase == Phase::Reading
        };
        if reading {
            if was_empty {
                let has_bytes = self.conns.get(slot).is_some_and(|c| !c.buf.is_empty());
                if has_bytes {
                    // First bytes of a request supersede the keep-alive
                    // timer with the io budget — armed once, so a
                    // byte-at-a-time drip cannot push it out forever.
                    self.arm(slot, self.state.config.io_timeout);
                }
            }
            self.parse_ready(slot);
        }
        if matches!(end, ReadEnd::Eof) {
            self.on_eof(slot);
        }
    }

    /// The peer half-closed (FIN). In-flight work sees it through the
    /// mailbox flag ([`StreamWriter::client_gone`] — FIN reads as
    /// *abandoned*); a partial request becomes one `400`; a clean idle
    /// connection just closes.
    fn on_eof(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        if conn.read_closed {
            return;
        }
        conn.read_closed = true;
        if let Some(shared) = &conn.shared {
            shared.read_closed.store(true, Ordering::Relaxed);
        }
        let phase = conn.phase;
        let buf_empty = conn.buf.is_empty();
        match phase {
            Phase::Reading if buf_empty => {
                self.teardown(slot);
                return;
            }
            Phase::Reading => {
                self.state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                self.queue_response(
                    slot,
                    error_response(400, "bad-request", "truncated request"),
                    false,
                );
            }
            _ => {}
        }
        self.update_interest(slot);
    }

    /// Feeds buffered bytes to the incremental parser; a complete
    /// request goes to the dispatch pool (or is refused `503` when the
    /// hand-off queue is full).
    fn parse_ready(&mut self, slot: usize) {
        let max_body = self.state.config.max_body_bytes;
        let Some(conn) = self.conns.get_mut(slot) else { return };
        if conn.phase != Phase::Reading {
            return;
        }
        match http::try_parse(&mut conn.buf, max_body) {
            Ok(Parsed::Partial) => {}
            Ok(Parsed::Complete(request)) => {
                conn.served += 1;
                let parsed_ns = mst_obs::now_ns();
                let start_ns = conn.req_start_ns.take().unwrap_or(parsed_ns);
                // Leftover buffered bytes are the next pipelined
                // request: they have already "arrived".
                if !conn.buf.is_empty() {
                    conn.req_start_ns = Some(parsed_ns);
                }
                let trace = mst_obs::begin_trace();
                let may_keep = request.keep_alive
                    && conn.served < self.state.config.max_requests_per_connection.max(1)
                    && !conn.read_closed
                    && !self.shutting_down;
                let shared = Arc::new(ConnShared {
                    slot,
                    generation: self.gens[slot],
                    gone: AtomicBool::new(false),
                    read_closed: AtomicBool::new(conn.read_closed),
                    out: Mutex::new(SharedOut::default()),
                    cond: Condvar::new(),
                    ready: Mutex::new(self.ready_tx.clone()),
                    waker: self.waker.clone(),
                    high_water: self.state.config.stream_high_water.max(1),
                });
                conn.phase = Phase::Dispatched;
                conn.shared = Some(Arc::clone(&shared));
                self.disarm(slot);
                let job = Job { request, shared, may_keep, trace, start_ns, parsed_ns };
                match self.dispatch.try_send(job) {
                    Ok(()) => {}
                    Err(mpsc::TrySendError::Full(_job)) => {
                        // Dispatch queue full: refuse loudly (503 +
                        // Retry-After) rather than buffer.
                        self.state.metrics.overloaded_total.fetch_add(1, Ordering::Relaxed);
                        self.state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                        if let Some(conn) = self.conns.get_mut(slot) {
                            conn.shared = None;
                        }
                        self.queue_response(
                            slot,
                            error_response(503, "overloaded", "dispatch queue is full; retry")
                                .with_retry_after(1),
                            false,
                        );
                    }
                    Err(mpsc::TrySendError::Disconnected(_job)) => self.teardown(slot),
                }
            }
            Err(e) => {
                self.state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
                self.queue_response(
                    slot,
                    error_response(e.status(), "bad-request", &e.message()),
                    false,
                );
            }
        }
    }

    /// Queues a loop-generated response (errors, refusals) and starts
    /// flushing it.
    fn queue_response(&mut self, slot: usize, response: Response, keep: bool) {
        if response.status >= 400 {
            self.state.metrics.http_errors_total.fetch_add(1, Ordering::Relaxed);
        }
        let bytes = response.to_bytes(keep);
        let Some(conn) = self.conns.get_mut(slot) else { return };
        conn.out.extend_from_slice(&bytes);
        conn.phase = Phase::Finishing { keep_alive: keep };
        conn.shared = None;
        self.arm(slot, self.state.config.io_timeout); // write watchdog
        self.service_out(slot);
    }

    /// Drains the mailbox into the connection's outbound buffer and the
    /// buffer into the socket, looping while both make progress.
    fn service_out(&mut self, slot: usize) {
        loop {
            self.flush_out(slot);
            if self.conns.get(slot).is_none() {
                return;
            }
            if !self.pump_from_shared(slot) {
                return;
            }
        }
    }

    /// Moves mailbox bytes into `conn.out` (bounded by the high-water
    /// mark) and notices response completion. Returns whether anything
    /// changed.
    fn pump_from_shared(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns.get_mut(slot) else { return false };
        let Some(shared) = conn.shared.clone() else { return false };
        if conn.out_pending() >= shared.high_water {
            return false; // flush the socket first; mailbox can wait
        }
        let out_was_empty = conn.out_pending() == 0;
        let moved;
        let done;
        {
            let mut out = shared.out.lock().unwrap_or_else(|e| e.into_inner());
            moved = !out.bytes.is_empty();
            if moved {
                conn.out.extend_from_slice(&out.bytes);
                out.bytes.clear();
                shared.cond.notify_all();
            }
            done = out.done;
        }
        let mut progressed = moved;
        if moved && out_was_empty {
            // First unflushed bytes: start the write watchdog.
            self.arm(slot, self.state.config.io_timeout);
        }
        if let Some(keep) = done {
            if let Some(conn) = self.conns.get_mut(slot) {
                conn.phase = Phase::Finishing { keep_alive: keep };
                conn.shared = None;
                progressed = true;
            }
        }
        self.update_interest(slot);
        progressed
    }

    /// Writes `conn.out` to the socket as far as it will go; completes
    /// or tears down the connection as the state dictates.
    fn flush_out(&mut self, slot: usize) {
        enum WriteEnd {
            Ok,
            Dead,
        }
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let mut progressed = false;
        let mut end = WriteEnd::Ok;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    end = WriteEnd::Dead;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    end = WriteEnd::Dead;
                    break;
                }
            }
        }
        if matches!(end, WriteEnd::Dead) {
            self.teardown(slot);
            return;
        }
        let drained = conn.out_pos >= conn.out.len();
        if drained {
            conn.out.clear();
            conn.out_pos = 0;
        }
        let phase = conn.phase;
        if drained {
            match phase {
                Phase::Finishing { keep_alive } => {
                    self.complete_request(slot, keep_alive);
                    return;
                }
                // Out buffer drained mid-request: the watchdog only
                // guards unflushed bytes, stop it.
                Phase::Dispatched => self.disarm(slot),
                Phase::Reading => {}
            }
        } else if progressed {
            // The client is consuming: reset the write watchdog.
            self.arm(slot, self.state.config.io_timeout);
        }
        self.update_interest(slot);
    }

    /// One response fully flushed: close, or return to `Reading` for
    /// the next keep-alive request.
    fn complete_request(&mut self, slot: usize, keep_alive: bool) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        if !keep_alive || conn.read_closed || self.shutting_down {
            self.teardown(slot);
            return;
        }
        conn.phase = Phase::Reading;
        let idle = conn.buf.is_empty();
        if idle {
            self.arm(slot, self.state.config.keep_alive_timeout);
        } else {
            // Pipelined bytes are already waiting.
            self.arm(slot, self.state.config.io_timeout);
            self.parse_ready(slot);
        }
        self.update_interest(slot);
    }

    /// Keeps the poller registration in step with what the connection
    /// can use: read interest until the peer half-closes, write
    /// interest only while output is pending.
    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot) else { return };
        let want =
            Interest { readable: !conn.read_closed, writable: conn.out_pending() > 0, edge: false };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token_of(slot), want).is_ok() {
                if let Some(conn) = self.conns.get_mut(slot) {
                    conn.interest = want;
                }
            }
        }
    }

    /// Removes the connection: closes the socket, invalidates mailbox
    /// messages and timers addressed to it, and unblocks its worker.
    fn teardown(&mut self, slot: usize) {
        if let Some(conn) = self.conns.remove(slot) {
            self.gens[slot] += 1;
            if let Some(shared) = conn.shared {
                shared.mark_gone();
            }
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            // Dropping the stream closes the fd.
        }
    }
}
