//! Load phases against a live server: open-loop arrivals on a seeded
//! schedule, the closed sweep loop, and the capacity search.
//!
//! Open loop follows the coordinated-omission rule: each request is
//! timed from its *scheduled* send, so when the server stalls, the
//! requests queued behind the stall carry its delay. Each connection
//! has one request in flight; a connection that falls behind sends its
//! overdue requests back to back. The generator's own lateness (`lag`)
//! is the send time minus the later of the due time and the moment the
//! connection became free: it is what the client adds, not the server.

use crate::client::{check, Conn};
use crate::stats::{median, Rng, Samples};
use crate::workload::{Inputs, Picker};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The counts and samples of one phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    pub name: String,
    /// Scheduled requests per second (open loop; 0 for closed loop).
    pub offered: f64,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Latency of each checked reply, ms.
    pub latency_ms: Samples,
    /// Generator lateness of each send, ms.
    pub lag_ms: Samples,
    /// Phase start to its last reply, s.
    pub elapsed: f64,
    pub first_error: Option<String>,
}

impl PhaseStats {
    /// Checked replies per second over the phase.
    pub fn achieved(&self) -> f64 {
        self.ok as f64 / self.elapsed.max(1e-9)
    }

    /// Appends a phase run after this one: samples and counts add up,
    /// and so does the time.
    pub fn append(&mut self, other: PhaseStats) {
        let elapsed = self.elapsed + other.elapsed;
        self.merge(other);
        self.elapsed = elapsed;
    }

    fn merge(&mut self, other: PhaseStats) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latency_ms.extend(&other.latency_ms);
        self.lag_ms.extend(&other.lag_ms);
        self.elapsed = self.elapsed.max(other.elapsed);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    fn record(&mut self, outcome: Result<(), String>, latency: Duration) {
        self.sent += 1;
        match outcome {
            Ok(()) => {
                self.ok += 1;
                self.latency_ms.push(latency.as_secs_f64() * 1e3);
            }
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// Poisson arrival offsets (µs) at `rate` per second over `seconds`.
pub fn poisson(rate: f64, seconds: f64, rng: &mut Rng) -> Vec<u64> {
    let horizon = seconds * 1e6;
    let mut at = 0.0;
    let mut offsets = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        at += -rng.unit().ln() / rate * 1e6;
        if at >= horizon {
            return offsets;
        }
        offsets.push(at as u64);
    }
}

/// Narrows this thread's timer slack so a sleep wakes within a few µs
/// of its deadline instead of the default 50 µs: the sends keep to the
/// schedule without spinning on cores the server needs.
fn tight_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) only sets the calling
    // thread's timer slack to n ns; it reads no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// One lowest-priority (`SCHED_IDLE`) spinning thread per core for as
/// long as this value lives. On a virtual machine an idle vCPU halts,
/// and waking it again costs the hypervisor up to several ms: on the
/// reference box that wake-up, not the program, set the latency tail (a
/// bare loopback echo at 2,000 req/s showed p99 of 1.7–10 ms; with the
/// spinners, 0.13–0.14 ms). A spinner keeps its core awake and yields at
/// once to any runnable thread, so it takes no CPU the server or the
/// client could use.
#[derive(Debug)]
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Spinners {
    pub fn start() -> Spinners {
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let priority = 0i32;
                    // SAFETY: the call reads one `struct sched_param`
                    // (a single int) through the pointer, which points
                    // at a live local; pid 0 is the calling thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                        return; // no idle class: spinning would steal CPU
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Runs one open-loop phase: request `picks[i]` is due `offsets[i]` µs
/// after the start; arrival `i` goes out on connection `i % conns`.
pub fn open_loop(
    name: &str,
    addr: SocketAddr,
    inputs: &Inputs,
    picks: &[usize],
    offsets: &[u64],
    seconds: f64,
    conns: usize,
) -> PhaseStats {
    let start = Instant::now() + Duration::from_millis(5);
    let parts: Vec<PhaseStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|t| {
                scope.spawn(move || {
                    tight_timer_slack();
                    let mut conn = Conn::new(addr);
                    let mut stats = PhaseStats::default();
                    for i in (t..picks.len()).step_by(conns) {
                        let due = start + Duration::from_micros(offsets[i]);
                        let free = Instant::now();
                        if let Some(wait) = due.checked_duration_since(free) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        stats.lag_ms.push(sent.duration_since(due.max(free)).as_secs_f64() * 1e3);
                        let req = &inputs.reqs[picks[i]];
                        let outcome = match conn.exchange(&req.bytes) {
                            Ok(reply) => check(&reply, &req.expect),
                            Err(e) => Err(format!("transport: {e}")),
                        };
                        let done = Instant::now();
                        stats.record(outcome, done.duration_since(due));
                        stats.elapsed = done.duration_since(start).as_secs_f64();
                    }
                    stats
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load worker panicked")).collect()
    });
    let mut total = PhaseStats {
        name: name.to_string(),
        offered: picks.len() as f64 / seconds,
        ..PhaseStats::default()
    };
    for part in parts {
        total.merge(part);
    }
    total
}

/// Closed loop for `seconds` or `max` requests, whichever ends first:
/// each connection sends its next request as soon as the previous reply
/// is checked. Requests come from `picker`.
pub fn closed_loop(
    name: &str,
    addr: SocketAddr,
    inputs: &Inputs,
    picker: &mut Picker,
    seconds: f64,
    max: usize,
    conns: usize,
) -> PhaseStats {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let left = std::sync::atomic::AtomicUsize::new(max);
    let picker = Mutex::new(picker);
    let parts: Vec<PhaseStats> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let (picker, left) = (&picker, &left);
                scope.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut stats = PhaseStats::default();
                    let mut free = Instant::now();
                    while Instant::now() < end
                        && left
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                                n.checked_sub(1)
                            })
                            .is_ok()
                    {
                        let pick = picker.lock().expect("picker poisoned").next(inputs);
                        let req = &inputs.reqs[pick];
                        let sent = Instant::now();
                        // A closed loop is due the moment its last reply
                        // is in: its lag is the client's own turnaround.
                        stats.lag_ms.push(sent.duration_since(free).as_secs_f64() * 1e3);
                        let outcome = match conn.exchange(&req.bytes) {
                            Ok(reply) => check(&reply, &req.expect),
                            Err(e) => Err(format!("transport: {e}")),
                        };
                        let done = Instant::now();
                        stats.record(outcome, done.duration_since(sent));
                        stats.elapsed = done.duration_since(start).as_secs_f64();
                        free = done;
                    }
                    stats
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load worker panicked")).collect()
    });
    let mut total = PhaseStats { name: name.to_string(), ..PhaseStats::default() };
    for part in parts {
        total.merge(part);
    }
    total
}

/// Sends the warm-up requests once each, in order, untimed.
pub fn warm(addr: SocketAddr, inputs: &Inputs, conns: usize) -> PhaseStats {
    let picks: Vec<usize> = (0..inputs.warmup).collect();
    let offsets = vec![0; picks.len()];
    open_loop("warmup", addr, inputs, &picks, &offsets, 1.0, conns)
}

/// Whether a capacity step met all three conditions.
fn step_passes(step: &PhaseStats, p99_limit_ms: f64) -> bool {
    step.failed == 0
        && step.achieved() >= 0.97 * step.offered
        && step.latency_ms.pct(99.0) <= p99_limit_ms
}

/// The result of the capacity search.
#[derive(Debug, Default)]
pub struct Capacity {
    /// The highest offered rate that passed, req/s.
    pub rate: f64,
    /// Closed-loop throughput at saturation: the median of its windows.
    pub saturated: f64,
    pub steps: Vec<PhaseStats>,
}

/// Closed-loop windows of the saturation probe.
pub const PROBE_WINDOWS: usize = 3;
/// The ladder of offered rates, as shares of the saturation throughput.
/// One connection per core with one request in flight cannot carry more
/// than the probe did, so the knee lies below 1.
pub const LADDER: [f64; 8] = [0.50, 0.60, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95];

/// Finds the highest offered rate at which every request succeeds, the
/// achieved rate keeps up (≥ 97% of offered) and p99 stays under the
/// limit. A closed-loop probe measures saturation (the median of a few
/// windows); the open-loop steps then climb a fixed ladder of shares of
/// it, and the capacity is the highest step that passed. A step the host
/// stalls fails alone: it cannot drag a bisection below the knee.
/// `next` books the requests of the step just run and returns the
/// server's address for the next one.
pub fn capacity(
    next: &mut dyn FnMut(u64) -> Result<SocketAddr, String>,
    inputs: &Inputs,
    picker: &mut Picker,
    p99_limit_ms: f64,
    step_seconds: f64,
    conns: usize,
    rng: &mut Rng,
) -> Result<Capacity, String> {
    let mut result = Capacity::default();
    let mut sent = 0;
    let mut windows = Vec::new();
    for w in 0..PROBE_WINDOWS {
        let addr = next(sent)?;
        let probe = closed_loop(
            &format!("saturation{w}"),
            addr,
            inputs,
            picker,
            step_seconds / 2.0,
            usize::MAX,
            conns,
        );
        windows.push(probe.achieved());
        sent = probe.sent;
        result.steps.push(probe);
    }
    result.saturated = median(&windows);
    for share in LADDER {
        let addr = next(sent)?;
        let rate = share * result.saturated;
        let offsets = poisson(rate, step_seconds, rng);
        let picks = picker.take(inputs, offsets.len());
        let step = open_loop(
            &format!("step@{rate:.0}"),
            addr,
            inputs,
            &picks,
            &offsets,
            step_seconds,
            conns,
        );
        if step_passes(&step, p99_limit_ms) {
            result.rate = rate;
        }
        sent = step.sent;
        result.steps.push(step);
    }
    Ok(result)
}
