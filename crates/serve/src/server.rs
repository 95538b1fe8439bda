//! The [`Server`]: bind, shared [`ServiceState`], and the hand-off to
//! the epoll event loop ([`crate::event`]) that drives
//! [`crate::routes::route_on`].
//!
//! Architecture (everything `std`, nothing async):
//!
//! * one **loop thread** owns the listener and every client socket via
//!   [`mst_net::Poller`]; parked keep-alive connections cost bytes, not
//!   threads, and handlers run on a small **dispatch pool** of
//!   [`ServeConfig::conn_threads`] threads fed through a hand-off queue
//!   that [`ServeConfig::max_connections`] bounds, like the sockets;
//! * connections are **persistent** (HTTP/1.1 keep-alive) up to
//!   [`ServeConfig::max_requests_per_connection`], so a client sweeping
//!   many instances pays the TCP handshake once;
//! * **solving** goes through the pooled [`mst_api::Batch`] engine — the
//!   same persistent [`mst_sim::WorkerPool`] the library batch path
//!   uses, sized by [`ServeConfig::threads`] (or the process-wide shared
//!   pool when unset);
//! * **shutdown** is a flag the loop checks on every poll tick: set by
//!   [`ServerHandle::shutdown`], or by SIGINT/ctrl-c once
//!   [`install_sigint_handler`] is active. The loop then stops
//!   accepting, closes idle connections, lets in-flight requests
//!   finish, joins the dispatch pool and returns a [`ServeReport`].
//!
//! The event loop needs Linux epoll; elsewhere the crate compiles but
//! [`Server::run`] fails with [`io::ErrorKind::Unsupported`].

#[cfg(target_os = "linux")]
use crate::event::run_event;
use crate::metrics::Metrics;
use mst_api::{Batch, ExecPolicy, RegistrySet, TenantExec};
use mst_sim::{shared_pool, WorkerPool};
use mst_store::{FileStore, StoreBackend};
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the service is wired: address, parallelism and safety caps.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:8080` (port 0 picks a free one).
    pub addr: String,
    /// Total solve parallelism. `None` uses the process-wide shared
    /// pool; `Some(n)` gives the server a dedicated
    /// [`WorkerPool::with_parallelism`] pool of `n`.
    pub threads: Option<usize>,
    /// Dispatch threads: the pool that runs the handlers for requests
    /// the event loop has parsed.
    pub conn_threads: usize,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Largest instance count a single `/batch` request may solve.
    pub max_batch_instances: usize,
    /// Largest task budget a single instance may carry — a bare number
    /// in the body must not be able to request an unbounded amount of
    /// scheduling work.
    pub max_tasks_per_instance: usize,
    /// Largest processor count a `/batch` generator spec may ask for
    /// (explicit platforms are already bounded by
    /// [`ServeConfig::max_body_bytes`], but `"size"` is just a number).
    pub max_platform_processors: usize,
    /// Per-request I/O budget: a request not fully received this long
    /// after the connection opened (first request) or after its first
    /// byte (later requests) is answered `408`, and a connection whose
    /// client takes no response bytes for this long is torn down.
    pub io_timeout: Duration,
    /// How long a keep-alive connection may sit **idle** between
    /// requests before the server closes it silently. An idle
    /// connection costs a slab entry and its buffers, so this bounds
    /// memory held by silent peers, not threads.
    pub keep_alive_timeout: Duration,
    /// Requests served over one keep-alive connection before the server
    /// forces `Connection: close`, so one client cannot hold a
    /// connection slot forever.
    pub max_requests_per_connection: usize,
    /// Instances solved per chunk on the `/batch` path. Chunk
    /// boundaries are the service's cancellation checkpoints: between
    /// chunks the handler polls the request's deadline budget and
    /// probes the client socket, so an abandoned or over-budget sweep
    /// stops within one chunk of work.
    pub batch_chunk: usize,
    /// Config-driven tenants (`mst serve --solvers-config`): the set's
    /// default registry backs anonymous requests; named tenant specs
    /// become per-tenant [`TenantExec`]s routable by `X-Api-Token`
    /// header (and their registries stay selectable per request via
    /// the `"registry"` body field). `None` serves the built-in global
    /// registry with no tenant policies.
    pub registries: Option<RegistrySet>,
    /// Path of the persistent result store (`mst serve --store`). When
    /// set, every solved instance is appended to an [`FileStore`]
    /// record log, `GET /history` serves it, and binding **warm-starts**
    /// each tenant's solution cache from the prior records — a
    /// restarted server answers repeated instances from cache
    /// immediately. `None` serves without persistence.
    pub store: Option<String>,
    /// A pre-built store backend, taking precedence over
    /// [`ServeConfig::store`] when set. This is the injection point for
    /// degraded-mode tests and embedders: hand the server a
    /// [`mst_store::FlakyStore`] (or any custom backend) and watch the
    /// solve path keep serving while appends fail.
    pub store_backend: Option<Arc<dyn StoreBackend>>,
    /// Most connections the event loop holds open at once; beyond it,
    /// new connections are answered `503` + `Retry-After: 1` at accept.
    /// It also bounds the requests queued for the dispatch threads: each
    /// open connection has at most one there, so the queue fills only
    /// with requests whose clients left while queued, and a request
    /// parsed while it is full gets the same `503`. The server raises
    /// `RLIMIT_NOFILE` toward this at startup.
    pub max_connections: usize,
    /// Per-connection outbound high-water mark, in bytes. A streaming
    /// handler that outruns its client blocks once this much output is
    /// buffered — backpressure instead of unbounded server memory.
    pub stream_high_water: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            threads: None,
            conn_threads: 8,
            max_body_bytes: 1024 * 1024,
            max_batch_instances: 100_000,
            max_tasks_per_instance: 1_000_000,
            max_platform_processors: 10_000,
            io_timeout: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(1),
            max_requests_per_connection: 256,
            batch_chunk: 512,
            registries: None,
            store: None,
            store_backend: None,
            max_connections: 10_000,
            stream_high_water: 256 * 1024,
        }
    }
}

/// Live health of the persistent-store write path.
///
/// A failing append must never fail the solve that produced the record:
/// the service flips to **store-degraded** instead — results keep
/// flowing, `/healthz` reports `"store_degraded"`, and the append path
/// retries with bounded exponential backoff (attempts inside the
/// backoff window are skipped outright, so a dead disk cannot add an
/// I/O error's latency to every solve). The first successful append
/// clears the state.
#[derive(Debug, Default)]
pub struct StoreHealth {
    degraded: AtomicBool,
    consecutive_failures: AtomicU64,
    /// Appends that returned an error.
    failures_total: AtomicU64,
    /// Append attempts made while degraded (recovery probes).
    retries_total: AtomicU64,
    /// Times the store came back after being degraded.
    recoveries_total: AtomicU64,
    backoff_until: Mutex<Option<Instant>>,
}

/// Longest the degraded store waits between recovery probes.
const STORE_BACKOFF_CAP: Duration = Duration::from_secs(8);
/// Backoff after the first failure; doubles per consecutive failure.
const STORE_BACKOFF_BASE: Duration = Duration::from_millis(250);

impl StoreHealth {
    /// Whether the append path should try the store right now: always
    /// when healthy; while degraded, only once the current backoff
    /// window has elapsed (such an attempt is counted as a retry).
    pub fn should_attempt(&self) -> bool {
        if !self.degraded.load(Ordering::Relaxed) {
            return true;
        }
        let until = *self.backoff_until.lock().unwrap_or_else(|e| e.into_inner());
        match until {
            Some(until) if Instant::now() < until => false,
            _ => {
                self.retries_total.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    /// Records a successful append; clears degradation if present.
    pub fn record_success(&self) {
        if self.degraded.swap(false, Ordering::Relaxed) {
            self.recoveries_total.fetch_add(1, Ordering::Relaxed);
        }
        self.consecutive_failures.store(0, Ordering::Relaxed);
        *self.backoff_until.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Records a failed append: enters (or deepens) degradation and arms
    /// the next bounded-backoff window.
    pub fn record_failure(&self) {
        self.failures_total.fetch_add(1, Ordering::Relaxed);
        let streak = self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        self.degraded.store(true, Ordering::Relaxed);
        let backoff = STORE_BACKOFF_BASE.saturating_mul(1u32 << streak.min(5) as u32);
        let backoff = backoff.min(STORE_BACKOFF_CAP);
        *self.backoff_until.lock().unwrap_or_else(|e| e.into_inner()) =
            Some(Instant::now() + backoff);
    }

    /// Whether the store write path is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Appends that returned an error, lifetime total.
    pub fn failures_total(&self) -> u64 {
        self.failures_total.load(Ordering::Relaxed)
    }

    /// Recovery probes attempted while degraded, lifetime total.
    pub fn retries_total(&self) -> u64 {
        self.retries_total.load(Ordering::Relaxed)
    }

    /// Times the store recovered from degradation, lifetime total.
    pub fn recoveries_total(&self) -> u64 {
        self.recoveries_total.load(Ordering::Relaxed)
    }
}

/// Shared service state: the per-tenant execution policies, metrics,
/// caps and the shutdown flag.
pub struct ServiceState {
    /// The **default** tenant's solve engine (anonymous requests) —
    /// kept as a direct field because most requests take it.
    pub batch: Batch,
    /// The default tenant's executable policy (admission, deadline
    /// budget, stats for anonymous traffic).
    default_exec: TenantExec,
    /// Named per-tenant execution policies, routable by `X-Api-Token`
    /// header. Tenants with a `threads` budget solve on their own
    /// dedicated [`WorkerPool`]; the rest share the default pool.
    tenants: Vec<TenantExec>,
    /// The legacy anonymous `"registry"` body selector's engines: each
    /// named tenant's *registry* over the **default** tenant's pool.
    /// Deliberately not the tenant's dedicated pool — an
    /// unauthenticated request must never occupy (or starve) a pool a
    /// tenant paid for with its token, and it runs under the default
    /// tenant's admission policy, so it gets the default tenant's
    /// machine.
    selector_batches: Vec<(String, Batch)>,
    /// The persistent result store (`--store`); `None` when the server
    /// runs without persistence.
    pub store: Option<Arc<dyn StoreBackend>>,
    /// Degradation state of the store write path: a failing append
    /// never fails a solve, it flips this instead.
    pub store_health: StoreHealth,
    /// Live sessions held by `POST /session` tenants.
    pub sessions: crate::session::SessionTable,
    /// The transport's counters (the rest of `/metrics` is counted
    /// per tenant).
    pub metrics: Metrics,
    /// Per-route and per-tenant latency histograms (`/metrics`,
    /// `mst top`).
    pub obs: mst_obs::Obs,
    /// The event loop's poller activity counters (set once by the loop
    /// at boot; empty until [`Server::run`] starts).
    pub poll_stats: std::sync::OnceLock<Arc<mst_net::PollStats>>,
    /// Config snapshot (caps consulted by the routes).
    pub config: ServeConfig,
    /// When the server started (uptime reporting).
    pub started: Instant,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for ServiceState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceState").field("config", &self.config).finish_non_exhaustive()
    }
}

impl ServiceState {
    /// Whether shutdown has been requested (handle or SIGINT).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || mst_net::sigint_received()
    }

    /// The engine an anonymous request resolves against: the default
    /// batch, or the named tenant *registry* over the default pool
    /// (the registry selector pins a solver set, never another
    /// tenant's machine); `None` when the name is not configured (the
    /// routes answer 404 rather than silently falling back).
    pub fn batch_for(&self, registry: Option<&str>) -> Option<&Batch> {
        match registry {
            None => Some(&self.batch),
            Some(name) => self.selector_batches.iter().find(|(n, _)| n == name).map(|(_, b)| b),
        }
    }

    /// The execution policy a request runs under: the default tenant
    /// when no token is presented, the matching named tenant otherwise;
    /// `Err` carries the unmatched token (the routes answer 401 rather
    /// than silently running the request as the default tenant).
    pub fn tenant_for<'t>(&self, token: Option<&'t str>) -> Result<&TenantExec, &'t str> {
        match token {
            None => Ok(&self.default_exec),
            Some(token) => {
                self.tenants.iter().find(|t| t.policy().effective_token() == token).ok_or(token)
            }
        }
    }

    /// The default tenant's executable policy.
    pub fn default_exec(&self) -> &TenantExec {
        &self.default_exec
    }

    /// Every tenant policy: the default first, then the named tenants
    /// in config order (drives the per-tenant `/metrics` section).
    pub fn execs(&self) -> impl Iterator<Item = &TenantExec> {
        std::iter::once(&self.default_exec).chain(self.tenants.iter())
    }

    /// Requests currently admitted across all tenants — the service's
    /// live queue-depth gauge.
    pub fn queue_depth(&self) -> usize {
        self.execs().map(TenantExec::queue_depth).sum()
    }

    /// The configured tenant registry names, in config order.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.iter().map(|t| t.policy().name.as_str()).collect()
    }
}

/// A clonable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServiceState>,
    addr: SocketAddr,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown: the event loop stops accepting within
    /// one poll tick, closes idle connections, lets in-flight requests
    /// finish and joins the dispatch threads.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
    }

    /// The shared state (metrics inspection in tests and the CLI).
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// The shared state as its `Arc`, for callers that drive
    /// [`crate::routes::route_on`] without a transport.
    pub fn state_arc(&self) -> &Arc<ServiceState> {
        &self.state
    }
}

/// What a completed [`Server::run`] saw, for operator logs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests routed.
    pub requests: u64,
    /// Instances solved, summed over tenants.
    pub solved: u64,
}

/// The HTTP front-end: bind, then [`Server::run`].
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    addr: SocketAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the configured address and prepares the solve engine. The
    /// listener is non-blocking, as the event loop in [`Server::run`]
    /// requires.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let addrs: Vec<SocketAddr> = config
            .addr
            .to_socket_addrs()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
            .collect();
        let listener = TcpListener::bind(&addrs[..])?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let pool = match config.threads {
            Some(threads) => Arc::new(WorkerPool::with_parallelism(threads)),
            None => shared_pool(),
        };
        let (default_exec, tenants) = match &config.registries {
            Some(set) => {
                let default = TenantExec::new(
                    ExecPolicy::from_limits(
                        "default",
                        set.default_registry().clone(),
                        set.default_limits(),
                    ),
                    Arc::clone(&pool),
                );
                let tenants = set
                    .tenants()
                    .map(|(name, registry, limits)| {
                        TenantExec::new(
                            ExecPolicy::from_limits(name, registry.clone(), limits),
                            Arc::clone(&pool),
                        )
                    })
                    .collect();
                (default, tenants)
            }
            None => (
                TenantExec::new(
                    ExecPolicy::new("default", mst_api::SolverRegistry::global().clone()),
                    Arc::clone(&pool),
                ),
                Vec::new(),
            ),
        };
        let batch = default_exec.batch().clone();
        let selector_batches = match &config.registries {
            Some(set) => set
                .tenants()
                .map(|(name, registry, _)| {
                    (
                        name.to_string(),
                        Batch::new(registry.clone()).with_pool(Arc::clone(batch.pool())),
                    )
                })
                .collect(),
            None => Vec::new(),
        };
        let store: Option<Arc<dyn StoreBackend>> = match (&config.store_backend, &config.store) {
            (Some(backend), _) => Some(Arc::clone(backend)),
            (None, Some(path)) => Some(Arc::new(FileStore::open(path)?)),
            (None, None) => None,
        };
        if let Some(store) = &store {
            warm_start(store.as_ref(), &default_exec, &tenants)?;
        }
        let state = Arc::new(ServiceState {
            batch,
            default_exec,
            tenants,
            selector_batches,
            store,
            store_health: StoreHealth::default(),
            sessions: crate::session::SessionTable::default(),
            metrics: Metrics::default(),
            obs: mst_obs::Obs::new(),
            poll_stats: std::sync::OnceLock::new(),
            config,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        });
        Ok(Server { listener, state, addr })
    }

    /// The bound address (resolves a requested port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state), addr: self.addr }
    }

    /// Serves until shutdown is requested, then drains in-flight
    /// requests and joins the dispatch threads before returning the
    /// lifetime counters. Fails with [`io::ErrorKind::Unsupported`] off
    /// Linux, where there is no epoll.
    pub fn run(self) -> io::Result<ServeReport> {
        run_event(self.listener, self.state)
    }
}

#[cfg(not(target_os = "linux"))]
fn run_event(_listener: TcpListener, _state: Arc<ServiceState>) -> io::Result<ServeReport> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "mst-serve requires Linux epoll"))
}

/// Preloads every tenant's solution cache from the persistent store, so
/// a restarted server answers repeated instances from cache on its
/// **first** request. The store reads back the records of the configured
/// tenants, oldest first (the log's order), and decodes each solution
/// once, so when a cache is smaller than the history its LRU keeps the
/// newest entries, exactly as if the records were solved again in order.
/// Each tenant's `store_records` gauge counts its records. Records of
/// tenants no longer in the config are not read, and records whose hash
/// or solution this build cannot decode (a store written by a newer
/// build) are counted but not cached. An I/O error while reading the
/// log fails the boot.
fn warm_start(
    store: &dyn StoreBackend,
    default_exec: &TenantExec,
    tenants: &[TenantExec],
) -> io::Result<()> {
    let execs: Vec<&TenantExec> = std::iter::once(default_exec).chain(tenants).collect();
    let names: Vec<&str> = execs.iter().map(|t| t.policy().name.as_str()).collect();
    store.replay(&names, &mut |tenant, solved| {
        let tenant = execs[tenant];
        tenant.stats().store_records.fetch_add(1, Ordering::Relaxed);
        if let Some((key, solution)) = solved {
            tenant.cache().insert(key, solution);
        }
    })
}

/// Completes a request's observability bookkeeping: latency histograms
/// (route + tenant, µs) and the trace table's finish record. Called
/// under the request's trace scope, so the record carries the spans
/// this thread buffered for it.
pub(crate) fn finish_request(
    state: &ServiceState,
    trace: u64,
    start_ns: u64,
    status: u16,
    notes: mst_obs::Notes,
    route: &str,
) {
    let total_ns = mst_obs::now_ns().saturating_sub(start_ns);
    let us = total_ns / 1_000;
    state.obs.observe_route(route, us);
    state.obs.observe_tenant(notes.tenant.as_deref().unwrap_or("default"), us);
    mst_obs::finish_trace(mst_obs::TraceMeta {
        id: trace,
        route: route.to_string(),
        status,
        start_ns,
        total_ns,
        notes,
    });
}

/// Installs a SIGINT (ctrl-c) handler that gracefully stops every
/// running [`Server`] in the process. Call once before [`Server::run`];
/// a no-op on non-unix targets. The libc registration itself lives in
/// [`mst_net::signal`] — this crate is `#![forbid(unsafe_code)]`.
pub use mst_net::install_sigint_handler;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        request(addr, &raw)
    }

    fn healthz(addr: SocketAddr) -> String {
        request(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    }

    #[test]
    fn binds_serves_and_shuts_down_cleanly() {
        let server =
            Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
                .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        let health = request(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.contains("\"status\":\"ok\""), "{health}");
        assert!(health.contains("Connection: close"), "{health}");

        handle.shutdown();
        let report = runner.join().expect("runner joins");
        assert_eq!(report.connections, 1);
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn keep_alive_connections_serve_multiple_requests() {
        let server =
            Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
                .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let read_one = |stream: &mut TcpStream| -> String {
            // Read exactly one response: headers, then Content-Length.
            let mut bytes = Vec::new();
            let mut byte = [0u8; 1];
            while !bytes.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).expect("response head");
                bytes.push(byte[0]);
            }
            let head = String::from_utf8_lossy(&bytes).to_string();
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("length header")
                .trim()
                .parse()
                .unwrap();
            let mut body = vec![0u8; length];
            stream.read_exact(&mut body).expect("response body");
            head + &String::from_utf8_lossy(&body)
        };

        // Two requests on one connection; the first stays open.
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let first = read_one(&mut stream);
        assert!(first.contains("Connection: keep-alive"), "{first}");
        assert!(first.contains("\"status\":\"ok\""), "{first}");
        stream.write_all(b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let second = read_one(&mut stream);
        assert!(second.contains("Connection: close"), "{second}");
        assert!(second.contains("\"requests_total\":2"), "{second}");

        handle.shutdown();
        let report = runner.join().expect("runner joins");
        assert_eq!(report.connections, 1, "one connection carried both requests");
        assert_eq!(report.requests, 2);
    }

    #[test]
    fn idle_keep_alive_connections_close_on_the_short_timeout() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            keep_alive_timeout: Duration::from_millis(100),
            io_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let started = Instant::now();
        // One response arrives, then the server closes the idle
        // connection after keep_alive_timeout — far sooner than the
        // 10s io_timeout a silent peer used to be able to occupy.
        let mut all = String::new();
        stream.read_to_string(&mut all).expect("EOF when the server closes");
        assert!(all.contains("Connection: keep-alive"), "{all}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "idle close took {:?}; the keep-alive timeout did not apply",
            started.elapsed()
        );

        handle.shutdown();
        let report = runner.join().expect("runner joins");
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn requests_per_connection_bound_forces_close() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_requests_per_connection: 2,
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Pipeline three keep-alive requests: the second response closes
        // the connection (bound reached), the third is never served.
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut all = String::new();
        stream.read_to_string(&mut all).unwrap();
        assert_eq!(all.matches("HTTP/1.1 200 OK").count(), 2, "{all}");
        assert!(all.contains("Connection: keep-alive"), "{all}");
        assert!(all.contains("Connection: close"), "{all}");

        handle.shutdown();
        let report = runner.join().expect("runner joins");
        assert_eq!(report.requests, 2);
    }

    #[test]
    fn dedicated_thread_pools_are_honoured() {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: Some(3),
            ..ServeConfig::default()
        })
        .expect("bind");
        assert_eq!(server.handle().state().batch.pool().workers(), 2);
        // Unset threads share the process-wide pool.
        let shared =
            Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
                .expect("bind");
        assert!(Arc::ptr_eq(shared.handle().state().batch.pool(), &mst_sim::shared_pool()));
    }

    #[test]
    fn anonymous_registry_selection_never_borrows_a_tenant_pool() {
        // The legacy "registry" body selector pins a solver set; it
        // must NOT hand an unauthenticated request a tenant's paid-for
        // dedicated pool (nor bypass that tenant's policy).
        let registries = mst_api::RegistrySet::parse(
            r#"{"registries": {"vip": {"threads": 2, "only": ["optimal"]}}}"#,
        )
        .unwrap();
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            registries: Some(registries),
            ..ServeConfig::default()
        })
        .expect("bind");
        let state = server.handle();
        let state = state.state();
        let selector = state.batch_for(Some("vip")).expect("configured name resolves");
        let tenant = state.tenant_for(Some("vip")).expect("token routes");
        assert!(
            Arc::ptr_eq(selector.pool(), state.batch.pool()),
            "the selector engine runs on the default tenant's pool"
        );
        assert!(
            !Arc::ptr_eq(selector.pool(), tenant.batch().pool()),
            "the tenant's dedicated pool stays its own"
        );
        // The solver *set* is still the tenant's.
        assert_eq!(selector.registry().names(), vec!["optimal"]);
        assert!(state.batch_for(Some("nope")).is_none());
    }

    #[test]
    fn store_health_backoff_skips_attempts_then_recovers() {
        let health = StoreHealth::default();
        assert!(health.should_attempt(), "a healthy store is always attempted");
        health.record_failure();
        assert!(health.is_degraded());
        assert_eq!(health.failures_total(), 1);
        assert!(!health.should_attempt(), "inside the armed backoff window");
        std::thread::sleep(Duration::from_millis(300));
        assert!(health.should_attempt(), "window elapsed: a recovery probe is allowed");
        assert_eq!(health.retries_total(), 1);
        health.record_success();
        assert!(!health.is_degraded());
        assert_eq!(health.recoveries_total(), 1);
        assert!(health.should_attempt());
    }

    #[test]
    fn a_failing_store_degrades_the_service_instead_of_failing_solves() {
        let path = std::env::temp_dir()
            .join(format!("mst-serve-test-{}-flaky-store.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let file = FileStore::open(&path).expect("open the temp store");
        let flaky = Arc::new(mst_store::FlakyStore::new(Arc::new(file)));
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            store_backend: Some(flaky.clone() as Arc<dyn StoreBackend>),
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        // Healthy: a solve lands one record.
        let ok = post(addr, "/solve", r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5}"#);
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert_eq!(flaky.len(), 1);
        assert!(healthz(addr).contains("\"status\":\"ok\""));

        // Break the store: solves keep answering 200, health flips.
        flaky.set_failing(true);
        let degraded = post(addr, "/solve", r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 6}"#);
        assert!(degraded.starts_with("HTTP/1.1 200"), "a dead store must not fail the solve");
        let health = healthz(addr);
        assert!(health.contains("\"status\":\"store_degraded\""), "{health}");
        assert!(health.contains("\"store_degraded\":true"), "{health}");
        assert!(handle.state().store_health.is_degraded());
        assert!(flaky.failed_appends() >= 1);

        // Heal the store: within a few backoff windows a probe append
        // succeeds and the service recovers on its own.
        flaky.set_failing(false);
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut tasks = 7usize;
        loop {
            std::thread::sleep(Duration::from_millis(150));
            let body = format!(r#"{{"platform": "chain\n2 3\n3 5\n", "tasks": {tasks}}}"#);
            let reply = post(addr, "/solve", &body);
            assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
            tasks += 1;
            let health = healthz(addr);
            if health.contains("\"status\":\"ok\"") {
                break;
            }
            assert!(Instant::now() < deadline, "store never recovered: {health}");
        }
        assert!(flaky.len() >= 2, "post-recovery solves append again");
        assert_eq!(handle.state().store_health.recoveries_total(), 1);

        handle.shutdown();
        runner.join().expect("runner joins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sessions_absorb_arrivals_and_repair_processor_failures() {
        let server =
            Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
                .expect("bind");
        let handle = server.handle();
        let addr = server.addr();
        let runner = std::thread::spawn(move || server.run().expect("run"));

        let created = post(
            addr,
            "/session",
            r#"{"op": "create", "platform": "chain\n2 3\n3 5\n", "tasks": 5, "solver": "optimal"}"#,
        );
        assert!(created.starts_with("HTTP/1.1 200"), "{created}");
        assert!(created.contains("\"session\":1"), "{created}");
        assert!(created.contains("\"processors\":2"), "{created}");
        assert!(healthz(addr).contains("\"sessions_open\":1"));

        // Three more tasks arrive: the held instance grows and re-solves.
        let grown = post(addr, "/session", r#"{"op": "arrive", "session": 1, "tasks": 3}"#);
        assert!(grown.starts_with("HTTP/1.1 200"), "{grown}");
        assert!(grown.contains("\"tasks\":8"), "{grown}");
        assert!(grown.contains("\"arrivals\":1"), "{grown}");

        // Processor 2 dies at t=0: the schedule is repaired onto the
        // surviving single-processor chain and the session becomes it.
        let repaired =
            post(addr, "/session", r#"{"op": "fail", "session": 1, "processor": 2, "at": 0}"#);
        assert!(repaired.starts_with("HTTP/1.1 200"), "{repaired}");
        assert!(repaired.contains("\"processors\":1"), "{repaired}");
        assert!(repaired.contains("\"failures\":1"), "{repaired}");
        assert!(repaired.contains("\"event_remaining\":8"), "{repaired}");

        // Snapshot, close, and a closed session is gone.
        let got = post(addr, "/session", r#"{"op": "get", "session": 1}"#);
        assert!(got.contains("\"failures\":1"), "{got}");
        let closed = post(addr, "/session", r#"{"op": "close", "session": 1}"#);
        assert!(closed.contains("\"closed\":true"), "{closed}");
        let gone = post(addr, "/session", r#"{"op": "get", "session": 1}"#);
        assert!(gone.starts_with("HTTP/1.1 404"), "{gone}");
        assert!(healthz(addr).contains("\"sessions_open\":0"));

        handle.shutdown();
        runner.join().expect("runner joins");
    }
}
