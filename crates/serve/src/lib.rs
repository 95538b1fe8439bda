//! # mst-serve — the HTTP front-end over the pooled solve engine
//!
//! Turns the workspace into a deployable service: a dependency-free
//! HTTP/1.1 server (the build environment is offline, so no
//! hyper/tokio) exposing the unified [`mst_api`] surface over the
//! network.
//!
//! Request handling ([`routes`], [`session`]) is pure — no sockets,
//! no threads — and is entered through [`routes::route_on`]; the only
//! transport capability it sees is the [`StreamWriter`] of
//! [`service`]. One transport drives it: an epoll readiness loop
//! ([`event`], built on the dependency-free [`mst_net`] crate, Linux
//! only) holding one small state machine per connection. Idle
//! keep-alive sockets cost a slab entry instead of a parked thread,
//! streamed responses flow through a bounded mailbox (a slow consumer
//! blocks the producer at [`ServeConfig::stream_high_water`], a
//! vanished one unwinds it), and the hostile-client policies live in
//! the loop: a dripped request head is answered `408` once
//! [`ServeConfig::io_timeout`] expires, overflow past
//! [`ServeConfig::max_connections`] is answered `503` +
//! `Retry-After: 1` at accept, and half-closed clients still receive
//! their answer.
//!
//! Solving fans out through the same persistent
//! [`mst_sim::WorkerPool`] the library's [`mst_api::Batch`] engine
//! uses (never on the event-loop thread), so service traffic inherits
//! every hot-path optimisation for free. With `--solvers-config`,
//! tenant specs become full **execution policies** ([`mst_api::exec`]):
//! requests carrying an `X-Api-Token` header run under their tenant's
//! solver registry, dedicated worker pool, admission quota and
//! token-bucket rate limit (429 + `Retry-After` on either), and
//! deadline budget, with client-disconnect cancellation and streamed
//! batch results on top (see [`mst_api::config`]).
//!
//! Endpoints:
//!
//! * `GET /healthz` — liveness and uptime;
//! * `GET /solvers` — the registry listing (names, topologies, `T_lim`
//!   support);
//! * `GET /metrics` — every counter, gauge and latency summary, built
//!   once as JSON by [`metrics`]; `?format=prometheus` serves the text
//!   exposition derived from that document;
//! * `GET /tenants` — the resolved execution policies (token values
//!   masked);
//! * `POST /solve` — one instance, solver selectable by registry name,
//!   optional deadline and oracle verification;
//! * `POST /batch` — an instance sweep (explicit list or generator
//!   spec) through the worker pool, chunk-cancellable, optionally
//!   streamed as NDJSON (`"stream": true`);
//! * `POST /session` — a long-lived evolving instance per tenant: task
//!   arrivals trigger incremental re-solves and posted processor
//!   failures trigger **schedule repair** ([`mst_api::repair()`]), so a
//!   live schedule survives a degrading platform.
//!
//! The service itself degrades rather than fails: a broken persistent
//! store ([`ServeConfig::store_backend`]) flips `/healthz` to
//! `store_degraded` and the append path to bounded-backoff retries
//! ([`server::StoreHealth`]) while solves keep flowing.
//!
//! Requests and responses use the JSON wire codec of [`mst_api::wire`];
//! failures are structured `{"error": {"kind", "message"}}` bodies.
//! Run it from the CLI as `mst serve --addr 127.0.0.1:8080 --threads 4`,
//! or embed it:
//!
//! ```
//! use mst_serve::{Server, ServeConfig};
//! use std::io::{Read, Write};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // port 0: pick a free port
//!     ..ServeConfig::default()
//! })?;
//! let (addr, handle) = (server.addr(), server.handle());
//! let runner = std::thread::spawn(move || server.run());
//!
//! let mut stream = std::net::TcpStream::connect(addr)?;
//! stream.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")?;
//! let mut reply = String::new();
//! stream.read_to_string(&mut reply)?;
//! assert!(reply.starts_with("HTTP/1.1 200 OK"));
//!
//! handle.shutdown(); // graceful: drains, joins, returns the report
//! runner.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(target_os = "linux")]
pub mod event;
pub mod http;
pub mod metrics;
pub mod routes;
pub mod server;
pub mod service;
pub mod session;

pub use http::{HttpError, Request, Response};
pub use metrics::Metrics;
pub use server::{
    install_sigint_handler, ServeConfig, ServeReport, Server, ServerHandle, ServiceState,
    StoreHealth,
};
pub use service::{BufferedStream, ResponseBody, StreamWriter};
pub use session::{Session, SessionTable};
