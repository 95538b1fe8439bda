//! # mst-net — a dependency-free epoll readiness loop
//!
//! The building blocks `mst-serve`'s event-driven transport stands on,
//! written straight against the Linux syscall surface (the build
//! environment is offline, so no `mio`/`tokio`; the few C symbols
//! needed are declared by hand in `sys`):
//!
//! * [`Poller`] — an epoll instance: register nonblocking fds with a
//!   [`Token`] and an [`Interest`] (level- or edge-triggered), then
//!   [`Poller::wait`] for readiness. One thread can watch tens of
//!   thousands of sockets; a parked keep-alive connection costs a slab
//!   slot and two buffers, not a thread.
//! * [`Waker`] — an `eventfd` escape hatch: any thread pops the loop
//!   out of `wait` (dispatch workers use it to say "response bytes are
//!   ready to flush").
//! * [`TimerWheel`] — hashed-wheel deadlines with lazy generation-based
//!   cancellation, for keep-alive idle timeouts and per-request I/O
//!   budgets.
//! * [`Slab`] — the dense `token -> connection` store with O(1)
//!   insert/remove and index reuse.
//!
//! Off Linux everything compiles but [`Poller::new`] reports
//! `Unsupported`, and so does the serve crate's `Server::run`.
//!
//! ```
//! # #[cfg(target_os = "linux")] {
//! use mst_net::{Interest, Poller, Token};
//! use std::io::Write;
//! use std::os::unix::io::AsRawFd;
//! use std::time::Duration;
//!
//! let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
//! let mut client = std::net::TcpStream::connect(listener.local_addr()?)?;
//! let (conn, _) = listener.accept()?;
//! conn.set_nonblocking(true)?;
//!
//! let mut poller = Poller::new()?;
//! poller.add(conn.as_raw_fd(), Token(0), Interest::READ)?;
//! client.write_all(b"ping")?;
//! let mut ready = None;
//! poller.wait(Some(Duration::from_secs(5)), |ev| ready = Some(ev.token))?;
//! assert_eq!(ready, Some(Token(0)));
//! # }
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod poller;
pub mod signal;
pub mod slab;
pub(crate) mod sys;
pub mod timer;

pub use poller::{Event, Interest, PollStats, Poller, Token, Waker};
pub use signal::{install_sigint_handler, sigint_received};
pub use slab::Slab;
pub use sys::raise_nofile_limit;
pub use timer::TimerWheel;
