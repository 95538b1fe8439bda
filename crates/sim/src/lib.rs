//! # mst-sim — simulation and execution substrate of the one-port platform
//!
//! The paper evaluates analytically; this crate supplies the pieces that
//! *run* things: forward simulation of online master policies under the
//! one-port rules of Definition 1, and the worker pool every parallel
//! sweep in the workspace executes on. (The reference judge that replays
//! a static schedule against Definition 1 is `mst_verify::sim`.)
//!
//! * [`online`] — demand-driven policies (the schedulers a deployed
//!   master would really run: eager earliest-completion,
//!   bandwidth-centric fixed priority, round-robin) simulated forward,
//!   for the steady-state comparison experiments.
//! * [`buffered`] — a finite-buffer ablation of the platform model
//!   (Definition 1 implicitly assumes unbounded buffering; this measures
//!   what that assumption is worth).
//! * [`pool`] — a persistent [`pool::WorkerPool`]: threads spawned
//!   once, parked between sweeps, contention-free per-slot result
//!   writes, cooperative cancellation checkpoints
//!   ([`pool::WorkerPool::run_cancellable`]).
//! * [`cancel`] — the [`cancel::CancelToken`] those checkpoints poll:
//!   explicit cancellation plus lazy wall-clock deadline budgets, no
//!   timer thread.
//! * [`faults`] — seeded, deterministic fault injection: a
//!   [`faults::FaultPlan`] reproducibly schedules processor deaths, store
//!   write failures, connection drops and worker panics from a single
//!   seed, consumed by schedule repair, degraded-mode server tests and
//!   the `mst chaos` harness.
//! * [`runner`] — the parallel sweep entry point used by the experiment
//!   harness and the `mst-api` batch engine to evaluate thousands of
//!   instances across cores, backed by one process-wide pool.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod buffered;
pub mod cancel;
pub mod faults;
pub mod online;
pub mod pool;
pub mod runner;

pub use buffered::simulate_online_buffered;
pub use cancel::CancelToken;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultRng};
pub use online::{simulate_online, OnlinePolicy};
pub use pool::WorkerPool;
pub use runner::{run_parallel, shared_pool};
