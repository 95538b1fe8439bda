//! # mst-api — the unified `Platform`/`Solver` surface
//!
//! Every topology and algorithm of the workspace behind **one**
//! entry point:
//!
//! * [`Platform`] — chain, fork, spider or tree, with uniform
//!   construction, validation, accessors and a text-format round-trip
//!   ([`mod@format`]);
//! * [`Instance`] — a platform plus a task budget;
//! * [`Solver`] — `solve(&Instance) -> Result<Solution, SolveError>`,
//!   with a [`Solver::by_deadline`] capability flag for the paper's
//!   `T_lim` variants, implemented by the optimal algorithms, every
//!   baseline heuristic, the exact branch-and-bound and the
//!   divisible-load relaxation;
//! * [`SolverRegistry`] — a **layered** registry: an immutable built-in
//!   base ([`SolverRegistry::global`]) plus mutable overlays
//!   ([`SolverRegistry::overlay`]) that add, shadow or pin solvers —
//!   buildable from JSON configuration ([`config`], `mst serve
//!   --solvers-config`);
//! * [`Solution`] — one makespan/feasibility/Gantt/metrics interface
//!   over the per-topology schedule structs, checked by the single
//!   [`verify`] oracle;
//! * [`Batch`] — `Batch::new(registry).solve_all(&instances)` sweeps
//!   instance sets across all cores, with cooperative cancellation
//!   checkpoints ([`Batch::solve_all_cancellable`]);
//! * [`exec`] — execution policies: [`exec::ExecPolicy`] bundles a
//!   registry with thread budgets, admission quotas and deadline
//!   budgets; [`exec::TenantExec`] makes it executable (dedicated or
//!   shared worker pool, RAII admission slots, live stats) — the
//!   multi-tenant layer behind `mst serve`;
//! * [`fleet`] — the shared seeded instance-fleet generators behind
//!   `/batch {"generate": ...}`, `mst batch` and the benchmark;
//! * [`canon`] — canonical instance forms ([`canon::CanonicalInstance`]):
//!   uniform time scale extracted, legs/children sorted where the solver
//!   permits, a stable 128-bit content hash, and a proven
//!   solution-restore round-trip;
//! * [`cache`] — the sharded LRU memo of canonical solutions, held as
//!   packed bytes ([`cache::SolutionCache`]), that lets repeat traffic
//!   skip the worker pools entirely;
//! * [`mod@repair`] — degraded-mode schedule repair: after a processor
//!   failure at time *t*, [`repair::degrade`] removes the failed subtree,
//!   the committed prefix of the witness is kept, and only the surviving
//!   suffix is re-solved (through the solution cache), yielding a witness
//!   that verifies against the degraded platform;
//! * [`wire`] — the dependency-free JSON codec carrying instances,
//!   solutions and errors over the `mst-serve` HTTP front-end.
//!
//! ```
//! use mst_api::{Instance, Platform, SolverRegistry, verify};
//!
//! let registry = SolverRegistry::with_defaults();
//! // The paper's Figure-2 chain, through the text format.
//! let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n")?, 5);
//! let solution = registry.solve("optimal", &instance)?;
//! assert_eq!(solution.makespan(), 14);
//! assert!(verify(&instance, &solution)?.is_feasible());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The per-crate entry points (`mst_core::schedule_chain`,
//! `mst_spider::schedule_spider`, ...) remain public and unchanged —
//! this crate wraps them, so downstream code migrates at its own pace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod canon;
pub mod config;
pub mod error;
pub mod exec;
pub mod fleet;
pub mod format;
pub mod instance;
mod packed;
pub mod platform;
pub mod registry;
pub mod repair;
pub mod solution;
pub mod solver;
pub mod solvers;
pub mod wire;

pub use batch::{Batch, BatchSummary};
pub use cache::{CacheKey, CachedSolve, SolutionCache};
pub use canon::{CanonLevel, CanonicalInstance};
pub use config::{ConfigError, RegistrySet};
pub use error::SolveError;
pub use exec::{AdmissionError, AdmitGuard, ExecPolicy, TenantExec, TenantStats};
pub use instance::Instance;
pub use platform::{Platform, TopologyKind};
pub use registry::SolverRegistry;
pub use repair::{repair, FailureEvent, RepairError, Repaired};
pub use solution::{verify, ScheduleRepr, Solution};
pub use solver::Solver;
