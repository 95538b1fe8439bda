//! # master-slave-tasking — facade crate
//!
//! A production-oriented Rust reproduction of Pierre-François Dutot,
//! *"Master-slave Tasking on Heterogeneous Processors"*, IPPS 2003.
//!
//! The workspace implements the paper's optimal scheduling algorithms for
//! independent identical tasks on heterogeneous one-port platforms:
//!
//! * the backward-greedy **chain** algorithm (optimal makespan, `O(n p^2)`),
//! * its **deadline (`T_lim`) variant** (maximum task count by a deadline),
//! * the **fork-graph** substrate of Beaumont et al. (IPDPS 2002),
//! * the **spider** algorithm combining both (optimal, polynomial),
//! * exhaustive and heuristic **baselines**, a discrete-event **simulator**
//!   and a **tree-covering** extension,
//! * a fail-closed **verification gate** — an independent reference
//!   simulator, a bounded model checker and a differential fuzzer
//!   ([`mst_verify`], re-exported as [`verify`]),
//! * a dependency-free **observability** layer — request-lifecycle span
//!   traces and log-linear latency histograms ([`mst_obs`], re-exported
//!   as [`obs`]), surfaced live by the server's `/metrics` (JSON, and
//!   the Prometheus text derived from it), `/trace` and `/trace/slow`
//!   endpoints and the `mst top` terminal view.
//!
//! Since the unified-API redesign, the primary public surface is
//! [`mst_api`] (re-exported as [`api`]): any topology, any algorithm,
//! one `solve()` call, one feasibility oracle, and a parallel
//! [`Batch`](mst_api::Batch) engine for instance sweeps — served over
//! HTTP by [`mst_serve`] (re-exported as [`serve`]):
//!
//! ```
//! use master_slave_tasking::prelude::*;
//!
//! // The worked example of the paper's Figure 2, via the unified API.
//! let registry = SolverRegistry::with_defaults();
//! let instance = Instance::new(Chain::paper_figure2(), 5);
//! let solution = registry.solve("optimal", &instance).unwrap();
//! assert_eq!(solution.makespan(), 14);
//! assert!(verify(&instance, &solution).unwrap().is_feasible());
//! ```
//!
//! The per-topology entry points remain available and unchanged:
//!
//! ```
//! use master_slave_tasking::prelude::*;
//!
//! let chain = Chain::paper_figure2();
//! let schedule = schedule_chain(&chain, 5);
//! assert_eq!(schedule.makespan(), 14);
//! ```

#![forbid(unsafe_code)]

pub use mst_api as api;
pub use mst_baselines as baselines;
pub use mst_core as core_algorithm;
pub use mst_fork as fork;
pub use mst_obs as obs;
pub use mst_platform as platform;
pub use mst_schedule as schedule;
pub use mst_serve as serve;
pub use mst_sim as sim;
pub use mst_spider as spider;
pub use mst_store as store;
pub use mst_tree as tree;
pub use mst_verify as verify;

/// Convenient glob import bringing the most common items into scope.
///
/// The unified API (`Platform`, `Instance`, `SolverRegistry`, `Solution`,
/// `Batch`, `verify`) comes first; the historical per-topology entry
/// points stay exported so existing code keeps compiling.
pub mod prelude {
    pub use mst_api::{
        verify, AdmissionError, Batch, BatchSummary, CacheKey, CanonicalInstance, ConfigError,
        ExecPolicy, Instance, Platform, RegistrySet, ScheduleRepr, Solution, SolutionCache,
        SolveError, Solver, SolverRegistry, TenantExec, TopologyKind,
    };
    pub use mst_core::{schedule_chain, schedule_chain_by_deadline};
    pub use mst_obs::{HistSnapshot, Histogram, Kernel, Obs, Stage, Trace};
    pub use mst_platform::{
        Chain, Fork, GeneratorConfig, HeterogeneityProfile, NodeId, Processor, Spider, Time, Tree,
    };
    pub use mst_schedule::{ChainSchedule, CommVector, SpiderSchedule, TreeSchedule};
    pub use mst_serve::{ServeConfig, Server, ServerHandle};
    pub use mst_sim::{run_parallel, shared_pool, CancelToken, WorkerPool};
    pub use mst_spider::{schedule_spider, schedule_spider_by_deadline};
    pub use mst_store::{FileStore, Record, StoreBackend};
}
