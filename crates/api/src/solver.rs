//! The [`Solver`] trait: one `solve()` entry point over every topology.

use crate::canon::{level_for, CanonLevel};
use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::TopologyKind;
use crate::solution::Solution;
use mst_platform::Time;

/// A scheduling algorithm behind the unified API.
///
/// Implementations wrap the per-crate entry points (`schedule_chain`,
/// `schedule_fork`, `schedule_spider`, `schedule_tree`, the baselines,
/// the exact search, the fluid relaxation) behind one signature, so the
/// CLI, the batch engine and the experiment harness can dispatch any
/// instance to any algorithm by name.
///
/// `Send + Sync` is required so solvers can be shared across the worker
/// threads of the [`crate::Batch`] engine.
pub trait Solver: Send + Sync {
    /// Stable registry name (e.g. `"chain-optimal"`).
    fn name(&self) -> &'static str;

    /// One line for `mst solvers` and the README table.
    fn description(&self) -> &'static str;

    /// Whether the solver handles this topology family.
    fn supports(&self, kind: TopologyKind) -> bool;

    /// Whether [`Solver::solve_by_deadline`] is implemented — the
    /// `T_lim` capability of the paper's Section 7.
    fn by_deadline(&self) -> bool {
        false
    }

    /// Solves for minimum makespan of exactly `instance.tasks` tasks.
    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError>;

    /// Schedules the maximum number of tasks (capped by
    /// `instance.tasks`) all completing by `deadline`.
    ///
    /// The default errors with [`SolveError::DeadlineUnsupported`];
    /// solvers advertising [`Solver::by_deadline`] override it.
    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        let _ = (instance, deadline);
        Err(SolveError::DeadlineUnsupported { solver: self.name().to_string() })
    }

    /// How far the cache may canonicalise an instance for this solver:
    /// [`level_for`] its name. A solver registered under another name
    /// answers for the solver it wraps, so the level follows the
    /// algorithm, not the name a request used.
    fn canon_level(&self) -> CanonLevel {
        level_for(self.name())
    }

    /// Convenience guard shared by implementations: validates the task
    /// budget and the topology in one place.
    fn check_instance(&self, instance: &Instance) -> Result<(), SolveError> {
        instance.validate()?;
        if !self.supports(instance.kind()) {
            return Err(SolveError::UnsupportedTopology {
                solver: self.name().to_string(),
                kind: instance.kind(),
            });
        }
        Ok(())
    }
}
