//! The [`Batch`] engine: sweep instance sets across all cores.

use crate::error::SolveError;
use crate::instance::Instance;
use crate::registry::SolverRegistry;
use crate::solution::Solution;
use mst_obs::{kernel_hist, Kernel};
use mst_platform::Time;
use mst_sim::{shared_pool, CancelToken, WorkerPool};
use std::fmt;
use std::sync::Arc;

/// Sweeps many [`Instance`]s through one registry solver in parallel —
/// the building block for the experiment harness and for service-style
/// traffic.
///
/// Work fans out over a persistent [`WorkerPool`] (by default the
/// process-wide [`mst_sim::shared_pool`], so consecutive `solve_all`
/// calls reuse the same sleeping threads and spawn nothing); results
/// come back in input order, each instance's failure isolated in its own
/// `Result`. The solver name is resolved **once per batch call**, not
/// once per instance.
///
/// ```
/// use mst_api::{Batch, Instance, TopologyKind};
/// use mst_platform::HeterogeneityProfile;
///
/// let instances: Vec<Instance> = (0..64)
///     .map(|seed| Instance::generate(
///         TopologyKind::Chain, HeterogeneityProfile::ALL[0], seed, 4, 6,
///     ))
///     .collect();
/// let batch = Batch::default(); // global registry + shared pool
/// let results = batch.solve_all(&instances);
/// assert!(results.iter().all(|r| r.is_ok()));
/// ```
#[derive(Debug, Clone)]
pub struct Batch {
    registry: SolverRegistry,
    solver: String,
    pool: Arc<WorkerPool>,
}

impl Batch {
    /// A batch engine solving with the dispatching `"optimal"` solver
    /// over the process-wide shared worker pool.
    pub fn new(registry: SolverRegistry) -> Batch {
        Batch { registry, solver: "optimal".to_string(), pool: shared_pool() }
    }

    /// Switches the batch to another registered solver.
    pub fn with_solver(mut self, name: impl Into<String>) -> Batch {
        self.solver = name.into();
        self
    }

    /// Runs this batch's sweeps on a dedicated pool instead of the
    /// process-wide shared one (e.g. to cap a tenant's parallelism).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Batch {
        self.pool = pool;
        self
    }

    /// The registry backing this batch.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    /// The solver name used by [`Batch::solve_all`].
    pub fn solver(&self) -> &str {
        &self.solver
    }

    /// The worker pool this batch sweeps on.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The one sweep loop behind every public solve: resolves the solver
    /// and takes the `kernels` histograms once per sweep, then solves
    /// each job's `(instance, deadline)` on the pool. Jobs a `cancel`
    /// token skipped come back as [`SolveError::Cancelled`].
    fn sweep<J: Sync>(
        &self,
        jobs: &[J],
        job: impl Fn(&J) -> (&Instance, Option<Time>) + Sync,
        kernels: &[Kernel],
        cancel: Option<&CancelToken>,
    ) -> Vec<Result<Solution, SolveError>> {
        let solver = match self.registry.resolve(&self.solver) {
            Ok(solver) => solver,
            Err(err) => return jobs.iter().map(|_| Err(err.clone())).collect(),
        };
        // One map lookup per kernel per sweep; each sample records
        // lock-free.
        let hist = |kernel| kernels.contains(&kernel).then(|| kernel_hist(kernel, &self.solver));
        let (solve_hist, probe_hist) = (hist(Kernel::Solve), hist(Kernel::Probe));
        let run = |j: &J| {
            let (instance, deadline) = job(j);
            let start = std::time::Instant::now();
            let (result, hist) = match deadline {
                Some(d) => (solver.solve_by_deadline(instance, d), &probe_hist),
                None => (solver.solve(instance), &solve_hist),
            };
            if let Some(hist) = hist {
                hist.record(start.elapsed().as_micros() as u64);
            }
            result
        };
        match cancel {
            None => self.pool.run(jobs, run),
            Some(cancel) => self
                .pool
                .run_cancellable(jobs, run, cancel)
                .into_iter()
                .map(|slot| slot.unwrap_or(Err(SolveError::Cancelled)))
                .collect(),
        }
    }

    /// Solves every instance on all available cores; results in input
    /// order.
    pub fn solve_all(&self, instances: &[Instance]) -> Vec<Result<Solution, SolveError>> {
        self.sweep(instances, |i| (i, None), &[Kernel::Solve], None)
    }

    /// Deadline-solves every instance on all available cores.
    pub fn solve_all_by_deadline(
        &self,
        instances: &[Instance],
        deadline: Time,
    ) -> Vec<Result<Solution, SolveError>> {
        self.sweep(instances, |i| (i, Some(deadline)), &[Kernel::Probe], None)
    }

    /// [`Batch::solve_all`] with a cooperative cancellation checkpoint
    /// before every instance (see
    /// [`WorkerPool::run_cancellable`]): once `cancel` fires —
    /// explicitly, or past its deadline budget — remaining instances
    /// come back as [`SolveError::Cancelled`] instead of burning cores.
    /// Results stay in input order; instances already in flight finish
    /// normally, so no worker is left stuck.
    pub fn solve_all_cancellable(
        &self,
        instances: &[Instance],
        cancel: &CancelToken,
    ) -> Vec<Result<Solution, SolveError>> {
        self.sweep(instances, |i| (i, None), &[Kernel::Solve], Some(cancel))
    }

    /// Solves `(instance, deadline)` jobs with **per-job** deadlines and
    /// the same cancellation checkpoints as
    /// [`Batch::solve_all_cancellable`]; `None` means a plain makespan
    /// solve. This is the engine call behind the canonical-form cache:
    /// canonicalisation divides each instance's deadline by its own
    /// extracted scale, so one batch of misses no longer shares a single
    /// deadline value.
    pub fn solve_each_cancellable(
        &self,
        jobs: &[(Instance, Option<Time>)],
        cancel: &CancelToken,
    ) -> Vec<Result<Solution, SolveError>> {
        self.sweep(jobs, |(i, d)| (i, *d), &[Kernel::Solve, Kernel::Probe], Some(cancel))
    }
}

impl Default for Batch {
    /// The service-default engine: the [`SolverRegistry::global`]
    /// registry (built once per process) over the shared pool.
    fn default() -> Batch {
        Batch::new(SolverRegistry::global().clone())
    }
}

/// Aggregate statistics over one batch run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Instances solved successfully.
    pub solved: usize,
    /// Instances that returned a genuine solver error (cancelled
    /// instances are counted separately).
    pub failed: usize,
    /// Instances skipped by a [`SolveError::Cancelled`] checkpoint —
    /// never attempted, not failures.
    pub cancelled: usize,
    /// Tasks scheduled across all solved instances, counted from the
    /// witness schedules — solvers that return unwitnessed solutions
    /// (relaxations, makespan-only exact results) contribute 0 here
    /// even though they solved their instances.
    pub total_tasks: usize,
    /// Sum of makespans of solved instances.
    pub total_makespan: Time,
    /// Largest single-instance makespan.
    pub max_makespan: Time,
    /// Instances answered from the canonical solution cache instead of a
    /// solver (a subset of `solved`). [`BatchSummary::of`] has no way to
    /// know this and leaves it 0; cache-fronted callers fill it in.
    pub cache_hits: usize,
}

impl BatchSummary {
    /// Folds solver results into a summary.
    pub fn of(results: &[Result<Solution, SolveError>]) -> BatchSummary {
        let mut summary = BatchSummary {
            solved: 0,
            failed: 0,
            cancelled: 0,
            total_tasks: 0,
            total_makespan: 0,
            max_makespan: 0,
            cache_hits: 0,
        };
        for result in results {
            match result {
                Ok(solution) => {
                    summary.solved += 1;
                    summary.total_tasks += solution.n();
                    summary.total_makespan += solution.makespan();
                    summary.max_makespan = summary.max_makespan.max(solution.makespan());
                }
                Err(SolveError::Cancelled) => summary.cancelled += 1,
                Err(_) => summary.failed += 1,
            }
        }
        summary
    }

    /// Mean makespan over solved instances (0.0 when none solved).
    pub fn mean_makespan(&self) -> f64 {
        if self.solved == 0 {
            return 0.0;
        }
        self.total_makespan as f64 / self.solved as f64
    }
}

impl fmt::Display for BatchSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} solved, {} failed; {} scheduled task(s); mean makespan {:.2}, max {}",
            self.solved,
            self.failed,
            self.total_tasks,
            self.mean_makespan(),
            self.max_makespan
        )?;
        if self.cancelled > 0 {
            write!(f, " ({} cancelled)", self.cancelled)?;
        }
        if self.cache_hits > 0 {
            write!(f, " ({} from cache)", self.cache_hits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::TopologyKind;
    use crate::solution::verify;
    use mst_platform::HeterogeneityProfile;

    fn mixed_instances(count: u64) -> Vec<Instance> {
        (0..count)
            .map(|seed| {
                let kind = TopologyKind::ALL[(seed % 3) as usize]; // chain/fork/spider
                Instance::generate(
                    kind,
                    HeterogeneityProfile::ALL[(seed % 5) as usize],
                    seed,
                    1 + (seed % 4) as usize,
                    1 + (seed % 6) as usize,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_serial_solving() {
        let instances = mixed_instances(48);
        let batch = Batch::new(SolverRegistry::with_defaults());
        let parallel = batch.solve_all(&instances);
        for (instance, result) in instances.iter().zip(&parallel) {
            let serial = batch.registry().solve("optimal", instance);
            assert_eq!(result, &serial, "{instance}");
            let solution = result.as_ref().unwrap();
            assert!(verify(instance, solution).unwrap().is_feasible());
        }
    }

    #[test]
    fn summary_counts_failures_separately() {
        let mut instances = mixed_instances(10);
        instances.push(Instance::new(mst_platform::Chain::paper_figure2(), 0)); // ZeroTasks
        let batch = Batch::new(SolverRegistry::with_defaults());
        let summary = BatchSummary::of(&batch.solve_all(&instances));
        assert_eq!(summary.solved, 10);
        assert_eq!(summary.failed, 1);
        assert!(summary.max_makespan >= 1);
        assert!(summary.mean_makespan() > 0.0);
        assert!(summary.to_string().contains("10 solved, 1 failed"));
    }

    #[test]
    fn deadline_batches_cap_and_respect_the_deadline() {
        let instances = mixed_instances(24);
        let batch = Batch::new(SolverRegistry::with_defaults());
        for result in batch.solve_all_by_deadline(&instances, 12) {
            let solution = result.unwrap();
            assert!(solution.makespan() <= 12);
        }
    }

    #[test]
    fn unknown_solver_fails_every_instance() {
        let batch = Batch::new(SolverRegistry::with_defaults()).with_solver("nope");
        let results = batch.solve_all(&mixed_instances(3));
        assert!(results.iter().all(|r| matches!(r, Err(SolveError::UnknownSolver { .. }))));
        let results = batch.solve_all_by_deadline(&mixed_instances(3), 9);
        assert!(results.iter().all(|r| matches!(r, Err(SolveError::UnknownSolver { .. }))));
    }

    #[test]
    fn consecutive_sweeps_reuse_one_pool_without_spawning() {
        // A dedicated pool so the job counter is not shared with other
        // tests: three sweeps, one thread set, job count == sweep count.
        let pool = Arc::new(mst_sim::WorkerPool::with_workers(2));
        let batch = Batch::default().with_pool(Arc::clone(&pool));
        let instances = mixed_instances(30);
        let first = batch.solve_all(&instances);
        for round in 0..2 {
            let again = batch.solve_all(&instances);
            assert_eq!(again, first, "round {round} must be bit-identical");
        }
        assert_eq!(pool.workers(), 2, "no threads appear after construction");
        assert_eq!(pool.jobs_submitted(), 3, "three sweeps = three published jobs");
        assert!(Arc::ptr_eq(batch.pool(), &pool));
    }

    #[test]
    fn cancellable_sweeps_match_plain_solves_and_honour_the_token() {
        let instances = mixed_instances(64);
        let batch = Batch::default();
        // A live token executes everything, bit-identical to solve_all.
        let live = CancelToken::new();
        assert_eq!(batch.solve_all_cancellable(&instances, &live), batch.solve_all(&instances));
        let deadline_jobs: Vec<(Instance, Option<Time>)> =
            instances.iter().map(|inst| (inst.clone(), Some(12))).collect();
        assert_eq!(
            batch.solve_each_cancellable(&deadline_jobs, &live),
            batch.solve_all_by_deadline(&instances, 12)
        );
        // A pre-cancelled token skips every instance as Cancelled.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let results = batch.solve_all_cancellable(&instances, &cancelled);
        assert!(results.iter().all(|r| matches!(r, Err(SolveError::Cancelled))));
        let summary = BatchSummary::of(&results);
        assert_eq!((summary.solved, summary.failed, summary.cancelled), (0, 0, 64));
        assert!(summary.to_string().contains("(64 cancelled)"), "{summary}");
        // Unknown solvers still fail with their own error, not Cancelled.
        let bad = Batch::default().with_solver("nope");
        let results = bad.solve_all_cancellable(&instances, &CancelToken::new());
        assert!(results.iter().all(|r| matches!(r, Err(SolveError::UnknownSolver { .. }))));
    }

    #[test]
    fn per_job_deadlines_solve_independently() {
        let batch = Batch::default();
        let jobs: Vec<(Instance, Option<Time>)> = mixed_instances(12)
            .into_iter()
            .enumerate()
            .map(|(i, inst)| (inst, if i % 2 == 0 { None } else { Some(12) }))
            .collect();
        let results = batch.solve_each_cancellable(&jobs, &CancelToken::new());
        for ((instance, deadline), result) in jobs.iter().zip(&results) {
            let expected = match deadline {
                Some(d) => batch.registry().solve_by_deadline("optimal", instance, *d),
                None => batch.registry().solve("optimal", instance),
            };
            assert_eq!(result, &expected);
        }
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let skipped = batch.solve_each_cancellable(&jobs, &cancelled);
        assert!(skipped.iter().all(|r| matches!(r, Err(SolveError::Cancelled))));
        let bad = Batch::default().with_solver("nope");
        let failed = bad.solve_each_cancellable(&jobs, &CancelToken::new());
        assert!(failed.iter().all(|r| matches!(r, Err(SolveError::UnknownSolver { .. }))));
    }

    #[test]
    fn default_batch_uses_global_registry_and_shared_pool() {
        let batch = Batch::default();
        assert_eq!(batch.solver(), "optimal");
        assert_eq!(batch.registry().names(), SolverRegistry::global().names());
        assert!(Arc::ptr_eq(batch.pool(), &mst_sim::shared_pool()));
        let empty: Vec<Instance> = vec![];
        assert!(batch.solve_all(&empty).is_empty(), "empty batches cost nothing");
    }
}
