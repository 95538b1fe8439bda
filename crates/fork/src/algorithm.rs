//! The bandwidth-centric greedy and the executable fork schedule.
//!
//! The selection hot path is allocation-free steady-state: virtual
//! slaves stream out of a reusable [`ExpansionMerge`] (no
//! materialise-then-sort), the greedy's [`EddSet`] keeps its buffer
//! across probes, and [`schedule_fork`]'s binary search counts through
//! one [`ForkScratch`] — only the final witness materialises a
//! [`ForkOutcome`].

use crate::expand::{ExpansionMerge, VirtualSlave};
use crate::jackson::{EddSet, Item};
use mst_platform::{Fork, NodeId, Time};
use mst_schedule::{CommVector, SpiderSchedule, SpiderTask};
use std::cell::RefCell;

/// Result of the deadline-driven fork algorithm.
#[derive(Debug, Clone)]
pub struct ForkOutcome {
    /// The selected virtual slaves with their master-emission start
    /// times, in emission order (decreasing virtual processing time).
    pub selected: Vec<(VirtualSlave, Time)>,
    /// The executable schedule (a spider schedule over legs of length 1).
    pub schedule: SpiderSchedule,
}

impl ForkOutcome {
    /// Number of scheduled tasks.
    pub fn n(&self) -> usize {
        self.selected.len()
    }
}

/// The fork-graph algorithm of the paper's reference \[2]: schedules the
/// maximum number of tasks (at most `max_tasks`) on `fork`, all
/// completing by `deadline`.
///
/// Expansion (Figure 6) turns every node into single-task virtual
/// slaves; virtual slaves are considered by **ascending link latency,
/// ties by ascending processing time**, and greedily kept whenever the
/// growing set stays feasible under Jackson's rule. The witness schedule
/// serialises the kept communications back to back in decreasing
/// processing-time order.
pub fn max_tasks_fork_by_deadline(fork: &Fork, max_tasks: usize, deadline: Time) -> ForkOutcome {
    SCRATCH.with_borrow_mut(|scratch| {
        max_tasks_fork_by_deadline_scratch(fork, max_tasks, deadline, scratch)
    })
}

thread_local! {
    /// Per-thread scratch backing the buffer-less entry points, so batch
    /// traffic calling [`max_tasks_fork_by_deadline`] in a loop reuses
    /// one set of buffers per worker thread.
    static SCRATCH: RefCell<ForkScratch> = RefCell::new(ForkScratch::new());
}

/// Reusable working memory for the fork selection: the merging-expansion
/// heap and the greedy's feasible set. One value threaded through a
/// deadline sweep makes the probes allocation-free steady-state.
#[derive(Debug, Clone)]
pub struct ForkScratch {
    merge: ExpansionMerge,
    set: EddSet<VirtualSlave>,
}

impl ForkScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> ForkScratch {
        ForkScratch { merge: ExpansionMerge::new(), set: EddSet::new(0) }
    }
}

impl Default for ForkScratch {
    fn default() -> ForkScratch {
        ForkScratch::new()
    }
}

/// Runs the greedy selection, leaving the selected items in
/// `scratch.set`; returns the number selected. Allocation-free once the
/// scratch buffers have grown.
///
/// This is also the binary-search probe: the achievable task count by
/// `deadline`, computed without materialising a witness.
pub fn count_tasks_fork_by_deadline(
    fork: &Fork,
    max_tasks: usize,
    deadline: Time,
    scratch: &mut ForkScratch,
) -> usize {
    scratch.merge.begin(fork, deadline, max_tasks);
    scratch.set.reset(deadline);
    while scratch.set.len() < max_tasks {
        let Some(v) = scratch.merge.next_slave() else { break };
        scratch.set.try_insert(Item { comm: v.comm, proc_time: v.proc_time, payload: v });
    }
    scratch.set.len()
}

/// [`max_tasks_fork_by_deadline`] through caller-owned scratch buffers.
pub fn max_tasks_fork_by_deadline_scratch(
    fork: &Fork,
    max_tasks: usize,
    deadline: Time,
    scratch: &mut ForkScratch,
) -> ForkOutcome {
    count_tasks_fork_by_deadline(fork, max_tasks, deadline, scratch);
    materialise(fork, deadline, scratch)
}

/// Converts the selection sitting in `scratch.set` into an owned
/// [`ForkOutcome`] — the only allocating step of the pipeline.
fn materialise(fork: &Fork, deadline: Time, scratch: &ForkScratch) -> ForkOutcome {
    let emissions = scratch.set.emission_times();
    let selected: Vec<(VirtualSlave, Time)> =
        scratch.set.items().iter().zip(&emissions).map(|(item, &t)| (item.payload, t)).collect();
    ForkOutcome { schedule: realise(fork, &selected, deadline), selected }
}

/// Converts selected virtual slaves + emission times into an executable
/// star schedule: each physical node runs its tasks back to back in
/// arrival order. Completion by `deadline` is guaranteed by the
/// expansion's slack encoding and asserted in debug builds.
fn realise(fork: &Fork, selected: &[(VirtualSlave, Time)], deadline: Time) -> SpiderSchedule {
    let mut proc_free = vec![0; fork.len() + 1];
    // Emission order is the serialisation order; arrivals at a node are in
    // emission order, so a single pass suffices.
    let mut tasks = Vec::with_capacity(selected.len());
    for &(v, emit) in selected {
        let arrival = emit + v.comm;
        let start = arrival.max(proc_free[v.source]);
        let end = start + fork.w(v.source);
        proc_free[v.source] = end;
        debug_assert!(end <= deadline, "realised task ends at {end}, past the deadline {deadline}");
        tasks.push(SpiderTask::new(
            NodeId { leg: v.source - 1, depth: 1 },
            start,
            CommVector::from_slice(&[emit]),
            fork.w(v.source),
        ));
    }
    SpiderSchedule::new(tasks)
}

/// Minimum-makespan schedule of exactly `n` tasks on a fork, by binary
/// search over the deadline. Returns `(makespan, outcome)`.
///
/// The task count achievable by a deadline is non-decreasing in the
/// deadline, so the binary search is exact. It runs over `[LB, UB]`: the
/// one-port lower bound [`Fork::makespan_lower_bound`], which every
/// schedule meets, and the upper bound [`Fork::makespan_upper_bound`],
/// which runs everything on the best single slave.
///
/// ```
/// use mst_platform::Fork;
/// use mst_fork::schedule_fork;
/// let fork = Fork::from_pairs(&[(1, 4), (2, 3)]).unwrap();
/// let (makespan, outcome) = schedule_fork(&fork, 6);
/// assert_eq!(outcome.n(), 6);
/// assert!(makespan <= fork.makespan_upper_bound(6));
/// ```
pub fn schedule_fork(fork: &Fork, n: usize) -> (Time, ForkOutcome) {
    assert!(n >= 1, "schedule_fork requires at least one task");
    SCRATCH.with_borrow_mut(|scratch| {
        let (lo, hi) = (fork.makespan_lower_bound(n), fork.makespan_upper_bound(n));
        let (makespan, cached) =
            search_min_deadline(lo, hi, n, |d| count_tasks_fork_by_deadline(fork, n, d, scratch));
        if !cached {
            count_tasks_fork_by_deadline(fork, n, makespan, scratch);
        }
        (makespan, materialise(fork, makespan, scratch))
    })
}

/// Exact binary search for the smallest deadline whose `probe` count
/// reaches `target` — the shared skeleton of the incremental deadline
/// searches (`schedule_fork`, `mst_spider::schedule_spider`).
///
/// `probe` is expected to leave its selection in caller-owned scratch
/// state; the returned flag says whether the **final** probe ran at the
/// returned deadline (the caller can then materialise its witness from
/// the scratch without re-probing). The probe count must be
/// non-decreasing in the deadline, `lo` must not exceed the smallest
/// feasible deadline (a lower bound on the makespan), and `hi` must be
/// feasible (asserted in debug builds).
pub fn search_min_deadline(
    mut lo: Time,
    mut hi: Time,
    target: usize,
    mut probe: impl FnMut(Time) -> usize,
) -> (Time, bool) {
    #[cfg(not(debug_assertions))]
    let mut probed: Option<Time> = None;
    #[cfg(debug_assertions)]
    let mut probed: Option<Time> = {
        assert_eq!(probe(hi), target, "the upper bound must be feasible");
        Some(hi)
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let feasible = probe(mid) >= target;
        probed = Some(mid);
        if feasible {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo, probed == Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::{GeneratorConfig, HeterogeneityProfile, Spider, Tree};
    use mst_schedule::check_spider;

    fn spider_of(fork: &Fork) -> Spider {
        Spider::from_fork(fork)
    }

    #[test]
    fn single_slave_matches_pipeline_capacity() {
        let fork = Fork::from_pairs(&[(2, 5)]).unwrap();
        for deadline in 0..40 {
            let out = max_tasks_fork_by_deadline(&fork, 100, deadline);
            // capacity: largest k with c + w + (k-1)*max(c,w) <= deadline
            let mut cap = 0;
            while 2 + 5 + cap as Time * 5 <= deadline {
                cap += 1;
            }
            assert_eq!(out.n(), cap, "deadline {deadline}");
            check_spider(&spider_of(&fork), &out.schedule).assert_feasible();
        }
    }

    #[test]
    fn greedy_prefers_cheap_links() {
        // Two identical CPUs, one behind a fast link: with a deadline that
        // fits only a few tasks, the fast link gets them.
        let fork = Fork::from_pairs(&[(1, 4), (4, 4)]).unwrap();
        let out = max_tasks_fork_by_deadline(&fork, 10, 9);
        assert!(out.n() >= 2);
        let fast: usize = out.selected.iter().filter(|(v, _)| v.source == 1).count();
        let slow: usize = out.selected.iter().filter(|(v, _)| v.source == 2).count();
        assert!(fast >= slow, "fast-link slave should carry at least as many tasks");
        check_spider(&spider_of(&fork), &out.schedule).assert_feasible();
    }

    #[test]
    fn schedules_are_feasible_and_meet_deadline() {
        for seed in 0..30u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let fork = g.fork(1 + (seed % 6) as usize);
            for deadline in [3, 8, 15, 30] {
                let out = max_tasks_fork_by_deadline(&fork, 20, deadline);
                check_spider(&spider_of(&fork), &out.schedule).assert_feasible();
                for t in out.schedule.tasks() {
                    assert!(t.end() <= deadline);
                }
                assert_eq!(out.schedule.n(), out.n());
            }
        }
    }

    #[test]
    fn task_count_matches_exhaustive_optimum() {
        // The substrate's own optimality (Beaumont et al.), validated
        // against exhaustive search on small stars.
        use mst_baselines::max_tasks_by_deadline;
        for seed in 0..25u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let fork = g.fork(1 + (seed % 3) as usize);
            let tree = Tree::from_spider(&spider_of(&fork));
            for deadline in [4, 9, 14, 22] {
                let algo = max_tasks_fork_by_deadline(&fork, 5, deadline).n();
                let exact = max_tasks_by_deadline(&tree, deadline, 5);
                assert_eq!(algo, exact, "seed {seed}, deadline {deadline}, {fork}");
            }
        }
    }

    #[test]
    fn binary_searched_makespan_matches_exhaustive_optimum() {
        use mst_baselines::optimal_spider_makespan;
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let fork = g.fork(1 + (seed % 3) as usize);
            let n = 1 + (seed % 5) as usize;
            let (makespan, out) = schedule_fork(&fork, n);
            assert_eq!(out.n(), n);
            check_spider(&spider_of(&fork), &out.schedule).assert_feasible();
            let exact = optimal_spider_makespan(&spider_of(&fork), n);
            assert_eq!(makespan, exact, "seed {seed}, n {n}, {fork}");
        }
    }

    #[test]
    fn count_is_monotone_in_deadline() {
        let fork = Fork::from_pairs(&[(2, 3), (1, 6), (4, 2)]).unwrap();
        let mut prev = 0;
        for deadline in 0..40 {
            let k = max_tasks_fork_by_deadline(&fork, 50, deadline).n();
            assert!(k >= prev, "deadline {deadline}: {k} < {prev}");
            prev = k;
        }
    }
}
