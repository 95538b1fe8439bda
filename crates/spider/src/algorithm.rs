//! The spider algorithm: per-leg chains, fork selection, revert.
//!
//! A deadline search runs every leg's backward chain construction
//! **once**. The construction is shift-invariant: the `T_lim` schedule
//! of a leg is one fixed run anchored at 0, shifted by `T_lim` and cut
//! where the shifted first-link emission goes negative. Each leg keeps
//! that run (`LegRun`), extended task by task only as far as some probe
//! reaches, so every task is computed once per search however many
//! deadlines the search tries.
//!
//! A virtual slave's processing time `T_lim - C^i_1 - c_1` (Figure 7)
//! does not depend on `T_lim` either: it is `-C^i_1 - c_1` in the
//! anchored run, rising along the run, since the emissions fall. A probe
//! at `T` therefore feeds the fork greedy from a k-way merge of the
//! legs' available prefixes (tasks with `C^i_1 + T >= 0`) by
//! `(c_1, processing time, leg)` — the order a stable sort of the pooled
//! virtual slaves by `(c_1, processing time)` gives — and builds no
//! chain schedule and sorts nothing. A slave the greedy rejects retires
//! its leg for the rest of the probe: the leg's later slaves share its
//! `c_1` and take longer, so the greedy would reject each of them too.
//! The revert runs **once**, on the final deadline, the same hot-path
//! structure as `mst_fork::schedule_fork`. Probes start at the one-port
//! lower bound, not at `T = 1`.

use mst_core::BackwardScheduler;
use mst_fork::jackson::{EddSet, Item};
use mst_fork::search_min_deadline;
use mst_platform::{Chain, NodeId, Spider, Time};
use mst_schedule::{CommVector, SpiderSchedule, SpiderTask, TaskAssignment};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

thread_local! {
    /// Per-thread scratch backing the buffer-less entry points, so batch
    /// traffic reuses one set of buffers per worker thread.
    static SCRATCH: RefCell<SpiderScratch> = RefCell::new(SpiderScratch::new());
}

/// Where a selected virtual slave came from: task `index` (0-based, in
/// backward order) of leg `leg`'s run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    leg: usize,
    index: usize,
}

/// A merge head: the next available virtual slave of one leg, as
/// `(c_1, processing time, leg, index)`. Within a leg processing times
/// are distinct, so the key orders every head.
type Head = Reverse<(Time, Time, usize, usize)>;

/// Reusable working memory for the selection: the merge heap and the
/// greedy's feasible set, kept across probes and across instances.
#[derive(Debug, Clone)]
struct SpiderScratch {
    heads: BinaryHeap<Head>,
    set: EddSet<Slot>,
}

impl SpiderScratch {
    fn new() -> SpiderScratch {
        SpiderScratch { heads: BinaryHeap::new(), set: EddSet::new(0) }
    }
}

/// One leg's backward chain run, anchored at 0 (times relative to the
/// deadline) and computed lazily.
#[derive(Debug)]
struct LegRun<'a> {
    chain: &'a Chain,
    scheduler: BackwardScheduler<'a>,
    /// The tasks computed so far, in backward order: first-link
    /// emissions strictly fall, since every task crosses link 1.
    tasks: Vec<TaskAssignment>,
}

impl<'a> LegRun<'a> {
    fn new(chain: &'a Chain) -> LegRun<'a> {
        LegRun { chain, scheduler: BackwardScheduler::new(chain, 0), tasks: Vec::new() }
    }

    /// The merge head for task `index` at `deadline`: `None` when the
    /// leg holds `cap` tasks before it, or when its shifted first
    /// emission is negative (it is then kept for a later, looser
    /// probe).
    fn head(&mut self, leg: usize, index: usize, deadline: Time, cap: usize) -> Option<Head> {
        if index == self.tasks.len() {
            if index == cap {
                return None;
            }
            let (comms, start) = self.scheduler.front_step();
            let proc = comms.len();
            self.tasks.push(TaskAssignment::new(proc, start, comms, self.chain.w(proc)));
        }
        let emission = self.tasks[index].comms.first();
        (emission + deadline >= 0).then(|| {
            let c1 = self.chain.c(1);
            Reverse((c1, -emission - c1, leg, index))
        })
    }
}

/// Every leg's run for one deadline search of at most `cap` tasks.
#[derive(Debug)]
struct LegRuns<'a> {
    legs: Vec<LegRun<'a>>,
    cap: usize,
}

impl<'a> LegRuns<'a> {
    fn new(spider: &'a Spider, cap: usize) -> LegRuns<'a> {
        LegRuns { legs: spider.legs().iter().map(LegRun::new).collect(), cap }
    }

    /// Steps (1)–(4) at `deadline`: the legs' available virtual slaves,
    /// merged by `(c_1, processing time, leg)`, through the
    /// bandwidth-centric greedy under Jackson's rule. Leaves the
    /// selection in `scratch.set` and returns the task count — the
    /// binary-search probe, with no witness built.
    fn select(&mut self, deadline: Time, scratch: &mut SpiderScratch) -> usize {
        let cap = self.cap;
        scratch.heads.clear();
        for (leg, run) in self.legs.iter_mut().enumerate() {
            scratch.heads.extend(run.head(leg, 0, deadline, cap));
        }
        scratch.set.reset(deadline);
        while scratch.set.len() < cap {
            let Some(Reverse((comm, proc_time, leg, index))) = scratch.heads.pop() else { break };
            // A rejected slave dominates its leg's later ones, and the
            // set only grows: the leg is done for this probe.
            if scratch.set.try_insert(Item { comm, proc_time, payload: Slot { leg, index } }) {
                scratch.heads.extend(self.legs[leg].head(leg, index + 1, deadline, cap));
            }
        }
        scratch.set.len()
    }

    /// Step (5): revert the selection in `set` to a spider schedule.
    /// Every selected virtual slave is its leg's chain task, shifted by
    /// the set's deadline, with the master emission moved to the slot
    /// the fork algorithm chose (never later than the original —
    /// Lemma 3).
    fn revert(&self, set: &EddSet<Slot>) -> SpiderSchedule {
        let deadline = set.deadline();
        let tasks = set
            .items()
            .iter()
            .zip(set.emission_times())
            .map(|(item, emit)| {
                let Slot { leg, index } = item.payload;
                let task = &self.legs[leg].tasks[index];
                let comms = CommVector::from_fill(task.comms.len(), |times| {
                    for (t, &chain_time) in times.iter_mut().zip(task.comms.times()) {
                        *t = chain_time + deadline;
                    }
                    debug_assert!(
                        emit <= times[0],
                        "fork emission must not be later than the chain emission"
                    );
                    times[0] = emit;
                });
                SpiderTask::new(
                    NodeId { leg, depth: task.proc },
                    task.start + deadline,
                    comms,
                    task.work,
                )
            })
            .collect();
        SpiderSchedule::new(tasks)
    }
}

/// The `T_lim` spider algorithm (Section 7, steps (1)–(5)): schedules
/// the **maximum number of tasks** — at most `max_tasks` — on `spider`,
/// all completing by `deadline`. Optimal in task count by Theorem 3.
///
/// Complexity: `O(n p^2)` for the per-leg chain runs plus `O((n k)^2)`
/// for the fork selection (`k` legs), i.e. the paper's `O(n^2 p^2)`
/// bound.
pub fn schedule_spider_by_deadline(
    spider: &Spider,
    max_tasks: usize,
    deadline: Time,
) -> SpiderSchedule {
    SCRATCH.with_borrow_mut(|scratch| {
        let mut runs = LegRuns::new(spider, max_tasks);
        runs.select(deadline, scratch);
        runs.revert(&scratch.set)
    })
}

/// Minimum-makespan schedule of exactly `n` tasks on a spider, by binary
/// search over the deadline of [`schedule_spider_by_deadline`]. Returns
/// `(makespan, schedule)`.
///
/// Monotonicity of the optimal task count in the deadline (Theorem 3)
/// makes the binary search exact. It runs over `[LB, UB]`: the one-port
/// lower bound [`Spider::makespan_lower_bound`], which every schedule
/// meets, and the upper bound [`Spider::makespan_upper_bound`], which
/// runs everything on the best single leg. Every leg's chain run is
/// computed once for the whole search.
///
/// ```
/// use mst_platform::Spider;
/// use mst_spider::schedule_spider;
/// let spider = Spider::from_legs(&[&[(2, 3), (3, 5)], &[(1, 4)]]).unwrap();
/// let (makespan, schedule) = schedule_spider(&spider, 5);
/// assert_eq!(schedule.n(), 5);
/// // The extra leg can only improve on the lone Figure-2 chain (14).
/// assert!(makespan <= 14);
/// ```
pub fn schedule_spider(spider: &Spider, n: usize) -> (Time, SpiderSchedule) {
    schedule_spider_below(spider, n, Time::MAX).expect("the upper bound is always feasible")
}

/// [`schedule_spider`] for a caller that only wants a makespan of at
/// most `bound`: `None` when no schedule of `n` tasks ends by `bound`.
///
/// When `bound` is below the upper bound, one count-only probe at
/// `bound`, with no revert, tells whether any schedule meets it; a
/// caller holding an incumbent of makespan `m` passes `m - 1` and
/// rejects a losing spider in that one probe. Otherwise the search runs
/// over `[LB, min(bound, UB)]` and returns the same makespan and
/// schedule as [`schedule_spider`]. A `bound` at or above the upper
/// bound costs no extra probe.
pub fn schedule_spider_below(
    spider: &Spider,
    n: usize,
    bound: Time,
) -> Option<(Time, SpiderSchedule)> {
    assert!(n >= 1, "schedule_spider requires at least one task");
    SCRATCH.with_borrow_mut(|scratch| {
        let mut runs = LegRuns::new(spider, n);
        let mut hi = spider.makespan_upper_bound(n);
        if bound < hi {
            if runs.select(bound, scratch) < n {
                return None;
            }
            hi = bound;
        }
        let lo = spider.makespan_lower_bound(n);
        let (makespan, cached) = search_min_deadline(lo, hi, n, |d| runs.select(d, scratch));
        if !cached {
            runs.select(makespan, scratch);
        }
        Some((makespan, runs.revert(&scratch.set)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform_leg;
    use mst_baselines::{max_tasks_by_deadline, optimal_spider_makespan};
    use mst_core::{schedule_chain, schedule_chain_by_deadline};
    use mst_platform::{GeneratorConfig, HeterogeneityProfile, Tree};
    use mst_schedule::{check_spider, ChainSchedule};

    /// The reference pipeline, run afresh at one deadline: every leg's
    /// `T_lim` chain schedule, transformed into virtual slaves
    /// (Figure 7), pooled, stably sorted by `(comm, proc_time)`, selected
    /// by the greedy and reverted.
    fn reference_by_deadline(spider: &Spider, max_tasks: usize, deadline: Time) -> SpiderSchedule {
        let schedules: Vec<ChainSchedule> = spider
            .legs()
            .iter()
            .map(|chain| schedule_chain_by_deadline(chain, max_tasks, deadline))
            .collect();
        let mut virtuals = Vec::new();
        for (leg, (chain, schedule)) in spider.legs().iter().zip(&schedules).enumerate() {
            virtuals.extend(transform_leg(leg, chain, schedule, deadline));
        }
        virtuals.sort_by_key(|v| (v.comm, v.proc_time));
        let mut set = EddSet::new(deadline);
        for v in virtuals {
            if set.len() == max_tasks {
                break;
            }
            set.try_insert(Item { comm: v.comm, proc_time: v.proc_time, payload: v });
        }
        let tasks = set
            .items()
            .iter()
            .zip(set.emission_times())
            .map(|(item, emit)| {
                let v = item.payload;
                let task = schedules[v.leg].task(v.task_index);
                let comms = CommVector::from_fill(task.comms.len(), |times| {
                    times.copy_from_slice(task.comms.times());
                    times[0] = emit;
                });
                let node = NodeId { leg: v.leg, depth: task.proc };
                SpiderTask::new(node, task.start, comms, task.work)
            })
            .collect();
        SpiderSchedule::new(tasks)
    }

    #[test]
    fn leg_runs_select_what_the_per_deadline_pipeline_selects() {
        // One set of leg runs serves every deadline in [LB, UB], visited
        // upwards, downwards or alternating between the ends (as a
        // binary search does), so runs are both extended and cut.
        let mut spiders = vec![
            Spider::from_legs(&[&[(2, 2), (2, 2)], &[(2, 2), (2, 2)], &[(2, 2)]]).unwrap(),
            Spider::from_legs(&[&[(1, 3)], &[(1, 3), (1, 3)], &[(1, 3), (1, 3), (1, 3)]]).unwrap(),
            Spider::from_legs(&[&[(3, 1), (1, 1)], &[(3, 1), (1, 1)]]).unwrap(),
        ];
        for seed in 0..1_000u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            spiders.push(g.spider(1 + (seed % 4) as usize, 1, 3));
        }
        for (i, spider) in spiders.iter().enumerate() {
            let n = 1 + i % 12;
            let (lo, hi) = (spider.makespan_lower_bound(n), spider.makespan_upper_bound(n));
            let deadlines: Vec<Time> = match i % 3 {
                0 => (lo..=hi).collect(),
                1 => (lo..=hi).rev().collect(),
                _ => (0..=hi - lo)
                    .map(|k| if k % 2 == 0 { lo + k / 2 } else { hi - k / 2 })
                    .collect(),
            };
            SCRATCH.with_borrow_mut(|scratch| {
                let mut runs = LegRuns::new(spider, n);
                for deadline in deadlines {
                    let want = reference_by_deadline(spider, n, deadline);
                    let count = runs.select(deadline, scratch);
                    assert_eq!(count, want.n(), "{spider}, n {n}, deadline {deadline}");
                    assert_eq!(runs.revert(&scratch.set), want, "{spider}, n {n}, T {deadline}");
                }
            });
        }
    }

    #[test]
    fn deadline_schedules_are_feasible_and_meet_deadline() {
        for seed in 0..30u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let spider = g.spider(1 + (seed % 3) as usize, 1, 3);
            for deadline in [3, 8, 15, 30] {
                let s = schedule_spider_by_deadline(&spider, 20, deadline);
                check_spider(&spider, &s).assert_feasible();
                for t in s.tasks() {
                    assert!(t.end() <= deadline, "seed {seed}: task past deadline");
                    assert!(t.comms.first() >= 0);
                }
            }
        }
    }

    #[test]
    fn theorem3_task_count_matches_exhaustive_optimum() {
        // The headline spider claim: the algorithm schedules as many
        // tasks by T_lim as ANY feasible spider schedule.
        for seed in 0..25u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let spider = g.spider(1 + (seed % 3) as usize, 1, 2);
            let tree = Tree::from_spider(&spider);
            for deadline in [4, 9, 14, 20] {
                let algo = schedule_spider_by_deadline(&spider, 5, deadline).n();
                let exact = max_tasks_by_deadline(&tree, deadline, 5);
                assert_eq!(algo, exact, "seed {seed}, deadline {deadline}, {spider}");
            }
        }
    }

    #[test]
    fn spider_makespan_matches_exhaustive_optimum() {
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let spider = g.spider(1 + (seed % 3) as usize, 1, 2);
            let n = 1 + (seed % 4) as usize;
            let (makespan, s) = schedule_spider(&spider, n);
            assert_eq!(s.n(), n);
            check_spider(&spider, &s).assert_feasible();
            let exact = optimal_spider_makespan(&spider, n);
            assert_eq!(makespan, exact, "seed {seed}, n {n}, {spider}");
            assert_eq!(s.makespan(), makespan, "schedule must realise the searched deadline");
        }
    }

    #[test]
    fn bounded_search_matches_a_full_range_search() {
        // The reference: the first deadline from 1 up whose probe fits
        // `n`, selected and reverted, with no bound on either side.
        let full_range = |spider: &Spider, n: usize| {
            SCRATCH.with_borrow_mut(|scratch| {
                let mut runs = LegRuns::new(spider, n);
                let m = (1..).find(|&d| runs.select(d, scratch) >= n).unwrap();
                (m, runs.revert(&scratch.set))
            })
        };
        for seed in 0..200u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let spider = g.spider(1 + (seed % 5) as usize, 1, 3);
            let n = 1 + (seed % 16) as usize;
            let expected = full_range(&spider, n);
            assert_eq!(schedule_spider(&spider, n), expected, "seed {seed}");
            let m = expected.0;
            for bound in [0, m - 2, m - 1] {
                assert_eq!(schedule_spider_below(&spider, n, bound), None, "seed {seed}, {bound}");
            }
            for bound in [m, m + 1, spider.makespan_upper_bound(n), Time::MAX] {
                let got = schedule_spider_below(&spider, n, bound);
                assert_eq!(got.as_ref(), Some(&expected), "seed {seed}, bound {bound}");
            }
        }
    }

    #[test]
    fn single_leg_spider_equals_chain_algorithm() {
        for seed in 0..15u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(1 + (seed % 4) as usize);
            let spider = Spider::from_chain(chain.clone());
            for n in 1..6 {
                let chain_makespan = schedule_chain(&chain, n).makespan();
                let (spider_makespan, _) = schedule_spider(&spider, n);
                assert_eq!(spider_makespan, chain_makespan, "seed {seed}, n {n}");
            }
        }
    }

    #[test]
    fn fork_shaped_spider_equals_fork_algorithm() {
        use mst_fork::schedule_fork;
        for seed in 0..15u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let fork = g.fork(1 + (seed % 4) as usize);
            let spider = Spider::from_fork(&fork);
            for n in 1..5 {
                let (fm, _) = schedule_fork(&fork, n);
                let (sm, _) = schedule_spider(&spider, n);
                assert_eq!(fm, sm, "seed {seed}, n {n}");
            }
        }
    }

    #[test]
    fn figure2_as_spider() {
        let spider = Spider::from_chain(Chain::paper_figure2());
        let (makespan, s) = schedule_spider(&spider, 5);
        assert_eq!(makespan, 14);
        check_spider(&spider, &s).assert_feasible();
        assert_eq!(s.n(), 5);
    }

    #[test]
    fn task_count_monotone_in_deadline() {
        let spider = Spider::from_legs(&[&[(2, 3), (3, 5)], &[(1, 4)], &[(2, 2)]]).unwrap();
        let mut prev = 0;
        for deadline in 0..40 {
            let k = schedule_spider_by_deadline(&spider, 50, deadline).n();
            assert!(k >= prev, "deadline {deadline}");
            prev = k;
        }
        assert!(prev > 10, "40 ticks should fit many tasks on three legs");
    }

    #[test]
    fn master_port_is_the_bottleneck_when_legs_are_fast() {
        // Three fast legs behind c1 = 2 links: the port serialises
        // emissions, so ~deadline/2 tasks fit regardless of leg count.
        let spider = Spider::from_legs(&[&[(2, 1)], &[(2, 1)], &[(2, 1)]]).unwrap();
        let k = schedule_spider_by_deadline(&spider, 100, 21).n();
        assert!((9..=10).contains(&k), "port-bound count, got {k}");
    }
}
