//! The spider algorithm: per-leg chains, fork selection, revert.
//!
//! The deadline search is incremental: binary-search probes run the
//! selection (steps (1)–(4)) through a reusable `SpiderScratch`
//! without materialising a witness, and step (5)'s revert runs **once**,
//! on the final deadline — the same hot-path structure as
//! `mst_fork::schedule_fork`. Probes start at the one-port lower bound,
//! not at `T = 1`.

use crate::transform::{transform_leg_into, ChainVirtualSlave};
use mst_core::schedule_chain_by_deadline;
use mst_fork::jackson::{EddSet, Item};
use mst_fork::search_min_deadline;
use mst_platform::{NodeId, Spider, Time};
use mst_schedule::{ChainSchedule, CommVector, SpiderSchedule, SpiderTask};
use std::cell::RefCell;

thread_local! {
    /// Per-thread scratch backing the buffer-less entry points, so batch
    /// traffic reuses one set of buffers per worker thread.
    static SCRATCH: RefCell<SpiderScratch> = RefCell::new(SpiderScratch::new());
}

/// Reusable working memory for the spider selection: the per-leg chain
/// schedules, the pooled virtual-slave buffer and the greedy's feasible
/// set, kept across binary-search probes and across instances.
#[derive(Debug, Clone)]
struct SpiderScratch {
    leg_schedules: Vec<ChainSchedule>,
    virtuals: Vec<ChainVirtualSlave>,
    set: EddSet<ChainVirtualSlave>,
}

impl SpiderScratch {
    fn new() -> SpiderScratch {
        SpiderScratch { leg_schedules: Vec::new(), virtuals: Vec::new(), set: EddSet::new(0) }
    }
}

/// Steps (1)–(4): per-leg `T_lim` chains, pooled transformation, greedy
/// selection. Leaves the selection in `scratch` (the revert needs the
/// leg schedules too) and returns the task count — the binary-search
/// probe, with no witness built.
fn select_into(
    spider: &Spider,
    max_tasks: usize,
    deadline: Time,
    scratch: &mut SpiderScratch,
) -> usize {
    // (2) optimal T_lim chain schedule per leg.
    scratch.leg_schedules.clear();
    scratch.leg_schedules.extend(
        spider.legs().iter().map(|chain| schedule_chain_by_deadline(chain, max_tasks, deadline)),
    );

    // (3) pooled fork graph of virtual slaves.
    scratch.virtuals.clear();
    for (l, chain) in spider.legs().iter().enumerate() {
        let (schedules, virtuals) = (&scratch.leg_schedules, &mut scratch.virtuals);
        transform_leg_into(l, chain, &schedules[l], deadline, virtuals);
    }
    scratch.virtuals.sort_by_key(|v| (v.comm, v.proc_time));

    // (4) bandwidth-centric greedy selection under Jackson's rule.
    scratch.set.reset(deadline);
    for &v in &scratch.virtuals {
        if scratch.set.len() == max_tasks {
            break;
        }
        scratch.set.try_insert(Item { comm: v.comm, proc_time: v.proc_time, payload: v });
    }
    scratch.set.len()
}

/// Step (5): revert the selection sitting in `scratch` to a spider
/// schedule — every selected virtual slave is its original chain task,
/// with the master emission moved to the slot the fork algorithm chose
/// (never later than the original — Lemma 3).
fn revert(scratch: &SpiderScratch) -> SpiderSchedule {
    let emissions = scratch.set.emission_times();
    let mut tasks = Vec::with_capacity(scratch.set.len());
    for (item, emit) in scratch.set.items().iter().zip(emissions) {
        let v = item.payload;
        let chain_task = scratch.leg_schedules[v.leg].task(v.task_index);
        debug_assert!(
            emit <= chain_task.comms.first(),
            "fork emission must not be later than the chain emission"
        );
        let mut times = chain_task.comms.times().to_vec();
        times[0] = emit;
        tasks.push(SpiderTask::new(
            NodeId { leg: v.leg, depth: chain_task.proc },
            chain_task.start,
            CommVector::new(times),
            chain_task.work,
        ));
    }
    SpiderSchedule::new(tasks)
}

/// The `T_lim` spider algorithm (Section 7, steps (1)–(5)): schedules
/// the **maximum number of tasks** — at most `max_tasks` — on `spider`,
/// all completing by `deadline`. Optimal in task count by Theorem 3.
///
/// Complexity: `O(n p^2)` for the per-leg chain schedules plus
/// `O((n k)^2)` for the fork selection (`k` legs), i.e. the paper's
/// `O(n^2 p^2)` bound.
pub fn schedule_spider_by_deadline(
    spider: &Spider,
    max_tasks: usize,
    deadline: Time,
) -> SpiderSchedule {
    SCRATCH.with_borrow_mut(|scratch| {
        select_into(spider, max_tasks, deadline, scratch);
        revert(scratch)
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
/// runs everything on the best single leg.
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
        let mut hi = spider.makespan_upper_bound(n);
        if bound < hi {
            if select_into(spider, n, bound, scratch) < n {
                return None;
            }
            hi = bound;
        }
        let lo = spider.makespan_lower_bound(n);
        let (makespan, cached) =
            search_min_deadline(lo, hi, n, |d| select_into(spider, n, d, scratch));
        if !cached {
            select_into(spider, n, makespan, scratch);
        }
        Some((makespan, revert(scratch)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_baselines::{max_tasks_by_deadline, optimal_spider_makespan};
    use mst_core::schedule_chain;
    use mst_platform::{Chain, GeneratorConfig, HeterogeneityProfile, Tree};
    use mst_schedule::check_spider;

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
                let m = (1..).find(|&d| select_into(spider, n, d, scratch) >= n).unwrap();
                (m, revert(scratch))
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
