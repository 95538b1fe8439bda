//! Large-instance smoke tests: the polynomial algorithms must stay
//! correct (feasible, bound-respecting, replayable) and comfortably fast
//! well beyond the sizes the exhaustive validators can reach.

use master_slave_tasking::prelude::*;
use mst_baselines::bounds::chain_lower_bound;
use mst_core::BackwardScheduler;
use mst_schedule::{check_chain, check_spider, TaskAssignment};
use mst_verify::sim::{embed_chain, embed_spider, simulate};
use std::time::Instant;

/// [`schedule_chain`] through the reference step, which builds every
/// candidate.
fn schedule_chain_by_step(chain: &Chain, n: usize) -> ChainSchedule {
    let mut scheduler = BackwardScheduler::new(chain, chain.t_infinity(n));
    let mut tasks: Vec<TaskAssignment> = (0..n)
        .map(|_| {
            let step = scheduler.step();
            let proc = step.chosen.len();
            TaskAssignment::new(proc, step.start, step.chosen, chain.w(proc))
        })
        .collect();
    tasks.reverse();
    let mut schedule = ChainSchedule::new(tasks);
    schedule.shift(-schedule.start_time().expect("n >= 1"));
    schedule
}

#[test]
fn chain_at_scale_n2000_p64() {
    let chain = GeneratorConfig::new(HeterogeneityProfile::ALL[0], 99).chain(64);
    let n = 2000;
    let started = Instant::now();
    let s = schedule_chain(&chain, n);
    let elapsed = started.elapsed();
    assert_eq!(s.n(), n);
    // O(n p^2) with tiny constants: seconds would indicate a regression.
    assert!(elapsed.as_secs() < 30, "scheduling took {elapsed:?}");

    check_chain(&chain, &s).assert_feasible();
    let verdict = simulate(&Tree::from_chain(&chain), &embed_chain(&s));
    assert!(verdict.accepted(), "replays: {:?}", verdict.rejections.first());
    assert_eq!(verdict.makespan, s.makespan());

    // Sandwiched between the analytic bound and the master-only pipeline.
    assert!(s.makespan() >= chain_lower_bound(&chain, n));
    assert!(s.makespan() <= chain.t_infinity(n));

    // The candidate front picks what the reference step picks, bit for
    // bit, even at this size.
    assert_eq!(s, schedule_chain_by_step(&chain, n));
}

#[test]
fn spider_at_scale_n500_8legs() {
    let spider = GeneratorConfig::new(HeterogeneityProfile::ALL[4], 7).spider(8, 2, 5);
    let n = 500;
    let started = Instant::now();
    let (makespan, s) = schedule_spider(&spider, n);
    let elapsed = started.elapsed();
    assert_eq!(s.n(), n);
    assert!(elapsed.as_secs() < 60, "spider scheduling took {elapsed:?}");

    check_spider(&spider, &s).assert_feasible();
    let verdict = simulate(&Tree::from_spider(&spider), &embed_spider(&spider, &s));
    assert!(verdict.accepted(), "replays: {:?}", verdict.rejections.first());
    assert_eq!(verdict.makespan, makespan);
    assert!(makespan <= spider.makespan_upper_bound(n));
}

#[test]
fn deadline_variant_at_scale_counts_thousands() {
    let chain = GeneratorConfig::new(HeterogeneityProfile::ComputeBound, 3).chain(32);
    // A generous deadline admits a large batch; the count must stay
    // consistent with re-solving the makespan for that exact batch.
    let deadline = 4000;
    let s = schedule_chain_by_deadline(&chain, 100_000, deadline);
    assert!(s.n() > 500, "expected a large batch, got {}", s.n());
    check_chain(&chain, &s).assert_feasible();
    for t in s.tasks().iter().step_by(97) {
        assert!(t.end() <= deadline);
    }
    // Optimality linkage: the n-task optimum fits the deadline, and
    // n + 1 tasks do not.
    let n = s.n();
    assert!(schedule_chain(&chain, n).makespan() <= deadline);
    assert!(schedule_chain(&chain, n + 1).makespan() > deadline);
}
