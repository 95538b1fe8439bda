//! End-to-end reproduction of the paper's worked artifacts:
//! Figure 2 (the chain schedule), Figure 7 (its fork transformation),
//! and the full spider pipeline on top of them.

use master_slave_tasking::prelude::*;
use mst_baselines::optimal_chain_makespan;
use mst_core::lemmas::{check_lemma1_no_crossing, check_lemma2_subchain, Lemma2Outcome};
use mst_schedule::{check_chain, check_spider};
use mst_spider::transform_leg;
use mst_verify::sim::{embed_chain, embed_spider, simulate};

#[test]
fn figure2_full_pipeline() {
    let chain = Chain::paper_figure2();
    let schedule = schedule_chain(&chain, 5);

    // The paper's numbers.
    assert_eq!(schedule.makespan(), 14);
    let emissions: Vec<Time> = schedule.tasks().iter().map(|t| t.comms.first()).collect();
    assert_eq!(emissions, vec![0, 2, 4, 6, 9]);

    // Analytic == oracle == executable.
    check_chain(&chain, &schedule).assert_feasible();
    let verdict = simulate(&Tree::from_chain(&chain), &embed_chain(&schedule));
    assert!(verdict.accepted(), "replays: {:?}", verdict.rejections);
    assert_eq!(verdict.makespan, schedule.makespan());
    assert_eq!(verdict.tasks, 5);

    // The exhaustive optimum agrees (Theorem 1 on this instance).
    assert_eq!(optimal_chain_makespan(&chain, 5), 14);

    // The dashed-curve anecdote: the second task is received at t = 4
    // but starts at t = 5, buffered behind the first.
    let second = schedule.task(2);
    assert_eq!(second.comms.first() + chain.c(1), 4);
    assert_eq!(second.start, 5);
}

#[test]
fn figure7_transformation_pipeline() {
    let chain = Chain::paper_figure2();
    let deadline = 14;
    let by_deadline = schedule_chain_by_deadline(&chain, 5, deadline);
    assert_eq!(by_deadline.n(), 5, "the optimal deadline fits the full batch");

    let slaves = transform_leg(0, &chain, &by_deadline, deadline);
    let mut procs: Vec<Time> = slaves.iter().map(|s| s.proc_time).collect();
    procs.sort_unstable();
    assert_eq!(procs, vec![3, 6, 8, 10, 12]);
    assert!(slaves.iter().all(|s| s.comm == 2));
}

#[test]
fn paper_chain_as_spider_leg_among_others() {
    // Put the Figure-2 chain inside a spider with two extra legs and
    // check the whole stack end to end.
    let spider = Spider::from_legs(&[
        &[(2, 3), (3, 5)], // the paper's chain
        &[(1, 4)],
        &[(3, 2), (1, 2)],
    ])
    .expect("valid spider");

    for n in 1..=10 {
        let (makespan, schedule) = schedule_spider(&spider, n);
        assert_eq!(schedule.n(), n);
        check_spider(&spider, &schedule).assert_feasible();
        let verdict = simulate(&Tree::from_spider(&spider), &embed_spider(&spider, &schedule));
        assert!(verdict.accepted(), "replays: {:?}", verdict.rejections);
        assert_eq!(verdict.makespan, makespan);
        assert_eq!(verdict.tasks, n);
        // More legs can only help relative to the lone chain.
        assert!(makespan <= schedule_chain(&Chain::paper_figure2(), n).makespan());
    }
}

#[test]
fn lemmas_hold_on_the_paper_instance() {
    let chain = Chain::paper_figure2();
    assert!(check_lemma1_no_crossing(&chain, 5).is_empty());
    assert_eq!(check_lemma2_subchain(&chain, 5), Lemma2Outcome::Consistent { forwarded: 1 });
}

#[test]
fn prelude_exports_the_advertised_api() {
    // The README quickstart compiles against the prelude alone.
    let chain = Chain::paper_figure2();
    let s = schedule_chain(&chain, 5);
    assert_eq!(s.makespan(), 14);
    let _ = schedule_chain_by_deadline(&chain, 5, 14);
    let spider = Spider::from_chain(chain);
    let _ = schedule_spider(&spider, 2);
    let _ = schedule_spider_by_deadline(&spider, 2, 20);
}
