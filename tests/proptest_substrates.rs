//! Property-based tests over the substrates: the fork algorithm, the
//! instance format, the simulator/oracle agreement and the metrics.

use mst_api::Platform;
use mst_core::schedule_chain;
use mst_fork::{max_tasks_fork_by_deadline, schedule_fork};
use mst_platform::{Chain, Fork, Spider, Time, Tree};
use mst_schedule::metrics::chain_metrics;
use mst_schedule::{check_chain, check_spider};
use mst_sim::{simulate_online, OnlinePolicy};
use mst_verify::sim::{embed_chain, simulate};
use proptest::prelude::*;

fn fork_strategy(max_p: usize) -> impl Strategy<Value = Fork> {
    prop::collection::vec((1i64..=6, 1i64..=6), 1..=max_p)
        .prop_map(|pairs| Fork::from_pairs(&pairs).expect("positive pairs"))
}

fn chain_strategy(max_p: usize) -> impl Strategy<Value = Chain> {
    prop::collection::vec((1i64..=8, 1i64..=8), 1..=max_p)
        .prop_map(|pairs| Chain::from_pairs(&pairs).expect("positive pairs"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fork_deadline_schedules_are_feasible_and_safe(
        fork in fork_strategy(6),
        deadline in 0i64..=40,
    ) {
        let out = max_tasks_fork_by_deadline(&fork, 20, deadline);
        let spider = Spider::from_fork(&fork);
        let report = check_spider(&spider, &out.schedule);
        prop_assert!(report.is_feasible(), "{:?}", report.violations);
        for t in out.schedule.tasks() {
            prop_assert!(t.end() <= deadline);
            prop_assert!(t.comms.first() >= 0);
        }
    }

    #[test]
    fn fork_count_is_monotone_in_deadline_and_cap(
        fork in fork_strategy(5),
        deadline in 0i64..=30,
        extra in 0i64..=10,
    ) {
        let base = max_tasks_fork_by_deadline(&fork, 20, deadline).n();
        let later = max_tasks_fork_by_deadline(&fork, 20, deadline + extra).n();
        prop_assert!(later >= base);
        // A cap below the unconstrained count is attained exactly.
        let capped = max_tasks_fork_by_deadline(&fork, base / 2, deadline).n();
        prop_assert_eq!(capped, base / 2);
    }

    #[test]
    fn fork_makespan_binary_search_is_tight(
        fork in fork_strategy(4),
        n in 1usize..=6,
    ) {
        let (makespan, out) = schedule_fork(&fork, n);
        prop_assert_eq!(out.n(), n);
        // Tight: one tick earlier cannot fit all n tasks.
        prop_assert!(max_tasks_fork_by_deadline(&fork, n, makespan - 1).n() < n);
    }

    #[test]
    fn instance_text_round_trips(
        chain in chain_strategy(6),
        fork in fork_strategy(6),
    ) {
        for platform in [Platform::Chain(chain.clone()), Platform::Fork(fork.clone())] {
            let text = platform.to_text();
            prop_assert_eq!(Platform::parse(&text).expect("round trip"), platform);
        }
    }

    #[test]
    fn parser_never_panics_on_noise(text in "[a-z0-9 \n#-]{0,120}") {
        // Errors are fine; panics are not.
        let _ = Platform::parse(&text);
    }

    #[test]
    fn replay_agrees_with_oracle_on_optimal_schedules(
        chain in chain_strategy(5),
        n in 1usize..=8,
    ) {
        let s = schedule_chain(&chain, n);
        prop_assert!(check_chain(&chain, &s).is_feasible());
        let verdict = simulate(&Tree::from_chain(&chain), &embed_chain(&s));
        prop_assert!(verdict.accepted(), "optimal schedules replay: {:?}", verdict.rejections);
        prop_assert_eq!(verdict.makespan, s.makespan());
        prop_assert_eq!(verdict.tasks, n);
    }

    #[test]
    fn metrics_conserve_work(
        chain in chain_strategy(5),
        n in 1usize..=8,
    ) {
        let s = schedule_chain(&chain, n);
        let m = chain_metrics(&chain, &s);
        prop_assert_eq!(m.tasks_per_proc.iter().sum::<usize>(), n);
        let total_work: Time = (1..=chain.len())
            .map(|k| m.tasks_per_proc[k - 1] as Time * chain.w(k))
            .sum();
        prop_assert_eq!(m.proc_busy.iter().sum::<Time>(), total_work);
        // Link 1 carries every task.
        prop_assert_eq!(m.link_busy[0], n as Time * chain.c(1));
    }

    #[test]
    fn online_policies_emit_feasible_schedules(
        legs in prop::collection::vec(prop::collection::vec((1i64..=5, 1i64..=5), 1..=2), 1..=3),
        n in 1usize..=10,
    ) {
        let refs: Vec<&[(Time, Time)]> = legs.iter().map(|l| l.as_slice()).collect();
        let spider = Spider::from_legs(&refs).expect("positive");
        for policy in [
            OnlinePolicy::EarliestCompletion,
            OnlinePolicy::BandwidthCentric,
            OnlinePolicy::RoundRobinLegs,
        ] {
            let s = simulate_online(&spider, n, policy);
            prop_assert_eq!(s.n(), n);
            let report = check_spider(&spider, &s);
            prop_assert!(report.is_feasible(), "{policy:?}: {:?}", report.violations);
        }
    }
}
