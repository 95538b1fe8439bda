//! Property-based tests over the core data structures and algorithms.
//!
//! Strategies draw random platforms and task counts; the properties are
//! the paper's invariants:
//!
//! * Definition 3 is a total order (antisymmetric, transitive, total);
//! * the chain algorithm always emits feasible, normalised schedules;
//! * it never loses to any forward heuristic and exactly matches the
//!   exhaustive optimum on small instances (Theorem 1);
//! * deadline schedules are suffix-closed and deadline-monotone;
//! * Jackson's incremental set agrees with the from-scratch checker;
//! * the candidate front, which every run takes, is bit-identical to the
//!   reference step, which builds every candidate.

use mst_baselines::{asap_chain, eager_chain, optimal_chain_makespan};
use mst_core::{schedule_chain, schedule_chain_by_deadline, BackwardScheduler};
use mst_fork::jackson::{feasible, EddSet, Item};
use mst_platform::{Chain, Spider, Time};
use mst_schedule::{check_chain, check_spider, ChainSchedule, CommVector, TaskAssignment};
use mst_spider::schedule_spider;
use proptest::prelude::*;

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

fn chain_strategy(max_p: usize) -> impl Strategy<Value = Chain> {
    prop::collection::vec((1i64..=8, 1i64..=8), 1..=max_p)
        .prop_map(|pairs| Chain::from_pairs(&pairs).expect("positive pairs"))
}

fn spider_strategy() -> impl Strategy<Value = Spider> {
    prop::collection::vec(prop::collection::vec((1i64..=6, 1i64..=6), 1..=3), 1..=3).prop_map(
        |legs| {
            let refs: Vec<&[(Time, Time)]> = legs.iter().map(|l| l.as_slice()).collect();
            Spider::from_legs(&refs).expect("positive legs")
        },
    )
}

fn comm_vector_strategy() -> impl Strategy<Value = CommVector> {
    prop::collection::vec(-20i64..=20, 1..=5).prop_map(CommVector::new)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn def3_order_is_total_and_lawful(
        a in comm_vector_strategy(),
        b in comm_vector_strategy(),
        c in comm_vector_strategy(),
    ) {
        use std::cmp::Ordering;
        // Totality + antisymmetry.
        let ab = a.def3_cmp(&b);
        let ba = b.def3_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(ab == Ordering::Equal, a == b);
        // Transitivity through sorting three elements.
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort();
        for w in v.windows(2) {
            prop_assert!(w[0].def3_cmp(&w[1]) != Ordering::Greater);
        }
    }

    #[test]
    fn chain_schedules_are_feasible_and_normalised(
        chain in chain_strategy(6),
        n in 1usize..=10,
    ) {
        let s = schedule_chain(&chain, n);
        prop_assert_eq!(s.n(), n);
        prop_assert_eq!(s.start_time(), Some(0));
        let report = check_chain(&chain, &s);
        prop_assert!(report.is_feasible(), "{:?}", report.violations);
    }

    #[test]
    fn fast_variant_is_bit_identical(
        chain in chain_strategy(6),
        n in 1usize..=10,
    ) {
        prop_assert_eq!(schedule_chain(&chain, n), schedule_chain_by_step(&chain, n));
    }

    #[test]
    fn algorithm_never_loses_to_eager(
        chain in chain_strategy(5),
        n in 1usize..=8,
    ) {
        prop_assert!(schedule_chain(&chain, n).makespan() <= eager_chain(&chain, n).makespan());
    }

    #[test]
    fn deadline_variant_is_monotone_and_safe(
        chain in chain_strategy(4),
        d1 in 0i64..=30,
        extra in 0i64..=15,
    ) {
        let s1 = schedule_chain_by_deadline(&chain, 50, d1);
        let s2 = schedule_chain_by_deadline(&chain, 50, d1 + extra);
        prop_assert!(s1.n() <= s2.n());
        for t in s1.tasks() {
            prop_assert!(t.end() <= d1);
            prop_assert!(t.comms.first() >= 0);
        }
    }

    #[test]
    fn deadline_schedules_are_suffix_closed(
        chain in chain_strategy(4),
        deadline in 5i64..=35,
        k in 0usize..=6,
    ) {
        let full = schedule_chain_by_deadline(&chain, 10, deadline);
        let partial = schedule_chain_by_deadline(&chain, k, deadline);
        let keep = k.min(full.n());
        prop_assert_eq!(partial.n(), keep);
        prop_assert_eq!(partial.tasks(), &full.tasks()[full.n() - keep..]);
    }

    #[test]
    fn jackson_incremental_matches_reference(
        deadline in 5i64..=40,
        items in prop::collection::vec((1i64..=6, 1i64..=25), 1..=10),
    ) {
        let mut set = EddSet::new(deadline);
        let mut kept: Vec<Item<()>> = Vec::new();
        for (comm, proc_time) in items {
            let item = Item { comm, proc_time, payload: () };
            let mut probe = kept.clone();
            probe.push(item);
            let expected = feasible(deadline, &probe);
            let got = set.try_insert(item);
            prop_assert_eq!(got, expected);
            if got {
                kept.push(item);
            }
        }
    }

    #[test]
    fn arbitrary_sequences_evaluate_feasibly(
        chain in chain_strategy(5),
        raw_seq in prop::collection::vec(0usize..5, 1..=10),
    ) {
        let p = chain.len();
        let seq: Vec<usize> = raw_seq.iter().map(|r| (r % p) + 1).collect();
        let s = asap_chain(&chain, &seq);
        let report = check_chain(&chain, &s);
        prop_assert!(report.is_feasible(), "{:?}", report.violations);
    }
}

proptest! {
    // Exhaustive-search-backed properties are pricier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn theorem1_on_random_small_instances(
        chain in chain_strategy(3),
        n in 1usize..=5,
    ) {
        prop_assert_eq!(
            schedule_chain(&chain, n).makespan(),
            optimal_chain_makespan(&chain, n)
        );
    }

    #[test]
    fn spider_schedules_are_feasible_and_exact_count(
        spider in spider_strategy(),
        n in 1usize..=6,
    ) {
        let (makespan, s) = schedule_spider(&spider, n);
        prop_assert_eq!(s.n(), n);
        let report = check_spider(&spider, &s);
        prop_assert!(report.is_feasible(), "{:?}", report.violations);
        prop_assert_eq!(s.makespan(), makespan);
    }
}
