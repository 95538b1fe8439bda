//! API parity: the unified `SolverRegistry` surface must be a *zero-cost
//! rename* of the legacy per-crate entry points.
//!
//! For generated chains, forks and spiders:
//!
//! * every registry solver produces the same makespan (for the optimal
//!   algorithms: the same schedule) as the direct call it wraps;
//! * every witnessed `Solution` passes the unified `verify()` oracle;
//! * the deadline (`T_lim`) variants agree task-for-task.

use master_slave_tasking::prelude::*;
use mst_baselines::{eager_chain, master_only_chain, round_robin_chain};
use mst_fork::{max_tasks_fork_by_deadline, schedule_fork};
use mst_sim::{simulate_online, OnlinePolicy};
use proptest::prelude::*;

fn registry() -> SolverRegistry {
    SolverRegistry::with_defaults()
}

fn chain_strategy(max_p: usize) -> impl Strategy<Value = Chain> {
    prop::collection::vec((1i64..=8, 1i64..=8), 1..=max_p)
        .prop_map(|pairs| Chain::from_pairs(&pairs).expect("positive pairs"))
}

fn fork_strategy(max_p: usize) -> impl Strategy<Value = Fork> {
    prop::collection::vec((1i64..=6, 1i64..=6), 1..=max_p)
        .prop_map(|pairs| Fork::from_pairs(&pairs).expect("positive pairs"))
}

fn spider_strategy() -> impl Strategy<Value = Spider> {
    prop::collection::vec(prop::collection::vec((1i64..=6, 1i64..=6), 1..=3), 1..=3).prop_map(
        |legs| {
            let refs: Vec<&[(Time, Time)]> = legs.iter().map(|l| l.as_slice()).collect();
            Spider::from_legs(&refs).expect("positive legs")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chain_solvers_match_legacy_calls(
        chain in chain_strategy(6),
        n in 1usize..=10,
    ) {
        let registry = registry();
        let instance = Instance::new(chain.clone(), n);

        // The optimal wrappers return the *identical* schedule.
        let direct = schedule_chain(&chain, n);
        for solver in ["optimal", "chain-optimal"] {
            let solution = registry.solve(solver, &instance).expect("chain solves");
            prop_assert_eq!(solution.chain_schedule().expect("witnessed"), &direct);
            prop_assert!(verify(&instance, &solution).unwrap().is_feasible());
        }

        // Heuristics agree makespan-for-makespan with the legacy calls.
        let legacy: [(&str, Time); 3] = [
            ("eager", eager_chain(&chain, n).makespan()),
            ("round-robin", round_robin_chain(&chain, n).makespan()),
            ("master-only", master_only_chain(&chain, n).makespan()),
        ];
        for (solver, expected) in legacy {
            let solution = registry.solve(solver, &instance).expect("heuristic solves");
            prop_assert_eq!(solution.makespan(), expected, "{}", solver);
            prop_assert!(verify(&instance, &solution).unwrap().is_feasible(), "{}", solver);
        }
    }

    #[test]
    fn chain_deadline_parity(
        chain in chain_strategy(5),
        cap in 1usize..=8,
        deadline in 0i64..=40,
    ) {
        let registry = registry();
        let instance = Instance::new(chain.clone(), cap);
        let direct = schedule_chain_by_deadline(&chain, cap, deadline);
        let solution = registry
            .solve_by_deadline("chain-optimal", &instance, deadline)
            .expect("deadline solves");
        prop_assert_eq!(solution.chain_schedule().expect("witnessed"), &direct);
        prop_assert!(verify(&instance, &solution).unwrap().is_feasible());
    }

    #[test]
    fn fork_solvers_match_legacy_calls(
        fork in fork_strategy(6),
        n in 1usize..=8,
    ) {
        let registry = registry();
        let instance = Instance::new(fork.clone(), n);
        let (direct_makespan, direct) = schedule_fork(&fork, n);
        for solver in ["optimal", "fork-optimal"] {
            let solution = registry.solve(solver, &instance).expect("fork solves");
            prop_assert_eq!(solution.makespan(), direct_makespan, "{}", solver);
            prop_assert_eq!(solution.spider_schedule().expect("witnessed"), &direct.schedule);
            prop_assert!(verify(&instance, &solution).unwrap().is_feasible(), "{}", solver);
        }
        // The spider algorithm on the equivalent one-node legs agrees on
        // the makespan (Theorem 3 subsumes the fork case).
        let via_spider = registry.solve("spider-optimal", &instance).expect("fork as spider");
        prop_assert_eq!(via_spider.makespan(), direct_makespan);
        prop_assert!(verify(&instance, &via_spider).unwrap().is_feasible());
    }

    #[test]
    fn fork_deadline_parity(
        fork in fork_strategy(5),
        cap in 1usize..=8,
        deadline in 0i64..=40,
    ) {
        let registry = registry();
        let instance = Instance::new(fork.clone(), cap);
        let direct = max_tasks_fork_by_deadline(&fork, cap, deadline);
        let solution = registry
            .solve_by_deadline("fork-optimal", &instance, deadline)
            .expect("deadline solves");
        prop_assert_eq!(solution.n(), direct.n());
        prop_assert_eq!(solution.spider_schedule().expect("witnessed"), &direct.schedule);
        prop_assert!(verify(&instance, &solution).unwrap().is_feasible());
    }

    #[test]
    fn spider_solvers_match_legacy_calls(
        spider in spider_strategy(),
        n in 1usize..=6,
    ) {
        let registry = registry();
        let instance = Instance::new(spider.clone(), n);
        let (direct_makespan, direct) = schedule_spider(&spider, n);
        for solver in ["optimal", "spider-optimal"] {
            let solution = registry.solve(solver, &instance).expect("spider solves");
            prop_assert_eq!(solution.makespan(), direct_makespan, "{}", solver);
            prop_assert_eq!(solution.spider_schedule().expect("witnessed"), &direct);
            prop_assert!(verify(&instance, &solution).unwrap().is_feasible(), "{}", solver);
        }
        // Online dispatchers match their simulator counterparts.
        let pairs = [
            ("eager", OnlinePolicy::EarliestCompletion),
            ("round-robin", OnlinePolicy::RoundRobinLegs),
            ("bandwidth-centric", OnlinePolicy::BandwidthCentric),
        ];
        for (solver, policy) in pairs {
            let solution = registry.solve(solver, &instance).expect("dispatcher solves");
            prop_assert_eq!(
                solution.spider_schedule().expect("witnessed"),
                &simulate_online(&spider, n, policy),
                "{}", solver
            );
            prop_assert!(verify(&instance, &solution).unwrap().is_feasible(), "{}", solver);
        }
    }

    #[test]
    fn spider_deadline_parity(
        spider in spider_strategy(),
        cap in 1usize..=6,
        deadline in 0i64..=30,
    ) {
        let registry = registry();
        let instance = Instance::new(spider.clone(), cap);
        let direct = schedule_spider_by_deadline(&spider, cap, deadline);
        let solution = registry
            .solve_by_deadline("spider-optimal", &instance, deadline)
            .expect("deadline solves");
        prop_assert_eq!(solution.spider_schedule().expect("witnessed"), &direct);
        prop_assert!(verify(&instance, &solution).unwrap().is_feasible());
    }
}

proptest! {
    // Exhaustive-search-backed parity is pricier; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exact_solver_matches_legacy_and_verifies(
        chain in chain_strategy(3),
        n in 1usize..=5,
    ) {
        let registry = registry();
        let instance = Instance::new(chain.clone(), n);
        let exact = registry.solve("exact", &instance).expect("exact solves");
        prop_assert_eq!(
            exact.makespan(),
            mst_baselines::optimal_chain_makespan(&chain, n)
        );
        // Unlike the legacy function, the solver reconstructs a witness.
        prop_assert!(exact.is_witnessed());
        prop_assert!(verify(&instance, &exact).unwrap().is_feasible());
        // Theorem 1 through the unified surface.
        prop_assert_eq!(exact.makespan(), registry.solve("optimal", &instance).unwrap().makespan());
    }

    #[test]
    fn exact_spider_witnesses_verify(
        spider in spider_strategy(),
        n in 1usize..=4,
    ) {
        let registry = registry();
        let instance = Instance::new(spider.clone(), n);
        let exact = registry.solve("exact", &instance).expect("exact solves");
        prop_assert!(exact.is_witnessed());
        prop_assert!(verify(&instance, &exact).unwrap().is_feasible());
        prop_assert_eq!(
            exact.makespan(),
            mst_baselines::optimal_spider_makespan(&spider, n)
        );
    }
}
