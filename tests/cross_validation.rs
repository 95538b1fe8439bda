//! The validation triangle on randomized instances:
//!
//! ```text
//!    backward algorithm  ==  exhaustive optimum        (Theorems 1 & 3)
//!    analytic schedule   ==  pairwise oracle == simulator (Definition 1)
//! ```
//!
//! Every arrow is checked on seeded random platforms across all
//! heterogeneity profiles.

use master_slave_tasking::prelude::*;
use mst_baselines::{
    eager_chain, master_only_chain, max_tasks_by_deadline, optimal_chain_makespan,
    round_robin_chain,
};
use mst_platform::Tree;
use mst_schedule::{check_chain, check_spider, gantt, metrics};
use mst_verify::sim::{embed_chain, embed_spider, simulate};

fn profiles(seed: u64) -> HeterogeneityProfile {
    HeterogeneityProfile::ALL[(seed % 5) as usize]
}

#[test]
fn chain_triangle_holds_across_profiles() {
    for seed in 0..80u64 {
        let g = GeneratorConfig::new(profiles(seed), seed);
        let chain = g.chain(1 + (seed % 6) as usize);
        let n = 1 + (seed % 10) as usize;
        let schedule = schedule_chain(&chain, n);

        // Oracle.
        check_chain(&chain, &schedule).assert_feasible();
        // Reference simulator.
        let verdict = simulate(&Tree::from_chain(&chain), &embed_chain(&schedule));
        assert!(verdict.accepted(), "seed {seed}: simulator rejects: {:?}", verdict.rejections);
        assert_eq!(verdict.makespan, schedule.makespan(), "seed {seed}");
        assert_eq!(verdict.tasks, n, "seed {seed}");
        // Rendering never conflicts on a feasible schedule.
        assert!(!gantt::render_chain(&chain, &schedule).contains('#'), "seed {seed}");
    }
}

#[test]
fn chain_optimality_against_exhaustive_small() {
    for seed in 0..50u64 {
        let g = GeneratorConfig::new(profiles(seed), seed * 7 + 1);
        let chain = g.chain(1 + (seed % 4) as usize);
        let n = 1 + (seed % 6) as usize;
        let algo = schedule_chain(&chain, n).makespan();
        let exact = optimal_chain_makespan(&chain, n);
        assert_eq!(algo, exact, "seed {seed}, chain {chain}, n {n}");
    }
}

#[test]
fn spider_triangle_holds_across_profiles() {
    for seed in 0..50u64 {
        let g = GeneratorConfig::new(profiles(seed), seed);
        let spider = g.spider(1 + (seed % 4) as usize, 1, 3);
        let n = 1 + (seed % 8) as usize;
        let (makespan, schedule) = schedule_spider(&spider, n);

        check_spider(&spider, &schedule).assert_feasible();
        let verdict = simulate(&Tree::from_spider(&spider), &embed_spider(&spider, &schedule));
        assert!(verdict.accepted(), "seed {seed}: simulator rejects: {:?}", verdict.rejections);
        assert_eq!(verdict.makespan, makespan, "seed {seed}");
        assert_eq!(verdict.tasks, n, "seed {seed}");
        assert!(!gantt::render_spider(&spider, &schedule).contains('#'), "seed {seed}");
    }
}

#[test]
fn spider_count_optimality_against_exhaustive_small() {
    for seed in 0..30u64 {
        let g = GeneratorConfig::new(profiles(seed), seed * 3 + 2);
        let spider = g.spider(1 + (seed % 3) as usize, 1, 2);
        let tree = Tree::from_spider(&spider);
        for deadline in [5, 11, 17] {
            let algo = mst_spider::schedule_spider_by_deadline(&spider, 4, deadline).n();
            let exact = max_tasks_by_deadline(&tree, deadline, 4);
            assert_eq!(algo, exact, "seed {seed}, deadline {deadline}");
        }
    }
}

#[test]
fn heuristics_bracket_the_optimum() {
    for seed in 0..40u64 {
        let g = GeneratorConfig::new(profiles(seed), seed + 11);
        let chain = g.chain(1 + (seed % 5) as usize);
        let n = 1 + (seed % 9) as usize;
        let opt = schedule_chain(&chain, n).makespan();
        for s in
            [eager_chain(&chain, n), round_robin_chain(&chain, n), master_only_chain(&chain, n)]
        {
            assert!(s.makespan() >= opt, "seed {seed}");
            check_chain(&chain, &s).assert_feasible();
            // And they replay too — the simulator accepts any feasible
            // schedule, not only the optimal one.
            let verdict = simulate(&Tree::from_chain(&chain), &embed_chain(&s));
            assert!(verdict.accepted(), "heuristic schedule replays: {:?}", verdict.rejections);
            assert_eq!(verdict.makespan, s.makespan());
        }
    }
}

#[test]
fn metrics_are_consistent_with_schedules() {
    for seed in 0..30u64 {
        let g = GeneratorConfig::new(profiles(seed), seed + 23);
        let chain = g.chain(1 + (seed % 5) as usize);
        let n = 1 + (seed % 8) as usize;
        let s = schedule_chain(&chain, n);
        let m = metrics::chain_metrics(&chain, &s);
        assert_eq!(m.tasks, n);
        assert_eq!(m.makespan, s.makespan());
        assert_eq!(m.tasks_per_proc.iter().sum::<usize>(), n);
        // Busy time never exceeds the horizon per resource.
        for k in 1..=chain.len() {
            assert!(m.proc_busy[k - 1] <= m.makespan, "seed {seed}");
            assert!(m.link_busy[k - 1] <= m.makespan, "seed {seed}");
        }
    }
}

#[test]
fn instance_files_round_trip_through_schedulers() {
    for seed in 0..20u64 {
        let g = GeneratorConfig::new(profiles(seed), seed + 31);
        let chain = g.chain(1 + (seed % 4) as usize);
        let text = Platform::Chain(chain.clone()).to_text();
        let parsed = match Platform::parse(&text).expect("round trip") {
            Platform::Chain(c) => c,
            other => panic!("wrong topology {other:?}"),
        };
        // Scheduling the parsed instance gives identical results.
        assert_eq!(schedule_chain(&parsed, 5), schedule_chain(&chain, 5), "seed {seed}");
    }
}
