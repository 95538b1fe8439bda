//! Scheduling trees through their spider covers.

use crate::cover::{all_covers, cover_tree, distinct_covers, PathStrategy, SpiderCover};
use mst_platform::{Time, Tree};
use mst_schedule::{SpiderSchedule, TreeSchedule, TreeTask};
use mst_spider::{schedule_spider, schedule_spider_below};

/// A tree schedule obtained through a spider cover.
#[derive(Debug, Clone)]
pub struct TreeScheduleOutcome {
    /// Makespan of the schedule.
    pub makespan: Time,
    /// The cover that was used.
    pub cover: SpiderCover,
    /// The optimal spider schedule on the cover; node `(leg, depth)`
    /// means tree node `cover.node_map[leg][depth - 1]`.
    pub schedule: SpiderSchedule,
}

impl TreeScheduleOutcome {
    /// Re-addresses the cover schedule by the **full tree's** node ids:
    /// every spider placement `(leg, depth)` becomes the tree node
    /// `cover.node_map[leg][depth - 1]`, times unchanged. The result is
    /// feasible on the whole tree (off-cover nodes idle), so it passes
    /// [`mst_schedule::check_tree`] without knowing the cover — the
    /// lossless witness format for tree solutions.
    pub fn tree_schedule(&self) -> TreeSchedule {
        TreeSchedule::new(
            self.schedule
                .tasks()
                .iter()
                .map(|t| {
                    TreeTask::new(
                        self.cover.node_map[t.node.leg][t.node.depth - 1],
                        t.start,
                        t.comms.clone(),
                        t.work,
                    )
                })
                .collect(),
        )
    }
}

/// Schedules `n` tasks on the tree by covering it with `strategy` and
/// running the optimal spider algorithm on the cover.
///
/// The result is feasible for the full tree (off-cover nodes stay idle);
/// it is optimal *for the cover*, and a heuristic for the tree — the gap
/// is what experiment E3 measures.
///
/// ```
/// use mst_platform::Tree;
/// use mst_tree::{schedule_tree, PathStrategy};
/// // master -> 1 -> {2, 3}: one interior fork.
/// let tree = Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap();
/// let out = schedule_tree(&tree, 4, PathStrategy::BestRate);
/// assert_eq!(out.schedule.n(), 4);
/// assert_eq!(out.cover.covered_nodes(), 2); // one branch is dropped
/// ```
pub fn schedule_tree(tree: &Tree, n: usize, strategy: PathStrategy) -> TreeScheduleOutcome {
    let cover = cover_tree(tree, strategy);
    let (makespan, schedule) = schedule_spider(&cover.spider, n);
    TreeScheduleOutcome { makespan, cover, schedule }
}

/// Tries every strategy and keeps the best schedule: the first strategy,
/// in [`PathStrategy::ALL`] order, whose cover reaches the smallest
/// makespan.
///
/// Each distinct cover is scheduled once ([`distinct_covers`]). The
/// first is scheduled in full and becomes the incumbent. Every later one
/// is asked for a makespan of at most the incumbent's minus one
/// ([`schedule_spider_below`]), so a cover that cannot win costs one
/// probe, and only a strictly shorter makespan replaces the incumbent.
/// That keeps the first minimum, as `min_by_key` over the four
/// strategies would.
pub fn best_cover_schedule(tree: &Tree, n: usize) -> TreeScheduleOutcome {
    let mut covers = distinct_covers(tree, PathStrategy::ALL).into_iter();
    let cover = covers.next().expect("at least one strategy");
    let (makespan, schedule) = schedule_spider(&cover.spider, n);
    let mut best = TreeScheduleOutcome { makespan, cover, schedule };
    for cover in covers {
        if let Some((makespan, schedule)) =
            schedule_spider_below(&cover.spider, n, best.makespan - 1)
        {
            best = TreeScheduleOutcome { makespan, cover, schedule };
        }
    }
    best
}

/// The best makespan over **all** spider covers (exponential; small
/// trees only) — the limit of what covering can achieve.
pub fn exhaustive_cover_makespan(tree: &Tree, n: usize) -> Time {
    all_covers(tree)
        .into_iter()
        .map(|c| schedule_spider(&c.spider, n).0)
        .min()
        .expect("every tree has a cover")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_baselines::optimal_tree_makespan;
    use mst_platform::{GeneratorConfig, HeterogeneityProfile, Spider};
    use mst_schedule::check_spider;

    #[test]
    fn cover_schedules_are_feasible_on_their_cover() {
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let tree = g.tree(2 + (seed % 5) as usize);
            for strategy in PathStrategy::ALL {
                let out = schedule_tree(&tree, 4, strategy);
                assert_eq!(out.schedule.n(), 4);
                check_spider(&out.cover.spider, &out.schedule).assert_feasible();
                assert_eq!(out.schedule.makespan(), out.makespan);
            }
        }
    }

    #[test]
    fn cover_schedules_re_address_to_feasible_tree_schedules() {
        use mst_schedule::check_tree;
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let tree = g.tree(2 + (seed % 5) as usize);
            let out = best_cover_schedule(&tree, 1 + (seed % 5) as usize);
            let witness = out.tree_schedule();
            assert_eq!(witness.n(), out.schedule.n());
            assert_eq!(witness.makespan(), out.makespan);
            let report = check_tree(&tree, &witness);
            report.assert_feasible();
            assert_eq!(report.makespan, out.makespan);
        }
    }

    #[test]
    fn cover_never_beats_the_true_tree_optimum() {
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let tree = g.tree(2 + (seed % 4) as usize);
            let n = 1 + (seed % 4) as usize;
            let opt = optimal_tree_makespan(&tree, n);
            let best = best_cover_schedule(&tree, n).makespan;
            assert!(best >= opt, "cover beat the optimum (seed {seed})");
            let exhaustive = exhaustive_cover_makespan(&tree, n);
            assert!(exhaustive >= opt);
            assert!(best >= exhaustive, "strategy covers are a subset of all covers");
        }
    }

    #[test]
    fn covering_is_exact_on_spider_shaped_trees() {
        // When the tree IS a spider, the cover is lossless and the
        // heuristic equals the true optimum (Theorem 3 carried over).
        for seed in 0..15u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let spider = g.spider(2, 1, 2);
            let tree = mst_platform::Tree::from_spider(&spider);
            let n = 1 + (seed % 4) as usize;
            let opt = optimal_tree_makespan(&tree, n);
            let cover = best_cover_schedule(&tree, n).makespan;
            assert_eq!(cover, opt, "seed {seed}");
        }
    }

    #[test]
    fn covering_loses_when_a_branch_must_be_dropped() {
        // An interior fork with two compute-bound leaves: the cover keeps
        // one and idles the other, so with enough tasks it must lose to
        // the optimum that alternates between both.
        let tree = Tree::from_triples(&[(0, 1, 9), (1, 1, 3), (1, 1, 3)]).unwrap();
        let n = 6;
        let opt = optimal_tree_makespan(&tree, n);
        let cover = exhaustive_cover_makespan(&tree, n);
        assert!(cover > opt, "cover {cover} should exceed optimum {opt} here");
    }

    #[test]
    fn best_cover_at_least_matches_every_strategy() {
        let g = GeneratorConfig::new(HeterogeneityProfile::ALL[0], 11);
        let tree = g.tree(6);
        let best = best_cover_schedule(&tree, 5).makespan;
        for s in PathStrategy::ALL {
            assert!(best <= schedule_tree(&tree, 5, s).makespan);
        }
    }

    #[test]
    fn best_cover_matches_the_four_strategy_reference() {
        // Every strategy scheduled in full, and the first minimum kept.
        for seed in 0..300u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let tree = g.tree(2 + (seed % 7) as usize);
            let n = 1 + (seed % 24) as usize;
            let want = PathStrategy::ALL
                .iter()
                .map(|&s| schedule_tree(&tree, n, s))
                .min_by_key(|o| o.makespan)
                .expect("four strategies");
            let got = best_cover_schedule(&tree, n);
            assert_eq!(got.makespan, want.makespan, "seed {seed}");
            assert_eq!(got.cover, want.cover, "seed {seed}");
            assert_eq!(got.schedule, want.schedule, "seed {seed}");
        }
    }

    #[test]
    fn single_chain_tree_matches_chain_optimum() {
        use mst_core::schedule_chain;
        let chain = mst_platform::Chain::paper_figure2();
        let tree = Tree::from_chain(&chain);
        let out = best_cover_schedule(&tree, 5);
        assert_eq!(out.makespan, schedule_chain(&chain, 5).makespan());
        assert_eq!(out.cover.spider, Spider::from_chain(chain));
    }
}
