//! The built-in [`Solver`] implementations wrapping every algorithm in
//! the workspace.

use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::{Platform, TopologyKind};
use crate::solution::Solution;
use crate::solver::Solver;
use mst_baselines::asap::TreeAsap;
use mst_baselines::{
    asap_chain, divisible_star, eager_chain, master_only_chain, optimal_tree_sequence,
    random_chain, round_robin_chain,
};
use mst_core::{schedule_chain, schedule_chain_by_deadline};
use mst_fork::{max_tasks_fork_by_deadline, schedule_fork};
use mst_platform::{NodeId, Spider, Time, Tree};
use mst_schedule::{SpiderSchedule, SpiderTask};
use mst_sim::{simulate_online, OnlinePolicy};
use mst_spider::{schedule_spider, schedule_spider_by_deadline};
use mst_tree::{best_cover_schedule, distinct_covers, tree_schedule_from_sequence, PathStrategy};
use std::cmp::Reverse;

/// The dispatching optimal solver: routes every topology to the
/// strongest algorithm the workspace has for it.
///
/// * chains → the paper's backward-greedy algorithm (optimal, Theorem 1);
/// * forks → Beaumont et al.'s expansion + Jackson selection (optimal);
/// * spiders → the Section-7 composition (optimal, Theorem 3);
/// * trees → the best spider-cover heuristic (optimal *for the cover*).
#[derive(Debug)]
pub struct OptimalSolver;

impl Solver for OptimalSolver {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn description(&self) -> &'static str {
        "best known algorithm per topology (optimal; trees: best spider cover)"
    }

    fn supports(&self, _kind: TopologyKind) -> bool {
        true
    }

    fn by_deadline(&self) -> bool {
        true
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let n = instance.tasks;
        Ok(match &instance.platform {
            Platform::Chain(chain) => Solution::from_chain(self.name(), schedule_chain(chain, n)),
            Platform::Fork(fork) => {
                Solution::from_spider(self.name(), schedule_fork(fork, n).1.schedule)
            }
            Platform::Spider(spider) => {
                Solution::from_spider(self.name(), schedule_spider(spider, n).1)
            }
            Platform::Tree(tree) => {
                let out = best_cover_schedule(tree, n);
                Solution::from_cover(self.name(), out.cover.spider, out.schedule)
            }
        })
    }

    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let cap = instance.tasks;
        Ok(match &instance.platform {
            Platform::Chain(chain) => {
                Solution::from_chain(self.name(), schedule_chain_by_deadline(chain, cap, deadline))
            }
            Platform::Fork(fork) => Solution::from_spider(
                self.name(),
                max_tasks_fork_by_deadline(fork, cap, deadline).schedule,
            ),
            Platform::Spider(spider) => Solution::from_spider(
                self.name(),
                schedule_spider_by_deadline(spider, cap, deadline),
            ),
            Platform::Tree(tree) => best_cover_by_deadline(self.name(), tree, cap, deadline),
        })
    }
}

/// Deadline variant of the spider-cover heuristic: tries every covering
/// strategy and keeps the cover fitting the most tasks (ties: earliest
/// finish; remaining ties: the last strategy in [`PathStrategy::ALL`]
/// order).
///
/// Each distinct cover is scheduled once. To keep the last of the tied
/// covers, the strategies are scanned backwards, each cover kept at its
/// last occurrence, and the first best one wins.
fn best_cover_by_deadline(
    solver: &'static str,
    tree: &Tree,
    cap: usize,
    deadline: Time,
) -> Solution {
    distinct_covers(tree, PathStrategy::ALL.into_iter().rev())
        .into_iter()
        .map(|cover| {
            let schedule = schedule_spider_by_deadline(&cover.spider, cap, deadline);
            Solution::from_cover(solver, cover.spider, schedule)
        })
        .min_by_key(|s| (Reverse(s.n()), s.makespan()))
        .expect("at least one covering strategy")
}

/// The chain algorithm of the paper (Section 3), chains only.
#[derive(Debug)]
pub struct ChainOptimalSolver;

impl Solver for ChainOptimalSolver {
    fn name(&self) -> &'static str {
        "chain-optimal"
    }

    fn description(&self) -> &'static str {
        "backward-greedy chain algorithm, O(n p^2) (Theorem 1: optimal)"
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        kind == TopologyKind::Chain
    }

    fn by_deadline(&self) -> bool {
        true
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let chain = instance.platform.as_chain().expect("checked chain");
        Ok(Solution::from_chain(self.name(), schedule_chain(chain, instance.tasks)))
    }

    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let chain = instance.platform.as_chain().expect("checked chain");
        Ok(Solution::from_chain(
            self.name(),
            schedule_chain_by_deadline(chain, instance.tasks, deadline),
        ))
    }
}

/// The fork-graph algorithm of Beaumont et al. (IPDPS 2002), forks only.
#[derive(Debug)]
pub struct ForkOptimalSolver;

impl Solver for ForkOptimalSolver {
    fn name(&self) -> &'static str {
        "fork-optimal"
    }

    fn description(&self) -> &'static str {
        "node expansion + Jackson greedy on stars (Beaumont et al.: optimal)"
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        kind == TopologyKind::Fork
    }

    fn by_deadline(&self) -> bool {
        true
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let fork = instance.platform.as_fork().expect("checked fork");
        Ok(Solution::from_spider(self.name(), schedule_fork(fork, instance.tasks).1.schedule))
    }

    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let fork = instance.platform.as_fork().expect("checked fork");
        Ok(Solution::from_spider(
            self.name(),
            max_tasks_fork_by_deadline(fork, instance.tasks, deadline).schedule,
        ))
    }
}

/// The spider algorithm of Section 7. Accepts spiders and, since chains
/// and forks are one-leg / length-one-leg spiders, those too — the
/// degenerate cases exercise the full pipeline and stay optimal.
#[derive(Debug)]
pub struct SpiderOptimalSolver;

impl SpiderOptimalSolver {
    fn spider_of(&self, instance: &Instance) -> Spider {
        instance.platform.to_spider().expect("chains, forks and spiders embed")
    }
}

impl Solver for SpiderOptimalSolver {
    fn name(&self) -> &'static str {
        "spider-optimal"
    }

    fn description(&self) -> &'static str {
        "per-leg T_lim chains + fork selection (Theorem 3: optimal; accepts chains/forks too)"
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        matches!(kind, TopologyKind::Chain | TopologyKind::Fork | TopologyKind::Spider)
    }

    fn by_deadline(&self) -> bool {
        true
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let spider = self.spider_of(instance);
        Ok(Solution::from_spider(self.name(), schedule_spider(&spider, instance.tasks).1))
    }

    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let spider = self.spider_of(instance);
        Ok(Solution::from_spider(
            self.name(),
            schedule_spider_by_deadline(&spider, instance.tasks, deadline),
        ))
    }
}

/// The spider-cover tree heuristic, trees only (the paper's future-work
/// programme as implemented by `mst-tree`).
#[derive(Debug)]
pub struct TreeCoverSolver;

impl Solver for TreeCoverSolver {
    fn name(&self) -> &'static str {
        "tree-cover"
    }

    fn description(&self) -> &'static str {
        "best spider cover of the tree, scheduled optimally (heuristic on trees)"
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        kind == TopologyKind::Tree
    }

    fn by_deadline(&self) -> bool {
        true
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let tree = instance.platform.as_tree().expect("checked tree");
        let out = best_cover_schedule(tree, instance.tasks);
        Ok(Solution::from_cover(self.name(), out.cover.spider, out.schedule))
    }

    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let tree = instance.platform.as_tree().expect("checked tree");
        Ok(best_cover_by_deadline(self.name(), tree, instance.tasks, deadline))
    }
}

/// Which forward policy an [`OnlineHeuristicSolver`] plays for non-chain
/// platforms, and which chain heuristic it falls back to.
#[derive(Debug)]
enum HeuristicKind {
    Eager,
    RoundRobin,
    BandwidthCentric,
    MasterOnly,
    Random { seed: u64 },
}

/// The forward heuristics a deployed master would actually run,
/// representing what the paper's backward construction buys.
#[derive(Debug)]
pub struct HeuristicSolver {
    kind: HeuristicKind,
}

impl HeuristicSolver {
    /// Eager earliest-completion dispatch (chains, forks, spiders).
    pub fn eager() -> Self {
        HeuristicSolver { kind: HeuristicKind::Eager }
    }

    /// Cyclic dealing (chains; legs for forks and spiders).
    pub fn round_robin() -> Self {
        HeuristicSolver { kind: HeuristicKind::RoundRobin }
    }

    /// Fixed priority by ascending first-link latency (forks, spiders).
    pub fn bandwidth_centric() -> Self {
        HeuristicSolver { kind: HeuristicKind::BandwidthCentric }
    }

    /// Everything on processor 1 (chains) — the `T_infinity` strawman.
    pub fn master_only() -> Self {
        HeuristicSolver { kind: HeuristicKind::MasterOnly }
    }

    /// Uniformly random assignment with a fixed seed (chains).
    pub fn random(seed: u64) -> Self {
        HeuristicSolver { kind: HeuristicKind::Random { seed } }
    }

    fn online_policy(&self) -> Option<OnlinePolicy> {
        match self.kind {
            HeuristicKind::Eager => Some(OnlinePolicy::EarliestCompletion),
            HeuristicKind::RoundRobin => Some(OnlinePolicy::RoundRobinLegs),
            HeuristicKind::BandwidthCentric => Some(OnlinePolicy::BandwidthCentric),
            HeuristicKind::MasterOnly | HeuristicKind::Random { .. } => None,
        }
    }
}

impl Solver for HeuristicSolver {
    fn name(&self) -> &'static str {
        match self.kind {
            HeuristicKind::Eager => "eager",
            HeuristicKind::RoundRobin => "round-robin",
            HeuristicKind::BandwidthCentric => "bandwidth-centric",
            HeuristicKind::MasterOnly => "master-only",
            HeuristicKind::Random { .. } => "random",
        }
    }

    fn description(&self) -> &'static str {
        match self.kind {
            HeuristicKind::Eager => "forward eager earliest-completion dispatch",
            HeuristicKind::RoundRobin => "cyclic dealing over processors/legs",
            HeuristicKind::BandwidthCentric => "fixed priority by ascending link latency",
            HeuristicKind::MasterOnly => "everything on processor 1 (T_infinity)",
            HeuristicKind::Random { .. } => "seeded uniformly-random assignment",
        }
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        match self.kind {
            HeuristicKind::MasterOnly | HeuristicKind::Random { .. } => kind == TopologyKind::Chain,
            HeuristicKind::BandwidthCentric => {
                matches!(kind, TopologyKind::Fork | TopologyKind::Spider)
            }
            HeuristicKind::Eager | HeuristicKind::RoundRobin => {
                matches!(kind, TopologyKind::Chain | TopologyKind::Fork | TopologyKind::Spider)
            }
        }
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let n = instance.tasks;
        if let Platform::Chain(chain) = &instance.platform {
            let schedule = match self.kind {
                HeuristicKind::Eager => eager_chain(chain, n),
                HeuristicKind::RoundRobin => round_robin_chain(chain, n),
                HeuristicKind::MasterOnly => master_only_chain(chain, n),
                HeuristicKind::Random { seed } => random_chain(chain, n, seed),
                HeuristicKind::BandwidthCentric => unreachable!("rejected by supports()"),
            };
            return Ok(Solution::from_chain(self.name(), schedule));
        }
        let policy = self.online_policy().expect("non-chain heuristics are online policies");
        let spider = instance.platform.to_spider().expect("fork/spider embeds");
        Ok(Solution::from_spider(self.name(), simulate_online(&spider, n, policy)))
    }
}

/// Exhaustive branch-and-bound over assignment sequences — the ground
/// truth the optimality theorems are validated against.
///
/// Exponential in the task count: meant for the small instances of the
/// validation experiments (`n ≤ 8`, `p ≤ 5`). It runs
/// [`mst_baselines::exact`]'s search, and reconstructs the witness
/// schedule on **every** topology — chains and spiders in their native
/// representations, general trees as a [`mst_schedule::TreeSchedule`]
/// (replaying the optimal assignment sequence through the same greedy
/// evaluator the search uses) — so all its solutions pass the same
/// [`crate::verify`] oracle as everyone else's.
#[derive(Debug)]
pub struct ExactSolver;

impl Solver for ExactSolver {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn description(&self) -> &'static str {
        "branch-and-bound over assignment sequences (exponential; small instances)"
    }

    fn supports(&self, _kind: TopologyKind) -> bool {
        true
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let n = instance.tasks;
        match &instance.platform {
            Platform::Chain(chain) => {
                let tree = Tree::from_chain(chain);
                let (_, sequence) = optimal_tree_sequence(&tree, n);
                Ok(Solution::from_chain(self.name(), asap_chain(chain, &sequence)))
            }
            Platform::Fork(_) | Platform::Spider(_) => {
                let spider = instance.platform.to_spider().expect("fork/spider embeds");
                let tree = Tree::from_spider(&spider);
                let (_, sequence) = optimal_tree_sequence(&tree, n);
                Ok(Solution::from_spider(
                    self.name(),
                    spider_schedule_from_sequence(&spider, &tree, &sequence),
                ))
            }
            Platform::Tree(tree) => {
                let (makespan, sequence) = optimal_tree_sequence(tree, n);
                let witness = tree_schedule_from_sequence(tree, &sequence);
                debug_assert_eq!(witness.makespan(), makespan, "replay must match the search");
                Ok(Solution::from_tree(self.name(), witness))
            }
        }
    }
}

/// Replays an assignment sequence on a spider-shaped tree and rebuilds
/// the [`SpiderSchedule`] from the greedy placements.
fn spider_schedule_from_sequence(
    spider: &Spider,
    tree: &Tree,
    sequence: &[usize],
) -> SpiderSchedule {
    // `Tree::from_spider` assigns ids leg by leg, depth-first — rebuild
    // the id → (leg, depth) address map the same way.
    let mut address = Vec::with_capacity(tree.len() + 1);
    address.push(NodeId { leg: usize::MAX, depth: 0 }); // id 0: the master
    for (leg, chain) in spider.legs().iter().enumerate() {
        for depth in 1..=chain.len() {
            address.push(NodeId { leg, depth });
        }
    }

    let mut state = TreeAsap::new(tree);
    let tasks = sequence
        .iter()
        .map(|&node_id| {
            let (emissions, start, _) = state.place(node_id);
            let id = address[node_id];
            SpiderTask::new(id, start, emissions, spider.node(id).work)
        })
        .collect();
    SpiderSchedule::new(tasks)
}

/// The single-installment divisible-load relaxation on stars — the fluid
/// model the paper's introduction contrasts its quantised tasks with.
/// Returns an unwitnessed lower-bound-style solution
/// ([`Solution::relaxed_makespan`] carries the exact fluid time).
#[derive(Debug)]
pub struct DivisibleSolver;

impl Solver for DivisibleSolver {
    fn name(&self) -> &'static str {
        "divisible"
    }

    fn description(&self) -> &'static str {
        "single-installment divisible-load fluid relaxation (stars; no witness schedule)"
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        kind == TopologyKind::Fork
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.check_instance(instance)?;
        let fork = instance.platform.as_fork().expect("checked fork");
        let fluid = divisible_star(fork, instance.tasks as f64);
        Ok(Solution::from_relaxation(self.name(), fluid.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::verify;
    use mst_platform::{Chain, Fork};

    fn chain_instance() -> Instance {
        Instance::new(Chain::paper_figure2(), 5)
    }

    #[test]
    fn optimal_dispatches_all_topologies() {
        let instances = [
            chain_instance(),
            Instance::new(Fork::from_pairs(&[(1, 2), (2, 3)]).unwrap(), 4),
            Instance::new(Spider::from_legs(&[&[(2, 3), (3, 5)], &[(1, 4)]]).unwrap(), 4),
            Instance::new(Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap(), 4),
        ];
        for instance in &instances {
            let solution = OptimalSolver.solve(instance).unwrap();
            assert_eq!(solution.n(), instance.tasks, "{instance}");
            assert!(verify(instance, &solution).unwrap().is_feasible(), "{instance}");
        }
    }

    #[test]
    fn optimal_figure2_is_14() {
        let solution = OptimalSolver.solve(&chain_instance()).unwrap();
        assert_eq!(solution.makespan(), 14);
    }

    #[test]
    fn capability_checks_reject_cleanly() {
        let tree = Instance::new(Tree::from_triples(&[(0, 1, 1)]).unwrap(), 1);
        assert!(matches!(
            ChainOptimalSolver.solve(&tree),
            Err(SolveError::UnsupportedTopology { .. })
        ));
        assert!(matches!(
            ChainOptimalSolver.solve(&Instance::new(Chain::paper_figure2(), 0)),
            Err(SolveError::ZeroTasks)
        ));
        assert!(matches!(
            HeuristicSolver::eager().solve_by_deadline(&chain_instance(), 10),
            Err(SolveError::DeadlineUnsupported { .. })
        ));
    }

    #[test]
    fn spider_optimal_accepts_degenerate_topologies() {
        let chain = chain_instance();
        let solution = SpiderOptimalSolver.solve(&chain).unwrap();
        assert_eq!(solution.makespan(), 14, "one-leg spider is the chain");
        assert!(verify(&chain, &solution).unwrap().is_feasible());

        let fork = Instance::new(Fork::from_pairs(&[(1, 2), (2, 3)]).unwrap(), 4);
        let via_spider = SpiderOptimalSolver.solve(&fork).unwrap();
        let via_fork = ForkOptimalSolver.solve(&fork).unwrap();
        assert_eq!(via_spider.makespan(), via_fork.makespan());
    }

    #[test]
    fn exact_reconstructs_verifiable_witnesses() {
        let chain = chain_instance();
        let solution = ExactSolver.solve(&chain).unwrap();
        assert_eq!(solution.makespan(), 14);
        assert_eq!(solution.n(), 5);
        assert!(verify(&chain, &solution).unwrap().is_feasible());

        let spider = Instance::new(Spider::from_legs(&[&[(2, 3)], &[(1, 4), (2, 2)]]).unwrap(), 3);
        let solution = ExactSolver.solve(&spider).unwrap();
        assert_eq!(solution.n(), 3);
        assert!(verify(&spider, &solution).unwrap().is_feasible());
        // The optimal spider algorithm must agree with the exhaustive optimum.
        let optimal = OptimalSolver.solve(&spider).unwrap();
        assert_eq!(optimal.makespan(), solution.makespan(), "Theorem 3");
    }

    #[test]
    fn exact_tree_witnesses_verify_and_bound_the_cover() {
        // The hole the tree-schedule representation closes: `exact` on a
        // general (non-spider) tree now carries a full witness the
        // oracle checks, instead of a bare makespan.
        let tree = Tree::from_triples(&[(0, 1, 9), (1, 1, 3), (1, 1, 3)]).unwrap();
        let instance = Instance::new(tree, 6);
        let solution = ExactSolver.solve(&instance).unwrap();
        assert!(solution.is_witnessed(), "tree exact solutions are witnessed now");
        assert_eq!(solution.n(), 6);
        let report = verify(&instance, &solution).unwrap();
        assert!(report.is_feasible());
        assert_eq!(report.makespan, solution.makespan());
        // The cover heuristic can only be as good as the true optimum —
        // and on this interior fork it is strictly worse.
        let cover = OptimalSolver.solve(&instance).unwrap();
        assert!(cover.makespan() > solution.makespan());
    }

    #[test]
    fn heuristics_never_beat_optimal() {
        let instance = chain_instance();
        let optimal = OptimalSolver.solve(&instance).unwrap().makespan();
        for solver in [
            HeuristicSolver::eager(),
            HeuristicSolver::round_robin(),
            HeuristicSolver::master_only(),
            HeuristicSolver::random(11),
        ] {
            let solution = solver.solve(&instance).unwrap();
            assert!(solution.makespan() >= optimal, "{} beat optimal", solver.name());
            assert!(verify(&instance, &solution).unwrap().is_feasible());
        }
    }

    #[test]
    fn divisible_reports_the_fluid_time_unwitnessed() {
        // Single slave: T = L * (c + w) exactly, so the fluid time and
        // its rounding are known in closed form.
        let instance = Instance::new(Fork::from_pairs(&[(2, 5)]).unwrap(), 3);
        let fluid = DivisibleSolver.solve(&instance).unwrap();
        assert!(!fluid.is_witnessed());
        assert!((fluid.relaxed_makespan().unwrap() - 21.0).abs() < 1e-9);
        assert_eq!(fluid.makespan(), 21);
        assert!(verify(&instance, &fluid).unwrap().is_feasible(), "vacuous");
        // On a two-slave star the fluid model still reports a positive
        // finish time in the same ballpark as the quantised optimum.
        let instance = Instance::new(Fork::from_pairs(&[(2, 5), (1, 3)]).unwrap(), 6);
        let fluid = DivisibleSolver.solve(&instance).unwrap();
        let integral = ForkOptimalSolver.solve(&instance).unwrap();
        assert!(fluid.relaxed_makespan().unwrap() > 0.0);
        assert!(fluid.makespan() <= 2 * integral.makespan());
    }

    #[test]
    fn deadline_variants_respect_cap_and_deadline() {
        for deadline in [0, 5, 9, 14, 30] {
            let solution = OptimalSolver.solve_by_deadline(&chain_instance(), deadline).unwrap();
            assert!(solution.n() <= 5);
            assert!(solution.makespan() <= deadline.max(0));
            let tree =
                Instance::new(Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap(), 6);
            let cover = OptimalSolver.solve_by_deadline(&tree, deadline).unwrap();
            assert!(verify(&tree, &cover).unwrap().is_feasible());
            assert!(cover.makespan() <= deadline.max(0));
        }
    }

    #[test]
    fn deadline_cover_scan_matches_the_four_strategy_reference() {
        use crate::wire::solution_to_json;
        use mst_platform::{GeneratorConfig, HeterogeneityProfile};
        // Every strategy's cover scheduled, and the last best one kept,
        // as `max_by_key` keeps the last maximum.
        let reference = |tree: &Tree, cap: usize, deadline: Time| {
            PathStrategy::ALL
                .iter()
                .map(|&strategy| {
                    let cover = mst_tree::cover_tree(tree, strategy);
                    let schedule = schedule_spider_by_deadline(&cover.spider, cap, deadline);
                    Solution::from_cover("optimal", cover.spider, schedule)
                })
                .max_by_key(|s| (s.n(), -s.makespan()))
                .expect("four strategies")
        };
        let json = |s: &Solution| solution_to_json(s).to_string();
        for seed in 0..1_000u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let tree = g.tree(2 + (seed % 7) as usize);
            let cap = 1 + (seed % 12) as usize;
            let m = best_cover_schedule(&tree, cap).makespan;
            for deadline in [m / 2, m - 1, m, m + 1, 2 * m] {
                assert_eq!(
                    json(&best_cover_by_deadline("optimal", &tree, cap, deadline)),
                    json(&reference(&tree, cap, deadline)),
                    "seed {seed}, cap {cap}, deadline {deadline}: {tree}"
                );
            }
        }
    }
}
