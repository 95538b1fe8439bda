//! The unified [`Solution`] type and the [`verify`] oracle.

use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::Platform;
use mst_platform::{Spider, Time};
use mst_schedule::{
    check_chain, check_spider, check_tree, gantt, ChainSchedule, FeasibilityReport, SpiderSchedule,
    TreeSchedule,
};
use std::fmt;

/// The schedule carried by a [`Solution`], in whichever representation
/// the solved topology uses.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleRepr {
    /// A chain schedule (chain platforms).
    Chain(ChainSchedule),
    /// A spider schedule (fork, spider, and covered-tree platforms).
    Spider(SpiderSchedule),
    /// A tree schedule, addressed by tree node ids — valid for **any**
    /// platform, since chains, forks and spiders embed into trees.
    Tree(TreeSchedule),
}

/// The result of solving one [`Instance`]: a makespan plus (for every
/// schedule-producing solver) the witness schedule behind it.
///
/// Every schedule-constructing solver — including the exact
/// branch-and-bound on general trees, via [`ScheduleRepr::Tree`] —
/// emits a checkable witness; only relaxations (the divisible-load
/// fluid bound) return solutions without a schedule, and
/// [`Solution::is_witnessed`] distinguishes the two.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    solver: &'static str,
    makespan: Time,
    schedule: Option<ScheduleRepr>,
    /// For tree platforms solved through a spider cover: the covered
    /// sub-platform the schedule actually runs on (off-cover processors
    /// idle). [`verify`] checks tree solutions against this.
    sub_platform: Option<Spider>,
    /// For fluid relaxations: the un-rounded finish time.
    relaxed_makespan: Option<f64>,
}

impl Solution {
    /// A solution witnessed by a chain schedule.
    pub fn from_chain(solver: &'static str, schedule: ChainSchedule) -> Solution {
        Solution {
            solver,
            makespan: schedule.makespan(),
            schedule: Some(ScheduleRepr::Chain(schedule)),
            sub_platform: None,
            relaxed_makespan: None,
        }
    }

    /// A solution witnessed by a spider schedule.
    pub fn from_spider(solver: &'static str, schedule: SpiderSchedule) -> Solution {
        Solution {
            solver,
            makespan: schedule.makespan(),
            schedule: Some(ScheduleRepr::Spider(schedule)),
            sub_platform: None,
            relaxed_makespan: None,
        }
    }

    /// A solution for a tree platform scheduled on a spider cover.
    pub fn from_cover(solver: &'static str, cover: Spider, schedule: SpiderSchedule) -> Solution {
        Solution {
            solver,
            makespan: schedule.makespan(),
            schedule: Some(ScheduleRepr::Spider(schedule)),
            sub_platform: Some(cover),
            relaxed_makespan: None,
        }
    }

    /// A solution witnessed by a tree schedule (any platform — chains,
    /// forks and spiders embed into trees).
    pub fn from_tree(solver: &'static str, schedule: TreeSchedule) -> Solution {
        Solution {
            solver,
            makespan: schedule.makespan(),
            schedule: Some(ScheduleRepr::Tree(schedule)),
            sub_platform: None,
            relaxed_makespan: None,
        }
    }

    /// A makespan-only solution (no witness schedule).
    pub fn from_makespan(solver: &'static str, makespan: Time) -> Solution {
        Solution { solver, makespan, schedule: None, sub_platform: None, relaxed_makespan: None }
    }

    /// A fluid-relaxation solution: `time` is rounded up to the integer
    /// tick reported by [`Solution::makespan`], the exact value stays
    /// available through [`Solution::relaxed_makespan`].
    pub fn from_relaxation(solver: &'static str, time: f64) -> Solution {
        Solution {
            solver,
            makespan: time.ceil() as Time,
            schedule: None,
            sub_platform: None,
            relaxed_makespan: Some(time),
        }
    }

    /// Reassembles a solution from its fields as they stand, the makespan
    /// included: the inverse of the accessors, for the solution cache's
    /// packed entries.
    pub(crate) fn from_parts(
        solver: &'static str,
        makespan: Time,
        schedule: Option<ScheduleRepr>,
        sub_platform: Option<Spider>,
        relaxed_makespan: Option<f64>,
    ) -> Solution {
        Solution { solver, makespan, schedule, sub_platform, relaxed_makespan }
    }

    /// Name of the solver that produced this solution.
    pub fn solver(&self) -> &'static str {
        self.solver
    }

    /// The makespan (for deadline runs: the completion time of the last
    /// scheduled task; 0 when nothing fits).
    pub fn makespan(&self) -> Time {
        self.makespan
    }

    /// Number of scheduled tasks (0 for schedule-less solutions).
    pub fn n(&self) -> usize {
        match &self.schedule {
            Some(ScheduleRepr::Chain(s)) => s.n(),
            Some(ScheduleRepr::Spider(s)) => s.n(),
            Some(ScheduleRepr::Tree(s)) => s.n(),
            None => 0,
        }
    }

    /// Whether the solution carries a checkable witness schedule.
    pub fn is_witnessed(&self) -> bool {
        self.schedule.is_some()
    }

    /// The schedule representation, if witnessed.
    pub fn schedule(&self) -> Option<&ScheduleRepr> {
        self.schedule.as_ref()
    }

    /// The chain schedule, if this solution carries one.
    pub fn chain_schedule(&self) -> Option<&ChainSchedule> {
        match &self.schedule {
            Some(ScheduleRepr::Chain(s)) => Some(s),
            _ => None,
        }
    }

    /// The spider schedule, if this solution carries one.
    pub fn spider_schedule(&self) -> Option<&SpiderSchedule> {
        match &self.schedule {
            Some(ScheduleRepr::Spider(s)) => Some(s),
            _ => None,
        }
    }

    /// The tree schedule, if this solution carries one.
    pub fn tree_schedule(&self) -> Option<&TreeSchedule> {
        match &self.schedule {
            Some(ScheduleRepr::Tree(s)) => Some(s),
            _ => None,
        }
    }

    /// The spider sub-platform a covered-tree solution runs on.
    pub fn sub_platform(&self) -> Option<&Spider> {
        self.sub_platform.as_ref()
    }

    /// The un-rounded finish time of a fluid relaxation.
    pub fn relaxed_makespan(&self) -> Option<f64> {
        self.relaxed_makespan
    }

    /// Achieved throughput in tasks per tick (0 when unwitnessed or the
    /// makespan is zero).
    pub fn throughput(&self) -> f64 {
        if self.makespan <= 0 {
            return 0.0;
        }
        self.n() as f64 / self.makespan as f64
    }

    /// Tasks executed per processor, in the platform's
    /// [`Platform::processors`](crate::Platform::processors) order
    /// (spider/fork processors in leg order). `None` when unwitnessed or
    /// the platform does not match the schedule representation.
    pub fn tasks_per_processor(&self, platform: &Platform) -> Option<Vec<usize>> {
        match (&self.schedule, platform) {
            (Some(ScheduleRepr::Chain(s)), Platform::Chain(chain)) => {
                let mut counts = vec![0; chain.len()];
                for t in s.tasks() {
                    counts[t.proc - 1] += 1;
                }
                Some(counts)
            }
            (Some(ScheduleRepr::Spider(s)), _) => {
                let spider = self.sub_platform.clone().or_else(|| platform.to_spider())?;
                let mut offsets = Vec::with_capacity(spider.num_legs());
                let mut total = 0;
                for leg in spider.legs() {
                    offsets.push(total);
                    total += leg.len();
                }
                let mut counts = vec![0; total];
                for t in s.tasks() {
                    counts[offsets[t.node.leg] + t.node.depth - 1] += 1;
                }
                Some(counts)
            }
            (Some(ScheduleRepr::Tree(s)), _) => {
                // Tree node ids follow the platform's processors() order
                // for every topology (Tree::from_chain / from_spider
                // number leg by leg). Out-of-range ids (an untrusted
                // decoded witness) are skipped — they are the oracle's
                // to report, not this accessor's to panic on.
                let mut counts = vec![0; platform.num_processors()];
                for t in s.tasks() {
                    if let Some(slot) = t.node.checked_sub(1).and_then(|i| counts.get_mut(i)) {
                        *slot += 1;
                    }
                }
                Some(counts)
            }
            _ => None,
        }
    }

    /// ASCII Gantt chart of the witness schedule against its platform
    /// (`None` when unwitnessed).
    pub fn gantt(&self, platform: &Platform) -> Option<String> {
        match (&self.schedule, platform) {
            (Some(ScheduleRepr::Chain(s)), Platform::Chain(chain)) => {
                Some(gantt::render_chain(chain, s))
            }
            (Some(ScheduleRepr::Spider(s)), _) => {
                let spider = self.sub_platform.clone().or_else(|| platform.to_spider())?;
                Some(gantt::render_spider(&spider, s))
            }
            _ => None,
        }
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}: {} task(s), makespan {}", self.solver, self.n(), self.makespan)?;
        match &self.schedule {
            Some(ScheduleRepr::Chain(s)) => write!(f, "{s}"),
            Some(ScheduleRepr::Spider(s)) => write!(f, "{s}"),
            Some(ScheduleRepr::Tree(s)) => write!(f, "{s}"),
            None => Ok(()),
        }
    }
}

/// The unified — and **total** — feasibility oracle: dispatches the
/// Definition-1 checkers of `mst-schedule` against the instance's
/// platform. Every solution any registered solver produces, on every
/// topology, lands in a checker:
///
/// * chain platforms check with [`check_chain`];
/// * fork platforms check with [`check_spider`] on the equivalent
///   single-processor-leg spider;
/// * spider platforms check with [`check_spider`];
/// * tree platforms with a spider-repr solution check the recorded
///   spider cover ([`Solution::sub_platform`]) — feasible on the cover
///   implies feasible on the tree, off-cover processors simply idling;
/// * **tree-repr solutions check with [`check_tree`] on any platform**:
///   chains, forks and spiders embed losslessly into trees
///   ([`Platform::to_tree`]), so the tree checker is the universal
///   fallback that makes the oracle total.
///
/// Unwitnessed solutions (fluid relaxations) verify vacuously: there is
/// no schedule to falsify, and the returned report echoes the
/// solution's claimed makespan. Witnessed solutions get their makespan
/// recomputed independently ([`FeasibilityReport::makespan`]), so a
/// solver cannot claim a makespan its own schedule does not achieve.
///
/// Errors with [`SolveError::MalformedSolution`] only for pairings no
/// solver produces: a chain schedule presented for a non-chain
/// platform, or a tree solution in spider coordinates that lost its
/// cover.
pub fn verify(instance: &Instance, solution: &Solution) -> Result<FeasibilityReport, SolveError> {
    let malformed = |reason: &str| SolveError::MalformedSolution { reason: reason.to_string() };
    let Some(schedule) = &solution.schedule else {
        return Ok(FeasibilityReport::feasible(0, solution.makespan));
    };
    match (&instance.platform, schedule) {
        (Platform::Chain(chain), ScheduleRepr::Chain(s)) => Ok(check_chain(chain, s)),
        (Platform::Chain(chain), ScheduleRepr::Spider(s)) => {
            // A chain solved through the spider machinery (e.g. the
            // spider-optimal solver on a one-leg spider).
            Ok(check_spider(&Spider::from_chain(chain.clone()), s))
        }
        (Platform::Fork(fork), ScheduleRepr::Spider(s)) => {
            Ok(check_spider(&Spider::from_fork(fork), s))
        }
        (Platform::Spider(spider), ScheduleRepr::Spider(s)) => Ok(check_spider(spider, s)),
        (Platform::Tree(_), ScheduleRepr::Spider(s)) => {
            let cover = solution
                .sub_platform
                .as_ref()
                .ok_or_else(|| malformed("tree solution lacks its spider cover"))?;
            Ok(check_spider(cover, s))
        }
        (platform, ScheduleRepr::Tree(s)) => Ok(check_tree(&platform.to_tree(), s)),
        (platform, ScheduleRepr::Chain(_)) => Err(malformed(&format!(
            "a chain schedule cannot witness a {} platform",
            platform.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_core::schedule_chain;
    use mst_platform::Chain;

    #[test]
    fn chain_solution_reports_and_verifies() {
        let chain = Chain::paper_figure2();
        let instance = Instance::new(chain.clone(), 5);
        let solution = Solution::from_chain("chain-optimal", schedule_chain(&chain, 5));
        assert_eq!(solution.makespan(), 14);
        assert_eq!(solution.n(), 5);
        assert!(solution.is_witnessed());
        assert!(verify(&instance, &solution).unwrap().is_feasible());
        assert_eq!(solution.tasks_per_processor(&instance.platform), Some(vec![4, 1]));
        assert!(solution.gantt(&instance.platform).unwrap().contains("link 1"));
        assert!((solution.throughput() - 5.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn unwitnessed_solutions_verify_vacuously() {
        let instance = Instance::new(Chain::paper_figure2(), 5);
        let solution = Solution::from_makespan("divisible", 14);
        assert!(!solution.is_witnessed());
        assert_eq!(solution.n(), 0);
        let report = verify(&instance, &solution).unwrap();
        assert!(report.is_feasible());
        assert_eq!(report.makespan, 14, "vacuous reports echo the claimed makespan");
    }

    #[test]
    fn tree_schedules_witness_any_platform() {
        use mst_tree::tree_schedule_from_sequence;
        // On the tree itself.
        let tree = mst_platform::Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap();
        let witness = tree_schedule_from_sequence(&tree, &[2, 3, 1]);
        let solution = Solution::from_tree("exact", witness);
        let instance = Instance::new(tree, 3);
        assert!(solution.is_witnessed());
        assert_eq!(solution.n(), 3);
        assert!(solution.tree_schedule().is_some());
        let report = verify(&instance, &solution).unwrap();
        assert!(report.is_feasible());
        assert_eq!(report.makespan, solution.makespan());
        assert_eq!(solution.tasks_per_processor(&instance.platform), Some(vec![1, 1, 1]));

        // On a chain, via the embedding.
        let chain = Chain::paper_figure2();
        let embedded = mst_platform::Tree::from_chain(&chain);
        let witness = tree_schedule_from_sequence(&embedded, &[1, 1, 2]);
        let solution = Solution::from_tree("exact", witness);
        let instance = Instance::new(chain, 3);
        assert!(verify(&instance, &solution).unwrap().is_feasible());
        assert_eq!(solution.tasks_per_processor(&instance.platform), Some(vec![2, 1]));

        // An untrusted witness naming a node the platform lacks: the
        // accessor skips it (the oracle reports it), no panic.
        let rogue = Solution::from_tree(
            "x",
            mst_schedule::TreeSchedule::new(vec![mst_schedule::TreeTask::new(
                99,
                5,
                mst_schedule::CommVector::new(vec![0]),
                3,
            )]),
        );
        assert_eq!(rogue.tasks_per_processor(&instance.platform), Some(vec![0, 0]));
        assert!(!verify(&instance, &rogue).unwrap().is_feasible(), "the oracle flags it");
    }

    #[test]
    fn oracle_recomputes_makespans_independently() {
        // A witness whose stored work lies about the platform: the
        // report's makespan comes from the platform, not the claim.
        let chain = Chain::paper_figure2();
        let instance = Instance::new(chain.clone(), 1);
        let solution = Solution::from_chain("chain-optimal", mst_core::schedule_chain(&chain, 1));
        let report = verify(&instance, &solution).unwrap();
        assert_eq!(report.makespan, solution.makespan());
        assert_eq!(report.tasks, 1);
    }

    #[test]
    fn relaxations_round_up_and_keep_the_float() {
        let s = Solution::from_relaxation("divisible", 13.25);
        assert_eq!(s.makespan(), 14);
        assert_eq!(s.relaxed_makespan(), Some(13.25));
    }

    #[test]
    fn mismatched_representation_is_malformed() {
        let chain = Chain::paper_figure2();
        let spider_instance = Instance::new(Platform::spider(&[&[(1, 1)]]).unwrap(), 1);
        let chain_solution = Solution::from_chain("x", schedule_chain(&chain, 1));
        assert!(matches!(
            verify(&spider_instance, &chain_solution),
            Err(SolveError::MalformedSolution { .. })
        ));
    }

    #[test]
    fn tree_solutions_need_their_cover() {
        let tree = mst_platform::Tree::from_chain(&Chain::paper_figure2());
        let instance = Instance::new(tree, 2);
        let orphan = Solution::from_spider("x", mst_schedule::SpiderSchedule::empty());
        assert!(matches!(verify(&instance, &orphan), Err(SolveError::MalformedSolution { .. })));
    }
}
