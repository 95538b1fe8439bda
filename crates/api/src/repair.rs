//! Schedule repair after a processor failure.
//!
//! A verified schedule is a static artifact; a production platform is not.
//! When a processor dies at time *t*, everything already completed on the
//! surviving processors is sunk cost worth keeping — only the tasks that
//! were lost with the failed subtree need to be scheduled again, and only
//! on the platform that remains.
//!
//! [`repair`] has two halves:
//!
//! 1. [`degraded_suffix`]: [`degrade`] removes the failed processor
//!    *and everything routed through it* (in the one-port tree model a
//!    processor is unreachable once any ancestor link endpoint dies),
//!    and [`committed_tasks`] counts the prefix of the witness that is
//!    safely done: tasks that finished (`end() <= t`) **on a surviving
//!    processor** (work done on the failed subtree is treated as lost).
//!    What is left is the degraded instance: the surviving platform with
//!    the `n - committed` tasks still to run.
//! 2. The degraded instance is re-solved through the solution cache
//!    ([`solve_through`]), so repeated failures on the same degraded
//!    shape hit the cache instead of re-running the solver — this is
//!    what makes repair cheaper than a full re-solve, and the
//!    `repair_vs_resolve` bench key guards it. With nothing left, the
//!    answer is [`empty_witness`]. `mst-serve` composes the first half
//!    with its own cache-fronted solve, which admits only on a miss.
//!
//! The repaired witness is a complete, verifiable solution for the
//! degraded instance: `verify(&repaired.degraded, &repaired.solution)`
//! must (and, property-tested across topologies × failure times, does)
//! come back feasible.
//!
//! Failure events come from anywhere, but the seeded
//! [`mst_sim::faults::FaultPlan`] is the canonical source:
//! [`FailureEvent::from_fault`] lifts a plan event into this module.

use crate::cache::{solve_through, SolutionCache};
use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::Platform;
use crate::registry::SolverRegistry;
use crate::solution::{ScheduleRepr, Solution};
use mst_platform::{Chain, Fork, PlatformError, Spider, Time, Tree, TreeNode};
use mst_schedule::{ChainSchedule, SpiderSchedule, TreeSchedule};
use mst_sim::faults::{FaultEvent, FaultKind};
use std::fmt;

/// Solver name stamped on the trivial empty witness produced when every
/// task was already committed before the failure.
const REPAIR_NOOP: &str = "repair-noop";

/// A processor failure: which processor died, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// 1-based flat processor index, in [`Platform::processors`] order
    /// (chain order; fork slaves; spider legs flattened leg by leg; tree
    /// node ids).
    pub processor: usize,
    /// Failure time; tasks finishing at or before this instant on
    /// surviving processors count as committed.
    pub at: Time,
}

impl FailureEvent {
    /// Lifts a [`FaultEvent`] from a seeded fault plan into a repairable
    /// failure; non-processor faults (store, connection, panic) return
    /// `None` — they degrade the service, not the platform.
    pub fn from_fault(event: &FaultEvent) -> Option<FailureEvent> {
        match event.kind {
            FaultKind::ProcessorDown { processor } => {
                Some(FailureEvent { processor, at: event.at })
            }
            _ => None,
        }
    }
}

/// Why a repair could not produce a degraded platform or witness.
#[derive(Debug)]
pub enum RepairError {
    /// The failed index does not name a processor of the platform.
    BadProcessor {
        /// The offending 1-based index.
        processor: usize,
        /// How many processors the platform actually has.
        num_processors: usize,
    },
    /// Removing the processor (and its subtree) leaves no platform at
    /// all — every remaining task is stranded with the master.
    NoSurvivors {
        /// The processor whose failure emptied the platform.
        processor: usize,
    },
    /// Re-solving the surviving suffix failed.
    Solve(SolveError),
}

impl fmt::Display for RepairError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepairError::BadProcessor { processor, num_processors } => write!(
                f,
                "processor {processor} does not exist on a {num_processors}-processor platform"
            ),
            RepairError::NoSurvivors { processor } => {
                write!(f, "failure of processor {processor} leaves no surviving processors")
            }
            RepairError::Solve(e) => write!(f, "re-solving the surviving suffix failed: {e}"),
        }
    }
}

impl std::error::Error for RepairError {}

impl From<SolveError> for RepairError {
    fn from(e: SolveError) -> Self {
        RepairError::Solve(e)
    }
}

/// The outcome of a successful repair.
#[derive(Debug, Clone)]
pub struct Repaired {
    /// Tasks that had finished on surviving processors by the failure
    /// time — kept, not re-scheduled.
    pub committed: usize,
    /// Tasks re-solved on the degraded platform (`n - committed`).
    pub remaining: usize,
    /// The surviving instance: degraded platform + remaining tasks.
    pub degraded: Instance,
    /// A witnessed solution for [`Repaired::degraded`]; passes
    /// [`crate::verify`] against it.
    pub solution: Solution,
    /// Whether the suffix solve was served from the solution cache.
    pub cache_hit: bool,
}

/// The set of flat processor indices lost with `processor` (itself plus
/// every processor whose route to the master passes through it), as a
/// membership mask indexed `1..=num_processors`.
fn lost_mask(platform: &Platform, processor: usize) -> Vec<bool> {
    // Flat processor order coincides with tree node-id order for every
    // topology (chains map to a path, forks and spiders flatten leg by
    // leg, trees are already id-ordered), so one subtree walk covers all
    // four families.
    let tree = platform.to_tree();
    let children = tree.children();
    let mut lost = vec![false; tree.len() + 1];
    let mut frontier = vec![processor];
    while let Some(node) = frontier.pop() {
        if lost[node] {
            continue;
        }
        lost[node] = true;
        frontier.extend(children[node].iter().copied());
    }
    lost
}

/// Removes `processor` (1-based flat index) and its downstream subtree
/// from the platform, returning the surviving platform of the same
/// topology family.
///
/// Errors with [`RepairError::BadProcessor`] for an out-of-range index
/// and [`RepairError::NoSurvivors`] when nothing remains (e.g. the first
/// processor of a chain, or the only slave of a fork).
pub fn degrade(platform: &Platform, processor: usize) -> Result<Platform, RepairError> {
    let total = platform.num_processors();
    if processor == 0 || processor > total {
        return Err(RepairError::BadProcessor { processor, num_processors: total });
    }
    let no_survivors = || RepairError::NoSurvivors { processor };
    let internal = |e: PlatformError| RepairError::Solve(SolveError::Platform(e));
    match platform {
        Platform::Chain(chain) => {
            if processor == 1 {
                return Err(no_survivors());
            }
            let prefix = chain.processors()[..processor - 1].to_vec();
            Ok(Platform::Chain(Chain::new(prefix).map_err(internal)?))
        }
        Platform::Fork(fork) => {
            let survivors: Vec<_> = fork
                .slaves()
                .iter()
                .enumerate()
                .filter(|(i, _)| i + 1 != processor)
                .map(|(_, p)| *p)
                .collect();
            if survivors.is_empty() {
                return Err(no_survivors());
            }
            Ok(Platform::Fork(Fork::new(survivors).map_err(internal)?))
        }
        Platform::Spider(spider) => {
            let (leg, depth) = spider_position(spider, processor);
            let mut legs = Vec::with_capacity(spider.num_legs());
            for (l, chain) in spider.legs().iter().enumerate() {
                if l != leg {
                    legs.push(chain.clone());
                } else if depth > 1 {
                    let prefix = chain.processors()[..depth - 1].to_vec();
                    legs.push(Chain::new(prefix).map_err(internal)?);
                }
            }
            if legs.is_empty() {
                return Err(no_survivors());
            }
            Ok(Platform::Spider(Spider::new(legs).map_err(internal)?))
        }
        Platform::Tree(tree) => {
            let lost = lost_mask(platform, processor);
            // Relabel survivors: keeping relative order preserves the
            // parents-first invariant (a survivor's parent survives too,
            // else the node would sit in the lost subtree).
            let mut relabel = vec![0usize; tree.len() + 1];
            let mut nodes = Vec::new();
            for id in 1..=tree.len() {
                if lost[id] {
                    continue;
                }
                let old = tree.node(id);
                relabel[id] = nodes.len() + 1;
                nodes.push(TreeNode {
                    parent: if old.parent == 0 { 0 } else { relabel[old.parent] },
                    comm: old.comm,
                    work: old.work,
                });
            }
            if nodes.is_empty() {
                return Err(no_survivors());
            }
            Ok(Platform::Tree(Tree::new(nodes).map_err(internal)?))
        }
    }
}

/// Maps a flat 1-based processor index on a spider to `(leg, depth)`
/// with 0-based leg and 1-based depth.
fn spider_position(spider: &Spider, processor: usize) -> (usize, usize) {
    let mut remaining = processor;
    for (l, chain) in spider.legs().iter().enumerate() {
        if remaining <= chain.len() {
            return (l, remaining);
        }
        remaining -= chain.len();
    }
    unreachable!("processor index validated against num_processors");
}

/// Counts the committed prefix of a witnessed solution: tasks whose
/// execution finished (`end() <= event.at`) on a processor that survives
/// the failure. Unwitnessed solutions and cover witnesses (where the
/// spider coordinates do not name platform processors directly) commit
/// nothing — repair then degenerates to a full re-solve on the degraded
/// platform, which is still correct, just not cheaper.
pub fn committed_tasks(platform: &Platform, solution: &Solution, event: &FailureEvent) -> usize {
    let total = platform.num_processors();
    if event.processor == 0 || event.processor > total {
        return 0;
    }
    let lost = lost_mask(platform, event.processor);
    match (platform, solution.schedule()) {
        (Platform::Chain(_), Some(ScheduleRepr::Chain(s))) => {
            s.tasks().iter().filter(|t| t.end() <= event.at && !lost[t.proc]).count()
        }
        (Platform::Fork(_), Some(ScheduleRepr::Spider(s))) => {
            // One slave per leg: flat index is leg + 1.
            s.tasks().iter().filter(|t| t.end() <= event.at && !lost[t.node.leg + 1]).count()
        }
        (Platform::Spider(spider), Some(ScheduleRepr::Spider(s))) => {
            let flat = |leg: usize, depth: usize| {
                spider.legs()[..leg].iter().map(Chain::len).sum::<usize>() + depth
            };
            s.tasks()
                .iter()
                .filter(|t| t.end() <= event.at && !lost[flat(t.node.leg, t.node.depth)])
                .count()
        }
        (_, Some(ScheduleRepr::Tree(s))) => {
            // Tree witnesses use node ids == flat indices on every family.
            s.tasks().iter().filter(|t| t.end() <= event.at && !lost[t.node]).count()
        }
        _ => 0,
    }
}

/// An empty witnessed solution in the representation [`crate::verify`]
/// accepts for the platform (a bare empty spider schedule would fail
/// verification on a tree platform, which demands a cover): the repair
/// of a schedule whose every task was committed before the failure.
pub fn empty_witness(platform: &Platform) -> Solution {
    match platform {
        Platform::Chain(_) => Solution::from_chain(REPAIR_NOOP, ChainSchedule::empty()),
        Platform::Fork(_) | Platform::Spider(_) => {
            Solution::from_spider(REPAIR_NOOP, SpiderSchedule::empty())
        }
        Platform::Tree(_) => Solution::from_tree(REPAIR_NOOP, TreeSchedule::empty()),
    }
}

/// The first half of a repair: the degraded instance (the surviving
/// platform with the tasks still to run) and the committed prefix that
/// is kept. Errors with [`RepairError::BadProcessor`] or
/// [`RepairError::NoSurvivors`] as [`degrade`] does.
pub fn degraded_suffix(
    instance: &Instance,
    solution: &Solution,
    event: &FailureEvent,
) -> Result<(Instance, usize), RepairError> {
    let platform = degrade(&instance.platform, event.processor)?;
    let committed = committed_tasks(&instance.platform, solution, event);
    Ok((Instance::new(platform, instance.tasks.saturating_sub(committed)), committed))
}

/// Repairs a schedule after a processor failure: keeps the committed
/// prefix, degrades the platform, and re-solves only the surviving
/// suffix (through `cache`, so identical degraded shapes are memoised).
///
/// The returned witness solves [`Repaired::degraded`] — the caller's
/// ground truth becomes the degraded instance, and
/// `verify(&repaired.degraded, &repaired.solution)` passes.
pub fn repair(
    instance: &Instance,
    solution: &Solution,
    event: &FailureEvent,
    registry: &SolverRegistry,
    cache: &SolutionCache,
    solver: &str,
) -> Result<Repaired, RepairError> {
    let (degraded, committed) = degraded_suffix(instance, solution, event)?;
    let remaining = degraded.tasks;
    if remaining == 0 {
        let solution = empty_witness(&degraded.platform);
        return Ok(Repaired { committed, remaining, degraded, solution, cache_hit: false });
    }
    let solved = solve_through(cache, registry, solver, &degraded, None)?;
    Ok(Repaired {
        committed,
        remaining,
        degraded,
        solution: solved.solution,
        cache_hit: solved.cache_hit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SolutionCache;
    use crate::solution::verify;
    use mst_sim::faults::FaultPlan;

    fn platforms() -> Vec<(&'static str, Platform, &'static str)> {
        vec![
            ("chain", Platform::chain(&[(2, 3), (3, 5), (1, 4), (2, 2)]).unwrap(), "optimal"),
            ("fork", Platform::fork(&[(2, 3), (1, 5), (3, 2), (2, 4)]).unwrap(), "optimal"),
            (
                "spider",
                Platform::spider(&[&[(2, 3), (1, 4)], &[(3, 2), (2, 5)]]).unwrap(),
                "optimal",
            ),
            (
                "tree",
                Platform::tree(&[(0, 2, 3), (1, 1, 4), (0, 3, 2), (3, 2, 5)]).unwrap(),
                "exact",
            ),
        ]
    }

    #[test]
    fn degrade_chain_keeps_the_reachable_prefix() {
        let p = Platform::chain(&[(2, 3), (3, 5), (1, 4)]).unwrap();
        let d = degrade(&p, 2).unwrap();
        assert_eq!(d.num_processors(), 1);
        assert!(matches!(degrade(&p, 1), Err(RepairError::NoSurvivors { processor: 1 })));
        assert!(matches!(degrade(&p, 9), Err(RepairError::BadProcessor { .. })));
    }

    #[test]
    fn degrade_fork_drops_one_slave() {
        let p = Platform::fork(&[(2, 3), (1, 5)]).unwrap();
        let d = degrade(&p, 1).unwrap();
        assert_eq!(d.num_processors(), 1);
        let lone = Platform::fork(&[(2, 3)]).unwrap();
        assert!(matches!(degrade(&lone, 1), Err(RepairError::NoSurvivors { .. })));
    }

    #[test]
    fn degrade_spider_truncates_the_struck_leg() {
        let p = Platform::spider(&[&[(2, 3), (1, 4)], &[(3, 2)]]).unwrap();
        // Processor 2 is leg 0 depth 2: leg shrinks to length 1.
        let d = degrade(&p, 2).unwrap();
        assert_eq!(d.num_processors(), 2);
        assert_eq!(d.as_spider().unwrap().num_legs(), 2);
        // Processor 1 is leg 0 depth 1: the whole leg goes.
        let d = degrade(&p, 1).unwrap();
        assert_eq!(d.as_spider().unwrap().num_legs(), 1);
    }

    #[test]
    fn degrade_tree_removes_the_whole_subtree_and_relabels() {
        // 1 <- 2, and 3 <- 4: killing 1 must also take 2.
        let p = Platform::tree(&[(0, 2, 3), (1, 1, 4), (0, 3, 2), (3, 2, 5)]).unwrap();
        let d = degrade(&p, 1).unwrap();
        let t = d.as_tree().unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.node(1).parent, 0);
        assert_eq!(t.node(2).parent, 1, "survivor ids are relabelled contiguously");
    }

    #[test]
    fn committed_counts_only_finished_tasks_on_survivors() {
        let p = Platform::chain(&[(2, 3), (3, 5)]).unwrap();
        let instance = Instance::new(p.clone(), 5);
        let registry = SolverRegistry::global();
        let solution = registry.solve("optimal", &instance).unwrap();
        let makespan = solution.makespan();
        // After the makespan everything surviving is committed; at t=0
        // nothing is.
        let late = FailureEvent { processor: 2, at: makespan };
        let early = FailureEvent { processor: 2, at: 0 };
        let all = committed_tasks(&p, &solution, &late);
        assert!(all > 0);
        assert_eq!(committed_tasks(&p, &solution, &early), 0);
        // Tasks that ran on the failed processor are lost even when done.
        let sched = solution.chain_schedule().unwrap();
        let on_failed = sched.tasks().iter().filter(|t| t.proc == 2).count();
        assert_eq!(all + on_failed, 5);
    }

    #[test]
    fn repaired_witness_verifies_on_the_degraded_platform_across_topologies_and_times() {
        let registry = SolverRegistry::global();
        let cache = SolutionCache::new(256);
        for (name, platform, solver) in platforms() {
            let instance = Instance::new(platform.clone(), 7);
            let solution = registry.solve(solver, &instance).unwrap();
            let makespan = solution.makespan();
            let times =
                [0, makespan / 4, makespan / 2, (3 * makespan) / 4, makespan, makespan + 10];
            for processor in 1..=platform.num_processors() {
                for at in times {
                    let event = FailureEvent { processor, at };
                    match repair(&instance, &solution, &event, registry, &cache, solver) {
                        Ok(repaired) => {
                            assert_eq!(
                                repaired.committed + repaired.remaining,
                                instance.tasks,
                                "{name}: committed + remaining must cover all tasks"
                            );
                            let report = verify(&repaired.degraded, &repaired.solution)
                                .unwrap_or_else(|e| {
                                    panic!("{name} p={processor} t={at}: verify errored: {e}")
                                });
                            assert!(
                                report.is_feasible(),
                                "{name} p={processor} t={at}: repaired witness infeasible: {:?}",
                                report.violations
                            );
                            assert_eq!(report.tasks, repaired.remaining);
                        }
                        Err(RepairError::NoSurvivors { .. }) => {
                            // Legitimate for e.g. the first chain processor.
                        }
                        Err(e) => panic!("{name} p={processor} t={at}: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn seeded_fault_plans_drive_repair_deterministically() {
        let registry = SolverRegistry::global();
        let cache = SolutionCache::new(64);
        let p = Platform::spider(&[&[(2, 3), (1, 4)], &[(3, 2), (2, 5)]]).unwrap();
        let instance = Instance::new(p.clone(), 6);
        let solution = registry.solve("optimal", &instance).unwrap();
        let plan = FaultPlan::seeded(2003, 16, p.num_processors(), solution.makespan() + 5);
        let Some((processor, at)) = plan.first_processor_down() else {
            panic!("a 16-event plan over 4 processors should schedule a processor-down");
        };
        let event = FailureEvent { processor, at };
        assert_eq!(
            FailureEvent::from_fault(
                plan.events()
                    .iter()
                    .find(|e| matches!(e.kind, FaultKind::ProcessorDown { .. }))
                    .unwrap()
            ),
            Some(event)
        );
        let a = repair(&instance, &solution, &event, registry, &cache, "optimal").unwrap();
        let b = repair(&instance, &solution, &event, registry, &cache, "optimal").unwrap();
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.solution.makespan(), b.solution.makespan());
        assert!(b.cache_hit, "second repair of the same degraded shape must hit the cache");
    }

    #[test]
    fn fully_committed_schedules_repair_to_an_empty_witness() {
        let registry = SolverRegistry::global();
        let cache = SolutionCache::disabled();
        for (name, platform, solver) in platforms() {
            let instance = Instance::new(platform.clone(), 4);
            let solution = registry.solve(solver, &instance).unwrap();
            // Fail a processor that strands nothing, long after the end.
            let total = platform.num_processors();
            let event = FailureEvent { processor: total, at: solution.makespan() * 10 };
            let Ok(repaired) = repair(&instance, &solution, &event, registry, &cache, solver)
            else {
                continue; // NoSurvivors on tiny platforms is fine.
            };
            if repaired.remaining == 0 {
                assert!(repaired.solution.is_witnessed(), "{name}");
                let report = verify(&repaired.degraded, &repaired.solution).unwrap();
                assert!(report.is_feasible(), "{name}");
            }
        }
    }
}
