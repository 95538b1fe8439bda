//! Machine-checked feasibility: the four properties of Definition 1.
//!
//! This module is the workspace's *oracle*: it re-checks, from scratch and
//! with code independent of every scheduling algorithm, that a schedule is
//! feasible. The paper leaves the feasibility proof of the chain algorithm
//! "to the reader"; here the reader is a test suite.
//!
//! For a chain, a schedule is feasible iff (numbering as in the paper):
//!
//! 1. `C^i_{k-1} + c_{k-1} <= C^i_k` — a task is not re-emitted by a
//!    processor before it has been fully received;
//! 2. `C^i_{P(i)} + c_{P(i)} <= T(i)` — execution starts after reception;
//! 3. two tasks on one processor do not overlap in execution
//!    (`|T(i) - T(j)| >= w_{P(i)}`);
//! 4. two communications on one link do not overlap
//!    (`|C^i_k - C^j_k| >= c_k`).
//!
//! For a spider, the same properties hold within each leg, plus the master
//! one-port rule: the first-link communications of *all* legs are
//! pairwise non-overlapping (the master sends one task at a time, whatever
//! the destination leg).
//!
//! For a general tree ([`check_tree`]) the same four properties hold
//! along every task's root path, and the one-port rule generalises to
//! **every** node: the emissions of one sender — the master or any
//! interior node — towards *all* of its children are pairwise
//! non-overlapping. On a chain-shaped or spider-shaped tree this reduces
//! exactly to the chain/spider rules above, which is what makes the tree
//! checker a total oracle over every topology of the workspace.

use crate::schedule::{ChainSchedule, SpiderSchedule, TaskAssignment};
use crate::tree_schedule::TreeSchedule;
use mst_platform::time::Interval;
use mst_platform::{Chain, Spider, Time, Tree};
use std::fmt;
use std::ops::Range;

/// One broken feasibility rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `P(i)` does not name a processor of the platform.
    BadProcessor {
        /// Task index (1-based).
        task: usize,
        /// The offending processor index.
        proc: usize,
    },
    /// Property (1): re-emission before full reception.
    ReemittedBeforeReceived {
        /// Task index.
        task: usize,
        /// Link `k` on which the task was re-emitted too early.
        link: usize,
        /// Arrival time at processor `k - 1`.
        arrival: Time,
        /// Emission time on link `k`.
        emission: Time,
    },
    /// Property (2): execution starts before the task is received.
    StartedBeforeReceived {
        /// Task index.
        task: usize,
        /// Arrival time at the executing processor.
        arrival: Time,
        /// Execution start `T(i)`.
        start: Time,
    },
    /// Property (3): two executions overlap on one processor.
    ExecutionOverlap {
        /// First task index.
        a: usize,
        /// Second task index.
        b: usize,
        /// The shared processor.
        proc: usize,
    },
    /// Property (4): two communications overlap on one link.
    CommunicationOverlap {
        /// First task index.
        a: usize,
        /// Second task index.
        b: usize,
        /// The shared link.
        link: usize,
    },
    /// The master emitted two tasks at once (spiders and trees).
    MasterPortOverlap {
        /// First task index.
        a: usize,
        /// Second task index.
        b: usize,
    },
    /// An interior node emitted towards two children at once (trees
    /// only — the shared out-port of the one-port model).
    PortOverlap {
        /// First task index.
        a: usize,
        /// Second task index.
        b: usize,
        /// The sending node whose out-port double-booked.
        node: usize,
    },
    /// The communication vector's length does not match the route to the
    /// executing node (trees only; chains and spiders enforce this
    /// structurally at construction).
    RouteMismatch {
        /// Task index.
        task: usize,
        /// Depth of the executing node (the expected vector length).
        expected: usize,
        /// The stored vector length.
        got: usize,
    },
    /// A time is negative (the paper types schedules in `N`).
    NegativeTime {
        /// Task index.
        task: usize,
        /// Human-readable description of the negative quantity.
        what: String,
    },
    /// The stored per-task `work` hint disagrees with the platform.
    WorkMismatch {
        /// Task index.
        task: usize,
        /// The stored value.
        stored: Time,
        /// The platform's value.
        actual: Time,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BadProcessor { task, proc } => {
                write!(f, "task {task}: P = {proc} is not a processor")
            }
            Violation::ReemittedBeforeReceived { task, link, arrival, emission } => write!(
                f,
                "task {task}: re-emitted on link {link} at {emission} before arrival at {arrival}"
            ),
            Violation::StartedBeforeReceived { task, arrival, start } => {
                write!(f, "task {task}: starts at {start} before arrival at {arrival}")
            }
            Violation::ExecutionOverlap { a, b, proc } => {
                write!(f, "tasks {a} and {b} overlap in execution on processor {proc}")
            }
            Violation::CommunicationOverlap { a, b, link } => {
                write!(f, "tasks {a} and {b} overlap in communication on link {link}")
            }
            Violation::MasterPortOverlap { a, b } => {
                write!(f, "tasks {a} and {b} overlap on the master's out-port")
            }
            Violation::PortOverlap { a, b, node } => {
                write!(f, "tasks {a} and {b} overlap on node {node}'s out-port")
            }
            Violation::RouteMismatch { task, expected, got } => {
                write!(
                    f,
                    "task {task}: communication vector has {got} entries, route needs {expected}"
                )
            }
            Violation::NegativeTime { task, what } => {
                write!(f, "task {task}: negative time ({what})")
            }
            Violation::WorkMismatch { task, stored, actual } => {
                write!(f, "task {task}: stored work {stored} but platform says {actual}")
            }
        }
    }
}

/// The outcome of a feasibility check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FeasibilityReport {
    /// Every violated rule found (empty means feasible).
    pub violations: Vec<Violation>,
    /// The makespan recomputed by the checker from the schedule against
    /// the platform — independent of whatever the producing solver
    /// claims, so callers can cross-check the two.
    pub makespan: Time,
    /// Number of task placements the checker examined.
    pub tasks: usize,
}

impl FeasibilityReport {
    /// A feasible report vouching for `tasks` placements with the given
    /// independently established makespan (used for vacuous checks of
    /// unwitnessed solutions, where the caller supplies the claim).
    pub fn feasible(tasks: usize, makespan: Time) -> FeasibilityReport {
        FeasibilityReport { violations: Vec::new(), makespan, tasks }
    }

    /// `true` iff the schedule satisfies every rule.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with a readable message when infeasible — for tests.
    #[track_caller]
    pub fn assert_feasible(&self) {
        assert!(
            self.is_feasible(),
            "schedule is infeasible:\n{}",
            self.violations.iter().map(|v| format!("  - {v}\n")).collect::<String>()
        );
    }
}

/// Checks a chain schedule against Definition 1. `O(n^2 p)`.
pub fn check_chain(chain: &Chain, schedule: &ChainSchedule) -> FeasibilityReport {
    let mut violations = Vec::new();
    let p = chain.len();
    let n = schedule.n();

    for i in 1..=n {
        let t = schedule.task(i);
        if t.proc < 1 || t.proc > p {
            violations.push(Violation::BadProcessor { task: i, proc: t.proc });
            continue;
        }
        if t.work != chain.w(t.proc) {
            violations.push(Violation::WorkMismatch {
                task: i,
                stored: t.work,
                actual: chain.w(t.proc),
            });
        }
        if t.comms.first() < 0 {
            violations.push(Violation::NegativeTime {
                task: i,
                what: format!("first emission {}", t.comms.first()),
            });
        }
        // Property (1): pipeline ordering along the route.
        for k in 2..=t.proc {
            let arrival = t.comms.get(k - 1) + chain.c(k - 1);
            let emission = t.comms.get(k);
            if arrival > emission {
                violations.push(Violation::ReemittedBeforeReceived {
                    task: i,
                    link: k,
                    arrival,
                    emission,
                });
            }
        }
        // Property (2): reception precedes execution.
        let arrival = t.comms.get(t.proc) + chain.c(t.proc);
        if arrival > t.start {
            violations.push(Violation::StartedBeforeReceived { task: i, arrival, start: t.start });
        }
    }

    // Properties (3) and (4): pairwise resource exclusivity, over the
    // tasks on a processor of the chain. Each one's emission times are
    // read out of its vector once, not once per pair.
    let latencies: Vec<Time> = chain.processors().iter().map(|proc| proc.comm).collect();
    let placed: Vec<(usize, &TaskAssignment, &[Time])> = schedule
        .tasks()
        .iter()
        .zip(1..)
        .filter(|(t, _)| t.proc >= 1 && t.proc <= p)
        .map(|(t, i)| (i, t, t.comms.times()))
        .collect();
    for (next, &(i, a, a_comms)) in placed.iter().enumerate() {
        let work = chain.w(a.proc);
        for &(j, b, b_comms) in &placed[next + 1..] {
            if a.proc == b.proc {
                let ia = Interval::with_len(a.start, work);
                let ib = Interval::with_len(b.start, work);
                if ia.overlaps(&ib) {
                    violations.push(Violation::ExecutionOverlap { a: i, b: j, proc: a.proc });
                }
            }
            let shared = a.proc.min(b.proc);
            let links = a_comms[..shared].iter().zip(&b_comms[..shared]).zip(&latencies);
            for (k, ((&ta, &tb), &c)) in (1..).zip(links) {
                if Interval::with_len(ta, c).overlaps(&Interval::with_len(tb, c)) {
                    violations.push(Violation::CommunicationOverlap { a: i, b: j, link: k });
                }
            }
        }
    }

    FeasibilityReport { violations, makespan: schedule.makespan_on(chain), tasks: n }
}

/// Checks a spider schedule: per-leg chain rules plus the master one-port
/// rule.
pub fn check_spider(spider: &Spider, schedule: &SpiderSchedule) -> FeasibilityReport {
    let mut violations = Vec::new();

    // Per-leg: restrict and reuse the chain checker. Task indices inside
    // leg reports refer to positions within the leg restriction; remap to
    // global indices for readability.
    for (l, chain) in spider.legs().iter().enumerate() {
        let leg_schedule = schedule.leg_schedule(l);
        let global: Vec<usize> =
            (1..=schedule.n()).filter(|&i| schedule.task(i).node.leg == l).collect();
        let report = check_chain(chain, &leg_schedule);
        for v in report.violations {
            violations.push(remap_violation(v, &global));
        }
    }

    // Master one-port: first-link emissions across all legs are pairwise
    // disjoint, each occupying the port for the latency of its own leg's
    // first link.
    let n = schedule.n();
    let port: Vec<Interval> = schedule
        .tasks()
        .iter()
        .map(|t| Interval::with_len(t.comms.first(), spider.leg(t.node.leg).c(1)))
        .collect();
    for (i, a) in (1..).zip(&port) {
        for (j, b) in (i + 1..).zip(&port[i..]) {
            if a.overlaps(b) {
                violations.push(Violation::MasterPortOverlap { a: i, b: j });
            }
        }
    }

    FeasibilityReport { violations, makespan: schedule.makespan_on(spider), tasks: n }
}

/// Checks a tree schedule against the Definition-1 properties,
/// generalised to arbitrary out-trees:
///
/// * every task's communication vector must match its route
///   ([`Violation::RouteMismatch`]) and respect the pipeline ordering
///   along it (property 1) before execution starts (property 2);
/// * executions on one node are pairwise non-overlapping (property 3);
/// * every sender's out-port — the master's and every interior node's —
///   carries one communication at a time; two tasks clashing on the same
///   link report [`Violation::CommunicationOverlap`] (property 4),
///   clashes between different children of one sender report
///   [`Violation::MasterPortOverlap`] / [`Violation::PortOverlap`].
///
/// `O(n^2 d^2)` for `n` tasks at route depth `d` — the same shape as the
/// chain checker, and like it written independently of every scheduling
/// algorithm in the workspace.
pub fn check_tree(tree: &Tree, schedule: &TreeSchedule) -> FeasibilityReport {
    let mut violations = Vec::new();
    let n = schedule.n();

    // Per-task route validation; tasks failing it are excluded from the
    // pairwise phase (their vectors cannot be addressed by depth). A
    // routed task's links are `hops[range]`, read once for every pair:
    // the node each link enters, its sender and its busy interval.
    let mut hops: Vec<(usize, usize, Interval)> = Vec::new();
    let mut routes: Vec<Option<Range<usize>>> = Vec::with_capacity(n);
    for i in 1..=n {
        let t = schedule.task(i);
        if t.node < 1 || t.node > tree.len() {
            violations.push(Violation::BadProcessor { task: i, proc: t.node });
            routes.push(None);
            continue;
        }
        let path = tree.path_from_root(t.node);
        if t.comms.len() != path.len() {
            violations.push(Violation::RouteMismatch {
                task: i,
                expected: path.len(),
                got: t.comms.len(),
            });
            routes.push(None);
            continue;
        }
        if t.work != tree.node(t.node).work {
            violations.push(Violation::WorkMismatch {
                task: i,
                stored: t.work,
                actual: tree.node(t.node).work,
            });
        }
        if t.comms.first() < 0 {
            violations.push(Violation::NegativeTime {
                task: i,
                what: format!("first emission {}", t.comms.first()),
            });
        }
        // Property (1): pipeline ordering along the route.
        for d in 2..=path.len() {
            let arrival = t.comms.get(d - 1) + tree.node(path[d - 2]).comm;
            let emission = t.comms.get(d);
            if arrival > emission {
                violations.push(Violation::ReemittedBeforeReceived {
                    task: i,
                    link: d,
                    arrival,
                    emission,
                });
            }
        }
        // Property (2): reception precedes execution.
        let arrival = t.comms.get(path.len()) + tree.node(t.node).comm;
        if arrival > t.start {
            violations.push(Violation::StartedBeforeReceived { task: i, arrival, start: t.start });
        }
        let first = hops.len();
        hops.extend(path.iter().zip(t.comms.times()).map(|(&hop, &emission)| {
            let link = tree.node(hop);
            (hop, link.parent, Interval::with_len(emission, link.comm))
        }));
        routes.push(Some(first..hops.len()));
    }

    // Pairwise exclusivity: executions per node (property 3) and the
    // one-port rule at every sender (property 4 plus out-port sharing).
    for i in 1..=n {
        let Some(route_a) = &routes[i - 1] else { continue };
        let a = schedule.task(i);
        for j in (i + 1)..=n {
            let Some(route_b) = &routes[j - 1] else { continue };
            let b = schedule.task(j);
            if a.node == b.node {
                let w = tree.node(a.node).work;
                let ia = Interval::with_len(a.start, w);
                let ib = Interval::with_len(b.start, w);
                if ia.overlaps(&ib) {
                    violations.push(Violation::ExecutionOverlap { a: i, b: j, proc: a.node });
                }
            }
            for &(hop_a, sender, ia) in &hops[route_a.clone()] {
                for &(hop_b, sender_b, ib) in &hops[route_b.clone()] {
                    if sender_b != sender || !ia.overlaps(&ib) {
                        continue;
                    }
                    violations.push(if hop_a == hop_b {
                        Violation::CommunicationOverlap { a: i, b: j, link: hop_a }
                    } else if sender == 0 {
                        Violation::MasterPortOverlap { a: i, b: j }
                    } else {
                        Violation::PortOverlap { a: i, b: j, node: sender }
                    });
                }
            }
        }
    }

    FeasibilityReport { violations, makespan: schedule.makespan_on(tree), tasks: n }
}

fn remap_violation(v: Violation, global: &[usize]) -> Violation {
    let g = |local: usize| global[local - 1];
    match v {
        Violation::BadProcessor { task, proc } => Violation::BadProcessor { task: g(task), proc },
        Violation::ReemittedBeforeReceived { task, link, arrival, emission } => {
            Violation::ReemittedBeforeReceived { task: g(task), link, arrival, emission }
        }
        Violation::StartedBeforeReceived { task, arrival, start } => {
            Violation::StartedBeforeReceived { task: g(task), arrival, start }
        }
        Violation::ExecutionOverlap { a, b, proc } => {
            Violation::ExecutionOverlap { a: g(a), b: g(b), proc }
        }
        Violation::CommunicationOverlap { a, b, link } => {
            Violation::CommunicationOverlap { a: g(a), b: g(b), link }
        }
        Violation::MasterPortOverlap { a, b } => Violation::MasterPortOverlap { a: g(a), b: g(b) },
        Violation::PortOverlap { a, b, node } => Violation::PortOverlap { a: g(a), b: g(b), node },
        Violation::RouteMismatch { task, expected, got } => {
            Violation::RouteMismatch { task: g(task), expected, got }
        }
        Violation::NegativeTime { task, what } => Violation::NegativeTime { task: g(task), what },
        Violation::WorkMismatch { task, stored, actual } => {
            Violation::WorkMismatch { task: g(task), stored, actual }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_vector::CommVector;
    use crate::schedule::{SpiderTask, TaskAssignment};
    use mst_platform::NodeId;

    fn cv(times: &[Time]) -> CommVector {
        CommVector::new(times.to_vec())
    }

    /// The checkers before they read each task's emission times once
    /// per check, kept as the reference their reports are checked
    /// against.
    mod reference {
        use super::super::remap_violation;
        use crate::feasibility::{FeasibilityReport, Violation};
        use crate::schedule::{ChainSchedule, SpiderSchedule};
        use crate::tree_schedule::TreeSchedule;
        use mst_platform::time::Interval;
        use mst_platform::{Chain, Spider, Tree};

        pub(super) fn check_chain(chain: &Chain, schedule: &ChainSchedule) -> FeasibilityReport {
            let mut violations = Vec::new();
            let p = chain.len();
            let n = schedule.n();

            for i in 1..=n {
                let t = schedule.task(i);
                if t.proc < 1 || t.proc > p {
                    violations.push(Violation::BadProcessor { task: i, proc: t.proc });
                    continue;
                }
                if t.work != chain.w(t.proc) {
                    violations.push(Violation::WorkMismatch {
                        task: i,
                        stored: t.work,
                        actual: chain.w(t.proc),
                    });
                }
                if t.comms.first() < 0 {
                    violations.push(Violation::NegativeTime {
                        task: i,
                        what: format!("first emission {}", t.comms.first()),
                    });
                }
                // Property (1): pipeline ordering along the route.
                for k in 2..=t.proc {
                    let arrival = t.comms.get(k - 1) + chain.c(k - 1);
                    let emission = t.comms.get(k);
                    if arrival > emission {
                        violations.push(Violation::ReemittedBeforeReceived {
                            task: i,
                            link: k,
                            arrival,
                            emission,
                        });
                    }
                }
                // Property (2): reception precedes execution.
                let arrival = t.comms.get(t.proc) + chain.c(t.proc);
                if arrival > t.start {
                    violations.push(Violation::StartedBeforeReceived {
                        task: i,
                        arrival,
                        start: t.start,
                    });
                }
            }

            // Properties (3) and (4): pairwise resource exclusivity.
            for i in 1..=n {
                let a = schedule.task(i);
                if a.proc < 1 || a.proc > p {
                    continue;
                }
                for j in (i + 1)..=n {
                    let b = schedule.task(j);
                    if b.proc < 1 || b.proc > p {
                        continue;
                    }
                    if a.proc == b.proc {
                        let ia = Interval::with_len(a.start, chain.w(a.proc));
                        let ib = Interval::with_len(b.start, chain.w(b.proc));
                        if ia.overlaps(&ib) {
                            violations.push(Violation::ExecutionOverlap {
                                a: i,
                                b: j,
                                proc: a.proc,
                            });
                        }
                    }
                    let shared = a.proc.min(b.proc);
                    for k in 1..=shared {
                        let ia = Interval::with_len(a.comms.get(k), chain.c(k));
                        let ib = Interval::with_len(b.comms.get(k), chain.c(k));
                        if ia.overlaps(&ib) {
                            violations.push(Violation::CommunicationOverlap {
                                a: i,
                                b: j,
                                link: k,
                            });
                        }
                    }
                }
            }

            FeasibilityReport { violations, makespan: schedule.makespan_on(chain), tasks: n }
        }

        pub(super) fn check_spider(
            spider: &Spider,
            schedule: &SpiderSchedule,
        ) -> FeasibilityReport {
            let mut violations = Vec::new();

            // Per-leg: restrict and reuse the chain checker. Task indices inside
            // leg reports refer to positions within the leg restriction; remap to
            // global indices for readability.
            for (l, chain) in spider.legs().iter().enumerate() {
                let leg_schedule = schedule.leg_schedule(l);
                let global: Vec<usize> =
                    (1..=schedule.n()).filter(|&i| schedule.task(i).node.leg == l).collect();
                let report = check_chain(chain, &leg_schedule);
                for v in report.violations {
                    violations.push(remap_violation(v, &global));
                }
            }

            // Master one-port: first-link emissions across all legs are pairwise
            // disjoint, each occupying the port for the latency of its own leg's
            // first link.
            let n = schedule.n();
            for i in 1..=n {
                let a = schedule.task(i);
                let ca = spider.leg(a.node.leg).c(1);
                for j in (i + 1)..=n {
                    let b = schedule.task(j);
                    let cb = spider.leg(b.node.leg).c(1);
                    let ia = Interval::with_len(a.comms.first(), ca);
                    let ib = Interval::with_len(b.comms.first(), cb);
                    if ia.overlaps(&ib) {
                        violations.push(Violation::MasterPortOverlap { a: i, b: j });
                    }
                }
            }

            FeasibilityReport { violations, makespan: schedule.makespan_on(spider), tasks: n }
        }

        pub(super) fn check_tree(tree: &Tree, schedule: &TreeSchedule) -> FeasibilityReport {
            let mut violations = Vec::new();
            let n = schedule.n();

            // Per-task route validation; tasks failing it are excluded from the
            // pairwise phase (their vectors cannot be addressed by depth).
            let mut routes: Vec<Option<Vec<usize>>> = Vec::with_capacity(n);
            for i in 1..=n {
                let t = schedule.task(i);
                if t.node < 1 || t.node > tree.len() {
                    violations.push(Violation::BadProcessor { task: i, proc: t.node });
                    routes.push(None);
                    continue;
                }
                let path = tree.path_from_root(t.node);
                if t.comms.len() != path.len() {
                    violations.push(Violation::RouteMismatch {
                        task: i,
                        expected: path.len(),
                        got: t.comms.len(),
                    });
                    routes.push(None);
                    continue;
                }
                if t.work != tree.node(t.node).work {
                    violations.push(Violation::WorkMismatch {
                        task: i,
                        stored: t.work,
                        actual: tree.node(t.node).work,
                    });
                }
                if t.comms.first() < 0 {
                    violations.push(Violation::NegativeTime {
                        task: i,
                        what: format!("first emission {}", t.comms.first()),
                    });
                }
                // Property (1): pipeline ordering along the route.
                for d in 2..=path.len() {
                    let arrival = t.comms.get(d - 1) + tree.node(path[d - 2]).comm;
                    let emission = t.comms.get(d);
                    if arrival > emission {
                        violations.push(Violation::ReemittedBeforeReceived {
                            task: i,
                            link: d,
                            arrival,
                            emission,
                        });
                    }
                }
                // Property (2): reception precedes execution.
                let arrival = t.comms.get(path.len()) + tree.node(t.node).comm;
                if arrival > t.start {
                    violations.push(Violation::StartedBeforeReceived {
                        task: i,
                        arrival,
                        start: t.start,
                    });
                }
                routes.push(Some(path));
            }

            // Pairwise exclusivity: executions per node (property 3) and the
            // one-port rule at every sender (property 4 plus out-port sharing).
            for i in 1..=n {
                let Some(path_a) = &routes[i - 1] else { continue };
                let a = schedule.task(i);
                for j in (i + 1)..=n {
                    let Some(path_b) = &routes[j - 1] else { continue };
                    let b = schedule.task(j);
                    if a.node == b.node {
                        let w = tree.node(a.node).work;
                        let ia = Interval::with_len(a.start, w);
                        let ib = Interval::with_len(b.start, w);
                        if ia.overlaps(&ib) {
                            violations.push(Violation::ExecutionOverlap {
                                a: i,
                                b: j,
                                proc: a.node,
                            });
                        }
                    }
                    for (da, &hop_a) in path_a.iter().enumerate() {
                        let sender = tree.node(hop_a).parent;
                        for (db, &hop_b) in path_b.iter().enumerate() {
                            if tree.node(hop_b).parent != sender {
                                continue;
                            }
                            let ia = Interval::with_len(a.comms.get(da + 1), tree.node(hop_a).comm);
                            let ib = Interval::with_len(b.comms.get(db + 1), tree.node(hop_b).comm);
                            if !ia.overlaps(&ib) {
                                continue;
                            }
                            violations.push(if hop_a == hop_b {
                                Violation::CommunicationOverlap { a: i, b: j, link: hop_a }
                            } else if sender == 0 {
                                Violation::MasterPortOverlap { a: i, b: j }
                            } else {
                                Violation::PortOverlap { a: i, b: j, node: sender }
                            });
                        }
                    }
                }
            }

            FeasibilityReport { violations, makespan: schedule.makespan_on(tree), tasks: n }
        }
    }

    /// A deterministic stream of draws for the differential tests.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// A time in `-2..18`: negative now and then, and close enough
        /// to its neighbours that resources often clash.
        fn time(&mut self) -> Time {
            self.below(20) as Time - 2
        }

        fn latency(&mut self) -> Time {
            1 + self.below(4) as Time
        }

        fn comms(&mut self, len: usize) -> CommVector {
            CommVector::from_fill(len, |times| times.iter_mut().for_each(|t| *t = self.time()))
        }
    }

    #[test]
    fn reports_match_the_pairwise_reference() {
        let mut draw = Draw(29);
        for _ in 0..1_500 {
            let pairs: Vec<(Time, Time)> =
                (0..1 + draw.below(4)).map(|_| (draw.latency(), draw.latency())).collect();
            let chain = Chain::from_pairs(&pairs).unwrap();
            let p = chain.len();
            // Processor p + 1 does not exist; a few tasks carry a wrong work.
            let mut tasks: Vec<TaskAssignment> = (0..draw.below(10))
                .map(|_| {
                    let proc = 1 + draw.below(p + 1);
                    let work = if draw.below(8) == 0 { 99 } else { chain.w(proc.min(p)) };
                    TaskAssignment::new(proc, draw.time(), draw.comms(proc), work)
                })
                .collect();
            tasks.sort_by_key(|t| t.comms.first());
            let schedule = ChainSchedule::new(tasks);
            assert_eq!(check_chain(&chain, &schedule), reference::check_chain(&chain, &schedule));

            let legs: Vec<Vec<(Time, Time)>> = (0..1 + draw.below(3))
                .map(|_| (0..1 + draw.below(3)).map(|_| (draw.latency(), draw.latency())).collect())
                .collect();
            let legs: Vec<&[(Time, Time)]> = legs.iter().map(Vec::as_slice).collect();
            let spider = Spider::from_legs(&legs).unwrap();
            let tasks: Vec<SpiderTask> = (0..draw.below(10))
                .map(|_| {
                    let leg = draw.below(spider.num_legs());
                    let depth = 1 + draw.below(spider.leg(leg).len() + 1);
                    SpiderTask::new(NodeId { leg, depth }, draw.time(), draw.comms(depth), 1)
                })
                .collect();
            let schedule = SpiderSchedule::new(tasks);
            assert_eq!(
                check_spider(&spider, &schedule),
                reference::check_spider(&spider, &schedule)
            );

            let triples: Vec<(usize, Time, Time)> = (0..1 + draw.below(6))
                .map(|node| (draw.below(node + 1), draw.latency(), draw.latency()))
                .collect();
            let tree = Tree::from_triples(&triples).unwrap();
            // Nodes 0 and len + 1 do not exist; some vectors miss their route.
            let tasks: Vec<crate::TreeTask> = (0..draw.below(10))
                .map(|_| {
                    let node = draw.below(tree.len() + 2);
                    let depth = if (1..=tree.len()).contains(&node) { tree.depth(node) } else { 1 };
                    let len = match draw.below(6) {
                        0 => depth + 1,
                        1 => depth - 1,
                        _ => depth,
                    };
                    let work =
                        if node == 0 || node > tree.len() { 1 } else { tree.node(node).work };
                    crate::TreeTask::new(node, draw.time(), draw.comms(len), work)
                })
                .collect();
            let schedule = TreeSchedule::new(tasks);
            assert_eq!(check_tree(&tree, &schedule), reference::check_tree(&tree, &schedule));
        }
        let (chain, schedule) = (Chain::paper_figure2(), figure2_schedule());
        for m in crate::mutate::catalog(schedule.n()) {
            if let Some(mutant) = crate::mutate::chain(&schedule, m) {
                assert_eq!(check_chain(&chain, &mutant), reference::check_chain(&chain, &mutant));
            }
        }
    }

    fn figure2_schedule() -> ChainSchedule {
        ChainSchedule::new(vec![
            TaskAssignment::new(1, 2, cv(&[0]), 3),
            TaskAssignment::new(1, 5, cv(&[2]), 3),
            TaskAssignment::new(2, 9, cv(&[4, 6]), 5),
            TaskAssignment::new(1, 8, cv(&[6]), 3),
            TaskAssignment::new(1, 11, cv(&[9]), 3),
        ])
    }

    #[test]
    fn figure2_schedule_is_feasible() {
        let chain = Chain::paper_figure2();
        check_chain(&chain, &figure2_schedule()).assert_feasible();
    }

    #[test]
    fn detects_property1_violation() {
        let chain = Chain::paper_figure2();
        // Task re-emitted on link 2 at time 5 but only arrives at 0+2=2...
        // make it arrive at 6 (emission 4) and re-emit at 5: violation.
        let s = ChainSchedule::new(vec![TaskAssignment::new(2, 10, cv(&[4, 5]), 5)]);
        let r = check_chain(&chain, &s);
        assert!(matches!(
            r.violations.as_slice(),
            [Violation::ReemittedBeforeReceived { task: 1, link: 2, arrival: 6, emission: 5 }]
        ));
    }

    #[test]
    fn detects_property2_violation() {
        let chain = Chain::paper_figure2();
        // Arrives at 0 + 2 = 2 but starts at 1.
        let s = ChainSchedule::new(vec![TaskAssignment::new(1, 1, cv(&[0]), 3)]);
        let r = check_chain(&chain, &s);
        assert!(matches!(
            r.violations.as_slice(),
            [Violation::StartedBeforeReceived { task: 1, arrival: 2, start: 1 }]
        ));
    }

    #[test]
    fn detects_property3_violation() {
        let chain = Chain::paper_figure2();
        // Two tasks on processor 1 at overlapping times.
        let s = ChainSchedule::new(vec![
            TaskAssignment::new(1, 2, cv(&[0]), 3),
            TaskAssignment::new(1, 4, cv(&[2]), 3),
        ]);
        let r = check_chain(&chain, &s);
        assert!(r.violations.contains(&Violation::ExecutionOverlap { a: 1, b: 2, proc: 1 }));
    }

    #[test]
    fn detects_property4_violation() {
        let chain = Chain::paper_figure2();
        // Emissions at 0 and 1 on link 1 (latency 2) overlap.
        let s = ChainSchedule::new(vec![
            TaskAssignment::new(1, 2, cv(&[0]), 3),
            TaskAssignment::new(1, 5, cv(&[1]), 3),
        ]);
        let r = check_chain(&chain, &s);
        assert!(r.violations.contains(&Violation::CommunicationOverlap { a: 1, b: 2, link: 1 }));
    }

    #[test]
    fn detects_bad_processor_and_negative_time() {
        let chain = Chain::paper_figure2();
        let s = ChainSchedule::new(vec![TaskAssignment::new(3, 9, cv(&[0, 2, 5]), 1)]);
        let r = check_chain(&chain, &s);
        assert!(matches!(r.violations.as_slice(), [Violation::BadProcessor { task: 1, proc: 3 }]));

        let s = ChainSchedule::new(vec![TaskAssignment::new(1, 0, cv(&[-2]), 3)]);
        let r = check_chain(&chain, &s);
        assert!(r.violations.iter().any(|v| matches!(v, Violation::NegativeTime { .. })));
    }

    #[test]
    fn detects_work_mismatch() {
        let chain = Chain::paper_figure2();
        let s = ChainSchedule::new(vec![TaskAssignment::new(1, 2, cv(&[0]), 99)]);
        let r = check_chain(&chain, &s);
        assert!(r.violations.iter().any(|v| matches!(v, Violation::WorkMismatch { .. })));
    }

    #[test]
    fn boundary_touching_is_feasible() {
        // Emissions exactly c apart and executions exactly w apart are OK
        // (the paper's inequalities are non-strict).
        let chain = Chain::from_pairs(&[(2, 3)]).unwrap();
        let s = ChainSchedule::new(vec![
            TaskAssignment::new(1, 2, cv(&[0]), 3),
            TaskAssignment::new(1, 5, cv(&[2]), 3),
        ]);
        check_chain(&chain, &s).assert_feasible();
    }

    #[test]
    fn spider_master_port_conflict_detected() {
        let spider = Spider::from_legs(&[&[(2, 3)], &[(3, 4)]]).unwrap();
        // Two emissions from the master overlapping: [0,2) on leg 0 and
        // [1,4) on leg 1.
        let s = SpiderSchedule::new(vec![
            SpiderTask::new(NodeId { leg: 0, depth: 1 }, 2, cv(&[0]), 3),
            SpiderTask::new(NodeId { leg: 1, depth: 1 }, 4, cv(&[1]), 4),
        ]);
        let r = check_spider(&spider, &s);
        assert!(r.violations.contains(&Violation::MasterPortOverlap { a: 1, b: 2 }));
    }

    #[test]
    fn spider_serialized_emissions_feasible() {
        let spider = Spider::from_legs(&[&[(2, 3)], &[(3, 4)]]).unwrap();
        let s = SpiderSchedule::new(vec![
            SpiderTask::new(NodeId { leg: 0, depth: 1 }, 2, cv(&[0]), 3),
            SpiderTask::new(NodeId { leg: 1, depth: 1 }, 5, cv(&[2]), 4),
        ]);
        check_spider(&spider, &s).assert_feasible();
    }

    #[test]
    fn report_carries_recomputed_makespan_and_task_count() {
        let chain = Chain::paper_figure2();
        let report = check_chain(&chain, &figure2_schedule());
        assert!(report.is_feasible());
        assert_eq!(report.makespan, 14);
        assert_eq!(report.tasks, 5);
        assert_eq!(FeasibilityReport::feasible(3, 9).makespan, 9);
        assert!(FeasibilityReport::feasible(3, 9).is_feasible());
    }

    /// master -> 1 -> {2, 3}: c/w as in the interior-fork sample tree.
    fn fork_tree() -> Tree {
        Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap()
    }

    fn tt(node: usize, start: Time, times: &[Time], work: Time) -> crate::TreeTask {
        crate::TreeTask::new(node, start, cv(times), work)
    }

    #[test]
    fn tree_checker_accepts_a_hand_built_schedule() {
        // t1 -> node 2: master 0..1, node1 forwards 1..3, exec 3..6.
        // t2 -> node 3: master 1..2, node1 forwards 3..4, exec 4..5.
        // t3 -> node 1: master 2..3, exec 3..5? node 1 busy? node 1 never
        // executes here; exec 3..5 on node 1 is free.
        let s =
            TreeSchedule::new(vec![tt(2, 3, &[0, 1], 3), tt(3, 4, &[1, 3], 1), tt(1, 3, &[2], 2)]);
        let report = check_tree(&fork_tree(), &s);
        report.assert_feasible();
        assert_eq!(report.makespan, 6);
        assert_eq!(report.tasks, 3);
    }

    #[test]
    fn tree_checker_matches_chain_checker_on_chain_shaped_trees() {
        // The Figure-2 schedule, re-addressed by tree node ids.
        let tree = Tree::from_chain(&Chain::paper_figure2());
        let tree_schedule = TreeSchedule::new(
            figure2_schedule()
                .tasks()
                .iter()
                .map(|t| crate::TreeTask::new(t.proc, t.start, t.comms.clone(), t.work))
                .collect(),
        );
        let report = check_tree(&tree, &tree_schedule);
        report.assert_feasible();
        assert_eq!(report.makespan, 14);
    }

    #[test]
    fn tree_checker_detects_interior_port_overlap() {
        // Node 1 forwards to both children at overlapping times.
        let s = TreeSchedule::new(vec![
            tt(2, 5, &[0, 3], 3),
            tt(3, 5, &[1, 3], 1), // node 1's port busy 3..5 for t1
        ]);
        let r = check_tree(&fork_tree(), &s);
        assert!(
            r.violations.iter().any(|v| matches!(v, Violation::PortOverlap { node: 1, .. })),
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn tree_checker_detects_master_port_and_link_overlaps() {
        // master -> {1, 2}.
        let tree = Tree::from_triples(&[(0, 3, 1), (0, 2, 1)]).unwrap();
        let s = TreeSchedule::new(vec![tt(1, 3, &[0], 1), tt(2, 4, &[1], 1)]);
        let r = check_tree(&tree, &s);
        assert!(r.violations.contains(&Violation::MasterPortOverlap { a: 1, b: 2 }));
        // Same link twice, overlapping.
        let s = TreeSchedule::new(vec![tt(1, 3, &[0], 1), tt(1, 6, &[1], 1)]);
        let r = check_tree(&tree, &s);
        assert!(r.violations.contains(&Violation::CommunicationOverlap { a: 1, b: 2, link: 1 }));
    }

    #[test]
    fn tree_checker_flags_route_and_node_errors() {
        let tree = fork_tree();
        // Node 2 sits at depth 2; a single-entry vector cannot route there.
        let r = check_tree(&tree, &TreeSchedule::new(vec![tt(2, 5, &[0], 3)]));
        assert!(matches!(
            r.violations.as_slice(),
            [Violation::RouteMismatch { task: 1, expected: 2, got: 1 }]
        ));
        let r = check_tree(&tree, &TreeSchedule::new(vec![tt(9, 5, &[0], 3)]));
        assert!(matches!(r.violations.as_slice(), [Violation::BadProcessor { task: 1, proc: 9 }]));
        // Wrong work hint and negative emission.
        let r = check_tree(&tree, &TreeSchedule::new(vec![tt(1, 3, &[-1], 99)]));
        assert!(r.violations.iter().any(|v| matches!(v, Violation::WorkMismatch { .. })));
        assert!(r.violations.iter().any(|v| matches!(v, Violation::NegativeTime { .. })));
    }

    #[test]
    fn tree_checker_flags_pipeline_and_execution_violations() {
        let tree = fork_tree();
        // Re-emitted on link 2 before arrival (arrives at node 1 at 1).
        let r = check_tree(&tree, &TreeSchedule::new(vec![tt(2, 9, &[0, 0], 3)]));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ReemittedBeforeReceived { link: 2, .. })));
        // Starts before reception (arrives at node 2 at 1+2=3... start 2).
        let r = check_tree(&tree, &TreeSchedule::new(vec![tt(2, 2, &[0, 1], 3)]));
        assert!(r
            .violations
            .iter()
            .any(|v| matches!(v, Violation::StartedBeforeReceived { start: 2, .. })));
        // Two executions overlapping on node 1.
        let s = TreeSchedule::new(vec![tt(1, 3, &[0], 2), tt(1, 4, &[1], 2)]);
        let r = check_tree(&tree, &s);
        assert!(r.violations.contains(&Violation::ExecutionOverlap { a: 1, b: 2, proc: 1 }));
    }

    #[test]
    fn tree_empty_schedule_is_feasible() {
        let r = check_tree(&fork_tree(), &TreeSchedule::empty());
        assert!(r.is_feasible());
        assert_eq!(r.makespan, 0);
        assert_eq!(r.tasks, 0);
    }

    #[test]
    fn spider_per_leg_violations_remap_to_global_indices() {
        let spider = Spider::from_legs(&[&[(2, 3)], &[(3, 4)]]).unwrap();
        // Leg 1's single task starts before arrival; it is global task 2.
        let s = SpiderSchedule::new(vec![
            SpiderTask::new(NodeId { leg: 0, depth: 1 }, 2, cv(&[0]), 3),
            SpiderTask::new(NodeId { leg: 1, depth: 1 }, 4, cv(&[2]), 4),
        ]);
        let r = check_spider(&spider, &s);
        assert!(matches!(
            r.violations.as_slice(),
            [Violation::StartedBeforeReceived { task: 2, arrival: 5, start: 4 }]
        ));
    }
}
