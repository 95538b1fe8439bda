//! # mst-fork — the fork-graph (star) scheduling substrate
//!
//! Re-implementation of the fork-graph algorithm of Beaumont, Carter,
//! Ferrante, Legrand and Robert (IPDPS 2002) — the paper's reference \[2]
//! — which Section 6 of Dutot's paper summarises and Section 7 reuses for
//! spiders. Given a star of heterogeneous slaves, a task budget `n` and a
//! deadline `T_lim`, the algorithm schedules the **maximum number of
//! tasks** all completing by `T_lim`.
//!
//! It proceeds in three moves, each implemented in its own module:
//!
//! 1. **Node expansion** ([`expand`], the paper's Figure 6): a slave
//!    `(c_i, w_i)` that may run any number of tasks is replaced by
//!    single-task *virtual slaves* with the same link latency and
//!    processing times `w_i, w_i + m_i, w_i + 2 m_i, ...` where
//!    `m_i = max(c_i, w_i)` — the `q`-th-from-last task on a node needs
//!    `q` extra steady-state periods of slack.
//! 2. **Deadline feasibility** ([`jackson`]): a set of single-task slaves
//!    is schedulable iff serialising their communications in decreasing
//!    processing-time order meets every deadline `T_lim - t` — Jackson's
//!    earliest-due-date rule on the master's out-port.
//! 3. **Bandwidth-centric greedy** ([`algorithm`]): consider virtual
//!    slaves by ascending link latency (ties: ascending processing time)
//!    and keep every one that stays feasible. Communication time is the
//!    single shared resource, so cheap links are claimed first.
//!
//! The result converts back to an executable star schedule
//! (a [`SpiderSchedule`](mst_schedule::SpiderSchedule) on legs of
//! length 1) and, by binary search on `T_lim`, to a makespan-optimal
//! schedule for `n` tasks ([`algorithm::schedule_fork`]). The search
//! runs over `[LB, UB]`: the one-port lower bound `n · min c + min w`
//! ([`Fork::makespan_lower_bound`](mst_platform::Fork::makespan_lower_bound)),
//! which every schedule meets, and the best single slave's makespan
//! ([`Fork::makespan_upper_bound`](mst_platform::Fork::makespan_upper_bound)).
//! [`search_min_deadline`] is that search, shared with `mst-spider`,
//! whose `schedule_spider_below` also caps it at a caller's bound.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod expand;
pub mod jackson;

pub use algorithm::{
    count_tasks_fork_by_deadline, max_tasks_fork_by_deadline, max_tasks_fork_by_deadline_scratch,
    schedule_fork, search_min_deadline, ForkOutcome, ForkScratch,
};
pub use expand::{expand_fork, expand_fork_sorted, expand_slave, ExpansionMerge, VirtualSlave};
pub use jackson::{EddSet, Item};
