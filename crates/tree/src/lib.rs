//! # mst-tree — scheduling general trees by spider covering
//!
//! The paper closes with its long-term goal: "provide good heuristics for
//! scheduling on complicated graphs of heterogeneous processors, by
//! covering those graphs with simpler structures". This crate implements
//! that programme for out-trees:
//!
//! 1. **Cover** ([`cover`]): select one root-to-leaf path per child of
//!    the master; the selected paths form a spider sub-platform (they
//!    share no node and only meet at the master). Off-path processors
//!    simply stay idle, so any spider schedule on the cover is a valid
//!    tree schedule.
//! 2. **Schedule** ([`schedule`]): run the optimal spider algorithm of
//!    `mst-spider` on the covered sub-platform.
//!
//! Several path-selection strategies are provided, plus an exhaustive
//! cover search for small trees; experiment E3 measures the gap between
//! the best cover and the true tree optimum.
//!
//! The [`witness`] module closes the loop on verification: any
//! assignment sequence — in particular the optimal one found by the
//! exhaustive search of `mst-baselines` — replays into a full
//! [`mst_schedule::TreeSchedule`] that the independent
//! [`mst_schedule::check_tree`] oracle can falsify, and every cover
//! schedule re-expresses as a tree schedule on the *full* tree through
//! [`TreeScheduleOutcome::tree_schedule`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cover;
pub mod schedule;
pub mod witness;

pub use cover::{all_covers, cover_tree, distinct_covers, PathStrategy, SpiderCover};
pub use schedule::{best_cover_schedule, schedule_tree, TreeScheduleOutcome};
pub use witness::tree_schedule_from_sequence;
