//! # mst-verify — the fail-closed oracle gate
//!
//! Every verified request in the workspace runs through the
//! Definition-1 oracle (`check_chain` / `check_spider` / `check_tree`
//! in `mst-schedule`). This crate checks the *checker*: a bug in the
//! oracle would silently bless infeasible schedules fleet-wide, so the
//! oracle itself needs an adversary that does not share its blind
//! spots.
//!
//! Three layers:
//!
//! * [`sim`] — a **brute-force one-port reference simulator**. It
//!   replays a [`mst_schedule::TreeSchedule`] event by event against
//!   the Definition-1 semantics and accepts or rejects it from first
//!   principles.
//! * [`model`] — a **bounded model checker** (`mst check-model`). It
//!   exhaustively enumerates every chain, fork, spider and tree up to
//!   configurable processor/task bounds with weights from a small grid,
//!   and asserts the gate properties on each: every registry solver's
//!   makespan is at least the exact branch-and-bound's, the oracle and
//!   the simulator return the same verdict on every witness *and* on
//!   every mutation of it, `verify()` is total over the enumeration,
//!   canonical-form `restore()` round-trips feasibility, and every
//!   deadline variant is dual to its makespan variant
//!   (`deadline-duality`, see [`props`]).
//! * [`fuzz`] — a **differential fuzzer** (`mst fuzz`). It generates
//!   seeded random instances and mutated witnesses far beyond the model
//!   checker's bounds, cross-checks oracle vs simulator vs
//!   branch-and-bound, and minimizes any failing instance (task and
//!   leg/processor deletion) before reporting it.
//!
//! Verdicts are structured JSON reports naming the violated property
//! and the (minimized) instance — never bare panics — so a CI failure
//! is immediately actionable.
//!
//! ## Why the simulator does not reuse the oracle's code
//!
//! The point of a reference implementation is to disagree when one of
//! the two is wrong. The oracle checks feasibility as `O(n^2)` pairwise
//! interval tests over `mst_platform::time::Interval`; the simulator
//! here shares none of that: it walks each task's route hop by hop
//! (replaying arrival and re-emission causality), then sweeps every
//! resource's claim timeline — one out-port per sending node, one
//! executor per node — in time order with a running high-water mark. A
//! shared helper (or a shared misreading of Definition 1 encoded in a
//! shared type) would turn "two independent judges" into one judge
//! consulted twice; keeping the code paths disjoint is what makes an
//! agreement between them evidence.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod model;
pub mod props;
pub mod sim;

pub use fuzz::{run as run_fuzz, FuzzConfig, FuzzReport};
pub use model::{check_model, ModelBounds, ModelReport};
pub use props::{PropertyViolation, Tally};
pub use sim::{simulate, simulate_solution, tree_witness, Rejection, SimVerdict};
