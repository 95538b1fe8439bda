//! # mst-core — the optimal chain-scheduling algorithm of Dutot (IPPS 2003)
//!
//! The paper's primary contribution: scheduling `n` independent identical
//! tasks on a heterogeneous [`Chain`](mst_platform::Chain) of processors
//! under the one-port model, **optimally in makespan**, in `O(n p^2)` in
//! the worst case (a homogeneous chain, which ties every candidate).
//!
//! The algorithm (Section 3 of the paper) builds the schedule *backwards*
//! from an anchor time: it keeps, per link, a *hull* `h_k` (the earliest
//! already-reserved use of the link) and, per processor, an *occupancy*
//! `o_k` (the earliest already-reserved execution start), schedules the
//! last task first, and for each task picks the greatest candidate
//! communication vector in the Definition-3 order — i.e. the placement
//! that emits as late as possible, tie-breaking towards the processor
//! closest to the master.
//!
//! Two entry points drive the same backward machinery:
//!
//! * [`schedule_chain`] — the makespan variant: anchors at
//!   `T_infinity = c_1 + (n-1) max(w_1, c_1) + w_1` and schedules all `n`
//!   tasks; Theorem 1 proves the result optimal.
//! * [`schedule_chain_by_deadline`] — the `T_lim` variant of Section 7:
//!   anchors at a caller-supplied deadline and schedules as many tasks as
//!   possible (at most `n`) finishing by that deadline, stopping when a
//!   task would have to be emitted before time 0. The spider algorithm
//!   runs the same construction once per leg, anchored at 0, and shifts
//!   it to every deadline it tries.
//!
//! Every run takes [`BackwardScheduler::front_step`], which finds the
//! greatest candidate from the candidates' first components and builds
//! only the candidates tied on the largest one. [`BackwardScheduler::step`]
//! evaluates every candidate vector and exposes them, so that the
//! Lemma-1/Lemma-2 structural properties can be checked (see [`lemmas`]);
//! it is also the reference the front step is tested against.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod analysis;
pub mod lemmas;
pub mod state;

pub use algorithm::{schedule_chain, schedule_chain_by_deadline, BackwardScheduler, Step};
pub use analysis::{depth_usage, distribution_crossover, makespan_curve, marginal_costs};
pub use state::BackwardState;
