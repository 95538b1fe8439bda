//! # mst-baselines — exact and heuristic baselines
//!
//! The paper *proves* its algorithms optimal; this crate lets the test
//! suite and the experiment harness *check* that claim empirically, and
//! quantifies how much optimality buys over the schedulers a practitioner
//! would otherwise write.
//!
//! * [`asap`] — the forward "as soon as possible" evaluator: given a
//!   platform (any out-tree) and an *assignment sequence* (which node
//!   each task is routed to, in master-emission order), computes the
//!   earliest feasible schedule. For identical tasks under the one-port
//!   model, per-resource orders can be taken equal to the emission order
//!   (a payload-exchange argument), so minimising over sequences is
//!   exact.
//! * [`exact`] — branch-and-bound exhaustive search over assignment
//!   sequences: the true optimum for small instances (the ground truth
//!   behind the Theorem 1 / Theorem 3 validation experiments).
//! * [`heuristics`] — forward heuristics (master-only, round-robin,
//!   random, eager min-completion) representing what one loses without
//!   the paper's backward construction.
//! * [`bounds`] — analytic lower bounds and steady-state rates.
//! * [`divisible`] — single-installment divisible-load theory on stars
//!   (the fluid relaxation of Robertazzi et al. that the paper's
//!   introduction contrasts with its quantised tasks).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asap;
pub mod bounds;
pub mod divisible;
pub mod exact;
pub mod heuristics;

pub use asap::{asap_chain, asap_tree, TreeAsap};
pub use divisible::{divisible_star, divisible_star_period, DivisibleSolution};
pub use exact::{
    max_tasks_by_deadline, optimal_chain_makespan, optimal_spider_makespan, optimal_tree_makespan,
    optimal_tree_sequence,
};
pub use heuristics::{eager_chain, master_only_chain, random_chain, round_robin_chain};
