//! # mst-platform — platform model for heterogeneous master-slave tasking
//!
//! This crate models the *platforms* of Dutot, "Master-slave Tasking on
//! Heterogeneous Processors" (IPPS 2003): a master node holding `n`
//! independent, identical tasks, connected to heterogeneous slave processors
//! through heterogeneous one-port communication links.
//!
//! The topologies of the paper are all provided:
//!
//! * [`Chain`] — processors in a line, the master feeding processor 1
//!   (Figure 1 of the paper). Processor `i` has an incoming-link latency
//!   `c_i` and a per-task processing time `w_i`.
//! * [`Fork`] — a star: every slave is a direct child of the master
//!   (the substrate of the paper's Section 6, from Beaumont et al.).
//! * [`Spider`] — a tree where only the master has arity greater than two,
//!   i.e. several chains glued at the master (Section 6, Figure 5).
//! * [`Tree`] — general out-trees, used by the `mst-tree` extension crate
//!   (the paper's stated future work) and by the exact baselines.
//!
//! Everything is measured in integer ticks ([`Time`]), exactly as in the
//! paper where emission and start times live in `N`.
//!
//! The crate also ships seeded random [`generator`]s for the heterogeneity
//! regimes exercised by the experiment harness. Platforms are stored as
//! text by the unified `mst_api::Platform` (`Platform::parse` and
//! `Platform::to_text`), the one type that holds any of the four
//! topologies.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chain;
pub mod error;
pub mod fork;
pub mod generator;
pub mod presets;
pub mod processor;
pub mod spider;
pub mod time;
pub mod tree;

pub use chain::Chain;
pub use error::PlatformError;
pub use fork::Fork;
pub use generator::{GeneratorConfig, HeterogeneityProfile};
pub use processor::Processor;
pub use spider::{NodeId, Spider};
pub use time::Time;
pub use tree::{Tree, TreeNode};
