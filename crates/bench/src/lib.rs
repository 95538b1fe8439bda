//! # mst-bench — the experiment harness
//!
//! Every figure and table of the paper (and the implied evaluation
//! DESIGN.md enumerates) is regenerated by code in this crate:
//!
//! * the `figures` binary prints the paper's worked artifacts (Figures
//!   1, 2, 6, 7) from live algorithm runs;
//! * the `tables` binary prints the validation and comparison tables
//!   (Theorem 1/3 optimality ratios, heuristic gaps, steady-state
//!   convergence, lemma checks, tree covering gaps);
//! * the Criterion benches under `benches/` measure the runtime-scaling
//!   claims (`O(n p^2)` chains, `O(n^2 p^2)` spiders) and the cost of
//!   ties in the chain's candidate front.
//!
//! The table-producing functions live in this library so the binaries,
//! the benches and the integration tests all consume the same code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

pub use experiments::*;
pub use table::Table;
