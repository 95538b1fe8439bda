//! # mst-spider — optimal scheduling on spider graphs (Section 7)
//!
//! A spider is a tree whose only node of arity greater than two is the
//! master. The paper's algorithm composes the two substrates:
//!
//! 1. run the **chain algorithm's `T_lim` variant** on every leg
//!    independently (as if each leg had the master to itself);
//! 2. **transform** (Figure 7) each leg schedule into single-task virtual
//!    slaves: the task emitted at `C^i_1` becomes a slave with link
//!    latency `c_1` (the leg's first link) and processing time
//!    `T_lim - C^i_1 - c_1` — everything that must happen after its
//!    master emission is folded into one opaque "processing" interval;
//! 3. run the **fork-graph selection** (Jackson greedy) over the pooled
//!    virtual slaves to decide how many tasks each leg receives and when
//!    the master's shared out-port serves them;
//! 4. **revert**: each selected virtual slave maps back to its chain
//!    task, which keeps its in-leg schedule but adopts the (earlier or
//!    equal) master emission chosen by the fork algorithm — Lemma 3
//!    shows the result stays feasible, Lemma 4 that no schedule does
//!    better.
//!
//! [`schedule_spider_by_deadline`] implements steps 1–4 (optimal task
//! count by Theorem 3); [`schedule_spider`] wraps a binary search over
//! `T_lim` to obtain the minimum makespan for exactly `n` tasks, in
//! `O(n^2 p^2 log)` overall. The search runs over `[LB, UB]`: the
//! one-port lower bound `n · min c_1 + cheapest tail`
//! ([`Spider::makespan_lower_bound`](mst_platform::Spider::makespan_lower_bound)),
//! which every schedule meets, and the best single leg's makespan
//! ([`Spider::makespan_upper_bound`](mst_platform::Spider::makespan_upper_bound)).
//! [`schedule_spider_below`] does the same for a caller that only wants
//! a makespan of at most some bound: one count-only probe at the bound
//! rejects a spider that cannot meet it, and otherwise the search runs
//! over `[LB, min(bound, UB)]`. Tree covers use it to drop a cover that
//! cannot beat the best one found so far.
//!
//! A search schedules each leg **once**, not once per probe. The
//! backward construction is shift-invariant, so a leg's `T_lim`
//! schedule is one run anchored at 0, shifted by `T_lim` and cut where
//! the shifted first emission goes negative; and a virtual slave's
//! processing time `T_lim - C^i_1 - c_1` does not depend on `T_lim`.
//! Every leg keeps its run for the whole search, extended only as far
//! as a probe reaches, and a probe merges the legs' available prefixes
//! by `(c_1, processing time, leg)` straight into the greedy — the
//! order step 3's pooled sort gives — so it builds no chain schedule,
//! transforms nothing and sorts nothing. [`transform_leg`] remains the
//! literal Figure-7 step, for the figures and the tests. Outputs are
//! those of the per-probe pipeline, bit for bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod transform;

pub use algorithm::{schedule_spider, schedule_spider_below, schedule_spider_by_deadline};
pub use transform::{transform_leg, ChainVirtualSlave};
