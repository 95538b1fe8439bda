//! The makespan variant through the candidate front.
//!
//! The reference step ([`crate::BackwardScheduler::step`]) evaluates all
//! `p` candidate vectors in full — `O(p^2)` per task, the complexity the
//! paper states. [`crate::BackwardScheduler::front_step`] finds the same
//! winner from the candidates' first components in one `O(p)`
//! prefix-min sweep and builds only the candidates tied on the largest
//! one (the closed form is on the method). It is the step every
//! deadline run takes — [`crate::schedule_chain_by_deadline`] and the
//! spider algorithm's per-leg runs — and [`schedule_chain_fast`] is
//! [`crate::schedule_chain`] through it. The worst case stays `O(p^2)`
//! (a homogeneous chain ties every candidate), so the `chain_scaling`
//! bench measures a constant factor, not an asymptotic one.

use crate::algorithm::BackwardScheduler;
use mst_platform::Chain;
use mst_schedule::{ChainSchedule, TaskAssignment};

/// Drop-in replacement for [`crate::schedule_chain`] using the prefix-min
/// candidate front. Produces bit-identical schedules (asserted by tests).
pub fn schedule_chain_fast(chain: &Chain, n: usize) -> ChainSchedule {
    assert!(n >= 1, "schedule_chain_fast requires at least one task");
    let mut scheduler = BackwardScheduler::new(chain, chain.t_infinity(n));
    let mut rev: Vec<TaskAssignment> = Vec::with_capacity(n);
    for _ in 0..n {
        let (chosen, start) = scheduler.front_step();
        let proc = chosen.len();
        rev.push(TaskAssignment::new(proc, start, chosen, chain.w(proc)));
    }
    rev.reverse();
    let mut schedule = ChainSchedule::new(rev);
    let shift = schedule.start_time().expect("n >= 1");
    schedule.shift(-shift);
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::schedule_chain;
    use mst_platform::{GeneratorConfig, HeterogeneityProfile};

    #[test]
    fn identical_to_reference_on_figure2() {
        let chain = Chain::paper_figure2();
        assert_eq!(schedule_chain_fast(&chain, 5), schedule_chain(&chain, 5));
    }

    #[test]
    fn identical_to_reference_on_random_instances() {
        for seed in 0..60u64 {
            let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
            let g = GeneratorConfig::new(profile, seed);
            let p = 1 + (seed % 7) as usize;
            let n = 1 + (seed % 11) as usize;
            let chain = g.chain(p);
            assert_eq!(
                schedule_chain_fast(&chain, n),
                schedule_chain(&chain, n),
                "divergence at seed {seed} (p={p}, n={n})"
            );
        }
    }

    #[test]
    fn identical_on_tie_heavy_homogeneous_chains() {
        // Homogeneous chains maximise front ties, stressing the
        // tie-breaking path.
        let chain = Chain::from_pairs(&[(2, 2); 6]).unwrap();
        for n in 1..12 {
            assert_eq!(schedule_chain_fast(&chain, n), schedule_chain(&chain, n), "n={n}");
        }
    }
}
