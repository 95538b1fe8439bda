//! The chain-to-fork transformation of the paper's Figure 7.

use mst_platform::{Chain, Time};
use mst_schedule::ChainSchedule;

/// A single-task virtual slave derived from one task of a leg's
/// `T_lim`-anchored chain schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainVirtualSlave {
    /// Link latency seen by the master: the leg's `c_1`.
    pub comm: Time,
    /// Virtual processing time `T_lim - C^i_1 - c_1`: the whole tail of
    /// the task's in-leg life (travel past link 1, buffering, execution),
    /// folded into one opaque interval ending at `T_lim`.
    pub proc_time: Time,
    /// Leg index (0-based) the slave belongs to.
    pub leg: usize,
    /// Index (**1-based**) of the corresponding task in the leg's chain
    /// schedule.
    pub task_index: usize,
}

/// Transforms a leg's deadline-anchored chain schedule into virtual
/// slaves (Figure 7). The schedule must be produced by
/// [`mst_core::schedule_chain_by_deadline`] with the same `deadline` —
/// its emission times are absolute, which is what the formula needs.
pub fn transform_leg(
    leg: usize,
    chain: &Chain,
    schedule: &ChainSchedule,
    deadline: Time,
) -> Vec<ChainVirtualSlave> {
    let c1 = chain.c(1);
    schedule
        .tasks()
        .iter()
        .enumerate()
        .map(|(idx, t)| {
            let proc_time = deadline - t.comms.first() - c1;
            debug_assert!(proc_time >= chain.w(t.proc), "virtual time below real work");
            ChainVirtualSlave { comm: c1, proc_time, leg, task_index: idx + 1 }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_core::schedule_chain_by_deadline;

    #[test]
    fn figure7_transformation_reproduced_exactly() {
        // The paper's Figure 7: the Figure-2 instance anchored at
        // T_lim = 14 yields five virtual slaves, all with communication
        // time 2, with processing times {12, 10, 8, 6, 3} — and the task
        // mapped to processor 2 is the node of processing time 8.
        let chain = Chain::paper_figure2();
        let schedule = schedule_chain_by_deadline(&chain, 5, 14);
        assert_eq!(schedule.n(), 5);
        let slaves = transform_leg(0, &chain, &schedule, 14);
        let comms: Vec<Time> = slaves.iter().map(|s| s.comm).collect();
        assert_eq!(comms, vec![2; 5]);
        let mut procs: Vec<Time> = slaves.iter().map(|s| s.proc_time).collect();
        assert_eq!(procs, vec![12, 10, 8, 6, 3], "emission order {{0,2,4,6,9}}");
        procs.sort_unstable();
        assert_eq!(procs, vec![3, 6, 8, 10, 12], "the multiset drawn in Figure 7");
        // The processor-2 task is the node with processing time 8.
        let on2 = schedule.tasks_on(2);
        assert_eq!(on2.len(), 1);
        assert_eq!(slaves[on2[0] - 1].proc_time, 8);
    }

    #[test]
    fn virtual_time_dominates_real_work() {
        use mst_platform::{GeneratorConfig, HeterogeneityProfile};
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(1 + (seed % 4) as usize);
            let deadline = 25;
            let schedule = schedule_chain_by_deadline(&chain, 10, deadline);
            for s in transform_leg(0, &chain, &schedule, deadline) {
                let task = schedule.task(s.task_index);
                assert!(s.proc_time >= chain.w(task.proc));
                // The virtual slave finishing by `deadline` with emission
                // at the original C^i_1 is exactly the original tail:
                assert_eq!(task.comms.first() + s.comm + s.proc_time, deadline);
            }
        }
    }

    #[test]
    fn empty_schedule_transforms_to_nothing() {
        let chain = Chain::paper_figure2();
        let schedule = schedule_chain_by_deadline(&chain, 5, 4); // too tight
        assert!(transform_leg(0, &chain, &schedule, 4).is_empty());
    }
}
