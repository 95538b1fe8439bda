//! The forward ASAP evaluator over assignment sequences.
//!
//! An *assignment sequence* lists, in master-emission order, the node
//! each task is routed to. Given the sequence, the earliest feasible
//! schedule is computed greedily: each event (port use, execution) starts
//! as soon as its prerequisites allow, resources serving tasks in
//! sequence order.
//!
//! Why this is lossless: all tasks are identical, so at any node the
//! forwarding order can be normalised to arrival order by exchanging
//! payloads (Section 2 of the paper makes the same "WLOG emissions in
//! index order" move for the master). Arrival order along any path then
//! equals master-emission order, so *some* optimal schedule is greedy on
//! its own sequence — and minimising the ASAP makespan over all
//! sequences is exact. The evaluator is shared by the exhaustive search
//! ([`crate::exact`]) and the forward heuristics
//! ([`crate::heuristics`]).

use mst_platform::{Chain, Time, Tree};
use mst_schedule::{ChainSchedule, CommVector, TaskAssignment};

/// Incremental forward state over a [`Tree`] platform.
///
/// Node ids follow [`Tree`]: `0` is the master, `1..=len` the processors.
#[derive(Debug, Clone)]
pub struct TreeAsap<'a> {
    tree: &'a Tree,
    /// `out_port_free[v]` — first tick node `v`'s out-port is free.
    out_port_free: Vec<Time>,
    /// `proc_free[v - 1]` — first tick processor `v` is free.
    proc_free: Vec<Time>,
    /// Completion time of the latest-finishing task so far.
    makespan: Time,
}

impl<'a> TreeAsap<'a> {
    /// Fresh state: every resource free from time 0.
    pub fn new(tree: &'a Tree) -> Self {
        TreeAsap {
            tree,
            out_port_free: vec![0; tree.len() + 1],
            proc_free: vec![0; tree.len()],
            makespan: 0,
        }
    }

    /// Routes the next task to `node`, committing every hop and the
    /// execution at the earliest feasible times. Returns
    /// `(emissions, start, completion)` where `emissions.get(d)` is the
    /// emission time on the `d`-th link (**1-based**) of the task's root
    /// path.
    pub fn place(&mut self, node: usize) -> (CommVector, Time, Time) {
        let mut depth = 0;
        let mut hop = node;
        while hop != 0 {
            depth += 1;
            hop = self.tree.node(hop).parent;
        }
        let mut available = 0; // when the task is ready at the current hop's sender
        let emissions = CommVector::from_fill(depth, |emissions| {
            // Each slot first holds the node its link enters, filled by
            // walking the parents up from `node`, then that link's
            // emission, computed from the master outwards: the route
            // needs no vector of its own.
            let mut hop = node;
            for slot in emissions.iter_mut().rev() {
                *slot = hop as Time;
                hop = self.tree.node(hop).parent;
            }
            for slot in emissions.iter_mut() {
                let hop = *slot as usize;
                let sender = self.tree.node(hop).parent;
                let emit = available.max(self.out_port_free[sender]);
                let latency = self.tree.node(hop).comm;
                self.out_port_free[sender] = emit + latency;
                *slot = emit;
                available = emit + latency;
            }
        });
        let start = available.max(self.proc_free[node - 1]);
        let completion = start + self.tree.node(node).work;
        self.proc_free[node - 1] = completion;
        self.makespan = self.makespan.max(completion);
        (emissions, start, completion)
    }

    /// Completion time of the latest-finishing placed task.
    #[inline]
    pub fn makespan(&self) -> Time {
        self.makespan
    }
}

/// Evaluates a full assignment sequence on a tree; returns the makespan.
pub fn asap_tree(tree: &Tree, sequence: &[usize]) -> Time {
    let mut state = TreeAsap::new(tree);
    for &node in sequence {
        state.place(node);
    }
    state.makespan()
}

/// Evaluates an assignment sequence on a chain (`sequence[i]` is the
/// **1-based** processor of task `i + 1`), returning the full schedule.
pub fn asap_chain(chain: &Chain, sequence: &[usize]) -> ChainSchedule {
    let tree = Tree::from_chain(chain);
    let mut state = TreeAsap::new(&tree);
    let mut tasks = Vec::with_capacity(sequence.len());
    for &proc in sequence {
        let (emissions, start, _) = state.place(proc);
        tasks.push(TaskAssignment::new(proc, start, emissions, chain.w(proc)));
    }
    ChainSchedule::new(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::Chain;
    use mst_schedule::check_chain;

    #[test]
    fn single_task_travels_the_pipeline() {
        let chain = Chain::paper_figure2();
        let s = asap_chain(&chain, &[2]);
        check_chain(&chain, &s).assert_feasible();
        // emit 0, arrive p1 at 2, forward 2..5, arrive p2 at 5, run 5..10
        assert_eq!(s.task(1).comms.times(), &[0, 2]);
        assert_eq!(s.task(1).start, 5);
        assert_eq!(s.makespan(), 10);
    }

    #[test]
    fn master_only_sequence_matches_t_infinity() {
        for pairs in [&[(2, 5)], &[(5, 2)], &[(3, 3)]] {
            let chain = Chain::from_pairs(pairs.as_slice()).unwrap();
            for n in 1..8 {
                let seq = vec![1; n];
                let s = asap_chain(&chain, &seq);
                check_chain(&chain, &s).assert_feasible();
                assert_eq!(s.makespan(), chain.t_infinity(n));
            }
        }
    }

    #[test]
    fn figure2_sequence_reaches_14() {
        // The paper's Figure-2 assignment: tasks 1,2,4,5 on processor 1,
        // task 3 on processor 2 — forward ASAP recovers makespan 14.
        let chain = Chain::paper_figure2();
        let s = asap_chain(&chain, &[1, 1, 2, 1, 1]);
        check_chain(&chain, &s).assert_feasible();
        assert_eq!(s.makespan(), 14);
    }

    #[test]
    fn sequences_always_produce_feasible_schedules() {
        use mst_platform::{GeneratorConfig, HeterogeneityProfile};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for seed in 0..30u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let p = 1 + (seed % 5) as usize;
            let chain = g.chain(p);
            let n = 1 + (seed % 8) as usize;
            let seq: Vec<usize> = (0..n).map(|_| rng.gen_range(1..=p)).collect();
            let s = asap_chain(&chain, &seq);
            check_chain(&chain, &s).assert_feasible();
        }
    }

    #[test]
    fn tree_shared_out_port_serialises_children() {
        // master -> {1, 2}: two tasks to different children still
        // serialise on the master's out-port.
        let tree = Tree::from_triples(&[(0, 3, 1), (0, 2, 1)]).unwrap();
        let mut state = TreeAsap::new(&tree);
        let (e1, s1, _) = state.place(1);
        let (e2, s2, _) = state.place(2);
        assert_eq!(e1.times(), [0]);
        assert_eq!(e2.times(), [3], "second emission waits for the port");
        assert_eq!(s1, 3);
        assert_eq!(s2, 5);
        assert_eq!(state.makespan(), 6);
    }

    #[test]
    fn tree_interior_port_shared_between_subtrees() {
        // master -> 1 -> {2, 3}: node 1 forwards to 2 then 3 over one port.
        let tree = Tree::from_triples(&[(0, 1, 10), (1, 2, 1), (1, 2, 1)]).unwrap();
        let m = asap_tree(&tree, &[2, 3]);
        // t1: master emits 0..1; node1 forwards 1..3; exec 3..4
        // t2: master emits 1..2; node1 forwards 3..5 (port busy till 3); exec 5..6
        assert_eq!(m, 6);
    }
}
