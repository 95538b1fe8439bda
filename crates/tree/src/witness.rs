//! Reconstructing checkable [`TreeSchedule`] witnesses.
//!
//! The exhaustive branch-and-bound of `mst-baselines` searches over
//! *assignment sequences* (the node each task is routed to, in
//! master-emission order) and historically reported only the optimal
//! makespan for general trees — a number the feasibility oracle could
//! not falsify. This module closes that hole: replaying a sequence
//! through the same greedy [`TreeAsap`] evaluator the search uses yields
//! the full schedule — every emission time along every route — as a
//! [`TreeSchedule`] that [`mst_schedule::check_tree`] can verify
//! independently.

use mst_baselines::asap::TreeAsap;
use mst_platform::Tree;
use mst_schedule::{TreeSchedule, TreeTask};

/// Replays an assignment sequence on `tree` and rebuilds the complete
/// [`TreeSchedule`] from the greedy earliest-feasible placements.
///
/// The replay is exactly the evaluation the branch-and-bound performs,
/// so the schedule's makespan equals the makespan the search reported
/// for this sequence — but now as a witness the oracle can check.
///
/// ```
/// use mst_platform::Tree;
/// use mst_schedule::check_tree;
/// use mst_tree::tree_schedule_from_sequence;
///
/// // master -> 1 -> {2, 3}: one interior fork.
/// let tree = Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap();
/// let schedule = tree_schedule_from_sequence(&tree, &[2, 3, 1]);
/// assert_eq!(schedule.n(), 3);
/// check_tree(&tree, &schedule).assert_feasible();
/// ```
pub fn tree_schedule_from_sequence(tree: &Tree, sequence: &[usize]) -> TreeSchedule {
    let mut state = TreeAsap::new(tree);
    let tasks = sequence
        .iter()
        .map(|&node| {
            let (emissions, start, _) = state.place(node);
            TreeTask::new(node, start, emissions, tree.node(node).work)
        })
        .collect();
    TreeSchedule::new(tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_baselines::asap_tree;
    use mst_platform::{GeneratorConfig, HeterogeneityProfile};
    use mst_schedule::check_tree;

    #[test]
    fn replayed_sequences_are_feasible_and_match_the_asap_makespan() {
        for seed in 0..30u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let tree = g.tree(2 + (seed % 5) as usize);
            // A deterministic but varied sequence over the node ids.
            let n = 1 + (seed % 6) as usize;
            let sequence: Vec<usize> =
                (0..n).map(|i| 1 + ((seed as usize + i * 7) % tree.len())).collect();
            let schedule = tree_schedule_from_sequence(&tree, &sequence);
            assert_eq!(schedule.n(), n);
            let report = check_tree(&tree, &schedule);
            report.assert_feasible();
            assert_eq!(schedule.makespan(), asap_tree(&tree, &sequence), "seed {seed}");
            assert_eq!(report.makespan, schedule.makespan());
        }
    }

    #[test]
    fn single_node_sequence_pipelines_on_the_master_port() {
        // master -> {1, 2}: consecutive tasks to different children
        // serialise on the master's out-port and stay feasible.
        let tree = Tree::from_triples(&[(0, 3, 1), (0, 2, 1)]).unwrap();
        let schedule = tree_schedule_from_sequence(&tree, &[1, 2, 1]);
        check_tree(&tree, &schedule).assert_feasible();
        assert_eq!(schedule.task(1).comms.first(), 0);
        assert_eq!(schedule.task(2).comms.first(), 3, "port busy until 3");
    }

    #[test]
    fn empty_sequence_is_the_empty_schedule() {
        let tree = Tree::from_triples(&[(0, 1, 1)]).unwrap();
        let schedule = tree_schedule_from_sequence(&tree, &[]);
        assert!(schedule.is_empty());
        check_tree(&tree, &schedule).assert_feasible();
    }
}
