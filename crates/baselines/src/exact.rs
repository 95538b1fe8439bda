//! Exhaustive branch-and-bound search for the true optimum.
//!
//! For identical tasks under the one-port model, the optimum equals the
//! minimum ASAP makespan over all assignment sequences (see
//! [`crate::asap`] for the normalisation argument), so exhaustive search
//! over the `p^n` sequences — with branch-and-bound pruning — is exact.
//! Cost grows exponentially in `n`; these functions are meant for the
//! small instances of the optimality-validation experiments
//! (`n <= 8`, `p <= 5` stays well under a second).

use crate::asap::TreeAsap;
use mst_platform::{Chain, Spider, Time, Tree};

/// Minimum makespan of `n` tasks on an arbitrary out-tree platform, by
/// exhaustive search over assignment sequences.
pub fn optimal_tree_makespan(tree: &Tree, n: usize) -> Time {
    optimal_tree_sequence(tree, n).0
}

/// Minimum makespan of `n` tasks on an arbitrary out-tree platform, with
/// a witness: the first assignment sequence, in search order, that
/// reaches it.
///
/// The search is depth first and tries nodes in id order. Its incumbent
/// starts as every task on the single best node (the lowest id among
/// ties), and a complete sequence replaces it only when strictly better.
pub fn optimal_tree_sequence(tree: &Tree, n: usize) -> (Time, Vec<usize>) {
    assert!(n >= 1, "need at least one task");
    let (makespan, node) = (1..=tree.len())
        .map(|v| {
            let mut state = TreeAsap::new(tree);
            for _ in 0..n {
                state.place(v);
            }
            (state.makespan(), v)
        })
        .min_by_key(|&(makespan, _)| makespan)
        .expect("tree is non-empty");
    let mut best = Incumbent { makespan, sequence: vec![node; n] };
    let mut prefix = Vec::with_capacity(n);
    search(tree, n, &mut TreeAsap::new(tree), &mut prefix, &mut best);
    (best.makespan, best.sequence)
}

/// The best complete assignment sequence found so far.
struct Incumbent {
    makespan: Time,
    sequence: Vec<usize>,
}

fn search(
    tree: &Tree,
    remaining: usize,
    state: &mut TreeAsap<'_>,
    prefix: &mut Vec<usize>,
    best: &mut Incumbent,
) {
    if remaining == 0 {
        if state.makespan() < best.makespan {
            best.makespan = state.makespan();
            best.sequence.clone_from(prefix);
        }
        return;
    }
    if state.makespan() >= best.makespan {
        return; // even with zero additional cost we cannot improve
    }
    for v in 1..=tree.len() {
        // Clone-and-descend: instance sizes are tiny, clarity wins over
        // an undo log.
        let mut child = state.clone();
        let (_, _, completion) = child.place(v);
        if completion >= best.makespan {
            continue;
        }
        prefix.push(v);
        search(tree, remaining - 1, &mut child, prefix, best);
        prefix.pop();
    }
}

/// Minimum makespan of `n` tasks on a chain (exhaustive). Ground truth
/// for Theorem 1.
///
/// ```
/// use mst_platform::Chain;
/// use mst_baselines::optimal_chain_makespan;
/// assert_eq!(optimal_chain_makespan(&Chain::paper_figure2(), 5), 14);
/// ```
pub fn optimal_chain_makespan(chain: &Chain, n: usize) -> Time {
    optimal_tree_makespan(&Tree::from_chain(chain), n)
}

/// Minimum makespan of `n` tasks on a spider (exhaustive). Ground truth
/// for the binary-searched spider makespan.
pub fn optimal_spider_makespan(spider: &Spider, n: usize) -> Time {
    optimal_tree_makespan(&Tree::from_spider(spider), n)
}

/// Maximum number of tasks (at most `cap`) that can all complete by
/// `deadline` on the tree, by exhaustive search. Ground truth for
/// Theorem 3 (the spider algorithm maximises tasks within `T_lim`).
pub fn max_tasks_by_deadline(tree: &Tree, deadline: Time, cap: usize) -> usize {
    let mut best = 0;
    let mut state = TreeAsap::new(tree);
    search_count(tree, deadline, cap, &mut state, 0, &mut best);
    best
}

fn search_count(
    tree: &Tree,
    deadline: Time,
    cap: usize,
    state: &mut TreeAsap<'_>,
    placed: usize,
    best: &mut usize,
) {
    *best = (*best).max(placed);
    if placed == cap {
        return;
    }
    for v in 1..=tree.len() {
        let mut child = state.clone();
        let (_, _, completion) = child.place(v);
        if completion > deadline {
            continue;
        }
        search_count(tree, deadline, cap, &mut child, placed + 1, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_core::{schedule_chain, schedule_chain_by_deadline};
    use mst_platform::{GeneratorConfig, HeterogeneityProfile};

    #[test]
    fn figure2_optimum_is_14() {
        assert_eq!(optimal_chain_makespan(&Chain::paper_figure2(), 5), 14);
    }

    #[test]
    fn theorem1_chain_algorithm_matches_exhaustive_optimum() {
        // The central validation of the reproduction: on hundreds of
        // randomized small instances, the backward greedy equals the true
        // optimum exactly.
        for seed in 0..60u64 {
            let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
            let g = GeneratorConfig::new(profile, seed);
            let p = 1 + (seed % 4) as usize;
            let n = 1 + (seed % 6) as usize;
            let chain = g.chain(p);
            let algo = schedule_chain(&chain, n).makespan();
            let exact = optimal_chain_makespan(&chain, n);
            assert_eq!(algo, exact, "Theorem 1 violated: seed {seed}, p {p}, n {n}, {chain}");
        }
    }

    #[test]
    fn theorem1_holds_on_adversarial_shapes() {
        // Extreme heterogeneity shapes that stress the candidate order.
        let shapes: Vec<Chain> = vec![
            Chain::from_pairs(&[(1, 9), (1, 9), (1, 1)]).unwrap(),
            Chain::from_pairs(&[(9, 1), (1, 1)]).unwrap(),
            Chain::from_pairs(&[(1, 1), (9, 9)]).unwrap(),
            Chain::from_pairs(&[(2, 2), (2, 2), (2, 2)]).unwrap(),
            Chain::from_pairs(&[(5, 1), (1, 5), (5, 1)]).unwrap(),
            Chain::from_pairs(&[(1, 10)]).unwrap(),
        ];
        for chain in &shapes {
            for n in 1..=6 {
                assert_eq!(
                    schedule_chain(chain, n).makespan(),
                    optimal_chain_makespan(chain, n),
                    "chain {chain}, n {n}"
                );
            }
        }
    }

    #[test]
    fn deadline_variant_matches_exhaustive_count() {
        // The T_lim variant maximises the task count by the deadline.
        for seed in 0..25u64 {
            let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
            let g = GeneratorConfig::new(profile, seed);
            let p = 1 + (seed % 3) as usize;
            let chain = g.chain(p);
            let tree = Tree::from_chain(&chain);
            for deadline in [4, 9, 16, 25] {
                let algo = schedule_chain_by_deadline(&chain, 6, deadline).n();
                let exact = max_tasks_by_deadline(&tree, deadline, 6);
                assert_eq!(algo, exact, "seed {seed}, deadline {deadline}, {chain}");
            }
        }
    }

    #[test]
    fn spider_exact_agrees_with_chain_exact_on_single_leg() {
        let chain = Chain::paper_figure2();
        let spider = Spider::from_chain(chain.clone());
        for n in 1..=5 {
            assert_eq!(optimal_spider_makespan(&spider, n), optimal_chain_makespan(&chain, n));
        }
    }

    #[test]
    fn max_tasks_is_monotone_in_deadline() {
        let tree = Tree::from_triples(&[(0, 2, 3), (0, 3, 2), (1, 1, 2)]).unwrap();
        let mut prev = 0;
        for deadline in 0..30 {
            let k = max_tasks_by_deadline(&tree, deadline, 8);
            assert!(k >= prev);
            prev = k;
        }
        assert!(prev >= 4, "a 30-tick deadline fits several tasks");
    }

    #[test]
    fn zero_deadline_fits_nothing() {
        let tree = Tree::from_chain(&Chain::paper_figure2());
        assert_eq!(max_tasks_by_deadline(&tree, 0, 5), 0);
        assert_eq!(max_tasks_by_deadline(&tree, 4, 5), 0); // c1+w1 = 5
        assert_eq!(max_tasks_by_deadline(&tree, 5, 5), 1);
    }
}
