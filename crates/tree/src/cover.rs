//! Extracting spider covers from general trees.

use mst_platform::{Chain, Processor, Spider, Tree};

/// How to pick the one path kept per master child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStrategy {
    /// The path whose chain has the highest steady-state task rate —
    /// best for long batches.
    BestRate,
    /// The path minimising the single-task completion
    /// `min_k (c_1 + .. + c_k + w_k)` over its own nodes — best for tiny
    /// batches.
    BestSingleTask,
    /// The longest path (most processors kept).
    Deepest,
    /// The shortest path (cheapest masters-side links only).
    Shallowest,
}

impl PathStrategy {
    /// All strategies, for sweep experiments.
    pub const ALL: [PathStrategy; 4] = [
        PathStrategy::BestRate,
        PathStrategy::BestSingleTask,
        PathStrategy::Deepest,
        PathStrategy::Shallowest,
    ];

    /// Short stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PathStrategy::BestRate => "best-rate",
            PathStrategy::BestSingleTask => "best-single-task",
            PathStrategy::Deepest => "deepest",
            PathStrategy::Shallowest => "shallowest",
        }
    }
}

/// A spider sub-platform of a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpiderCover {
    /// The covered sub-platform.
    pub spider: Spider,
    /// `node_map[leg][depth - 1]` = tree node id of the spider node
    /// `(leg, depth)`.
    pub node_map: Vec<Vec<usize>>,
}

impl SpiderCover {
    /// Number of tree processors the cover keeps.
    pub fn covered_nodes(&self) -> usize {
        self.node_map.iter().map(Vec::len).sum()
    }
}

/// Enumerates the root-to-leaf paths inside the subtree hanging off
/// `head` (a child of the master); every path starts at `head`.
fn paths_from(tree: &Tree, head: usize) -> Vec<Vec<usize>> {
    let children = tree.children();
    let mut out = Vec::new();
    let mut stack = vec![vec![head]];
    while let Some(path) = stack.pop() {
        let last = *path.last().expect("paths are non-empty");
        if children[last].is_empty() {
            out.push(path);
        } else {
            for &child in &children[last] {
                let mut next = path.clone();
                next.push(child);
                stack.push(next);
            }
        }
    }
    out
}

fn chain_of(tree: &Tree, path: &[usize]) -> Chain {
    Chain::new(
        path.iter()
            .map(|&id| {
                let n = tree.node(id);
                Processor { comm: n.comm, work: n.work }
            })
            .collect(),
    )
    .expect("paths are non-empty")
}

fn score(tree: &Tree, path: &[usize], strategy: PathStrategy) -> (i64, i64) {
    let chain = chain_of(tree, path);
    match strategy {
        PathStrategy::BestRate => {
            let (t, d) = chain.steady_state_rate();
            // higher rate first: compare t/d descending via -t*LCMish;
            // use negated cross-product against 1 tick reference.
            // Sort key: (-t * K / d) — avoid floats with a scaled ratio.
            let scaled = -((t as i64) * 1_000_000 / d as i64);
            (scaled, path.len() as i64)
        }
        PathStrategy::BestSingleTask => {
            let best = (1..=chain.len())
                .map(|k| chain.travel_time(k) + chain.w(k))
                .min()
                .expect("non-empty");
            (best, -(path.len() as i64))
        }
        PathStrategy::Deepest => (-(path.len() as i64), 0),
        PathStrategy::Shallowest => (path.len() as i64, 0),
    }
}

/// Covers `tree` with a spider using `strategy` to pick one path per
/// master child. Deterministic: ties fall back to the enumeration order.
pub fn cover_tree(tree: &Tree, strategy: PathStrategy) -> SpiderCover {
    let children = tree.children();
    let mut legs = Vec::new();
    let mut node_map = Vec::new();
    for &head in &children[0] {
        let paths = paths_from(tree, head);
        let best = paths
            .into_iter()
            .min_by_key(|p| score(tree, p, strategy))
            .expect("every head has at least the trivial path");
        legs.push(chain_of(tree, &best));
        node_map.push(best);
    }
    SpiderCover { spider: Spider::new(legs).expect("master has at least one child"), node_map }
}

/// The covers `strategies` give `tree`, in order, with each distinct
/// cover (by `node_map`) kept at its first occurrence only. Distinct
/// strategies often pick the same paths; a caller scanning the list
/// schedules each cover once.
pub fn distinct_covers(
    tree: &Tree,
    strategies: impl IntoIterator<Item = PathStrategy>,
) -> Vec<SpiderCover> {
    let mut covers: Vec<SpiderCover> = Vec::new();
    for strategy in strategies {
        let cover = cover_tree(tree, strategy);
        if covers.iter().all(|c| c.node_map != cover.node_map) {
            covers.push(cover);
        }
    }
    covers
}

/// Enumerates **every** spider cover of the tree (the Cartesian product
/// of per-head path choices). Exponential; for the small trees of the
/// covering experiments only.
pub fn all_covers(tree: &Tree) -> Vec<SpiderCover> {
    let children = tree.children();
    let per_head: Vec<Vec<Vec<usize>>> = children[0].iter().map(|&h| paths_from(tree, h)).collect();
    let mut covers = vec![Vec::new()];
    for head_paths in &per_head {
        let mut next = Vec::with_capacity(covers.len() * head_paths.len());
        for partial in &covers {
            for path in head_paths {
                let mut c = partial.clone();
                c.push(path.clone());
                next.push(c);
            }
        }
        covers = next;
    }
    covers
        .into_iter()
        .map(|node_map| SpiderCover {
            spider: Spider::new(node_map.iter().map(|p| chain_of(tree, p)).collect())
                .expect("non-empty"),
            node_map,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// master -> 1 -> {2, 3}, master -> 4 -> 5
    fn sample() -> Tree {
        Tree::from_triples(&[
            (0, 1, 2), // 1
            (1, 2, 3), // 2
            (1, 3, 1), // 3
            (0, 2, 2), // 4
            (4, 1, 1), // 5
        ])
        .unwrap()
    }

    #[test]
    fn covers_have_one_leg_per_master_child() {
        let t = sample();
        for strategy in PathStrategy::ALL {
            let cover = cover_tree(&t, strategy);
            assert_eq!(cover.spider.num_legs(), 2, "{}", strategy.name());
            // Each leg's first node is a master child.
            assert!(cover.node_map.iter().all(|p| [1, 4].contains(&p[0])));
        }
    }

    #[test]
    fn all_covers_enumerates_the_product() {
        let t = sample();
        // Head 1 has two leaf paths (via 2 or via 3); head 4 has one.
        let covers = all_covers(&t);
        assert_eq!(covers.len(), 2);
        assert!(covers.iter().all(|c| c.spider.num_legs() == 2));
    }

    #[test]
    fn spider_trees_cover_themselves() {
        let t = Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (0, 3, 1)]).unwrap();
        assert!(t.is_spider());
        let covers = all_covers(&t);
        assert_eq!(covers.len(), 1, "a spider has exactly one cover");
        assert_eq!(covers[0].spider, t.to_spider().unwrap());
        for strategy in PathStrategy::ALL {
            assert_eq!(cover_tree(&t, strategy).spider, t.to_spider().unwrap());
        }
    }

    #[test]
    fn deepest_and_shallowest_differ_where_expected() {
        let t = sample();
        let deep = cover_tree(&t, PathStrategy::Deepest);
        let shallow = cover_tree(&t, PathStrategy::Shallowest);
        // Head 1's subtree: deepest keeps a 2-node path, shallowest too
        // (both paths have length 2) — but head 4's subtree is a fixed
        // 2-node path, so compare total covered nodes on a better tree:
        let t2 = Tree::from_triples(&[(0, 1, 1), (1, 1, 1), (2, 1, 1), (1, 9, 9)]).unwrap();
        // paths from head 1: [1,2,3] and [1,4]
        let deep2 = cover_tree(&t2, PathStrategy::Deepest);
        let shallow2 = cover_tree(&t2, PathStrategy::Shallowest);
        assert_eq!(deep2.covered_nodes(), 3);
        assert_eq!(shallow2.covered_nodes(), 2);
        // (keep the first pair alive for coverage)
        assert_eq!(deep.covered_nodes(), 4);
        assert_eq!(shallow.covered_nodes(), 4);
    }

    #[test]
    fn best_rate_picks_the_fast_branch() {
        // Head 1 forks into a fast leaf (2) and a slow leaf (3). The head
        // link is generous (c_1 = 1) and the head CPU slow (w_1 = 4), so
        // the leaf's rate decides: via leaf 2 the chain sustains
        // min(1, 1/4 + min(1/2, 1/4)) = 1/2, via leaf 3 only ~0.26.
        let t = Tree::from_triples(&[(0, 1, 4), (1, 2, 4), (1, 2, 100)]).unwrap();
        let cover = cover_tree(&t, PathStrategy::BestRate);
        assert_eq!(cover.node_map, vec![vec![1, 2]]);
    }

    #[test]
    fn node_map_matches_spider_shape() {
        let t = sample();
        let cover = cover_tree(&t, PathStrategy::BestRate);
        for (leg, path) in cover.node_map.iter().enumerate() {
            assert_eq!(cover.spider.leg(leg).len(), path.len());
            for (d, &id) in path.iter().enumerate() {
                let n = t.node(id);
                let p = cover.spider.leg(leg).proc(d + 1);
                assert_eq!((p.comm, p.work), (n.comm, n.work));
            }
        }
    }
}
