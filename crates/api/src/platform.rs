//! The unified [`Platform`] type: one value over every topology, with
//! uniform construction, validation and accessors. Its line-oriented
//! text form, [`Platform::parse`] and [`Platform::to_text`], is
//! documented in [`crate::format`].

use mst_platform::{Chain, Fork, PlatformError, Processor, Spider, Time, Tree};
use std::fmt;

/// The topology family of a [`Platform`], used for solver capability
/// checks and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TopologyKind {
    /// A line of processors fed by the master (the paper's Figure 1).
    Chain,
    /// A star: every slave a direct child of the master (Section 6).
    Fork,
    /// Chains glued at the master (Sections 6–7, Figure 5).
    Spider,
    /// A general out-tree (the paper's stated future work).
    Tree,
}

impl TopologyKind {
    /// Every topology family, in paper order.
    pub const ALL: [TopologyKind; 4] =
        [TopologyKind::Chain, TopologyKind::Fork, TopologyKind::Spider, TopologyKind::Tree];

    /// A short stable name (`chain`, `fork`, `spider`, `tree`).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Chain => "chain",
            TopologyKind::Fork => "fork",
            TopologyKind::Spider => "spider",
            TopologyKind::Tree => "tree",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A platform of any supported topology, with uniform accessors.
///
/// Every topology-specific type ([`Chain`], [`Fork`], [`Spider`],
/// [`Tree`]) converts in with [`From`]; the original value stays
/// reachable through [`Platform::as_chain`] and friends, so nothing is
/// lost by going through the unified type.
#[derive(Debug, Clone, PartialEq)]
pub enum Platform {
    /// A chain of processors.
    Chain(Chain),
    /// A fork (star) of slaves.
    Fork(Fork),
    /// A spider: chains sharing the master.
    Spider(Spider),
    /// A general out-tree.
    Tree(Tree),
}

impl Platform {
    /// Builds a chain platform from `(c, w)` pairs, validating
    /// positivity — the uniform-construction entry point.
    pub fn chain(pairs: &[(Time, Time)]) -> Result<Platform, PlatformError> {
        Ok(Platform::Chain(Chain::from_pairs(pairs)?))
    }

    /// Builds a fork platform from `(c, w)` pairs.
    pub fn fork(pairs: &[(Time, Time)]) -> Result<Platform, PlatformError> {
        Ok(Platform::Fork(Fork::from_pairs(pairs)?))
    }

    /// Builds a spider platform from per-leg `(c, w)` pair lists.
    pub fn spider(legs: &[&[(Time, Time)]]) -> Result<Platform, PlatformError> {
        Ok(Platform::Spider(Spider::from_legs(legs)?))
    }

    /// Builds a tree platform from `(parent, c, w)` triples.
    pub fn tree(triples: &[(usize, Time, Time)]) -> Result<Platform, PlatformError> {
        Ok(Platform::Tree(Tree::from_triples(triples)?))
    }

    /// The topology family.
    pub fn kind(&self) -> TopologyKind {
        match self {
            Platform::Chain(_) => TopologyKind::Chain,
            Platform::Fork(_) => TopologyKind::Fork,
            Platform::Spider(_) => TopologyKind::Spider,
            Platform::Tree(_) => TopologyKind::Tree,
        }
    }

    /// Number of processors (the master excluded), uniformly across
    /// topologies.
    pub fn num_processors(&self) -> usize {
        match self {
            Platform::Chain(c) => c.len(),
            Platform::Fork(f) => f.len(),
            Platform::Spider(s) => s.num_processors(),
            Platform::Tree(t) => t.len(),
        }
    }

    /// Number of links. Every processor is entered by exactly one link in
    /// all four topologies, so this equals [`Platform::num_processors`];
    /// kept separate for call-site clarity.
    pub fn num_links(&self) -> usize {
        self.num_processors()
    }

    /// All processors as flat `(c, w)` records, in a stable order
    /// (chain/leg order for chains, forks and spiders; node-id order for
    /// trees).
    pub fn processors(&self) -> Vec<Processor> {
        match self {
            Platform::Chain(c) => c.processors().to_vec(),
            Platform::Fork(f) => f.slaves().to_vec(),
            Platform::Spider(s) => {
                s.legs().iter().flat_map(|leg| leg.processors().iter().copied()).collect()
            }
            Platform::Tree(t) => {
                t.nodes().iter().map(|n| Processor { comm: n.comm, work: n.work }).collect()
            }
        }
    }

    /// An always-achievable makespan upper bound for `n` tasks (run
    /// everything on the single best directly-reachable pipeline).
    pub fn makespan_upper_bound(&self, n: usize) -> Time {
        match self {
            Platform::Chain(c) => c.t_infinity(n),
            Platform::Fork(f) => f.makespan_upper_bound(n),
            Platform::Spider(s) => s.makespan_upper_bound(n),
            Platform::Tree(t) => {
                // Route everything through the best master-child pipeline.
                let children: Vec<usize> = t.children().first().cloned().unwrap_or_default();
                children
                    .iter()
                    .map(|&id| t.path_chain(id).t_infinity(n))
                    .min()
                    .expect("a tree has at least one master child")
            }
        }
    }

    /// The platform as an out-tree (chains, forks and spiders embed
    /// losslessly; trees are returned as-is).
    pub fn to_tree(&self) -> Tree {
        match self {
            Platform::Chain(c) => Tree::from_chain(c),
            Platform::Fork(f) => Tree::from_spider(&Spider::from_fork(f)),
            Platform::Spider(s) => Tree::from_spider(s),
            Platform::Tree(t) => t.clone(),
        }
    }

    /// The platform as a spider, when it is one (chains and forks always
    /// are; trees only if no interior node branches).
    pub fn to_spider(&self) -> Option<Spider> {
        match self {
            Platform::Chain(c) => Some(Spider::from_chain(c.clone())),
            Platform::Fork(f) => Some(Spider::from_fork(f)),
            Platform::Spider(s) => Some(s.clone()),
            Platform::Tree(t) => t.to_spider(),
        }
    }

    /// The underlying chain, if this is a chain platform.
    pub fn as_chain(&self) -> Option<&Chain> {
        match self {
            Platform::Chain(c) => Some(c),
            _ => None,
        }
    }

    /// The underlying fork, if this is a fork platform.
    pub fn as_fork(&self) -> Option<&Fork> {
        match self {
            Platform::Fork(f) => Some(f),
            _ => None,
        }
    }

    /// The underlying spider, if this is a spider platform.
    pub fn as_spider(&self) -> Option<&Spider> {
        match self {
            Platform::Spider(s) => Some(s),
            _ => None,
        }
    }

    /// The underlying tree, if this is a tree platform.
    pub fn as_tree(&self) -> Option<&Tree> {
        match self {
            Platform::Tree(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Platform::Chain(c) => c.fmt(f),
            Platform::Fork(x) => x.fmt(f),
            Platform::Spider(s) => s.fmt(f),
            Platform::Tree(t) => t.fmt(f),
        }
    }
}

impl From<Chain> for Platform {
    fn from(c: Chain) -> Platform {
        Platform::Chain(c)
    }
}

impl From<Fork> for Platform {
    fn from(f: Fork) -> Platform {
        Platform::Fork(f)
    }
}

impl From<Spider> for Platform {
    fn from(s: Spider) -> Platform {
        Platform::Spider(s)
    }
}

impl From<Tree> for Platform {
    fn from(t: Tree) -> Platform {
        Platform::Tree(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Platform> {
        vec![
            Platform::chain(&[(2, 3), (3, 5)]).unwrap(),
            Platform::fork(&[(1, 2), (3, 4), (2, 2)]).unwrap(),
            Platform::spider(&[&[(2, 3), (3, 5)], &[(1, 4)]]).unwrap(),
            Platform::tree(&[(0, 1, 2), (1, 2, 3), (1, 3, 4), (0, 4, 5)]).unwrap(),
        ]
    }

    #[test]
    fn kinds_and_counts_are_uniform() {
        let expected = [
            (TopologyKind::Chain, 2),
            (TopologyKind::Fork, 3),
            (TopologyKind::Spider, 3),
            (TopologyKind::Tree, 4),
        ];
        for (platform, (kind, procs)) in samples().iter().zip(expected) {
            assert_eq!(platform.kind(), kind);
            assert_eq!(platform.num_processors(), procs);
            assert_eq!(platform.num_links(), procs);
            assert_eq!(platform.processors().len(), procs);
        }
    }

    #[test]
    fn text_round_trips_for_every_topology() {
        for platform in samples() {
            let text = platform.to_text();
            assert_eq!(Platform::parse(&text).unwrap(), platform, "{text}");
        }
    }

    #[test]
    fn construction_validates_uniformly() {
        assert!(Platform::chain(&[]).is_err());
        assert!(Platform::chain(&[(0, 1)]).is_err());
        assert!(Platform::fork(&[(1, 0)]).is_err());
        assert!(Platform::spider(&[]).is_err());
        assert!(Platform::tree(&[(1, 1, 1)]).is_err());
    }

    #[test]
    fn tree_embedding_round_trips_spiders() {
        let spider = Spider::from_legs(&[&[(2, 3)], &[(1, 4), (2, 2)]]).unwrap();
        let platform = Platform::from(spider.clone());
        assert_eq!(platform.to_tree().to_spider().unwrap(), spider);
        assert_eq!(platform.to_spider().unwrap(), spider);
    }

    #[test]
    fn upper_bounds_match_native_types() {
        let chain = Chain::paper_figure2();
        let p = Platform::from(chain.clone());
        assert_eq!(p.makespan_upper_bound(5), chain.t_infinity(5));
        let tree = Tree::from_chain(&chain);
        let p = Platform::from(tree);
        assert_eq!(p.makespan_upper_bound(5), chain.t_infinity(5));
    }

    #[test]
    fn accessors_expose_native_types() {
        let p = samples();
        assert!(p[0].as_chain().is_some());
        assert!(p[0].as_fork().is_none());
        assert!(p[1].as_fork().is_some());
        assert!(p[2].as_spider().is_some());
        assert!(p[3].as_tree().is_some());
    }
}
