//! The spider topology of the paper's Sections 6–7 (Figure 5).

use crate::chain::Chain;
use crate::error::PlatformError;
use crate::fork::Fork;
use crate::processor::Processor;
use crate::time::Time;
use std::fmt;

/// Address of a processor inside a [`Spider`]: the (0-based) leg index and
/// the (**1-based**, paper-style) depth along that leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Which chain (leg) of the spider, `0..spider.num_legs()`.
    pub leg: usize,
    /// Position along the leg, `1..=leg_len`, 1 adjacent to the master.
    pub depth: usize,
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "leg{}:{}", self.leg, self.depth)
    }
}

/// A spider graph: a tree whose only node of arity greater than two is the
/// master (the root), i.e. a bundle of [`Chain`]s sharing the master.
///
/// The master sends at most one task at a time *in total* (one out-port
/// shared by all legs); within each leg the chain semantics of
/// [`Chain`] apply unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spider {
    legs: Vec<Chain>,
}

impl Spider {
    /// Builds a spider from its legs.
    pub fn new(legs: Vec<Chain>) -> Result<Self, PlatformError> {
        if legs.is_empty() {
            return Err(PlatformError::EmptyTopology("spider"));
        }
        Ok(Spider { legs })
    }

    /// Builds a spider from per-leg `(c, w)` pair lists.
    pub fn from_legs(legs: &[&[(Time, Time)]]) -> Result<Self, PlatformError> {
        if legs.is_empty() {
            return Err(PlatformError::EmptyTopology("spider"));
        }
        let mut chains = Vec::with_capacity(legs.len());
        for leg in legs {
            chains.push(Chain::from_pairs(leg)?);
        }
        Ok(Spider { legs: chains })
    }

    /// A spider with a single leg — semantically identical to that chain.
    pub fn from_chain(chain: Chain) -> Spider {
        Spider { legs: vec![chain] }
    }

    /// A spider whose legs all have length one — semantically identical to
    /// the given fork (star).
    pub fn from_fork(fork: &Fork) -> Spider {
        let legs = fork
            .slaves()
            .iter()
            .map(|&p| Chain::new(vec![p]).expect("single-processor chain"))
            .collect();
        Spider { legs }
    }

    /// Number of legs (the arity of the master).
    #[inline]
    pub fn num_legs(&self) -> usize {
        self.legs.len()
    }

    /// Total number of processors over all legs.
    pub fn num_processors(&self) -> usize {
        self.legs.iter().map(Chain::len).sum()
    }

    /// Leg `l` (0-based).
    #[inline]
    pub fn leg(&self, l: usize) -> &Chain {
        &self.legs[l]
    }

    /// All legs.
    #[inline]
    pub fn legs(&self) -> &[Chain] {
        &self.legs
    }

    /// The processor at `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> Processor {
        self.legs[id.leg].proc(id.depth)
    }

    /// Iterator over every node address.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.legs
            .iter()
            .enumerate()
            .flat_map(|(leg, chain)| (1..=chain.len()).map(move |depth| NodeId { leg, depth }))
    }

    /// An always-feasible makespan upper bound for `n` tasks: the best
    /// single-leg `T_infinity` (run everything on one leg's first
    /// processor).
    pub fn makespan_upper_bound(&self, n: usize) -> Time {
        assert!(n >= 1);
        self.legs.iter().map(|c| c.t_infinity(n)).min().expect("spider is non-empty")
    }

    /// The one-port makespan lower bound for `n` tasks: the master
    /// emits one task at a time over some first link, so the last
    /// emission ends no earlier than `n · min c_1`, and that task still
    /// needs the cheapest tail past its first link,
    /// `min (c_2 + .. + c_k + w_k)` over every node of every leg. Every
    /// feasible schedule of `n` tasks meets it, so a deadline search
    /// may start here.
    pub fn makespan_lower_bound(&self, n: usize) -> Time {
        assert!(n >= 1);
        let min_c1 = self.legs.iter().map(|l| l.c(1)).min().expect("spider is non-empty");
        let min_tail = self
            .legs
            .iter()
            .map(|l| {
                (1..=l.len())
                    .map(|k| l.travel_time(k) - l.c(1) + l.w(k))
                    .min()
                    .expect("leg non-empty")
            })
            .min()
            .expect("spider is non-empty");
        n as Time * min_c1 + min_tail
    }

    /// `true` iff the spider degenerates to a single chain.
    #[inline]
    pub fn is_chain(&self) -> bool {
        self.legs.len() == 1
    }

    /// `true` iff the spider degenerates to a fork (all legs length 1).
    pub fn is_fork(&self) -> bool {
        self.legs.iter().all(|c| c.len() == 1)
    }

    /// The fork obtained by keeping only the first processor of each leg,
    /// or the exact equivalent fork when [`Spider::is_fork`].
    pub fn head_fork(&self) -> Fork {
        let slaves = self.legs.iter().map(|c| c.proc(1)).collect();
        Fork::new(slaves).expect("spider has legs")
    }
}

impl fmt::Display for Spider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "spider ({} legs):", self.legs.len())?;
        for (i, leg) in self.legs.iter().enumerate() {
            writeln!(f, "  leg {i}: {leg}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Spider {
        Spider::from_legs(&[&[(2, 3), (3, 5)], &[(1, 4)], &[(2, 2), (2, 2), (2, 2)]]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let s = sample();
        assert_eq!(s.num_legs(), 3);
        assert_eq!(s.num_processors(), 6);
        assert!(!s.is_chain());
        assert!(!s.is_fork());
    }

    #[test]
    fn rejects_empty() {
        assert!(Spider::from_legs(&[]).is_err());
        let empty: &[(Time, Time)] = &[];
        assert!(Spider::from_legs(&[empty]).is_err());
    }

    #[test]
    fn node_addressing_is_one_based_in_depth() {
        let s = sample();
        let n = s.node(NodeId { leg: 0, depth: 2 });
        assert_eq!((n.comm, n.work), (3, 5));
        let n = s.node(NodeId { leg: 1, depth: 1 });
        assert_eq!((n.comm, n.work), (1, 4));
    }

    #[test]
    fn node_ids_enumerates_all() {
        let s = sample();
        let ids: Vec<NodeId> = s.node_ids().collect();
        assert_eq!(ids.len(), 6);
        assert!(ids.contains(&NodeId { leg: 2, depth: 3 }));
        assert!(!ids.contains(&NodeId { leg: 1, depth: 2 }));
    }

    #[test]
    fn degenerate_conversions() {
        let chain = Chain::paper_figure2();
        let s = Spider::from_chain(chain.clone());
        assert!(s.is_chain());
        assert_eq!(s.leg(0), &chain);

        let f = Fork::from_pairs(&[(1, 2), (3, 4)]).unwrap();
        let s = Spider::from_fork(&f);
        assert!(s.is_fork());
        assert_eq!(s.head_fork(), f);
    }

    #[test]
    fn lower_bound_mixes_the_cheapest_link_and_the_cheapest_tail() {
        let s = sample();
        // min c1 = 1 (leg 1); cheapest tail: leg 2's first node, w = 2.
        assert_eq!(s.makespan_lower_bound(1), 1 + 2);
        assert_eq!(s.makespan_lower_bound(5), 5 + 2);
        for n in 1..20 {
            assert!(s.makespan_lower_bound(n) <= s.makespan_upper_bound(n));
        }
    }

    #[test]
    fn upper_bound_picks_best_leg() {
        let s = sample();
        // leg 0: 2 + (n-1)*3 + 3 ; leg 1: 1 + (n-1)*4 + 4 ; leg 2: 2+(n-1)*2+2
        assert_eq!(s.makespan_upper_bound(1), 4); // leg 2: 2 + 2
        assert_eq!(s.makespan_upper_bound(10), 2 + 9 * 2 + 2); // leg 2
    }
}
