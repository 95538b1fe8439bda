//! The fork (star) topology of the paper's Section 6.

use crate::error::PlatformError;
use crate::processor::Processor;
use crate::time::Time;
use std::fmt;

/// A fork graph: the master directly feeds `p` slaves, slave `i` through a
/// link of latency `c_i`, computing one task in `w_i`.
///
/// This is the topology solved by Beaumont, Carter, Ferrante, Legrand and
/// Robert (IPDPS 2002) — the paper's reference \[2] — whose algorithm the
/// spider construction of Section 7 reuses. The master obeys the one-port
/// model: it sends at most one task at a time, over whichever link.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fork {
    slaves: Vec<Processor>,
}

impl Fork {
    /// Builds a fork from its slaves.
    pub fn new(slaves: Vec<Processor>) -> Result<Self, PlatformError> {
        if slaves.is_empty() {
            return Err(PlatformError::EmptyTopology("fork"));
        }
        Ok(Fork { slaves })
    }

    /// Builds a fork from `(c_i, w_i)` pairs, validating positivity.
    pub fn from_pairs(pairs: &[(Time, Time)]) -> Result<Self, PlatformError> {
        if pairs.is_empty() {
            return Err(PlatformError::EmptyTopology("fork"));
        }
        let mut slaves = Vec::with_capacity(pairs.len());
        for (idx, &(c, w)) in pairs.iter().enumerate() {
            if c <= 0 {
                return Err(PlatformError::NonPositiveTime {
                    field: "c",
                    index: idx + 1,
                    value: c,
                });
            }
            if w <= 0 {
                return Err(PlatformError::NonPositiveTime {
                    field: "w",
                    index: idx + 1,
                    value: w,
                });
            }
            slaves.push(Processor { comm: c, work: w });
        }
        Ok(Fork { slaves })
    }

    /// Number of slaves.
    #[inline]
    pub fn len(&self) -> usize {
        self.slaves.len()
    }

    /// `true` iff there are no slaves (never constructible).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slaves.is_empty()
    }

    /// Link latency `c_i` of slave `i` (**1-based**).
    #[inline]
    pub fn c(&self, i: usize) -> Time {
        self.slaves[i - 1].comm
    }

    /// Processing time `w_i` of slave `i` (**1-based**).
    #[inline]
    pub fn w(&self, i: usize) -> Time {
        self.slaves[i - 1].work
    }

    /// Slave `i` (**1-based**).
    #[inline]
    pub fn slave(&self, i: usize) -> Processor {
        self.slaves[i - 1]
    }

    /// All slaves (0-based slice).
    #[inline]
    pub fn slaves(&self) -> &[Processor] {
        &self.slaves
    }

    /// An upper bound on the makespan of `n` tasks: run everything on the
    /// slave with the best single-task round trip, back to back.
    pub fn makespan_upper_bound(&self, n: usize) -> Time {
        assert!(n >= 1);
        self.slaves
            .iter()
            .map(|p| p.comm + (n as Time - 1) * p.period() + p.work)
            .min()
            .expect("fork is non-empty")
    }

    /// The one-port makespan lower bound for `n` tasks,
    /// `n · min c + min w`: the master emits one task at a time, so the
    /// last emission ends no earlier than `n · min c`, and that task
    /// still needs at least `min w` to compute.
    pub fn makespan_lower_bound(&self, n: usize) -> Time {
        assert!(n >= 1);
        let min_c = self.slaves.iter().map(|p| p.comm).min().expect("fork is non-empty");
        let min_w = self.slaves.iter().map(|p| p.work).min().expect("fork is non-empty");
        n as Time * min_c + min_w
    }
}

impl fmt::Display for Fork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fork[")?;
        for (i, p) in self.slaves.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_validates() {
        assert!(Fork::from_pairs(&[]).is_err());
        assert!(Fork::from_pairs(&[(1, 0)]).is_err());
        assert!(Fork::from_pairs(&[(0, 1)]).is_err());
        let f = Fork::from_pairs(&[(1, 2), (3, 4)]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.c(2), 3);
        assert_eq!(f.w(2), 4);
    }

    #[test]
    fn upper_bound_picks_best_slave() {
        let f = Fork::from_pairs(&[(1, 10), (2, 3)]).unwrap();
        // slave 1: 1 + (n-1)*10 + 10 ; slave 2: 2 + (n-1)*3 + 3
        assert_eq!(f.makespan_upper_bound(1), 5); // slave 2: 2 + 3
        assert_eq!(f.makespan_upper_bound(4), 2 + 9 + 3); // slave 2 wins
    }

    #[test]
    fn lower_bound_takes_the_cheapest_link_and_cpu_apart() {
        let f = Fork::from_pairs(&[(1, 10), (2, 3)]).unwrap();
        assert_eq!(f.makespan_lower_bound(1), 1 + 3);
        assert_eq!(f.makespan_lower_bound(4), 4 + 3);
        for n in 1..20 {
            assert!(f.makespan_lower_bound(n) <= f.makespan_upper_bound(n));
        }
    }

    #[test]
    fn display_lists_slaves() {
        let f = Fork::from_pairs(&[(1, 2), (3, 4)]).unwrap();
        assert_eq!(f.to_string(), "fork[(c=1, w=2), (c=3, w=4)]");
    }
}
