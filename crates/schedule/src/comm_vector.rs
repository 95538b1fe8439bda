//! Communication vectors and the Definition-3 total order.

use mst_platform::Time;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The communication vector `C(i)` of a task (Definition 1): element `j`
/// (1-based) is the emission time `C^i_j` of the communication carrying
/// the task from processor `j - 1` (the master for `j = 1`) to processor
/// `j`. Its length equals the index `P(i)` of the processor executing the
/// task.
///
/// # The Definition-3 order
///
/// `A ≺ B` ("A is inferior to B") iff either
///
/// * the first differing coordinate `l` has `a_l < b_l`, or
/// * `A` is strictly longer than `B` and `B` is a prefix of `A`.
///
/// The second clause makes a *shorter* vector (execution closer to the
/// master) superior when emissions tie — the backward-greedy algorithm
/// always picks the *greatest* candidate vector, i.e. the one emitting as
/// late as possible and, on ties, travelling the least.
///
/// # Representation
///
/// Link costs add up along a route, so optimal schedules keep most tasks
/// within one or two links of the master. A vector of up to two emission
/// times is therefore stored in place, a longer one in a boxed slice: the
/// type stays the size of a `Vec<Time>`, and most tasks own no heap
/// block. Each length has exactly one representation, and `==`, `Hash`,
/// the order, `Debug` and `Display` read the emission times alone, so
/// they agree with a `Vec<Time>`-backed vector.
#[derive(Clone)]
pub struct CommVector(Repr);

/// The number of emission times a [`CommVector`] holds without a heap
/// block. Two slots keep the type at 24 bytes; a third would grow it to
/// 32.
const INLINE: usize = 2;

/// `Inline` iff the length is at most [`INLINE`]; the slots past `len`
/// are unused.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, times: [Time; INLINE] },
    Heap(Box<[Time]>),
}

impl CommVector {
    /// Builds a vector from emission times ordered link 1 outwards.
    pub fn new(times: Vec<Time>) -> Self {
        if times.len() <= INLINE {
            CommVector::from_slice(&times)
        } else {
            CommVector(Repr::Heap(times.into_boxed_slice()))
        }
    }

    /// Builds a vector from a slice of emission times ordered link 1
    /// outwards, copying it in place when it fits.
    pub fn from_slice(times: &[Time]) -> Self {
        CommVector::from_fill(times.len(), |slots| slots.copy_from_slice(times))
    }

    /// Builds a vector of `len` emission times, zeroed and then filled in
    /// place by `fill` (link 1 at index 0): the builder for vectors
    /// computed link by link, with no intermediate `Vec`.
    pub fn from_fill(len: usize, fill: impl FnOnce(&mut [Time])) -> Self {
        let mut v = if len <= INLINE {
            CommVector(Repr::Inline { len: len as u8, times: [0; INLINE] })
        } else {
            CommVector(Repr::Heap(vec![0; len].into_boxed_slice()))
        };
        fill(v.times_mut());
        v
    }

    /// The empty vector (a task that never leaves the master — only used
    /// as a sentinel; every real task crosses at least link 1).
    pub fn empty() -> Self {
        CommVector::from_slice(&[])
    }

    /// Number of links crossed, i.e. the processor index `P(i)`.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => usize::from(*len),
            Repr::Heap(times) => times.len(),
        }
    }

    /// `true` iff the vector is the sentinel empty vector.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Emission time `C^i_j` on link `j` (**1-based**).
    #[inline]
    pub fn get(&self, j: usize) -> Time {
        self.times()[j - 1]
    }

    /// Emission on the first link (the master's out-port usage start).
    ///
    /// Panics on the empty sentinel.
    #[inline]
    pub fn first(&self) -> Time {
        self.times()[0]
    }

    /// Emission on the last link (the one entering `P(i)`).
    #[inline]
    pub fn last(&self) -> Time {
        *self.times().last().expect("communication vector is non-empty")
    }

    /// All emission times, link 1 outwards.
    #[inline]
    pub fn times(&self) -> &[Time] {
        match &self.0 {
            Repr::Inline { len, times } => &times[..usize::from(*len)],
            Repr::Heap(times) => times,
        }
    }

    #[inline]
    fn times_mut(&mut self) -> &mut [Time] {
        match &mut self.0 {
            Repr::Inline { len, times } => &mut times[..usize::from(*len)],
            Repr::Heap(times) => times,
        }
    }

    /// The vector with every emission shifted by `delta`.
    pub fn shifted(&self, delta: Time) -> CommVector {
        let mut v = self.clone();
        v.shift(delta);
        v
    }

    /// In-place variant of [`CommVector::shifted`].
    pub fn shift(&mut self, delta: Time) {
        for t in self.times_mut() {
            *t += delta;
        }
    }

    /// The suffix starting at link `from` (**1-based**): the vector of the
    /// same task on the sub-chain dropping processors `< from`, as used by
    /// Lemma 2.
    pub fn suffix(&self, from: usize) -> CommVector {
        CommVector::from_slice(&self.times()[from - 1..])
    }

    /// Definition-3 comparison. Returns [`Ordering::Equal`] only for
    /// identical vectors.
    pub fn def3_cmp(&self, other: &CommVector) -> Ordering {
        let (a, b) = (self.times(), other.times());
        for (a, b) in a.iter().zip(b) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                diff => return diff,
            }
        }
        // Common prefix identical: the longer vector is inferior.
        b.len().cmp(&a.len())
    }

    /// `true` iff `self ≺ other` in the Definition-3 order.
    #[inline]
    pub fn precedes(&self, other: &CommVector) -> bool {
        self.def3_cmp(other) == Ordering::Less
    }
}

impl Default for CommVector {
    fn default() -> Self {
        CommVector::empty()
    }
}

impl PartialEq for CommVector {
    fn eq(&self, other: &Self) -> bool {
        self.times() == other.times()
    }
}

impl Eq for CommVector {}

impl Hash for CommVector {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.times().hash(state);
    }
}

impl PartialOrd for CommVector {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CommVector {
    fn cmp(&self, other: &Self) -> Ordering {
        self.def3_cmp(other)
    }
}

impl fmt::Debug for CommVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CommVector").field(&self.times()).finish()
    }
}

impl fmt::Display for CommVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.times().iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl From<Vec<Time>> for CommVector {
    fn from(v: Vec<Time>) -> Self {
        CommVector::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(times: &[Time]) -> CommVector {
        CommVector::new(times.to_vec())
    }

    #[test]
    fn first_difference_decides() {
        assert!(cv(&[1, 5]).precedes(&cv(&[2, 0])));
        assert!(cv(&[2, 0]) > cv(&[1, 5]));
        assert!(cv(&[3, 4, 1]).precedes(&cv(&[3, 5])));
    }

    #[test]
    fn prefix_rule_prefers_shorter() {
        // A = {4, 7, 9} is an extension of B = {4, 7}: A ≺ B.
        assert!(cv(&[4, 7, 9]).precedes(&cv(&[4, 7])));
        assert!(cv(&[4, 7]) > cv(&[4, 7, 9]));
        // ... regardless of the extension's values.
        assert!(cv(&[4, 7, -100]).precedes(&cv(&[4, 7])));
    }

    #[test]
    fn equality_only_for_identical() {
        assert_eq!(cv(&[1, 2]).def3_cmp(&cv(&[1, 2])), Ordering::Equal);
        assert_ne!(cv(&[1, 2]).def3_cmp(&cv(&[1, 2, 3])), Ordering::Equal);
    }

    #[test]
    fn empty_sentinel_is_superior_to_everything_nonpositive() {
        // The algorithm initialises C(i) to a sentinel and replaces it when
        // a candidate is strictly greater. The empty vector is a prefix of
        // every vector, so every non-empty vector precedes it.
        assert!(cv(&[100]).precedes(&CommVector::empty()));
        assert!(!CommVector::empty().precedes(&cv(&[100])));
    }

    #[test]
    fn order_is_total_and_consistent() {
        let vs = [cv(&[0]), cv(&[0, 5]), cv(&[1]), cv(&[1, 0]), cv(&[1, 2]), cv(&[1, 2, 3])];
        // antisymmetry + transitivity smoke check via sort stability
        let mut sorted = vs.to_vec();
        sorted.sort();
        // {0,5} ≺ {0} (prefix rule), {1,2,3} ≺ {1,2} ≺ {1,0}? no: {1,0} vs
        // {1,2}: first diff 0 < 2 so {1,0} ≺ {1,2}.
        let expect = [cv(&[0, 5]), cv(&[0]), cv(&[1, 0]), cv(&[1, 2, 3]), cv(&[1, 2]), cv(&[1])];
        assert_eq!(sorted, expect);
    }

    #[test]
    fn accessors_are_one_based() {
        let v = cv(&[10, 20, 30]);
        assert_eq!(v.get(1), 10);
        assert_eq!(v.get(3), 30);
        assert_eq!(v.first(), 10);
        assert_eq!(v.last(), 30);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn shift_and_suffix() {
        let v = cv(&[10, 20, 30]);
        assert_eq!(v.shifted(-10), cv(&[0, 10, 20]));
        assert_eq!(v.suffix(2), cv(&[20, 30]));
        assert_eq!(v.suffix(1), v);
        let mut w = v.clone();
        w.shift(5);
        assert_eq!(w, cv(&[15, 25, 35]));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(cv(&[1, 2, 3]).to_string(), "{1; 2; 3}");
    }

    /// The `Vec`-backed vector the inline representation replaced, kept
    /// as the reference it is checked against.
    mod reference {
        use mst_platform::Time;
        use std::cmp::Ordering;
        use std::fmt;

        #[derive(Debug, Clone, PartialEq, Eq, Hash)]
        pub(super) struct CommVector(pub(super) Vec<Time>);

        impl CommVector {
            pub(super) fn shifted(&self, delta: Time) -> CommVector {
                CommVector(self.0.iter().map(|t| t + delta).collect())
            }

            pub(super) fn shift(&mut self, delta: Time) {
                for t in &mut self.0 {
                    *t += delta;
                }
            }

            pub(super) fn suffix(&self, from: usize) -> CommVector {
                CommVector(self.0[from - 1..].to_vec())
            }

            pub(super) fn def3_cmp(&self, other: &CommVector) -> Ordering {
                for (a, b) in self.0.iter().zip(other.0.iter()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        diff => return diff,
                    }
                }
                other.0.len().cmp(&self.0.len())
            }
        }

        impl fmt::Display for CommVector {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                for (i, t) in self.0.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
        }
    }

    /// Emission-time lists of length 0–6, on both sides of the inline
    /// capacity, mixing small, negative and beyond-2^53 values.
    fn random_times(count: usize) -> Vec<Vec<Time>> {
        let mut state = 0x2003_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..count)
            .map(|_| {
                let len = (next() % 7) as usize;
                (0..len)
                    .map(|_| {
                        let small = (next() % 41) as Time - 20;
                        match next() % 4 {
                            0 | 1 => small,
                            2 => (1 << 53) + small,
                            _ => (next() >> 2) as Time * if next() % 2 == 0 { 1 } else { -1 },
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_builder_agrees_with_the_vec_backed_reference() {
        for times in random_times(400) {
            let old = reference::CommVector(times.clone());
            let built = [
                CommVector::new(times.clone()),
                CommVector::from(times.clone()),
                CommVector::from_slice(&times),
                CommVector::from_fill(times.len(), |slots| slots.copy_from_slice(&times)),
            ];
            for new in &built {
                assert_eq!(new.times(), &old.0[..]);
                assert_eq!((new.len(), new.is_empty()), (old.0.len(), old.0.is_empty()));
                assert_eq!(hash_of(new), hash_of(&old), "{times:?}");
                assert_eq!(format!("{new:?}"), format!("{old:?}"));
                assert_eq!(format!("{new:#?}"), format!("{old:#?}"));
                assert_eq!(new.to_string(), old.to_string());
                assert_eq!(*new, built[0]);
                if let (Some(&first), Some(&last)) = (old.0.first(), old.0.last()) {
                    assert_eq!(
                        (new.first(), new.last(), new.get(old.0.len())),
                        (first, last, last)
                    );
                }
                for delta in [-7, 0, 1 << 40] {
                    assert_eq!(new.shifted(delta).times(), &old.shifted(delta).0[..]);
                    let (mut a, mut b) = (new.clone(), old.clone());
                    a.shift(delta);
                    b.shift(delta);
                    assert_eq!(a.times(), &b.0[..]);
                    assert_eq!(hash_of(&a), hash_of(&b));
                }
                for from in 1..=old.0.len() {
                    let (a, b) = (new.suffix(from), old.suffix(from));
                    assert_eq!((a.times(), hash_of(&a)), (&b.0[..], hash_of(&b)));
                }
            }
        }
        assert_eq!(CommVector::default(), CommVector::empty());
        assert_eq!(hash_of(&CommVector::default()), hash_of(&reference::CommVector(Vec::new())));
    }

    #[test]
    fn comparisons_agree_with_the_vec_backed_reference() {
        let lists = random_times(120);
        for a in &lists {
            for b in lists.iter().chain([a]) {
                let (new_a, new_b) = (CommVector::from_slice(a), CommVector::new(b.clone()));
                let (old_a, old_b) =
                    (reference::CommVector(a.clone()), reference::CommVector(b.clone()));
                assert_eq!(new_a == new_b, old_a == old_b, "{a:?} {b:?}");
                assert_eq!(new_a.def3_cmp(&new_b), old_a.def3_cmp(&old_b), "{a:?} {b:?}");
                assert_eq!(new_a.cmp(&new_b), old_a.def3_cmp(&old_b));
                assert_eq!(new_a.partial_cmp(&new_b), Some(old_a.def3_cmp(&old_b)));
                assert_eq!(new_a.precedes(&new_b), old_a.def3_cmp(&old_b) == Ordering::Less);
            }
        }
    }

    #[test]
    fn a_vector_is_the_size_of_a_vec_and_a_task_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<CommVector>(), std::mem::size_of::<Vec<Time>>());
        assert_eq!(std::mem::size_of::<crate::TaskAssignment>(), 48);
    }
}
