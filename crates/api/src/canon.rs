//! Canonical forms of instances — the keying layer of the result cache.
//!
//! Fleet traffic is heavily repetitive: sweeps produce instances that are
//! identical up to a uniform time scale or a relabelling of
//! interchangeable legs/subtrees. [`CanonicalInstance`] normalises an
//! instance into a representative of its equivalence class — extracting
//! the greatest common divisor of every platform time (and the deadline,
//! when one is in play) and sorting legs/children by a total order — and
//! exposes a stable 128-bit content hash over the canonical form, so two
//! equivalent instances collide onto one cache entry.
//!
//! The transformation is *provably invertible on the solution side*:
//! [`CanonicalInstance::restore`] maps a solution of the canonical
//! instance back to a solution of the original (rescaling every event
//! time and permuting leg/node labels back), and the restored witness
//! still passes [`crate::verify`]. The soundness argument, per level:
//!
//! * **Scaling.** Every active (left-compressed) schedule has event times
//!   in the additive monoid generated by the platform's `c_i`/`w_i`
//!   values, all divisible by the extracted factor `g`, and compressing a
//!   feasible schedule never increases its makespan — so optimal
//!   makespans scale exactly by `g`, and the forward heuristics make the
//!   same discrete decisions because every comparison they perform is
//!   between sums of platform times, which scaling multiplies uniformly
//!   (preserving `<`, `>` *and* ties). Deadline variants fold the
//!   deadline into `g`, so the canonical deadline `d / g` bounds exactly
//!   the same task counts.
//! * **Sorting.** Only applied for solvers whose reported makespan is a
//!   function of the platform's *multiset* of legs/subtrees (the optimal
//!   and exhaustive solvers). Index-dealing heuristics (`round-robin`,
//!   `random`, tie-breaking by first index) are makespan-sensitive to
//!   label order, so they get [`CanonLevel::ScaleOnly`].
//! * **Identity.** The divisible-load relaxation rounds a floating-point
//!   fluid bound (`ceil(x·g) ≠ g·ceil(x)` in general), and unknown solver
//!   names give no invariance contract at all — both are cached verbatim.
//!
//! The level belongs to the solver a request resolves to, not to the name
//! it asks for ([`crate::Solver::canon_level`]): a heuristic that config
//! registers as `optimal` keeps its legs in order.

use crate::instance::Instance;
use crate::platform::Platform;
use crate::solution::{ScheduleRepr, Solution};
use mst_platform::{Chain, Fork, NodeId, Processor, Spider, Time, Tree, TreeNode};
use mst_schedule::{
    ChainSchedule, CommVector, SpiderSchedule, SpiderTask, TaskAssignment, TreeSchedule, TreeTask,
};
use std::fmt;

/// How aggressively an instance may be normalised for a given solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanonLevel {
    /// Extract the uniform time scale *and* sort legs/children into a
    /// canonical order (recording the permutation for witness restore).
    Full,
    /// Extract the uniform time scale but keep the original labelling —
    /// for solvers whose tie-breaks depend on processor indices.
    ScaleOnly,
    /// No transformation at all: the canonical instance is the instance
    /// (`g = 1`, empty permutation). Hashing still applies, so identical
    /// resubmissions hit the cache.
    Identity,
}

/// The canonicalisation level contracted for a built-in solver's name:
/// what [`crate::Solver::canon_level`] answers by default.
///
/// The level belongs to the algorithm a request resolves to, not to the
/// name it asks for: config may register any solver under another name,
/// and such a solver answers with the level of the one it wraps. The
/// cache therefore canonicalises at the resolved solver's
/// [`crate::Solver::canon_level`].
///
/// Solvers not built into this crate (registered by name at runtime) are
/// conservatively treated as [`CanonLevel::Identity`]: without an
/// invariance proof, only bit-identical instances may share a result.
pub fn level_for(solver: &str) -> CanonLevel {
    match solver {
        // Optimal / exhaustive: the makespan depends only on the multiset
        // of legs (forks, spiders) or the unordered tree shape.
        "optimal" | "chain-optimal" | "fork-optimal" | "spider-optimal" | "tree-cover"
        | "exact" => CanonLevel::Full,
        // Forward heuristics: scale-invariant decisions, label-sensitive
        // tie-breaks.
        "eager" | "round-robin" | "bandwidth-centric" | "master-only" | "random" => {
            CanonLevel::ScaleOnly
        }
        // `divisible` rounds a float; unknown names have no contract.
        _ => CanonLevel::Identity,
    }
}

/// FNV-1a, 128-bit variant — deterministic, dependency-free, stable
/// across runs and platforms (the store persists these hashes).
#[derive(Debug, Clone)]
struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV128_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV128_PRIME);
        }
    }

    fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    fn write_u128(&mut self, v: u128) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u128 {
        self.0
    }
}

/// Text written to the hasher is hashed as its UTF-8 bytes, so a value is
/// digested as it is printed, without building its `String`.
impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

fn gcd(a: Time, b: Time) -> Time {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

/// GCD of every platform time, folded with the deadline when present.
/// Returns 1 when there is nothing to scale (all-zero degenerate input).
fn scale_of(platform: &Platform, deadline: Option<Time>) -> Time {
    let mut g = 0;
    for p in platform.processors() {
        g = gcd(g, p.comm);
        g = gcd(g, p.work);
    }
    if let Some(d) = deadline {
        g = gcd(g, d);
    }
    if g == 0 {
        1
    } else {
        g
    }
}

fn scaled_proc(p: Processor, g: Time) -> Processor {
    Processor { comm: p.comm / g, work: p.work / g }
}

/// Canonical form of a chain: only the scale can be extracted (the
/// processor order *is* the topology).
fn canonical_chain(chain: &Chain, g: Time) -> Chain {
    let procs = chain.processors().iter().map(|&p| scaled_proc(p, g)).collect();
    Chain::new(procs).expect("scaling preserves positivity")
}

/// Canonical fork: slaves sorted by `(c, w)`. Returns the permutation
/// mapping canonical slave index → original slave index (0-based).
fn canonical_fork(fork: &Fork, g: Time, sort: bool) -> (Fork, Vec<usize>) {
    let mut order: Vec<usize> = (0..fork.len()).collect();
    if sort {
        order.sort_by_key(|&i| (fork.slaves()[i].comm, fork.slaves()[i].work));
    }
    let slaves = order.iter().map(|&i| scaled_proc(fork.slaves()[i], g)).collect();
    (Fork::new(slaves).expect("scaling preserves non-emptiness"), order)
}

/// Canonical spider: legs sorted lexicographically by their `(c, w)`
/// sequences. Returns the permutation mapping canonical leg index →
/// original leg index (0-based).
fn canonical_spider(spider: &Spider, g: Time, sort: bool) -> (Spider, Vec<usize>) {
    let leg_key = |l: usize| -> Vec<(Time, Time)> {
        spider.leg(l).processors().iter().map(|p| (p.comm, p.work)).collect()
    };
    let mut order: Vec<usize> = (0..spider.num_legs()).collect();
    if sort {
        order.sort_by_key(|&l| leg_key(l));
    }
    let legs = order
        .iter()
        .map(|&l| {
            let procs = spider.leg(l).processors().iter().map(|&p| scaled_proc(p, g)).collect();
            Chain::new(procs).expect("scaling preserves positivity")
        })
        .collect();
    (Spider::new(legs).expect("scaling preserves non-emptiness"), order)
}

/// Canonical tree: children of every node ordered by a content hash of
/// their (scaled) subtrees, node ids reassigned in preorder. Returns the
/// permutation mapping canonical node id − 1 → original node id
/// (1-based ids on both sides).
///
/// The subtree hash is content-pure, so isomorphic subtrees sort equal —
/// a collision between *different* subtrees only costs a missed
/// deduplication (two equivalence classes keyed apart stay correct; two
/// classes keyed together is prevented by hashing the full canonical
/// platform text into the cache key afterwards).
fn canonical_tree(tree: &Tree, g: Time, sort: bool) -> (Tree, Vec<usize>) {
    let n = tree.len();
    let mut children = tree.children();
    if sort {
        // Subtree keys bottom-up; ids are parents-first, so reverse id
        // order visits children before parents.
        let mut key = vec![0u128; n + 1];
        for id in (1..=n).rev() {
            let mut child_keys: Vec<u128> = children[id].iter().map(|&c| key[c]).collect();
            child_keys.sort_unstable();
            let node = tree.node(id);
            let mut h = Fnv128::new();
            h.write_i64(node.comm / g);
            h.write_i64(node.work / g);
            for ck in child_keys {
                h.write_u128(ck);
            }
            key[id] = h.finish();
        }
        for list in children.iter_mut() {
            list.sort_by_key(|&c| key[c]);
        }
    }
    // Preorder DFS over the (possibly re-ordered) children lists: parents
    // are always numbered before their children, as `Tree::new` requires.
    let mut perm = Vec::with_capacity(n);
    let mut new_id_of = vec![0usize; n + 1];
    let mut stack: Vec<usize> = children[0].iter().rev().copied().collect();
    while let Some(old) = stack.pop() {
        perm.push(old);
        new_id_of[old] = perm.len();
        for &c in children[old].iter().rev() {
            stack.push(c);
        }
    }
    let nodes: Vec<TreeNode> = perm
        .iter()
        .map(|&old| {
            let node = tree.node(old);
            TreeNode { parent: new_id_of[node.parent], comm: node.comm / g, work: node.work / g }
        })
        .collect();
    (Tree::new(nodes).expect("canonical relabelling is parents-first"), perm)
}

/// An instance normalised for caching, with everything needed to map a
/// solution of the canonical form back onto the original instance.
#[derive(Debug, Clone)]
pub struct CanonicalInstance {
    instance: Instance,
    deadline: Option<Time>,
    scale: Time,
    /// Leg permutation (forks/spiders) or node-id permutation (trees):
    /// `perm[canonical] = original`. Empty when no relabelling happened.
    perm: Vec<usize>,
    hash: u128,
}

impl CanonicalInstance {
    /// Canonicalises `instance` for the solver named `solver`, at the
    /// [`CanonLevel`] [`level_for`] gives the name, folding `deadline`
    /// into the scale when present.
    pub fn of(instance: &Instance, solver: &str, deadline: Option<Time>) -> CanonicalInstance {
        CanonicalInstance::at(instance, level_for(solver), deadline)
    }

    /// Canonicalises `instance` at `level`, folding `deadline` into the
    /// scale when present. The cache passes the level of the solver the
    /// request resolved to ([`crate::Solver::canon_level`]).
    pub fn at(instance: &Instance, level: CanonLevel, deadline: Option<Time>) -> CanonicalInstance {
        let g = match level {
            CanonLevel::Identity => 1,
            _ => scale_of(&instance.platform, deadline),
        };
        let sort = level == CanonLevel::Full;
        let (platform, perm): (Platform, Vec<usize>) = match &instance.platform {
            Platform::Chain(chain) => (canonical_chain(chain, g).into(), Vec::new()),
            Platform::Fork(fork) => {
                let (fork, order) = canonical_fork(fork, g, sort);
                (fork.into(), if sort { order } else { Vec::new() })
            }
            Platform::Spider(spider) => {
                let (spider, order) = canonical_spider(spider, g, sort);
                (spider.into(), if sort { order } else { Vec::new() })
            }
            Platform::Tree(tree) => {
                let (tree, order) = canonical_tree(tree, g, sort);
                (tree.into(), if sort { order } else { Vec::new() })
            }
        };
        let canonical = Instance { platform, tasks: instance.tasks };
        let canon_deadline = deadline.map(|d| d / g);
        let mut h = Fnv128::new();
        // Hashing cannot fail.
        let _ = canonical.platform.write_text(&mut h);
        h.write(b"\n");
        h.write_i64(canonical.tasks as i64);
        let hash = h.finish();
        CanonicalInstance { instance: canonical, deadline: canon_deadline, scale: g, perm, hash }
    }

    /// The canonical instance — what should be handed to the solver.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The deadline expressed in canonical time units (`d / scale`).
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// The extracted uniform time-scale factor (`≥ 1`).
    pub fn scale(&self) -> Time {
        self.scale
    }

    /// Stable 128-bit content hash of the canonical platform + task
    /// count. Deadline and solver name are *not* mixed in — they are
    /// separate components of the cache key.
    pub fn hash(&self) -> u128 {
        self.hash
    }

    /// The content hash as 32 lowercase hex digits (the store format).
    pub fn hash_hex(&self) -> String {
        format!("{:032x}", self.hash)
    }

    /// Whether [`CanonicalInstance::restore`] is the identity — the
    /// canonical instance *is* the original.
    pub fn is_identity(&self) -> bool {
        self.mapping().is_identity()
    }

    /// How a solution of this canonical form maps back onto the original
    /// instance.
    pub(crate) fn mapping(&self) -> Mapping<'_> {
        Mapping { scale: self.scale, perm: &self.perm }
    }

    /// Maps a solution of the canonical instance back to a solution of
    /// the original: every event time is multiplied by the scale, and
    /// leg/node labels are permuted back where canonicalisation reordered
    /// them. The restored witness verifies against the original instance
    /// whenever the input verified against the canonical one.
    pub fn restore(&self, solution: &Solution) -> Solution {
        if self.is_identity() {
            return solution.clone();
        }
        let map = self.mapping();
        let cover = solution.sub_platform().map(|cover| map.cover(cover));
        let covered = cover.is_some();
        let schedule = solution.schedule().map(|schedule| match schedule {
            ScheduleRepr::Chain(s) => ScheduleRepr::Chain(ChainSchedule::new(
                s.tasks()
                    .iter()
                    .map(|t| TaskAssignment {
                        proc: t.proc,
                        start: map.time(t.start),
                        comms: map.comms(&t.comms),
                        work: map.time(t.work),
                    })
                    .collect(),
            )),
            ScheduleRepr::Spider(s) => ScheduleRepr::Spider(SpiderSchedule::new(
                s.tasks()
                    .iter()
                    .map(|t| SpiderTask {
                        node: NodeId { leg: map.leg(t.node.leg, covered), depth: t.node.depth },
                        start: map.time(t.start),
                        comms: map.comms(&t.comms),
                        work: map.time(t.work),
                    })
                    .collect(),
            )),
            ScheduleRepr::Tree(s) => ScheduleRepr::Tree(TreeSchedule::new(
                s.tasks()
                    .iter()
                    .map(|t| {
                        TreeTask::new(
                            map.node(t.node),
                            map.time(t.start),
                            map.comms(&t.comms),
                            map.time(t.work),
                        )
                    })
                    .collect(),
            )),
        });
        map.assemble(
            solution.solver(),
            solution.makespan(),
            schedule,
            cover,
            solution.relaxed_makespan(),
        )
    }
}

/// How a solution of a canonical instance maps back onto the original:
/// every time, the cover's included, is multiplied by the scale, and
/// legs or tree nodes are relabelled by the permutation.
/// [`CanonicalInstance::restore`] and the solution cache's packed decoder
/// both restore through it, task by task, so a hit answers as a miss
/// does.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mapping<'a> {
    scale: Time,
    /// `perm[canonical] = original`; empty when nothing was relabelled.
    perm: &'a [usize],
}

impl Mapping<'static> {
    /// The mapping of a canonical form that is the instance itself.
    pub(crate) const IDENTITY: Mapping<'static> = Mapping { scale: 1, perm: &[] };
}

impl Mapping<'_> {
    /// Whether the mapping changes nothing: a scale of 1, no relabelling.
    fn is_identity(&self) -> bool {
        self.scale == 1 && self.perm.is_empty()
    }

    /// A canonical time on the original scale.
    #[inline]
    pub(crate) fn time(&self, t: Time) -> Time {
        t * self.scale
    }

    /// The original leg of a spider task on canonical leg `leg`. A
    /// covered tree's witness keeps its labels: it is verified against
    /// its recorded cover, whose legs keep their order.
    #[inline]
    pub(crate) fn leg(&self, leg: usize, covered: bool) -> usize {
        match covered {
            true => leg,
            false => self.perm.get(leg).copied().unwrap_or(leg),
        }
    }

    /// The original id of canonical tree node `node` (1-based).
    #[inline]
    pub(crate) fn node(&self, node: usize) -> usize {
        node.checked_sub(1).and_then(|i| self.perm.get(i)).copied().unwrap_or(node)
    }

    fn comms(&self, comms: &CommVector) -> CommVector {
        CommVector::from_fill(comms.len(), |times| {
            for (t, &canonical) in times.iter_mut().zip(comms.times()) {
                *t = self.time(canonical);
            }
        })
    }

    fn cover(&self, cover: &Spider) -> Spider {
        let legs = cover
            .legs()
            .iter()
            .map(|leg| {
                let procs = leg
                    .processors()
                    .iter()
                    .map(|p| Processor { comm: self.time(p.comm), work: self.time(p.work) });
                Chain::new(procs.collect()).expect("a leg keeps its processors")
            })
            .collect();
        Spider::new(legs).expect("a cover keeps its legs")
    }

    /// The restored solution, from a schedule and cover already restored
    /// and the canonical makespan and relaxed makespan. The identity keeps
    /// every field as it stands; any other mapping rebuilds the solution
    /// through its constructor, which takes a witnessed makespan from the
    /// schedule.
    pub(crate) fn assemble(
        &self,
        solver: &'static str,
        makespan: Time,
        schedule: Option<ScheduleRepr>,
        cover: Option<Spider>,
        relaxed: Option<f64>,
    ) -> Solution {
        if self.is_identity() {
            return Solution::from_parts(solver, makespan, schedule, cover, relaxed);
        }
        match (schedule, cover) {
            (Some(ScheduleRepr::Chain(s)), _) => Solution::from_chain(solver, s),
            (Some(ScheduleRepr::Spider(s)), Some(cover)) => Solution::from_cover(solver, cover, s),
            (Some(ScheduleRepr::Spider(s)), None) => Solution::from_spider(solver, s),
            (Some(ScheduleRepr::Tree(s)), _) => Solution::from_tree(solver, s),
            // Identity level is forced for relaxations, so this arm is
            // unreachable in practice; keep it total.
            (None, _) => match relaxed {
                Some(r) => Solution::from_relaxation(solver, r * self.scale as f64),
                None => Solution::from_makespan(solver, self.time(makespan)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SolverRegistry;

    fn chain_instance(pairs: &[(Time, Time)], tasks: usize) -> Instance {
        Instance::new(Chain::from_pairs(pairs).unwrap(), tasks)
    }

    #[test]
    fn scale_is_extracted_and_folded_with_deadline() {
        let inst = chain_instance(&[(4, 6), (6, 10)], 5);
        let canon = CanonicalInstance::of(&inst, "optimal", None);
        assert_eq!(canon.scale(), 2);
        assert_eq!(
            canon.instance().platform.to_text(),
            chain_instance(&[(2, 3), (3, 5)], 5).platform.to_text()
        );
        // Deadline 9 forces g down to 1.
        let canon = CanonicalInstance::of(&inst, "optimal", Some(9));
        assert_eq!(canon.scale(), 1);
        assert_eq!(canon.deadline(), Some(9));
        // Deadline 18 keeps g = 2 and buckets the deadline.
        let canon = CanonicalInstance::of(&inst, "optimal", Some(18));
        assert_eq!(canon.scale(), 2);
        assert_eq!(canon.deadline(), Some(9));
    }

    #[test]
    fn equivalent_instances_share_a_hash_and_different_ones_do_not() {
        let a = chain_instance(&[(2, 3), (3, 5)], 7);
        let b = chain_instance(&[(6, 9), (9, 15)], 7);
        let c = chain_instance(&[(2, 3), (3, 5)], 8);
        let ha = CanonicalInstance::of(&a, "optimal", None).hash();
        let hb = CanonicalInstance::of(&b, "optimal", None).hash();
        let hc = CanonicalInstance::of(&c, "optimal", None).hash();
        assert_eq!(ha, hb);
        assert_ne!(ha, hc);
        // Scale-only solvers also merge pure rescalings.
        assert_eq!(
            CanonicalInstance::of(&a, "eager", None).hash(),
            CanonicalInstance::of(&b, "eager", None).hash()
        );
        // Identity level does not.
        assert_ne!(
            CanonicalInstance::of(&a, "divisible", None).hash(),
            CanonicalInstance::of(&b, "divisible", None).hash()
        );
    }

    #[test]
    fn fork_slaves_and_spider_legs_sort_into_one_class() {
        let f1 = Instance::new(Fork::from_pairs(&[(3, 1), (1, 2)]).unwrap(), 4);
        let f2 = Instance::new(Fork::from_pairs(&[(1, 2), (3, 1)]).unwrap(), 4);
        assert_eq!(
            CanonicalInstance::of(&f1, "fork-optimal", None).hash(),
            CanonicalInstance::of(&f2, "fork-optimal", None).hash()
        );
        // But not for label-sensitive heuristics.
        assert_ne!(
            CanonicalInstance::of(&f1, "round-robin", None).hash(),
            CanonicalInstance::of(&f2, "round-robin", None).hash()
        );
        let s1 = Instance::new(Spider::from_legs(&[&[(2, 2), (1, 1)], &[(1, 3)]]).unwrap(), 4);
        let s2 = Instance::new(Spider::from_legs(&[&[(1, 3)], &[(2, 2), (1, 1)]]).unwrap(), 4);
        assert_eq!(
            CanonicalInstance::of(&s1, "spider-optimal", None).hash(),
            CanonicalInstance::of(&s2, "spider-optimal", None).hash()
        );
    }

    #[test]
    fn isomorphic_trees_share_a_hash() {
        // Same tree, children of the master listed in opposite orders.
        let t1 = Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (0, 4, 5)]).unwrap();
        let t2 = Tree::from_triples(&[(0, 4, 5), (0, 1, 2), (2, 2, 3)]).unwrap();
        let i1 = Instance::new(t1, 3);
        let i2 = Instance::new(t2, 3);
        assert_eq!(
            CanonicalInstance::of(&i1, "tree-cover", None).hash(),
            CanonicalInstance::of(&i2, "tree-cover", None).hash()
        );
    }

    #[test]
    fn restore_round_trips_solutions_with_verification() {
        let registry = SolverRegistry::with_defaults();
        let scaled = chain_instance(&[(6, 9), (9, 15)], 6);
        for solver in ["optimal", "chain-optimal", "eager", "exact"] {
            let direct = registry.solve(solver, &scaled).unwrap();
            let canon = CanonicalInstance::of(&scaled, solver, None);
            let via = canon.restore(&registry.solve(solver, canon.instance()).unwrap());
            assert_eq!(via.makespan(), direct.makespan(), "{solver}");
            crate::verify(&scaled, &via).unwrap().assert_feasible();
        }
    }

    /// Stored logs key warm start by the hash, so a change to how it is
    /// computed must keep these values: each topology at the `Full` level
    /// (a common factor, unsorted legs and subtrees), then `ScaleOnly`
    /// and `Identity`.
    #[test]
    fn hashes_keep_their_recorded_values() {
        let fork = "fork\n3 5\n1 2\n2 2\n";
        let spider = "spider\nleg 4 4 2 6\nleg 2 2\n";
        for (text, tasks, solver, hash) in [
            ("chain\n4 6\n2 8\n", 5, "optimal", "9bcdbd52db8fe354e45a3c0048ac0e37"),
            (fork, 4, "optimal", "7e03b67323733efbe4113ecb37511bc4"),
            (spider, 6, "optimal", "908cc8aeb77dc6bc06f4b7492624cc20"),
            (
                "tree\nnode 0 3 6\nnode 1 3 3\nnode 0 6 9\n",
                4,
                "optimal",
                "bea4aded4a8c5b2e365e2a34606025b3",
            ),
            (spider, 6, "eager", "95a7df4fc8865b963b531f755c16938c"),
            (fork, 4, "divisible", "2ed950573b5da8c630b4fcc38e186678"),
        ] {
            let instance = Instance::new(Platform::parse(text).unwrap(), tasks);
            let canon = CanonicalInstance::of(&instance, solver, None);
            assert_eq!(canon.hash_hex(), hash, "{text:?} with {tasks} tasks under {solver}");
        }
    }

    #[test]
    fn zero_task_and_single_processor_degenerates_hold() {
        let inst = chain_instance(&[(5, 5)], 0);
        let canon = CanonicalInstance::of(&inst, "optimal", None);
        assert_eq!(canon.scale(), 5);
        assert_eq!(canon.instance().tasks, 0);
        let one = chain_instance(&[(7, 7)], 3);
        let canon = CanonicalInstance::of(&one, "optimal", None);
        assert_eq!(canon.scale(), 7);
        let registry = SolverRegistry::with_defaults();
        let direct = registry.solve("optimal", &one).unwrap();
        let via = canon.restore(&registry.solve("optimal", canon.instance()).unwrap());
        assert_eq!(via.makespan(), direct.makespan());
    }
}
