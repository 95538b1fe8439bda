//! Sharded in-memory memo of solved canonical instances, and the one
//! cache-fronted solve every caller composes.
//!
//! An instance is canonicalised ([`crate::canon`]) and keyed by
//! `(content hash, solver, deadline bucket)`. Entries hold the
//! *canonical* solution, packed into a few bytes per task. A hit takes a
//! reference to the bytes under the shard lock and decodes them after
//! releasing it, straight into the solution restored to the looked-up
//! instance, through the mapping
//! [`crate::canon::CanonicalInstance::restore`] applies to a miss, so
//! hit and miss answers are bit-identical by construction. A solve is
//! [`lookup`], then on a miss [`solve_miss`] and [`memoise`]:
//! [`solve_through`] composes them with no admission and no store,
//! `mst-serve` around an admission slot and a store append, so a hit
//! there takes no slot and wakes no worker. The key does not name the
//! registry, so a cache must only ever hold the answers of the one
//! registry that fills it.
//!
//! The pieces take the solver the request's name resolved to, resolved
//! once before the lookup: the canonical form is the one that solver's
//! algorithm allows ([`crate::Solver::canon_level`]), whatever name config
//! gave it, and a name the registry lacks never reaches the cache.

use crate::canon::{CanonicalInstance, Mapping};
use crate::error::SolveError;
use crate::instance::Instance;
use crate::packed::Packed;
use crate::registry::SolverRegistry;
use crate::solution::Solution;
use crate::solver::Solver;
use mst_platform::Time;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards.
const SHARDS: usize = 8;

/// Default per-tenant capacity when the config does not set
/// `cache_entries`.
pub const DEFAULT_CACHE_ENTRIES: usize = 4096;

/// Key of one memo entry. The deadline is the *canonical* deadline
/// (already divided by the extracted scale), so every pure rescaling of a
/// deadline sweep buckets onto the same entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the canonical platform + task count.
    pub hash: u128,
    /// Solver name (part of the key: different solvers, different answers).
    pub solver: String,
    /// Canonical deadline bucket; `None` for plain makespan solves.
    pub deadline: Option<Time>,
}

impl CacheKey {
    /// The key under which `canon` would be cached for `solver`.
    pub fn of(canon: &CanonicalInstance, solver: &str) -> CacheKey {
        CacheKey { hash: canon.hash(), solver: solver.to_string(), deadline: canon.deadline() }
    }
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<CacheKey, (u64, Packed)>,
    /// Every entry's key by its LRU stamp, oldest first. Stamps are
    /// unique, so the first entry is the eviction victim.
    by_stamp: BTreeMap<u64, CacheKey>,
    /// The packed bytes of every entry.
    bytes: usize,
}

impl Shard {
    /// Moves `key`'s index entry from stamp `old` to `new`.
    fn restamp(&mut self, old: u64, new: u64) {
        let key = self.by_stamp.remove(&old).expect("every entry is indexed by its stamp");
        self.by_stamp.insert(new, key);
    }
}

/// A sharded LRU memo of canonical solutions, each held packed.
///
/// Eviction is least-recently-*used* per shard, tracked by a global
/// monotonic stamp. Each shard indexes its keys by stamp, so an
/// eviction takes the index's first key instead of scanning the shard.
/// With `capacity == 0` the cache is disabled (every lookup misses,
/// inserts are dropped).
#[derive(Debug)]
pub struct SolutionCache {
    shards: Vec<Mutex<Shard>>,
    per_shard: usize,
    stamp: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SolutionCache {
    /// A cache holding at most `capacity` entries (rounded up to a
    /// multiple of the shard count; `0` disables caching entirely).
    pub fn new(capacity: usize) -> SolutionCache {
        let per_shard = capacity.div_ceil(SHARDS);
        SolutionCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard: if capacity == 0 { 0 } else { per_shard },
            stamp: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache that never stores anything.
    pub fn disabled() -> SolutionCache {
        SolutionCache::new(0)
    }

    /// Whether this cache can ever hold an entry.
    pub fn is_enabled(&self) -> bool {
        self.per_shard > 0
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[shard_of(key)]
    }

    /// Looks up a canonical solution, refreshing its LRU stamp. Counts a
    /// hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Solution> {
        self.packed(key).map(|packed| packed.unpack(Mapping::IDENTITY))
    }

    /// The packed entry under `key`, its LRU stamp refreshed. Only the
    /// lookup, the restamp and taking a reference to the bytes happen
    /// under the shard lock: the caller decodes after it is released.
    /// Counts a hit or miss.
    fn packed(&self, key: &CacheKey) -> Option<Packed> {
        if !self.is_enabled() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let Some(entry) = shard.entries.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let old = std::mem::replace(&mut entry.0, stamp);
        let packed = entry.1.clone();
        shard.restamp(old, stamp);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(packed)
    }

    /// Inserts (or refreshes) a canonical solution, evicting the shard's
    /// least-recently-used entry when full.
    pub fn insert(&self, key: CacheKey, solution: Solution) {
        self.keep(key, &solution);
    }

    /// [`SolutionCache::insert`] of a borrowed solution: the cache keeps
    /// its packed bytes, packed before the shard lock is taken.
    fn keep(&self, key: CacheKey, solution: &Solution) {
        if !self.is_enabled() {
            return;
        }
        let packed = Packed::of(solution);
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
        shard.bytes += packed.len();
        if let Some(entry) = shard.entries.get_mut(&key) {
            let (old, replaced) = std::mem::replace(entry, (stamp, packed));
            shard.bytes -= replaced.len();
            shard.restamp(old, stamp);
            return;
        }
        if shard.entries.len() >= self.per_shard {
            if let Some((_, oldest)) = shard.by_stamp.pop_first() {
                let (_, evicted) =
                    shard.entries.remove(&oldest).expect("every index key has an entry");
                shard.bytes -= evicted.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.by_stamp.insert(stamp, key.clone());
        shard.entries.insert(key, (stamp, packed));
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").entries.len()).sum()
    }

    /// The packed bytes of every live entry: the sum of their lengths,
    /// kept as entries are inserted, replaced and evicted.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").bytes).sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing (including all lookups on a disabled
    /// cache).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries displaced by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// The shard `key` lives in.
fn shard_of(key: &CacheKey) -> usize {
    // Mix the solver/deadline components in cheaply; the content hash
    // already distributes well.
    let mut h = key.hash as u64 ^ (key.hash >> 64) as u64;
    for b in key.solver.as_bytes() {
        h = h.wrapping_mul(31).wrapping_add(*b as u64);
    }
    if let Some(d) = key.deadline {
        h = h.wrapping_mul(31).wrapping_add(d as u64);
    }
    (h % SHARDS as u64) as usize
}

impl Default for SolutionCache {
    fn default() -> Self {
        SolutionCache::new(DEFAULT_CACHE_ENTRIES)
    }
}

/// Outcome of a cache-fronted solve: the restored solution plus whether
/// it came from the memo.
#[derive(Debug, Clone)]
pub struct CachedSolve {
    /// The solution, already mapped back onto the original instance.
    pub solution: Solution,
    /// `true` iff the memo supplied the canonical solution.
    pub cache_hit: bool,
}

/// What [`lookup`] found.
#[derive(Debug)]
pub enum Lookup {
    /// The memo's solution, restored to the looked-up instance.
    Hit(Solution),
    /// Nothing cached: what [`solve_miss`] solves and [`memoise`] keeps.
    Miss(Miss),
}

/// A cache miss: the canonical instance to solve, and its key.
#[derive(Debug)]
pub struct Miss {
    /// The canonical form of the looked-up instance (and deadline).
    pub canon: CanonicalInstance,
    /// The key [`memoise`] inserts under.
    pub key: CacheKey,
}

/// Canonicalises `instance` and `deadline` at the level of `solver`, the
/// solver the request's name resolved to, then looks the canonical form
/// up in `cache` under that name. Counts a hit or a miss.
pub fn lookup(
    cache: &SolutionCache,
    instance: &Instance,
    solver: &dyn Solver,
    deadline: Option<Time>,
) -> Lookup {
    let canon = CanonicalInstance::at(instance, solver.canon_level(), deadline);
    let key = CacheKey::of(&canon, solver.name());
    match cache.packed(&key) {
        Some(packed) => Lookup::Hit(packed.unpack(canon.mapping())),
        None => Lookup::Miss(Miss { canon, key }),
    }
}

/// Solves a miss's **canonical** instance (so every later hit is the
/// exact solution a miss produces) with the `solver` it was looked up
/// for, under its canonical deadline when it has one, timed into the
/// `Solve` or `Probe` kernel histogram.
pub fn solve_miss(solver: &dyn Solver, miss: &Miss) -> Result<Solution, SolveError> {
    let _solve_span = mst_obs::span(mst_obs::Stage::Solve);
    let started = std::time::Instant::now();
    let (solved, kernel) = match miss.canon.deadline() {
        Some(d) => (solver.solve_by_deadline(miss.canon.instance(), d), mst_obs::Kernel::Probe),
        None => (solver.solve(miss.canon.instance()), mst_obs::Kernel::Solve),
    };
    mst_obs::kernel_observe(kernel, solver.name(), started.elapsed().as_micros() as u64);
    solved
}

/// Memoises a miss's canonical solution in `cache`, then restores it to
/// the looked-up instance. Errors are never cached: canonicalisation
/// makes them scale-invariant, so retries fail identically.
pub fn memoise(cache: &SolutionCache, miss: Miss, canonical: Solution) -> Solution {
    cache.keep(miss.key, &canonical);
    match miss.canon.is_identity() {
        true => canonical,
        false => miss.canon.restore(&canonical),
    }
}

/// Solves `instance` through `cache`: resolves `solver` in `registry`
/// once, then [`lookup`], and only on a miss [`solve_miss`], then
/// [`memoise`]. An unknown name is [`SolveError::UnknownSolver`] before
/// the cache is consulted.
pub fn solve_through(
    cache: &SolutionCache,
    registry: &SolverRegistry,
    solver: &str,
    instance: &Instance,
    deadline: Option<Time>,
) -> Result<CachedSolve, SolveError> {
    let solver = registry.resolve(solver)?;
    let cache_span = mst_obs::span(mst_obs::Stage::Cache);
    let miss = match lookup(cache, instance, solver, deadline) {
        Lookup::Hit(solution) => {
            mst_obs::note_cached(true);
            return Ok(CachedSolve { solution, cache_hit: true });
        }
        Lookup::Miss(miss) => miss,
    };
    drop(cache_span);
    mst_obs::note_cached(false);
    let canonical = solve_miss(solver, &miss)?;
    Ok(CachedSolve { solution: memoise(cache, miss, canonical), cache_hit: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::Chain;

    fn instance(scale: Time, tasks: usize) -> Instance {
        Instance::new(
            Chain::from_pairs(&[(2 * scale, 3 * scale), (3 * scale, 5 * scale)]).unwrap(),
            tasks,
        )
    }

    #[test]
    fn repeat_solves_hit_and_match_the_direct_answer() {
        let cache = SolutionCache::new(64);
        let registry = SolverRegistry::with_defaults();
        let inst = instance(3, 6);
        let direct = registry.solve("optimal", &inst).unwrap();
        let first = solve_through(&cache, &registry, "optimal", &inst, None).unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.solution.makespan(), direct.makespan());
        // A rescaled equivalent hits the same entry.
        let second = solve_through(&cache, &registry, "optimal", &instance(7, 6), None).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.solution.makespan() / 7, direct.makespan() / 3);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn deadline_buckets_key_separately_from_makespan_solves() {
        let cache = SolutionCache::new(64);
        let registry = SolverRegistry::with_defaults();
        let inst = instance(1, 6);
        solve_through(&cache, &registry, "optimal", &inst, None).unwrap();
        let by_deadline = solve_through(&cache, &registry, "optimal", &inst, Some(19)).unwrap();
        assert!(!by_deadline.cache_hit);
        let again = solve_through(&cache, &registry, "optimal", &inst, Some(19)).unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.solution.makespan(), by_deadline.solution.makespan());
        assert_eq!(cache.len(), 2);
    }

    /// The reference cache: the same shards, stamps and counters, with
    /// each victim found by scanning its shard.
    struct ScanModel {
        shards: Vec<HashMap<CacheKey, (u64, Solution)>>,
        per_shard: usize,
        stamp: u64,
        hits: u64,
        evictions: u64,
    }

    impl ScanModel {
        fn get(&mut self, key: &CacheKey) -> Option<Solution> {
            self.stamp += 1;
            let entry = self.shards[shard_of(key)].get_mut(key)?;
            entry.0 = self.stamp - 1;
            self.hits += 1;
            Some(entry.1.clone())
        }

        fn insert(&mut self, key: CacheKey, solution: Solution) {
            self.stamp += 1;
            let shard = &mut self.shards[shard_of(&key)];
            if !shard.contains_key(&key) && shard.len() >= self.per_shard {
                let oldest = shard.iter().min_by_key(|(_, (s, _))| *s).map(|(k, _)| k.clone());
                shard.remove(&oldest.expect("a full shard has an oldest entry"));
                self.evictions += 1;
            }
            shard.insert(key, (self.stamp - 1, solution));
        }
    }

    #[test]
    fn the_stamp_index_evicts_what_a_scan_evicts() {
        let registry = SolverRegistry::with_defaults();
        let solutions: Vec<Solution> =
            (1..=6).map(|tasks| registry.solve("optimal", &instance(1, tasks)).unwrap()).collect();
        let keys: Vec<CacheKey> = (0..300u64)
            .map(|i| CacheKey {
                hash: u128::from(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) << 7,
                solver: ["optimal", "chain-optimal"][(i % 2) as usize].to_string(),
                deadline: (i % 3 == 0).then_some(i as Time),
            })
            .collect();
        let cache = SolutionCache::new(64);
        let mut model = ScanModel {
            shards: vec![HashMap::new(); SHARDS],
            per_shard: cache.per_shard,
            stamp: 0,
            hits: 0,
            evictions: 0,
        };
        let mut state = 2003u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..24_000 {
            let key = &keys[next(keys.len() as u64) as usize];
            if next(5) < 3 {
                assert_eq!(cache.get(key), model.get(key));
            } else {
                let solution = &solutions[next(solutions.len() as u64) as usize];
                cache.insert(key.clone(), solution.clone());
                model.insert(key.clone(), solution.clone());
            }
        }
        assert!(model.hits > 1_000 && model.evictions > 1_000, "the mix must exercise both");
        assert_eq!((cache.hits(), cache.evictions()), (model.hits, model.evictions));
        for (shard, reference) in cache.shards.iter().zip(&model.shards) {
            let shard = shard.lock().unwrap();
            let unpacked: HashMap<CacheKey, (u64, Solution)> = shard
                .entries
                .iter()
                .map(|(k, (s, p))| (k.clone(), (*s, p.unpack(Mapping::IDENTITY))))
                .collect();
            assert_eq!(&unpacked, reference);
            assert_eq!(shard.bytes, shard.entries.values().map(|(_, p)| p.len()).sum::<usize>());
            let indexed: BTreeMap<u64, CacheKey> =
                reference.iter().map(|(k, (s, _))| (*s, k.clone())).collect();
            assert_eq!(shard.by_stamp, indexed);
        }
    }

    /// Inserts `canonical` under the key `solver` and `deadline` give
    /// `instance`, then reads it back both ways: `get` returns it
    /// unchanged, and a `lookup` hit returns what `restore` makes of it.
    fn round_trip(
        instance: &Instance,
        solver: &dyn Solver,
        deadline: Option<Time>,
        canonical: &Solution,
    ) {
        let cache = SolutionCache::new(8);
        let canon = CanonicalInstance::at(instance, solver.canon_level(), deadline);
        let key = CacheKey::of(&canon, solver.name());
        cache.insert(key.clone(), canonical.clone());
        assert_eq!(cache.get(&key).as_ref(), Some(canonical), "get of {canonical:?}");
        let Lookup::Hit(hit) = lookup(&cache, instance, solver, deadline) else {
            panic!("{} missed its own entry", solver.name());
        };
        assert_eq!(hit, canon.restore(canonical), "lookup of {canonical:?} under {canon:?}");
    }

    /// One instance per topology whose canonical form both rescales
    /// (every time is a multiple of 3) and relabels (slaves, legs and
    /// subtrees out of canonical order).
    fn scaled_and_permuted() -> Vec<Instance> {
        use mst_platform::{Fork, Spider, Tree};
        vec![
            Instance::new(Chain::from_pairs(&[(6, 9), (3, 12), (9, 3)]).unwrap(), 6),
            Instance::new(Fork::from_pairs(&[(9, 6), (3, 12), (6, 3)]).unwrap(), 6),
            Instance::new(
                Spider::from_legs(&[&[(6, 9), (3, 6)], &[(3, 12)], &[(3, 3), (9, 3), (3, 6)]])
                    .unwrap(),
                6,
            ),
            Instance::new(
                Tree::from_triples(&[(0, 6, 9), (1, 3, 6), (0, 3, 12), (1, 3, 3), (4, 3, 3)])
                    .unwrap(),
                6,
            ),
        ]
    }

    #[test]
    fn packed_entries_round_trip_every_solver_on_every_topology() {
        let registry = SolverRegistry::with_defaults();
        let (mut covers, mut relaxations, mut empty, mut trees) = (0, 0, 0, 0);
        for instance in scaled_and_permuted() {
            let full = CanonicalInstance::at(&instance, crate::CanonLevel::Full, None);
            assert_eq!(full.scale(), 3, "{}", instance.platform);
            for solver in registry.supporting(instance.kind()) {
                // A deadline of 3 fits no task: an empty schedule.
                let deadlines: &[Option<Time>] =
                    if solver.by_deadline() { &[None, Some(60), Some(3)] } else { &[None] };
                for &deadline in deadlines {
                    let canon = CanonicalInstance::at(&instance, solver.canon_level(), deadline);
                    let miss = Miss { key: CacheKey::of(&canon, solver.name()), canon };
                    let canonical = solve_miss(solver, &miss).unwrap();
                    covers += usize::from(canonical.sub_platform().is_some());
                    relaxations += usize::from(canonical.relaxed_makespan().is_some());
                    empty += usize::from(canonical.is_witnessed() && canonical.n() == 0);
                    trees += usize::from(canonical.tree_schedule().is_some());
                    round_trip(&instance, solver, deadline, &canonical);
                    let restored = miss.canon.restore(&canonical);
                    assert_eq!(memoise(&SolutionCache::new(8), miss, canonical), restored);
                }
            }
        }
        assert!(covers > 0 && relaxations > 0 && empty > 0 && trees > 0, "every shape is covered");
    }

    #[test]
    fn packed_entries_keep_any_i64_and_long_vectors() {
        use mst_platform::{NodeId, Spider, Tree};
        use mst_schedule::{
            ChainSchedule, CommVector, SpiderSchedule, SpiderTask, TaskAssignment, TreeSchedule,
            TreeTask,
        };
        let big = 1 << 53;
        let chain = |tasks: &[(usize, Time, &[Time], Time)]| {
            let tasks = tasks.iter().map(|&(proc, start, comms, work)| TaskAssignment {
                proc,
                start,
                comms: CommVector::from_slice(comms),
                work,
            });
            Solution::from_chain("optimal", ChainSchedule::new(tasks.collect()))
        };
        let spider = |tasks: &[(usize, usize, Time, &[Time], Time)]| {
            SpiderSchedule::new(
                tasks
                    .iter()
                    .map(|&(leg, depth, start, comms, work)| SpiderTask {
                        node: NodeId { leg, depth },
                        start,
                        comms: CommVector::from_slice(comms),
                        work,
                    })
                    .collect(),
            )
        };
        let tree = |tasks: &[(usize, Time, &[Time], Time)]| {
            let tasks = tasks.iter().map(|&(node, start, comms, work)| {
                TreeTask::new(node, start, CommVector::from_slice(comms), work)
            });
            Solution::from_tree("exact", TreeSchedule::new(tasks.collect()))
        };
        let cover = Spider::from_legs(&[&[(1 << 40, 3), (5, 1)], &[(2, 2)], &[(1, 1), (1, 1)]]);
        // Within the wire's integers (below 2^53), so each also takes the
        // store's decoder: negative times and vectors of 3 and 4 links.
        let moderate = [
            chain(&[
                (3, -2, &[-big + 1, -(1 << 40), -5], 4),
                (1, 9, &[-3], 7),
                (2, big - 9, &[big - 20, big - 12], 8),
            ]),
            Solution::from_spider(
                "optimal",
                spider(&[
                    (2, 3, -4, &[-30, -20, -10], 6),
                    (0, 1, 40, &[-1], 2),
                    (1, 1, 3, &[0], 1),
                ]),
            ),
            Solution::from_cover(
                "tree-cover",
                cover.unwrap(),
                spider(&[(0, 2, 90, &[0, 1 << 40], 1), (2, 2, 7, &[1, 4], 1)]),
            ),
            tree(&[(5, -1, &[-9, -7, -5, -3], 2), (1, 4, &[2], 3), (9, 12, &[3, 6, 9], 1)]),
            Solution::from_chain("optimal", ChainSchedule::empty()),
            Solution::from_relaxation("divisible", 13.25),
            Solution::from_relaxation("divisible", -0.5),
            Solution::from_makespan("divisible", -17),
        ];
        // Past the wire's integers: 2^53 and beyond, i64::MIN and
        // i64::MAX, and places that differ from their vector's length.
        let extreme = [
            chain(&[
                (3, -2, &[Time::MIN, -(1 << 60), -5], 4),
                (1, big, &[-3], 7),
                (2, Time::MAX - 3, &[big + 1, Time::MAX - 9], 3),
            ]),
            chain(&[(2, Time::MIN, &[Time::MIN, 0, Time::MAX], Time::MAX)]),
            Solution::from_spider(
                "optimal",
                spider(&[(7, 1, Time::MAX, &[Time::MIN, Time::MAX], Time::MIN)]),
            ),
            tree(&[(3, Time::MAX, &[Time::MAX; 5], Time::MIN), (2, Time::MIN, &[], 0)]),
            Solution::from_relaxation("divisible", 1e300),
        ];
        let registry = SolverRegistry::with_defaults();
        let (optimal, divisible) =
            (registry.resolve("optimal").unwrap(), registry.resolve("divisible").unwrap());
        // Full-level forms with a scale of 1 that still relabel, and an
        // identity form.
        let unscaled = [
            Instance::new(
                Spider::from_legs(&[&[(2, 3)], &[(1, 1), (1, 2)], &[(1, 2)]]).unwrap(),
                3,
            ),
            Instance::new(Tree::from_triples(&[(0, 2, 3), (1, 1, 1), (0, 1, 2)]).unwrap(), 3),
        ];
        for solution in &moderate {
            let text = crate::wire::solution_to_json(solution).to_string();
            let decoded = crate::wire::solution_from_text(&text).unwrap();
            assert_eq!(&decoded, solution, "{text}");
        }
        for solution in moderate.iter().chain(&extreme) {
            for instance in &unscaled {
                assert_eq!(CanonicalInstance::at(instance, optimal.canon_level(), None).scale(), 1);
                round_trip(instance, optimal, None, solution);
            }
            round_trip(&unscaled[0], divisible, None, solution);
        }
        for solution in &moderate {
            for instance in scaled_and_permuted() {
                round_trip(&instance, optimal, None, solution);
            }
        }
    }

    #[test]
    fn disabled_cache_never_stores_and_lru_evicts_oldest() {
        let off = SolutionCache::disabled();
        let registry = SolverRegistry::with_defaults();
        let inst = instance(1, 3);
        solve_through(&off, &registry, "optimal", &inst, None).unwrap();
        let again = solve_through(&off, &registry, "optimal", &inst, None).unwrap();
        assert!(!again.cache_hit);
        assert_eq!(off.len(), 0);

        // Tiny cache: capacity rounds to one entry per shard; hammering
        // distinct task counts must evict rather than grow unboundedly.
        let tiny = SolutionCache::new(1);
        for tasks in 1..=64 {
            solve_through(&tiny, &registry, "optimal", &instance(1, tasks), None).unwrap();
        }
        assert!(tiny.len() <= tiny.capacity());
        assert!(tiny.evictions() > 0);
    }
}
