//! Task memory: a communication vector of at most two links lives inside
//! its task, so a solution whose tasks all cross one or two links owns
//! no heap block per task. Copying, restoring and decoding such a
//! solution then allocate per solution, whatever its task count. The
//! solution cache keeps each entry packed into a few bytes per task, a
//! fraction of what the `Solution` owns.
//!
//! A counting global allocator tallies the allocations each call makes
//! on the calling thread, and the heap bytes live on it, so tests running
//! in parallel do not disturb each other's counts. Implementing
//! `GlobalAlloc` takes `unsafe`, so the test lives in `mst-sim`, one of
//! the two crates audited for unsafe code.

use mst_api::wire::{solution_from_text, solution_to_json};
use mst_api::{
    CacheKey, CanonicalInstance, Instance, Platform, ScheduleRepr, Solution, SolutionCache,
    SolverRegistry,
};
use mst_baselines::TreeAsap;
use mst_platform::{Chain, Fork, Spider, Tree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// Counts an allocation (or reallocation) that changes this thread's live
/// heap bytes by `bytes`; a free changes them without counting.
fn tally(allocation: bool, bytes: isize) {
    // A const-initialised `Cell` needs no allocation and no destructor,
    // so the allocator may touch it at any point of a thread's life.
    if allocation {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments to the system allocator
// unchanged, so `Counting` upholds `GlobalAlloc`'s contract as `System`
// does; counting touches only thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(true, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(true, layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(true, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(false, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(out);
    after - before
}

/// The heap bytes what `f` returns keeps alive: the bytes `f` allocates
/// on this thread, less those it frees.
fn kept_bytes<T>(f: impl FnOnce() -> T) -> isize {
    let before = LIVE_BYTES.with(Cell::get);
    let out = f();
    let after = LIVE_BYTES.with(Cell::get);
    drop(out);
    after - before
}

/// One platform per topology whose optimal schedules cross at most two
/// links. Every time is even, so canonicalisation extracts a scale of 2
/// and `restore` rebuilds each vector instead of cloning the solution.
fn platforms() -> Vec<Platform> {
    vec![
        Chain::from_pairs(&[(2, 4), (2, 6)]).unwrap().into(),
        Fork::from_pairs(&[(2, 4), (4, 6), (2, 8)]).unwrap().into(),
        Spider::from_legs(&[&[(2, 4), (2, 6)], &[(4, 4), (2, 4)], &[(2, 8)]]).unwrap().into(),
    ]
}

fn links(solution: &Solution) -> Vec<usize> {
    match solution.schedule() {
        Some(ScheduleRepr::Chain(s)) => s.tasks().iter().map(|t| t.comms.len()).collect(),
        Some(ScheduleRepr::Spider(s)) => s.tasks().iter().map(|t| t.comms.len()).collect(),
        Some(ScheduleRepr::Tree(s)) => s.tasks().iter().map(|t| t.comms.len()).collect(),
        None => Vec::new(),
    }
}

/// For `tasks` tasks on `platform`: the canonical form, its optimal
/// solution and that solution's wire text.
fn solved(platform: &Platform, tasks: usize) -> (CanonicalInstance, Solution, String) {
    let canon = CanonicalInstance::of(&Instance::new(platform.clone(), tasks), "optimal", None);
    let solution = SolverRegistry::global().solve("optimal", canon.instance()).unwrap();
    let lengths = links(&solution);
    assert_eq!(lengths.len(), tasks, "{platform}");
    assert!(lengths.iter().all(|&l| (1..=2).contains(&l)), "{platform}: {lengths:?}");
    assert!(!canon.is_identity(), "{platform}: restore must rebuild the vectors");
    let text = solution_to_json(&solution).to_string();
    (canon, solution, text)
}

#[test]
fn copying_and_restoring_a_solution_allocate_per_solution_not_per_task() {
    for platform in platforms() {
        let (small_canon, small, _) = solved(&platform, 8);
        let (large_canon, large, _) = solved(&platform, 64);
        assert_eq!(
            allocations(|| small.clone()),
            allocations(|| large.clone()),
            "{platform}: Solution::clone"
        );
        assert_eq!(
            allocations(|| small_canon.restore(&small)),
            allocations(|| large_canon.restore(&large)),
            "{platform}: CanonicalInstance::restore"
        );
    }
}

#[test]
fn decoding_a_solution_allocates_only_for_its_task_list() {
    for platform in platforms() {
        let (_, small, small_text) = solved(&platform, 8);
        let (_, large, large_text) = solved(&platform, 64);
        let small_count = allocations(|| solution_from_text(&small_text).unwrap());
        let large_count = allocations(|| solution_from_text(&large_text).unwrap());
        // Growing the task list from 8 to 64 entries doubles it at most
        // three times; every other allocation is made once per solution.
        assert!(
            large_count <= small_count + 3,
            "{platform}: decoding 64 tasks took {large_count} allocations, 8 tasks {small_count}"
        );
        assert_eq!(solution_from_text(&large_text).unwrap(), large);
        assert_eq!(solution_from_text(&small_text).unwrap(), small);
    }
}

/// A cache entry keeps its solution packed. Against an entry for a
/// solution with no schedule, a cached 64-task chain, spider or
/// tree-cover solution adds at most a quarter of the heap bytes its
/// `Solution` owns.
#[test]
fn a_cached_solution_keeps_at_most_a_quarter_of_its_heap_bytes() {
    let tree: Platform =
        Tree::from_triples(&[(0, 2, 4), (1, 2, 6), (1, 4, 4), (0, 2, 8)]).unwrap().into();
    let platforms = platforms();
    for platform in [&platforms[0], &platforms[2], &tree] {
        let (_, solution, _) = solved(platform, 64);
        if platform == &tree {
            assert!(solution.sub_platform().is_some(), "{platform}: a tree-cover solution");
        }
        let key = CacheKey { hash: 7, solver: "optimal".to_string(), deadline: None };
        // Everything but the entry's solution is the same in both caches.
        let cached = |solution: &dyn Fn() -> Solution| {
            kept_bytes(|| {
                let cache = SolutionCache::new(8);
                cache.insert(key.clone(), solution());
                cache
            })
        };
        let owned = kept_bytes(|| solution.clone());
        let entry = cached(&|| solution.clone())
            - cached(&|| Solution::from_makespan(solution.solver(), solution.makespan()));
        assert!(
            4 * entry <= owned,
            "{platform}: the cache keeps {entry} bytes for a solution that owns {owned}"
        );
    }
}

/// `TreeAsap::place` allocates nothing but the vector it returns, which
/// needs a heap block only for a route of three links or more.
#[test]
fn placing_a_task_on_a_tree_allocates_only_a_long_route() {
    // Node 3 sits three links below the master, the others one or two.
    let tree = Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (2, 1, 1), (0, 3, 1)]).unwrap();
    let mut asap = TreeAsap::new(&tree);
    for (node, blocks) in [(1, 0), (2, 0), (4, 0), (3, 1), (2, 0), (3, 1), (1, 0)] {
        assert_eq!(allocations(|| asap.place(node)), blocks, "a task on node {node}");
    }
}
