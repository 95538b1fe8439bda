//! Task memory: a communication vector of at most two links lives inside
//! its task, so a solution whose tasks all cross one or two links owns
//! no heap block per task. Copying, restoring and decoding such a
//! solution then allocate per solution, whatever its task count.
//!
//! A counting global allocator tallies the allocations each call makes
//! on the calling thread, so tests running in parallel do not disturb
//! each other's counts. Implementing `GlobalAlloc` takes `unsafe`, so
//! the test lives in `mst-sim`, one of the two crates audited for unsafe
//! code.

use mst_api::wire::{solution_from_text, solution_to_json};
use mst_api::{CanonicalInstance, Instance, Platform, ScheduleRepr, Solution, SolverRegistry};
use mst_platform::{Chain, Fork, Spider};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn tally() {
    // A const-initialised `Cell` needs no allocation and no destructor,
    // so the allocator may touch it at any point of a thread's life.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to the system allocator
// unchanged, so `Counting` upholds `GlobalAlloc`'s contract as `System`
// does; counting touches only a thread-local integer.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
