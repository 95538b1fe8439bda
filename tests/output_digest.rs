//! Pins the `optimal` solver's outputs on every topology to recorded
//! digests, so a change to how the kernels search (where a deadline
//! search starts, which tree covers it schedules, how it rejects one)
//! cannot change a single byte of what the service answers.
//!
//! Each instance is solved the way `/solve` solves it: through its
//! canonical form, then restored. Three outputs per instance go into an
//! FNV-1a hash of their wire JSON: the makespan solve, which reaches
//! `M`, and the deadline solves at `M` and at `M - 1`. Half the
//! instances have the medium shape of perfbench's solve-cold workload
//! (4–8 processors, 16–64 tasks), half the small shape of
//! `mst_api::fleet::mixed_fleet` (1–5 processors, 1–9 tasks).
//!
//! The expected digests were recorded before the deadline searches
//! started at the one-port lower bound and before trees scheduled each
//! distinct cover once. A deliberate change of output must re-record
//! them and say why.
//!
//! A second pin covers `exact`'s witnesses on small instances, where its
//! exponential search stays cheap. It was recorded while the solver ran
//! a branch-and-bound of its own, before it took the baselines' search.

use master_slave_tasking::api::wire::solution_to_json;
use master_slave_tasking::prelude::*;

/// Instances per topology.
const PER_TOPOLOGY: u64 = 600;

/// Digests for chains, forks, spiders and trees, in
/// `TopologyKind::ALL` order.
const EXPECTED: [u64; 4] =
    [1607338657610389041, 13690371947033514536, 7095228663088634700, 11455681877967488889];

/// FNV-1a, 64-bit: stable across builds and platforms, unlike
/// `std::hash::DefaultHasher`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// splitmix64, so the instance stream needs no RNG crate.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `solver`'s answer to `instance`, solved in canonical form and
/// restored, as the service answers it.
fn served(solver: &str, instance: &Instance, deadline: Option<Time>) -> Solution {
    let registry = SolverRegistry::global();
    let canon = CanonicalInstance::of(instance, solver, deadline);
    let solved = match canon.deadline() {
        Some(t) => registry.solve_by_deadline(solver, canon.instance(), t),
        None => registry.solve(solver, canon.instance()),
    };
    canon.restore(&solved.unwrap_or_else(|e| panic!("{solver} failed on {instance}: {e}")))
}

fn digest(kind: TopologyKind) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..PER_TOPOLOGY {
        let r = mix(i ^ ((kind as u64) << 32));
        let (size, tasks) = if i % 2 == 0 {
            (4 + r % 5, 16 + (r >> 8) % 49)
        } else {
            (1 + r % 5, 1 + (r >> 8) % 9)
        };
        let profile = HeterogeneityProfile::ALL[((r >> 16) % 5) as usize];
        let instance = Instance::generate(kind, profile, mix(r), size as usize, tasks as usize);
        let solved = served("optimal", &instance, None);
        let m = solved.makespan();
        let at = |deadline| served("optimal", &instance, Some(deadline));
        for solution in [solved, at(m), at(m - 1)] {
            hash = fnv1a(hash, solution_to_json(&solution).to_string().as_bytes());
        }
    }
    hash
}

#[test]
fn optimal_outputs_match_the_recorded_digests() {
    let digests = TopologyKind::ALL.map(digest);
    assert_eq!(digests, EXPECTED, "optimal's outputs changed (chain, fork, spider, tree)");
}

/// Small instances per topology for `exact`, whose search is exponential
/// in the task count.
const EXACT_PER_TOPOLOGY: u64 = 150;

/// Digests of `exact`'s witnesses for chains, forks, spiders and trees,
/// in `TopologyKind::ALL` order. The search keeps the first sequence, in
/// search order, that reaches the optimum, so these pin its node order
/// and its prunes as well as the makespan.
const EXACT_EXPECTED: [u64; 4] =
    [13911132912654424337, 10904349046563458689, 7190585750002974791, 15844268433464784765];

/// Sizes 1–4 and 1–6 tasks, cycling through every heterogeneity profile.
fn exact_digest(kind: TopologyKind) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for i in 0..EXACT_PER_TOPOLOGY {
        let r = mix(i ^ ((kind as u64) << 32));
        let (size, tasks) = (1 + r % 4, 1 + (r >> 8) % 6);
        let profile = HeterogeneityProfile::ALL[(i % 5) as usize];
        let instance = Instance::generate(kind, profile, mix(r), size as usize, tasks as usize);
        let solved = served("exact", &instance, None);
        hash = fnv1a(hash, solution_to_json(&solved).to_string().as_bytes());
    }
    hash
}

#[test]
fn exact_witnesses_match_the_recorded_digests() {
    let digests = TopologyKind::ALL.map(exact_digest);
    assert_eq!(digests, EXACT_EXPECTED, "exact's witnesses changed (chain, fork, spider, tree)");
}
