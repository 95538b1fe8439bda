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

/// `optimal`'s answer to `instance`, solved in canonical form and
/// restored, as the service answers it.
fn served(instance: &Instance, deadline: Option<Time>) -> Solution {
    let registry = SolverRegistry::global();
    let canon = CanonicalInstance::of(instance, "optimal", deadline);
    let solved = match canon.deadline() {
        Some(t) => registry.solve_by_deadline("optimal", canon.instance(), t),
        None => registry.solve("optimal", canon.instance()),
    };
    canon.restore(&solved.unwrap_or_else(|e| panic!("optimal failed on {instance}: {e}")))
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
        let solved = served(&instance, None);
        let m = solved.makespan();
        for solution in [solved, served(&instance, Some(m)), served(&instance, Some(m - 1))] {
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
