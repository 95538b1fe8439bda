//! Cost of the two Definition-1 judges: the pairwise checker
//! (`O(n^2 p)`) and the reference simulator of `mst_verify::sim` (a
//! route walk plus a sorted claim sweep, `O(n p log(n p))`), relative to
//! producing the schedule itself. Documents that validating every
//! schedule in CI is affordable.

use criterion::{criterion_group, criterion_main, Criterion};
use mst_core::schedule_chain;
use mst_platform::{GeneratorConfig, HeterogeneityProfile, Tree};
use mst_schedule::check_chain;
use mst_verify::sim::{embed_chain, simulate};
use std::hint::black_box;
use std::time::Duration;

fn bench_oracles(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle/n256_p16");
    group.sample_size(10).warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let chain = GeneratorConfig::new(HeterogeneityProfile::ALL[0], 5).chain(16);
    let schedule = schedule_chain(&chain, 256);
    group.bench_function("schedule_chain", |b| {
        b.iter(|| schedule_chain(black_box(&chain), black_box(256)));
    });
    group.bench_function("pairwise_checker", |b| {
        b.iter(|| check_chain(black_box(&chain), black_box(&schedule)));
    });
    // The tree embedding is part of judging a chain schedule this way.
    group.bench_function("reference_simulator", |b| {
        b.iter(|| {
            let tree = Tree::from_chain(black_box(&chain));
            assert!(simulate(&tree, &embed_chain(black_box(&schedule))).accepted());
        });
    });
    group.finish();
}

criterion_group!(oracle_overhead, bench_oracles);
criterion_main!(oracle_overhead);
