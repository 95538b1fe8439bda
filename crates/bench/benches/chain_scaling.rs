//! T2 (chain half): the `O(n p^2)` complexity claim, measured.
//!
//! Two sweeps — runtime vs `n` at fixed `p` (expected linear) and vs `p`
//! at fixed `n` — plus the cost of ties. Every backward step takes the
//! candidate front, which builds only the candidates tied on it: on a
//! heterogeneous chain ties are rare and a step is about `O(p)`, while a
//! homogeneous chain ties every candidate, the `O(p^2)` worst case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mst_core::schedule_chain;
use mst_platform::{GeneratorConfig, HeterogeneityProfile};
use std::hint::black_box;
use std::time::Duration;

fn configure(c: &mut Criterion) -> &mut Criterion {
    c
}

fn bench_scaling_in_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain/scaling_in_n_p16");
    group.sample_size(10).warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let chain = GeneratorConfig::new(HeterogeneityProfile::ALL[0], 42).chain(16);
    for n in [64usize, 128, 256, 512, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| schedule_chain(black_box(&chain), black_box(n)));
        });
    }
    group.finish();
}

fn bench_scaling_in_p(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain/scaling_in_p_n256");
    group.sample_size(10).warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    for p in [4usize, 8, 16, 32, 64] {
        let chain = GeneratorConfig::new(HeterogeneityProfile::ALL[0], 42).chain(p);
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| schedule_chain(black_box(&chain), black_box(256)));
        });
    }
    group.finish();
}

fn bench_front_ties(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain/front_ties");
    group.sample_size(10).warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_millis(600));
    let chain = GeneratorConfig::new(HeterogeneityProfile::ALL[0], 42).chain(32);
    group.bench_function("heterogeneous_p32_n512", |b| {
        b.iter(|| schedule_chain(black_box(&chain), black_box(512)));
    });
    // Tie-heavy homogeneous chain: every candidate ties on the front.
    let homo = GeneratorConfig::new(HeterogeneityProfile::Homogeneous { c: 2, w: 3 }, 1).chain(32);
    group.bench_function("homogeneous_p32_n512", |b| {
        b.iter(|| schedule_chain(black_box(&homo), black_box(512)));
    });
    group.finish();
}

fn benches(c: &mut Criterion) {
    let c = configure(c);
    bench_scaling_in_n(c);
    bench_scaling_in_p(c);
    bench_front_ties(c);
}

criterion_group!(chain_scaling, benches);
criterion_main!(chain_scaling);
