//! Bench: algorithm scaling (E11) — reduction, synthesis and the Petri
//! cross-check as exchanges grow.
//!
//! Sweeps chain depth, bundle width and random-topology size, plus the
//! feasibility-rate-versus-trust-density measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use trustseq_core::{analyze, confluence_check, synthesize, Reducer, SequencingGraph};
use trustseq_model::Money;
use trustseq_workloads::{
    broker_chain, bundle_arithmetic, feasibility_rate, random_exchange, RandomConfig,
};

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");

    for depth in [1usize, 2, 4, 8, 16, 32] {
        let (spec, _) = broker_chain(depth, Money::from_dollars(10_000), Money::from_dollars(1));
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        group.throughput(Throughput::Elements(graph.initial_edge_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("reduce_chain_depth", depth),
            &depth,
            |b, _| b.iter(|| Reducer::new(black_box(graph.clone())).run()),
        );
        group.bench_with_input(
            BenchmarkId::new("synthesize_chain_depth", depth),
            &depth,
            |b, _| b.iter(|| synthesize(black_box(&spec)).unwrap()),
        );
    }

    for width in [2usize, 4, 8, 16, 32] {
        let (spec, _) = bundle_arithmetic(width);
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        group.throughput(Throughput::Elements(graph.initial_edge_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("reduce_bundle_width", width),
            &width,
            |b, _| b.iter(|| Reducer::new(black_box(graph.clone())).run()),
        );
    }

    // The bitset scratch engine (behind `Reducer::run`) vs. the naive
    // rescan oracle on random topologies: same traces, different per-step
    // cost (O(neighbourhood) vs. O(edges)).
    for (width, depth) in [(2usize, 2usize), (4, 3), (8, 4), (12, 5)] {
        let ex = random_exchange(&RandomConfig {
            width,
            max_depth: depth,
            trust_density: 0.3,
            seed: 11,
            ..Default::default()
        });
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        group.throughput(Throughput::Elements(graph.initial_edge_count() as u64));
        group.bench_with_input(
            BenchmarkId::new("reduce_random", format!("w{width}d{depth}")),
            &width,
            |b, _| b.iter(|| Reducer::new(black_box(graph.clone())).run()),
        );
        group.bench_with_input(
            BenchmarkId::new("reduce_random_naive", format!("w{width}d{depth}")),
            &width,
            |b, _| b.iter(|| Reducer::new(black_box(graph.clone())).run_naive()),
        );
    }

    for n in [2usize, 4, 8, 16] {
        let (spec, _) = trustseq_workloads::assembly_market(
            n,
            Money::from_dollars(1000),
            Money::from_dollars(5),
        );
        group.bench_with_input(
            BenchmarkId::new("synthesize_assembly_parts", n),
            &n,
            |b, _| b.iter(|| synthesize(black_box(&spec)).unwrap()),
        );
    }

    // Confluence check (25 random orders) on Example #2's graph.
    let (ex2, _) = trustseq_core::fixtures::example2();
    group.bench_function("confluence_example2_25_orders", |b| {
        b.iter(|| confluence_check(black_box(&ex2), 25).unwrap())
    });

    // Feasibility rate vs trust density (printed once per run).
    for density in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let rate = feasibility_rate(
            &RandomConfig {
                width: 2,
                max_depth: 2,
                trust_density: density,
                ..Default::default()
            },
            40,
        );
        println!("feasibility rate @ trust density {density}: {rate:.2}");
    }
    // One element per analyzed sample: the parallel sweep's throughput is
    // samples per second across the worker pool.
    group.throughput(Throughput::Elements(40));
    group.bench_function("feasibility_rate_40_samples", |b| {
        b.iter(|| {
            feasibility_rate(
                &RandomConfig {
                    width: 2,
                    max_depth: 2,
                    trust_density: 0.5,
                    ..Default::default()
                },
                black_box(40),
            )
        })
    });

    // Petri cross-check cost on Example #1.
    let (ex1, _) = trustseq_core::fixtures::example1();
    let net = trustseq_petri::compile::compile(&ex1).unwrap();
    group.bench_function("petri_coverability_example1", |b| {
        b.iter(|| {
            trustseq_petri::coverable(
                black_box(&net.net),
                black_box(&net.initial),
                black_box(&net.goal),
                1_000_000,
            )
            .unwrap()
        })
    });
    // And the sanity check that graph analysis is cheap in comparison.
    group.bench_function("graph_feasibility_example1", |b| {
        b.iter(|| analyze(black_box(&ex1)).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows keep the full suite's wall time
    // reasonable; the measured functions are deterministic.
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900));
    targets = bench_scaling
}
criterion_main!(benches);
