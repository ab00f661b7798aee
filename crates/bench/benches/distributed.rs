//! Bench: distributed versus centralised reduction (the §9 extension).
//!
//! Measures the round-based message-passing protocol against the
//! centralised reducer as chains deepen and bundles widen, and prints the
//! round/message counts once per run. A `*_distributed` row is
//! `DistributedReduction::run`: the resilient round loop under the
//! fault-free plan, so every announcement goes through the wire codec and
//! is acknowledged. A `*_centralized` row times only the reduction: one
//! reused `ScratchReducer::run_into` (what `Reducer::run` runs) per pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trustseq_core::{fixtures, ReductionOutcome, ScratchReducer, SequencingGraph, Strategy};
use trustseq_dist::DistributedReduction;
use trustseq_model::Money;
use trustseq_workloads::{broker_chain, bundle_arithmetic};

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed");
    let mut scratch = ScratchReducer::new();
    let mut outcome = ReductionOutcome::default();
    let mut centralized = |graph: &SequencingGraph| {
        scratch.run_into(black_box(graph), Strategy::Deterministic, &mut outcome);
        outcome.feasible
    };

    let (ex1, _) = fixtures::example1();
    println!(
        "distributed example1: {}",
        DistributedReduction::new(&ex1).unwrap().run()
    );
    group.bench_function("example1_distributed", |b| {
        b.iter(|| DistributedReduction::new(black_box(&ex1)).unwrap().run())
    });
    let graph = SequencingGraph::from_spec(&ex1).unwrap();
    group.bench_function("example1_centralized", |b| b.iter(|| centralized(&graph)));

    for depth in [2usize, 4, 8, 16] {
        let (chain, _) = broker_chain(depth, Money::from_dollars(1000), Money::from_dollars(5));
        println!(
            "distributed chain-{depth}: {}",
            DistributedReduction::new(&chain).unwrap().run()
        );
        group.bench_with_input(
            BenchmarkId::new("chain_distributed_depth", depth),
            &depth,
            |b, _| b.iter(|| DistributedReduction::new(black_box(&chain)).unwrap().run()),
        );
        let graph = SequencingGraph::from_spec(&chain).unwrap();
        group.bench_with_input(
            BenchmarkId::new("chain_centralized_depth", depth),
            &depth,
            |b, _| b.iter(|| centralized(&graph)),
        );
    }

    for width in [2usize, 4, 8] {
        let (bundle, _) = bundle_arithmetic(width);
        println!(
            "distributed bundle-{width}: {}",
            DistributedReduction::new(&bundle).unwrap().run()
        );
        group.bench_with_input(
            BenchmarkId::new("bundle_distributed_width", width),
            &width,
            |b, _| b.iter(|| DistributedReduction::new(black_box(&bundle)).unwrap().run()),
        );
    }
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
    targets = bench_distributed
}
criterion_main!(benches);
