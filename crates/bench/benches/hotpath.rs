//! Bench: the zero-allocation hot path (E22) and the raw-speed pass —
//! persistent-pool fan-out versus per-call scoped spawns, the reused
//! bitset/SoA scratch reducer versus a fresh owning reducer, and the
//! bounded-memory streaming sweep versus the materialized driver.
//!
//! Comparisons, all over the E19 trust-density spec corpus:
//!
//! * `batch_pooled` vs `batch_scoped_spawn` — the same work-stealing
//!   feasibility sweep, fanned out once through the persistent
//!   [`trustseq_core::pool`] versus through a fresh `std::thread::scope`
//!   (one OS thread spawn + join per worker per call, the pre-pool shape
//!   of every sweep driver in the workspace).
//! * `dispatch_pooled` vs `dispatch_scoped_spawn` — the fan-out primitive
//!   alone on a no-op job, isolating spawn/park cost from the reduction
//!   work.
//! * `reduce_scratch` vs `reduce_owning` — a single spec reduced through
//!   a reused bitset/SoA [`ScratchReducer`] (live edges and candidates in
//!   `u64` bitset words, packed per-node state words) and through a fresh
//!   `Reducer::new(graph.clone())` per iteration, which runs the same
//!   engine plus a graph clone and fresh buffers. `elements` carries the
//!   reduction-step count, so the JSON yields explicit reductions/sec.
//! * `reduce_corpus_scratch` — the scratch engine walking the whole
//!   mixed-density corpus on one thread, the representative single-thread
//!   reduction-throughput figure.
//! * `sweep_materialized` vs `sweep_streaming` — the feasibility-rate
//!   sweep with the whole corpus resident versus the chunked streaming
//!   driver; a byte-tracking global allocator asserts in-bench that the
//!   streaming peak stays a small fraction of the materialized peak on a
//!   corpus ≥10× the chunk budget.
//!
//! Fan-out width is pinned to [`WORKERS`] so the pooled/scoped comparison
//! measures dispatch mechanics, not the host's core count — on a 1-core
//! host both variants oversubscribe identically. In-bench asserts pin
//! both fan-outs to byte-identical outcomes and the scratch engine to the
//! naive rescan oracle.
//!
//! `TRUSTSEQ_BENCH_QUICK=1` shrinks the workload and the measurement
//! windows for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use trustseq_core::{pool, Reducer, ReductionOutcome, ScratchReducer, SequencingGraph, Strategy};
use trustseq_model::ExchangeSpec;
use trustseq_workloads::{feasibility_rate_cached, random_exchange, sweep_streaming, RandomConfig};

/// Fixed fan-out width for the pooled/scoped comparison (see
/// module docs).
const WORKERS: usize = 4;

/// Tracks live and peak heap bytes so the streaming-sweep bench can assert
/// its bounded-memory claim instead of merely stating it. Relaxed atomics:
/// worker threads race the peak update by a few bytes at most, far inside
/// the 4× assertion margin.
struct TrackingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates verbatim to `System`; the counters are relaxed atomics
// with no allocation of their own.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// Peak heap growth (bytes above the starting live set) across `body`.
fn peak_growth(body: impl FnOnce()) -> usize {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(base, Ordering::Relaxed);
    body();
    PEAK_BYTES.load(Ordering::Relaxed).saturating_sub(base)
}

fn quick() -> bool {
    std::env::var("TRUSTSEQ_BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn corpus() -> Vec<SequencingGraph> {
    let densities: &[f64] = if quick() {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };
    let samples = if quick() { 15 } else { 60 };
    let specs: Vec<ExchangeSpec> = densities
        .iter()
        .flat_map(|&d| (0..samples).map(move |seed| (d, seed)))
        .map(|(trust_density, seed)| {
            random_exchange(&RandomConfig {
                width: 2,
                max_depth: 8,
                trust_density,
                seed,
                ..Default::default()
            })
            .spec
        })
        .collect();
    specs
        .iter()
        .map(|s| SequencingGraph::from_spec(s).unwrap())
        .collect()
}

/// The shared work-stealing sweep body: claims graphs off an atomic
/// counter and reduces each through the worker's scratchpad. Identical
/// for both fan-out variants, so the bench isolates the dispatch cost.
fn sweep_worker(
    graphs: &[SequencingGraph],
    next: &AtomicUsize,
    results: &[Mutex<Option<ReductionOutcome>>],
) {
    let mut scratch = ScratchReducer::new();
    let mut out = ReductionOutcome::default();
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(graph) = graphs.get(i) else { break };
        scratch.run_into(graph, Strategy::Deterministic, &mut out);
        *results[i].lock().unwrap() = Some(out.clone());
    }
}

fn sweep_pooled(graphs: &[SequencingGraph]) -> Vec<ReductionOutcome> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<ReductionOutcome>>> =
        graphs.iter().map(|_| Mutex::new(None)).collect();
    pool::broadcast(WORKERS, &|_| sweep_worker(graphs, &next, &results));
    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot claimed"))
        .collect()
}

fn sweep_scoped_spawn(graphs: &[SequencingGraph]) -> Vec<ReductionOutcome> {
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<ReductionOutcome>>> =
        graphs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 1..WORKERS {
            scope.spawn(|| sweep_worker(graphs, &next, &results));
        }
        sweep_worker(graphs, &next, &results);
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("every slot claimed"))
        .collect()
}

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath");
    let graphs = corpus();
    group.throughput(Throughput::Elements(graphs.len() as u64));

    // Both fan-outs must produce byte-identical sweeps (traces included):
    // dispatch changes scheduling, never results.
    assert_eq!(sweep_pooled(&graphs), sweep_scoped_spawn(&graphs));

    group.bench_function("batch_pooled", |b| {
        b.iter(|| sweep_pooled(black_box(&graphs)))
    });
    group.bench_function("batch_scoped_spawn", |b| {
        b.iter(|| sweep_scoped_spawn(black_box(&graphs)))
    });

    // The fan-out primitive alone: a no-op job at the same width.
    group.bench_function("dispatch_pooled", |b| {
        b.iter(|| {
            pool::broadcast(WORKERS, &|i| {
                black_box(i);
            })
        })
    });
    group.bench_function("dispatch_scoped_spawn", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for i in 1..WORKERS {
                    scope.spawn(move || black_box(i));
                }
                black_box(0usize);
            })
        })
    });

    // Per-spec reduction: a reused scratchpad versus a fresh owning
    // reducer, both checked byte-for-byte against the naive rescan oracle
    // on the densest corpus graph.
    let dense = &graphs[graphs.len() - 1];
    let mut scratch = ScratchReducer::new();
    let mut out = ReductionOutcome::default();
    scratch.run_into(dense, Strategy::Deterministic, &mut out);
    let dense_reductions = out.trace.len() as u64;
    let naive = Reducer::new(dense.clone()).run_naive();
    assert_eq!(&out, &naive);
    assert_eq!(&Reducer::new(dense.clone()).run(), &naive);
    // `elements` = reduction steps per pass, so every `reduce_*` entry in
    // the emitted JSON yields an explicit reductions/sec figure
    // (elements / mean_ns).
    group.throughput(Throughput::Elements(dense_reductions));
    group.bench_function("reduce_scratch", |b| {
        b.iter(|| scratch.run_into(black_box(dense), Strategy::Deterministic, &mut out))
    });
    group.bench_function("reduce_owning", |b| {
        b.iter(|| Reducer::new(black_box(dense.clone())).run())
    });

    // Corpus-level single-thread reduction throughput: one scratchpad
    // walking every corpus graph serially. The mixed-density corpus is
    // mostly early-exit infeasible graphs — where memcpy seeding and
    // word-granular scans pay off hardest — with the dense feasible tail
    // contributing the bulk of the actual reduction steps.
    let corpus_reductions: u64 = graphs
        .iter()
        .map(|g| {
            scratch.run_into(g, Strategy::Deterministic, &mut out);
            out.trace.len() as u64
        })
        .sum();
    group.throughput(Throughput::Elements(corpus_reductions));
    group.bench_function("reduce_corpus_scratch", |b| {
        b.iter(|| {
            for g in &graphs {
                scratch.run_into(black_box(g), Strategy::Deterministic, &mut out);
            }
        })
    });

    // Streaming versus materialized sweep: same rate, bounded residency.
    // The corpus is >=10x the chunk budget, so a streaming driver that
    // secretly materialized would blow the peak-bytes assertion below.
    let stream_config = RandomConfig {
        width: 2,
        max_depth: 6,
        trust_density: 0.5,
        ..Default::default()
    };
    let (stream_samples, stream_chunk) = if quick() {
        (160u64, 16usize)
    } else {
        (640, 32)
    };
    assert!(stream_samples >= 10 * stream_chunk as u64);
    let mut materialized_rate = 0.0;
    let materialized_peak = peak_growth(|| {
        materialized_rate = feasibility_rate_cached(&stream_config, stream_samples, None);
    });
    let mut report = None;
    let streaming_peak = peak_growth(|| {
        report = Some(sweep_streaming(
            &stream_config,
            stream_samples,
            stream_chunk,
            None,
        ));
    });
    let report = report.unwrap();
    assert_eq!(
        report.rate(),
        materialized_rate,
        "chunking changed a verdict"
    );
    assert_eq!(report.chunks, stream_samples.div_ceil(stream_chunk as u64));
    assert!(
        streaming_peak * 4 <= materialized_peak,
        "streaming peak {streaming_peak} B must stay well under the \
         materialized peak {materialized_peak} B on a {}x corpus",
        stream_samples / stream_chunk as u64
    );
    eprintln!(
        "streaming residency: {streaming_peak} B peak vs {materialized_peak} B materialized \
         ({} samples, chunk {stream_chunk}, {:.1}x less memory)",
        stream_samples,
        materialized_peak as f64 / streaming_peak as f64
    );

    group.throughput(Throughput::Elements(stream_samples));
    group.bench_function("sweep_materialized", |b| {
        b.iter(|| feasibility_rate_cached(black_box(&stream_config), stream_samples, None))
    });
    group.bench_function("sweep_streaming", |b| {
        b.iter(|| {
            sweep_streaming(
                black_box(&stream_config),
                stream_samples,
                stream_chunk,
                None,
            )
        })
    });

    group.finish();
    eprintln!(
        "hotpath: width {WORKERS}, default pool size {} (available parallelism {})",
        pool::size(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
}

fn configured() -> Criterion {
    let (warm_ms, measure_ms) = if quick() { (50, 150) } else { (300, 900) };
    Criterion::default()
        .sample_size(if quick() { 10 } else { 20 })
        .warm_up_time(std::time::Duration::from_millis(warm_ms))
        .measurement_time(std::time::Duration::from_millis(measure_ms))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_hotpath
}
criterion_main!(benches);
