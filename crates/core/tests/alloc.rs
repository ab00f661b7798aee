//! Allocation-regression test for the zero-allocation hot path: after a
//! warm-up pass has grown every buffer, a steady-state
//! [`ScratchReducer::run_into`] loop over pre-built graphs must perform
//! **zero** heap allocations per spec. Since the raw-speed pass this is
//! the bitset/SoA engine: live edges and candidates live in reused
//! `u64`-word bitsets and packed degree state words in reused `u64`
//! vectors, so the property covers every one of those buffers.
//!
//! Kept in its own integration-test binary because the counting
//! `#[global_allocator]` is process-global: any unrelated test running in
//! the same binary would disturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use trustseq_core::{fixtures, ReductionOutcome, ScratchReducer, SequencingGraph, Strategy};

/// Counts every allocation and reallocation routed through the global
/// allocator. Frees are not counted — the property under test is "no new
/// heap traffic", and a free without a matching alloc is impossible.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The counter is process-global, so the measuring tests must not overlap:
/// each takes this lock around its measurement window. (std's mutex is
/// const-initialized and allocation-free on lock.)
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Allocations observed across one run of `window`, retried until quiet.
///
/// The lock serialises the measuring tests against each other, but not
/// against the libtest harness itself: its worker threads spawn and report
/// the *other* tests concurrently, and those few startup allocations land
/// in the process-global counter. Re-running the window filters that
/// one-off noise without weakening the property — a real hot-path
/// regression allocates on every pass, so it can never go quiet.
fn measured_allocations(mut window: impl FnMut()) -> u64 {
    let mut observed = u64::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        window();
        observed = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if observed == 0 {
            break;
        }
    }
    observed
}

#[test]
fn steady_state_batch_reduction_does_not_allocate() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Build the graphs up front — construction may allocate freely.
    let graphs: Vec<SequencingGraph> = [
        fixtures::example1().0,
        fixtures::example2().0,
        fixtures::poor_broker().0,
        fixtures::figure7().0,
        fixtures::example2_shared_escrow().0,
    ]
    .iter()
    .map(|spec| SequencingGraph::from_spec(spec).unwrap())
    .collect();

    let mut scratch = ScratchReducer::new();
    let mut out = ReductionOutcome::default();

    // Warm-up: one pass grows every scratch and outcome buffer to the
    // largest shape in the batch.
    for graph in &graphs {
        scratch.run_into(graph, Strategy::Deterministic, &mut out);
    }

    // Steady state: many batch passes, zero heap allocations.
    let mut feasible = 0usize;
    let observed = measured_allocations(|| {
        feasible = 0;
        for _ in 0..100 {
            for graph in &graphs {
                scratch.run_into(graph, Strategy::Deterministic, &mut out);
                feasible += usize::from(out.feasible);
            }
        }
    });

    assert_eq!(
        observed, 0,
        "steady-state reset_for + run_into loop must not allocate"
    );
    // The loop really did the work (example1 and the shared-escrow variant
    // under PAPER semantics: only example1 reduces to feasibility).
    assert_eq!(feasible, 100);
}

/// The observability layer's disabled path (the default: no recorder
/// installed, [`NoopRecorder`] semantics) must cost the hot path nothing:
/// the `obs::enabled()` gate is one relaxed load, so the instrumented
/// steady-state loop stays at zero heap allocations. Guards the tentpole
/// claim that instrumentation is zero-cost when disabled.
#[test]
fn noop_recorder_keeps_instrumented_hot_path_allocation_free() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        !trustseq_core::obs::enabled(),
        "no recorder may be installed in the alloc test binary"
    );
    let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
    let mut scratch = ScratchReducer::new();
    let mut out = ReductionOutcome::default();
    scratch.run_into(&graph, Strategy::Deterministic, &mut out);

    let observed = measured_allocations(|| {
        for _ in 0..500 {
            // Every iteration crosses the instrumentation sites in run_into
            // (worklist tracking, end-of-run metric emission) with recording
            // disabled — and the NoopRecorder itself is exercised directly.
            scratch.run_into(&graph, Strategy::Deterministic, &mut out);
            let noop = trustseq_core::NoopRecorder;
            use trustseq_core::Recorder as _;
            noop.counter("reduce.runs", 1);
            noop.observe("reduce.worklist_peak", 1);
        }
    });
    assert_eq!(
        observed, 0,
        "disabled observability must not allocate on the hot path"
    );
    assert!(out.feasible);
}

/// A graph mid-reduction (example2's infeasible impasse, kept by
/// [`Reducer::run_keeping_graph`]) has dead edges, so
/// `ScratchReducer::reset_for` takes the packed bool→bitset-word path
/// instead of the all-live fast path. That path — and the `u32` degree
/// narrowing that rides with it — must be just as allocation-free.
#[test]
fn partially_reduced_graphs_are_allocation_free_after_warm_up() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (first, stuck) =
        trustseq_core::Reducer::new(SequencingGraph::from_spec(&fixtures::example2().0).unwrap())
            .run_keeping_graph();
    assert!(!first.feasible);
    assert!(
        stuck.live_edge_count() < stuck.edges().len(),
        "the impasse must leave a genuinely partial graph"
    );
    let mut scratch = ScratchReducer::new();
    let mut out = ReductionOutcome::default();
    scratch.run_into(&stuck, Strategy::Deterministic, &mut out);

    let observed = measured_allocations(|| {
        for seed in 0..100 {
            scratch.run_into(&stuck, Strategy::Deterministic, &mut out);
            scratch.run_into(&stuck, Strategy::Randomized { seed }, &mut out);
        }
    });
    assert_eq!(
        observed, 0,
        "packed bitset reset over a partial graph must not allocate"
    );
    assert!(!out.feasible);
}

#[test]
fn randomized_strategy_is_allocation_free_after_warm_up() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let graph = SequencingGraph::from_spec(&fixtures::figure7().0).unwrap();
    let mut scratch = ScratchReducer::new();
    let mut out = ReductionOutcome::default();
    for seed in 0..4 {
        scratch.run_into(&graph, Strategy::Randomized { seed }, &mut out);
    }
    let observed = measured_allocations(|| {
        for seed in 0..64 {
            scratch.run_into(&graph, Strategy::Randomized { seed }, &mut out);
        }
    });
    assert_eq!(
        observed, 0,
        "randomized rescan loop must reuse the move buffer"
    );
}
