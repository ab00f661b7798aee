//! A persistent, lazily-spawned worker pool for sweep fan-out.
//!
//! Every batch driver in the workspace used to pay thread spawn/join on
//! each call (`std::thread::scope` in [`analyze_batch`](crate::analyze_batch),
//! crossbeam scopes in the simulation harness). On sweep-heavy workloads —
//! thousands of small per-spec reductions — the spawn cost rivals the work
//! itself. This pool spawns OS threads once, on first use, and parks them
//! between jobs; a [`broadcast`] hands all waiting workers one borrowed
//! closure, runs index 0 on the calling thread, and returns when every
//! index has finished, so callers keep the ergonomics of scoped borrows
//! without the per-call spawns.
//!
//! # Lifecycle
//!
//! * Threads are spawned lazily: a [`broadcast`] over `w` worker indices
//!   grows the pool to `w - 1` parked threads (index 0 always runs on the
//!   caller). A process that never fans out never spawns a thread.
//! * One job runs at a time (a mutex serializes broadcasts); worker
//!   threads are shared by every subsystem — batch analysis, confluence
//!   sampling, defection sweeps, chaos matrices.
//! * Work distribution *within* a job is the existing atomic-counter
//!   stealing pattern, owned by the callers; the pool only distributes
//!   worker indices.
//! * A panic in any index is caught, the job is still drained, and the
//!   payload is re-thrown on the calling thread — same observable
//!   behaviour as `std::thread::scope`.
//! * Nested broadcasts (a pool worker fanning out again) degrade to
//!   inline serial execution instead of deadlocking on the job mutex.
//!
//! The default fan-out width for sweep drivers is [`size`], settable once
//! at startup via [`set_size`] (the CLI's `--threads N`).

use crate::obs;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// Configured pool width; 0 means "not set, use `available_parallelism`".
static POOL_SIZE: AtomicUsize = AtomicUsize::new(0);

static POOL: OnceLock<Pool> = OnceLock::new();

std::thread_local! {
    /// Set while this thread is executing a broadcast index (as the caller
    /// or as a pool worker): a nested broadcast must run inline rather
    /// than contend for the pool it is already part of.
    static INLINE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The default worker count for sweep drivers: the value set by
/// [`set_size`], or `available_parallelism` when unset.
pub fn size() -> usize {
    match POOL_SIZE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Upper bound accepted by [`set_size`]: each worker index beyond the
/// first pins an OS thread for the life of the process, so widths past
/// this are almost certainly a mis-typed flag. The CLI rejects such
/// values with an error; programmatic callers are clamped.
pub const MAX_WIDTH: usize = 1024;

/// Sets the default worker count reported by [`size`] (clamped to
/// `1..=`[`MAX_WIDTH`]). Call once at startup — already-spawned threads
/// are not reaped, so shrinking mid-run only narrows *future* fan-outs.
pub fn set_size(n: usize) {
    POOL_SIZE.store(n.clamp(1, MAX_WIDTH), Ordering::Relaxed);
}

struct State {
    /// The current job's closure, lifetime-erased; `None` between jobs.
    job: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Worker-index count of the current job (index 0 runs on the caller).
    workers: usize,
    /// Indices of the current job not yet claimed.
    remaining: usize,
    /// Claimed indices still executing.
    active: usize,
    /// First panic payload caught in a pool worker, re-thrown by the
    /// broadcaster once the job has drained.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Worker threads spawned so far (grows lazily, never shrinks).
    threads: usize,
}

// Aligned to a 128-byte adjacent-line pair so the split of these hot
// locks across cache lines does not depend on where the linker puts the
// static. Unaligned, the `hotpath` bench's no-op `dispatch_pooled` job
// ran at either about 3 µs or about 7 µs, depending on the build.
#[repr(align(128))]
struct Pool {
    /// Serializes broadcasts: one job owns the worker threads at a time.
    scope: Mutex<()>,
    state: Mutex<State>,
    /// Signals parked workers that a job (or more of one) is available.
    work: Condvar,
    /// Signals the broadcaster that the job has fully drained.
    done: Condvar,
}

impl Pool {
    fn new() -> Self {
        Pool {
            scope: Mutex::new(()),
            state: Mutex::new(State {
                job: None,
                workers: 0,
                remaining: 0,
                active: 0,
                panic: None,
                threads: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Erases the closure's borrow lifetime so parked worker threads (which
/// are `'static`) can call it.
///
/// SAFETY: the only caller is [`broadcast`], which stores the result in
/// the pool's job slot and does not return (or resume a panic) until
/// every claimed index has finished (`remaining == 0 && active == 0`) and
/// the slot is cleared — all under the scope mutex that serializes jobs.
/// No worker can observe the reference once `broadcast` returns, so the
/// borrow never outlives the real closure.
#[allow(unsafe_code)]
fn erase<'a>(f: &'a (dyn Fn(usize) + Sync)) -> &'static (dyn Fn(usize) + Sync) {
    unsafe { std::mem::transmute::<&'a (dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f) }
}

fn worker_loop() {
    // A pool worker is always "inside" a broadcast: if the job it runs
    // fans out again, that inner broadcast must go inline.
    INLINE.with(|b| b.set(true));
    let pool = POOL.get().expect("pool is initialized before spawning");
    let mut st = pool.lock_state();
    loop {
        if st.remaining > 0 {
            let job = st.job.expect("remaining > 0 implies an active job");
            let index = st.workers - st.remaining;
            st.remaining -= 1;
            st.active += 1;
            drop(st);
            let busy = obs::enabled().then(obs::Span::wall);
            let result = catch_unwind(AssertUnwindSafe(|| job(index)));
            if let Some(span) = busy {
                span.finish("pool.worker_busy_ns", None);
            }
            st = pool.lock_state();
            st.active -= 1;
            if let Err(payload) = result {
                st.panic.get_or_insert(payload);
            }
            if st.remaining == 0 && st.active == 0 {
                pool.done.notify_all();
            }
            continue;
        }
        st = pool.work.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

/// Runs `f(0)`, `f(1)`, …, `f(workers - 1)`, each exactly once, with
/// indices ≥ 1 distributed over the persistent pool threads and index 0 on
/// the calling thread. Returns once every index has finished. `f` may
/// borrow freely from the caller's stack (the pool never retains it).
///
/// `workers <= 1`, a nested call from inside a pool job, and single-width
/// pools all run every index inline on the caller — no threads, no locks.
///
/// # Panics
///
/// Re-throws the first panic raised by any index, after the job drains.
pub fn broadcast(workers: usize, f: &(dyn Fn(usize) + Sync)) {
    if workers <= 1 || INLINE.with(|b| b.get()) {
        for i in 0..workers {
            f(i);
        }
        return;
    }
    // Dispatch latency covers queueing for the scope mutex through full
    // drain — the end-to-end cost a sweep driver pays per fan-out.
    let dispatch = obs::enabled().then(obs::Span::wall);
    let pool = POOL.get_or_init(Pool::new);
    let guard = pool.scope.lock().unwrap_or_else(|e| e.into_inner());
    let job = erase(f);
    {
        let mut st = pool.lock_state();
        debug_assert!(st.job.is_none() && st.active == 0 && st.remaining == 0);
        while st.threads < workers - 1 {
            st.threads += 1;
            std::thread::Builder::new()
                .name(format!("trustseq-pool-{}", st.threads))
                .spawn(worker_loop)
                .expect("spawning a pool worker thread");
        }
        st.job = Some(job);
        st.workers = workers;
        st.remaining = workers - 1;
        st.panic = None;
    }
    pool.work.notify_all();

    INLINE.with(|b| b.set(true));
    let caller_busy = obs::enabled().then(obs::Span::wall);
    let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
    if let Some(span) = caller_busy {
        span.finish("pool.worker_busy_ns", None);
    }
    INLINE.with(|b| b.set(false));

    let mut st = pool.lock_state();
    while st.remaining > 0 || st.active > 0 {
        st = pool.done.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.job = None;
    let worker_panic = st.panic.take();
    drop(st);
    drop(guard);
    if let Some(span) = dispatch {
        span.finish("pool.dispatch_ns", None);
        let panics = u64::from(caller_result.is_err()) + u64::from(worker_panic.is_some());
        obs::with(|r| {
            r.counter("pool.jobs", 1);
            r.observe("pool.width", workers as u64);
            if panics > 0 {
                r.counter("pool.panics", panics);
            }
        });
    }
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// [`broadcast`] for jobs that produce results: each index's output vector
/// is collected and the concatenation is returned in worker-index order.
pub fn broadcast_collect<T, F>(workers: usize, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> Vec<T> + Sync,
{
    if workers <= 1 {
        return (0..workers).flat_map(f).collect();
    }
    let slots: Vec<Mutex<Vec<T>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
    broadcast(workers, &|i| {
        *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = f(i);
    });
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().unwrap_or_else(|e| e.into_inner()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn every_index_runs_exactly_once() {
        for workers in [0usize, 1, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            broadcast(workers, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} of {workers}");
            }
        }
    }

    #[test]
    fn broadcasts_reuse_the_pool_across_jobs() {
        let total = AtomicU64::new(0);
        for round in 0..50u64 {
            broadcast(4, &|i| {
                total.fetch_add(round + i as u64, Ordering::Relaxed);
            });
        }
        let expected: u64 = (0..50u64).map(|r| 4 * r + 6).sum();
        assert_eq!(total.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn collect_concatenates_in_index_order() {
        let out = broadcast_collect(3, &|i| vec![i * 10, i * 10 + 1]);
        assert_eq!(out, vec![0, 1, 10, 11, 20, 21]);
    }

    #[test]
    fn nested_broadcast_runs_inline() {
        let inner_total = AtomicUsize::new(0);
        broadcast(2, &|_| {
            broadcast(3, &|j| {
                inner_total.fetch_add(j + 1, Ordering::Relaxed);
            });
        });
        // Two outer indices each run the inner job over 3 indices.
        assert_eq!(inner_total.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn panics_propagate_after_the_job_drains() {
        let survivors = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            broadcast(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
                survivors.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        assert_eq!(survivors.load(Ordering::Relaxed), 3);
        // The pool is still usable afterwards.
        let ok = AtomicUsize::new(0);
        broadcast(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn size_is_at_least_one() {
        assert!(size() >= 1);
    }
}
