//! The bounded, sharded MPSC request queue between connection readers and
//! the worker pool.
//!
//! One sub-queue per worker keeps resident-structure routing (`id %
//! workers`) lock-disjoint across workers and gives each structure a
//! single-consumer FIFO: every request for a given structure lands in the
//! same shard and is drained by the same worker, in arrival order. The
//! bound is the backpressure surface — [`ShardedQueue::try_push`] never
//! blocks and never buffers past the cap, so an overloaded server sheds
//! with a typed rejection instead of growing its heap.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A bounded multi-producer queue split into per-worker FIFO shards.
#[derive(Debug)]
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity: usize,
    len: AtomicUsize,
}

#[derive(Debug)]
struct Shard<T> {
    state: Mutex<ShardState<T>>,
    ready: Condvar,
}

#[derive(Debug)]
struct ShardState<T> {
    items: VecDeque<T>,
    /// Consumers parked in `ready.wait_timeout`. A consumer raises it in
    /// the same critical section as its emptiness check, and the wait
    /// releases the lock atomically, so a push that reads zero under the
    /// lock comes before that check and its item is seen: no wakeup is
    /// lost. A push to a shard nobody waits on skips `notify_one`, which
    /// is a futex syscall on Linux even with no waiter.
    waiters: usize,
}

impl<T> Shard<T> {
    fn lock(&self) -> MutexGuard<'_, ShardState<T>> {
        // Every update below leaves `items` and `waiters` consistent, so a
        // guard recovered from a panicked holder is still valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> ShardedQueue<T> {
    /// A queue with `shards` sub-queues of `capacity` slots each. Both are
    /// clamped to at least 1.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        items: VecDeque::new(),
                        waiters: 0,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
            capacity: capacity.max(1),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of sub-queues.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total queued items across all shards (racy snapshot, for stats and
    /// drain polling).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the racy total is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, shard: usize) -> &Shard<T> {
        &self.shards[shard % self.shards.len()]
    }

    /// Enqueues onto `shard % shards`, or hands `item` straight back when
    /// that shard is at capacity — the caller turns that into a typed
    /// `Rejected { reason: Overloaded }` instead of waiting.
    pub fn try_push(&self, shard: usize, item: T) -> Result<(), T> {
        let shard = self.shard(shard);
        let mut state = shard.lock();
        if state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        self.len.fetch_add(1, Ordering::Relaxed);
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            shard.ready.notify_one();
        }
        Ok(())
    }

    /// Enqueues `items` in order onto `shard % shards` under one lock,
    /// until the shard is full. Returns how many it took; those leave the
    /// front of `items`, and the overflow stays behind in order. Like
    /// [`try_push`](Self::try_push) it wakes one parked consumer: a shard
    /// has one.
    pub fn push_all(&self, shard: usize, items: &mut Vec<T>) -> usize {
        let shard = self.shard(shard);
        let mut state = shard.lock();
        let take = self
            .capacity
            .saturating_sub(state.items.len())
            .min(items.len());
        state.items.extend(items.drain(..take));
        self.len.fetch_add(take, Ordering::Relaxed);
        let wake = take > 0 && state.waiters > 0;
        drop(state);
        if wake {
            shard.ready.notify_one();
        }
        take
    }

    /// Moves up to `max` items from `shard % shards` onto the end of `out`
    /// in FIFO order, waiting up to `timeout` for the first one. Moves
    /// nothing on timeout, so the worker can poll its stop flag.
    pub fn pop_into(&self, shard: usize, max: usize, timeout: Duration, out: &mut Vec<T>) {
        let shard = self.shard(shard);
        let mut state = shard.lock();
        if state.items.is_empty() {
            state.waiters += 1;
            state = shard
                .ready
                .wait_timeout(state, timeout)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            state.waiters -= 1;
        }
        let take = state.items.len().min(max.max(1));
        out.extend(state.items.drain(..take));
        drop(state);
        self.len.fetch_sub(take, Ordering::Relaxed);
    }

    /// [`pop_into`](Self::pop_into) a fresh vector: empty on timeout.
    pub fn pop_batch(&self, shard: usize, max: usize, timeout: Duration) -> Vec<T> {
        let mut batch = Vec::new();
        self.pop_into(shard, max, timeout, &mut batch);
        batch
    }

    /// Wakes every waiting consumer (shutdown kick: workers re-check their
    /// stop flag instead of sleeping out their timeout).
    pub fn notify_all(&self) {
        for shard in &self.shards {
            shard.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn push_pop_is_fifo_per_shard() {
        let q = ShardedQueue::new(2, 8);
        for i in 0..5 {
            q.try_push(0, i).unwrap();
        }
        q.try_push(1, 99).unwrap();
        assert_eq!(q.len(), 6);
        let batch = q.pop_batch(0, 3, Duration::from_millis(1));
        assert_eq!(batch, vec![0, 1, 2]);
        let rest = q.pop_batch(0, 16, Duration::from_millis(1));
        assert_eq!(rest, vec![3, 4]);
        assert_eq!(q.pop_batch(1, 16, Duration::from_millis(1)), vec![99]);
        assert!(q.is_empty());
    }

    #[test]
    fn full_shard_returns_the_item() {
        let q = ShardedQueue::new(1, 2);
        q.try_push(0, 'a').unwrap();
        q.try_push(0, 'b').unwrap();
        assert_eq!(q.try_push(0, 'c'), Err('c'));
        assert_eq!(q.len(), 2);
        // Draining one slot reopens the shard.
        assert_eq!(q.pop_batch(0, 1, Duration::from_millis(1)), vec!['a']);
        q.try_push(0, 'c').unwrap();
    }

    #[test]
    fn empty_pop_times_out_and_notify_wakes_waiters() {
        let q = Arc::new(ShardedQueue::<u32>::new(1, 4));
        assert!(q.pop_batch(0, 4, Duration::from_millis(5)).is_empty());
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch(0, 4, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.notify_all();
        assert!(waiter.join().unwrap().is_empty());
    }

    #[test]
    fn push_all_takes_what_fits_and_leaves_the_overflow_in_order() {
        let q = ShardedQueue::new(2, 4);
        q.try_push(0, 0).unwrap();
        let mut items = vec![1, 2, 3, 4, 5];
        assert_eq!(q.push_all(0, &mut items), 3);
        assert_eq!(items, vec![4, 5], "the overflow keeps frame order");
        assert_eq!(q.len(), 4);
        // A full shard takes nothing and leaves the batch untouched.
        assert_eq!(q.push_all(0, &mut items), 0);
        assert_eq!(items, vec![4, 5]);
        // Another shard is independent and takes the whole batch.
        assert_eq!(q.push_all(1, &mut items), 2);
        assert!(items.is_empty());
        assert_eq!(q.push_all(1, &mut items), 0);
        assert_eq!(q.len(), 6);
        assert_eq!(
            q.pop_batch(0, 16, Duration::from_millis(1)),
            vec![0, 1, 2, 3]
        );
        assert_eq!(q.len(), 2);
        let mut out = vec![9];
        q.pop_into(1, 16, Duration::from_millis(1), &mut out);
        assert_eq!(out, vec![9, 4, 5], "pop_into appends");
        assert!(q.is_empty());
    }

    /// The lost-wakeup race: the producer pushes the moment the consumer
    /// has drained the previous item, while the consumer is on its way
    /// back into the wait. A push that skipped a needed notify would leave
    /// the consumer asleep for its whole 5 s timeout; the 1 s bound turns
    /// that into a failure instead of a hang.
    #[test]
    fn a_push_racing_the_consumer_into_its_wait_always_wakes_it() {
        const ROUNDS: u64 = 100_000;
        let q = Arc::new(ShardedQueue::<u64>::new(1, 4));
        let drained = Arc::new(AtomicU64::new(0));
        let consumer = {
            let (q, drained) = (Arc::clone(&q), Arc::clone(&drained));
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                for round in 0..ROUNDS {
                    let start = Instant::now();
                    while batch.is_empty() {
                        // A spurious wakeup returns empty; keep waiting
                        // inside the same 1 s budget.
                        q.pop_into(0, 4, Duration::from_secs(5), &mut batch);
                        assert!(
                            start.elapsed() < Duration::from_secs(1),
                            "round {round}: the push did not wake the consumer"
                        );
                    }
                    assert_eq!(batch, [round]);
                    batch.clear();
                    drained.store(round + 1, Ordering::Release);
                }
            })
        };
        'rounds: for round in 0..ROUNDS {
            while drained.load(Ordering::Acquire) < round {
                if consumer.is_finished() {
                    break 'rounds; // it failed; its panic is reported below
                }
                std::thread::yield_now();
            }
            q.try_push(0, round).unwrap();
        }
        consumer.join().unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn shard_index_wraps() {
        let q = ShardedQueue::new(3, 4);
        q.try_push(7, 1u8).unwrap(); // 7 % 3 == 1
        assert_eq!(q.pop_batch(4, 4, Duration::from_millis(1)), vec![1]);
    }
}
