//! The always-on analysis server: accept loop, admission-control ladder,
//! and the pipelined worker engine.
//!
//! # Architecture
//!
//! ```text
//!  accept loop (pool index 0, non-blocking)
//!     │ spawns one reader thread per connection
//!     ▼
//!  reader: read() → FrameDecoder (capped; frames lent, not copied)
//!     │ per frame: ServiceRequest → drain? → quota?   (typed Rejected replies)
//!     │ after the read's last frame: one push per shard, under one lock;
//!     │ what a full shard refuses is shed as overloaded, in frame order
//!     ▼
//!  ShardedQueue — bounded, one FIFO shard per worker, id % workers
//!     │ a push wakes the shard's worker only if it is parked
//!     ▼
//!  workers (pool indices 1..=W): pop ≤ 64 into a worker-owned buffer;
//!     │ resident Stalls; AnalysisCache for specs; replies encoded in place
//!     │ into one reused output buffer, one write per connection run
//!     ▼
//!  writer half (shared Mutex<Conn> per connection, write deadline)
//! ```
//!
//! The fixed per-request path — decode, parse, admission, handoff, reply
//! encoding — makes no heap allocation and no syscall of its own once a
//! connection's buffers have grown: the syscalls are the reads, the
//! writes, and a wakeup when a worker actually sleeps. A read's frames are
//! never held back for a later read, so batching the handoff adds no wait
//! to a lone request.
//!
//! Structure `id` always routes to shard `id % workers` (modulo taken in
//! u64 — see [`shard_of`]) and each shard is drained by exactly one worker
//! in FIFO order, so every structure sees a single, totally-ordered
//! mutation stream — the property the load generator's centralised-replay
//! hash check rests on.
//!
//! Every request about a resident structure — `analyze`, `mutate` and
//! `event` — is answered by one helper straight off the structure's
//! resident incremental analyzer. A `mutate` or `event` op first maps onto
//! the structure's event→delta toggles ([`Stall::apply`], which feeds
//! [`GraphDelta`](trustseq_core::GraphDelta) batches to that analyzer).
//! The §4.2 reduction is confluent, so the analyzer's irreducible
//! remainder — `feasible`, `remaining` and `red` — is fixed by the graph
//! alone: no canonicalisation, no cache probe, no cross-check. The load
//! generator replays every such verdict off the clock against
//! full-re-reduction mirrors instead.
//!
//! `event` additionally folds each verdict into the structure's
//! order-sensitive FNV hash, echoed in every `everdict` reply, and an
//! `event post` addressed past the end of the population hot-admits new
//! structures (up to [`ServiceConfig::max_structures`]) under the same
//! generation law the load generator mirrors. `mutate` keeps its u32 id,
//! never admits and never folds.
//!
//! The shared [`AnalysisCache`] serves `analyzespec` alone: anonymous
//! specs have no resident analyzer, and canonical sharing lets
//! label-isomorphic submissions reuse one reduction. Resident keys never
//! enter it.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use trustseq_core::{obs, pool, AnalysisCache, SequencingGraph};
use trustseq_dist::net::{write_frame, Addr, Conn, FrameDecoder, Listener};
use trustseq_dist::{RejectReason, ServiceOp, ServiceReply, ServiceRequest, ServiceStats};
use trustseq_workloads::{fnv_fold, MarketMode, MarketOp, RandomConfig, Stall, FNV_OFFSET};

use crate::queue::ShardedQueue;
use crate::quota::TokenBucket;

/// How often blocked reads and accepts wake up to poll flags.
const POLL: Duration = Duration::from_millis(10);
/// Largest number of requests a worker answers between socket writes.
const WORKER_BATCH: usize = 64;

/// Everything a [`Server`] needs to know, with defaults sized for tests.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where to listen. Defaults to an ephemeral loopback TCP port.
    pub addr: Addr,
    /// Worker count (= queue shards). Clamped to at least 1.
    pub workers: usize,
    /// Resident structures at boot, generated as the marketplace
    /// population `Stall::generate(seed + id, base, Delta, None)`.
    pub structures: usize,
    /// Hard cap on the *grown* population: an `event post` addressed past
    /// the current end hot-admits structures up to (but not including)
    /// this id under the same generation law; events beyond it are shed
    /// `Rejected { UnknownStructure }`. Clamped to at least `structures`.
    pub max_structures: usize,
    /// Population seed — the load generator must use the same one to
    /// mirror the population.
    pub seed: u64,
    /// Shape of the resident structures (shared-escrow and bridge
    /// probabilities must be zero).
    pub base: RandomConfig,
    /// Bounded queue slots per worker shard.
    pub queue_capacity: usize,
    /// Per-connection token-bucket rate (requests/second); `0.0` disables
    /// quotas.
    pub quota_rate: f64,
    /// Per-connection token-bucket burst.
    pub quota_burst: f64,
    /// Analysis-cache entry cap per shard.
    pub cache_capacity: usize,
    /// Analysis-cache TTL; `None` keeps entries until evicted.
    pub cache_ttl: Option<Duration>,
    /// Hard cap on a single request frame — an announcement above this
    /// drops the connection before any payload is buffered.
    pub max_frame: usize,
    /// Slow-client write deadline: a reply write that cannot finish within
    /// this long gets the connection dropped instead of wedging a worker.
    pub write_deadline: Duration,
    /// Slow-loris guard: a connection holding a *partial* frame that makes
    /// no progress for this long is dropped.
    pub idle_timeout: Duration,
    /// Artificial per-request service delay — a fault-injection hook for
    /// deterministic backpressure and drain tests, never set in production.
    pub debug_delay: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: Addr::Tcp("127.0.0.1:0".to_string()),
            workers: 1,
            structures: 16,
            max_structures: 1024,
            seed: 42,
            base: RandomConfig::default(),
            queue_capacity: 1024,
            quota_rate: 0.0,
            quota_burst: 64.0,
            cache_capacity: 4096,
            cache_ttl: None,
            max_frame: 64 << 10,
            write_deadline: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(2),
            debug_delay: None,
        }
    }
}

/// Generates the resident marketplace population shared by the server and
/// the load generator's verification mirrors: structure `id` is
/// `Stall::generate(seed + id, base, mode, None)`.
pub fn build_population(
    structures: usize,
    seed: u64,
    base: &RandomConfig,
    mode: MarketMode,
) -> Vec<Stall> {
    (0..structures)
        .map(|i| Stall::generate(seed.wrapping_add(i as u64), base, mode, None))
        .collect()
}

/// Translates the wire op into the marketplace event vocabulary.
pub fn market_op(op: ServiceOp) -> MarketOp {
    match op {
        ServiceOp::Accept => MarketOp::Accept,
        ServiceOp::Cancel => MarketOp::Cancel,
        ServiceOp::Post => MarketOp::Post,
        ServiceOp::Expire => MarketOp::Expire,
    }
}

#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    rej_quota: AtomicU64,
    rej_overloaded: AtomicU64,
    rej_draining: AtomicU64,
    rej_malformed: AtomicU64,
    rej_unknown: AtomicU64,
    conns_open: AtomicU64,
    conns_total: AtomicU64,
    proto_drops: AtomicU64,
    slow_drops: AtomicU64,
    events_admitted: AtomicU64,
}

impl Counters {
    fn rejected(&self) -> u64 {
        self.rej_quota.load(Ordering::Relaxed)
            + self.rej_overloaded.load(Ordering::Relaxed)
            + self.rej_draining.load(Ordering::Relaxed)
            + self.rej_malformed.load(Ordering::Relaxed)
            + self.rej_unknown.load(Ordering::Relaxed)
    }
}

/// The per-connection half shared between its reader thread (rejections)
/// and the workers (verdicts): a locked writer plus a liveness flag.
#[derive(Debug)]
struct ConnShared {
    writer: Mutex<Conn>,
    alive: AtomicBool,
}

impl ConnShared {
    /// Writes pre-encoded frames; on any error (including a write-deadline
    /// timeout from a slow client) the connection is condemned so readers
    /// and workers stop servicing it.
    fn send(&self, bytes: &[u8]) {
        if !self.alive.load(Ordering::Relaxed) {
            return;
        }
        let mut w = self.writer.lock();
        if w.write_all(bytes).and_then(|()| w.flush()).is_err() {
            self.alive.store(false, Ordering::Relaxed);
            let _ = w.shutdown();
        }
    }
}

struct Job {
    conn: Arc<ConnShared>,
    req: ServiceRequest,
}

/// One resident structure plus its event-stream audit state. The hash
/// lives under the same mutex as the stall so the fold order is exactly
/// the mutation order the owning worker applied.
struct Resident {
    stall: Stall,
    /// Order-sensitive FNV fold over this structure's event-verdict
    /// stream (`(feasible, remaining)` per event), seeded [`FNV_OFFSET`].
    event_hash: u64,
}

impl Resident {
    fn new(stall: Stall) -> Self {
        Resident {
            stall,
            event_hash: FNV_OFFSET,
        }
    }
}

/// Routes structure/sequence ids to worker shards. The modulo is taken in
/// u64 *before* narrowing: `id as usize % workers` would truncate ids
/// above `u32::MAX` on 32-bit targets and scatter one structure's events
/// across workers, breaking the per-structure total order.
fn shard_of(id: u64, workers: usize) -> usize {
    (id % workers.max(1) as u64) as usize
}

struct Shared {
    cfg: ServiceConfig,
    /// Phase 1 of shutdown: readers shed every new request as `Draining`.
    stop: AtomicBool,
    /// Phase 2: the queue has been confirmed empty after a grace period —
    /// workers may retire.
    halt: AtomicBool,
    queue: ShardedQueue<Job>,
    /// The growable resident population: append-only under the write
    /// lock, so an index, once valid, stays valid. Workers clone the
    /// `Arc` under the read lock and release it before locking the stall.
    stalls: RwLock<Vec<Arc<Mutex<Resident>>>>,
    cache: AnalysisCache,
    counters: Counters,
    conns: Mutex<HashMap<u64, Arc<ConnShared>>>,
}

impl Shared {
    fn stats(&self) -> ServiceStats {
        let cache = self.cache.stats();
        ServiceStats {
            structures: self.stalls.read().len() as u32,
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            rejected: self.counters.rejected(),
            queue_depth: self.queue.len() as u32,
            connections: self.counters.conns_open.load(Ordering::Relaxed) as u32,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }

    /// The resident structure at `id`, if it has been admitted.
    fn resident(&self, id: u64) -> Option<Arc<Mutex<Resident>>> {
        let stalls = self.stalls.read();
        stalls.get(usize::try_from(id).ok()?).cloned()
    }

    /// Hot population resizing: grows the population through `id` under
    /// the boot-time generation law (`Stall::generate(seed + i, base,
    /// Delta, None)`), so a load generator that knows the seed can mirror
    /// hot-admitted structures exactly like boot-time ones. Returns `None`
    /// when `id` is at or past [`ServiceConfig::max_structures`].
    fn admit_structure(&self, id: u64) -> Option<Arc<Mutex<Resident>>> {
        let cap = self.cfg.max_structures.max(self.cfg.structures);
        if id >= cap as u64 {
            return None;
        }
        let id = id as usize;
        let mut stalls = self.stalls.write();
        // Another worker may have grown past this id while we waited for
        // the write lock; generation is a pure function of the index, so
        // whichever worker grows first materialises identical structures.
        while stalls.len() <= id {
            let i = stalls.len() as u64;
            let stall = Stall::generate(
                self.cfg.seed.wrapping_add(i),
                &self.cfg.base,
                MarketMode::Delta,
                None,
            );
            stalls.push(Arc::new(Mutex::new(Resident::new(stall))));
            self.counters
                .events_admitted
                .fetch_add(1, Ordering::Relaxed);
            if obs::enabled() {
                obs::with(|r| r.counter("svc.events_admitted", 1));
            }
        }
        stalls.get(id).cloned()
    }

    /// Counts a rejection at the reader's admission ladder and appends its
    /// reply frame to `out`.
    fn reject(&self, out: &mut Vec<u8>, seq: u64, reason: RejectReason) {
        let (counter, name) = match reason {
            RejectReason::Overloaded => (&self.counters.rej_overloaded, "svc.rejected.overloaded"),
            RejectReason::Quota => (&self.counters.rej_quota, "svc.rejected.quota"),
            RejectReason::Draining => (&self.counters.rej_draining, "svc.rejected.draining"),
            RejectReason::Malformed => (&self.counters.rej_malformed, "svc.rejected.malformed"),
            RejectReason::UnknownStructure => (&self.counters.rej_unknown, "svc.rejected.unknown"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if obs::enabled() {
            obs::with(|r| r.counter(name, 1));
        }
        push_reply(out, &ServiceReply::Rejected { seq, reason });
    }
}

/// Appends `reply` to `out` as one length-prefixed frame, encoded in place.
fn push_reply(out: &mut Vec<u8>, reply: &ServiceReply) {
    // A reply is a few dozen bytes, far below the frame cap, so this
    // cannot fail; a frame that did would be left out, not sent torn.
    let _ = write_frame(out, |out| reply.write_wire(out));
}

/// A handle for stopping a running [`Server`] from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<SharedHandle>,
}

#[derive(Debug)]
struct SharedHandle {
    stop: Arc<StopFlag>,
}

#[derive(Debug)]
struct StopFlag(AtomicBool);

impl ServerHandle {
    /// Begins a graceful drain: the listener stops accepting, every
    /// request decoded from now on is answered `Rejected { Draining }`,
    /// already-queued requests are answered normally, then
    /// [`Server::run`] returns.
    pub fn shutdown(&self) {
        self.shared.stop.0.store(true, Ordering::Relaxed);
    }
}

/// A bound-but-not-yet-running analysis server.
pub struct Server {
    listener: Listener,
    local: Addr,
    shared: Arc<Shared>,
    stop: Arc<StopFlag>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local", &self.local)
            .field("workers", &self.shared.cfg.workers)
            .field("structures", &self.shared.stalls.read().len())
            .finish()
    }
}

impl Server {
    /// Binds the listener and generates the resident population. The
    /// returned server owns the socket but serves nothing until
    /// [`run`](Server::run).
    pub fn bind(cfg: ServiceConfig) -> io::Result<Server> {
        let listener = Listener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let stalls = RwLock::new(
            build_population(cfg.structures, cfg.seed, &cfg.base, MarketMode::Delta)
                .into_iter()
                .map(|stall| Arc::new(Mutex::new(Resident::new(stall))))
                .collect(),
        );
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            queue: ShardedQueue::new(workers, cfg.queue_capacity),
            stalls,
            cache: AnalysisCache::with_capacity_and_ttl(cfg.cache_capacity, cfg.cache_ttl),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            cfg,
        });
        Ok(Server {
            listener,
            local,
            shared,
            stop: Arc::new(StopFlag(AtomicBool::new(false))),
        })
    }

    /// The bound address — with an ephemeral port already resolved, ready
    /// to hand to a load generator.
    pub fn local_addr(&self) -> Addr {
        self.local.clone()
    }

    /// A shutdown handle, cloneable across threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::new(SharedHandle {
                stop: Arc::clone(&self.stop),
            }),
        }
    }

    /// Serves until [`ServerHandle::shutdown`], then drains: queued
    /// requests are answered, workers retire, reader threads are joined,
    /// and the final counter snapshot is returned.
    pub fn run(self) -> io::Result<ServiceStats> {
        let Server {
            listener,
            shared,
            stop,
            ..
        } = self;
        listener.set_nonblocking(true)?;
        let workers = shared.cfg.workers.max(1);
        let readers: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());

        pool::broadcast(workers + 1, &|index| {
            if index == 0 {
                accept_loop(&listener, &shared, &stop, &readers);
            } else {
                worker_loop(&shared, index - 1);
            }
        });

        // Workers have drained the queue and answered everything admitted
        // before the stop flag flipped. Now condemn the sockets so reader
        // threads see EOF and retire.
        for conn in shared.conns.lock().values() {
            conn.alive.store(false, Ordering::Relaxed);
            let _ = conn.writer.lock().shutdown();
        }
        for reader in readers.into_inner() {
            let _ = reader.join();
        }
        Ok(shared.stats())
    }
}

fn accept_loop(
    listener: &Listener,
    shared: &Arc<Shared>,
    stop: &StopFlag,
    readers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    let mut next_id: u64 = 0;
    loop {
        if stop.0.load(Ordering::Relaxed) {
            break;
        }
        match listener.accept() {
            Ok(conn) => {
                if let Some(handle) = admit_conn(conn, next_id, shared) {
                    readers.lock().push(handle);
                    next_id += 1;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    // Drain, phase 1: flip the shared stop flag — readers now shed every
    // new request with `Draining`. The grace sleep lets any reader that
    // passed the flag check mid-ladder finish its enqueue before we start
    // judging emptiness.
    shared.stop.store(true, Ordering::Relaxed);
    std::thread::sleep(2 * POLL);
    while !shared.queue.is_empty() {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Phase 2: the queue stayed empty after the grace period — workers may
    // retire once their own shard's pop comes back dry.
    shared.halt.store(true, Ordering::Relaxed);
    shared.queue.notify_all();
}

fn admit_conn(conn: Conn, id: u64, shared: &Arc<Shared>) -> Option<std::thread::JoinHandle<()>> {
    let cfg = &shared.cfg;
    conn.set_read_timeout(Some(POLL)).ok()?;
    conn.set_write_timeout(Some(cfg.write_deadline)).ok()?;
    let writer = conn.try_clone().ok()?;
    let cs = Arc::new(ConnShared {
        writer: Mutex::new(writer),
        alive: AtomicBool::new(true),
    });
    shared.conns.lock().insert(id, Arc::clone(&cs));
    shared.counters.conns_open.fetch_add(1, Ordering::Relaxed);
    shared.counters.conns_total.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        obs::with(|r| r.counter("svc.conns", 1));
    }
    let spawned = {
        let shared = Arc::clone(shared);
        let cs = Arc::clone(&cs);
        std::thread::Builder::new()
            .name(format!("trustseq-svc-conn-{id}"))
            .spawn(move || {
                reader_loop(conn, &cs, &shared);
                cs.alive.store(false, Ordering::Relaxed);
                let _ = cs.writer.lock().shutdown();
                shared.conns.lock().remove(&id);
                shared.counters.conns_open.fetch_sub(1, Ordering::Relaxed);
            })
            .ok()
    };
    if spawned.is_none() {
        shared.conns.lock().remove(&id);
        shared.counters.conns_open.fetch_sub(1, Ordering::Relaxed);
    }
    spawned
}

/// Reads frames off one connection and walks each request down the
/// admission ladder. Protocol violations (oversized announcement, non-UTF-8
/// payload, an unparseable frame) drop the connection outright — there is
/// no trustworthy `seq` to answer — after the frames admitted before the
/// violation are enqueued.
fn reader_loop(mut conn: Conn, cs: &Arc<ConnShared>, shared: &Arc<Shared>) {
    let cfg = &shared.cfg;
    let mut decoder = FrameDecoder::with_max_frame(cfg.max_frame);
    let mut bucket = TokenBucket::new(cfg.quota_rate, cfg.quota_burst);
    let mut buf = vec![0u8; 16 << 10];
    let mut batch = ReadBatch::new(shared.queue.shards());
    let mut last_progress = Instant::now();
    loop {
        if !cs.alive.load(Ordering::Relaxed) {
            return;
        }
        match conn.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                decoder.push(&buf[..n]);
                last_progress = Instant::now();
                let intact = batch.admit(&mut decoder, cs, shared, &mut bucket);
                batch.flush(cs, shared);
                if !intact {
                    shared.counters.proto_drops.fetch_add(1, Ordering::Relaxed);
                    if obs::enabled() {
                        obs::with(|r| r.counter("svc.proto_drops", 1));
                    }
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Slow-loris guard: holding half a frame without progress
                // pins decoder memory — idle *between* requests is fine.
                if decoder.pending_bytes() > 0 && last_progress.elapsed() >= cfg.idle_timeout {
                    shared.counters.slow_drops.fetch_add(1, Ordering::Relaxed);
                    if obs::enabled() {
                        obs::with(|r| r.counter("svc.slow_drops", 1));
                    }
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The requests one `read()` admitted, held only until that read's last
/// complete frame has been walked down the ladder: then each shard's jobs
/// go into the queue under one lock, and the read's rejections leave in
/// one write. Frames are never held across reads, so a lone request is
/// enqueued as soon as it arrives. The buffers are kept from read to
/// read, so a connection in its steady state allocates nothing here.
struct ReadBatch {
    /// Admitted jobs per shard, in frame order.
    pending: Vec<Vec<Job>>,
    /// The shard of every admitted frame, in frame order.
    order: Vec<usize>,
    /// Sequence numbers of the jobs a full shard refused, last first.
    shed: Vec<u64>,
    /// Rejection frames encoded for this read.
    rejections: Vec<u8>,
}

impl ReadBatch {
    fn new(shards: usize) -> Self {
        ReadBatch {
            pending: (0..shards).map(|_| Vec::new()).collect(),
            order: Vec::new(),
            shed: Vec::new(),
            rejections: Vec::new(),
        }
    }

    /// Walks every complete frame in `decoder` down the admission ladder:
    /// draining, then quota, then into this batch. Returns `false` when
    /// the connection must be dropped (an oversized, non-UTF-8 or
    /// unparseable frame).
    fn admit(
        &mut self,
        decoder: &mut FrameDecoder,
        cs: &Arc<ConnShared>,
        shared: &Shared,
        bucket: &mut TokenBucket,
    ) -> bool {
        loop {
            let req = match decoder.next_frame_str() {
                Ok(Some(frame)) => match ServiceRequest::from_wire(frame) {
                    Ok(req) => req,
                    Err(_) => return false,
                },
                Ok(None) => return true,
                Err(_) => return false,
            };
            let seq = req.seq();
            if shared.stop.load(Ordering::Relaxed) {
                shared.reject(&mut self.rejections, seq, RejectReason::Draining);
                continue;
            }
            if !bucket.try_take() {
                shared.reject(&mut self.rejections, seq, RejectReason::Quota);
                continue;
            }
            let shard = match &req {
                ServiceRequest::Analyze { id, .. } | ServiceRequest::Mutate { id, .. } => {
                    shard_of(u64::from(*id), self.pending.len())
                }
                ServiceRequest::Event { id, .. } => shard_of(*id, self.pending.len()),
                ServiceRequest::AnalyzeSpec { seq, .. } | ServiceRequest::Stats { seq } => {
                    shard_of(*seq, self.pending.len())
                }
            };
            self.pending[shard].push(Job {
                conn: Arc::clone(cs),
                req,
            });
            self.order.push(shard);
        }
    }

    /// Enqueues each shard's jobs under one lock, sheds what a full shard
    /// refused as `overloaded` in frame order, and sends the rejections.
    fn flush(&mut self, cs: &ConnShared, shared: &Shared) {
        let mut overflow = false;
        for (shard, jobs) in self.pending.iter_mut().enumerate() {
            if jobs.is_empty() {
                continue;
            }
            let taken = shared.queue.push_all(shard, jobs);
            if taken > 0 && obs::enabled() {
                obs::with(|r| r.counter("svc.enqueued", taken as u64));
            }
            overflow |= !jobs.is_empty();
        }
        if overflow {
            // A shard's refused jobs are its last frames in this read, so
            // walking the frame order backwards meets them last-first.
            for &shard in self.order.iter().rev() {
                if let Some(job) = self.pending[shard].pop() {
                    self.shed.push(job.req.seq());
                }
            }
            for &seq in self.shed.iter().rev() {
                shared.reject(&mut self.rejections, seq, RejectReason::Overloaded);
            }
            self.shed.clear();
        }
        self.order.clear();
        if !self.rejections.is_empty() {
            cs.send(&self.rejections);
            self.rejections.clear();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, shard: usize) {
    let mut jobs: Vec<Job> = Vec::with_capacity(WORKER_BATCH);
    // A batch's replies are encoded in place into one buffer the worker
    // keeps from batch to batch. Each run of consecutive replies to one
    // connection is a slice of it, sent in one write.
    let mut out: Vec<u8> = Vec::new();
    let mut runs: Vec<(Arc<ConnShared>, usize)> = Vec::with_capacity(WORKER_BATCH);
    loop {
        shared.queue.pop_into(shard, WORKER_BATCH, POLL, &mut jobs);
        if jobs.is_empty() {
            if shared.halt.load(Ordering::Relaxed) {
                return;
            }
            continue;
        }
        if let Some(delay) = shared.cfg.debug_delay {
            std::thread::sleep(delay * jobs.len() as u32);
        }
        for Job { conn, req } in jobs.drain(..) {
            push_reply(&mut out, &process(shared, &req));
            match runs.last_mut() {
                Some((last, end)) if Arc::ptr_eq(last, &conn) => *end = out.len(),
                _ => runs.push((conn, out.len())),
            }
        }
        let mut start = 0;
        for (conn, end) in runs.drain(..) {
            conn.send(&out[start..end]);
            start = end;
        }
        out.clear();
    }
}

fn process(shared: &Arc<Shared>, req: &ServiceRequest) -> ServiceReply {
    let span = obs::enabled().then(obs::Span::wall);
    let (reply, metric) = match req {
        ServiceRequest::Analyze { seq, id } => (
            resident_verdict(shared, *seq, u64::from(*id), None, false),
            "svc.analyze",
        ),
        ServiceRequest::Mutate { seq, id, op, slot } => (
            resident_verdict(shared, *seq, u64::from(*id), Some((*op, *slot)), false),
            "svc.mutate",
        ),
        ServiceRequest::Event { seq, id, op, slot } => (
            resident_verdict(shared, *seq, *id, Some((*op, *slot)), true),
            "svc.events",
        ),
        ServiceRequest::AnalyzeSpec { seq, spec } => (analyze_spec(shared, *seq, spec), "svc.spec"),
        ServiceRequest::Stats { seq } => (
            ServiceReply::Stats {
                seq: *seq,
                stats: shared.stats(),
            },
            "svc.stats",
        ),
    };
    // Semantic rejections (unknown id, bad slot, bad spec) are counted by
    // `semantic_reject`; everything else was answered.
    if !matches!(reply, ServiceReply::Rejected { .. }) {
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(span) = span {
        span.finish("svc.request_ns", None);
        obs::with(|r| r.counter(metric, 1));
    }
    reply
}

fn semantic_reject(shared: &Arc<Shared>, seq: u64, reason: RejectReason) -> ServiceReply {
    let (counter, name) = match reason {
        RejectReason::Malformed => (&shared.counters.rej_malformed, "svc.rejected.malformed"),
        _ => (&shared.counters.rej_unknown, "svc.rejected.unknown"),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    if obs::enabled() {
        obs::with(|r| r.counter(name, 1));
    }
    ServiceReply::Rejected { seq, reason }
}

/// The one verdict path for resident structures (`analyze`, `mutate` and
/// `event`): applies `op`, if any, through the structure's event→delta
/// toggles, then reads the verdict straight off its resident analyzer.
/// An `event` may hot-admit on `post` and folds its verdict into the
/// structure's running hash.
fn resident_verdict(
    shared: &Arc<Shared>,
    seq: u64,
    id: u64,
    op: Option<(ServiceOp, u32)>,
    event: bool,
) -> ServiceReply {
    let op = op.map(|(op, slot)| (market_op(op), slot as usize));
    let resident = match shared.resident(id) {
        Some(resident) => Some(resident),
        None if event && matches!(op, Some((MarketOp::Post, _))) => shared.admit_structure(id),
        None => None,
    };
    let Some(resident) = resident else {
        return semantic_reject(shared, seq, RejectReason::UnknownStructure);
    };
    let mut resident = resident.lock();
    if let Some((op, slot)) = op {
        match resident.stall.apply(op, slot) {
            Ok(changed) => {
                if event && !changed && obs::enabled() {
                    obs::with(|r| r.counter("svc.events_noop", 1));
                }
            }
            Err(_) => return semantic_reject(shared, seq, RejectReason::Malformed),
        }
    }
    let feasible = resident.stall.feasible();
    let remaining = resident.stall.remaining_edges() as u32;
    if !event {
        return ServiceReply::Verdict {
            seq,
            feasible,
            remaining,
            remaining_red: resident.stall.remaining_red() as u32,
        };
    }
    resident.event_hash = fnv_fold(
        fnv_fold(resident.event_hash, u64::from(feasible)),
        u64::from(remaining),
    );
    ServiceReply::EventVerdict {
        seq,
        feasible,
        remaining,
        hash: resident.event_hash,
    }
}

fn analyze_spec(shared: &Arc<Shared>, seq: u64, spec: &str) -> ServiceReply {
    let Ok(spec) = trustseq_lang::parse_spec(spec) else {
        return semantic_reject(shared, seq, RejectReason::Malformed);
    };
    let Ok(graph) = SequencingGraph::from_spec(&spec) else {
        return semantic_reject(shared, seq, RejectReason::Malformed);
    };
    let cached = shared.cache.verdict(&graph);
    ServiceReply::Verdict {
        seq,
        feasible: cached.feasible,
        remaining: cached.remaining_edges as u32,
        remaining_red: cached.remaining_red,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shard-routing regression: ids above `u32::MAX` must route by
    /// their full u64 value. The pre-fix `id as usize % workers` narrows
    /// first, which on a 32-bit target truncates `u32::MAX + 1` to 0 and
    /// sends the structure to the wrong worker.
    #[test]
    fn shard_routing_takes_modulo_in_u64() {
        let id = u64::from(u32::MAX) + 1; // 4294967296
        assert_eq!(shard_of(id, 3), (id % 3) as usize); // = 1
                                                        // The truncating computation a 32-bit target would have produced:
        let truncated = (id as u32 as usize) % 3; // = 0
        assert_ne!(shard_of(id, 3), truncated);
        for workers in 1..=7 {
            for offset in 0..workers as u64 {
                let id = u64::from(u32::MAX) + 1 + offset;
                assert_eq!(shard_of(id, workers), (id % workers as u64) as usize);
            }
        }
        // Degenerate worker counts never divide by zero.
        assert_eq!(shard_of(5, 0), 0);
    }

    /// Hot admission materialises exactly the boot-time population law:
    /// a structure admitted at id `n` while serving is byte-identical to
    /// the one a server booted with `structures = n + 1` would hold.
    #[test]
    fn hot_admission_matches_boot_population_law() {
        let cfg = ServiceConfig {
            structures: 2,
            max_structures: 8,
            ..ServiceConfig::default()
        };
        let shared = Shared {
            stop: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            queue: ShardedQueue::new(1, 4),
            stalls: RwLock::new(
                build_population(cfg.structures, cfg.seed, &cfg.base, MarketMode::Delta)
                    .into_iter()
                    .map(|s| Arc::new(Mutex::new(Resident::new(s))))
                    .collect(),
            ),
            cache: AnalysisCache::with_capacity_and_ttl(64, None),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            cfg,
        };
        assert!(shared.resident(5).is_none());
        let admitted = shared.admit_structure(5).expect("id 5 is below the cap");
        assert_eq!(shared.stalls.read().len(), 6);
        let boot = build_population(6, shared.cfg.seed, &shared.cfg.base, MarketMode::Delta);
        let admitted = admitted.lock();
        assert_eq!(admitted.stall.graph(), boot[5].graph());
        assert_eq!(admitted.stall.feasible(), boot[5].feasible());
        assert_eq!(admitted.event_hash, FNV_OFFSET);
        // The cap is a hard edge: id 8 is refused, population unchanged.
        assert!(shared.admit_structure(8).is_none());
        assert!(shared.admit_structure(u64::from(u32::MAX) + 9).is_none());
        assert_eq!(shared.stalls.read().len(), 6);
    }
}
