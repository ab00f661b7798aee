//! The load generator: N concurrent clients replaying deterministic
//! request schedules against a running server, with every verdict
//! hash-checked against a centralised replay.
//!
//! # Honest verification
//!
//! Measurement and verification are separated. During the timed window the
//! reader thread only records, per sequence number, the reply class and
//! the verdict fields — no analysis runs on the clock. Afterwards each
//! client replays its *accepted* requests, in sequence order, against
//! private [`MarketMode::Full`] mirrors of its structures (full
//! re-reduction per event — the centralised reducer), comparing every
//! verdict and folding both streams through the order-sensitive FNV fold
//! the marketplace workload uses. A single wrong or re-ordered verdict
//! anywhere in a million-request run flips the per-structure hash.
//!
//! The check is sound because structure ids are partitioned across clients
//! (`id % clients == client`), each id routes to a single server worker
//! shard, and rejected requests — which the server guarantees had no
//! effect — are skipped on both sides.
//!
//! # Event-stream mode
//!
//! With [`LoadgenConfig::events`] set, schedules carry marketplace
//! lifecycle events (`event` frames answered from the server's resident
//! delta analyzers) instead of `analyze`/`mutate`/`analyzespec` traffic.
//! Schedules may address ids past the boot population
//! ([`LoadgenConfig::grow`] extra structures) — always opening with a
//! `post`, the op that hot-admits — to exercise hot population resizing.
//! Verification gains a third leg: besides replaying every accepted event
//! against the `Full`-mode mirrors, each `everdict` reply echoes the
//! server's running per-structure verdict-stream hash, and the last echo
//! per structure must equal the mirror's fold. The echoed-hash check
//! assumes this load generator is the only event source since the server
//! booted (it is an audit of one stream, not a global ledger).

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trustseq_core::{AnalysisCache, CachedVerdict, SequencingGraph};
use trustseq_dist::net::{encode_frame, Addr, Conn, FrameDecoder};
use trustseq_dist::{RejectReason, ServiceOp, ServiceReply, ServiceRequest, ServiceStats};
use trustseq_workloads::{fnv_fold, random_exchange, MarketMode, RandomConfig, Stall, FNV_OFFSET};

#[cfg(test)]
use crate::server::build_population;
use crate::server::market_op;

/// Frames coalesced into one client write.
const WRITE_BATCH: usize = 32;
/// Reply classes recorded per sequence number.
const PENDING: u8 = 0;
const FEASIBLE: u8 = 1;
const INFEASIBLE: u8 = 2;
const REJ_BASE: u8 = 3; // REJ_BASE + RejectReason discriminant

/// What the load generator should do, with defaults sized for tests.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: Addr,
    /// Concurrent clients (connections). Clamped to at least 1.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: u64,
    /// Resident-structure count — must match the server's.
    pub structures: usize,
    /// Population seed — must match the server's.
    pub seed: u64,
    /// Population shape — must match the server's.
    pub base: RandomConfig,
    /// Fraction of requests that mutate (the rest re-certify).
    pub mutation_rate: f64,
    /// Fraction of requests that are one-shot inline-spec analyses.
    pub spec_rate: f64,
    /// Max outstanding requests per client (pipelining window).
    pub window: usize,
    /// Connect timeout.
    pub connect_timeout: Duration,
    /// Event-stream mode: schedules carry marketplace lifecycle `event`
    /// frames instead of `analyze`/`mutate`/`analyzespec` traffic, and
    /// every reply's echoed verdict-stream hash is audited.
    pub events: bool,
    /// Extra structures past the boot population that event-mode
    /// schedules hot-admit (each opens with a `post`). Ignored unless
    /// [`events`](Self::events) is set; must stay below the server's
    /// `max_structures` cap.
    pub grow: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: Addr::Tcp("127.0.0.1:0".to_string()),
            clients: 2,
            requests: 20_000,
            structures: 16,
            seed: 42,
            base: RandomConfig::default(),
            mutation_rate: 0.1,
            spec_rate: 0.01,
            window: 64,
            connect_timeout: Duration::from_secs(5),
            events: false,
            grow: 0,
        }
    }
}

/// Latency percentiles over accepted (verdict-carrying) replies, in
/// microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// 99.9th percentile.
    pub p999_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

/// What a load-generation run did, measured and verified.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests written to sockets.
    pub sent: u64,
    /// Replies received (every sent request is answered unless the run
    /// aborted — compare with `sent`).
    pub replies: u64,
    /// Verdict-carrying replies.
    pub accepted: u64,
    /// Typed rejections by reason, indexed by [`RejectReason`] order:
    /// overloaded, quota, draining, malformed, unknown-structure.
    pub rejected: [u64; 5],
    /// Verdicts that disagreed with the centralised replay (must be 0).
    pub wrong: u64,
    /// Per-structure verdict-stream hash mismatches (must be 0).
    pub hash_mismatches: u64,
    /// Structures whose hashes were compared.
    pub hash_checked: u64,
    /// Wall-clock of the slowest client's timed window.
    pub elapsed: Duration,
    /// Replies per second over that window.
    pub rps: f64,
    /// Latency percentiles over accepted replies.
    pub latency: LatencySummary,
    /// The server's own final counters (a `Stats` round-trip after the
    /// run), if the server was still answering.
    pub server: Option<ServiceStats>,
}

/// One scheduled request, pre-generated off the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    Analyze { id: u32 },
    Mutate { id: u32, op: ServiceOp, slot: u32 },
    Event { id: u64, op: ServiceOp, slot: u32 },
    Spec { template: usize },
}

/// An inline-spec template with its locally-computed expected verdict.
#[derive(Debug)]
struct Template {
    source: String,
    expected: CachedVerdict,
}

fn build_templates(cfg: &LoadgenConfig) -> io::Result<Arc<Vec<Template>>> {
    let cache = AnalysisCache::new();
    let mut templates = Vec::new();
    for t in 0..6u64 {
        let ex = random_exchange(&RandomConfig {
            seed: cfg.seed ^ 0x5bec_0000u64.wrapping_add(t),
            trust_density: 0.3,
            ..cfg.base.clone()
        });
        let source = trustseq_lang::print(&ex.spec);
        let spec = trustseq_lang::parse_spec(&source)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let graph = SequencingGraph::from_spec(&spec)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        templates.push(Template {
            source,
            expected: cache.verdict(&graph),
        });
    }
    Ok(Arc::new(templates))
}

fn reject_index(reason: RejectReason) -> usize {
    match reason {
        RejectReason::Overloaded => 0,
        RejectReason::Quota => 1,
        RejectReason::Draining => 2,
        RejectReason::Malformed => 3,
        RejectReason::UnknownStructure => 4,
    }
}

/// Pre-generates client `c`'s schedule. Deterministic in the seed; only
/// ids owned by the client (`id % clients == c`) ever appear.
fn build_schedule(
    cfg: &LoadgenConfig,
    client: usize,
    count: u64,
    mirrors: &HashMap<u64, Stall>,
    templates: usize,
) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x10ad_0000 ^ client as u64);
    let owned = sorted_ids(mirrors);
    let mut schedule = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = owned[rng.random_range(0..owned.len())];
        let stall = &mirrors[&id];
        let id = id as u32;
        let entry = if cfg.spec_rate > 0.0 && rng.random_bool(cfg.spec_rate) {
            Entry::Spec {
                template: rng.random_range(0..templates),
            }
        } else if cfg.mutation_rate > 0.0 && rng.random_bool(cfg.mutation_rate) {
            let kind = rng.random_range(0..4u8);
            let (op, limit) = match kind {
                0 => (ServiceOp::Accept, stall.pairs()),
                1 => (ServiceOp::Cancel, stall.pairs()),
                2 => (ServiceOp::Post, stall.deals()),
                _ => (ServiceOp::Expire, stall.deals()),
            };
            if limit == 0 {
                Entry::Analyze { id }
            } else {
                Entry::Mutate {
                    id,
                    op,
                    slot: rng.random_range(0..limit) as u32,
                }
            }
        } else {
            Entry::Analyze { id }
        };
        schedule.push(entry);
    }
    schedule
}

fn sorted_ids(mirrors: &HashMap<u64, Stall>) -> Vec<u64> {
    let mut ids: Vec<u64> = mirrors.keys().copied().collect();
    ids.sort_unstable();
    ids
}

/// Picks one applicable lifecycle op for `stall` — accept/cancel over its
/// trust pairs, post/expire over its deals, skipping empty families.
fn lifecycle_op(rng: &mut StdRng, stall: &Stall) -> Option<(ServiceOp, u32)> {
    let kind = rng.random_range(0..4u8);
    let (op, limit) = match kind {
        0 => (ServiceOp::Accept, stall.pairs()),
        1 => (ServiceOp::Cancel, stall.pairs()),
        2 => (ServiceOp::Post, stall.deals()),
        _ => (ServiceOp::Expire, stall.deals()),
    };
    let (op, limit) = if limit > 0 {
        (op, limit)
    } else if stall.pairs() > 0 {
        (ServiceOp::Accept, stall.pairs())
    } else if stall.deals() > 0 {
        (ServiceOp::Post, stall.deals())
    } else {
        return None;
    };
    Some((op, rng.random_range(0..limit) as u32))
}

/// Pre-generates client `c`'s event-stream schedule: pure marketplace
/// lifecycle events over the client's owned ids. Ids past the boot
/// population always open with a `post` — the op that hot-admits — so the
/// server can grow the population mid-run; only grown ids with at least
/// one deal are used (a `post` must have a valid slot to land).
fn build_event_schedule(
    cfg: &LoadgenConfig,
    client: usize,
    count: u64,
    mirrors: &HashMap<u64, Stall>,
) -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0e4e_0000 ^ client as u64);
    let boot = cfg.structures as u64;
    let owned: Vec<u64> = sorted_ids(mirrors)
        .into_iter()
        .filter(|&id| {
            let s = &mirrors[&id];
            if id < boot {
                s.pairs() > 0 || s.deals() > 0
            } else {
                s.deals() > 0
            }
        })
        .collect();
    let mut posted: HashMap<u64, bool> = HashMap::new();
    let mut schedule = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let id = owned[rng.random_range(0..owned.len())];
        let stall = &mirrors[&id];
        let entry = if id >= boot && !posted.get(&id).copied().unwrap_or(false) {
            posted.insert(id, true);
            Entry::Event {
                id,
                op: ServiceOp::Post,
                slot: rng.random_range(0..stall.deals()) as u32,
            }
        } else {
            match lifecycle_op(&mut rng, stall) {
                Some((op, slot)) => Entry::Event { id, op, slot },
                None => continue,
            }
        };
        schedule.push(entry);
    }
    schedule
}

/// Everything one client measured, handed back for aggregation.
struct ClientResult {
    sent: u64,
    replies: u64,
    accepted: u64,
    rejected: [u64; 5],
    wrong: u64,
    hash_mismatches: u64,
    hash_checked: u64,
    io_elapsed: Duration,
    latencies_us: Vec<u64>,
}

/// Encodes one scheduled request. An oversized request (a spec template
/// past the frame cap) is a typed error, not a panic — the caller aborts
/// the client with a reason instead of taking the whole process down.
fn encode_request(entry: &Entry, seq: u64, templates: &[Template]) -> io::Result<Vec<u8>> {
    let req = match *entry {
        Entry::Analyze { id } => ServiceRequest::Analyze { seq, id },
        Entry::Mutate { id, op, slot } => ServiceRequest::Mutate { seq, id, op, slot },
        Entry::Event { id, op, slot } => ServiceRequest::Event { seq, id, op, slot },
        Entry::Spec { template } => ServiceRequest::AnalyzeSpec {
            seq,
            spec: templates[template].source.clone(),
        },
    };
    encode_frame(&req.to_wire()).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request seq {seq} does not fit in a frame: {e}"),
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn run_client(
    cfg: &LoadgenConfig,
    client: usize,
    count: u64,
    templates: &Arc<Vec<Template>>,
    start: &Barrier,
) -> io::Result<ClientResult> {
    // Off the clock: mirrors (Full mode — the centralised reducer),
    // schedule, and pre-encoded request frames. Event mode also mirrors
    // the to-be-hot-admitted ids past the boot population: admission
    // itself never mutates a structure, so a mirror generated up front is
    // identical to one the server materialises mid-run.
    let total_ids = cfg.structures + if cfg.events { cfg.grow } else { 0 };
    let mut mirrors: HashMap<u64, Stall> = HashMap::new();
    for id in 0..total_ids {
        if id % cfg.clients.max(1) == client {
            mirrors.insert(
                id as u64,
                Stall::generate(
                    cfg.seed.wrapping_add(id as u64),
                    &cfg.base,
                    MarketMode::Full,
                    None,
                ),
            );
        }
    }
    let schedule = Arc::new(if cfg.events {
        build_event_schedule(cfg, client, count, &mirrors)
    } else {
        build_schedule(cfg, client, count, &mirrors, templates.len())
    });

    let conn = Conn::connect(&cfg.addr, cfg.connect_timeout)?;
    conn.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut writer = conn.try_clone()?;

    let n = schedule.len();
    let send_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let status: Arc<Vec<AtomicU8>> = Arc::new((0..n).map(|_| AtomicU8::new(PENDING)).collect());
    let remaining: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
    let red: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
    let window = Arc::new((Mutex::new(0usize), Condvar::new()));

    start.wait();
    let t0 = Instant::now();

    // Reader: record reply class, verdict fields, latency, and fold the
    // per-structure verdict hash in arrival order (per-structure arrival
    // order equals sequence order — single connection, single shard).
    let reader = {
        let schedule = Arc::clone(&schedule);
        let templates = Arc::clone(templates);
        let send_ns = Arc::clone(&send_ns);
        let status = Arc::clone(&status);
        let remaining = Arc::clone(&remaining);
        let red = Arc::clone(&red);
        let window = Arc::clone(&window);
        let mut conn = conn;
        std::thread::spawn(move || {
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 32 << 10];
            let mut got: u64 = 0;
            let mut latencies_us: Vec<u64> = Vec::with_capacity(n);
            let mut hashes: HashMap<u64, u64> = HashMap::new();
            let mut server_hashes: HashMap<u64, u64> = HashMap::new();
            let mut wrong_specs: u64 = 0;
            let mut last_reply = Instant::now();
            'outer: while got < n as u64 {
                let chunk = match conn.read(&mut buf) {
                    Ok(0) => break,
                    Ok(read) => &buf[..read],
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        if last_reply.elapsed() > Duration::from_secs(30) {
                            break; // server wedged — bail with what we have
                        }
                        continue;
                    }
                    Err(_) => break,
                };
                decoder.push(chunk);
                last_reply = Instant::now();
                loop {
                    let frame = match decoder.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(_) => break 'outer,
                    };
                    let Ok(reply) = ServiceReply::from_wire(&frame) else {
                        break 'outer;
                    };
                    let seq = reply.seq() as usize;
                    if seq >= n {
                        break 'outer;
                    }
                    got += 1;
                    match reply {
                        ServiceReply::Verdict {
                            feasible,
                            remaining: rem,
                            remaining_red,
                            ..
                        } => {
                            let sent_at = send_ns[seq].load(Ordering::Relaxed);
                            let now = t0.elapsed().as_nanos() as u64;
                            latencies_us.push(now.saturating_sub(sent_at) / 1_000);
                            status[seq].store(
                                if feasible { FEASIBLE } else { INFEASIBLE },
                                Ordering::Relaxed,
                            );
                            remaining[seq].store(rem, Ordering::Relaxed);
                            red[seq].store(remaining_red, Ordering::Relaxed);
                            match schedule[seq] {
                                Entry::Analyze { id } | Entry::Mutate { id, .. } => {
                                    let h = hashes.entry(u64::from(id)).or_insert(FNV_OFFSET);
                                    *h = fnv_fold(fnv_fold(*h, u64::from(feasible)), rem as u64);
                                }
                                Entry::Spec { template } => {
                                    let want = &templates[template].expected;
                                    if feasible != want.feasible
                                        || rem as usize != want.remaining_edges
                                        || remaining_red != want.remaining_red
                                    {
                                        wrong_specs += 1;
                                    }
                                }
                                // An event never draws a plain verdict.
                                Entry::Event { .. } => wrong_specs += 1,
                            }
                        }
                        ServiceReply::EventVerdict {
                            feasible,
                            remaining: rem,
                            hash,
                            ..
                        } => {
                            let sent_at = send_ns[seq].load(Ordering::Relaxed);
                            let now = t0.elapsed().as_nanos() as u64;
                            latencies_us.push(now.saturating_sub(sent_at) / 1_000);
                            status[seq].store(
                                if feasible { FEASIBLE } else { INFEASIBLE },
                                Ordering::Relaxed,
                            );
                            remaining[seq].store(rem, Ordering::Relaxed);
                            match schedule[seq] {
                                Entry::Event { id, .. } => {
                                    let h = hashes.entry(id).or_insert(FNV_OFFSET);
                                    *h = fnv_fold(fnv_fold(*h, u64::from(feasible)), rem as u64);
                                    // Per-structure arrival order equals
                                    // sequence order, so the last echo is
                                    // the server's final fold for `id`.
                                    server_hashes.insert(id, hash);
                                }
                                // Only events draw event verdicts.
                                _ => wrong_specs += 1,
                            }
                        }
                        ServiceReply::Rejected { reason, .. } => {
                            status[seq]
                                .store(REJ_BASE + reject_index(reason) as u8, Ordering::Relaxed);
                        }
                        ServiceReply::Stats { .. } => {}
                    }
                    let (lock, cv) = &*window;
                    *lock.lock().unwrap_or_else(|e| e.into_inner()) -= 1;
                    cv.notify_one();
                }
            }
            (got, latencies_us, hashes, server_hashes, wrong_specs)
        })
    };

    // Writer: pre-encode a batch, reserve window slots, stamp send times,
    // one write per batch.
    let mut sent: u64 = 0;
    let mut batch: Vec<u8> = Vec::with_capacity(WRITE_BATCH * 64);
    let mut batch_seqs: Vec<usize> = Vec::with_capacity(WRITE_BATCH);
    let win = cfg.window.max(WRITE_BATCH);
    let mut write_failed = false;
    let mut encode_error: Option<io::Error> = None;
    for (seq, entry) in schedule.iter().enumerate() {
        match encode_request(entry, seq as u64, templates) {
            Ok(bytes) => batch.extend_from_slice(&bytes),
            Err(e) => {
                // Typed abort: close the socket so the reader sees EOF
                // promptly instead of waiting out its reply timeout.
                encode_error = Some(e);
                let _ = writer.shutdown();
                break;
            }
        }
        batch_seqs.push(seq);
        if batch_seqs.len() == WRITE_BATCH || seq + 1 == n {
            let (lock, cv) = &*window;
            {
                let mut outstanding = lock.lock().unwrap_or_else(|e| e.into_inner());
                while *outstanding + batch_seqs.len() > win {
                    let (guard, timeout) = cv
                        .wait_timeout(outstanding, Duration::from_secs(30))
                        .unwrap_or_else(|e| e.into_inner());
                    outstanding = guard;
                    if timeout.timed_out() {
                        write_failed = true;
                        break;
                    }
                }
                if !write_failed {
                    *outstanding += batch_seqs.len();
                }
            }
            if write_failed {
                break;
            }
            let now = t0.elapsed().as_nanos() as u64;
            for &s in &batch_seqs {
                send_ns[s].store(now, Ordering::Relaxed);
            }
            if writer
                .write_all(&batch)
                .and_then(|()| writer.flush())
                .is_err()
            {
                break;
            }
            sent += batch_seqs.len() as u64;
            batch.clear();
            batch_seqs.clear();
        }
    }
    drop(writer);

    let (replies, latencies_us, actual_hashes, server_hashes, wrong_specs) = reader
        .join()
        .unwrap_or((0, Vec::new(), HashMap::new(), HashMap::new(), 0));
    let io_elapsed = t0.elapsed();
    if let Some(e) = encode_error {
        return Err(e);
    }

    // Off the clock again: the centralised replay. Skip rejected requests
    // on both sides; compare every accepted verdict; fold expected hashes.
    let mut wrong = wrong_specs;
    let mut accepted: u64 = 0;
    let mut rejected = [0u64; 5];
    let mut expected_hashes: HashMap<u64, u64> = HashMap::new();
    for (seq, entry) in schedule.iter().enumerate() {
        let s = status[seq].load(Ordering::Relaxed);
        match s {
            PENDING => continue,
            FEASIBLE | INFEASIBLE => accepted += 1,
            r => {
                rejected[(r - REJ_BASE) as usize] += 1;
                continue;
            }
        }
        let (id, op) = match *entry {
            Entry::Analyze { id } => (u64::from(id), None),
            Entry::Mutate { id, op, slot } => (u64::from(id), Some((op, slot))),
            Entry::Event { id, op, slot } => (id, Some((op, slot))),
            Entry::Spec { .. } => continue, // compared against the template
        };
        let m = mirrors.get_mut(&id).expect("schedule only uses owned ids");
        if let Some((op, slot)) = op {
            m.apply(market_op(op), slot as usize)
                .expect("schedule slots are in range");
        }
        let (expect_feasible, expect_remaining) = (m.feasible(), m.remaining_edges());
        let got_feasible = s == FEASIBLE;
        let got_remaining = remaining[seq].load(Ordering::Relaxed) as usize;
        // `everdict` carries no red count; `verdict` replies must match it.
        let red_agrees = matches!(entry, Entry::Event { .. })
            || red[seq].load(Ordering::Relaxed) as usize == m.remaining_red();
        if got_feasible != expect_feasible || got_remaining != expect_remaining || !red_agrees {
            wrong += 1;
        }
        let h = expected_hashes.entry(id).or_insert(FNV_OFFSET);
        *h = fnv_fold(
            fnv_fold(*h, u64::from(expect_feasible)),
            expect_remaining as u64,
        );
    }
    let mut hash_mismatches = 0u64;
    for (id, expected) in &expected_hashes {
        let replay_agrees = actual_hashes.get(id) == Some(expected);
        // In event mode the server's own last-echoed fold must agree too —
        // the wire-level audit the everdict hash field exists for.
        let server_agrees = !cfg.events || server_hashes.get(id) == Some(expected);
        if !replay_agrees || !server_agrees {
            hash_mismatches += 1;
        }
    }

    Ok(ClientResult {
        sent,
        replies,
        accepted,
        rejected,
        wrong,
        hash_mismatches,
        hash_checked: expected_hashes.len() as u64,
        io_elapsed,
        latencies_us,
    })
}

/// Runs the whole load-generation campaign and returns the aggregated,
/// verified report.
pub fn run_loadgen(cfg: &LoadgenConfig) -> io::Result<LoadgenReport> {
    let clients = cfg.clients.max(1).min(cfg.structures.max(1));
    let templates = build_templates(cfg)?;
    let start = Arc::new(Barrier::new(clients));
    let per_client = cfg.requests / clients as u64;

    let mut handles = Vec::new();
    for c in 0..clients {
        let cfg = LoadgenConfig {
            clients,
            ..cfg.clone()
        };
        let templates = Arc::clone(&templates);
        let start = Arc::clone(&start);
        let count = if c == 0 {
            cfg.requests - per_client * (clients as u64 - 1)
        } else {
            per_client
        };
        handles.push(std::thread::spawn(move || {
            run_client(&cfg, c, count, &templates, &start)
        }));
    }

    let mut results = Vec::new();
    for handle in handles {
        results.push(
            handle
                .join()
                .map_err(|_| io::Error::other("client thread panicked"))??,
        );
    }

    let mut report = LoadgenReport {
        sent: 0,
        replies: 0,
        accepted: 0,
        rejected: [0; 5],
        wrong: 0,
        hash_mismatches: 0,
        hash_checked: 0,
        elapsed: Duration::ZERO,
        rps: 0.0,
        latency: LatencySummary::default(),
        server: None,
    };
    let mut latencies: Vec<u64> = Vec::new();
    for r in results {
        report.sent += r.sent;
        report.replies += r.replies;
        report.accepted += r.accepted;
        for (total, part) in report.rejected.iter_mut().zip(r.rejected) {
            *total += part;
        }
        report.wrong += r.wrong;
        report.hash_mismatches += r.hash_mismatches;
        report.hash_checked += r.hash_checked;
        report.elapsed = report.elapsed.max(r.io_elapsed);
        latencies.extend(r.latencies_us);
    }
    if !report.elapsed.is_zero() {
        report.rps = report.replies as f64 / report.elapsed.as_secs_f64();
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    report.latency = LatencySummary {
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        p999_us: pct(0.999),
        max_us: latencies.last().copied().unwrap_or(0),
    };
    report.server = final_stats(cfg).ok();
    Ok(report)
}

/// One `Stats` round-trip on a fresh connection.
fn final_stats(cfg: &LoadgenConfig) -> io::Result<ServiceStats> {
    let mut conn = Conn::connect(&cfg.addr, cfg.connect_timeout)?;
    conn.set_read_timeout(Some(Duration::from_secs(5)))?;
    let frame = encode_frame(&ServiceRequest::Stats { seq: 0 }.to_wire())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    conn.write_all(&frame)?;
    conn.flush()?;
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match conn.read(&mut buf) {
            Ok(0) => return Err(io::Error::other("server closed before stats reply")),
            Ok(n) => {
                decoder.push(&buf[..n]);
                if let Some(frame) = decoder
                    .next_frame()
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                {
                    return match ServiceReply::from_wire(&frame) {
                        Ok(ServiceReply::Stats { stats, .. }) => Ok(stats),
                        Ok(_) => Err(io::Error::other("expected a stats reply")),
                        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
                    };
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("timed out waiting for stats reply"));
        }
    }
}

/// Ensures [`build_population`] and the mirrors agree — a tripwire for
/// anyone reshaping the population generator on one side only.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mirrors_start_identical_to_server_population() {
        let cfg = LoadgenConfig::default();
        let server = build_population(8, cfg.seed, &cfg.base, MarketMode::Delta);
        for (id, stall) in server.iter().enumerate() {
            let mirror = Stall::generate(
                cfg.seed.wrapping_add(id as u64),
                &cfg.base,
                MarketMode::Full,
                None,
            );
            assert_eq!(mirror.feasible(), stall.feasible());
            assert_eq!(mirror.remaining_edges(), stall.remaining_edges());
            assert_eq!(mirror.pairs(), stall.pairs());
            assert_eq!(mirror.deals(), stall.deals());
        }
    }

    #[test]
    fn schedules_are_deterministic_and_stay_on_owned_ids() {
        let cfg = LoadgenConfig {
            structures: 8,
            clients: 2,
            mutation_rate: 0.5,
            spec_rate: 0.1,
            ..LoadgenConfig::default()
        };
        let mut mirrors = HashMap::new();
        for id in (1..8u64).step_by(2) {
            mirrors.insert(
                id,
                Stall::generate(cfg.seed.wrapping_add(id), &cfg.base, MarketMode::Full, None),
            );
        }
        let a = build_schedule(&cfg, 1, 500, &mirrors, 6);
        let b = build_schedule(&cfg, 1, 500, &mirrors, 6);
        assert_eq!(a.len(), 500);
        let mut mutates = 0;
        for (x, y) in a.iter().zip(&b) {
            match (*x, *y) {
                (Entry::Analyze { id }, Entry::Analyze { id: id2 }) => {
                    assert_eq!(id, id2);
                    assert_eq!(id % 2, 1);
                }
                (
                    Entry::Mutate { id, op, slot },
                    Entry::Mutate {
                        id: id2,
                        op: op2,
                        slot: slot2,
                    },
                ) => {
                    assert_eq!((id, op, slot), (id2, op2, slot2));
                    assert_eq!(id % 2, 1);
                    mutates += 1;
                }
                (Entry::Spec { template }, Entry::Spec { template: t2 }) => {
                    assert_eq!(template, t2);
                }
                _ => panic!("schedules diverged"),
            }
        }
        assert!(mutates > 100, "mutation mix should be substantial");
    }

    /// The oversized-request regression: pre-fix, `encode_request` called
    /// `expect("requests fit in a frame")` and an over-cap spec template
    /// aborted the whole client. It must be a typed error instead.
    #[test]
    fn oversized_request_is_a_typed_error_not_a_panic() {
        let templates = vec![Template {
            source: "x".repeat(trustseq_dist::net::MAX_FRAME_LEN + 1),
            expected: CachedVerdict {
                feasible: true,
                remaining_edges: 0,
                remaining_red: 0,
            },
        }];
        let err = encode_request(&Entry::Spec { template: 0 }, 7, &templates)
            .expect_err("an over-cap request must not encode");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("seq 7"), "{msg}");
        assert!(msg.contains("frame"), "{msg}");
    }

    #[test]
    fn event_schedules_are_deterministic_and_open_grown_ids_with_post() {
        let cfg = LoadgenConfig {
            structures: 6,
            clients: 2,
            events: true,
            grow: 4,
            ..LoadgenConfig::default()
        };
        let mut mirrors = HashMap::new();
        for id in 0..(cfg.structures + cfg.grow) as u64 {
            if id % 2 == 0 {
                mirrors.insert(
                    id,
                    Stall::generate(cfg.seed.wrapping_add(id), &cfg.base, MarketMode::Full, None),
                );
            }
        }
        let a = build_event_schedule(&cfg, 0, 400, &mirrors);
        let b = build_event_schedule(&cfg, 0, 400, &mirrors);
        assert_eq!(a, b, "event schedules must be deterministic");
        let mut seen: HashMap<u64, ServiceOp> = HashMap::new();
        let mut grown_events = 0;
        for entry in &a {
            let Entry::Event { id, op, slot } = *entry else {
                panic!("event schedules carry only events");
            };
            assert_eq!(id % 2, 0, "only owned ids may appear");
            let stall = &mirrors[&id];
            let limit = match op {
                ServiceOp::Accept | ServiceOp::Cancel => stall.pairs(),
                ServiceOp::Post | ServiceOp::Expire => stall.deals(),
            };
            assert!((slot as usize) < limit, "slots stay in range");
            if id >= cfg.structures as u64 {
                grown_events += 1;
                seen.entry(id).or_insert(op);
            }
        }
        assert!(grown_events > 0, "grown ids should be exercised");
        for (id, first_op) in seen {
            assert_eq!(
                first_op,
                ServiceOp::Post,
                "grown id {id} must open with the admitting post"
            );
        }
    }

    #[test]
    fn templates_have_locally_verified_expectations() {
        let templates = build_templates(&LoadgenConfig::default()).unwrap();
        assert_eq!(templates.len(), 6);
        for t in templates.iter() {
            let spec = trustseq_lang::parse_spec(&t.source).unwrap();
            let outcome = trustseq_core::analyze(&spec).unwrap();
            assert_eq!(outcome.feasible, t.expected.feasible);
            assert_eq!(outcome.remaining_edges.len(), t.expected.remaining_edges);
        }
    }
}
