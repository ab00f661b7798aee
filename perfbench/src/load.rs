//! The load generator: at most two connections and two threads. `saturate`
//! is a closed loop with a bounded pipelining window; `paced` is an open
//! loop whose requests are timed from when they were due. Replies are only
//! recorded on the clock; [`verify`] checks every one afterwards.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use trustseq_dist::net::{encode_frame, FrameDecoder};
use trustseq_dist::{ServiceReply, ServiceRequest};
use trustseq_service::{market_op, ServiceConfig};
use trustseq_workloads::{fnv_fold, MarketMode, Stall, FNV_OFFSET};

use crate::workload::{structure, Expected, Inputs, Req, Schedule};

/// Sequence numbers at and above this are `stats` polls, not workload
/// requests.
const POLL_SEQ: u64 = 1 << 62;
/// The set-up probe's sequence number.
const PROBE_SEQ: u64 = 1 << 61;
/// A server silent for this long is wedged; the run fails.
const STALL_LIMIT: Duration = Duration::from_secs(10);
/// Requests in flight in `saturate`, refilled `BATCH` at a time; far below
/// the server's 1024-slot queue, so nothing is shed.
pub const WINDOW: usize = 256;
const BATCH: usize = 32;
/// Time slice `saturate` reports throughput over: long enough to hold
/// every periodic cost of a workload (an `events` hot admission comes
/// every 20000 requests, a few tens of ms), short enough that a host stall
/// spoils only the few slices it overlaps.
pub const SATURATE_SLICE: Duration = Duration::from_millis(250);
/// Most requests `paced` leaves unanswered: half the server's queue. The
/// open loop catches up after a stall of either process in one burst; the
/// cap holds the burst's excess back (each request still timed from its
/// due time) instead of letting it overflow the queue into `overloaded`
/// rejections.
fn paced_in_flight() -> u64 {
    (ServiceConfig::default().queue_capacity / 2) as u64
}
/// The generator's connection budget: the session's connection, plus one
/// set-up probe's while the next server's set-up is timed.
const MAX_CONNECTIONS: usize = 2;

/// Connections open right now; every [`Conn`] counts itself.
static OPEN: AtomicUsize = AtomicUsize::new(0);

/// A connection to a server, counted against [`MAX_CONNECTIONS`] for as
/// long as it is open.
pub struct Conn(TcpStream);

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        OPEN.fetch_add(1, Ordering::SeqCst);
        let conn = Conn(stream);
        within_budget()?;
        Ok(conn)
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        OPEN.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Deref for Conn {
    type Target = TcpStream;

    fn deref(&self) -> &TcpStream {
        &self.0
    }
}

impl DerefMut for Conn {
    fn deref_mut(&mut self) -> &mut TcpStream {
        &mut self.0
    }
}

/// Checks what the generator has live right now against its budget: at
/// most one thread per CPU and [`MAX_CONNECTIONS`] connections. It runs
/// where each count peaks: on every connect, and while the paced reader or
/// the second verifier thread runs.
pub fn within_budget() -> Result<(), String> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::fs::read_dir("/proc/self/task")
        .map_err(|e| format!("/proc/self/task: {e}"))?
        .count();
    let conns = OPEN.load(Ordering::SeqCst);
    if threads > cpus || conns > MAX_CONNECTIONS {
        return Err(format!(
            "the generator runs {threads} threads on {cpus} CPUs and {conns} connections \
             (at most {MAX_CONNECTIONS})"
        ));
    }
    Ok(())
}

// A recorded reply packs into one u64: class in the top two bits, the
// verdict's feasibility bit, red survivors in bits 32..61, survivors in
// the low 32 bits.
const PENDING: u64 = 0;
const VERDICT: u64 = 1;
const EVERDICT: u64 = 2;
const REJECTED: u64 = 3;

fn pack(class: u64, feasible: bool, remaining: u32, red: u32) -> u64 {
    (class << 62)
        | (u64::from(feasible) << 61)
        | (u64::from(red & 0x1fff_ffff) << 32)
        | u64::from(remaining)
}

/// Everything the server said, indexed by sequence number.
pub struct Replies {
    slots: Vec<u64>,
    /// Last verdict-stream hash each structure's `everdict` echoed.
    echoed: Vec<Option<u64>>,
    /// Queue depths reported by `stats` polls.
    pub depths: Vec<u32>,
    /// Frames that were not a reply to anything we sent.
    pub stray: u64,
    /// Rejected workload requests, counted by reason.
    pub reject_reasons: BTreeMap<&'static str, u64>,
}

impl Replies {
    fn new(population: usize) -> Self {
        Replies {
            slots: Vec::new(),
            echoed: vec![None; population],
            depths: Vec::new(),
            stray: 0,
            reject_reasons: BTreeMap::new(),
        }
    }

    /// Records one reply frame; returns its sequence number.
    fn record(&mut self, frame: &str, schedule_hint: impl Fn(u64) -> Option<u64>) -> Option<u64> {
        let Ok(reply) = ServiceReply::from_wire(frame) else {
            self.stray += 1;
            return None;
        };
        let seq = reply.seq();
        let packed = match reply {
            ServiceReply::Stats { stats, .. } if seq >= POLL_SEQ => {
                self.depths.push(stats.queue_depth);
                return Some(seq);
            }
            ServiceReply::Verdict {
                feasible,
                remaining,
                remaining_red,
                ..
            } => pack(VERDICT, feasible, remaining, remaining_red),
            ServiceReply::EventVerdict {
                feasible,
                remaining,
                hash,
                ..
            } => {
                if let Some(slot) =
                    schedule_hint(seq).and_then(|id| self.echoed.get_mut(id as usize))
                {
                    *slot = Some(hash);
                }
                pack(EVERDICT, feasible, remaining, 0)
            }
            ServiceReply::Rejected { reason, .. } => {
                *self.reject_reasons.entry(reason.token()).or_default() += 1;
                pack(REJECTED, false, 0, 0)
            }
            ServiceReply::Stats { .. } => {
                self.stray += 1;
                return None;
            }
        };
        match self.slots.get_mut(seq as usize) {
            Some(slot) if *slot == PENDING => *slot = packed,
            _ => self.stray += 1,
        }
        Some(seq)
    }
}

/// Encodes one scheduled request as a wire frame appended to `out`.
pub fn encode(req: Req, seq: u64, inputs: &Inputs, out: &mut Vec<u8>) {
    let request = match req {
        Req::Analyze { id } => ServiceRequest::Analyze { seq, id },
        Req::Mutate { id, op, slot } => ServiceRequest::Mutate { seq, id, op, slot },
        Req::Event { id, op, slot } => ServiceRequest::Event { seq, id, op, slot },
        Req::Spec { index } => ServiceRequest::AnalyzeSpec {
            seq,
            spec: inputs.specs[index as usize].source.clone(),
        },
    };
    push_frame(&request, out);
}

fn push_frame(request: &ServiceRequest, out: &mut Vec<u8>) {
    let frame = encode_frame(&request.to_wire()).expect("generated requests fit in a frame");
    out.extend_from_slice(&frame);
}

/// One connection to a server, carrying one continuous request stream
/// across every phase.
pub struct Session<'a> {
    inputs: &'a Inputs,
    stream: Conn,
    decoder: FrameDecoder,
    schedule: Schedule<'a>,
    /// Structure each in-flight event addresses, for attributing echoed
    /// hashes without re-deriving the schedule on the clock.
    event_ids: Vec<u32>,
    pub replies: Replies,
    /// Workload requests sent so far (= next sequence number).
    pub sent: u64,
    polls: u64,
    outstanding: usize,
    /// `stats` poll period, in the traced run only.
    poll_every: Option<Duration>,
    wbuf: Vec<u8>,
    rbuf: Vec<u8>,
}

/// Connects to a fresh server and asks for structure 0's verdict,
/// checking it against a locally generated copy: the first verified reply
/// that ends the set-up interval.
pub fn probe(addr: SocketAddr, inputs: &Inputs) -> Result<Conn, String> {
    let mut stream = Conn::connect(addr)?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(STALL_LIMIT))
        .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    push_frame(
        &ServiceRequest::Analyze {
            seq: PROBE_SEQ,
            id: 0,
        },
        &mut buf,
    );
    stream.write_all(&buf).map_err(|e| e.to_string())?;
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 256];
    let frame = loop {
        if let Some(frame) = decoder.next_frame().map_err(|e| e.to_string())? {
            break frame;
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("probe reply: {e}"))?;
        if n == 0 {
            return Err("server closed the probe connection".to_string());
        }
        decoder.push(&chunk[..n]);
    };
    match ServiceReply::from_wire(&frame) {
        Ok(ServiceReply::Verdict {
            seq: PROBE_SEQ,
            feasible,
            remaining,
            ..
        }) if (feasible, remaining) == inputs.probe => Ok(stream),
        other => Err(format!("set-up probe got a wrong reply: {other:?}")),
    }
}

impl<'a> Session<'a> {
    pub fn new(inputs: &'a Inputs, stream: Conn, poll_every: Option<Duration>) -> Self {
        Session {
            inputs,
            stream,
            decoder: FrameDecoder::new(),
            schedule: inputs.schedule(),
            event_ids: Vec::new(),
            replies: Replies::new(inputs.population),
            sent: 0,
            polls: 0,
            outstanding: 0,
            poll_every,
            wbuf: Vec::with_capacity(64 << 10),
            rbuf: vec![0u8; 64 << 10],
        }
    }

    /// Appends the next scheduled request to the write buffer.
    fn push_next(&mut self) {
        let req = self.schedule.next_req();
        let seq = self.sent;
        encode(req, seq, self.inputs, &mut self.wbuf);
        self.event_ids.push(if let Req::Event { id, .. } = req {
            id as u32
        } else {
            u32::MAX
        });
        self.replies.slots.push(PENDING);
        self.sent += 1;
        self.outstanding += 1;
    }

    fn push_poll(&mut self) {
        push_frame(
            &ServiceRequest::Stats {
                seq: POLL_SEQ + self.polls,
            },
            &mut self.wbuf,
        );
        self.polls += 1;
        self.outstanding += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// One blocking read; records every complete reply. Returns how many
    /// workload replies arrived.
    fn read_some(&mut self) -> io::Result<u64> {
        let n = match self.stream.read(&mut self.rbuf) {
            Ok(0) => return Err(io::Error::other("server closed the connection")),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(io::Error::other("server stopped answering"))
            }
            Err(e) => return Err(e),
        };
        self.decoder.push(&self.rbuf[..n]);
        let mut workload = 0;
        while let Some(frame) = self.decoder.next_frame().map_err(io::Error::other)? {
            let event_ids = &self.event_ids;
            let seq = self.replies.record(&frame, |seq| {
                event_ids.get(seq as usize).map(|&id| u64::from(id))
            });
            self.outstanding = self.outstanding.saturating_sub(1);
            if seq.is_some_and(|s| s < POLL_SEQ) {
                workload += 1;
            }
        }
        Ok(workload)
    }

    /// Closed loop for `dur`: keeps [`WINDOW`] requests in flight, then
    /// drains. Measures from the first send to the last reply, and the
    /// throughput of each [`SATURATE_SLICE`] of that time.
    pub fn closed_loop(&mut self, dur: Duration) -> io::Result<Block> {
        self.drain()?;
        let t0 = Instant::now();
        let end = t0 + dur;
        let mut answered = 0;
        let mut next_poll = t0;
        let mut slice = (t0, 0);
        let mut slice_rps = Vec::new();
        loop {
            let now = Instant::now();
            if now - slice.0 >= SATURATE_SLICE {
                slice_rps.push((answered - slice.1) as f64 / (now - slice.0).as_secs_f64());
                slice = (now, answered);
            }
            if now >= end {
                break;
            }
            while self.outstanding + BATCH <= WINDOW {
                for _ in 0..BATCH {
                    self.push_next();
                }
            }
            if let Some(every) = self.poll_every {
                if now >= next_poll {
                    self.push_poll();
                    next_poll = now + every;
                }
            }
            self.flush()?;
            answered += self.read_some()?;
        }
        answered += self.drain()?;
        Ok(Block {
            answered,
            secs: t0.elapsed().as_secs_f64(),
            slice_rps,
        })
    }

    /// Reads until every request sent so far is answered; returns how many
    /// workload replies that took.
    pub fn drain(&mut self) -> io::Result<u64> {
        self.flush()?;
        let mut answered = 0;
        while self.outstanding > 0 {
            answered += self.read_some()?;
        }
        Ok(answered)
    }

    /// Open loop at `rate` requests/second for `dur`. Request `i` is due at
    /// `t0 + i / rate`; its latency runs from that due time to its reply.
    /// The writer (this thread) sleeps between due times and the reader
    /// runs on a second thread; at most [`paced_in_flight`] requests are
    /// outstanding.
    pub fn paced(&mut self, rate: f64, dur: Duration) -> io::Result<Paced> {
        self.drain()?;
        let total = (rate * dur.as_secs_f64()) as u64;
        let seq0 = self.sent;
        let reader_stream = self.stream.try_clone()?;
        reader_stream.set_read_timeout(Some(Duration::from_millis(50)))?;
        let expected = AtomicU64::new(u64::MAX);
        let received = AtomicU64::new(0);
        let cap = paced_in_flight();
        let mut lags_ns = Vec::with_capacity(total as usize);
        let poll_every = self.poll_every;
        let mut decoder = std::mem::take(&mut self.decoder);
        let mut replies = std::mem::replace(&mut self.replies, Replies::new(0));
        // The reader needs each event's structure id; pre-extend the table
        // for the whole phase so the writer never reallocates it under the
        // reader. The schedule is drawn here, off the clock.
        let reqs: Vec<Req> = (0..total).map(|_| self.schedule.next_req()).collect();
        let mut event_ids = std::mem::take(&mut self.event_ids);
        event_ids.extend(reqs.iter().map(|r| match *r {
            Req::Event { id, .. } => id as u32,
            _ => u32::MAX,
        }));
        replies
            .slots
            .resize(replies.slots.len() + total as usize, PENDING);
        // Due times start once all of that is done, or the first requests
        // would be due before the writer could send them.
        let t0 = Instant::now() + Duration::from_millis(2);
        let due = |i: u64| t0 + Duration::from_secs_f64(i as f64 / rate);

        let (wrote, read) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                paced_reader(
                    reader_stream,
                    &mut decoder,
                    &mut replies,
                    &event_ids,
                    &expected,
                    &received,
                    |seq| {
                        let i = seq.checked_sub(seq0).filter(|&i| i < total)?;
                        Some((i as usize, due(i)))
                    },
                )
            });
            let mut write = || -> io::Result<()> {
                let mut i = 0u64;
                let mut next_poll = t0;
                let mut frames = 0u64;
                while i < total {
                    let now = Instant::now();
                    let d = due(i);
                    if now < d {
                        std::thread::sleep(d - now);
                    }
                    let room = cap.saturating_sub(frames - received.load(Ordering::SeqCst));
                    if room == 0 {
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    let now = Instant::now();
                    let last = (((now - t0).as_secs_f64() * rate) as u64 + 1)
                        .clamp(i + 1, total)
                        .min(i + room);
                    for j in i..last {
                        encode(reqs[j as usize], seq0 + j, self.inputs, &mut self.wbuf);
                        lags_ns.push(now.saturating_duration_since(due(j)).as_nanos() as f64);
                    }
                    frames += last - i;
                    i = last;
                    if let Some(every) = poll_every {
                        if now >= next_poll {
                            push_frame(
                                &ServiceRequest::Stats {
                                    seq: POLL_SEQ + self.polls,
                                },
                                &mut self.wbuf,
                            );
                            self.polls += 1;
                            frames += 1;
                            next_poll = now + every;
                        }
                    }
                    self.stream.write_all(&self.wbuf)?;
                    self.wbuf.clear();
                }
                expected.store(frames, Ordering::SeqCst);
                Ok(())
            };
            // The reader is live: the generator's peak thread count.
            let wrote = within_budget()
                .map_err(io::Error::other)
                .and_then(|()| write());
            if wrote.is_err() {
                expected.store(0, Ordering::SeqCst);
            }
            (wrote, reader.join().expect("paced reader panicked"))
        });
        self.decoder = decoder;
        self.replies = replies;
        self.event_ids = event_ids;
        self.sent += total;
        self.stream.set_read_timeout(Some(STALL_LIMIT))?;
        wrote?;
        let mut latencies_ns = read?;
        latencies_ns.resize(total as usize, f64::NAN);
        lags_ns.sort_by(f64::total_cmp);
        Ok(Paced {
            latencies_ns,
            lags_ns,
        })
    }
}

/// The paced phase's reader: records replies and each request's latency
/// from its due time, until the writer's final frame count is reached.
/// Latencies are indexed by the request's position in the phase.
fn paced_reader(
    mut stream: TcpStream,
    decoder: &mut FrameDecoder,
    replies: &mut Replies,
    event_ids: &[u32],
    expected: &AtomicU64,
    received: &AtomicU64,
    due_of: impl Fn(u64) -> Option<(usize, Instant)>,
) -> io::Result<Vec<f64>> {
    let mut buf = vec![0u8; 64 << 10];
    let mut got = 0u64;
    let mut latencies = Vec::new();
    let mut last_byte = Instant::now();
    while got < expected.load(Ordering::SeqCst) {
        let n = match stream.read(&mut buf) {
            Ok(0) => return Err(io::Error::other("server closed the connection")),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_byte.elapsed() > STALL_LIMIT {
                    return Err(io::Error::other("server stopped answering"));
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let now = Instant::now();
        last_byte = now;
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next_frame().map_err(io::Error::other)? {
            got += 1;
            received.store(got, Ordering::SeqCst);
            let seq = replies.record(&frame, |seq| {
                event_ids.get(seq as usize).map(|&id| u64::from(id))
            });
            if let Some((i, due)) = seq.and_then(&due_of) {
                if latencies.len() <= i {
                    latencies.resize(i + 1, f64::NAN);
                }
                latencies[i] = now.saturating_duration_since(due).as_nanos() as f64;
            }
        }
    }
    Ok(latencies)
}

/// What one closed-loop phase measured.
#[derive(Debug, Clone)]
pub struct Block {
    /// Workload requests answered.
    pub answered: u64,
    /// Seconds from the first send to the last reply.
    pub secs: f64,
    /// Requests per second over each whole [`SATURATE_SLICE`] of the block
    /// (the final drain is left out).
    pub slice_rps: Vec<f64>,
}

/// What the paced phase measured.
pub struct Paced {
    /// Latency of request `i` of the phase, from its due time (NaN if it
    /// went unanswered).
    pub latencies_ns: Vec<f64>,
    /// How late the writer sent each request, sorted ascending.
    pub lags_ns: Vec<f64>,
}

/// The outcome of checking every reply against an independent replay.
#[derive(Debug, Default, Clone)]
pub struct Verification {
    pub attempted: u64,
    pub rejected: u64,
    /// `rejected`, by the reason the server gave.
    pub reject_reasons: BTreeMap<&'static str, u64>,
    pub unanswered: u64,
    pub wrong: u64,
    pub hash_mismatches: u64,
    pub hashes_checked: u64,
    pub stray: u64,
}

impl Verification {
    pub fn failed(&self) -> u64 {
        self.rejected + self.unanswered + self.wrong + self.hash_mismatches + self.stray
    }
}

/// Off the clock: replays the whole request stream against
/// [`MarketMode::Full`] mirrors (a full re-reduction per event — an
/// independent reducer) and the offline spec verdicts, comparing every
/// reply, every per-structure verdict-stream hash, and each structure's
/// last server-echoed `everdict` hash. Structures are split by id parity
/// over two threads; each thread redraws the same schedule.
pub fn verify(inputs: &Inputs, replies: &Replies, sent: u64) -> Result<Verification, String> {
    let part = |parity: u64| {
        let mut v = Verification::default();
        let mut mirrors: Vec<Option<Stall>> = (0..inputs.population as u64)
            .map(|id| {
                (id % 2 == parity).then(|| structure(inputs.server_seed, id, MarketMode::Full))
            })
            .collect();
        let mut want_hash = vec![FNV_OFFSET; inputs.population];
        let mut got_hash = vec![FNV_OFFSET; inputs.population];
        let mut touched = vec![false; inputs.population];
        let mut schedule = inputs.schedule();
        for seq in 0..sent {
            let req = schedule.next_req();
            if req.structure().unwrap_or(seq) % 2 != parity {
                continue;
            }
            let slot = replies.slots[seq as usize];
            let class = slot >> 62;
            match class {
                PENDING => {
                    v.unanswered += 1;
                    continue;
                }
                REJECTED => {
                    // The server guarantees a rejected request had no effect.
                    v.rejected += 1;
                    continue;
                }
                _ => {}
            }
            let got = Expected {
                feasible: slot >> 61 & 1 == 1,
                remaining: slot as u32,
                remaining_red: (slot >> 32) as u32 & 0x1fff_ffff,
            };
            let want_class = if matches!(req, Req::Event { .. }) {
                EVERDICT
            } else {
                VERDICT
            };
            let want = match req {
                Req::Spec { index } => {
                    if class != want_class || got != inputs.specs[index as usize].expected {
                        v.wrong += 1;
                    }
                    continue;
                }
                Req::Analyze { id } => mirror(&mut mirrors, u64::from(id)),
                Req::Mutate { id, op, slot } => {
                    let m = mirror(&mut mirrors, u64::from(id));
                    m.apply(market_op(op), slot as usize)
                        .expect("scheduled slots are in range");
                    m
                }
                Req::Event { id, op, slot } => {
                    let m = mirror(&mut mirrors, id);
                    m.apply(market_op(op), slot as usize)
                        .expect("scheduled slots are in range");
                    m
                }
            };
            let (feasible, remaining) = (want.feasible(), want.remaining_edges() as u32);
            if class != want_class || got.feasible != feasible || got.remaining != remaining {
                v.wrong += 1;
            }
            let id = req.structure().expect("structure requests") as usize;
            touched[id] = true;
            want_hash[id] = fnv_fold(
                fnv_fold(want_hash[id], u64::from(feasible)),
                u64::from(remaining),
            );
            got_hash[id] = fnv_fold(
                fnv_fold(got_hash[id], u64::from(got.feasible)),
                u64::from(got.remaining),
            );
        }
        for id in (0..inputs.population).filter(|&id| touched[id]) {
            v.hashes_checked += 1;
            let echoed_ok = match replies.echoed[id] {
                Some(echo) => echo == want_hash[id],
                // Structures only ever analyzed or mutated echo nothing.
                None => inputs.workload.event == 0.0,
            };
            if got_hash[id] != want_hash[id] || !echoed_ok {
                v.hash_mismatches += 1;
            }
        }
        v
    };
    let (budget, a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| part(1));
        // Both verifier threads are live: the generator's peak thread count.
        let budget = within_budget();
        (budget, part(0), other.join().expect("verifier panicked"))
    });
    budget?;
    Ok(Verification {
        attempted: sent,
        rejected: a.rejected + b.rejected,
        reject_reasons: replies.reject_reasons.clone(),
        unanswered: a.unanswered + b.unanswered,
        wrong: a.wrong + b.wrong,
        hash_mismatches: a.hash_mismatches + b.hash_mismatches,
        hashes_checked: a.hashes_checked + b.hashes_checked,
        stray: replies.stray,
    })
}

fn mirror(mirrors: &mut [Option<Stall>], id: u64) -> &mut Stall {
    mirrors[id as usize]
        .as_mut()
        .expect("each verifier owns the structures of its parity")
}
