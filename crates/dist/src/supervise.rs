//! Connection supervision for the multi-process distributed engine.
//!
//! [`run_node`] is one principal's runtime: it owns that participant's
//! [`Node`](crate::Node) slice of the sequencing graph, listens for peer
//! traffic on its own socket, maintains one supervised outbound link per
//! peer (connect deadlines, heartbeat keepalives, bounded reconnect with
//! jittered exponential backoff) and speaks the PR-2 ack/retransmit
//! protocol over them. [`run_supervisor`] is the orchestrating parent's
//! control plane: every node connects to it, streams periodic
//! [`NodeStatus`] reports, and the supervisor decides the run — then
//! broadcasts a `halt` frame so every process exits promptly.
//!
//! # The degradation ladder
//!
//! The socket layer inherits the resilient engine's contract: **at worst
//! `Undecided`, never a wrong verdict**. Concretely ([`decide`]):
//!
//! 1. The union of all reported dead-edge sets equals the edge count →
//!    `Feasible`. Always sound, even with crashed peers: removals are
//!    monotone and self-certifying.
//! 2. The wall-clock deadline expired first → `Undecided(Deadline)`.
//! 3. The run settled but a node died or never appeared →
//!    `Undecided(NodesDown)`.
//! 4. The run settled with every node alive but some announcement
//!    exhausted its retry budget → `Undecided(RetriesExhausted)` (a
//!    surviving view may be stale).
//! 5. The run settled, everyone alive, nothing abandoned → the fixpoint is
//!    the centralised one → `Infeasible`.
//!
//! Everything the network can do wrong — torn writes, mangled frames,
//! refused connections, dead peers — is absorbed by the same machinery
//! that handles codec corruption in-process: the frame dies, the
//! retransmission layer resends, and if the budget runs out the verdict
//! degrades explicitly.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use trustseq_core::{CoreError, EdgeId, Rule};
use trustseq_model::{AgentId, ExchangeSpec};

use crate::codec::{NodeStatus, Packet};
use crate::engine::DistributedReduction;
use crate::faults::FaultPlan;
use crate::net::{encode_frame, Addr, Conn, FrameDecoder, Listener, NetworkDescription};
use crate::node::Message;
use crate::resilient::{DistVerdict, UndecidedReason};

/// Tunable timing/budget parameters for the supervision layer. All
/// durations are milliseconds; the defaults suit loopback runs and the
/// chaos matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperviseConfig {
    /// Main-loop tick period. The fault plan's round-indexed windows
    /// (partitions) are interpreted in ticks.
    pub tick_ms: u64,
    /// Send a status report to the supervisor every this many ticks.
    pub status_every: u64,
    /// Send a keepalive ping on a link idle this long.
    pub heartbeat_ms: u64,
    /// Socket connect deadline.
    pub connect_timeout_ms: u64,
    /// Per-read poll timeout (bounds how fast threads notice shutdown).
    pub read_timeout_ms: u64,
    /// Reconnect backoff base delay.
    pub reconnect_base_ms: u64,
    /// Reconnect backoff ceiling.
    pub reconnect_max_ms: u64,
    /// Retry budget per announcement before it is abandoned.
    pub max_attempts: u32,
    /// Retransmit an unacknowledged announcement after this long
    /// (doubling per retry, capped at 8×).
    pub ack_timeout_ms: u64,
    /// The supervisor decides `Infeasible`/`NodesDown` only after nothing
    /// changed for this long (quiescence confirmation window).
    pub settle_ms: u64,
    /// An expected node that has not reported for this long counts as
    /// lost.
    pub stale_ms: u64,
    /// Hard wall-clock budget for the whole run; expiry degrades to
    /// `Undecided(Deadline)` and node watchdogs fire shortly after.
    pub deadline_ms: u64,
    /// Seed for reconnect-backoff jitter.
    pub jitter_seed: u64,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            tick_ms: 5,
            status_every: 10,
            heartbeat_ms: 200,
            connect_timeout_ms: 500,
            read_timeout_ms: 25,
            reconnect_base_ms: 10,
            reconnect_max_ms: 250,
            max_attempts: 8,
            ack_timeout_ms: 60,
            settle_ms: 250,
            stale_ms: 2500,
            deadline_ms: 15_000,
            jitter_seed: 1,
        }
    }
}

/// Typed failure while parsing a [`SuperviseConfig`] wire string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperviseConfigParseError {
    /// The offending fragment.
    pub fragment: String,
    /// What was expected instead.
    pub expected: &'static str,
}

impl fmt::Display for SuperviseConfigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad supervise config near {:?}: expected {}",
            self.fragment, self.expected
        )
    }
}

impl std::error::Error for SuperviseConfigParseError {}

impl SuperviseConfig {
    /// Canonical wire form, carried by a network description's `config=`
    /// line so one artifact pins a whole deployment's parameters.
    pub fn to_wire(&self) -> String {
        format!(
            "tick={};status={};hb={};conn={};read={};rbase={};rmax={};attempts={};ack={};settle={};stale={};deadline={};jseed={}",
            self.tick_ms,
            self.status_every,
            self.heartbeat_ms,
            self.connect_timeout_ms,
            self.read_timeout_ms,
            self.reconnect_base_ms,
            self.reconnect_max_ms,
            self.max_attempts,
            self.ack_timeout_ms,
            self.settle_ms,
            self.stale_ms,
            self.deadline_ms,
            self.jitter_seed,
        )
    }

    /// Parses the wire form. Strict field order, no extras.
    pub fn from_wire(s: &str) -> Result<Self, SuperviseConfigParseError> {
        fn field<T: std::str::FromStr>(
            part: Option<&str>,
            key: &'static str,
        ) -> Result<T, SuperviseConfigParseError> {
            let err = |fragment: &str| SuperviseConfigParseError {
                fragment: fragment.to_string(),
                expected: key,
            };
            let part = part.ok_or_else(|| err(""))?;
            match part.split_once('=') {
                Some((k, v)) if k == key => v.parse().map_err(|_| err(v)),
                _ => Err(err(part)),
            }
        }
        let mut parts = s.split(';');
        let config = SuperviseConfig {
            tick_ms: field::<u64>(parts.next(), "tick")?.max(1),
            status_every: field::<u64>(parts.next(), "status")?.max(1),
            heartbeat_ms: field(parts.next(), "hb")?,
            connect_timeout_ms: field(parts.next(), "conn")?,
            read_timeout_ms: field::<u64>(parts.next(), "read")?.max(1),
            reconnect_base_ms: field::<u64>(parts.next(), "rbase")?.max(1),
            reconnect_max_ms: field(parts.next(), "rmax")?,
            max_attempts: field(parts.next(), "attempts")?,
            ack_timeout_ms: field(parts.next(), "ack")?,
            settle_ms: field(parts.next(), "settle")?,
            stale_ms: field(parts.next(), "stale")?,
            deadline_ms: field(parts.next(), "deadline")?,
            jitter_seed: field(parts.next(), "jseed")?,
        };
        if let Some(extra) = parts.next() {
            return Err(SuperviseConfigParseError {
                fragment: extra.to_string(),
                expected: "end of config",
            });
        }
        Ok(config)
    }
}

/// Typed failure of the socket runtime.
#[derive(Debug)]
pub enum SuperviseError {
    /// Socket-level failure (bind/connect/listen).
    Io(std::io::Error),
    /// The exchange spec could not be compiled into a sequencing graph.
    Core(CoreError),
    /// The requested principal does not participate in the spec, or is
    /// missing from the network description.
    UnknownAgent(AgentId),
}

impl fmt::Display for SuperviseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuperviseError::Io(e) => write!(f, "socket error: {e}"),
            SuperviseError::Core(e) => write!(f, "spec error: {e}"),
            SuperviseError::UnknownAgent(a) => {
                write!(f, "agent {a} is not a participant with an address")
            }
        }
    }
}

impl std::error::Error for SuperviseError {}

impl From<std::io::Error> for SuperviseError {
    fn from(e: std::io::Error) -> Self {
        SuperviseError::Io(e)
    }
}

impl From<CoreError> for SuperviseError {
    fn from(e: CoreError) -> Self {
        SuperviseError::Core(e)
    }
}

/// Shared per-link traffic accounting; every field is an independent
/// relaxed atomic so snapshots are torn-free and writers never contend on
/// a lock.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Bytes written (frames + headers).
    pub bytes_tx: AtomicU64,
    /// Frames written.
    pub frames_tx: AtomicU64,
    /// Bytes read.
    pub bytes_rx: AtomicU64,
    /// Frames read.
    pub frames_rx: AtomicU64,
    /// Successful reconnections after a connection died.
    pub reconnects: AtomicU64,
    /// Frames that failed to decode (mangled text or torn framing).
    pub decode_failures: AtomicU64,
    /// Most recent announcement→ack round trip, microseconds.
    pub rtt_us: AtomicU64,
}

/// What one node process reports back to its caller when it exits.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// The verdict the supervisor broadcast, or `None` if the node's own
    /// watchdog expired before a halt arrived.
    pub verdict: Option<DistVerdict>,
    /// The node's final self-report.
    pub status: NodeStatus,
    /// Ticks the main loop ran.
    pub ticks: u64,
}

/// splitmix64 — the same tiny generator the fault plans use; good enough
/// for backoff jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4b9f9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// An unacknowledged announcement awaiting its ack or abandonment.
struct PendingTx {
    msg: Message,
    sent_at: Instant,
    attempts: u32,
    next_retry_tick: u64,
    acked: bool,
    abandoned: bool,
}

/// Commands/shared state handed to one outbound peer-link thread.
struct LinkShared {
    me: AgentId,
    peer: AgentId,
    addr: Addr,
    config: SuperviseConfig,
    plan: FaultPlan,
    stop: Arc<AtomicBool>,
    tick: Arc<AtomicU64>,
    tid: Arc<AtomicU64>,
    stats: Arc<LinkStats>,
}

/// Writes one already-encoded buffer, updating stats; `Err` means the
/// connection is dead and should be re-established.
fn raw_write(conn: &mut Conn, bytes: &[u8], stats: &LinkStats) -> std::io::Result<()> {
    conn.write_all(bytes)?;
    conn.flush()?;
    stats
        .bytes_tx
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    stats.frames_tx.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The supervised outbound link: owns the connection to one peer, applies
/// the fault plan to data-plane traffic, reconnects with jittered
/// exponential backoff, and heartbeats when idle.
fn link_thread(shared: LinkShared, rx: mpsc::Receiver<String>) {
    let LinkShared {
        me,
        peer,
        addr,
        config,
        plan,
        stop,
        tick,
        tid,
        stats,
    } = shared;
    let mut conn: Option<Conn> = None;
    let mut connect_attempts: u32 = 0;
    let mut ever_connected = false;
    let mut deferred: Vec<(u64, String)> = Vec::new();
    let mut last_write = Instant::now();
    let hello = encode_frame(&Packet::Hello { from: me }.to_wire()).expect("hello fits");

    'outer: while !stop.load(Ordering::Relaxed) {
        let now_tick = tick.load(Ordering::Relaxed) as usize;

        // A scheduled partition: drop the connection and discard traffic,
        // exactly like the in-process transport's `cut` counter. The
        // retransmission layer re-announces after the window heals.
        if plan.is_cut(me, peer, now_tick) {
            if let Some(c) = conn.take() {
                let _ = c.shutdown();
            }
            while rx.try_recv().is_ok() {}
            deferred.clear();
            thread::sleep(Duration::from_millis(config.tick_ms));
            continue;
        }

        // (Re)connect with jittered exponential backoff.
        if conn.is_none() {
            match Conn::connect(&addr, Duration::from_millis(config.connect_timeout_ms)) {
                Ok(mut c) => {
                    let _ =
                        c.set_write_timeout(Some(Duration::from_millis(config.connect_timeout_ms)));
                    if raw_write(&mut c, &hello, &stats).is_ok() {
                        if ever_connected {
                            stats.reconnects.fetch_add(1, Ordering::Relaxed);
                        }
                        ever_connected = true;
                        connect_attempts = 0;
                        conn = Some(c);
                        last_write = Instant::now();
                    }
                }
                Err(_) => {
                    let backoff = (config.reconnect_base_ms << connect_attempts.min(8))
                        .min(config.reconnect_max_ms);
                    let jitter = splitmix64(
                        config
                            .jitter_seed
                            .wrapping_add(me.index() as u64)
                            .wrapping_mul(0x100)
                            .wrapping_add(peer.index() as u64)
                            .wrapping_add(connect_attempts as u64),
                    ) % config.reconnect_base_ms.max(1);
                    connect_attempts = connect_attempts.saturating_add(1);
                    // Sleep in small slices so stop stays responsive.
                    let mut left = backoff + jitter;
                    while left > 0 && !stop.load(Ordering::Relaxed) {
                        let slice = left.min(20);
                        thread::sleep(Duration::from_millis(slice));
                        left -= slice;
                    }
                    continue;
                }
            }
            if conn.is_none() {
                continue;
            }
        }

        // Release frames whose reorder delay expired.
        let mut i = 0;
        while i < deferred.len() {
            if deferred[i].0 <= now_tick as u64 {
                let (_, frame) = deferred.swap_remove(i);
                if let Ok(bytes) = encode_frame(&frame) {
                    if let Some(c) = conn.as_mut() {
                        if raw_write(c, &bytes, &stats).is_err() {
                            conn = None;
                            continue 'outer;
                        }
                        last_write = Instant::now();
                    }
                }
            } else {
                i += 1;
            }
        }

        // Wait for the next frame to send, or heartbeat when idle.
        match rx.recv_timeout(Duration::from_millis(config.tick_ms.max(1))) {
            Ok(frame) => {
                let n = tid.fetch_add(1, Ordering::Relaxed);
                if plan.drops(n) {
                    continue;
                }
                let delay = plan.extra_delay(n);
                if delay > 0 {
                    deferred.push(((now_tick as u64).saturating_add(delay), frame));
                    continue;
                }
                let c = conn.as_mut().expect("connected above");
                if plan.corrupts(n) {
                    if n % 2 == 0 {
                        // Codec-level corruption: a well-framed but
                        // truncated text frame; the peer's decoder rejects
                        // it with a typed error and the retransmission
                        // layer absorbs the loss.
                        let cut = frame.len() / 2;
                        if let Ok(bytes) = encode_frame(&frame[..cut]) {
                            if raw_write(c, &bytes, &stats).is_err() {
                                conn = None;
                            }
                            last_write = Instant::now();
                        }
                    } else {
                        // Framing-level corruption: a torn write — half the
                        // bytes, then the connection dies. The peer's
                        // decoder reports a typed truncation at EOF and
                        // discards the partial frame; we reconnect.
                        if let Ok(bytes) = encode_frame(&frame) {
                            let cut = (bytes.len() / 2).max(1);
                            let _ = c.write_all(&bytes[..cut]);
                            let _ = c.flush();
                            let _ = c.shutdown();
                            stats.bytes_tx.fetch_add(cut as u64, Ordering::Relaxed);
                            conn = None;
                        }
                    }
                    continue;
                }
                let bytes = match encode_frame(&frame) {
                    Ok(bytes) => bytes,
                    Err(_) => continue,
                };
                if raw_write(c, &bytes, &stats).is_err() {
                    conn = None;
                    continue;
                }
                last_write = Instant::now();
                if plan.duplicates(n) {
                    let dup_delay = plan.dup_extra_delay(n);
                    if dup_delay > 0 {
                        deferred.push(((now_tick as u64).saturating_add(dup_delay), frame));
                    } else if raw_write(c, &bytes, &stats).is_err() {
                        conn = None;
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if last_write.elapsed() >= Duration::from_millis(config.heartbeat_ms.max(1)) {
                    let ping = Packet::Ping {
                        tick: now_tick as u64,
                    }
                    .to_wire();
                    if let (Some(c), Ok(bytes)) = (conn.as_mut(), encode_frame(&ping)) {
                        if raw_write(c, &bytes, &stats).is_err() {
                            conn = None;
                        }
                        last_write = Instant::now();
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    if let Some(c) = conn.take() {
        let _ = c.shutdown();
    }
}

/// One inbound connection's reader: reassembles frames, decodes packets,
/// learns the peer from its `hello`, and forwards everything to the main
/// loop. A torn stream ends with a typed truncation which is counted and
/// absorbed.
fn reader_thread(
    mut conn: Conn,
    config: SuperviseConfig,
    stop: Arc<AtomicBool>,
    stats: Arc<LinkStats>,
    tx: mpsc::Sender<(AgentId, Packet)>,
) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms)));
    let mut dec = FrameDecoder::new();
    let mut peer: Option<AgentId> = None;
    let mut buf = [0u8; 4096];
    while !stop.load(Ordering::Relaxed) {
        match conn.read(&mut buf) {
            Ok(0) => {
                if dec.finish().is_err() {
                    // Torn write: the peer died mid-frame. The partial
                    // frame is discarded, never delivered.
                    stats.decode_failures.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Ok(n) => {
                stats.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
                dec.push(&buf[..n]);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            stats.frames_rx.fetch_add(1, Ordering::Relaxed);
                            match Packet::from_wire(&frame) {
                                Ok(Packet::Hello { from }) => peer = Some(from),
                                Ok(packet) => {
                                    if let Some(p) = peer {
                                        if tx.send((p, packet)).is_err() {
                                            return;
                                        }
                                    }
                                }
                                Err(_) => {
                                    stats.decode_failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(_) => {
                            // Mangled framing poisons the stream; drop the
                            // connection and let the sender reconnect.
                            stats.decode_failures.fetch_add(1, Ordering::Relaxed);
                            let _ = conn.shutdown();
                            return;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Runs one principal's socket runtime to completion: reduces its local
/// slice, gossips removals to peers over supervised links, reports status
/// to the supervisor, and exits on the supervisor's `halt` broadcast (or
/// its own watchdog, slightly after the configured deadline).
pub fn run_node(
    spec: &ExchangeSpec,
    me: AgentId,
    desc: &NetworkDescription,
    config: &SuperviseConfig,
    plan: &FaultPlan,
) -> Result<NodeReport, SuperviseError> {
    let mut engine = DistributedReduction::new(spec)?;
    if !engine.nodes.contains_key(&me) {
        return Err(SuperviseError::UnknownAgent(me));
    }
    let my_addr = desc
        .addr_of(me)
        .ok_or(SuperviseError::UnknownAgent(me))?
        .clone();
    let config = *config;

    let stop = Arc::new(AtomicBool::new(false));
    let tick = Arc::new(AtomicU64::new(0));
    let tid = Arc::new(AtomicU64::new(0));
    let halt: Arc<Mutex<Option<DistVerdict>>> = Arc::new(Mutex::new(None));
    let inbound_stats = Arc::new(LinkStats::default());
    let (in_tx, in_rx) = mpsc::channel::<(AgentId, Packet)>();

    // Accept loop: every inbound connection gets a reader thread.
    let listener = Listener::bind(&my_addr)?;
    listener.set_nonblocking(true)?;
    let accept_handle = {
        let stop = Arc::clone(&stop);
        let stats = Arc::clone(&inbound_stats);
        let in_tx = in_tx.clone();
        let config2 = config;
        thread::spawn(move || {
            let mut readers = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok(conn) => {
                        let stop = Arc::clone(&stop);
                        let stats = Arc::clone(&stats);
                        let tx = in_tx.clone();
                        readers.push(thread::spawn(move || {
                            reader_thread(conn, config2, stop, stats, tx)
                        }));
                    }
                    Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(config2.tick_ms));
                    }
                    Err(_) => break,
                }
            }
            for r in readers {
                let _ = r.join();
            }
        })
    };

    // One supervised outbound link per peer.
    let mut links: BTreeMap<AgentId, (mpsc::Sender<String>, thread::JoinHandle<()>)> =
        BTreeMap::new();
    let mut link_stats: BTreeMap<AgentId, Arc<LinkStats>> = BTreeMap::new();
    for (&peer, addr) in desc.nodes.iter().filter(|(p, _)| **p != me) {
        let stats = Arc::new(LinkStats::default());
        let (tx, rx) = mpsc::channel::<String>();
        let shared = LinkShared {
            me,
            peer,
            addr: addr.clone(),
            config,
            plan: plan.clone(),
            stop: Arc::clone(&stop),
            tick: Arc::clone(&tick),
            tid: Arc::clone(&tid),
            stats: Arc::clone(&stats),
        };
        let handle = thread::spawn(move || link_thread(shared, rx));
        links.insert(peer, (tx, handle));
        link_stats.insert(peer, stats);
    }

    // Control-plane link to the supervisor: connect (with retries — the
    // parent may still be binding), say hello, then read `halt` frames on
    // a clone while the main loop writes statuses.
    let mut sup_conn = {
        let deadline = Instant::now() + Duration::from_millis(config.connect_timeout_ms * 10);
        loop {
            match Conn::connect(
                &desc.supervisor,
                Duration::from_millis(config.connect_timeout_ms),
            ) {
                Ok(c) => break c,
                Err(e) => {
                    if Instant::now() >= deadline {
                        stop.store(true, Ordering::Relaxed);
                        let _ = accept_handle.join();
                        return Err(SuperviseError::Io(e));
                    }
                    thread::sleep(Duration::from_millis(config.reconnect_base_ms));
                }
            }
        }
    };
    let _ = sup_conn.set_write_timeout(Some(Duration::from_millis(config.connect_timeout_ms)));
    sup_conn
        .write_all(&encode_frame(&Packet::Hello { from: me }.to_wire()).expect("hello fits"))?;
    let sup_lost = Arc::new(AtomicBool::new(false));
    let sup_reader = {
        let halt = Arc::clone(&halt);
        let stop = Arc::clone(&stop);
        let sup_lost = Arc::clone(&sup_lost);
        let conn = sup_conn.try_clone()?;
        let config2 = config;
        thread::spawn(move || {
            let mut conn = conn;
            let _ = conn.set_read_timeout(Some(Duration::from_millis(config2.read_timeout_ms)));
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 1024];
            while !stop.load(Ordering::Relaxed) {
                match conn.read(&mut buf) {
                    Ok(0) => {
                        // The supervisor is gone: an orphaned node must
                        // exit promptly, not linger until its watchdog.
                        sup_lost.store(true, Ordering::Relaxed);
                        return;
                    }
                    Ok(n) => {
                        dec.push(&buf[..n]);
                        while let Ok(Some(frame)) = dec.next_frame() {
                            if let Ok(Packet::Halt { verdict }) = Packet::from_wire(&frame) {
                                *halt.lock().expect("halt lock") =
                                    Some(DistVerdict::parse_token(&verdict).unwrap_or(
                                        DistVerdict::Undecided(UndecidedReason::Deadline),
                                    ));
                                return;
                            }
                        }
                    }
                    Err(ref e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(_) => {
                        sup_lost.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            }
        })
    };

    // ---- main tick loop ----
    let started = Instant::now();
    let deadline = Duration::from_millis(config.deadline_ms);
    let watchdog = deadline + Duration::from_millis(2 * config.settle_ms + 1000);
    let ack_ticks = (config.ack_timeout_ms / config.tick_ms).max(1);
    let mut pendings: HashMap<(AgentId, u64), PendingTx> = HashMap::new();
    let mut next_seq: BTreeMap<AgentId, u64> = BTreeMap::new();
    let mut seen: HashSet<(AgentId, u64)> = HashSet::new();
    let mut abandoned_total: u64 = 0;
    let mut announced: BTreeSet<EdgeId> = BTreeSet::new();
    let mut final_verdict = None;
    let mut t = 0u64;

    let build_status = |engine: &DistributedReduction,
                        t: u64,
                        pendings: &HashMap<(AgentId, u64), PendingTx>,
                        abandoned_total: u64,
                        link_stats: &BTreeMap<AgentId, Arc<LinkStats>>,
                        inbound: &LinkStats|
     -> NodeStatus {
        let node = &engine.nodes[&me];
        let mut s = NodeStatus::empty(me);
        s.tick = t;
        s.live = node.live_count() as u32;
        s.proposals = node.proposals().len() as u32;
        s.unacked = pendings
            .values()
            .filter(|p| !p.acked && !p.abandoned)
            .count() as u32;
        s.abandoned = abandoned_total as u32;
        s.dead = node.dead_edges();
        s.bytes_rx = inbound.bytes_rx.load(Ordering::Relaxed);
        s.frames_rx = inbound.frames_rx.load(Ordering::Relaxed);
        for stats in link_stats.values() {
            s.bytes_tx += stats.bytes_tx.load(Ordering::Relaxed);
            s.frames_tx += stats.frames_tx.load(Ordering::Relaxed);
            s.reconnects += stats.reconnects.load(Ordering::Relaxed);
            let rtt = stats.rtt_us.load(Ordering::Relaxed);
            if rtt > 0 {
                s.rtt_us = rtt;
            }
        }
        s
    };

    loop {
        t += 1;
        tick.store(t, Ordering::Relaxed);

        // 1. Deliver inbound packets.
        while let Ok((peer, packet)) = in_rx.try_recv() {
            // A scheduled partition also drops inbound traffic: the
            // receiver refuses the peer during the window.
            if plan.is_cut(me, peer, t as usize) {
                continue;
            }
            match packet {
                Packet::Data { seq, msg } => {
                    if seen.insert((peer, seq)) {
                        if let Some(node) = engine.nodes.get_mut(&me) {
                            node.observe(msg);
                        }
                    }
                    // Always (re-)ack — the previous ack may have died.
                    if let Some((tx, _)) = links.get(&peer) {
                        let _ = tx.send(Packet::Ack { seq }.to_wire());
                    }
                }
                Packet::Ack { seq } => {
                    if let Some(p) = pendings.get_mut(&(peer, seq)) {
                        if !p.acked {
                            p.acked = true;
                            let rtt = p.sent_at.elapsed().as_micros() as u64;
                            if let Some(stats) = link_stats.get(&peer) {
                                stats.rtt_us.store(rtt.max(1), Ordering::Relaxed);
                            }
                        }
                    }
                }
                // Keepalives and stray control frames carry no state.
                _ => {}
            }
        }

        // 2. Local reduction cascade: record every currently justifiable
        // removal and announce each to exactly the peers it can affect.
        loop {
            let props = match engine.nodes.get(&me) {
                Some(node) => node.proposals(),
                None => Vec::new(),
            };
            if props.is_empty() {
                break;
            }
            for prop in props {
                if let Some(node) = engine.nodes.get_mut(&me) {
                    node.record_own_removal(prop.edge);
                }
                if !announced.insert(prop.edge) {
                    continue;
                }
                let _ = sup_conn.write_all(
                    &encode_frame(
                        &Packet::Decided {
                            from: me,
                            edge: prop.edge,
                            rule: prop.rule,
                        }
                        .to_wire(),
                    )
                    .expect("decided fits"),
                );
                for target in engine.announcement_targets(prop.edge, me) {
                    if target == me {
                        continue;
                    }
                    let seq_slot = next_seq.entry(target).or_insert(0);
                    let seq = *seq_slot;
                    *seq_slot += 1;
                    let msg = Message {
                        from: me,
                        edge: prop.edge,
                    };
                    pendings.insert(
                        (target, seq),
                        PendingTx {
                            msg,
                            sent_at: Instant::now(),
                            attempts: 1,
                            next_retry_tick: t + ack_ticks,
                            acked: false,
                            abandoned: false,
                        },
                    );
                    if let Some((tx, _)) = links.get(&target) {
                        let _ = tx.send(Packet::Data { seq, msg }.to_wire());
                    }
                }
            }
        }

        // 3. Retransmit overdue announcements; abandon exhausted ones.
        for ((target, seq), p) in pendings.iter_mut() {
            if p.acked || p.abandoned || p.next_retry_tick > t {
                continue;
            }
            if p.attempts >= config.max_attempts {
                p.abandoned = true;
                abandoned_total += 1;
                continue;
            }
            p.attempts += 1;
            p.sent_at = Instant::now();
            p.next_retry_tick = t + ack_ticks * (1 << p.attempts.min(3)) as u64;
            if let Some((tx, _)) = links.get(target) {
                let _ = tx.send(
                    Packet::Data {
                        seq: *seq,
                        msg: p.msg,
                    }
                    .to_wire(),
                );
            }
        }

        // 4. Periodic status to the supervisor.
        if t.is_multiple_of(config.status_every) {
            let status = build_status(
                &engine,
                t,
                &pendings,
                abandoned_total,
                &link_stats,
                &inbound_stats,
            );
            let _ = sup_conn
                .write_all(&encode_frame(&Packet::Status(status).to_wire()).expect("status"));
        }

        // 5. Halt broadcast, orphaning, or watchdog.
        if let Some(v) = *halt.lock().expect("halt lock") {
            final_verdict = Some(v);
            break;
        }
        if sup_lost.load(Ordering::Relaxed) || started.elapsed() > watchdog {
            break;
        }

        thread::sleep(Duration::from_millis(config.tick_ms));
    }

    // Shut everything down; every thread polls `stop` with bounded waits.
    stop.store(true, Ordering::Relaxed);
    let status = build_status(
        &engine,
        t,
        &pendings,
        abandoned_total,
        &link_stats,
        &inbound_stats,
    );
    // One last cumulative status so the supervisor's outcome carries the
    // final traffic totals even when the verdict landed between periodic
    // reports (rung 1 can fire off `decided` frames alone).
    let _ = sup_conn
        .write_all(&encode_frame(&Packet::Status(status.clone()).to_wire()).expect("status fits"));
    let _ = sup_conn.shutdown();
    drop(in_rx);
    for (_, (tx, handle)) in links {
        drop(tx);
        let _ = handle.join();
    }
    let _ = accept_handle.join();
    let _ = sup_reader.join();
    if let Addr::Unix(path) = &my_addr {
        let _ = std::fs::remove_file(path);
    }

    Ok(NodeReport {
        verdict: final_verdict,
        status,
        ticks: t,
    })
}

/// The final state of a supervised multi-process run.
#[derive(Debug, Clone)]
pub struct SocketOutcome {
    /// The supervisor's verdict.
    pub verdict: DistVerdict,
    /// Wall-clock duration of the run, milliseconds.
    pub elapsed_ms: u64,
    /// Each node's last status report.
    pub nodes: BTreeMap<AgentId, NodeStatus>,
    /// Expected nodes that died or never appeared.
    pub lost: BTreeSet<AgentId>,
    /// Every removal reported via `decided` frames, in arrival order.
    pub removals: Vec<(AgentId, EdgeId, Rule)>,
    /// The union of all reported dead-edge sets.
    pub dead_union: BTreeSet<EdgeId>,
    /// Total edges in the sequencing graph.
    pub total_edges: usize,
}

impl SocketOutcome {
    /// Aggregate bytes sent across all nodes' final reports.
    pub fn bytes_sent(&self) -> u64 {
        self.nodes.values().map(|s| s.bytes_tx).sum()
    }

    /// Aggregate frames received across all nodes' final reports.
    pub fn frames_received(&self) -> u64 {
        self.nodes.values().map(|s| s.frames_rx).sum()
    }

    /// Aggregate reconnects across all nodes' final reports.
    pub fn reconnects(&self) -> u64 {
        self.nodes.values().map(|s| s.reconnects).sum()
    }

    /// Worst (largest) last-sampled announcement→ack round trip, µs.
    pub fn max_rtt_us(&self) -> u64 {
        self.nodes.values().map(|s| s.rtt_us).max().unwrap_or(0)
    }
}

/// The degradation ladder as a pure function (unit-testable without
/// sockets). Returns `None` while the run should keep waiting.
///
/// `settled_window` must only be passed `true` when every expected agent
/// is either lost or reporting `proposals == 0 && unacked == 0`, and
/// nothing has changed for the configured settle window.
pub fn decide(
    total_edges: usize,
    dead_union: usize,
    expected: &BTreeSet<AgentId>,
    reports: &BTreeMap<AgentId, NodeStatus>,
    lost: &BTreeSet<AgentId>,
    deadline_hit: bool,
    settled_window: bool,
) -> Option<DistVerdict> {
    // Rung 1: removals are monotone and self-certifying, so a complete
    // union proves feasibility no matter who died.
    if dead_union >= total_edges {
        return Some(DistVerdict::Feasible);
    }
    // Rung 2: out of time.
    if deadline_hit {
        return Some(DistVerdict::Undecided(UndecidedReason::Deadline));
    }
    if !settled_window {
        return None;
    }
    // Rung 3: settled, but somebody is gone — their unsent removals could
    // have changed the fixpoint.
    if expected
        .iter()
        .any(|a| lost.contains(a) || !reports.contains_key(a))
    {
        return Some(DistVerdict::Undecided(UndecidedReason::NodesDown));
    }
    // Rung 4: everyone alive but some announcement was abandoned — a
    // surviving view may be stale.
    if reports.values().any(|s| s.abandoned > 0) {
        return Some(DistVerdict::Undecided(UndecidedReason::RetriesExhausted));
    }
    // Rung 5: a genuine distributed fixpoint = the centralised one.
    Some(DistVerdict::Infeasible)
}

/// One accepted control-plane connection inside the supervisor.
struct SupConn {
    conn: Conn,
    dec: FrameDecoder,
    peer: Option<AgentId>,
    gone: bool,
}

/// Runs the control plane over a pre-bound listener until the degradation
/// ladder produces a verdict, then broadcasts `halt` to every connected
/// node and returns the outcome. Single-threaded: with a handful of nodes
/// a short read timeout per connection is cheaper than a thread each.
pub fn run_supervisor(
    listener: Listener,
    expected: &BTreeSet<AgentId>,
    total_edges: usize,
    config: &SuperviseConfig,
) -> Result<SocketOutcome, SuperviseError> {
    listener.set_nonblocking(true)?;
    let started = Instant::now();
    let deadline = Duration::from_millis(config.deadline_ms);
    let settle = Duration::from_millis(config.settle_ms);
    let stale = Duration::from_millis(config.stale_ms);

    let mut conns: Vec<SupConn> = Vec::new();
    let mut reports: BTreeMap<AgentId, NodeStatus> = BTreeMap::new();
    let mut last_seen: BTreeMap<AgentId, Instant> = BTreeMap::new();
    let mut lost: BTreeSet<AgentId> = BTreeSet::new();
    let mut dead_union: BTreeSet<EdgeId> = BTreeSet::new();
    let mut removals: Vec<(AgentId, EdgeId, Rule)> = Vec::new();
    let mut last_change = Instant::now();
    let mut buf = [0u8; 4096];

    let verdict = loop {
        // Accept any newly connecting nodes.
        loop {
            match listener.accept() {
                Ok(conn) => {
                    let _ = conn.set_read_timeout(Some(Duration::from_millis(1)));
                    let _ = conn
                        .set_write_timeout(Some(Duration::from_millis(config.connect_timeout_ms)));
                    conns.push(SupConn {
                        conn,
                        dec: FrameDecoder::new(),
                        peer: None,
                        gone: false,
                    });
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(SuperviseError::Io(e)),
            }
        }

        // Poll every connection for frames.
        for sc in conns.iter_mut().filter(|sc| !sc.gone) {
            match sc.conn.read(&mut buf) {
                Ok(0) => {
                    sc.gone = true;
                    if let Some(p) = sc.peer {
                        // A vanished node is only *lost* if it never comes
                        // back; re-connection replaces the entry below.
                        lost.insert(p);
                        last_change = Instant::now();
                    }
                }
                Ok(n) => {
                    sc.dec.push(&buf[..n]);
                    loop {
                        match sc.dec.next_frame() {
                            Ok(Some(frame)) => match Packet::from_wire(&frame) {
                                Ok(Packet::Hello { from }) => {
                                    sc.peer = Some(from);
                                    // A reconnecting node is no longer lost.
                                    lost.remove(&from);
                                    last_seen.insert(from, Instant::now());
                                    last_change = Instant::now();
                                }
                                Ok(Packet::Status(status)) => {
                                    let from = status.from;
                                    last_seen.insert(from, Instant::now());
                                    let mut grew = false;
                                    for &edge in &status.dead {
                                        grew |= dead_union.insert(edge);
                                    }
                                    let changed = match reports.get(&from) {
                                        Some(old) => {
                                            old.proposals != status.proposals
                                                || old.unacked != status.unacked
                                                || old.abandoned != status.abandoned
                                                || old.dead.len() != status.dead.len()
                                        }
                                        None => true,
                                    };
                                    reports.insert(from, status);
                                    if grew || changed {
                                        last_change = Instant::now();
                                    }
                                }
                                Ok(Packet::Decided { from, edge, rule }) => {
                                    removals.push((from, edge, rule));
                                    if dead_union.insert(edge) {
                                        last_change = Instant::now();
                                    }
                                }
                                Ok(_) | Err(_) => {}
                            },
                            Ok(None) => break,
                            Err(_) => {
                                sc.gone = true;
                                if let Some(p) = sc.peer {
                                    lost.insert(p);
                                }
                                break;
                            }
                        }
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => {
                    sc.gone = true;
                    if let Some(p) = sc.peer {
                        lost.insert(p);
                        last_change = Instant::now();
                    }
                }
            }
        }

        // Staleness: an expected agent that stopped reporting (but whose
        // connection is somehow still open) or never appeared counts as
        // lost once the run has been up long enough.
        if started.elapsed() >= stale {
            for &agent in expected.iter() {
                let seen_recently = last_seen
                    .get(&agent)
                    .map(|at| at.elapsed() < stale)
                    .unwrap_or(false);
                if !seen_recently && lost.insert(agent) {
                    last_change = Instant::now();
                }
            }
        }

        // Settled = every expected agent is lost or at a quiet fixpoint,
        // and nothing moved for the settle window.
        let all_quiet = expected.iter().all(|a| {
            lost.contains(a)
                || reports
                    .get(a)
                    .map(|s| s.proposals == 0 && s.unacked == 0)
                    .unwrap_or(false)
        });
        let settled_window = all_quiet && last_change.elapsed() >= settle;
        let deadline_hit = started.elapsed() >= deadline;

        if let Some(v) = decide(
            total_edges,
            dead_union.len(),
            expected,
            &reports,
            &lost,
            deadline_hit,
            settled_window,
        ) {
            break v;
        }
        thread::sleep(Duration::from_millis(2));
    };

    // Broadcast halt so every node exits promptly, then give the frames a
    // moment to flush before dropping the connections.
    let halt = encode_frame(
        &Packet::Halt {
            verdict: verdict.to_token().to_string(),
        }
        .to_wire(),
    )
    .expect("halt fits");
    for sc in conns.iter_mut().filter(|sc| !sc.gone) {
        let _ = sc.conn.write_all(&halt);
        let _ = sc.conn.flush();
    }
    // Drain during the linger: every node sends one final cumulative
    // status after seeing the halt, and those are what the outcome's
    // traffic totals are built from. Each connection closing (EOF) ends
    // its drain; the deadline bounds stragglers.
    let linger_until = Instant::now() + Duration::from_millis(250);
    while Instant::now() < linger_until && conns.iter().any(|sc| !sc.gone) {
        for sc in conns.iter_mut().filter(|sc| !sc.gone) {
            match sc.conn.read(&mut buf) {
                Ok(0) => sc.gone = true,
                Ok(n) => {
                    sc.dec.push(&buf[..n]);
                    while let Ok(Some(frame)) = sc.dec.next_frame() {
                        if let Ok(Packet::Status(status)) = Packet::from_wire(&frame) {
                            for &edge in &status.dead {
                                dead_union.insert(edge);
                            }
                            reports.insert(status.from, status);
                        }
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => sc.gone = true,
            }
        }
        thread::sleep(Duration::from_millis(2));
    }
    for sc in conns.iter_mut() {
        let _ = sc.conn.shutdown();
    }

    Ok(SocketOutcome {
        verdict,
        elapsed_ms: started.elapsed().as_millis() as u64,
        nodes: reports,
        lost,
        removals,
        dead_union,
        total_edges,
    })
}

/// Convenience: the set of participants (and thus required `dist-node`
/// processes) for a spec, plus the total edge count the supervisor needs.
pub fn participants_and_edges(
    spec: &ExchangeSpec,
) -> Result<(BTreeSet<AgentId>, usize), CoreError> {
    let engine = DistributedReduction::new(spec)?;
    let agents: BTreeSet<AgentId> = engine.participants().collect();
    let edges = engine.graph.edges().len();
    Ok((agents, edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_core::fixtures;

    #[test]
    fn config_wire_round_trips() {
        let config = SuperviseConfig::default();
        let wire = config.to_wire();
        assert_eq!(SuperviseConfig::from_wire(&wire).unwrap(), config);
        // `attempts` is a u32: a wider numeral is rejected, not truncated.
        let wide = wire.replace("attempts=8", "attempts=4294967304");
        for bad in ["", "tick=5", "nope=1", &format!("{wire};extra=1"), &wide] {
            assert!(SuperviseConfig::from_wire(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn decide_implements_the_degradation_ladder() {
        let a0 = AgentId::new(0);
        let a1 = AgentId::new(1);
        let expected: BTreeSet<_> = [a0, a1].into_iter().collect();
        let quiet = |from: AgentId, abandoned: u32| {
            let mut s = NodeStatus::empty(from);
            s.abandoned = abandoned;
            s
        };
        let reports: BTreeMap<_, _> = [(a0, quiet(a0, 0)), (a1, quiet(a1, 0))]
            .into_iter()
            .collect();
        let none = BTreeSet::new();

        // Rung 1: complete union wins immediately, even with losses.
        let lost_one: BTreeSet<_> = [a1].into_iter().collect();
        assert_eq!(
            decide(4, 4, &expected, &reports, &lost_one, false, false),
            Some(DistVerdict::Feasible)
        );
        // Rung 2: deadline beats everything except feasibility.
        assert_eq!(
            decide(4, 2, &expected, &reports, &none, true, true),
            Some(DistVerdict::Undecided(UndecidedReason::Deadline))
        );
        // Not settled → keep waiting.
        assert_eq!(decide(4, 2, &expected, &reports, &none, false, false), None);
        // Rung 3: settled with a lost node.
        assert_eq!(
            decide(4, 2, &expected, &reports, &lost_one, false, true),
            Some(DistVerdict::Undecided(UndecidedReason::NodesDown))
        );
        // Rung 4: settled, alive, but retries exhausted somewhere.
        let tainted: BTreeMap<_, _> = [(a0, quiet(a0, 1)), (a1, quiet(a1, 0))]
            .into_iter()
            .collect();
        assert_eq!(
            decide(4, 2, &expected, &tainted, &none, false, true),
            Some(DistVerdict::Undecided(UndecidedReason::RetriesExhausted))
        );
        // Rung 5: clean settled fixpoint.
        assert_eq!(
            decide(4, 2, &expected, &reports, &none, false, true),
            Some(DistVerdict::Infeasible)
        );
    }

    /// Full in-process end-to-end: N node runtimes on threads, one
    /// supervisor, loopback TCP, no faults — must agree with the
    /// centralised reducer on both a feasible and an infeasible fixture.
    #[test]
    fn loopback_tcp_run_agrees_with_centralized() {
        for (spec, expect_feasible) in [
            (fixtures::example1().0, true),
            (fixtures::poor_broker().0, false),
        ] {
            let (agents, total_edges) = participants_and_edges(&spec).unwrap();
            let ports = crate::net::free_loopback_ports(agents.len() + 1).unwrap();
            let supervisor = Addr::Tcp(format!("127.0.0.1:{}", ports[0]));
            let nodes: BTreeMap<AgentId, Addr> = agents
                .iter()
                .zip(&ports[1..])
                .map(|(&a, &p)| (a, Addr::Tcp(format!("127.0.0.1:{p}"))))
                .collect();
            let desc = NetworkDescription {
                supervisor: supervisor.clone(),
                nodes,
                config: None,
            };
            let config = SuperviseConfig {
                settle_ms: 150,
                deadline_ms: 10_000,
                ..SuperviseConfig::default()
            };
            let listener = Listener::bind(&supervisor).unwrap();
            let mut handles = Vec::new();
            for &agent in &agents {
                let spec = spec.clone();
                let desc = desc.clone();
                handles.push(thread::spawn(move || {
                    run_node(&spec, agent, &desc, &config, &FaultPlan::none())
                }));
            }
            let outcome = run_supervisor(listener, &agents, total_edges, &config).unwrap();
            assert_eq!(
                outcome.verdict.decided(),
                Some(expect_feasible),
                "verdict {:?} vs centralized {expect_feasible}",
                outcome.verdict
            );
            for h in handles {
                let report = h.join().unwrap().unwrap();
                assert_eq!(report.verdict, Some(outcome.verdict));
            }
        }
    }
}
