//! The resilient protocol's wire codec: every packet crosses the faulty
//! network as a canonical single-line text frame.
//!
//! Routing traffic through an explicit codec is what makes the corruption
//! fault class ([`FaultPlan::with_corrupt_per_mille`]) meaningful: a
//! corrupted frame arrives truncated, [`Packet::from_wire`] rejects it
//! with a typed [`CodecError`] (never a panic), and the engine treats the
//! packet as lost — the acknowledgement/retransmission machinery absorbs
//! it exactly like a drop. The codec is lossless, so faultless resilient
//! runs stay byte-identical to the reliable engine.
//!
//! Frame shapes (mirroring the [`FaultPlan`] and
//! [`DistOutcome`](crate::DistOutcome) text codecs):
//!
//! * `data;seq=5;from=a3;edge=e2` — a removal announcement under a
//!   sequence number;
//! * `ack;seq=5` — its acknowledgement;
//! * `syncreq;from=a3` — a restarted node asking a neighbour for its
//!   dead-edge view;
//! * `syncresp;from=a3;dead=e1,e4` — the neighbour's answer (`dead=` may
//!   be empty).
//!
//! The socket transport ([`crate::net`], [`crate::supervise`]) reuses the
//! same codec for its control plane, adding:
//!
//! * `hello;from=a3` — the first frame of every connection, identifying
//!   the peer;
//! * `ping;tick=42` — a heartbeat keepalive on idle links;
//! * `decided;from=a3;edge=e2;rule=1` — a node streaming a local removal
//!   decision to the supervisor;
//! * `status;from=a3;tick=42;live=3;props=0;unacked=1;abandoned=0;dead=e1;tx=10;rx=20;ftx=3;frx=4;rc=0;rtt=250`
//!   — a node's periodic self-report to the supervisor;
//! * `halt;verdict=feasible` — the supervisor's shutdown broadcast,
//!   carrying a [`DistVerdict`](crate::DistVerdict) token.
//!
//! The analysis service (`trustseq-service`) speaks its own
//! request/response frames over the same conventions —
//! [`ServiceRequest`] (`analyze`, `analyzespec`, `mutate`, `event`,
//! `stats`) and [`ServiceReply`] (`verdict`, `everdict`, `svcstats`,
//! `rejected`) — with one deliberate extension: `analyzespec` carries
//! spec-language source as a *verbatim tail* (`spec=` is always the last
//! field), since the length-prefixed frame layer already delimits the
//! payload and spec source legitimately contains `;` and newlines.
//!
//! `event` is the streaming sibling of `mutate`: the same marketplace
//! lifecycle op, acknowledged with an `everdict` reply that carries the
//! server's running order-sensitive FNV fold over the structure's verdict
//! stream, so a client replaying the same schedule against a local mirror
//! can audit agreement with a single integer compare. Its `id` field is a
//! u64 — the event stream addresses the *growable* population (an `event
//! post` on an unknown id admits a new structure while serving), not just
//! the boot-time one.
//!
//! [`FaultPlan`]: crate::FaultPlan
//! [`FaultPlan::with_corrupt_per_mille`]: crate::FaultPlan::with_corrupt_per_mille

use crate::node::Message;
use std::fmt;
use trustseq_core::{EdgeId, Rule};
use trustseq_model::AgentId;

/// One node's periodic self-report to the connection supervisor: its view
/// of the reduction (live/dead edges, pending work) plus its link-layer
/// accounting. Carried by [`Packet::Status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// The reporting node.
    pub from: AgentId,
    /// The node's local tick counter at report time.
    pub tick: u64,
    /// Edges the node still believes live.
    pub live: u32,
    /// Removal proposals the node could currently justify (0 at a local
    /// fixpoint).
    pub proposals: u32,
    /// Announcements sent but neither acknowledged nor abandoned.
    pub unacked: u32,
    /// Announcements abandoned after exhausting their retry budget — a
    /// non-zero value taints any `infeasible` claim.
    pub abandoned: u32,
    /// Every visible edge the node knows removed (cumulative, idempotent —
    /// safe to resend, so lost statuses cost nothing).
    pub dead: Vec<EdgeId>,
    /// Bytes written to peer links.
    pub bytes_tx: u64,
    /// Bytes read from peer links.
    pub bytes_rx: u64,
    /// Frames written to peer links.
    pub frames_tx: u64,
    /// Frames read from peer links.
    pub frames_rx: u64,
    /// Successful link reconnections after a connection died.
    pub reconnects: u64,
    /// Most recent announcement→ack round trip in microseconds (0 = no
    /// sample yet).
    pub rtt_us: u64,
}

impl NodeStatus {
    /// A zeroed report for `from` — the state of a node that has connected
    /// but not yet observed anything.
    pub fn empty(from: AgentId) -> Self {
        NodeStatus {
            from,
            tick: 0,
            live: 0,
            proposals: 0,
            unacked: 0,
            abandoned: 0,
            dead: Vec::new(),
            bytes_tx: 0,
            bytes_rx: 0,
            frames_tx: 0,
            frames_rx: 0,
            reconnects: 0,
            rtt_us: 0,
        }
    }
}

/// A resilient-protocol packet. `Data` carries the base protocol's
/// removal announcement under a sequence number; the rest is the
/// reliability machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// A reliable removal announcement.
    Data {
        /// Sender-side sequence number (index into the announcement log).
        seq: u64,
        /// The announced removal.
        msg: Message,
    },
    /// Acknowledges the `Data` packet with the same sequence number.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// A restarted node's request for a neighbour's dead-edge view.
    SyncReq {
        /// The requester.
        from: AgentId,
    },
    /// The neighbour's dead-edge view.
    SyncResp {
        /// The responding neighbour.
        from: AgentId,
        /// Every edge the responder knows removed.
        dead: Vec<EdgeId>,
    },
    /// The first frame of every socket connection: who is calling.
    Hello {
        /// The connecting peer.
        from: AgentId,
    },
    /// A heartbeat keepalive on an idle link.
    Ping {
        /// The sender's local tick counter.
        tick: u64,
    },
    /// A node streaming one local removal decision to the supervisor.
    Decided {
        /// The deciding node.
        from: AgentId,
        /// The removed edge.
        edge: EdgeId,
        /// The sanctioning rule.
        rule: Rule,
    },
    /// A node's periodic self-report to the supervisor.
    Status(NodeStatus),
    /// The supervisor's shutdown broadcast with the run's verdict token
    /// (see [`DistVerdict::to_token`](crate::DistVerdict::to_token)).
    Halt {
        /// The verdict token, e.g. `feasible` or `undecided:deadline`.
        verdict: String,
    },
}

/// Why a wire frame failed to decode. Carries the offending fragment and
/// what the codec expected there, like
/// [`FaultPlanParseError`](crate::FaultPlanParseError).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// The offending fragment (possibly the whole frame).
    pub fragment: String,
    /// What was expected.
    pub expected: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad packet frame fragment {:?}: expected {}",
            self.fragment, self.expected
        )
    }
}

impl std::error::Error for CodecError {}

fn bad(fragment: &str, expected: &'static str) -> CodecError {
    CodecError {
        fragment: fragment.to_string(),
        expected,
    }
}

fn parse_agent(s: &str) -> Result<AgentId, CodecError> {
    s.strip_prefix('a')
        .and_then(|n| n.parse::<u32>().ok())
        .map(AgentId::new)
        .ok_or_else(|| bad(s, "an agent id like a3"))
}

fn parse_edge(s: &str) -> Result<EdgeId, CodecError> {
    s.strip_prefix('e')
        .and_then(|n| n.parse::<u32>().ok())
        .map(EdgeId::new)
        .ok_or_else(|| bad(s, "an edge id like e2"))
}

/// Parses `field` as `key=<number>` into the slot's own integer type, so a
/// numeral too wide for a u32 slot is a typed error, never truncated.
fn num<T: std::str::FromStr>(
    field: Option<&str>,
    key: &'static str,
    expected: &'static str,
) -> Result<T, CodecError> {
    let v = expect_field(field, key, expected)?;
    v.parse().map_err(|_| bad(v, expected))
}

/// Splits `field` as `key=value` and checks the key.
fn expect_field<'a>(
    field: Option<&'a str>,
    key: &'static str,
    expected: &'static str,
) -> Result<&'a str, CodecError> {
    let field = field.ok_or_else(|| bad("", expected))?;
    match field.split_once('=') {
        Some((k, v)) if k == key => Ok(v),
        _ => Err(bad(field, expected)),
    }
}

impl Packet {
    /// Encodes the packet as its canonical wire frame.
    /// [`Packet::from_wire`] inverts it exactly (round-trip is tested in
    /// this module and property-tested in `tests/resilience.rs`).
    pub fn to_wire(&self) -> String {
        use fmt::Write as _;
        match self {
            Packet::Data { seq, msg } => {
                format!("data;seq={seq};from={};edge={}", msg.from, msg.edge)
            }
            Packet::Ack { seq } => format!("ack;seq={seq}"),
            Packet::SyncReq { from } => format!("syncreq;from={from}"),
            Packet::SyncResp { from, dead } => {
                let mut out = format!("syncresp;from={from};dead=");
                for (i, e) in dead.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{e}");
                }
                out
            }
            Packet::Hello { from } => format!("hello;from={from}"),
            Packet::Ping { tick } => format!("ping;tick={tick}"),
            Packet::Decided { from, edge, rule } => {
                format!(
                    "decided;from={from};edge={edge};rule={}",
                    match rule {
                        Rule::CommitmentFringe => 1,
                        Rule::ConjunctionFringe => 2,
                    }
                )
            }
            Packet::Status(s) => {
                let mut out = format!(
                    "status;from={};tick={};live={};props={};unacked={};abandoned={};dead=",
                    s.from, s.tick, s.live, s.proposals, s.unacked, s.abandoned
                );
                for (i, e) in s.dead.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{e}");
                }
                let _ = write!(
                    out,
                    ";tx={};rx={};ftx={};frx={};rc={};rtt={}",
                    s.bytes_tx, s.bytes_rx, s.frames_tx, s.frames_rx, s.reconnects, s.rtt_us
                );
                out
            }
            Packet::Halt { verdict } => format!("halt;verdict={verdict}"),
        }
    }

    /// Decodes a frame produced by [`Packet::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] naming the first malformed fragment — a
    /// truncated or otherwise mangled frame is a typed error, never a
    /// panic.
    pub fn from_wire(frame: &str) -> Result<Self, CodecError> {
        let mut fields = frame.split(';');
        let tag = fields.next().unwrap_or_default();
        let packet = match tag {
            "data" => {
                let seq = expect_field(fields.next(), "seq", "seq=<u64>")?;
                let from = expect_field(fields.next(), "from", "from=<agent>")?;
                let edge = expect_field(fields.next(), "edge", "edge=<edge>")?;
                Packet::Data {
                    seq: seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?,
                    msg: Message {
                        from: parse_agent(from)?,
                        edge: parse_edge(edge)?,
                    },
                }
            }
            "ack" => {
                let seq = expect_field(fields.next(), "seq", "seq=<u64>")?;
                Packet::Ack {
                    seq: seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?,
                }
            }
            "syncreq" => {
                let from = expect_field(fields.next(), "from", "from=<agent>")?;
                Packet::SyncReq {
                    from: parse_agent(from)?,
                }
            }
            "syncresp" => {
                let from = expect_field(fields.next(), "from", "from=<agent>")?;
                let dead = expect_field(fields.next(), "dead", "dead=<edges>")?;
                let mut edges = Vec::new();
                if !dead.is_empty() {
                    // Strict: a trailing or doubled comma is a mangled
                    // frame, not an empty entry — keeps decoding canonical
                    // (every accepted frame re-encodes to itself).
                    for entry in dead.split(',') {
                        edges.push(parse_edge(entry)?);
                    }
                }
                Packet::SyncResp {
                    from: parse_agent(from)?,
                    dead: edges,
                }
            }
            "hello" => {
                let from = expect_field(fields.next(), "from", "from=<agent>")?;
                Packet::Hello {
                    from: parse_agent(from)?,
                }
            }
            "ping" => {
                let tick = expect_field(fields.next(), "tick", "tick=<u64>")?;
                Packet::Ping {
                    tick: tick.parse().map_err(|_| bad(tick, "a u64 tick counter"))?,
                }
            }
            "decided" => {
                let from = expect_field(fields.next(), "from", "from=<agent>")?;
                let edge = expect_field(fields.next(), "edge", "edge=<edge>")?;
                let rule = expect_field(fields.next(), "rule", "rule=<1|2>")?;
                Packet::Decided {
                    from: parse_agent(from)?,
                    edge: parse_edge(edge)?,
                    rule: match rule {
                        "1" => Rule::CommitmentFringe,
                        "2" => Rule::ConjunctionFringe,
                        _ => return Err(bad(rule, "rule 1 or 2")),
                    },
                }
            }
            "status" => {
                let from = expect_field(fields.next(), "from", "from=<agent>")?;
                let from = parse_agent(from)?;
                let tick = num(fields.next(), "tick", "tick=<u64>")?;
                let live = num(fields.next(), "live", "live=<u32>")?;
                let proposals = num(fields.next(), "props", "props=<u32>")?;
                let unacked = num(fields.next(), "unacked", "unacked=<u32>")?;
                let abandoned = num(fields.next(), "abandoned", "abandoned=<u32>")?;
                let dead_field = expect_field(fields.next(), "dead", "dead=<edges>")?;
                let mut dead = Vec::new();
                if !dead_field.is_empty() {
                    for entry in dead_field.split(',') {
                        dead.push(parse_edge(entry)?);
                    }
                }
                let bytes_tx = num(fields.next(), "tx", "tx=<u64>")?;
                let bytes_rx = num(fields.next(), "rx", "rx=<u64>")?;
                let frames_tx = num(fields.next(), "ftx", "ftx=<u64>")?;
                let frames_rx = num(fields.next(), "frx", "frx=<u64>")?;
                let reconnects = num(fields.next(), "rc", "rc=<u64>")?;
                let rtt_us = num(fields.next(), "rtt", "rtt=<u64>")?;
                Packet::Status(NodeStatus {
                    from,
                    tick,
                    live,
                    proposals,
                    unacked,
                    abandoned,
                    dead,
                    bytes_tx,
                    bytes_rx,
                    frames_tx,
                    frames_rx,
                    reconnects,
                    rtt_us,
                })
            }
            "halt" => {
                let verdict = expect_field(fields.next(), "verdict", "verdict=<token>")?;
                // Tokens are lower-case words with `:` separators; anything
                // else is a mangled frame (keeps decoding canonical).
                if verdict.is_empty()
                    || !verdict
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == ':' || c == '_')
                {
                    return Err(bad(verdict, "a verdict token like undecided:deadline"));
                }
                Packet::Halt {
                    verdict: verdict.to_string(),
                }
            }
            _ => return Err(bad(
                tag,
                "a packet tag: data, ack, syncreq, syncresp, hello, ping, decided, status or halt",
            )),
        };
        if let Some(extra) = fields.next() {
            return Err(bad(extra, "end of frame"));
        }
        Ok(packet)
    }
}

/// A marketplace event kind carried by [`ServiceRequest::Mutate`]: which
/// of a resident structure's toggles to flip. The server maps it onto the
/// delta vocabulary of §4.2.3/§6 — `Accept`/`Cancel` toggle a trust-grant
/// waiver set, `Post`/`Expire` toggle an indemnity's edge split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceOp {
    /// A trust grant takes effect (clause-2 waivers switch on).
    Accept,
    /// The trust grant is withdrawn (waivers switch off).
    Cancel,
    /// An indemnity is posted (buyer-side edges split away).
    Post,
    /// The indemnity expires (edges restored).
    Expire,
}

impl ServiceOp {
    /// The canonical wire token.
    pub fn token(&self) -> &'static str {
        match self {
            ServiceOp::Accept => "accept",
            ServiceOp::Cancel => "cancel",
            ServiceOp::Post => "post",
            ServiceOp::Expire => "expire",
        }
    }

    fn from_token(s: &str) -> Result<Self, CodecError> {
        match s {
            "accept" => Ok(ServiceOp::Accept),
            "cancel" => Ok(ServiceOp::Cancel),
            "post" => Ok(ServiceOp::Post),
            "expire" => Ok(ServiceOp::Expire),
            _ => Err(bad(s, "an op: accept, cancel, post or expire")),
        }
    }
}

/// Why the analysis server refused a request. Carried by
/// [`ServiceReply::Rejected`]; every variant is *typed shed load* — the
/// client learns exactly which admission-control rung it fell off, rather
/// than seeing a dropped connection or an unbounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The request queue is at capacity (backpressure, not buffering).
    Overloaded,
    /// The connection exhausted its token-bucket quota.
    Quota,
    /// The server is draining for shutdown and admits no new work.
    Draining,
    /// The frame parsed but the request is semantically malformed
    /// (unparseable spec, out-of-range slot, …).
    Malformed,
    /// The named resident structure does not exist.
    UnknownStructure,
}

impl RejectReason {
    /// The canonical wire token.
    pub fn token(&self) -> &'static str {
        match self {
            RejectReason::Overloaded => "overloaded",
            RejectReason::Quota => "quota",
            RejectReason::Draining => "draining",
            RejectReason::Malformed => "malformed",
            RejectReason::UnknownStructure => "unknown_structure",
        }
    }

    fn from_token(s: &str) -> Result<Self, CodecError> {
        match s {
            "overloaded" => Ok(RejectReason::Overloaded),
            "quota" => Ok(RejectReason::Quota),
            "draining" => Ok(RejectReason::Draining),
            "malformed" => Ok(RejectReason::Malformed),
            "unknown_structure" => Ok(RejectReason::UnknownStructure),
            _ => Err(bad(
                s,
                "a reject reason: overloaded, quota, draining, malformed or unknown_structure",
            )),
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A client→server frame of the analysis service. Every request carries a
/// client-chosen `seq`, echoed verbatim in the matching reply, so clients
/// can pipeline a window of requests and correlate replies without
/// assuming cross-structure ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceRequest {
    /// Feasibility verdict of resident structure `id` in its current
    /// mutation state.
    Analyze {
        /// Client-chosen correlation number, echoed in the reply.
        seq: u64,
        /// The resident structure.
        id: u32,
    },
    /// One-shot analysis of an inline spec (the `spec=` tail carries the
    /// spec language source *verbatim* — semicolons and newlines included,
    /// which the length-prefixed frame layer permits).
    AnalyzeSpec {
        /// Client-chosen correlation number, echoed in the reply.
        seq: u64,
        /// Spec-language source text.
        spec: String,
    },
    /// Applies one marketplace event to resident structure `id`:
    /// `op` on the structure's `slot`-th trust pair
    /// (accept/cancel) or deal (post/expire), then reports the
    /// incrementally-maintained verdict.
    Mutate {
        /// Client-chosen correlation number, echoed in the reply.
        seq: u64,
        /// The resident structure.
        id: u32,
        /// Which toggle to flip.
        op: ServiceOp,
        /// Trust-pair index (accept/cancel) or deal index (post/expire).
        slot: u32,
    },
    /// The streaming sibling of [`Mutate`](Self::Mutate): applies one
    /// marketplace event to resident structure `id` through its resident
    /// delta analyzer (no whole-graph replacement) and is answered with
    /// an [`EventVerdict`](ServiceReply::EventVerdict) carrying the
    /// structure's running verdict-stream hash. Unlike `mutate`, `id` is
    /// a u64 addressing the growable population: a `post` on an unknown
    /// id below the server's admission cap admits a fresh structure.
    Event {
        /// Client-chosen correlation number, echoed in the reply.
        seq: u64,
        /// The resident (or, for `post`, to-be-admitted) structure.
        id: u64,
        /// Which toggle to flip.
        op: ServiceOp,
        /// Trust-pair index (accept/cancel) or deal index (post/expire).
        slot: u32,
    },
    /// Server counters snapshot.
    Stats {
        /// Client-chosen correlation number, echoed in the reply.
        seq: u64,
    },
}

impl ServiceRequest {
    /// The request's correlation number.
    pub fn seq(&self) -> u64 {
        match self {
            ServiceRequest::Analyze { seq, .. }
            | ServiceRequest::AnalyzeSpec { seq, .. }
            | ServiceRequest::Mutate { seq, .. }
            | ServiceRequest::Event { seq, .. }
            | ServiceRequest::Stats { seq } => *seq,
        }
    }

    /// Encodes the request as its canonical wire frame;
    /// [`from_wire`](Self::from_wire) inverts it exactly.
    pub fn to_wire(&self) -> String {
        match self {
            ServiceRequest::Analyze { seq, id } => format!("analyze;seq={seq};id={id}"),
            ServiceRequest::AnalyzeSpec { seq, spec } => {
                format!("analyzespec;seq={seq};spec={spec}")
            }
            ServiceRequest::Mutate { seq, id, op, slot } => {
                format!("mutate;seq={seq};id={id};op={};slot={slot}", op.token())
            }
            ServiceRequest::Event { seq, id, op, slot } => {
                format!("event;seq={seq};id={id};op={};slot={slot}", op.token())
            }
            ServiceRequest::Stats { seq } => format!("stats;seq={seq}"),
        }
    }

    /// Decodes a frame produced by [`to_wire`](Self::to_wire). Malformed
    /// frames are typed [`CodecError`]s, never panics — the server turns
    /// them into [`RejectReason::Malformed`] or a dropped connection.
    ///
    /// This is the server's per-request parse, so it walks the frame once
    /// with a field cursor and parses numerals by hand. Numerals follow
    /// `str::parse`: an optional `+`, then decimal digits (leading zeros
    /// allowed) whose value fits the slot. The error is the one a
    /// split-then-parse decoder reports: a missing or misnamed field
    /// first, then the first unparseable value, then a trailing field.
    pub fn from_wire(frame: &str) -> Result<Self, CodecError> {
        let mut fields = Fields::new(frame);
        let tag = fields.tag();
        // `analyzespec` carries a verbatim tail that may itself contain
        // `;`, so it leaves the field-by-field path after the tag.
        if let ("analyzespec", Some(rest)) = (tag, fields.rest()) {
            return analyze_spec(rest);
        }
        let request = match tag {
            "analyze" => {
                let seq = fields.value("seq", "seq=<u64>")?;
                let id = fields.value("id", "id=<u32>")?;
                ServiceRequest::Analyze {
                    seq: numeral(seq, SEQ)?,
                    id: numeral(id, "a u32 structure id")?,
                }
            }
            "mutate" => {
                let seq = fields.value("seq", "seq=<u64>")?;
                let id = fields.value("id", "id=<u32>")?;
                let op = fields.value("op", OP)?;
                let slot = fields.value("slot", "slot=<u32>")?;
                ServiceRequest::Mutate {
                    seq: numeral(seq, SEQ)?,
                    id: numeral(id, "a u32 structure id")?,
                    op: ServiceOp::from_token(op)?,
                    slot: numeral(slot, SLOT)?,
                }
            }
            "event" => {
                let seq = fields.value("seq", "seq=<u64>")?;
                let id = fields.value("id", "id=<u64>")?;
                let op = fields.value("op", OP)?;
                let slot = fields.value("slot", "slot=<u32>")?;
                ServiceRequest::Event {
                    seq: numeral(seq, SEQ)?,
                    id: numeral(id, "a u64 structure id")?,
                    op: ServiceOp::from_token(op)?,
                    slot: numeral(slot, SLOT)?,
                }
            }
            "stats" => {
                let seq = fields.value("seq", "seq=<u64>")?;
                ServiceRequest::Stats {
                    seq: numeral(seq, SEQ)?,
                }
            }
            _ => {
                return Err(bad(
                    tag,
                    "a request tag: analyze, analyzespec, mutate, event or stats",
                ))
            }
        };
        fields.finish()?;
        Ok(request)
    }
}

const SEQ: &str = "a u64 sequence number";
const SLOT: &str = "a u32 slot index";
const OP: &str = "op=<accept|cancel|post|expire>";

/// The `analyzespec` body after its tag: `seq=<u64>;spec=<source>`.
fn analyze_spec(rest: &str) -> Result<ServiceRequest, CodecError> {
    let rest = rest
        .strip_prefix("seq=")
        .ok_or_else(|| bad(rest, "seq=<u64>"))?;
    let (seq, rest) = rest
        .split_once(';')
        .ok_or_else(|| bad(rest, "seq=<u64>;spec=<source>"))?;
    let seq = numeral(seq, SEQ)?;
    let spec = rest
        .strip_prefix("spec=")
        .ok_or_else(|| bad(rest, "spec=<source>"))?;
    Ok(ServiceRequest::AnalyzeSpec {
        seq,
        spec: spec.to_string(),
    })
}

/// Parses `value` into the slot's own integer type, so a numeral too
/// wide for it is an error, never truncated.
fn numeral<T: TryFrom<u64>>(value: &str, expected: &'static str) -> Result<T, CodecError> {
    decimal(value.as_bytes())
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| bad(value, expected))
}

/// `str::parse`'s unsigned-integer grammar: an optional `+`, then at least
/// one decimal digit.
fn decimal(numeral: &[u8]) -> Option<u64> {
    let digits = numeral.strip_prefix(b"+").unwrap_or(numeral);
    if digits.is_empty() {
        return None;
    }
    let mut n = 0u64;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(u64::from(digit))?;
    }
    Some(n)
}

/// A cursor over the `;`-separated fields of one service request frame.
/// It finds each field with one byte scan and checks its key in place,
/// where `split` + `split_once` search every field twice.
struct Fields<'a> {
    frame: &'a str,
    /// Start of the next unread field; `None` once the frame is used up.
    next: Option<usize>,
}

impl<'a> Fields<'a> {
    fn new(frame: &'a str) -> Self {
        Fields {
            frame,
            next: Some(0),
        }
    }

    /// The field starting at byte `at` and where the one after it starts.
    fn field_at(&self, at: usize) -> (&'a str, Option<usize>) {
        match self.frame.as_bytes()[at..].iter().position(|&b| b == b';') {
            Some(len) => (&self.frame[at..at + len], Some(at + len + 1)),
            None => (&self.frame[at..], None),
        }
    }

    /// The first field. Every frame has one, if only the empty string.
    fn tag(&mut self) -> &'a str {
        let (tag, next) = self.field_at(0);
        self.next = next;
        tag
    }

    /// Everything after the tag, separators included.
    fn rest(&self) -> Option<&'a str> {
        self.next.map(|at| &self.frame[at..])
    }

    /// The next field's value, which must be spelled `key=<value>`.
    fn value(&mut self, key: &str, expected: &'static str) -> Result<&'a str, CodecError> {
        let at = self.next.ok_or_else(|| bad("", expected))?;
        let (field, next) = self.field_at(at);
        self.next = next;
        field
            .strip_prefix(key)
            .and_then(|value| value.strip_prefix('='))
            .ok_or_else(|| bad(field, expected))
    }

    /// An error for the first field left over, if any.
    fn finish(self) -> Result<(), CodecError> {
        match self.next {
            Some(at) => Err(bad(self.field_at(at).0, "end of frame")),
            None => Ok(()),
        }
    }
}

/// Appends `n` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// A point-in-time server counters snapshot carried by
/// [`ServiceReply::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Resident structures currently served.
    pub structures: u32,
    /// Requests admitted and answered with a verdict or stats reply.
    pub accepted: u64,
    /// Requests shed with a typed [`RejectReason`] (all rungs summed).
    pub rejected: u64,
    /// Requests sitting in the worker queue right now.
    pub queue_depth: u32,
    /// Connections currently open.
    pub connections: u32,
    /// Analysis-cache hits so far (`analyzespec` lookups; resident
    /// structures are answered off their analyzers and never probe it).
    pub cache_hits: u64,
    /// Analysis-cache misses (fresh reductions) so far.
    pub cache_misses: u64,
}

/// A server→client frame of the analysis service. `seq` always echoes the
/// request it answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceReply {
    /// The feasibility verdict for an `Analyze`, `AnalyzeSpec` or
    /// (post-application) `Mutate` request.
    Verdict {
        /// Echo of the request's correlation number.
        seq: u64,
        /// Whether the structure reduces to zero edges (§4.2.4).
        feasible: bool,
        /// Edges surviving at the impasse (0 iff feasible).
        remaining: u32,
        /// Red edges among the survivors.
        remaining_red: u32,
    },
    /// The verdict for an [`Event`](ServiceRequest::Event) request,
    /// answered from the structure's resident delta analyzer. Besides the
    /// verdict it echoes the server's running order-sensitive FNV fold
    /// over this structure's `(feasible, remaining)` verdict stream —
    /// clients replaying the same schedule off-clock compare their local
    /// fold against the last `hash` seen to audit agreement.
    EventVerdict {
        /// Echo of the request's correlation number.
        seq: u64,
        /// Whether the structure reduces to zero edges (§4.2.4).
        feasible: bool,
        /// Edges surviving at the impasse (0 iff feasible).
        remaining: u32,
        /// The structure's verdict-stream hash *after* folding in this
        /// verdict (decimal u64 on the wire).
        hash: u64,
    },
    /// Server counters snapshot.
    Stats {
        /// Echo of the request's correlation number.
        seq: u64,
        /// The snapshot.
        stats: ServiceStats,
    },
    /// Typed shed load: the request was refused at an admission-control
    /// rung, and nothing about the server's resident state changed.
    Rejected {
        /// Echo of the request's correlation number.
        seq: u64,
        /// Which rung refused it.
        reason: RejectReason,
    },
}

impl ServiceReply {
    /// The echoed correlation number.
    pub fn seq(&self) -> u64 {
        match self {
            ServiceReply::Verdict { seq, .. }
            | ServiceReply::EventVerdict { seq, .. }
            | ServiceReply::Stats { seq, .. }
            | ServiceReply::Rejected { seq, .. } => *seq,
        }
    }

    /// Encodes the reply as its canonical wire frame;
    /// [`from_wire`](Self::from_wire) inverts it exactly.
    pub fn to_wire(&self) -> String {
        let mut out = Vec::new();
        self.write_wire(&mut out);
        String::from_utf8(out).expect("reply frames are ASCII")
    }

    /// Appends the [`to_wire`](Self::to_wire) text to `out` in one pass,
    /// with no intermediate string: the server writes each reply straight
    /// into its per-connection output buffer this way.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        let field = |out: &mut Vec<u8>, key: &[u8], value: u64| {
            out.extend_from_slice(key);
            push_decimal(out, value);
        };
        match *self {
            ServiceReply::Verdict {
                seq,
                feasible,
                remaining,
                remaining_red,
            } => {
                field(out, b"verdict;seq=", seq);
                field(out, b";feasible=", u64::from(feasible));
                field(out, b";remaining=", u64::from(remaining));
                field(out, b";red=", u64::from(remaining_red));
            }
            ServiceReply::EventVerdict {
                seq,
                feasible,
                remaining,
                hash,
            } => {
                field(out, b"everdict;seq=", seq);
                field(out, b";feasible=", u64::from(feasible));
                field(out, b";remaining=", u64::from(remaining));
                field(out, b";hash=", hash);
            }
            ServiceReply::Stats { seq, stats } => {
                field(out, b"svcstats;seq=", seq);
                field(out, b";structures=", u64::from(stats.structures));
                field(out, b";accepted=", stats.accepted);
                field(out, b";rejected=", stats.rejected);
                field(out, b";queue=", u64::from(stats.queue_depth));
                field(out, b";conns=", u64::from(stats.connections));
                field(out, b";hits=", stats.cache_hits);
                field(out, b";misses=", stats.cache_misses);
            }
            ServiceReply::Rejected { seq, reason } => {
                field(out, b"rejected;seq=", seq);
                out.extend_from_slice(b";reason=");
                out.extend_from_slice(reason.token().as_bytes());
            }
        }
    }

    /// Decodes a frame produced by [`to_wire`](Self::to_wire).
    pub fn from_wire(frame: &str) -> Result<Self, CodecError> {
        let mut fields = frame.split(';');
        let tag = fields.next().unwrap_or_default();
        let reply = match tag {
            "verdict" => {
                let seq = num(fields.next(), "seq", "seq=<u64>")?;
                let feasible = expect_field(fields.next(), "feasible", "feasible=<0|1>")?;
                let feasible = match feasible {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(feasible, "feasible 0 or 1")),
                };
                let remaining = num(fields.next(), "remaining", "remaining=<u32>")?;
                let remaining_red = num(fields.next(), "red", "red=<u32>")?;
                ServiceReply::Verdict {
                    seq,
                    feasible,
                    remaining,
                    remaining_red,
                }
            }
            "everdict" => {
                let seq = num(fields.next(), "seq", "seq=<u64>")?;
                let feasible = expect_field(fields.next(), "feasible", "feasible=<0|1>")?;
                let feasible = match feasible {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(feasible, "feasible 0 or 1")),
                };
                let remaining = num(fields.next(), "remaining", "remaining=<u32>")?;
                let hash = num(fields.next(), "hash", "hash=<u64>")?;
                ServiceReply::EventVerdict {
                    seq,
                    feasible,
                    remaining,
                    hash,
                }
            }
            "svcstats" => {
                let seq = num(fields.next(), "seq", "seq=<u64>")?;
                let structures = num(fields.next(), "structures", "structures=<u32>")?;
                let accepted = num(fields.next(), "accepted", "accepted=<u64>")?;
                let rejected = num(fields.next(), "rejected", "rejected=<u64>")?;
                let queue_depth = num(fields.next(), "queue", "queue=<u32>")?;
                let connections = num(fields.next(), "conns", "conns=<u32>")?;
                let cache_hits = num(fields.next(), "hits", "hits=<u64>")?;
                let cache_misses = num(fields.next(), "misses", "misses=<u64>")?;
                ServiceReply::Stats {
                    seq,
                    stats: ServiceStats {
                        structures,
                        accepted,
                        rejected,
                        queue_depth,
                        connections,
                        cache_hits,
                        cache_misses,
                    },
                }
            }
            "rejected" => {
                let seq = num(fields.next(), "seq", "seq=<u64>")?;
                let reason = expect_field(fields.next(), "reason", "reason=<token>")?;
                ServiceReply::Rejected {
                    seq,
                    reason: RejectReason::from_token(reason)?,
                }
            }
            _ => {
                return Err(bad(
                    tag,
                    "a reply tag: verdict, everdict, svcstats or rejected",
                ))
            }
        };
        if let Some(extra) = fields.next() {
            return Err(bad(extra, "end of frame"));
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Packet> {
        vec![
            Packet::Data {
                seq: 17,
                msg: Message {
                    from: AgentId::new(3),
                    edge: EdgeId::new(2),
                },
            },
            Packet::Ack { seq: 0 },
            Packet::SyncReq {
                from: AgentId::new(5),
            },
            Packet::SyncResp {
                from: AgentId::new(1),
                dead: vec![],
            },
            Packet::SyncResp {
                from: AgentId::new(1),
                dead: vec![EdgeId::new(0), EdgeId::new(9)],
            },
            Packet::Hello {
                from: AgentId::new(4),
            },
            Packet::Ping { tick: 12 },
            Packet::Decided {
                from: AgentId::new(2),
                edge: EdgeId::new(7),
                rule: Rule::CommitmentFringe,
            },
            Packet::Decided {
                from: AgentId::new(0),
                edge: EdgeId::new(3),
                rule: Rule::ConjunctionFringe,
            },
            Packet::Status(NodeStatus {
                from: AgentId::new(1),
                tick: 42,
                live: 3,
                proposals: 0,
                unacked: 1,
                abandoned: 0,
                dead: vec![EdgeId::new(1), EdgeId::new(2)],
                bytes_tx: 1234,
                bytes_rx: 987,
                frames_tx: 17,
                frames_rx: 15,
                reconnects: 0,
                rtt_us: 137,
            }),
            Packet::Status(NodeStatus::empty(AgentId::new(0))),
            Packet::Halt {
                verdict: "undecided:deadline".to_string(),
            },
            Packet::Halt {
                verdict: "feasible".to_string(),
            },
        ]
    }

    #[test]
    fn every_packet_round_trips() {
        for packet in samples() {
            let frame = packet.to_wire();
            assert_eq!(Packet::from_wire(&frame).unwrap(), packet, "{frame}");
        }
    }

    #[test]
    fn wire_frames_are_canonical() {
        assert_eq!(
            samples()[0].to_wire(),
            "data;seq=17;from=a3;edge=e2".to_string()
        );
        assert_eq!(samples()[3].to_wire(), "syncresp;from=a1;dead=");
        assert_eq!(samples()[5].to_wire(), "hello;from=a4");
        assert_eq!(
            samples()[7].to_wire(),
            "decided;from=a2;edge=e7;rule=1".to_string()
        );
        assert_eq!(
            samples()[9].to_wire(),
            "status;from=a1;tick=42;live=3;props=0;unacked=1;abandoned=0;\
             dead=e1,e2;tx=1234;rx=987;ftx=17;frx=15;rc=0;rtt=137"
        );
        assert_eq!(samples()[11].to_wire(), "halt;verdict=undecided:deadline");
    }

    /// The satellite regression: *every* truncation of a valid frame
    /// either yields a typed error — never a panic — or happens to be a
    /// shorter frame that is itself canonical (e.g. `ack;seq=17` cut to
    /// `ack;seq=1`): decoding is total and canonical on its domain.
    #[test]
    fn truncated_frames_yield_typed_errors() {
        for packet in samples() {
            let frame = packet.to_wire();
            for cut in 0..frame.len() {
                let truncated = &frame[..cut];
                match Packet::from_wire(truncated) {
                    Err(err) => assert!(!err.to_string().is_empty()),
                    Ok(p) => assert_eq!(p.to_wire(), truncated, "non-canonical decode"),
                }
            }
        }
    }

    #[test]
    fn garbage_and_trailing_fields_are_rejected() {
        for frame in [
            "",
            "nonsense",
            "data",
            "data;seq=x;from=a1;edge=e1",
            "data;seq=1;from=b1;edge=e1",
            "data;seq=1;from=a1;edge=1",
            "data;seq=1;from=a1;edge=e1;extra=1",
            "ack;seq=",
            "syncreq;from=",
            "syncresp;from=a1;dead=x2",
            "hello;from=e1",
            "hello;from=a1;extra=1",
            "ping;tick=abc",
            "decided;from=a1;edge=e1;rule=3",
            "decided;from=a1;edge=e1",
            "status;from=a1",
            "status;from=a1;tick=1;live=2;props=0;unacked=0;abandoned=0;dead=e1,;tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
            "halt;verdict=",
            "halt;verdict=Feasible",
            "halt;verdict=ok;extra=1",
        ] {
            assert!(Packet::from_wire(frame).is_err(), "{frame:?}");
        }
    }

    fn request_samples() -> Vec<ServiceRequest> {
        vec![
            ServiceRequest::Analyze { seq: 0, id: 0 },
            ServiceRequest::Analyze { seq: 17, id: 3 },
            ServiceRequest::AnalyzeSpec {
                seq: 5,
                spec: String::new(),
            },
            ServiceRequest::AnalyzeSpec {
                seq: 9,
                // Semicolons and newlines are legal in the verbatim tail.
                spec: "exchange demo\nprincipal c consumer; deal d\n".to_string(),
            },
            ServiceRequest::Mutate {
                seq: 1,
                id: 2,
                op: ServiceOp::Accept,
                slot: 0,
            },
            ServiceRequest::Mutate {
                seq: u64::MAX,
                id: u32::MAX,
                op: ServiceOp::Expire,
                slot: 41,
            },
            ServiceRequest::Event {
                seq: 2,
                id: 5,
                op: ServiceOp::Post,
                slot: 3,
            },
            ServiceRequest::Event {
                seq: u64::MAX,
                // Event ids are u64: the growable population addresses
                // structures past the u32 boot-time index space.
                id: u64::from(u32::MAX) + 7,
                op: ServiceOp::Cancel,
                slot: 0,
            },
            ServiceRequest::Stats { seq: 7 },
        ]
    }

    fn reply_samples() -> Vec<ServiceReply> {
        vec![
            ServiceReply::Verdict {
                seq: 17,
                feasible: true,
                remaining: 0,
                remaining_red: 0,
            },
            ServiceReply::Verdict {
                seq: 18,
                feasible: false,
                remaining: 9,
                remaining_red: 4,
            },
            ServiceReply::EventVerdict {
                seq: 21,
                feasible: true,
                remaining: 0,
                hash: 0xcbf2_9ce4_8422_2325,
            },
            ServiceReply::EventVerdict {
                seq: 22,
                feasible: false,
                remaining: 11,
                hash: u64::MAX,
            },
            ServiceReply::Stats {
                seq: 7,
                stats: ServiceStats {
                    structures: 64,
                    accepted: 100_000,
                    rejected: 250,
                    queue_depth: 12,
                    connections: 8,
                    cache_hits: 90_000,
                    cache_misses: 64,
                },
            },
            ServiceReply::Rejected {
                seq: 3,
                reason: RejectReason::Overloaded,
            },
            ServiceReply::Rejected {
                seq: 4,
                reason: RejectReason::Quota,
            },
            ServiceReply::Rejected {
                seq: 5,
                reason: RejectReason::Draining,
            },
            ServiceReply::Rejected {
                seq: 6,
                reason: RejectReason::Malformed,
            },
            ServiceReply::Rejected {
                seq: 8,
                reason: RejectReason::UnknownStructure,
            },
        ]
    }

    #[test]
    fn every_service_frame_round_trips() {
        for request in request_samples() {
            let frame = request.to_wire();
            assert_eq!(
                ServiceRequest::from_wire(&frame).unwrap(),
                request,
                "{frame}"
            );
        }
        for reply in reply_samples() {
            let frame = reply.to_wire();
            assert_eq!(ServiceReply::from_wire(&frame).unwrap(), reply, "{frame}");
        }
    }

    #[test]
    fn service_frames_are_canonical() {
        assert_eq!(request_samples()[1].to_wire(), "analyze;seq=17;id=3");
        assert_eq!(
            request_samples()[4].to_wire(),
            "mutate;seq=1;id=2;op=accept;slot=0"
        );
        assert_eq!(
            request_samples()[6].to_wire(),
            "event;seq=2;id=5;op=post;slot=3"
        );
        assert_eq!(
            request_samples()[7].to_wire(),
            "event;seq=18446744073709551615;id=4294967302;op=cancel;slot=0"
        );
        assert_eq!(request_samples()[8].to_wire(), "stats;seq=7");
        assert_eq!(
            reply_samples()[1].to_wire(),
            "verdict;seq=18;feasible=0;remaining=9;red=4"
        );
        assert_eq!(
            reply_samples()[2].to_wire(),
            "everdict;seq=21;feasible=1;remaining=0;hash=14695981039346656037"
        );
        assert_eq!(
            reply_samples()[4].to_wire(),
            "svcstats;seq=7;structures=64;accepted=100000;rejected=250;queue=12;conns=8;hits=90000;misses=64"
        );
        assert_eq!(
            reply_samples()[5].to_wire(),
            "rejected;seq=3;reason=overloaded"
        );
    }

    #[test]
    fn service_seq_accessors_echo() {
        for request in request_samples() {
            let seq = request.seq();
            assert!(request.to_wire().contains(&format!("seq={seq}")));
        }
        for reply in reply_samples() {
            let seq = reply.seq();
            assert!(reply.to_wire().contains(&format!("seq={seq}")));
        }
    }

    #[test]
    fn malformed_service_frames_are_typed_errors() {
        for frame in [
            "",
            "nonsense",
            "analyze",
            "analyze;seq=x;id=1",
            "analyze;seq=1;id=",
            "analyze;seq=1;id=1;extra=1",
            "analyzespec",
            "analyzespec;seq=1",
            "analyzespec;seq=x;spec=a",
            "analyzespec;seq=1;nospec=a",
            "mutate;seq=1;id=1;op=explode;slot=0",
            "mutate;seq=1;id=1;op=accept",
            "event",
            "event;seq=x;id=1;op=post;slot=0",
            "event;seq=1;id=-2;op=post;slot=0",
            "event;seq=1;id=1;op=explode;slot=0",
            "event;seq=1;id=1;op=post",
            "event;seq=1;id=1;op=post;slot=0;extra=1",
            "stats;seq=",
            "stats;seq=1;extra=1",
        ] {
            assert!(ServiceRequest::from_wire(frame).is_err(), "{frame:?}");
        }
        for frame in [
            "",
            "verdict;seq=1;feasible=2;remaining=0;red=0",
            "verdict;seq=1;feasible=1",
            "everdict;seq=1;feasible=2;remaining=0;hash=0",
            "everdict;seq=1;feasible=1;remaining=0",
            "everdict;seq=1;feasible=1;remaining=0;hash=x",
            "everdict;seq=1;feasible=1;remaining=0;hash=0;extra=1",
            "rejected;seq=1;reason=tired",
            "rejected;seq=1",
            "svcstats;seq=1;structures=1",
            "verdict;seq=1;feasible=1;remaining=0;red=0;extra=1",
        ] {
            assert!(ServiceReply::from_wire(frame).is_err(), "{frame:?}");
        }
    }

    /// Same totality property as the packet codec: any truncation of a
    /// valid service frame either errors with a typed [`CodecError`] or is
    /// itself canonical.
    #[test]
    fn truncated_service_frames_yield_typed_errors() {
        for frame in request_samples()
            .iter()
            .map(ServiceRequest::to_wire)
            .collect::<Vec<_>>()
        {
            for cut in 0..frame.len() {
                let truncated = &frame[..cut];
                match ServiceRequest::from_wire(truncated) {
                    Err(err) => assert!(!err.to_string().is_empty()),
                    Ok(r) => assert_eq!(r.to_wire(), truncated, "non-canonical decode"),
                }
            }
        }
        for frame in reply_samples()
            .iter()
            .map(ServiceReply::to_wire)
            .collect::<Vec<_>>()
        {
            for cut in 0..frame.len() {
                let truncated = &frame[..cut];
                match ServiceReply::from_wire(truncated) {
                    Err(err) => assert!(!err.to_string().is_empty()),
                    Ok(r) => assert_eq!(r.to_wire(), truncated, "non-canonical decode"),
                }
            }
        }
    }

    /// The u32-truncation regression: a numeral past `u32::MAX` in a u32
    /// slot used to parse as a u64 and narrow with `as u32`, so
    /// `remaining=2^32` decoded as 0 and `red=2^32 + 1` as 1.
    #[test]
    fn verdict_numerals_past_u32_are_rejected_not_truncated() {
        let frame = "verdict;seq=1;feasible=1;remaining=4294967296;red=4294967297";
        let err = ServiceReply::from_wire(frame).expect_err("a u32 slot overflowed");
        assert_eq!(err.fragment, "4294967296");
        assert_eq!(err.expected, "remaining=<u32>");
        let max = "verdict;seq=1;feasible=1;remaining=4294967295;red=0";
        assert_eq!(ServiceReply::from_wire(max).unwrap().to_wire(), max);
    }

    /// Same regression on the supervisor's status frame: `abandoned` is
    /// the counter whose non-zero value taints an `infeasible` claim, and
    /// `abandoned=2^32` used to decode as 0.
    #[test]
    fn status_numerals_past_u32_are_rejected_not_truncated() {
        let frame = "status;from=a3;tick=42;live=3;props=0;unacked=1;abandoned=4294967296;\
                     dead=e1;tx=10;rx=20;ftx=3;frx=4;rc=0;rtt=250";
        let err = Packet::from_wire(frame).expect_err("a u32 slot overflowed");
        assert_eq!(err.fragment, "4294967296");
        assert_eq!(err.expected, "abandoned=<u32>");
        let ok = frame.replace("abandoned=4294967296", "abandoned=4294967295");
        assert_eq!(Packet::from_wire(&ok).unwrap().to_wire(), ok);
    }
}
