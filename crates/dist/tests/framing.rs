//! Property tests for the length-prefixed framing layer.
//!
//! The framing contract the socket transport depends on:
//!
//! * any packet's encoded frame survives arbitrarily split or coalesced
//!   reads byte-for-byte (TCP is a byte stream — the decoder owes the
//!   caller whole frames no matter how the kernel chunks them);
//! * every accepted frame re-encodes to itself (the codec is canonical);
//! * a truncated prefix — a torn write — is a *typed* error from
//!   `finish()`, never a panic and never a silently absorbed frame.

use proptest::prelude::*;
use trustseq_core::{EdgeId, Rule};
use trustseq_dist::net::{encode_frame, write_frame, FrameDecoder, FrameError, FRAME_HEADER_LEN};
use trustseq_dist::{
    Message, NodeStatus, Packet, RejectReason, ServiceOp, ServiceReply, ServiceRequest,
    ServiceStats,
};
use trustseq_model::AgentId;

/// Builds one of every packet shape deterministically from primitive
/// inputs (the vendored proptest has no union strategies, so variants are
/// picked by `kind`).
fn packet_from(kind: u8, seq: u64, agent: u32, edge: u32, extra: usize) -> Packet {
    let from = AgentId::new(agent);
    let e = EdgeId::new(edge);
    let dead: Vec<EdgeId> = (0..extra).map(|i| EdgeId::new(edge + i as u32)).collect();
    match kind {
        0 => Packet::Data {
            seq,
            msg: Message { from, edge: e },
        },
        1 => Packet::Ack { seq },
        2 => Packet::SyncReq { from },
        3 => Packet::SyncResp { from, dead },
        4 => Packet::Hello { from },
        5 => Packet::Ping { tick: seq },
        6 => Packet::Decided {
            from,
            edge: e,
            rule: if seq.is_multiple_of(2) {
                Rule::CommitmentFringe
            } else {
                Rule::ConjunctionFringe
            },
        },
        7 => {
            let mut s = NodeStatus::empty(from);
            s.tick = seq;
            s.live = extra as u32;
            s.proposals = (seq % 7) as u32;
            s.unacked = (seq % 3) as u32;
            s.abandoned = (seq % 2) as u32;
            s.dead = dead;
            s.bytes_tx = seq.wrapping_mul(31);
            s.bytes_rx = seq.wrapping_mul(17);
            s.frames_tx = seq % 1000;
            s.frames_rx = seq % 997;
            s.reconnects = seq % 5;
            s.rtt_us = seq % 100_000;
            Packet::Status(s)
        }
        _ => {
            const TOKENS: [&str; 6] = [
                "feasible",
                "infeasible",
                "undecided:retries",
                "undecided:down",
                "undecided:rounds",
                "undecided:deadline",
            ];
            Packet::Halt {
                verdict: TOKENS[seq as usize % TOKENS.len()].to_string(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One frame fed to the decoder in chunks of every size from one byte
    /// up: the same single frame comes out, and the decoded packet
    /// re-encodes to the exact frame text (canonical codec).
    #[test]
    fn any_packet_survives_split_reads(
        kind in 0u8..9,
        seq in any::<u64>(),
        agent in 0u32..40,
        edge in 0u32..200,
        extra in 0usize..8,
        chunk in 1usize..16,
    ) {
        let packet = packet_from(kind, seq, agent, edge, extra);
        let wire = packet.to_wire();
        let bytes = encode_frame(&wire).expect("encodes");

        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            while let Some(frame) = dec.next_frame().expect("no decode error") {
                frames.push(frame);
            }
        }
        dec.finish().expect("clean boundary");
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &wire);

        let decoded = Packet::from_wire(&frames[0]).expect("round-trips");
        prop_assert_eq!(decoded.to_wire(), wire);
        prop_assert_eq!(decoded, packet);
    }

    /// Several frames coalesced into one read drain in order.
    #[test]
    fn coalesced_frames_drain_in_order(
        kinds in proptest::collection::vec(0u8..9, 1..6),
        seq in any::<u64>(),
        agent in 0u32..40,
        edge in 0u32..200,
    ) {
        let packets: Vec<Packet> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| packet_from(k, seq.wrapping_add(i as u64), agent, edge, i))
            .collect();
        let mut bytes = Vec::new();
        for p in &packets {
            bytes.extend_from_slice(&encode_frame(&p.to_wire()).expect("encodes"));
        }

        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let mut frames = Vec::new();
        while let Some(frame) = dec.next_frame().expect("no decode error") {
            frames.push(frame);
        }
        dec.finish().expect("clean boundary");
        prop_assert_eq!(frames.len(), packets.len());
        for (frame, packet) in frames.iter().zip(&packets) {
            prop_assert_eq!(frame, &packet.to_wire());
        }
    }

    /// Every strict prefix of a frame is a torn write: `next()` yields
    /// nothing and `finish()` reports a typed truncation whose arithmetic
    /// matches the cut — never a panic, never a phantom frame.
    #[test]
    fn truncated_prefixes_are_typed_errors(
        kind in 0u8..9,
        seq in any::<u64>(),
        agent in 0u32..40,
        edge in 0u32..200,
        extra in 0usize..8,
        cut_pick in any::<u64>(),
    ) {
        let packet = packet_from(kind, seq, agent, edge, extra);
        let bytes = encode_frame(&packet.to_wire()).expect("encodes");
        let cut = 1 + (cut_pick as usize) % (bytes.len() - 1);

        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..cut]);
        prop_assert_eq!(dec.next_frame().expect("no decode error"), None);
        match dec.finish() {
            Err(FrameError::Truncated { got, missing }) => {
                if cut < FRAME_HEADER_LEN {
                    // Inside the length prefix the decoder can only owe
                    // the rest of the header.
                    prop_assert_eq!(missing, FRAME_HEADER_LEN - cut);
                } else {
                    prop_assert_eq!(got + missing, bytes.len());
                }
            }
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }
}

/// Picks one of the four lifecycle ops deterministically.
fn op_from(kind: u8) -> ServiceOp {
    match kind % 4 {
        0 => ServiceOp::Post,
        1 => ServiceOp::Accept,
        2 => ServiceOp::Cancel,
        _ => ServiceOp::Expire,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// An `event` request frame survives arbitrarily split reads and
    /// decodes canonically — including structure ids above `u32::MAX`,
    /// which address hot-admitted population growth.
    #[test]
    fn event_frames_survive_split_reads(
        seq in any::<u64>(),
        id in any::<u64>(),
        op_kind in 0u8..4,
        slot in any::<u32>(),
        chunk in 1usize..16,
    ) {
        let request = ServiceRequest::Event { seq, id, op: op_from(op_kind), slot };
        let wire = request.to_wire();
        let bytes = encode_frame(&wire).expect("encodes");

        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for piece in bytes.chunks(chunk) {
            dec.push(piece);
            while let Some(frame) = dec.next_frame().expect("no decode error") {
                frames.push(frame);
            }
        }
        dec.finish().expect("clean boundary");
        prop_assert_eq!(frames.len(), 1);
        prop_assert_eq!(&frames[0], &wire);

        let decoded = ServiceRequest::from_wire(&frames[0]).expect("round-trips");
        prop_assert_eq!(decoded.to_wire(), wire);
        prop_assert_eq!(decoded, request);
    }

    /// A pipelined burst of `event` requests and their `everdict` replies
    /// coalesced into one read drains in order, each frame canonical.
    #[test]
    fn coalesced_event_streams_drain_in_order(
        seqs in proptest::collection::vec(any::<u64>(), 1..8),
        id in any::<u64>(),
        slot in any::<u32>(),
        hash in any::<u64>(),
    ) {
        let wires: Vec<String> = seqs
            .iter()
            .enumerate()
            .map(|(i, &seq)| {
                if i % 2 == 0 {
                    ServiceRequest::Event {
                        seq,
                        id: id.wrapping_add(i as u64),
                        op: op_from(i as u8),
                        slot,
                    }
                    .to_wire()
                } else {
                    ServiceReply::EventVerdict {
                        seq,
                        feasible: seq.is_multiple_of(2),
                        remaining: slot,
                        hash: hash.wrapping_add(i as u64),
                    }
                    .to_wire()
                }
            })
            .collect();
        let mut bytes = Vec::new();
        for w in &wires {
            bytes.extend_from_slice(&encode_frame(w).expect("encodes"));
        }

        let mut dec = FrameDecoder::new();
        dec.push(&bytes);
        let mut frames = Vec::new();
        while let Some(frame) = dec.next_frame().expect("no decode error") {
            frames.push(frame);
        }
        dec.finish().expect("clean boundary");
        prop_assert_eq!(&frames, &wires);
        for (i, frame) in frames.iter().enumerate() {
            if i % 2 == 0 {
                let req = ServiceRequest::from_wire(frame).expect("request round-trips");
                prop_assert_eq!(&req.to_wire(), frame);
            } else {
                let rep = ServiceReply::from_wire(frame).expect("reply round-trips");
                prop_assert_eq!(&rep.to_wire(), frame);
            }
        }
    }

    /// Truncation totality at the codec layer: every strict prefix of a
    /// canonical `event` or `everdict` line is either a typed
    /// `CodecError` or itself a canonical frame — never a panic, and any
    /// accepted prefix re-encodes to itself.
    #[test]
    fn cut_event_lines_are_typed_errors_or_canonical(
        seq in any::<u64>(),
        id in any::<u64>(),
        op_kind in 0u8..4,
        slot in any::<u32>(),
        hash in any::<u64>(),
        cut_pick in any::<u64>(),
    ) {
        let request = ServiceRequest::Event { seq, id, op: op_from(op_kind), slot }.to_wire();
        let reply = ServiceReply::EventVerdict {
            seq,
            feasible: seq.is_multiple_of(2),
            remaining: slot,
            hash,
        }
        .to_wire();

        let cut_req = 1 + (cut_pick as usize) % (request.len() - 1);
        if let Ok(accepted) = ServiceRequest::from_wire(&request[..cut_req]) {
            prop_assert_eq!(accepted.to_wire(), &request[..cut_req]);
        }
        let cut_rep = 1 + (cut_pick as usize) % (reply.len() - 1);
        if let Ok(accepted) = ServiceReply::from_wire(&reply[..cut_rep]) {
            prop_assert_eq!(accepted.to_wire(), &reply[..cut_rep]);
        }
    }
}

/// Every u32 slot of the reply and status frames, as a frame template
/// whose `{}` is that slot's numeral.
const U32_SLOTS: [&str; 12] = [
    "verdict;seq=1;feasible=0;remaining={};red=0",
    "verdict;seq=1;feasible=0;remaining=0;red={}",
    "everdict;seq=1;feasible=0;remaining={};hash=7",
    "svcstats;seq=1;structures={};accepted=0;rejected=0;queue=0;conns=0",
    "svcstats;seq=1;structures=0;accepted=0;rejected=0;queue={};conns=0",
    "svcstats;seq=1;structures=0;accepted=0;rejected=0;queue=0;conns={}",
    "status;from=a1;tick=0;live={};props=0;unacked=0;abandoned=0;dead=;tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
    "status;from=a1;tick=0;live=0;props={};unacked=0;abandoned=0;dead=;tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
    "status;from=a1;tick=0;live=0;props=0;unacked={};abandoned=0;dead=;tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
    "status;from=a1;tick=0;live=0;props=0;unacked=0;abandoned={};dead=;tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
    "status;from=a1;tick=0;live=0;props=0;unacked=0;abandoned=0;dead=e{};tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
    "status;from=a{};tick=0;live=0;props=0;unacked=0;abandoned=0;dead=;tx=0;rx=0;ftx=0;frx=0;rc=0;rtt=0",
];

/// Decodes `frame` as whichever codec owns its tag, re-encoding on success.
fn decode_reencode(frame: &str) -> Option<String> {
    if frame.starts_with("status;") {
        Packet::from_wire(frame).ok().map(|p| p.to_wire())
    } else {
        ServiceReply::from_wire(frame).ok().map(|r| r.to_wire())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A numeral of 2^32 or more in a u32 slot is a typed error, never
    /// narrowed and re-encoded as different text; every numeral that fits
    /// decodes and re-encodes to the same frame.
    #[test]
    fn u32_slots_reject_wide_numerals(
        slot in 0usize..U32_SLOTS.len(),
        wide in (1u64 << 32)..=u64::MAX,
        fits in any::<u32>(),
    ) {
        let wide_frame = U32_SLOTS[slot].replace("{}", &wide.to_string());
        prop_assert_eq!(decode_reencode(&wide_frame), None, "{}", wide_frame);
        let frame = U32_SLOTS[slot].replace("{}", &fits.to_string());
        prop_assert_eq!(decode_reencode(&frame), Some(frame.clone()));
    }
}

/// The split-then-parse request decoder and the `format!` reply encoder
/// that the server's single-pass codec replaced, kept as its oracle.
mod oracle {
    use trustseq_dist::{CodecError, RejectReason, ServiceOp, ServiceReply, ServiceRequest};

    fn bad(fragment: &str, expected: &'static str) -> CodecError {
        CodecError {
            fragment: fragment.to_string(),
            expected,
        }
    }

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

    fn op(s: &str) -> Result<ServiceOp, CodecError> {
        match s {
            "accept" => Ok(ServiceOp::Accept),
            "cancel" => Ok(ServiceOp::Cancel),
            "post" => Ok(ServiceOp::Post),
            "expire" => Ok(ServiceOp::Expire),
            _ => Err(bad(s, "an op: accept, cancel, post or expire")),
        }
    }

    pub fn request_from_wire(frame: &str) -> Result<ServiceRequest, CodecError> {
        if let Some(rest) = frame.strip_prefix("analyzespec;") {
            let rest = rest
                .strip_prefix("seq=")
                .ok_or_else(|| bad(rest, "seq=<u64>"))?;
            let (seq, rest) = rest
                .split_once(';')
                .ok_or_else(|| bad(rest, "seq=<u64>;spec=<source>"))?;
            let seq = seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?;
            let spec = rest
                .strip_prefix("spec=")
                .ok_or_else(|| bad(rest, "spec=<source>"))?;
            return Ok(ServiceRequest::AnalyzeSpec {
                seq,
                spec: spec.to_string(),
            });
        }
        let mut fields = frame.split(';');
        let tag = fields.next().unwrap_or_default();
        let request = match tag {
            "analyze" => {
                let seq = expect_field(fields.next(), "seq", "seq=<u64>")?;
                let id = expect_field(fields.next(), "id", "id=<u32>")?;
                ServiceRequest::Analyze {
                    seq: seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?,
                    id: id.parse().map_err(|_| bad(id, "a u32 structure id"))?,
                }
            }
            "mutate" => {
                let seq = expect_field(fields.next(), "seq", "seq=<u64>")?;
                let id = expect_field(fields.next(), "id", "id=<u32>")?;
                let o = expect_field(fields.next(), "op", "op=<accept|cancel|post|expire>")?;
                let slot = expect_field(fields.next(), "slot", "slot=<u32>")?;
                ServiceRequest::Mutate {
                    seq: seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?,
                    id: id.parse().map_err(|_| bad(id, "a u32 structure id"))?,
                    op: op(o)?,
                    slot: slot.parse().map_err(|_| bad(slot, "a u32 slot index"))?,
                }
            }
            "event" => {
                let seq = expect_field(fields.next(), "seq", "seq=<u64>")?;
                let id = expect_field(fields.next(), "id", "id=<u64>")?;
                let o = expect_field(fields.next(), "op", "op=<accept|cancel|post|expire>")?;
                let slot = expect_field(fields.next(), "slot", "slot=<u32>")?;
                ServiceRequest::Event {
                    seq: seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?,
                    id: id.parse().map_err(|_| bad(id, "a u64 structure id"))?,
                    op: op(o)?,
                    slot: slot.parse().map_err(|_| bad(slot, "a u32 slot index"))?,
                }
            }
            "stats" => {
                let seq = expect_field(fields.next(), "seq", "seq=<u64>")?;
                ServiceRequest::Stats {
                    seq: seq.parse().map_err(|_| bad(seq, "a u64 sequence number"))?,
                }
            }
            _ => {
                return Err(bad(
                    tag,
                    "a request tag: analyze, analyzespec, mutate, event or stats",
                ))
            }
        };
        if let Some(extra) = fields.next() {
            return Err(bad(extra, "end of frame"));
        }
        Ok(request)
    }

    pub fn reply_to_wire(reply: &ServiceReply) -> String {
        match reply {
            ServiceReply::Verdict {
                seq,
                feasible,
                remaining,
                remaining_red,
            } => format!(
                "verdict;seq={seq};feasible={};remaining={remaining};red={remaining_red}",
                u8::from(*feasible)
            ),
            ServiceReply::EventVerdict {
                seq,
                feasible,
                remaining,
                hash,
            } => format!(
                "everdict;seq={seq};feasible={};remaining={remaining};hash={hash}",
                u8::from(*feasible)
            ),
            ServiceReply::Stats { seq, stats } => format!(
                "svcstats;seq={seq};structures={};accepted={};rejected={};queue={};conns={}",
                stats.structures,
                stats.accepted,
                stats.rejected,
                stats.queue_depth,
                stats.connections
            ),
            ServiceReply::Rejected { seq, reason } => {
                format!("rejected;seq={seq};reason={}", reason_token(*reason))
            }
        }
    }

    fn reason_token(reason: RejectReason) -> &'static str {
        match reason {
            RejectReason::Overloaded => "overloaded",
            RejectReason::Quota => "quota",
            RejectReason::Draining => "draining",
            RejectReason::Malformed => "malformed",
            RejectReason::UnknownStructure => "unknown_structure",
        }
    }
}

/// `n` spelled one of the ways a numeral field can arrive: canonical,
/// with `+` or leading zeros (both of which `str::parse` accepts), 20
/// digits wide, past `u32::MAX` or `u64::MAX`, or not a numeral at all.
fn numeral(n: u64, style: u8) -> String {
    match style {
        0..=3 => n.to_string(),
        4 => format!("+{n}"),
        5 => format!("000{n}"),
        6 => format!("+00{n}"),
        7 => format!("{:020}", n),
        8 => (u64::from(u32::MAX) + 1 + n % 1000).to_string(),
        9 => format!("{}{}", u64::MAX, n % 10),
        10 => ["", "+", "-1", "++1", "1+", " 1", "0x1", "1e3"][n as usize % 8].to_string(),
        _ => format!("{}", u128::from(u64::MAX) + 1 + u128::from(n % 1000)),
    }
}

/// A request frame of tag `kind` whose numerals are spelled per `styles`.
fn request_frame(kind: u8, nums: &[u64], styles: &[u8], op: u8) -> String {
    let op = ["accept", "cancel", "post", "expire", "explode", ""][op as usize % 6];
    let [seq, id, slot] = [0, 1, 2].map(|i| numeral(nums[i], styles[i]));
    match kind % 6 {
        0 => format!("analyze;seq={seq};id={id}"),
        1 => format!("mutate;seq={seq};id={id};op={op};slot={slot}"),
        2 => format!("event;seq={seq};id={id};op={op};slot={slot}"),
        3 => format!("stats;seq={seq}"),
        4 => format!("analyzespec;seq={seq};spec=exchange e{id}\nprincipal c consumer; deal d"),
        _ => format!("event;seq={seq};id={id};op={op};slot={slot};extra={id}"),
    }
}

/// Bytes a mutation may write into a frame: separators, signs, digits
/// and letters, all ASCII so the frame stays a string.
const MUTATIONS: &[u8] = b";=+-09aeistz";

/// Whole `Result`s from the server's decoder and the oracle, on `frame`,
/// every truncation of it, and every one-byte replacement and deletion.
fn agrees_with_oracle(frame: &str) -> Result<(), TestCaseError> {
    let check = |input: &str| -> Result<(), TestCaseError> {
        prop_assert_eq!(
            ServiceRequest::from_wire(input),
            oracle::request_from_wire(input),
            "{:?}",
            input
        );
        Ok(())
    };
    check(frame)?;
    let bytes = frame.as_bytes();
    for cut in 0..bytes.len() {
        if frame.is_char_boundary(cut) {
            check(&frame[..cut])?;
        }
    }
    for at in 0..bytes.len() {
        if !bytes[at].is_ascii() {
            continue;
        }
        let mut deleted = bytes.to_vec();
        deleted.remove(at);
        check(std::str::from_utf8(&deleted).expect("an ASCII byte removed"))?;
        for &b in MUTATIONS {
            let mut mutated = bytes.to_vec();
            mutated[at] = b;
            check(std::str::from_utf8(&mutated).expect("an ASCII byte replaced"))?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The single-pass request decoder returns exactly the oracle's
    /// `Result` — the same request, or the same `CodecError` fragment and
    /// expectation — on well-formed frames, on frames whose numerals are
    /// signed, zero-padded, 20 digits wide or past `u32::MAX`, and on
    /// every truncation and one-byte mutation of each.
    #[test]
    fn request_decoder_matches_the_oracle(
        kind in 0u8..6,
        nums in proptest::collection::vec(any::<u64>(), 3),
        styles in proptest::collection::vec(0u8..12, 3),
        op in 0u8..6,
    ) {
        agrees_with_oracle(&request_frame(kind, &nums, &styles, op))?;
    }

    /// Free-form frames over the codec's own alphabet, so separators and
    /// keys land where no template would put them.
    #[test]
    fn request_decoder_matches_the_oracle_on_free_form_frames(
        frame in "(analyze|analyzespec|mutate|event|stats|x)?(;(seq|id|op|slot|spec)?=?[+0-9a-z;=]{0,5}){0,6}",
    ) {
        agrees_with_oracle(&frame)?;
    }

    /// The in-place reply writer produces the oracle's text, and the
    /// in-place frame writer the oracle's length-prefixed bytes.
    #[test]
    fn reply_writer_matches_the_oracle(
        kind in 0u8..9,
        seq in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u32>(),
    ) {
        let reasons = [
            RejectReason::Overloaded,
            RejectReason::Quota,
            RejectReason::Draining,
            RejectReason::Malformed,
            RejectReason::UnknownStructure,
        ];
        let reply = match kind {
            0 => ServiceReply::Verdict { seq, feasible: a % 2 == 0, remaining: c, remaining_red: b as u32 },
            1 => ServiceReply::EventVerdict { seq, feasible: a % 2 == 1, remaining: c, hash: b },
            2 => ServiceReply::Stats {
                seq,
                stats: ServiceStats {
                    structures: c,
                    accepted: a,
                    rejected: b,
                    queue_depth: a as u32,
                    connections: b as u32,
                },
            },
            _ => ServiceReply::Rejected { seq, reason: reasons[usize::from(kind - 3) % reasons.len()] },
        };
        let text = oracle::reply_to_wire(&reply);
        prop_assert_eq!(reply.to_wire(), text.clone());
        let mut framed = vec![7u8];
        write_frame(&mut framed, |out| reply.write_wire(out)).expect("a small frame");
        prop_assert_eq!(&framed[1..], &encode_frame(&text).expect("a small frame")[..]);
        prop_assert_eq!(ServiceReply::from_wire(&text).expect("round-trips"), reply);
    }
}
