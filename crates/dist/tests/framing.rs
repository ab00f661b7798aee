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
use trustseq_dist::net::{encode_frame, FrameDecoder, FrameError, FRAME_HEADER_LEN};
use trustseq_dist::{Message, NodeStatus, Packet, ServiceOp, ServiceReply, ServiceRequest};
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
    "svcstats;seq=1;structures={};accepted=0;rejected=0;queue=0;conns=0;hits=0;misses=0",
    "svcstats;seq=1;structures=0;accepted=0;rejected=0;queue={};conns=0;hits=0;misses=0",
    "svcstats;seq=1;structures=0;accepted=0;rejected=0;queue=0;conns={};hits=0;misses=0",
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
