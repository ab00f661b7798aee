//! Adversarial and end-to-end tests of the always-on analysis service:
//! real sockets on loopback, hostile clients (slow-loris, mid-request
//! disconnects, over-quota bursts, oversized frames), concurrent
//! mutate-vs-analyze traffic, graceful drain, and the centralised-replay
//! verdict check.
//!
//! Every test binds its own ephemeral-port server. Servers occupy the
//! shared worker pool while they run, so tests naturally serialize on it.
//! Each server is held by a [`Serving`] guard that drains it when dropped,
//! so a test that fails mid-way still frees the pool for the next one.

use std::io::{Read, Write};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use trustseq_core::{Reducer, SequencingGraph};
use trustseq_dist::net::{encode_frame, Addr, Conn, FrameDecoder};
use trustseq_dist::{RejectReason, ServiceOp, ServiceReply, ServiceRequest, ServiceStats};
use trustseq_service::{
    market_op, run_loadgen, LoadgenConfig, Server, ServerHandle, ServiceConfig,
};
use trustseq_workloads::{fnv_fold, MarketMode, Stall, FNV_OFFSET};

/// A running server. Dropping it, as a failing test does while it
/// unwinds, begins the server's drain; [`shutdown`] also joins it.
struct Serving {
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServiceStats>>>,
}

impl Drop for Serving {
    fn drop(&mut self) {
        self.handle.shutdown();
    }
}

/// Binds and runs a server on an ephemeral loopback port, returning its
/// address and the guard that stops it.
fn spawn_server(cfg: ServiceConfig) -> (Addr, Serving) {
    let server = Server::bind(cfg).expect("bind ephemeral loopback");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = Some(std::thread::spawn(move || server.run()));
    (addr, Serving { handle, thread })
}

fn connect(addr: &Addr) -> Conn {
    let conn = Conn::connect(addr, Duration::from_secs(5)).expect("connect");
    conn.set_read_timeout(Some(Duration::from_millis(25)))
        .expect("read timeout");
    conn
}

fn send(conn: &mut Conn, req: &ServiceRequest) {
    let bytes = encode_frame(&req.to_wire()).expect("encodable");
    conn.write_all(&bytes).expect("write");
    conn.flush().expect("flush");
}

/// Collects replies until `want` arrive or `deadline` passes.
fn collect(conn: &mut Conn, want: usize, deadline: Duration) -> Vec<ServiceReply> {
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 8192];
    let mut replies = Vec::new();
    let until = Instant::now() + deadline;
    while replies.len() < want && Instant::now() < until {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                decoder.push(&buf[..n]);
                while let Ok(Some(frame)) = decoder.next_frame() {
                    replies.push(ServiceReply::from_wire(&frame).expect("well-formed reply"));
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    replies
}

/// Reads until EOF (empty read or error other than a timeout), within
/// `deadline`. Returns true when the peer actually closed.
fn closed_by_peer(conn: &mut Conn, deadline: Duration) -> bool {
    let mut buf = [0u8; 1024];
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        match conn.read(&mut buf) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return true,
        }
    }
    false
}

/// Drains the server and returns its final counters.
fn shutdown(mut serving: Serving) -> ServiceStats {
    serving.handle.shutdown();
    let thread = serving.thread.take().expect("a server is joined once");
    thread.join().expect("server thread").expect("clean run")
}

#[test]
fn end_to_end_million_scale_mix_verifies_against_centralised_replay() {
    let (addr, serving) = spawn_server(ServiceConfig {
        workers: 2,
        structures: 12,
        ..ServiceConfig::default()
    });
    let report = run_loadgen(&LoadgenConfig {
        addr,
        clients: 3,
        requests: 30_000,
        structures: 12,
        mutation_rate: 0.2,
        spec_rate: 0.02,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");

    assert_eq!(report.replies, report.sent, "every request answered");
    assert_eq!(report.wrong, 0, "no verdict disagreed with the replay");
    assert_eq!(report.hash_mismatches, 0, "verdict-stream hashes agree");
    assert!(report.hash_checked >= 10, "most structures exercised");
    assert!(report.accepted > 25_000, "unquota'd run mostly accepted");
    let stats = shutdown(serving);
    assert!(stats.accepted >= report.accepted, "server counted the work");
}

#[test]
fn over_quota_bursts_get_typed_rejections_and_the_connection_survives() {
    let (addr, serving) = spawn_server(ServiceConfig {
        structures: 4,
        quota_rate: 20.0,
        quota_burst: 10.0,
        ..ServiceConfig::default()
    });
    let mut conn = connect(&addr);
    for seq in 0..60u64 {
        send(&mut conn, &ServiceRequest::Analyze { seq, id: 0 });
    }
    let replies = collect(&mut conn, 60, Duration::from_secs(10));
    assert_eq!(replies.len(), 60, "every request answered, none dropped");
    let quota = replies
        .iter()
        .filter(|r| {
            matches!(
                r,
                ServiceReply::Rejected {
                    reason: RejectReason::Quota,
                    ..
                }
            )
        })
        .count();
    let verdicts = replies
        .iter()
        .filter(|r| matches!(r, ServiceReply::Verdict { .. }))
        .count();
    assert!(quota >= 30, "burst well past the bucket is shed: {quota}");
    assert!(verdicts >= 10, "the burst allowance is served: {verdicts}");

    // The connection is still usable after the storm passes.
    std::thread::sleep(Duration::from_millis(300));
    send(&mut conn, &ServiceRequest::Analyze { seq: 999, id: 1 });
    let after = collect(&mut conn, 1, Duration::from_secs(5));
    assert!(
        matches!(after.as_slice(), [ServiceReply::Verdict { seq: 999, .. }]),
        "{after:?}"
    );
    shutdown(serving);
}

#[test]
fn slow_loris_partial_frame_is_dropped_and_others_are_served() {
    let (addr, serving) = spawn_server(ServiceConfig {
        structures: 2,
        idle_timeout: Duration::from_millis(200),
        ..ServiceConfig::default()
    });

    // The loris: announce a frame, send half of it, stall.
    let mut loris = connect(&addr);
    let frame = encode_frame(&ServiceRequest::Analyze { seq: 7, id: 0 }.to_wire()).unwrap();
    loris.write_all(&frame[..frame.len() / 2]).unwrap();
    loris.flush().unwrap();
    assert!(
        closed_by_peer(&mut loris, Duration::from_secs(5)),
        "the stalled partial frame gets the connection dropped"
    );

    // A healthy client is unaffected.
    let mut healthy = connect(&addr);
    send(&mut healthy, &ServiceRequest::Analyze { seq: 1, id: 1 });
    let replies = collect(&mut healthy, 1, Duration::from_secs(5));
    assert!(matches!(
        replies.as_slice(),
        [ServiceReply::Verdict { seq: 1, .. }]
    ));

    // An idle connection with NO partial frame is *not* dropped.
    let mut idle = connect(&addr);
    std::thread::sleep(Duration::from_millis(400));
    send(&mut idle, &ServiceRequest::Analyze { seq: 2, id: 0 });
    let replies = collect(&mut idle, 1, Duration::from_secs(5));
    assert!(matches!(
        replies.as_slice(),
        [ServiceReply::Verdict { seq: 2, .. }]
    ));
    shutdown(serving);
}

#[test]
fn disconnect_mid_request_leaves_the_server_healthy() {
    let (addr, serving) = spawn_server(ServiceConfig {
        structures: 2,
        ..ServiceConfig::default()
    });

    // Enqueue real work, then vanish before reading any reply.
    {
        let mut ghost = connect(&addr);
        for seq in 0..50u64 {
            send(&mut ghost, &ServiceRequest::Analyze { seq, id: 0 });
        }
        // Half a frame on the way out for good measure.
        let frame = encode_frame(&ServiceRequest::Analyze { seq: 99, id: 0 }.to_wire()).unwrap();
        let _ = ghost.write_all(&frame[..3]);
    } // dropped: RST/FIN while replies may still be in flight

    // The server keeps serving fresh connections.
    let mut fresh = connect(&addr);
    send(&mut fresh, &ServiceRequest::Analyze { seq: 1, id: 1 });
    let replies = collect(&mut fresh, 1, Duration::from_secs(5));
    assert!(matches!(
        replies.as_slice(),
        [ServiceReply::Verdict { seq: 1, .. }]
    ));

    // And the ghost's reader thread cleaned up: connection count settles to 1.
    let until = Instant::now() + Duration::from_secs(5);
    let mut conns = u32::MAX;
    while Instant::now() < until {
        send(&mut fresh, &ServiceRequest::Stats { seq: 2 });
        if let [ServiceReply::Stats { stats, .. }] =
            collect(&mut fresh, 1, Duration::from_secs(5)).as_slice()
        {
            conns = stats.connections;
            if conns == 1 {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert_eq!(conns, 1, "ghost connection cleaned up");
    shutdown(serving);
}

#[test]
fn oversized_announcement_drops_the_connection_without_buffering() {
    let (addr, serving) = spawn_server(ServiceConfig {
        structures: 2,
        max_frame: 1024,
        ..ServiceConfig::default()
    });
    let mut evil = connect(&addr);
    // A 1 GiB announcement — the cap rejects it from the 4-byte prefix.
    evil.write_all(&(1u32 << 30).to_be_bytes()).unwrap();
    evil.flush().unwrap();
    assert!(
        closed_by_peer(&mut evil, Duration::from_secs(5)),
        "oversized announcement drops the connection"
    );

    // Garbage that parses as a frame but not as a request also drops.
    let mut garbled = connect(&addr);
    garbled
        .write_all(&encode_frame("not;a;request").unwrap())
        .unwrap();
    garbled.flush().unwrap();
    assert!(closed_by_peer(&mut garbled, Duration::from_secs(5)));

    // Healthy traffic continues.
    let mut healthy = connect(&addr);
    send(&mut healthy, &ServiceRequest::Analyze { seq: 3, id: 0 });
    let replies = collect(&mut healthy, 1, Duration::from_secs(5));
    assert!(matches!(
        replies.as_slice(),
        [ServiceReply::Verdict { seq: 3, .. }]
    ));
    shutdown(serving);
}

#[test]
fn queue_backpressure_sheds_with_typed_overloaded_rejections() {
    let (addr, serving) = spawn_server(ServiceConfig {
        workers: 1,
        structures: 2,
        queue_capacity: 2,
        debug_delay: Some(Duration::from_millis(30)),
        ..ServiceConfig::default()
    });
    let mut conn = connect(&addr);
    for seq in 0..20u64 {
        send(&mut conn, &ServiceRequest::Analyze { seq, id: 0 });
    }
    let replies = collect(&mut conn, 20, Duration::from_secs(20));
    assert_eq!(replies.len(), 20, "every request answered");
    let overloaded = replies
        .iter()
        .filter(|r| {
            matches!(
                r,
                ServiceReply::Rejected {
                    reason: RejectReason::Overloaded,
                    ..
                }
            )
        })
        .count();
    let verdicts = replies
        .iter()
        .filter(|r| matches!(r, ServiceReply::Verdict { .. }))
        .count();
    assert!(
        overloaded > 0,
        "a 20-deep burst into 2 slots at 30ms/request must shed"
    );
    assert!(verdicts > 0, "queued requests are still served");
    shutdown(serving);
}

#[test]
fn semantic_errors_get_typed_rejections_not_disconnects() {
    let (addr, serving) = spawn_server(ServiceConfig {
        structures: 2,
        ..ServiceConfig::default()
    });
    let mut conn = connect(&addr);
    send(&mut conn, &ServiceRequest::Analyze { seq: 1, id: 999 });
    send(
        &mut conn,
        &ServiceRequest::Mutate {
            seq: 2,
            id: 0,
            op: trustseq_dist::ServiceOp::Post,
            slot: 10_000,
        },
    );
    send(
        &mut conn,
        &ServiceRequest::AnalyzeSpec {
            seq: 3,
            spec: "exchange \"broken\" {".to_string(),
        },
    );
    send(&mut conn, &ServiceRequest::Analyze { seq: 4, id: 0 });
    let replies = collect(&mut conn, 4, Duration::from_secs(10));
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert!(matches!(
        replies[0],
        ServiceReply::Rejected {
            seq: 1,
            reason: RejectReason::UnknownStructure
        }
    ));
    assert!(matches!(
        replies[1],
        ServiceReply::Rejected {
            seq: 2,
            reason: RejectReason::Malformed
        }
    ));
    assert!(matches!(
        replies[2],
        ServiceReply::Rejected {
            seq: 3,
            reason: RejectReason::Malformed
        }
    ));
    assert!(matches!(replies[3], ServiceReply::Verdict { seq: 4, .. }));
    shutdown(serving);
}

#[test]
fn graceful_drain_answers_inflight_then_sheds_with_draining() {
    let (addr, serving) = spawn_server(ServiceConfig {
        workers: 1,
        structures: 2,
        queue_capacity: 64,
        debug_delay: Some(Duration::from_millis(10)),
        ..ServiceConfig::default()
    });
    let mut conn = connect(&addr);
    // `run` may still be waiting for the shared worker pool while another
    // test's server holds it; a shutdown before its accept loop starts
    // would leave this connection unaccepted. One answered round trip
    // proves the connection is being served before the drain is timed.
    send(&mut conn, &ServiceRequest::Analyze { seq: 100, id: 0 });
    let first = collect(&mut conn, 1, Duration::from_secs(20));
    assert_eq!(first.len(), 1, "the server answers before the drain");
    for seq in 0..10u64 {
        send(&mut conn, &ServiceRequest::Analyze { seq, id: 0 });
    }
    // Give the reader a beat to enqueue, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(30));
    serving.handle.shutdown();
    let replies = collect(&mut conn, 10, Duration::from_secs(20));
    assert_eq!(replies.len(), 10, "drain answers everything admitted");
    let verdicts = replies
        .iter()
        .filter(|r| matches!(r, ServiceReply::Verdict { .. }))
        .count();
    assert!(verdicts > 0, "in-flight work completed during drain");

    // run() actually returns (drain terminates) and late requests — if the
    // socket is even still open — never hang the client.
    let stats = shutdown(serving);
    assert_eq!(stats.queue_depth, 0, "drained queue is empty");
}

#[test]
fn concurrent_mutate_and_analyze_streams_stay_consistent() {
    // Four clients × disjoint structure sets, mutation-heavy, all verified
    // against per-client centralised replays — the interleaving test.
    let (addr, serving) = spawn_server(ServiceConfig {
        workers: 2,
        structures: 8,
        ..ServiceConfig::default()
    });
    let report = run_loadgen(&LoadgenConfig {
        addr,
        clients: 4,
        requests: 12_000,
        structures: 8,
        mutation_rate: 0.5,
        spec_rate: 0.0,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    assert_eq!(report.replies, report.sent);
    assert_eq!(report.wrong, 0);
    assert_eq!(report.hash_mismatches, 0);
    let stats = shutdown(serving);
    assert!(stats.accepted >= report.accepted, "server counted the work");
    assert_eq!(stats.connections, 0, "all client connections closed");
}

#[test]
fn event_verdicts_come_off_the_resident_analyzer_with_a_running_hash() {
    let cfg = ServiceConfig {
        structures: 4,
        ..ServiceConfig::default()
    };
    let (seed, base) = (cfg.seed, cfg.base.clone());
    let (addr, serving) = spawn_server(cfg);

    // Mirror structure 0 under the boot generation law, pick ops that are
    // in range for its trust-pair / deal families, and fold the expected
    // verdict-stream hash exactly as the server advertises it.
    let mut mirror = Stall::generate(seed, &base, MarketMode::Full, None);
    let mut ops = Vec::new();
    if mirror.pairs() > 0 {
        ops.push((ServiceOp::Accept, 0u32));
        ops.push((ServiceOp::Cancel, 0u32));
    }
    if mirror.deals() > 0 {
        ops.push((ServiceOp::Post, 0u32));
        ops.push((ServiceOp::Expire, 0u32));
    }
    assert!(
        !ops.is_empty(),
        "structure 0 has at least one toggle family"
    );

    let mut conn = connect(&addr);
    let mut expected_hash = FNV_OFFSET;
    for (i, &(op, slot)) in ops.iter().enumerate() {
        let seq = i as u64 + 1;
        send(
            &mut conn,
            &ServiceRequest::Event {
                seq,
                id: 0,
                op,
                slot,
            },
        );
        let replies = collect(&mut conn, 1, Duration::from_secs(5));
        mirror
            .apply(market_op(op), slot as usize)
            .expect("mirror accepts the in-range slot");
        expected_hash = fnv_fold(
            fnv_fold(expected_hash, u64::from(mirror.feasible())),
            mirror.remaining_edges() as u64,
        );
        match replies.as_slice() {
            [ServiceReply::EventVerdict {
                seq: rseq,
                feasible,
                remaining,
                hash,
            }] => {
                assert_eq!(*rseq, seq);
                assert_eq!(*feasible, mirror.feasible(), "verdict matches the mirror");
                assert_eq!(*remaining as usize, mirror.remaining_edges());
                assert_eq!(*hash, expected_hash, "running hash folds in order");
            }
            other => panic!("expected one everdict, got {other:?}"),
        }
    }
    shutdown(serving);
}

#[test]
fn out_of_range_event_slot_is_typed_malformed_and_the_connection_survives() {
    let (addr, serving) = spawn_server(ServiceConfig {
        structures: 2,
        max_structures: 4,
        ..ServiceConfig::default()
    });
    let mut conn = connect(&addr);
    // A slot no structure can have: typed rejection, not a disconnect.
    send(
        &mut conn,
        &ServiceRequest::Event {
            seq: 1,
            id: 0,
            op: ServiceOp::Accept,
            slot: u32::MAX,
        },
    );
    // A non-`post` event on an unknown structure never admits it.
    send(
        &mut conn,
        &ServiceRequest::Event {
            seq: 2,
            id: 3,
            op: ServiceOp::Cancel,
            slot: 0,
        },
    );
    // Growth past `max_structures` is refused even for `post`.
    send(
        &mut conn,
        &ServiceRequest::Event {
            seq: 3,
            id: 999,
            op: ServiceOp::Post,
            slot: 0,
        },
    );
    send(&mut conn, &ServiceRequest::Analyze { seq: 4, id: 0 });
    let replies = collect(&mut conn, 4, Duration::from_secs(10));
    assert_eq!(replies.len(), 4, "{replies:?}");
    assert!(matches!(
        replies[0],
        ServiceReply::Rejected {
            seq: 1,
            reason: RejectReason::Malformed
        }
    ));
    assert!(matches!(
        replies[1],
        ServiceReply::Rejected {
            seq: 2,
            reason: RejectReason::UnknownStructure
        }
    ));
    assert!(matches!(
        replies[2],
        ServiceReply::Rejected {
            seq: 3,
            reason: RejectReason::UnknownStructure
        }
    ));
    assert!(
        matches!(replies[3], ServiceReply::Verdict { seq: 4, .. }),
        "the connection keeps serving after typed event rejections"
    );
    shutdown(serving);
}

#[test]
fn event_post_on_an_unknown_structure_admits_it_while_serving() {
    let cfg = ServiceConfig {
        structures: 2,
        max_structures: 8,
        ..ServiceConfig::default()
    };
    let (seed, base) = (cfg.seed, cfg.base.clone());
    let (addr, serving) = spawn_server(cfg);
    let mut conn = connect(&addr);

    // Before admission the structure is unknown to `analyze`.
    send(&mut conn, &ServiceRequest::Analyze { seq: 1, id: 5 });
    let before = collect(&mut conn, 1, Duration::from_secs(5));
    assert!(matches!(
        before.as_slice(),
        [ServiceReply::Rejected {
            seq: 1,
            reason: RejectReason::UnknownStructure
        }]
    ));

    // Find a deal slot the grown structure will actually have, from the
    // same generation law the server uses for hot admission.
    let mut mirror = Stall::generate(seed.wrapping_add(5), &base, MarketMode::Full, None);
    assert!(mirror.deals() > 0, "seed 42 structure 5 has a deal to post");
    send(
        &mut conn,
        &ServiceRequest::Event {
            seq: 2,
            id: 5,
            op: ServiceOp::Post,
            slot: 0,
        },
    );
    let admitted = collect(&mut conn, 1, Duration::from_secs(5));
    mirror.apply(trustseq_workloads::MarketOp::Post, 0).unwrap();
    match admitted.as_slice() {
        [ServiceReply::EventVerdict {
            seq: 2,
            feasible,
            remaining,
            ..
        }] => {
            assert_eq!(*feasible, mirror.feasible());
            assert_eq!(*remaining as usize, mirror.remaining_edges());
        }
        other => panic!("expected an everdict for the admitting post, got {other:?}"),
    }

    // The grown structure — and the whole admitted prefix — now serve
    // whole-op requests too.
    send(&mut conn, &ServiceRequest::Analyze { seq: 3, id: 5 });
    send(&mut conn, &ServiceRequest::Analyze { seq: 4, id: 3 });
    let after = collect(&mut conn, 2, Duration::from_secs(5));
    assert!(matches!(after[0], ServiceReply::Verdict { seq: 3, .. }));
    assert!(matches!(after[1], ServiceReply::Verdict { seq: 4, .. }));
    shutdown(serving);
}

#[test]
fn event_stream_loadgen_with_hot_growth_verifies_three_ways() {
    let (addr, serving) = spawn_server(ServiceConfig {
        workers: 2,
        structures: 8,
        max_structures: 64,
        ..ServiceConfig::default()
    });
    let report = run_loadgen(&LoadgenConfig {
        addr,
        clients: 3,
        requests: 15_000,
        structures: 8,
        events: true,
        grow: 4,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    assert_eq!(report.replies, report.sent, "every event answered");
    assert_eq!(report.wrong, 0, "no verdict disagreed with the replay");
    assert_eq!(
        report.hash_mismatches, 0,
        "mirror folds and server-echoed hashes both agree"
    );
    assert!(
        report.hash_checked == 12,
        "all 8 boot + 4 grown structures verified, got {}",
        report.hash_checked
    );
    let stats = shutdown(serving);
    assert!(stats.accepted >= report.accepted, "server counted the work");
}

/// `(feasible, remaining, red)` for `source` by the naive reducer, the
/// oracle every served verdict is held to.
fn naive_verdict(source: &str) -> (bool, u32, u32) {
    let spec = trustseq_lang::parse_spec(source).expect("the spec parses");
    let graph = SequencingGraph::from_spec(&spec).expect("the graph builds");
    let outcome = Reducer::new(graph.clone()).run_naive();
    (
        outcome.feasible,
        outcome.remaining_edges.len() as u32,
        outcome.remaining_red(&graph) as u32,
    )
}

/// The `(feasible, remaining, red)` of a lone `verdict` reply to `seq`.
fn verdict_of(replies: &[ServiceReply], seq: u64) -> (bool, u32, u32) {
    match replies {
        [ServiceReply::Verdict {
            seq: s,
            feasible,
            remaining,
            remaining_red,
        }] if *s == seq => (*feasible, *remaining, *remaining_red),
        other => panic!("expected one verdict for seq {seq}, got {other:?}"),
    }
}

#[test]
fn resident_and_spec_verdicts_match_the_naive_reducer() {
    let cfg = ServiceConfig {
        structures: 4,
        ..ServiceConfig::default()
    };
    let (seed, base) = (cfg.seed, cfg.base.clone());
    let (addr, serving) = spawn_server(cfg);
    let mut conn = connect(&addr);

    // Every structure gets analyze, mutate and event frames; each verdict
    // is checked against a full-re-reduction mirror, `red` included. An op
    // tagged `true` goes out as an `event`, `false` as a `mutate`.
    let mut seq = 0u64;
    for id in 0..4u32 {
        let mut mirror = Stall::generate(seed + u64::from(id), &base, MarketMode::Full, None);
        let mut ops = vec![None];
        if mirror.pairs() > 0 {
            ops.extend([
                Some((ServiceOp::Accept, false)),
                Some((ServiceOp::Cancel, true)),
            ]);
        }
        if mirror.deals() > 0 {
            ops.extend([
                Some((ServiceOp::Post, true)),
                Some((ServiceOp::Expire, false)),
            ]);
        }
        for op in ops {
            seq += 1;
            let req = match op {
                None => ServiceRequest::Analyze { seq, id },
                Some((op, false)) => ServiceRequest::Mutate {
                    seq,
                    id,
                    op,
                    slot: 0,
                },
                Some((op, true)) => ServiceRequest::Event {
                    seq,
                    id: u64::from(id),
                    op,
                    slot: 0,
                },
            };
            send(&mut conn, &req);
            if let Some((op, _)) = op {
                mirror.apply(market_op(op), 0).expect("slot 0 is in range");
            }
            let (feasible, remaining) = (mirror.feasible(), mirror.remaining_edges() as u32);
            match collect(&mut conn, 1, Duration::from_secs(5)).as_slice() {
                [ServiceReply::Verdict {
                    seq: s,
                    feasible: f,
                    remaining: r,
                    remaining_red,
                }] => {
                    assert_eq!((*s, *f, *r), (seq, feasible, remaining));
                    assert_eq!(*remaining_red as usize, mirror.remaining_red());
                }
                [ServiceReply::EventVerdict {
                    seq: s,
                    feasible: f,
                    remaining: r,
                    ..
                }] => assert_eq!((*s, *f, *r), (seq, feasible, remaining)),
                other => panic!("expected one verdict for seq {seq}, got {other:?}"),
            }
        }
    }
    assert!(seq > 4, "the run mutated at least one structure");

    // Inline specs: Example #1 reduces away; Example #2's impasse leaves
    // edges, red ones among them.
    for (seq, source) in [
        (2_000, include_str!("../specs/example1.tseq")),
        (2_001, include_str!("../specs/example2.tseq")),
    ] {
        send(
            &mut conn,
            &ServiceRequest::AnalyzeSpec {
                seq,
                spec: source.to_string(),
            },
        );
        let got = verdict_of(&collect(&mut conn, 1, Duration::from_secs(5)), seq);
        assert_eq!(got, naive_verdict(source), "seq {seq}");
    }
    let (feasible, remaining, red) = naive_verdict(include_str!("../specs/example2.tseq"));
    assert!(
        !feasible && remaining > 0 && red > 0,
        "example 2 is an impasse"
    );
    shutdown(serving);
}

/// The widest inline spec a client can send costs its shard one direct
/// reduction, not seconds: a resident `analyze` queued behind it on the
/// same shard is answered promptly.
#[test]
fn a_spec_at_the_frame_cap_does_not_stall_its_shard() {
    const BOUND: Duration = Duration::from_millis(250);
    let cfg = ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    };
    // The widest `n`-document bundle whose `analyzespec` frame fits.
    let fits = |n: usize| {
        let source = trustseq_lang::print(&trustseq_workloads::bundle_arithmetic(n).0);
        let frame = ServiceRequest::AnalyzeSpec {
            seq: 1,
            spec: source.clone(),
        }
        .to_wire();
        (frame.len() <= cfg.max_frame).then_some(source)
    };
    let (n, spec) = (1..)
        .map_while(|n| fits(n).map(|spec| (n, spec)))
        .last()
        .expect("a one-document bundle fits");
    assert!(fits(n + 1).is_none());
    let expected = naive_verdict(&spec);

    let (addr, serving) = spawn_server(cfg);
    let mut spec_conn = connect(&addr);
    let mut resident_conn = connect(&addr);
    // The pool may still be serving another test's server: one answered
    // round trip shows this one is running before anything is timed.
    send(
        &mut resident_conn,
        &ServiceRequest::Analyze { seq: 0, id: 0 },
    );
    let warm = collect(&mut resident_conn, 1, Duration::from_secs(60));
    assert_eq!(warm.len(), 1, "the server answers the warm-up");

    // Same shard: the spec routes on its seq, the analyze on its id. The
    // pause lets the spec's reader take in its 64 KiB and enqueue it, so
    // the analyze queues behind it rather than overtaking it.
    let start = Instant::now();
    send(
        &mut spec_conn,
        &ServiceRequest::AnalyzeSpec {
            seq: 1,
            spec: spec.clone(),
        },
    );
    std::thread::sleep(Duration::from_millis(1));
    send(
        &mut resident_conn,
        &ServiceRequest::Analyze { seq: 1, id: 1 },
    );
    let resident = collect(&mut resident_conn, 1, Duration::from_secs(30));
    let resident_at = start.elapsed();
    let spec_reply = collect(&mut spec_conn, 1, Duration::from_secs(30));
    let spec_at = start.elapsed();
    assert!(
        matches!(resident.as_slice(), [ServiceReply::Verdict { seq: 1, .. }]),
        "{resident:?}"
    );
    assert_eq!(verdict_of(&spec_reply, 1), expected, "{n}-document bundle");
    assert!(
        resident_at <= BOUND && spec_at <= BOUND,
        "a {}-byte spec ({n} documents) held its shard: the same-shard analyze \
         answered after {resident_at:?}, the spec after {spec_at:?}",
        spec.len()
    );
    shutdown(serving);
}
