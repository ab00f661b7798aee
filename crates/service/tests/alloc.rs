//! Allocation-regression test for the service's request path: once a
//! connection's buffers have grown, a live server answering resident
//! `analyze`, `mutate` and `event` requests over loopback makes **zero**
//! heap allocations per request — on the reader (frame decode, parse,
//! admission, the batched queue handoff), on the worker (batch pop,
//! verdict, in-place reply encoding into a recycled buffer) and in this
//! test's own client, which sends pre-encoded frames and reads the replies
//! through a lent decoder.
//!
//! The window's `mutate` and `event` requests are no-ops (re-accepting a
//! pair that is already trusted, re-posting a posted indemnity). A toggle
//! that changes state runs `Stall::apply`, whose delta logs grow now and
//! then (about one apply in a thousand allocates), which is verdict work,
//! not request-path overhead.
//!
//! Kept in its own integration-test binary because the counting
//! `#[global_allocator]` is process-global: the server's threads are
//! counted too, which is the point, and no other test may share them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use trustseq_dist::net::{encode_frame, Conn, FrameDecoder};
use trustseq_dist::{ServiceOp, ServiceRequest};
use trustseq_service::{Server, ServiceConfig};

/// Counts every allocation and reallocation routed through the global
/// allocator. Frees are not counted — the property under test is "no new
/// heap traffic".
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no allocation of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations observed across one run of `window`, retried until quiet:
/// the libtest harness's own threads may allocate concurrently once, but a
/// request-path regression allocates on every pass and never goes quiet.
fn measured_allocations(mut window: impl FnMut()) -> u64 {
    let mut observed = u64::MAX;
    for _ in 0..8 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        window();
        observed = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if observed == 0 {
            break;
        }
    }
    observed
}

/// Length-prefixed frames for `requests`, back to back.
fn frames(requests: &[ServiceRequest]) -> Vec<u8> {
    let mut out = Vec::new();
    for req in requests {
        out.extend_from_slice(&encode_frame(&req.to_wire()).expect("small frame"));
    }
    out
}

/// Writes `wire` and reads until `replies` verdict frames have come back.
fn exchange(
    conn: &mut Conn,
    wire: &[u8],
    replies: usize,
    decoder: &mut FrameDecoder,
    buf: &mut [u8],
) {
    conn.write_all(wire).expect("write requests");
    let mut got = 0;
    while got < replies {
        let n = conn.read(buf).expect("read replies");
        assert_ne!(n, 0, "the server closed the connection");
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next_frame_str().expect("well-formed reply") {
            assert!(
                frame.starts_with("verdict;") || frame.starts_with("everdict;"),
                "unexpected reply {frame:?}"
            );
            got += 1;
        }
    }
}

#[test]
fn steady_state_resident_requests_do_not_allocate() {
    assert!(
        !trustseq_core::obs::enabled(),
        "no recorder may be installed in the alloc test binary"
    );
    let server = Server::bind(ServiceConfig {
        structures: 4,
        ..ServiceConfig::default()
    })
    .expect("bind an ephemeral loopback port");
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run());
    let mut conn = Conn::connect(&addr, Duration::from_secs(5)).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 << 10];

    // Put structure 1's first pair in trust and post structure 2's first
    // indemnity, so that repeating either below changes nothing.
    let setup = frames(&[
        ServiceRequest::Mutate {
            seq: 0,
            id: 1,
            op: ServiceOp::Accept,
            slot: 0,
        },
        ServiceRequest::Event {
            seq: 1,
            id: 2,
            op: ServiceOp::Post,
            slot: 0,
        },
    ]);
    exchange(&mut conn, &setup, 2, &mut decoder, &mut buf);

    let mut round = Vec::new();
    for seq in 0..64u64 {
        round.push(ServiceRequest::Analyze {
            seq,
            id: (seq % 4) as u32,
        });
        round.push(ServiceRequest::Mutate {
            seq,
            id: 1,
            op: ServiceOp::Accept,
            slot: 0,
        });
        round.push(ServiceRequest::Event {
            seq,
            id: 2,
            op: ServiceOp::Post,
            slot: 0,
        });
    }
    let wire = frames(&round);

    // Warm-up: every reader, queue, worker and client buffer grows to the
    // size a round needs.
    for _ in 0..100 {
        exchange(&mut conn, &wire, round.len(), &mut decoder, &mut buf);
    }
    let observed = measured_allocations(|| {
        for _ in 0..200 {
            exchange(&mut conn, &wire, round.len(), &mut decoder, &mut buf);
        }
    });
    assert_eq!(
        observed,
        0,
        "resident requests allocated in the steady state ({} requests per pass)",
        200 * round.len()
    );

    handle.shutdown();
    let stats = serving.join().expect("server thread").expect("clean run");
    assert_eq!(stats.rejected, 0, "no request was refused");
}
