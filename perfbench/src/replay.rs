//! Replay tracing. The server is measured only from outside, so per-layer
//! times come from replaying the same generated requests in-process
//! through each layer's public functions, in the order the server calls
//! them, with every call timed as a span (name, start, end, parent,
//! request id). Spans stay in memory and are written out at the end.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use trustseq_core::{canonicalize, prefingerprint, AnalysisCache, Reducer, SequencingGraph};
use trustseq_dist::net::{encode_frame, FrameDecoder};
use trustseq_dist::{ServiceReply, ServiceRequest};
use trustseq_service::{market_op, ServiceConfig, ShardedQueue, TokenBucket};
use trustseq_workloads::{fnv_fold, MarketMode, Stall, FNV_OFFSET};

use crate::load::encode;
use crate::server::WORKERS;
use crate::workload::{structure, Inputs, Req};

/// Every span name the replay records. The server path runs `reader`
/// stages on a connection's reader thread and `worker` stages on the
/// worker; probe stages time work *inside* `cache.verdict` separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Request,
    FrameDecode,
    RequestParse,
    QuotaTake,
    QueuePush,
    QueuePop,
    Process,
    CacheInvalidate,
    MarketApply,
    CacheVerdict,
    LangParse,
    BuildFromSpec,
    ReplyEncode,
    FrameEncode,
    Prefingerprint,
    Canonicalize,
    ReduceVerdict,
}

pub const STAGES: [Stage; 17] = [
    Stage::Request,
    Stage::FrameDecode,
    Stage::RequestParse,
    Stage::QuotaTake,
    Stage::QueuePush,
    Stage::QueuePop,
    Stage::Process,
    Stage::CacheInvalidate,
    Stage::MarketApply,
    Stage::CacheVerdict,
    Stage::LangParse,
    Stage::BuildFromSpec,
    Stage::ReplyEncode,
    Stage::FrameEncode,
    Stage::Prefingerprint,
    Stage::Canonicalize,
    Stage::ReduceVerdict,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::FrameDecode => "net.frame_decode",
            Stage::RequestParse => "codec.request_parse",
            Stage::QuotaTake => "quota.take",
            Stage::QueuePush => "queue.push",
            Stage::QueuePop => "queue.pop",
            Stage::Process => "worker.process",
            Stage::CacheInvalidate => "cache.invalidate",
            Stage::MarketApply => "market.apply",
            Stage::CacheVerdict => "cache.verdict",
            Stage::LangParse => "lang.parse",
            Stage::BuildFromSpec => "build.from_spec",
            Stage::ReplyEncode => "codec.reply_encode",
            Stage::FrameEncode => "net.frame_encode",
            Stage::Prefingerprint => "canon.prefingerprint",
            Stage::Canonicalize => "canon.canonicalize",
            Stage::ReduceVerdict => "reduce.verdict",
        }
    }

    /// Stages the server's connection reader thread runs per request.
    pub fn on_reader(self) -> bool {
        matches!(
            self,
            Stage::FrameDecode | Stage::RequestParse | Stage::QuotaTake | Stage::QueuePush
        )
    }

    /// Stages the server's worker thread runs per request; together their
    /// self times cover `worker.process` and its children exactly once.
    pub fn on_worker(self) -> bool {
        matches!(
            self,
            Stage::QueuePop
                | Stage::Process
                | Stage::CacheInvalidate
                | Stage::MarketApply
                | Stage::CacheVerdict
                | Stage::LangParse
                | Stage::BuildFromSpec
                | Stage::ReplyEncode
                | Stage::FrameEncode
        )
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    stage: Stage,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Which replay (`workload` or `probe`) the spans from index `.0` on
    /// belong to.
    sources: Vec<(usize, &'static str)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            sources: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, stage: Stage, parent: u32, req: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            stage,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    fn time<T>(&mut self, stage: Stage, parent: u32, req: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(stage, parent, req);
        let out = std::hint::black_box(f());
        self.close(span);
        out
    }

    /// The recorded duration of an empty span: the timer's own cost,
    /// which every measured self time includes once.
    pub fn span_cost_ns(&mut self) -> f64 {
        const SAMPLES: u32 = 10_000;
        let mut total = 0;
        for _ in 0..SAMPLES {
            let span = self.open(Stage::Request, NO_PARENT, 0);
            self.close(span);
            let s = self.spans.pop().expect("just opened");
            total += s.end_ns - s.start_ns;
        }
        total as f64 / f64::from(SAMPLES)
    }

    /// Per-stage `(calls, total self time in ns)`, restricted to spans of
    /// the given source. Self time is a span's duration minus the part its
    /// children cover.
    pub fn self_times(&self, source: &str) -> Vec<(Stage, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(Stage, u64, u64)> = STAGES.iter().map(|&s| (s, 0, 0)).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if self.source_of(i) != source {
                continue;
            }
            let slot = &mut out[STAGES
                .iter()
                .position(|&x| x == s.stage)
                .expect("known stage")];
            slot.1 += 1;
            slot.2 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    fn source_of(&self, span: usize) -> &'static str {
        self.sources
            .iter()
            .rev()
            .find(|(from, _)| *from <= span)
            .map_or("workload", |(_, s)| s)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"source\":\"{}\"}}",
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.req,
                self.source_of(i)
            )?;
        }
        out.flush()
    }
}

/// Counts the replay takes where the work happens.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub requests: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub applies: u64,
    pub noop_applies: u64,
    pub undone_steps: u64,
    pub fallbacks: u64,
    pub reduce_steps: u64,
    /// Verdicts that disagreed with the resident analyzer (must be 0).
    pub mismatches: u64,
}

/// Replays the first `count` requests of `inputs`' stream against fresh
/// copies of the server's state (population in delta mode; the cache,
/// queue and frame limits `serve` runs with; an unlimited quota).
pub fn replay(
    tracer: &mut Tracer,
    inputs: &Inputs,
    count: u64,
    source: &'static str,
) -> ReplayCounts {
    tracer.sources.push((tracer.spans.len(), source));
    // Hot admission generates structures on the worker; the replay
    // pre-generates them so admission is not mistaken for event cost.
    let mut stalls: Vec<Stall> = (0..inputs.population as u64)
        .map(|id| structure(inputs.server_seed, id, MarketMode::Delta))
        .collect();
    let mut event_hash = vec![FNV_OFFSET; stalls.len()];
    let stats_before = delta_totals(&stalls);
    let server = ServiceConfig::default();
    // `serve` overrides only the TTL, to five minutes.
    let cache =
        AnalysisCache::with_capacity_and_ttl(server.cache_capacity, Some(Duration::from_secs(300)));
    let queue: ShardedQueue<ServiceRequest> = ShardedQueue::new(WORKERS, server.queue_capacity);
    let mut bucket = TokenBucket::new(0.0, server.quota_burst);
    let mut decoder = FrameDecoder::with_max_frame(server.max_frame);
    let mut counts = ReplayCounts::default();
    let mut schedule = inputs.schedule();
    for seq in 0..count {
        let req = schedule.next_req();
        let mut bytes = Vec::new();
        encode(req, seq, inputs, &mut bytes);
        counts.request_bytes += bytes.len() as u64;
        let r = seq as u32;
        let root = tracer.open(Stage::Request, NO_PARENT, r);

        // Reader thread: decode, parse, quota, enqueue.
        let frame = tracer.time(Stage::FrameDecode, root, r, || {
            decoder.push(&bytes);
            decoder.next_frame()
        });
        let frame = frame.expect("valid frame").expect("one whole frame");
        let request = tracer
            .time(Stage::RequestParse, root, r, || {
                ServiceRequest::from_wire(&frame)
            })
            .expect("generated requests parse");
        assert!(tracer.time(Stage::QuotaTake, root, r, || bucket.try_take()));
        tracer
            .time(Stage::QueuePush, root, r, || queue.try_push(0, request))
            .expect("the replay queue never fills");

        // Worker thread: dequeue, process, encode the reply.
        let request = tracer
            .time(Stage::QueuePop, root, r, || {
                queue.pop_batch(0, 1, Duration::ZERO)
            })
            .pop()
            .expect("just pushed");
        let before = cache.stats();
        // The graph the probes time: the one the lookup saw, or for an
        // event the pre-mutation graph the invalidation hashed.
        let mut probed = match &request {
            ServiceRequest::Event { id, .. } => Some(stalls[*id as usize].graph().clone()),
            _ => None,
        };
        let process = tracer.open(Stage::Process, root, r);
        let reply = match request {
            ServiceRequest::Analyze { seq, id } => {
                let stall = &stalls[id as usize];
                let v = tracer.time(Stage::CacheVerdict, process, r, || {
                    cache.verdict(stall.graph())
                });
                counts.mismatches += u64::from(v.feasible != stall.feasible());
                verdict(seq, v)
            }
            ServiceRequest::Mutate { seq, id, op, slot } => {
                let stall = &mut stalls[id as usize];
                let changed = tracer.time(Stage::MarketApply, process, r, || {
                    stall.apply(market_op(op), slot as usize)
                });
                counts.applies += 1;
                counts.noop_applies += u64::from(!changed.expect("slot in range"));
                let v = tracer.time(Stage::CacheVerdict, process, r, || {
                    cache.verdict(stall.graph())
                });
                counts.mismatches += u64::from(v.feasible != stall.feasible());
                verdict(seq, v)
            }
            ServiceRequest::Event { seq, id, op, slot } => {
                let stall = &mut stalls[id as usize];
                tracer.time(Stage::CacheInvalidate, process, r, || {
                    cache.invalidate_graph(stall.graph())
                });
                let changed = tracer.time(Stage::MarketApply, process, r, || {
                    stall.apply(market_op(op), slot as usize)
                });
                counts.applies += 1;
                counts.noop_applies += u64::from(!changed.expect("slot in range"));
                let (feasible, remaining) = (stall.feasible(), stall.remaining_edges() as u32);
                let h = &mut event_hash[id as usize];
                *h = fnv_fold(fnv_fold(*h, u64::from(feasible)), u64::from(remaining));
                ServiceReply::EventVerdict {
                    seq,
                    feasible,
                    remaining,
                    hash: *h,
                }
            }
            ServiceRequest::AnalyzeSpec { seq, spec } => {
                let parsed = tracer
                    .time(Stage::LangParse, process, r, || {
                        trustseq_lang::parse_spec(&spec)
                    })
                    .expect("generated specs parse");
                let graph = tracer
                    .time(Stage::BuildFromSpec, process, r, || {
                        SequencingGraph::from_spec(&parsed)
                    })
                    .expect("generated specs build");
                let v = tracer.time(Stage::CacheVerdict, process, r, || cache.verdict(&graph));
                probed = Some(graph);
                verdict(seq, v)
            }
            ServiceRequest::Stats { .. } => unreachable!("the schedule sends no stats"),
        };
        tracer.close(process);
        if let Req::Analyze { id } | Req::Mutate { id, .. } = req {
            probed = Some(stalls[id as usize].graph().clone());
        }
        let wire = tracer.time(Stage::ReplyEncode, root, r, || reply.to_wire());
        let out = tracer
            .time(Stage::FrameEncode, root, r, || encode_frame(&wire))
            .expect("replies fit in a frame");
        counts.reply_bytes += out.len() as u64;

        // Probes: the pieces of `cache.verdict` timed on their own, only
        // where the server's lookup would have run them.
        if let Some(graph) = probed {
            tracer.time(Stage::Prefingerprint, root, r, || prefingerprint(&graph));
            let after = cache.stats();
            if after.hits + after.misses > before.hits + before.misses {
                if after.pre_hits == before.pre_hits {
                    tracer.time(Stage::Canonicalize, root, r, || canonicalize(&graph));
                }
                if after.misses > before.misses {
                    let reducer = Reducer::new(graph);
                    let outcome = tracer.time(Stage::ReduceVerdict, root, r, || reducer.run());
                    counts.reduce_steps += outcome.trace.len() as u64;
                }
            }
        }
        tracer.close(root);
        counts.requests += 1;
    }
    let stats_after = delta_totals(&stalls);
    counts.undone_steps = stats_after.0 - stats_before.0;
    counts.fallbacks = stats_after.1 - stats_before.1;
    counts
}

fn verdict(seq: u64, v: trustseq_core::CachedVerdict) -> ServiceReply {
    ServiceReply::Verdict {
        seq,
        feasible: v.feasible,
        remaining: v.remaining_edges as u32,
        remaining_red: v.remaining_red,
    }
}

/// Summed `(undone_steps, fallbacks)` over a population.
fn delta_totals(stalls: &[Stall]) -> (u64, u64) {
    stalls.iter().fold((0, 0), |(u, f), s| {
        let st = s.stats();
        (u + st.undone_steps, f + st.fallbacks)
    })
}
