//! The `trustseq` command-line tool: analyse, synthesise, render, simulate
//! and cost exchange specifications written in the specification language.
//!
//! Kept as a library module so the logic is unit- and integration-testable;
//! `main.rs` is a thin wrapper.

use std::fmt::Write as _;
use trustseq_baselines::cost_of_mistrust;
use trustseq_core::indemnity::{make_feasible_cached, IndemnityPlan};
use trustseq_core::obs::{self, MetricsRegistry};
use trustseq_core::{dot, Protocol, SequencingGraph};
use trustseq_dist::{
    run_node, DistributedReduction, FaultPlan, Journal, JournalEvent, NetworkDescription,
    ResilientConfig, RunObserver as _, SocketOutcome, SuperviseConfig,
};
use trustseq_lang::parse_spec;
use trustseq_model::{AgentId, ExchangeSpec};

use crate::orchestrate::{self, TransportKind};
use trustseq_sim::BehaviorMap;

/// Renders an indemnity plan with participant names instead of raw ids.
fn render_plan(out: &mut String, spec: &ExchangeSpec, plan: &IndemnityPlan) {
    let name = |a| {
        spec.participant(a)
            .map(|p| p.name().to_owned())
            .unwrap_or_else(|_| format!("{a}"))
    };
    let _ = writeln!(
        out,
        "indemnity plan for {} (total {}):",
        name(plan.beneficiary),
        plan.total()
    );
    for (i, p) in plan.indemnities.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {}. {} sets aside {} for {}",
            i + 1,
            name(p.provider),
            p.amount,
            p.deal
        );
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `check <file>` — feasibility verdict.
    Check,
    /// `sequence <file>` — the §5 execution sequence.
    Sequence,
    /// `protocol <file>` — per-agent instructions.
    Protocol,
    /// `dot <file>` — DOT renderings of both graphs.
    Dot,
    /// `simulate <file>` — all-honest run plus exhaustive defection sweep.
    Simulate,
    /// `cost <file>` — the §8 cost-of-mistrust table.
    Cost,
    /// `indemnify <file>` — plan minimal indemnities to reach feasibility.
    Indemnify,
    /// `advise <file>` — every unlocking option (trust / indemnity /
    /// delegation) for an infeasible exchange.
    Advise,
}

impl Command {
    /// Parses a subcommand name.
    pub fn parse(name: &str) -> Option<Command> {
        Some(match name {
            "check" => Command::Check,
            "sequence" => Command::Sequence,
            "protocol" => Command::Protocol,
            "dot" => Command::Dot,
            "simulate" => Command::Simulate,
            "cost" => Command::Cost,
            "indemnify" => Command::Indemnify,
            "advise" => Command::Advise,
            _ => return None,
        })
    }
}

/// The usage text.
pub const USAGE: &str = "\
trustseq — trust-explicit distributed commerce transactions (ICDCS 1996)

USAGE:
    trustseq <COMMAND> [OPTIONS] <SPEC.tseq>
    trustseq dist [--faults PLAN] [--journal PATH] [OPTIONS] <SPEC.tseq>
    trustseq dist-run [--transport tcp|unix] [--faults PLAN] [--journal PATH] <SPEC.tseq>
    trustseq dist-node --net <NET.txt> --id <AGENT> [--faults PLAN] <SPEC.tseq>
    trustseq chaos-sockets [--out PATH] [--quick]
    trustseq journal-replay [OPTIONS] <JOURNAL.jsonl>
    trustseq sweep [--samples N] [--stream CHUNK] [OPTIONS]
    trustseq market [--events N] [--mutation-rate R] [--delta|--full] [OPTIONS]
    trustseq serve [--addr HOST:PORT] [--workers N] [--structures N] [--seed S]
                   [--queue N] [--quota R] [--duration SECS]
    trustseq loadgen [--addr HOST:PORT | --serve] [--clients N] [--requests N]
                     [--mutation-rate R] [--spec-rate R] [--window N]
                     [--events] [--grow N] [--quick] [--bench-out PATH]

OPTIONS:
    --extended        enable the \u{a7}9 shared-escrow delegation semantics
                      (multi-party trusted agents)
    --cache-stats     route feasibility analyses through a memoized
                      analysis cache and print its hit/miss statistics
    --threads N       worker threads for sweep fan-out (defection sweeps,
                      batch analysis); defaults to the machine's available
                      parallelism
    --samples N       with `sweep`: corpus size, seeds 0..N (default 1000)
    --stream CHUNK    with `sweep`: bounded-memory streaming mode — generate,
                      analyze and fold CHUNK specs at a time instead of
                      materializing the whole corpus
    --events [N]      with `market`: number of marketplace events to stream
                      (default 1000); with `loadgen` (bare, no count):
                      event-stream mode — send lifecycle `event` frames,
                      audited through their echoed verdict-stream hashes,
                      instead of analyze/mutate/analyzespec traffic
    --grow N          with `loadgen --events`: extra structures beyond
                      `--structures` opened mid-run by `event post` frames,
                      exercising hot population admission
    --mutation-rate R with `market`: probability in [0, 1] that an event
                      mutates a structure rather than re-certifying one
                      (default 0.2)
    --delta           with `market`: maintain verdicts incrementally with
                      resident delta analyzers (the default)
    --full            with `market`: recompute every verdict from scratch —
                      the non-incremental baseline the delta engine is
                      measured against
    --metrics         record structured runtime metrics (reducer, cache,
                      pool, distributed protocol) and print them afterwards
    --metrics-format  `table` (default) or `json`; implies --metrics
    --faults PLAN     fault-plan wire string for `dist`, e.g.
                      \"seed=7;drop=200;dup=50;delay=2;corrupt=50\"
    --journal PATH    with `dist`: write the run's replayable JSONL event
                      journal to PATH; with `dist-run`: write an audit
                      journal of the socket run (not byte-replayable)
    --transport KIND  with `dist-run`: `tcp` (loopback TCP, default) or
                      `unix` (Unix-domain sockets)
    --net PATH        with `dist-node`: the shared network description file
    --id AGENT        with `dist-node`: which principal this process runs,
                      e.g. `a0`
    --out PATH        with `chaos-sockets`: where to write the JSON report
                      (default BENCH_sockets.json)
    --quick           with `chaos-sockets` / `loadgen`: the small CI smoke
                      profile
    --addr HOST:PORT  with `serve`: the listen address (default
                      127.0.0.1:7421); with `loadgen`: the server to hammer
    --workers N       with `serve`: analysis workers (= queue shards,
                      default 1)
    --structures N    with `serve`/`loadgen`: resident marketplace
                      population size (default 32; must match across the
                      two commands)
    --seed S          with `serve`/`loadgen`: population seed (default 42;
                      must match across the two commands)
    --queue N         with `serve`: bounded queue slots per worker shard
                      (default 1024) — the backpressure surface
    --quota R         with `serve`: per-connection token-bucket quota in
                      requests/second (default 0 = unlimited)
    --duration SECS   with `serve`: drain and exit after SECS seconds
                      (default: serve until killed)
    --clients N       with `loadgen`: concurrent client connections
                      (default 4)
    --requests N      with `loadgen`: total requests across all clients
                      (default 1000000)
    --spec-rate R     with `loadgen`: fraction of requests that are inline
                      one-shot spec analyses (default 0.005)
    --window N        with `loadgen`: max outstanding requests per client
                      (default 64)
    --serve           with `loadgen`: spin up an in-process server on an
                      ephemeral port first (single-machine benchmarking)
    --bench-out PATH  with `loadgen`: run the two-phase bench (sustained +
                      2x overload, always in-process) and write the JSON
                      report to PATH; with `--events`: the event-stream
                      bench instead

COMMANDS:
    check           decide feasibility (sequencing-graph reduction, §4)
    sequence        print the synthesised execution sequence (§5)
    protocol        print per-agent protocol instructions
    dot             print Graphviz DOT for the interaction and sequencing graphs
    simulate        run the protocol honestly, then sweep every defection pattern
    cost            print the §8 cost-of-mistrust table
    indemnify       plan minimal indemnities that make the exchange feasible (§6)
    advise          list every unlocking option: trust edges (§4.2.3),
                    indemnities (§6), shared-escrow delegation (§9)
    dist            run the fault-tolerant distributed reduction (§9) under a
                    seeded fault plan; optionally record an event journal
    dist-run        run the distributed reduction as one OS process per
                    principal over live loopback sockets, supervised from
                    this process
    dist-node       run a single principal's node against a network
                    description (spawned by `dist-run`; usable manually)
    chaos-sockets   run the multi-process chaos matrix (fault classes x
                    fixtures x seeds) and write the agreement report
    journal-replay  re-run a recorded journal and verify it reproduces
                    byte-for-byte, then re-check the verdict centrally
    sweep           measure the feasibility rate of a seeded random exchange
                    corpus; `--stream` keeps peak memory at one chunk
    market          stream a live marketplace: post/accept/cancel/expire
                    events over a population of structures, re-certifying
                    after every event (`--delta` incremental, `--full`
                    from-scratch baseline)
    serve           run the always-on analysis service: resident structures
                    behind length-prefixed framing, admission control
                    (quotas, bounded queue, write deadlines), graceful drain
    loadgen         hammer a running `serve` with N pipelined clients and
                    verify every verdict against a centralised replay;
                    `--bench-out` runs the committed two-phase benchmark
";

/// Runs a command against specification source text, returning the output.
///
/// # Errors
///
/// Returns a human-readable error string for parse failures, infeasible
/// exchanges (where a sequence was demanded), or simulation errors.
pub fn run(command: Command, source: &str) -> Result<String, String> {
    run_with(command, source, trustseq_core::BuildOptions::PAPER)
}

/// Like [`run`], with explicit build options (`--extended` selects the §9
/// shared-escrow delegation semantics).
///
/// # Errors
///
/// As for [`run`].
pub fn run_with(
    command: Command,
    source: &str,
    options: trustseq_core::BuildOptions,
) -> Result<String, String> {
    let spec = parse_spec(source).map_err(|e| format!("parse error: {e}"))?;
    run_on_spec(command, &spec, options)
}

/// Like [`run_with`], routing every feasibility analysis through `cache`
/// (the `--cache-stats` path) — callers can print
/// [`cache.stats()`](trustseq_core::AnalysisCache::stats) afterwards.
///
/// # Errors
///
/// As for [`run`].
pub fn run_with_cache(
    command: Command,
    source: &str,
    options: trustseq_core::BuildOptions,
    cache: &trustseq_core::AnalysisCache,
) -> Result<String, String> {
    let spec = parse_spec(source).map_err(|e| format!("parse error: {e}"))?;
    run_on_spec_cached(command, &spec, options, Some(cache))
}

/// Runs a command against an already-parsed specification.
///
/// # Errors
///
/// As for [`run`].
pub fn run_on_spec(
    command: Command,
    spec: &ExchangeSpec,
    options: trustseq_core::BuildOptions,
) -> Result<String, String> {
    run_on_spec_cached(command, spec, options, None)
}

/// [`run_on_spec`] with an optional
/// [`AnalysisCache`](trustseq_core::AnalysisCache): feasibility checks,
/// advice probes and indemnity planning go through the memo table.
/// Sequence/protocol synthesis stays uncached — its output is defined by
/// the deterministic reducer's exact step order (§5).
///
/// # Errors
///
/// As for [`run`].
pub fn run_on_spec_cached(
    command: Command,
    spec: &ExchangeSpec,
    options: trustseq_core::BuildOptions,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> Result<String, String> {
    let mut out = String::new();
    match command {
        Command::Check => {
            let outcome = match cache {
                Some(cache) => cache.analyze_with(spec, options),
                None => trustseq_core::analyze_with(spec, options),
            }
            .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{outcome}");
            if !outcome.feasible {
                let graph =
                    SequencingGraph::from_spec_with(spec, options).map_err(|e| e.to_string())?;
                let (_, reduced) = trustseq_core::Reducer::new(graph).run_keeping_graph();
                let _ = write!(out, "{reduced}");
            }
        }
        Command::Sequence => {
            let seq = trustseq_core::synthesize_with(spec, options).map_err(|e| e.to_string())?;
            for (i, line) in seq.describe(spec).iter().enumerate() {
                let _ = writeln!(out, "{:>3}. {line}", i + 1);
            }
        }
        Command::Protocol => {
            let seq = trustseq_core::synthesize_with(spec, options).map_err(|e| e.to_string())?;
            let protocol = Protocol::from_sequence(spec, &seq);
            let name = |a| {
                spec.participant(a)
                    .map(|p| p.name().to_owned())
                    .unwrap_or_else(|_| format!("{a}"))
            };
            for agent in protocol.participants() {
                let _ = writeln!(out, "{}:", name(agent));
                for instr in protocol.instructions_for(agent) {
                    let _ = writeln!(out, "  {instr}");
                }
            }
        }
        Command::Dot => {
            let ig = spec.interaction_graph().map_err(|e| e.to_string())?;
            let sg = SequencingGraph::from_spec_with(spec, options).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "// interaction graph");
            out.push_str(&dot::interaction_to_dot(spec, &ig));
            let _ = writeln!(out, "// sequencing graph");
            out.push_str(&dot::sequencing_to_dot(spec, &sg));
        }
        Command::Simulate => {
            let seq = trustseq_core::synthesize_with(spec, options).map_err(|e| e.to_string())?;
            let protocol = Protocol::from_sequence(spec, &seq);
            let report = trustseq_sim::Simulation::new(spec, &protocol, &BehaviorMap::all_honest())
                .run()
                .map_err(|e| e.to_string())?;
            let _ = write!(out, "{report}");
            let sweep = trustseq_sim::sweep(spec, &protocol, 100_000, trustseq_core::pool::size())
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "sweep: {sweep}");
            for (pattern, harmed) in &sweep.violations {
                let _ = writeln!(out, "  VIOLATION under [{pattern}]: {harmed} harmed");
            }
        }
        Command::Cost => {
            let cost = cost_of_mistrust(spec).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "{cost}");
        }
        Command::Advise => {
            let advice = trustseq_core::advise_cached(spec, cache).map_err(|e| e.to_string())?;
            // Render with participant names for readability.
            let name = |a| {
                spec.participant(a)
                    .map(|p| p.name().to_owned())
                    .unwrap_or_else(|_| format!("{a}"))
            };
            if advice.already_feasible {
                let _ = writeln!(out, "already feasible; nothing to do");
            } else {
                if !advice.trust_options.is_empty() {
                    let _ = writeln!(out, "single trust edges that unlock the exchange:");
                    for t in &advice.trust_options {
                        let _ = writeln!(
                            out,
                            "  - {} trusts {} (on {})",
                            name(t.truster),
                            name(t.trustee),
                            t.deal
                        );
                    }
                }
                for plan in &advice.indemnity_plans {
                    render_plan(&mut out, spec, plan);
                }
                if advice.delegation_unlocks {
                    let _ = writeln!(
                        out,
                        "shared-escrow delegation (§9 extension) unlocks it as specified"
                    );
                }
                if !advice.has_options() {
                    let _ = writeln!(
                        out,
                        "no single trust edge, indemnity plan or delegation unlocks this exchange"
                    );
                }
            }
        }
        Command::Indemnify => {
            let mut planned = spec.clone();
            match make_feasible_cached(&mut planned, cache) {
                Ok(plans) if plans.is_empty() => {
                    let _ = writeln!(out, "already feasible; no indemnities needed");
                }
                Ok(plans) => {
                    for plan in &plans {
                        render_plan(&mut out, spec, plan);
                    }
                    let _ = writeln!(out, "exchange is now feasible");
                }
                Err(e) => {
                    let _ = writeln!(out, "cannot reach feasibility: {e}");
                }
            }
        }
    }
    Ok(out)
}

/// Runs the fault-tolerant distributed reduction over `source` under
/// `plan` and `config`. Returns the human-readable report and, when
/// `with_journal`, the replayable JSONL event journal (a `run_start`
/// header carrying the plan, config, build semantics and spec source,
/// followed by the per-node decision timeline).
///
/// # Errors
///
/// Parse failures, plans naming unknown agents, or engine errors, as
/// human-readable strings.
pub fn run_dist(
    source: &str,
    options: trustseq_core::BuildOptions,
    plan: &FaultPlan,
    config: &ResilientConfig,
    with_journal: bool,
) -> Result<(String, Option<String>), String> {
    let spec = parse_spec(source).map_err(|e| format!("parse error: {e}"))?;
    let reduction =
        DistributedReduction::with_options(&spec, options).map_err(|e| e.to_string())?;
    let mut out = String::new();
    if with_journal {
        let mut journal = Journal::new();
        journal.record(JournalEvent::run_start(
            plan.to_string(),
            config.to_wire(),
            options == trustseq_core::BuildOptions::EXTENDED,
            source.to_owned(),
        ));
        let outcome = reduction
            .run_resilient_observed(plan, config, &mut journal)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "{outcome}");
        let _ = writeln!(out, "journal: {} events", journal.lines().len());
        Ok((out, Some(journal.to_text())))
    } else {
        let outcome = reduction
            .run_resilient(plan, config)
            .map_err(|e| e.to_string())?;
        let _ = writeln!(out, "{outcome}");
        Ok((out, None))
    }
}

/// Parses an `--id` value like `a3`.
fn parse_agent_id(raw: &str) -> Result<AgentId, String> {
    raw.strip_prefix('a')
        .and_then(|n| n.parse::<u32>().ok())
        .map(AgentId::new)
        .ok_or_else(|| format!("`--id` expects an agent id like `a0`, got `{raw}`\n\n{USAGE}"))
}

/// Runs one principal's socket node (the `dist-node` command): joins the
/// network described by `net_text`, participates in the reduction until
/// the supervisor's halt broadcast, and reports its final state. The
/// supervision config travels in the network description so every process
/// of a run agrees on deadlines without extra flags.
///
/// # Errors
///
/// Bad network descriptions, unknown agents, socket failures, or watchdog
/// expiry (the node outlived its deadline without seeing a halt).
pub fn run_dist_node(
    net_text: &str,
    id: &str,
    spec_source: &str,
    plan: &FaultPlan,
) -> Result<String, String> {
    let desc = NetworkDescription::from_text(net_text)
        .map_err(|e| format!("bad network description: {e}"))?;
    let me = parse_agent_id(id)?;
    let spec = parse_spec(spec_source).map_err(|e| format!("parse error: {e}"))?;
    let config = match &desc.config {
        Some(wire) => {
            SuperviseConfig::from_wire(wire).map_err(|e| format!("bad network config: {e}"))?
        }
        None => SuperviseConfig::default(),
    };
    let report = run_node(&spec, me, &desc, &config, plan).map_err(|e| e.to_string())?;
    let mut out = String::new();
    match &report.verdict {
        Some(v) => {
            let _ = writeln!(
                out,
                "{me}: halted with verdict {v} after {} ticks",
                report.ticks
            );
        }
        None => {
            return Err(format!(
                "{me}: watchdog expired after {} ticks without a halt broadcast",
                report.ticks
            ))
        }
    }
    let _ = writeln!(
        out,
        "{me}: {} live edges, {} bytes tx, {} frames rx, {} reconnects",
        report.status.live,
        report.status.bytes_tx,
        report.status.frames_rx,
        report.status.reconnects
    );
    Ok(out)
}

/// Builds the `dist-run` audit journal: the run header, every removal the
/// supervisor observed (in arrival order), each node's final view, and the
/// verdict. Unlike `dist` journals it is **not** byte-replayable — socket
/// timing is non-deterministic — so `journal-replay` will reject it; it is
/// an audit record of what this run did.
fn socket_audit_journal(
    source: &str,
    plan: &FaultPlan,
    config: &SuperviseConfig,
    outcome: &SocketOutcome,
) -> String {
    let mut journal = Journal::new();
    journal.record(JournalEvent::run_start(
        plan.to_string(),
        config.to_wire(),
        false,
        source.to_owned(),
    ));
    for (i, (decider, edge, rule)) in outcome.removals.iter().enumerate() {
        journal.record(JournalEvent::Removal {
            round: i,
            decider: *decider,
            edge: *edge,
            rule: *rule,
        });
    }
    for (node, status) in &outcome.nodes {
        journal.record(JournalEvent::NodeView {
            node: *node,
            live: status.live as usize,
            decided_feasible: status.live == 0,
        });
    }
    journal.record(JournalEvent::Verdict {
        verdict: outcome.verdict.to_string(),
        rounds: outcome.nodes.values().map(|s| s.tick).max().unwrap_or(0) as usize,
        messages: outcome.frames_received() as usize,
        retransmissions: 0,
        dedup_drops: 0,
        decode_failures: 0,
    });
    journal.to_text()
}

/// Runs the multi-process socket transport (the `dist-run` command):
/// spawns one `dist-node` OS process per principal of `source` using
/// `binary`, supervises the run from this process, and summarises the
/// outcome. With `with_journal`, also returns the audit journal (see
/// [`socket_audit_journal`]).
///
/// # Errors
///
/// Parse, spawn and socket failures as human-readable strings.
pub fn run_dist_sockets(
    binary: &std::path::Path,
    source: &str,
    transport: TransportKind,
    plan: &FaultPlan,
    with_journal: bool,
) -> Result<(String, Option<String>), String> {
    let config = SuperviseConfig::default();
    let run = orchestrate::run_multiprocess(binary, source, transport, plan, &config, None)?;
    let outcome = &run.outcome;
    let mut out = String::new();
    let _ = writeln!(out, "verdict: {}", outcome.verdict);
    let _ = writeln!(
        out,
        "processes: {} spawned, {} lost, {} hung",
        run.spawned,
        outcome.lost.len(),
        run.hung
    );
    let _ = writeln!(
        out,
        "removals: {}; dead edges {} of {}",
        outcome.removals.len(),
        outcome.dead_union.len(),
        outcome.total_edges
    );
    let _ = writeln!(
        out,
        "traffic: {} bytes sent, {} frames received, {} reconnects, max rtt {} us",
        outcome.bytes_sent(),
        outcome.frames_received(),
        outcome.reconnects(),
        outcome.max_rtt_us()
    );
    let _ = writeln!(out, "elapsed: {} ms", outcome.elapsed_ms);
    let journal = with_journal.then(|| socket_audit_journal(source, plan, &config, outcome));
    Ok((out, journal))
}

/// Runs the `sweep` command: the feasible fraction of `samples` seeded
/// random exchanges (seeds `0..samples`, default workload topology).
/// Without a chunk budget the corpus is materialized and analyzed in one
/// batch; with `chunk = Some(n)` it streams through
/// [`trustseq_workloads::sweep_streaming`], holding at most `n` specs
/// resident regardless of corpus size. Both paths honour the process-wide
/// worker pool, and both report the same rate.
///
/// # Errors
///
/// Currently infallible (random workloads always build); kept fallible for
/// symmetry with the other command runners.
pub fn run_sweep(
    samples: u64,
    chunk: Option<usize>,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> Result<String, String> {
    let config = trustseq_workloads::RandomConfig::default();
    let mut out = String::new();
    match chunk {
        Some(chunk) => {
            let report = trustseq_workloads::sweep_streaming(&config, samples, chunk, cache);
            let _ = writeln!(
                out,
                "sweep: {} samples, feasibility rate {:.4}",
                report.samples,
                report.rate()
            );
            let _ = writeln!(
                out,
                "streamed in {} chunks of at most {} resident specs ({} errors)",
                report.chunks, report.chunk_len, report.errors
            );
        }
        None => {
            let rate = trustseq_workloads::feasibility_rate_cached(&config, samples, cache);
            let _ = writeln!(out, "sweep: {samples} samples, feasibility rate {rate:.4}");
        }
    }
    Ok(out)
}

/// Runs the `market` command: streams `events` marketplace events over the
/// default structure population and reports deterministic counts (never
/// throughput — timing belongs to the `delta` bench).
///
/// With a `cache`, every mutation exercises the delta-aware invalidation
/// path and cross-checks the incremental verdict against the
/// canonicalizing pipeline (see
/// [`run_market`](trustseq_workloads::run_market)).
///
/// # Errors
///
/// Currently infallible; the `Result` matches its sibling runners.
pub fn run_market_cmd(
    events: u64,
    mutation_rate: f64,
    mode: trustseq_workloads::MarketMode,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> Result<String, String> {
    let config = trustseq_workloads::MarketConfig {
        events,
        mutation_rate,
        ..Default::default()
    };
    let report = trustseq_workloads::run_market(&config, mode, cache);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "market: {} events over {} structures (mutation rate {:.2}, {} mode)",
        report.events,
        config.structures,
        config.mutation_rate,
        match mode {
            trustseq_workloads::MarketMode::Delta => "delta",
            trustseq_workloads::MarketMode::Full => "full",
        }
    );
    let _ = writeln!(
        out,
        "  mutations: {} ({} verdict flips), re-certifications: {}",
        report.mutations, report.flips, report.recerts
    );
    let _ = writeln!(
        out,
        "  final state: {}/{} structures feasible",
        report.feasible_final, config.structures
    );
    let _ = writeln!(out, "  verdict hash: {:#018x}", report.verdict_hash);
    let s = report.stats;
    let _ = writeln!(
        out,
        "  maintenance: {} resumed, {} undos ({} steps undone), \
         {} fallbacks, {} full runs",
        s.resumed, s.undos, s.undone_steps, s.fallbacks, s.full_runs
    );
    Ok(out)
}

/// Shared knobs of the `serve` and `loadgen` commands, resolved from
/// flags with one set of defaults so the two sides agree by default.
#[derive(Debug, Clone)]
pub struct ServiceCliConfig {
    /// Listen / target address.
    pub addr: String,
    /// `serve`: worker count.
    pub workers: usize,
    /// Resident population size (must match across serve and loadgen).
    pub structures: usize,
    /// Population seed (must match across serve and loadgen).
    pub seed: u64,
    /// `serve`: queue slots per worker shard.
    pub queue: usize,
    /// `serve`: per-connection quota (requests/second, 0 = unlimited).
    pub quota: f64,
    /// `loadgen`: concurrent clients.
    pub clients: usize,
    /// `loadgen`: total requests.
    pub requests: u64,
    /// `loadgen`: mutation fraction.
    pub mutation_rate: f64,
    /// `loadgen`: inline-spec fraction.
    pub spec_rate: f64,
    /// `loadgen`: pipelining window per client.
    pub window: usize,
    /// `loadgen`: stream marketplace lifecycle events instead of
    /// analyze/mutate/analyzespec traffic.
    pub events: bool,
    /// `loadgen`: extra structures admitted hot via `event post` (event
    /// mode only).
    pub grow: usize,
}

impl Default for ServiceCliConfig {
    fn default() -> Self {
        ServiceCliConfig {
            addr: "127.0.0.1:7421".to_string(),
            workers: 1,
            structures: 32,
            seed: 42,
            queue: 1024,
            quota: 0.0,
            clients: 4,
            requests: 1_000_000,
            mutation_rate: 0.1,
            spec_rate: 0.005,
            window: 64,
            events: false,
            grow: 0,
        }
    }
}

fn service_config(cli: &ServiceCliConfig) -> trustseq_service::ServiceConfig {
    trustseq_service::ServiceConfig {
        addr: trustseq_dist::Addr::Tcp(cli.addr.clone()),
        workers: cli.workers,
        structures: cli.structures,
        seed: cli.seed,
        queue_capacity: cli.queue,
        quota_rate: cli.quota,
        // A long-running service must survive unbounded spec diversity:
        // entries idle past the TTL are reclaimed lazily, and the
        // segmented eviction keeps the table under its cap.
        cache_ttl: Some(std::time::Duration::from_secs(300)),
        ..trustseq_service::ServiceConfig::default()
    }
}

fn loadgen_config(
    cli: &ServiceCliConfig,
    addr: trustseq_dist::Addr,
) -> trustseq_service::LoadgenConfig {
    trustseq_service::LoadgenConfig {
        addr,
        clients: cli.clients,
        requests: cli.requests,
        structures: cli.structures,
        seed: cli.seed,
        mutation_rate: cli.mutation_rate,
        spec_rate: cli.spec_rate,
        window: cli.window,
        events: cli.events,
        grow: cli.grow,
        ..trustseq_service::LoadgenConfig::default()
    }
}

/// Runs the `serve` command: binds, prints the banner straight to stdout
/// (the process is about to block), serves until `duration` elapses (or
/// forever), then drains and reports.
///
/// # Errors
///
/// Bind or socket errors.
pub fn run_serve_cmd(cli: &ServiceCliConfig, duration: Option<u64>) -> Result<String, String> {
    let server = trustseq_service::Server::bind(service_config(cli))
        .map_err(|e| format!("cannot bind `{}`: {e}", cli.addr))?;
    let addr = server.local_addr();
    println!(
        "serving on {addr}: {} workers, {} resident structures (seed {}), \
         queue {}x{}, quota {}",
        cli.workers,
        cli.structures,
        cli.seed,
        cli.workers,
        cli.queue,
        if cli.quota > 0.0 {
            format!("{} req/s per connection", cli.quota)
        } else {
            "unlimited".to_string()
        }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let handle = server.handle();
    if let Some(secs) = duration {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            handle.shutdown();
        });
    }
    let stats = server.run().map_err(|e| format!("serve failed: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "drained: {} accepted, {} rejected, {} cache hits / {} misses",
        stats.accepted, stats.rejected, stats.cache_hits, stats.cache_misses
    );
    Ok(out)
}

fn render_loadgen_report(
    out: &mut String,
    cli: &ServiceCliConfig,
    report: &trustseq_service::LoadgenReport,
) {
    let _ = writeln!(
        out,
        "loadgen: {} requests over {} clients -> {} replies in {:.2} s ({:.0} req/s)",
        report.sent,
        cli.clients,
        report.replies,
        report.elapsed.as_secs_f64(),
        report.rps
    );
    let [overloaded, quota, draining, malformed, unknown] = report.rejected;
    let _ = writeln!(
        out,
        "  accepted {}, rejected: overloaded {overloaded}, quota {quota}, \
         draining {draining}, malformed {malformed}, unknown {unknown}",
        report.accepted
    );
    let l = report.latency;
    let _ = writeln!(
        out,
        "  latency (accepted): p50 {} us, p99 {} us, p999 {} us, max {} us",
        l.p50_us, l.p99_us, l.p999_us, l.max_us
    );
    let _ = writeln!(
        out,
        "  verification: {} wrong verdicts, {}/{} structure hash mismatches \
         (centralised replay)",
        report.wrong, report.hash_mismatches, report.hash_checked
    );
    if let Some(s) = &report.server {
        let _ = writeln!(
            out,
            "  server: queue depth {}, connections {}, cache {} hits / {} misses",
            s.queue_depth, s.connections, s.cache_hits, s.cache_misses
        );
    }
}

/// The CI gate shared by `loadgen` and the bench: a run that proved
/// nothing (no accepted work) or proved something *wrong* fails loudly.
fn check_loadgen_report(out: &str, report: &trustseq_service::LoadgenReport) -> Result<(), String> {
    if report.accepted == 0 {
        return Err(format!("{out}loadgen FAILED: no request was accepted"));
    }
    if report.wrong > 0 || report.hash_mismatches > 0 {
        return Err(format!(
            "{out}loadgen FAILED: {} wrong verdicts, {} hash mismatches — the \
             service disagreed with the centralised reducer",
            report.wrong, report.hash_mismatches
        ));
    }
    if report.replies < report.sent {
        return Err(format!(
            "{out}loadgen FAILED: {} of {} requests never answered",
            report.sent - report.replies,
            report.sent
        ));
    }
    Ok(())
}

/// Runs the `loadgen` command against `addr`, or against an in-process
/// server when `in_process`.
///
/// # Errors
///
/// Connection errors, or a failed verification gate (wrong verdicts, hash
/// mismatches, unanswered or zero accepted requests).
pub fn run_loadgen_cmd(cli: &ServiceCliConfig, in_process: bool) -> Result<String, String> {
    let mut out = String::new();
    let report = if in_process {
        let mut server_cli = cli.clone();
        server_cli.addr = "127.0.0.1:0".to_string();
        let server = trustseq_service::Server::bind(service_config(&server_cli))
            .map_err(|e| format!("cannot bind the in-process server: {e}"))?;
        let addr = server.local_addr();
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.run());
        let result = trustseq_service::run_loadgen(&loadgen_config(cli, addr));
        handle.shutdown();
        let _ = serving.join();
        result.map_err(|e| format!("loadgen failed: {e}"))?
    } else {
        trustseq_service::run_loadgen(&loadgen_config(
            cli,
            trustseq_dist::Addr::Tcp(cli.addr.clone()),
        ))
        .map_err(|e| {
            format!(
                "loadgen failed (is `trustseq serve` running on {}?): {e}",
                cli.addr
            )
        })?
    };
    render_loadgen_report(&mut out, cli, &report);
    check_loadgen_report(&out, &report)?;
    Ok(out)
}

fn bench_phase_json(
    name: &str,
    cli: &ServiceCliConfig,
    report: &trustseq_service::LoadgenReport,
) -> String {
    let [overloaded, quota, draining, malformed, unknown] = report.rejected;
    let (queue_depth, cache_hits, cache_misses) = report
        .server
        .as_ref()
        .map_or((0, 0, 0), |s| (s.queue_depth, s.cache_hits, s.cache_misses));
    format!(
        r#"    {{
      "phase": "{name}",
      "clients": {}, "window": {}, "workers": {}, "structures": {},
      "events_mode": {}, "grow": {},
      "quota_per_conn": {}, "queue_capacity": {},
      "mutation_rate": {}, "spec_rate": {},
      "requests": {}, "replies": {}, "elapsed_s": {:.3}, "rps": {:.0},
      "accepted": {}, "rejected_overloaded": {overloaded}, "rejected_quota": {quota},
      "rejected_draining": {draining}, "rejected_malformed": {malformed}, "rejected_unknown": {unknown},
      "p50_us": {}, "p99_us": {}, "p999_us": {}, "max_us": {},
      "wrong_verdicts": {}, "hash_mismatches": {}, "hash_checked": {},
      "final_queue_depth": {queue_depth}, "cache_hits": {cache_hits}, "cache_misses": {cache_misses}
    }}"#,
        cli.clients,
        cli.window,
        cli.workers,
        cli.structures,
        cli.events,
        cli.grow,
        cli.quota,
        cli.queue,
        cli.mutation_rate,
        cli.spec_rate,
        report.sent,
        report.replies,
        report.elapsed.as_secs_f64(),
        report.rps,
        report.accepted,
        report.latency.p50_us,
        report.latency.p99_us,
        report.latency.p999_us,
        report.latency.max_us,
        report.wrong,
        report.hash_mismatches,
        report.hash_checked,
    )
}

/// Runs the committed two-phase service benchmark (always in-process —
/// the numbers describe one machine talking to itself over loopback):
///
/// 1. **sustained** — no quotas; measures what the pipeline can carry;
/// 2. **overload** — per-connection quotas sized from phase 1 so clients
///    offer ~2x what admission control lets through; the report shows
///    typed shedding and that the p99 of *accepted* requests stays
///    bounded.
///
/// # Errors
///
/// Socket errors, a failed verification gate, or an unwritable `out`.
pub fn run_service_bench(
    cli: &ServiceCliConfig,
    quick: bool,
    out_file: &str,
) -> Result<String, String> {
    let mut cli = cli.clone();
    if quick {
        cli.requests = cli.requests.min(40_000);
    }
    let mut out = String::new();
    let _ = writeln!(out, "service bench, phase 1 (sustained):");
    let phase1 = run_one_bench_phase(&cli)?;
    render_loadgen_report(&mut out, &cli, &phase1);
    check_loadgen_report(&out, &phase1)?;

    // Phase 2: quotas sized so the admitted rate is about half of what
    // phase 1 proved the pipeline can carry, while clients offer full
    // speed — a deliberate ~2x overload.
    let mut over = cli.clone();
    over.quota = (phase1.rps / 2.0 / cli.clients as f64).max(100.0);
    over.requests = cli.requests / 2;
    let _ = writeln!(
        out,
        "service bench, phase 2 (~2x overload, quota {:.0} req/s per connection):",
        over.quota
    );
    let phase2 = run_one_bench_phase(&over)?;
    render_loadgen_report(&mut out, &over, &phase2);
    check_loadgen_report(&out, &phase2)?;
    let shed = phase2.rejected.iter().sum::<u64>();
    if shed == 0 {
        return Err(format!(
            "{out}bench FAILED: the overload phase shed nothing — quota admission \
             control did not engage"
        ));
    }

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        r#"{{
  "suite": "service",
  "note": "always-on analysis service (E27): pipelined request engine over loopback TCP on one machine — the loadgen clients, their reader threads, the server's accept loop, connection readers and pool workers all share {cpus} core(s), so rps is a self-contained single-box number, not a distributed-systems claim. Requests are length-prefixed text frames (analyze/mutate/analyzespec/stats) against a resident marketplace population; analyze and mutate verdicts are read straight off each structure's resident incremental analyzer, and only analyzespec goes through the shared two-tier analysis cache (TTL + segmented eviction). Every verdict the clients receive is verified after the timed window by replaying the accepted schedule against per-client full-re-reduction mirrors (the centralised reducer) and comparing order-sensitive FNV verdict-stream hashes per structure; wrong_verdicts and hash_mismatches are hard gates, not observations. Latency percentiles cover accepted (verdict-carrying) replies only and include client-side queueing inside the pipelining window, so they are honest end-to-end numbers at full throughput, not unloaded ping times. The overload phase sizes per-connection token-bucket quotas to half of phase 1's measured rps while clients offer full speed (~2x overload): the gate demands typed shedding engaged and the p99 of accepted requests stays bounded — no hangs, no unbounded queueing, no wrong verdicts under pressure.",
  "harness": "cargo run --release -- loadgen --bench-out (in-process server, ephemeral loopback port)",
  "platform": "{}-{}",
  "cpu_count": {cpus},
  "available_parallelism": {cpus},
  "phases": [
{},
{}
  ]
}}
"#,
        std::env::consts::OS,
        std::env::consts::ARCH,
        bench_phase_json("sustained", &cli, &phase1),
        bench_phase_json("overload_2x", &over, &phase2),
    );
    std::fs::write(out_file, &json).map_err(|e| format!("cannot write `{out_file}`: {e}"))?;
    let _ = writeln!(out, "report written to {out_file}");
    Ok(out)
}

/// Runs the committed event-stream benchmark (always in-process), written
/// as `BENCH_events.json`: lifecycle `event` frames answered straight off
/// the resident delta analyzers, with a slice of the population admitted
/// hot by `post` frames mid-run. The gate is the loadgen's own: zero wrong
/// verdicts and zero hash mismatches, the server's echoed verdict-stream
/// hashes included.
///
/// # Errors
///
/// Socket errors, a failed verification gate, or an unwritable `out_file`.
pub fn run_events_bench(
    cli: &ServiceCliConfig,
    quick: bool,
    out_file: &str,
) -> Result<String, String> {
    let mut ev = cli.clone();
    if quick {
        ev.requests = ev.requests.min(40_000);
    }
    ev.events = true;
    // Every event is a mutation and none is an inline spec; the rates are
    // set so the committed record says so.
    ev.mutation_rate = 1.0;
    ev.spec_rate = 0.0;
    ev.grow = if cli.grow > 0 {
        cli.grow
    } else {
        (cli.structures / 4).max(1)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "events bench (event stream, {} structures admitted hot):",
        ev.grow
    );
    let report = run_one_bench_phase(&ev)?;
    render_loadgen_report(&mut out, &ev, &report);
    check_loadgen_report(&out, &report)?;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        r#"{{
  "suite": "events",
  "note": "event-stream wire protocol (E28), in-process over loopback TCP on one machine ({cpus} core(s) shared by clients, readers and workers — a self-contained single-box number). Clients send lifecycle `event` frames (post/accept/cancel/expire with a slot); verdicts come straight off the resident per-structure delta analyzers, with no canonicalization and no cache probe, and a slice of the population is admitted hot mid-run by `post` frames on unseen structure ids. Verification is three-legged: every verdict is checked against per-client centralised full-re-reduction mirrors after the timed window, order-sensitive FNV verdict-stream hashes are compared per structure, and the server's echoed running hash must match the mirror fold — wrong_verdicts and hash_mismatches are hard gates. The whole-op `mutate` baseline phase and its 3x gate were retired once `mutate` began sharing the event path's resident verdict code.",
  "harness": "cargo run --release -- loadgen --events --bench-out (in-process server, ephemeral loopback port)",
  "platform": "{}-{}",
  "cpu_count": {cpus},
  "available_parallelism": {cpus},
  "phases": [
{}
  ]
}}
"#,
        std::env::consts::OS,
        std::env::consts::ARCH,
        bench_phase_json("event_stream", &ev, &report),
    );
    std::fs::write(out_file, &json).map_err(|e| format!("cannot write `{out_file}`: {e}"))?;
    let _ = writeln!(out, "report written to {out_file}");
    Ok(out)
}

fn run_one_bench_phase(cli: &ServiceCliConfig) -> Result<trustseq_service::LoadgenReport, String> {
    let mut server_cli = cli.clone();
    server_cli.addr = "127.0.0.1:0".to_string();
    let server = trustseq_service::Server::bind(service_config(&server_cli))
        .map_err(|e| format!("cannot bind the in-process server: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run());
    let result = trustseq_service::run_loadgen(&loadgen_config(cli, addr));
    handle.shutdown();
    let _ = serving.join();
    result.map_err(|e| format!("loadgen failed: {e}"))
}

/// Replays a recorded JSONL event journal: re-runs the header's spec under
/// the header's fault plan and config, verifies every event line
/// reproduces byte-for-byte (the fault plan is a pure function of its
/// seed, so any divergence means the journal is stale or tampered), and
/// re-checks the recorded verdict against the centralised reducer.
///
/// # Errors
///
/// Malformed journals, replay divergence, or a decided verdict
/// contradicting the centralised reduction.
pub fn run_journal_replay(journal_text: &str) -> Result<String, String> {
    let recorded = Journal::from_text(journal_text).map_err(|e| format!("bad journal: {e}"))?;
    let (plan_str, config_str, extended, spec_src) =
        recorded.header().map_err(|e| format!("bad journal: {e}"))?;
    let plan: FaultPlan = plan_str
        .parse()
        .map_err(|e| format!("bad journal fault plan: {e}"))?;
    let config =
        ResilientConfig::from_wire(&config_str).map_err(|e| format!("bad journal config: {e}"))?;
    let options = if extended {
        trustseq_core::BuildOptions::EXTENDED
    } else {
        trustseq_core::BuildOptions::PAPER
    };
    let spec = parse_spec(&spec_src).map_err(|e| format!("bad journal spec: {e}"))?;

    let mut replay = Journal::new();
    replay.record(JournalEvent::run_start(
        plan_str, config_str, extended, spec_src,
    ));
    let outcome = DistributedReduction::with_options(&spec, options)
        .map_err(|e| e.to_string())?
        .run_resilient_observed(&plan, &config, &mut replay)
        .map_err(|e| e.to_string())?;

    if recorded.lines() != replay.lines() {
        let diverged = recorded
            .lines()
            .iter()
            .zip(replay.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| recorded.lines().len().min(replay.lines().len()));
        return Err(format!(
            "replay diverged from the recorded journal at line {} (recorded {} lines, replay {}):\n  recorded: {}\n  replayed: {}",
            diverged + 1,
            recorded.lines().len(),
            replay.lines().len(),
            recorded.lines().get(diverged).map_or("<missing>", |l| l),
            replay.lines().get(diverged).map_or("<missing>", |l| l),
        ));
    }

    let central = trustseq_core::analyze_with(&spec, options).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay OK: {} events reproduced byte-for-byte",
        replay.lines().len()
    );
    let _ = writeln!(out, "{outcome}");
    match outcome.verdict.decided() {
        Some(feasible) if feasible == central.feasible => {
            let _ = writeln!(
                out,
                "verdict agrees with the centralised reducer ({})",
                if central.feasible {
                    "feasible"
                } else {
                    "infeasible"
                }
            );
        }
        Some(_) => {
            return Err(format!(
                "recorded verdict `{}` contradicts the centralised reducer",
                outcome.verdict
            ))
        }
        None => {
            let _ = writeln!(
                out,
                "run degraded to `{}`; centralised reducer says {}",
                outcome.verdict,
                if central.feasible {
                    "feasible"
                } else {
                    "infeasible"
                }
            );
        }
    }
    Ok(out)
}

/// How `--metrics` renders the recorded snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsFormat {
    /// Human-readable aligned table.
    #[default]
    Table,
    /// One flat JSON object.
    Json,
}

/// Runs `body` with a process-wide [`MetricsRegistry`] installed (when
/// `enable`) and appends the rendered snapshot to its output. The registry
/// is a single static so repeated invocations reuse it; it is reset on
/// entry and uninstalled on exit.
fn with_metrics(
    enable: bool,
    format: MetricsFormat,
    body: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    if !enable {
        return body();
    }
    static METRICS: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    let registry = METRICS.get_or_init(MetricsRegistry::new);
    registry.reset();
    obs::install(registry);
    let result = body();
    obs::uninstall();
    let snapshot = registry.snapshot();
    let mut out = result?;
    match format {
        MetricsFormat::Table => {
            let _ = writeln!(out, "metrics:");
            out.push_str(&snapshot.render_table());
        }
        MetricsFormat::Json => {
            let _ = writeln!(out, "{}", snapshot.render_json());
        }
    }
    Ok(out)
}

/// Entry point used by `main.rs`: parses argv, reads the file, dispatches.
///
/// # Errors
///
/// Usage or execution errors as strings (printed to stderr by the wrapper).
pub fn main_with_args(args: &[String]) -> Result<String, String> {
    let mut options = trustseq_core::BuildOptions::PAPER;
    let mut cache_stats = false;
    let mut metrics = false;
    let mut metrics_format = MetricsFormat::Table;
    let mut journal_path: Option<String> = None;
    let mut faults: Option<String> = None;
    let mut samples: Option<u64> = None;
    let mut stream: Option<usize> = None;
    let mut events: Option<u64> = None;
    let mut events_flag = false;
    let mut grow: Option<usize> = None;
    let mut mutation_rate: Option<f64> = None;
    let mut delta_mode = false;
    let mut full_mode = false;
    let mut net_path: Option<String> = None;
    let mut node_id: Option<String> = None;
    let mut transport: Option<TransportKind> = None;
    let mut out_path: Option<String> = None;
    let mut quick = false;
    let mut addr: Option<String> = None;
    let mut workers: Option<usize> = None;
    let mut structures: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut queue: Option<usize> = None;
    let mut quota: Option<f64> = None;
    let mut duration: Option<u64> = None;
    let mut clients: Option<usize> = None;
    let mut requests: Option<u64> = None;
    let mut spec_rate: Option<f64> = None;
    let mut window: Option<usize> = None;
    let mut in_process_serve = false;
    let mut bench_out: Option<String> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--extended" => options = trustseq_core::BuildOptions::EXTENDED,
            "--cache-stats" => cache_stats = true,
            "--samples" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--samples` expects a corpus size\n\n{USAGE}"))?;
                samples = Some(raw.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!(
                        "`--samples` expects a positive corpus size (got `{raw}`); \
                             omit the flag to sweep the default 1000-seed corpus\n\n{USAGE}"
                    )
                })?);
            }
            "--stream" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--stream` expects a chunk size\n\n{USAGE}"))?;
                stream = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!(
                                "`--stream` expects a positive chunk size, got `{raw}`\n\n{USAGE}"
                            )
                        })?,
                );
            }
            "--events" => {
                // `market --events N` takes a count; `loadgen --events` is
                // a bare mode toggle. Peek ahead and only consume the next
                // token when it looks like a count (starts with a digit),
                // leaving flags and command names in place.
                let mut peek = iter.clone();
                match peek.next() {
                    Some(raw) if raw.chars().next().is_some_and(|c| c.is_ascii_digit()) => {
                        events =
                            Some(raw.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                                format!(
                                    "`--events` expects a positive event count (got \
                                         `{raw}`); omit the count to stream the default \
                                         1000 events with `market`, or pass the bare flag \
                                         to put `loadgen` in event-stream mode\n\n{USAGE}"
                                )
                            })?);
                        iter = peek;
                    }
                    _ => events_flag = true,
                }
            }
            "--grow" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--grow` expects a structure count\n\n{USAGE}"))?;
                grow = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!(
                            "`--grow` expects a positive structure count, got `{raw}`\n\n{USAGE}"
                        )
                        })?,
                );
            }
            "--mutation-rate" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--mutation-rate` expects a probability\n\n{USAGE}"))?;
                mutation_rate = Some(
                    raw.parse::<f64>()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| {
                            format!(
                                "`--mutation-rate` expects a probability in [0, 1] \
                                 (got `{raw}`); omit the flag for the default 0.2\n\n{USAGE}"
                            )
                        })?,
                );
            }
            "--delta" => delta_mode = true,
            "--full" => full_mode = true,
            "--metrics" => metrics = true,
            "--metrics-format" => {
                let fmt = iter.next().ok_or_else(|| {
                    format!("`--metrics-format` expects `table` or `json`\n\n{USAGE}")
                })?;
                metrics_format = match fmt.as_str() {
                    "table" => MetricsFormat::Table,
                    "json" => MetricsFormat::Json,
                    other => {
                        return Err(format!(
                            "`--metrics-format` expects `table` or `json`, got `{other}`\n\n{USAGE}"
                        ))
                    }
                };
                metrics = true;
            }
            "--journal" => {
                journal_path = Some(
                    iter.next()
                        .ok_or_else(|| format!("`--journal` expects a file path\n\n{USAGE}"))?
                        .clone(),
                );
            }
            "--faults" => {
                faults = Some(
                    iter.next()
                        .ok_or_else(|| {
                            format!("`--faults` expects a fault-plan wire string\n\n{USAGE}")
                        })?
                        .clone(),
                );
            }
            "--net" => {
                net_path = Some(
                    iter.next()
                        .ok_or_else(|| {
                            format!("`--net` expects a network description file\n\n{USAGE}")
                        })?
                        .clone(),
                );
            }
            "--id" => {
                node_id = Some(
                    iter.next()
                        .ok_or_else(|| format!("`--id` expects an agent id like `a0`\n\n{USAGE}"))?
                        .clone(),
                );
            }
            "--transport" => {
                let kind = iter
                    .next()
                    .ok_or_else(|| format!("`--transport` expects `tcp` or `unix`\n\n{USAGE}"))?;
                transport = Some(match kind.as_str() {
                    "tcp" => TransportKind::Tcp,
                    "unix" => TransportKind::Unix,
                    other => {
                        return Err(format!(
                            "`--transport` expects `tcp` or `unix`, got `{other}`\n\n{USAGE}"
                        ))
                    }
                });
            }
            "--out" => {
                out_path = Some(
                    iter.next()
                        .ok_or_else(|| format!("`--out` expects a file path\n\n{USAGE}"))?
                        .clone(),
                );
            }
            "--quick" => quick = true,
            "--addr" => {
                addr = Some(
                    iter.next()
                        .ok_or_else(|| format!("`--addr` expects HOST:PORT\n\n{USAGE}"))?
                        .clone(),
                );
            }
            "--workers" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--workers` expects a worker count\n\n{USAGE}"))?;
                workers = Some(raw.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                    || format!("`--workers` expects a positive worker count, got `{raw}`\n\n{USAGE}"),
                )?);
            }
            "--structures" => {
                let raw = iter.next().ok_or_else(|| {
                    format!("`--structures` expects a population size\n\n{USAGE}")
                })?;
                structures = Some(raw.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                    || {
                        format!(
                            "`--structures` expects a positive population size, got `{raw}`\n\n{USAGE}"
                        )
                    },
                )?);
            }
            "--seed" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--seed` expects a seed\n\n{USAGE}"))?;
                seed = Some(raw.parse::<u64>().map_err(|_| {
                    format!("`--seed` expects an unsigned seed, got `{raw}`\n\n{USAGE}")
                })?);
            }
            "--queue" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--queue` expects a slot count\n\n{USAGE}"))?;
                queue = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!(
                                "`--queue` expects a positive slot count, got `{raw}`\n\n{USAGE}"
                            )
                        })?,
                );
            }
            "--quota" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--quota` expects requests/second\n\n{USAGE}"))?;
                quota = Some(
                    raw.parse::<f64>()
                        .ok()
                        .filter(|&r| r >= 0.0 && r.is_finite())
                        .ok_or_else(|| {
                            format!(
                                "`--quota` expects a finite, non-negative requests/second \
                             rate (0 disables quotas), got `{raw}`\n\n{USAGE}"
                            )
                        })?,
                );
            }
            "--duration" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--duration` expects seconds\n\n{USAGE}"))?;
                duration = Some(raw.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!(
                        "`--duration` expects a positive number of seconds, got `{raw}`\n\n{USAGE}"
                    )
                })?);
            }
            "--clients" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--clients` expects a client count\n\n{USAGE}"))?;
                clients = Some(raw.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                    || format!("`--clients` expects a positive client count, got `{raw}`\n\n{USAGE}"),
                )?);
            }
            "--requests" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--requests` expects a request count\n\n{USAGE}"))?;
                requests = Some(raw.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("`--requests` expects a positive request count, got `{raw}`\n\n{USAGE}")
                })?);
            }
            "--spec-rate" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--spec-rate` expects a probability\n\n{USAGE}"))?;
                spec_rate = Some(
                    raw.parse::<f64>()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| {
                            format!(
                                "`--spec-rate` expects a probability in [0, 1], got `{raw}`\n\n{USAGE}"
                            )
                        })?,
                );
            }
            "--window" => {
                let raw = iter
                    .next()
                    .ok_or_else(|| format!("`--window` expects a window size\n\n{USAGE}"))?;
                window = Some(
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!(
                                "`--window` expects a positive window size, got `{raw}`\n\n{USAGE}"
                            )
                        })?,
                );
            }
            "--serve" => in_process_serve = true,
            "--bench-out" => {
                bench_out = Some(
                    iter.next()
                        .ok_or_else(|| format!("`--bench-out` expects a file path\n\n{USAGE}"))?
                        .clone(),
                );
            }
            "--threads" => {
                let raw = iter.next().ok_or_else(|| {
                    format!("`--threads` expects a positive thread count\n\n{USAGE}")
                })?;
                let n = raw
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=trustseq_core::pool::MAX_WIDTH).contains(&n))
                    .ok_or_else(|| {
                        format!(
                            "`--threads` expects a thread count between 1 and {} (got `{raw}`); \
                             omit the flag to use the machine's available parallelism\n\n{USAGE}",
                            trustseq_core::pool::MAX_WIDTH
                        )
                    })?;
                trustseq_core::pool::set_size(n);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`\n\n{USAGE}"))
            }
            other => positional.push(other),
        }
    }
    if positional.as_slice() == ["sweep"] {
        if journal_path.is_some() || faults.is_some() {
            return Err(format!(
                "`--journal` and `--faults` apply to the `dist` command\n\n{USAGE}"
            ));
        }
        if events.is_some()
            || events_flag
            || mutation_rate.is_some()
            || delta_mode
            || full_mode
            || grow.is_some()
        {
            return Err(format!(
                "`--events`, `--mutation-rate`, `--grow`, `--delta` and `--full` \
                 apply to the `market` and `loadgen` commands\n\n{USAGE}"
            ));
        }
        let samples = samples.unwrap_or(1000);
        return with_metrics(metrics, metrics_format, || {
            if cache_stats {
                let cache = trustseq_core::AnalysisCache::new();
                let mut out = run_sweep(samples, stream, Some(&cache))?;
                let _ = writeln!(out, "cache: {}", cache.stats());
                Ok(out)
            } else {
                run_sweep(samples, stream, None)
            }
        });
    }
    if samples.is_some() || stream.is_some() {
        return Err(format!(
            "`--samples` and `--stream` apply to the `sweep` command\n\n{USAGE}"
        ));
    }
    if positional.as_slice() == ["market"] {
        if journal_path.is_some() || faults.is_some() {
            return Err(format!(
                "`--journal` and `--faults` apply to the `dist` command\n\n{USAGE}"
            ));
        }
        if grow.is_some() {
            return Err(format!(
                "`--grow` applies to the `loadgen` command (event-stream mode)\n\n{USAGE}"
            ));
        }
        if delta_mode && full_mode {
            return Err(format!(
                "`--delta` and `--full` are mutually exclusive; pick one \
                 maintenance mode (the default is `--delta`)\n\n{USAGE}"
            ));
        }
        let mode = if full_mode {
            trustseq_workloads::MarketMode::Full
        } else {
            trustseq_workloads::MarketMode::Delta
        };
        let events = events.unwrap_or(1000);
        let mutation_rate = mutation_rate.unwrap_or(0.2);
        return with_metrics(metrics, metrics_format, || {
            if cache_stats {
                let cache = trustseq_core::AnalysisCache::new();
                let mut out = run_market_cmd(events, mutation_rate, mode, Some(&cache))?;
                let _ = writeln!(out, "cache: {}", cache.stats());
                Ok(out)
            } else {
                run_market_cmd(events, mutation_rate, mode, None)
            }
        });
    }
    let mut service_cli = ServiceCliConfig::default();
    if let Some(v) = &addr {
        service_cli.addr = v.clone();
    }
    if let Some(v) = workers {
        service_cli.workers = v;
    }
    if let Some(v) = structures {
        service_cli.structures = v;
    }
    if let Some(v) = seed {
        service_cli.seed = v;
    }
    if let Some(v) = queue {
        service_cli.queue = v;
    }
    if let Some(v) = quota {
        service_cli.quota = v;
    }
    if let Some(v) = clients {
        service_cli.clients = v;
    }
    if let Some(v) = requests {
        service_cli.requests = v;
    }
    if let Some(v) = mutation_rate {
        service_cli.mutation_rate = v;
    }
    if let Some(v) = spec_rate {
        service_cli.spec_rate = v;
    }
    if let Some(v) = window {
        service_cli.window = v;
    }

    if positional.as_slice() == ["serve"] {
        if clients.is_some()
            || requests.is_some()
            || spec_rate.is_some()
            || window.is_some()
            || in_process_serve
            || bench_out.is_some()
            || quick
            || grow.is_some()
        {
            return Err(format!(
                "`--clients`, `--requests`, `--spec-rate`, `--window`, `--serve`, \
                 `--bench-out`, `--quick` and `--grow` apply to the `loadgen` \
                 command\n\n{USAGE}"
            ));
        }
        if events.is_some() || events_flag || mutation_rate.is_some() || delta_mode || full_mode {
            return Err(format!(
                "`--events`, `--mutation-rate`, `--delta` and `--full` apply to \
                 the `market` and `loadgen` commands\n\n{USAGE}"
            ));
        }
        return with_metrics(metrics, metrics_format, || {
            run_serve_cmd(&service_cli, duration)
        });
    }
    if positional.as_slice() == ["loadgen"] {
        if workers.is_some() || queue.is_some() || quota.is_some() || duration.is_some() {
            return Err(format!(
                "`--workers`, `--queue`, `--quota` and `--duration` apply to the \
                 `serve` command (the in-process `--serve`/`--bench-out` servers \
                 use their defaults)\n\n{USAGE}"
            ));
        }
        if delta_mode || full_mode {
            return Err(format!(
                "`--delta` and `--full` apply to the `market` command\n\n{USAGE}"
            ));
        }
        if events.is_some() {
            return Err(format!(
                "`--events` takes no count with `loadgen` (the run length is \
                 `--requests`); pass the bare flag to enable event-stream mode\n\n{USAGE}"
            ));
        }
        service_cli.events = events_flag;
        if let Some(g) = grow {
            if !events_flag {
                return Err(format!(
                    "`--grow` needs `--events`: grown structures are admitted hot \
                     by event-stream `post` frames\n\n{USAGE}"
                ));
            }
            service_cli.grow = g;
        }
        if quick {
            service_cli.requests = requests.unwrap_or(40_000);
            service_cli.clients = clients.unwrap_or(2);
        }
        if let Some(out_file) = bench_out {
            if addr.is_some() {
                return Err(format!(
                    "`--bench-out` always benches an in-process server; \
                     `--addr` does not apply\n\n{USAGE}"
                ));
            }
            if events_flag {
                return with_metrics(metrics, metrics_format, || {
                    run_events_bench(&service_cli, quick, &out_file)
                });
            }
            return with_metrics(metrics, metrics_format, || {
                run_service_bench(&service_cli, quick, &out_file)
            });
        }
        let in_process = in_process_serve || addr.is_none();
        return with_metrics(metrics, metrics_format, || {
            run_loadgen_cmd(&service_cli, in_process)
        });
    }
    let service_flags_used = addr.is_some()
        || workers.is_some()
        || structures.is_some()
        || seed.is_some()
        || queue.is_some()
        || quota.is_some()
        || duration.is_some()
        || clients.is_some()
        || requests.is_some()
        || spec_rate.is_some()
        || window.is_some()
        || in_process_serve
        || bench_out.is_some()
        || grow.is_some();
    if service_flags_used {
        return Err(format!(
            "`--addr`, `--workers`, `--structures`, `--seed`, `--queue`, `--quota`, \
             `--duration`, `--clients`, `--requests`, `--spec-rate`, `--window`, \
             `--grow`, `--serve` and `--bench-out` apply to the `serve` and \
             `loadgen` commands\n\n{USAGE}"
        ));
    }
    if events.is_some() || events_flag || mutation_rate.is_some() || delta_mode || full_mode {
        return Err(format!(
            "`--events`, `--mutation-rate`, `--delta` and `--full` apply to \
             the `market` and `loadgen` commands\n\n{USAGE}"
        ));
    }
    if positional.as_slice() == ["chaos-sockets"] {
        if journal_path.is_some() || faults.is_some() {
            return Err(format!(
                "`--journal` and `--faults` apply to the `dist` command family\n\n{USAGE}"
            ));
        }
        let binary = std::env::current_exe()
            .map_err(|e| format!("cannot locate the trustseq binary: {e}"))?;
        let report = orchestrate::socket_chaos_matrix(&binary, quick)?;
        let json = report.to_json();
        let out_file = out_path.as_deref().unwrap_or("BENCH_sockets.json");
        std::fs::write(out_file, &json).map_err(|e| format!("cannot write `{out_file}`: {e}"))?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chaos matrix: {} runs ({} decided correct, {} undecided, {} wrong verdicts, {} hung processes)",
            report.runs.len(),
            report.decided_correct,
            report.undecided,
            report.wrong,
            report.hung_total
        );
        let _ = writeln!(out, "report written to {out_file}");
        if !report.clean() {
            return Err(format!(
                "{out}matrix NOT clean: wrong verdicts or hung processes detected"
            ));
        }
        return Ok(out);
    }
    let (cmd_name, path) = match positional.as_slice() {
        [c, p] => (*c, *p),
        _ => return Err(USAGE.to_owned()),
    };

    if cmd_name == "journal-replay" {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        return with_metrics(metrics, metrics_format, || run_journal_replay(&text));
    }

    if cmd_name == "dist" {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let plan = match &faults {
            Some(wire) => wire
                .parse::<FaultPlan>()
                .map_err(|e| format!("bad `--faults` plan: {e}\n\n{USAGE}"))?,
            None => FaultPlan::none(),
        };
        let config = ResilientConfig::default();
        return with_metrics(metrics, metrics_format, || {
            let (out, journal) =
                run_dist(&source, options, &plan, &config, journal_path.is_some())?;
            if let (Some(path), Some(text)) = (&journal_path, journal) {
                std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            }
            Ok(out)
        });
    }

    if cmd_name == "dist-node" {
        let net_file =
            net_path.ok_or_else(|| format!("`dist-node` requires `--net <NET.txt>`\n\n{USAGE}"))?;
        let id =
            node_id.ok_or_else(|| format!("`dist-node` requires `--id <AGENT>`\n\n{USAGE}"))?;
        let net_text = std::fs::read_to_string(&net_file)
            .map_err(|e| format!("cannot read `{net_file}`: {e}"))?;
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let plan = match &faults {
            Some(wire) => wire
                .parse::<FaultPlan>()
                .map_err(|e| format!("bad `--faults` plan: {e}\n\n{USAGE}"))?,
            None => FaultPlan::none(),
        };
        return run_dist_node(&net_text, &id, &source, &plan);
    }

    if cmd_name == "dist-run" {
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let plan = match &faults {
            Some(wire) => wire
                .parse::<FaultPlan>()
                .map_err(|e| format!("bad `--faults` plan: {e}\n\n{USAGE}"))?,
            None => FaultPlan::none(),
        };
        let binary = std::env::current_exe()
            .map_err(|e| format!("cannot locate the trustseq binary: {e}"))?;
        let kind = transport.unwrap_or(TransportKind::Tcp);
        return with_metrics(metrics, metrics_format, || {
            let (out, journal) =
                run_dist_sockets(&binary, &source, kind, &plan, journal_path.is_some())?;
            if let (Some(path), Some(text)) = (&journal_path, journal) {
                std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            }
            Ok(out)
        });
    }

    if net_path.is_some() || node_id.is_some() {
        return Err(format!(
            "`--net` and `--id` apply to the `dist-node` command\n\n{USAGE}"
        ));
    }
    if transport.is_some() {
        return Err(format!(
            "`--transport` applies to the `dist-run` command\n\n{USAGE}"
        ));
    }
    if out_path.is_some() || quick {
        return Err(format!(
            "`--out` and `--quick` apply to the `chaos-sockets` command\n\n{USAGE}"
        ));
    }
    if journal_path.is_some() || faults.is_some() {
        return Err(format!(
            "`--journal` and `--faults` apply to the `dist` command\n\n{USAGE}"
        ));
    }
    let command = Command::parse(cmd_name)
        .ok_or_else(|| format!("unknown command `{cmd_name}`\n\n{USAGE}"))?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    with_metrics(metrics, metrics_format, || {
        if cache_stats {
            let cache = trustseq_core::AnalysisCache::new();
            let mut out = run_with_cache(command.clone(), &source, options, &cache)?;
            let _ = writeln!(out, "cache: {}", cache.stats());
            Ok(out)
        } else {
            run_with(command.clone(), &source, options)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE1: &str = r#"
        exchange "example1" {
            consumer c; broker b; producer p;
            trusted t1; trusted t2;
            item doc "The Document";
            deal sale:   b sells doc to c for $100.00 via t1;
            deal supply: p sells doc to b for $80.00  via t2;
            secure sale before supply;
        }
    "#;

    const EXAMPLE2: &str = r#"
        exchange "example2" {
            consumer c; broker b1; broker b2; producer s1; producer s2;
            trusted t1; trusted t2; trusted t3; trusted t4;
            item d1 "Doc 1"; item d2 "Doc 2";
            deal sale1:   b1 sells d1 to c  for $10.00 via t1;
            deal supply1: s1 sells d1 to b1 for $8.00  via t2;
            deal sale2:   b2 sells d2 to c  for $20.00 via t3;
            deal supply2: s2 sells d2 to b2 for $16.00 via t4;
            secure sale1 before supply1;
            secure sale2 before supply2;
        }
    "#;

    #[test]
    fn command_parsing() {
        assert_eq!(Command::parse("check"), Some(Command::Check));
        assert_eq!(Command::parse("sequence"), Some(Command::Sequence));
        assert_eq!(Command::parse("bogus"), None);
    }

    #[test]
    fn check_reports_feasibility() {
        let out = run(Command::Check, EXAMPLE1).unwrap();
        assert!(out.contains("feasible"));
        let out = run(Command::Check, EXAMPLE2).unwrap();
        assert!(out.contains("infeasible"));
        // Infeasible output includes the impasse graph.
        assert!(out.contains("edges live"));
    }

    #[test]
    fn sequence_prints_ten_steps() {
        let out = run(Command::Sequence, EXAMPLE1).unwrap();
        assert_eq!(out.lines().count(), 10);
        assert!(out.contains("p sends doc to t2"));
    }

    #[test]
    fn sequence_fails_on_infeasible_spec() {
        let err = run(Command::Sequence, EXAMPLE2).unwrap_err();
        assert!(err.contains("not feasible"));
    }

    #[test]
    fn protocol_groups_by_agent() {
        let out = run(Command::Protocol, EXAMPLE1).unwrap();
        assert!(out.contains("b:"));
        assert!(out.contains("t1:"));
        assert!(out.contains("[step"));
    }

    #[test]
    fn dot_renders_both_graphs() {
        let out = run(Command::Dot, EXAMPLE1).unwrap();
        assert!(out.contains("graph interaction"));
        assert!(out.contains("graph sequencing"));
    }

    #[test]
    fn simulate_sweeps_defections() {
        let out = run(Command::Simulate, EXAMPLE1).unwrap();
        assert!(out.contains("safety OK"));
        assert!(out.contains("16 runs, 0 violations"));
    }

    #[test]
    fn cost_prints_the_table() {
        let out = run(Command::Cost, EXAMPLE1).unwrap();
        assert!(out.contains("escrowed: 10"));
    }

    #[test]
    fn indemnify_plans_collateral() {
        let out = run(Command::Indemnify, EXAMPLE2).unwrap();
        assert!(out.contains("indemnity plan"));
        assert!(out.contains("exchange is now feasible"));
        let out = run(Command::Indemnify, EXAMPLE1).unwrap();
        assert!(out.contains("already feasible"));
    }

    #[test]
    fn advise_lists_unlocking_options() {
        let out = run(Command::Advise, EXAMPLE2).unwrap();
        assert!(out.contains("s1 trusts b1"));
        assert!(out.contains("s2 trusts b2"));
        assert!(out.contains("indemnity plan"));
        let out = run(Command::Advise, EXAMPLE1).unwrap();
        assert!(out.contains("already feasible"));
    }

    #[test]
    fn cached_run_matches_uncached_and_records_hits() {
        let cache = trustseq_core::AnalysisCache::new();
        for command in [Command::Check, Command::Advise, Command::Indemnify] {
            for source in [EXAMPLE1, EXAMPLE2] {
                let plain = run(command.clone(), source).unwrap();
                let cached = run_with_cache(
                    command.clone(),
                    source,
                    trustseq_core::BuildOptions::PAPER,
                    &cache,
                )
                .unwrap();
                assert_eq!(plain, cached);
            }
        }
        // Advising EXAMPLE2 probes two isomorphic trust candidates, and the
        // three commands revisit the same structures — hits are guaranteed.
        let stats = cache.stats();
        assert!(stats.hits > 0, "{stats}");
        assert!(stats.entries as u64 <= stats.misses);
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = run(Command::Check, "exchange {").unwrap_err();
        assert!(err.contains("parse error"));
    }

    #[test]
    fn main_with_args_usage() {
        assert!(main_with_args(&[]).unwrap_err().contains("USAGE"));
        assert!(main_with_args(&["bogus".into(), "x".into()])
            .unwrap_err()
            .contains("unknown command"));
        assert!(
            main_with_args(&["check".into(), "/nonexistent.tseq".into()])
                .unwrap_err()
                .contains("cannot read")
        );
    }

    #[test]
    fn dist_runs_and_journal_replays() {
        let plan = FaultPlan::seeded(7)
            .with_drop_per_mille(200)
            .with_dup_per_mille(100)
            .with_corrupt_per_mille(100)
            .with_max_extra_delay(2);
        let config = ResilientConfig::default();
        let (out, journal) = run_dist(
            EXAMPLE1,
            trustseq_core::BuildOptions::PAPER,
            &plan,
            &config,
            true,
        )
        .unwrap();
        assert!(out.contains("feasible"), "{out}");
        assert!(out.contains("journal:"), "{out}");
        let journal = journal.unwrap();
        assert!(journal.starts_with("{\"type\":\"run_start\""), "{journal}");

        let replay = run_journal_replay(&journal).unwrap();
        assert!(replay.contains("replay OK"), "{replay}");
        assert!(
            replay.contains("agrees with the centralised reducer"),
            "{replay}"
        );
    }

    #[test]
    fn tampered_journals_fail_replay() {
        let (_, journal) = run_dist(
            EXAMPLE1,
            trustseq_core::BuildOptions::PAPER,
            &FaultPlan::seeded(3).with_drop_per_mille(200),
            &ResilientConfig::default(),
            true,
        )
        .unwrap();
        let journal = journal.unwrap();
        // Re-date one removal: still valid JSON, but not what the seeded
        // re-run produces.
        let tampered = journal.replacen(
            "\"type\":\"removal\",\"round\":",
            "\"type\":\"removal\",\"round\":9",
            1,
        );
        assert_ne!(tampered, journal);
        let err = run_journal_replay(&tampered).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
        // Garbage is a typed parse error, not a panic.
        let err = run_journal_replay("not json\n").unwrap_err();
        assert!(err.contains("bad journal"), "{err}");
    }

    #[test]
    fn dist_without_journal_matches_the_resilient_engine() {
        let (out, journal) = run_dist(
            EXAMPLE2,
            trustseq_core::BuildOptions::PAPER,
            &FaultPlan::none(),
            &ResilientConfig::default(),
            false,
        )
        .unwrap();
        assert!(out.contains("infeasible"), "{out}");
        assert!(journal.is_none());
    }

    #[test]
    fn metrics_flags_are_parsed_and_validated() {
        // --metrics-format validates its argument up front.
        let err = main_with_args(&[
            "--metrics-format".into(),
            "bogus".into(),
            "check".into(),
            "x".into(),
        ])
        .unwrap_err();
        assert!(err.contains("--metrics-format"), "{err}");
        // --journal/--faults are dist-only.
        let err = main_with_args(&[
            "--journal".into(),
            "/tmp/j.jsonl".into(),
            "check".into(),
            "x".into(),
        ])
        .unwrap_err();
        assert!(err.contains("apply to the `dist` command"), "{err}");
        // A metrics run appends the snapshot to the command output.
        let out =
            with_metrics(true, MetricsFormat::Table, || run(Command::Check, EXAMPLE1)).unwrap();
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("reduce.runs"), "{out}");
        let out =
            with_metrics(true, MetricsFormat::Json, || run(Command::Check, EXAMPLE1)).unwrap();
        assert!(out.contains("\"reduce.runs\""), "{out}");
    }

    #[test]
    fn sweep_command_streams_and_materializes_identically() {
        // Materialized and streaming sweeps report the same rate.
        let full = main_with_args(&["sweep".into(), "--samples".into(), "30".into()]).unwrap();
        assert!(full.contains("30 samples"), "{full}");
        assert!(full.contains("feasibility rate"), "{full}");
        let streamed = main_with_args(&[
            "sweep".into(),
            "--samples".into(),
            "30".into(),
            "--stream".into(),
            "7".into(),
        ])
        .unwrap();
        assert!(streamed.contains("5 chunks"), "{streamed}");
        assert!(streamed.contains("at most 7 resident"), "{streamed}");
        let rate_of = |out: &str| out.lines().next().unwrap().to_owned();
        assert_eq!(rate_of(&full), rate_of(&streamed));
        // --cache-stats composes with sweep.
        let cached = main_with_args(&[
            "sweep".into(),
            "--samples".into(),
            "30".into(),
            "--cache-stats".into(),
        ])
        .unwrap();
        assert_eq!(rate_of(&full), rate_of(&cached));
        assert!(cached.contains("cache:"), "{cached}");
    }

    #[test]
    fn sweep_flags_are_validated() {
        // --samples/--stream are sweep-only.
        let err = main_with_args(&["--samples".into(), "10".into(), "check".into(), "x".into()])
            .unwrap_err();
        assert!(err.contains("apply to the `sweep` command"), "{err}");
        // Malformed or missing values are rejected up front.
        for bad in [
            vec!["sweep".to_owned(), "--samples".to_owned()],
            vec![
                "sweep".to_owned(),
                "--samples".to_owned(),
                "many".to_owned(),
            ],
            vec!["sweep".to_owned(), "--stream".to_owned(), "0".to_owned()],
        ] {
            let err = main_with_args(&bad).unwrap_err();
            assert!(err.contains("expects"), "{err}");
        }
        // --journal/--faults stay dist-only even for sweep.
        let err =
            main_with_args(&["sweep".into(), "--faults".into(), "seed=1".into()]).unwrap_err();
        assert!(err.contains("apply to the `dist` command"), "{err}");
    }

    #[test]
    fn market_command_reports_and_modes_agree() {
        let delta = main_with_args(&[
            "market".into(),
            "--events".into(),
            "120".into(),
            "--mutation-rate".into(),
            "0.5".into(),
            "--delta".into(),
        ])
        .unwrap();
        assert!(delta.contains("120 events"), "{delta}");
        assert!(delta.contains("delta mode"), "{delta}");
        assert!(delta.contains("verdict hash:"), "{delta}");
        let full = main_with_args(&[
            "market".into(),
            "--events".into(),
            "120".into(),
            "--mutation-rate".into(),
            "0.5".into(),
            "--full".into(),
        ])
        .unwrap();
        assert!(full.contains("full mode"), "{full}");
        // The two modes must agree on every verdict, event by event.
        let hash_of = |out: &str| {
            out.lines()
                .find(|l| l.contains("verdict hash:"))
                .unwrap()
                .to_owned()
        };
        assert_eq!(hash_of(&delta), hash_of(&full));
        // --cache-stats cross-checks against the canonicalizing cache and
        // reports the invalidation traffic.
        let cached = main_with_args(&[
            "market".into(),
            "--events".into(),
            "120".into(),
            "--mutation-rate".into(),
            "0.5".into(),
            "--cache-stats".into(),
        ])
        .unwrap();
        assert_eq!(hash_of(&delta), hash_of(&cached));
        assert!(cached.contains("cache:"), "{cached}");
    }

    #[test]
    fn market_flags_are_validated() {
        // --events/--mutation-rate/--delta/--full stay scoped to the
        // market/loadgen family, in both the counted and bare forms.
        let err = main_with_args(&["--events".into(), "10".into(), "check".into(), "x".into()])
            .unwrap_err();
        assert!(
            err.contains("apply to the `market` and `loadgen` commands"),
            "{err}"
        );
        let err = main_with_args(&["--events".into(), "check".into(), "x".into()]).unwrap_err();
        assert!(
            err.contains("apply to the `market` and `loadgen` commands"),
            "{err}"
        );
        let err = main_with_args(&["sweep".into(), "--delta".into()]).unwrap_err();
        assert!(
            err.contains("apply to the `market` and `loadgen` commands"),
            "{err}"
        );
        // The two maintenance modes cannot be combined.
        let err =
            main_with_args(&["market".into(), "--delta".into(), "--full".into()]).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        // Malformed or missing values are rejected up front with the
        // typed-error shape: expected, got, and how to get the default.
        let err = main_with_args(&["market".into(), "--events".into(), "0".into()]).unwrap_err();
        assert!(err.contains("positive event count"), "{err}");
        assert!(err.contains("got `0`"), "{err}");
        assert!(err.contains("omit the count"), "{err}");
        for bad in ["1.5", "-0.1", "lots"] {
            let err = main_with_args(&["market".into(), "--mutation-rate".into(), bad.into()])
                .unwrap_err();
            assert!(err.contains("probability in [0, 1]"), "{err}");
            assert!(err.contains(&format!("got `{bad}`")), "{err}");
        }
        // --samples stays sweep-only even for market.
        let err = main_with_args(&["market".into(), "--samples".into(), "10".into()]).unwrap_err();
        assert!(err.contains("apply to the `sweep` command"), "{err}");
    }

    #[test]
    fn samples_rejects_non_positive_counts() {
        // `--samples 0` is rejected up front with the same typed-error
        // shape as `--threads`: what was expected, what arrived, and how
        // to get the default behaviour instead.
        let err = main_with_args(&["sweep".into(), "--samples".into(), "0".into()]).unwrap_err();
        assert!(err.contains("positive corpus size"), "{err}");
        assert!(err.contains("got `0`"), "{err}");
        assert!(err.contains("omit the flag"), "{err}");
        // Negative numbers fail u64 parsing and land on the same message.
        let err = main_with_args(&["sweep".into(), "--samples".into(), "-3".into()]).unwrap_err();
        assert!(err.contains("positive corpus size"), "{err}");
    }

    #[test]
    fn socket_flags_are_validated() {
        // --net/--id are dist-node-only.
        let err = main_with_args(&["--net".into(), "n.txt".into(), "check".into(), "x".into()])
            .unwrap_err();
        assert!(err.contains("apply to the `dist-node` command"), "{err}");
        // --transport is dist-run-only and validates its value.
        let err = main_with_args(&["--transport".into(), "carrier-pigeon".into()]).unwrap_err();
        assert!(err.contains("`tcp` or `unix`"), "{err}");
        let err = main_with_args(&[
            "--transport".into(),
            "tcp".into(),
            "check".into(),
            "x".into(),
        ])
        .unwrap_err();
        assert!(err.contains("applies to the `dist-run` command"), "{err}");
        // --out/--quick are chaos-sockets-only.
        let err = main_with_args(&["--quick".into(), "check".into(), "x".into()]).unwrap_err();
        assert!(
            err.contains("apply to the `chaos-sockets` command"),
            "{err}"
        );
        // dist-node demands its required flags.
        let err = main_with_args(&["dist-node".into(), "x.tseq".into()]).unwrap_err();
        assert!(err.contains("requires `--net"), "{err}");
        let err = main_with_args(&[
            "dist-node".into(),
            "--net".into(),
            "n".into(),
            "x.tseq".into(),
        ])
        .unwrap_err();
        assert!(err.contains("requires `--id"), "{err}");
        // Agent ids must look like `a0`.
        assert!(parse_agent_id("a3").is_ok());
        assert!(parse_agent_id("3").is_err());
        assert!(parse_agent_id("e1").is_err());
        assert!(parse_agent_id("a").is_err());
    }

    #[test]
    fn threads_flag_is_parsed_and_validated() {
        // A valid count is consumed (two tokens) and the rest dispatches.
        let err = main_with_args(&[
            "--threads".into(),
            "2".into(),
            "check".into(),
            "/nonexistent.tseq".into(),
        ])
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // Missing or malformed counts are rejected up front.
        for bad in [
            vec!["--threads".to_owned()],
            vec!["--threads".to_owned(), "zero".to_owned()],
        ] {
            let err = main_with_args(&bad).unwrap_err();
            assert!(err.contains("--threads"), "{err}");
        }
        let err = main_with_args(&["--threads".into(), "0".into(), "check".into(), "x".into()])
            .unwrap_err();
        assert!(err.contains("--threads"), "{err}");
        // Absurd widths are rejected up front with the valid range and the
        // available-parallelism fallback, instead of spawning a thread army.
        let absurd = (trustseq_core::pool::MAX_WIDTH + 1).to_string();
        let err =
            main_with_args(&["--threads".into(), absurd, "check".into(), "x".into()]).unwrap_err();
        assert!(err.contains("between 1 and"), "{err}");
        assert!(err.contains("available parallelism"), "{err}");
    }
}
