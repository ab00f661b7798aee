//! The `trustseq` command-line tool: analyse, synthesise, render, simulate
//! and cost exchange specifications written in the specification language.
//!
//! Kept as a library module so the logic is unit- and integration-testable;
//! `main.rs` is a thin wrapper. Every command is declared once in
//! `COMMANDS` and every flag once in `FLAGS`: one parser reads argv
//! against them and rejects any flag the command does not read before
//! anything runs, and [`USAGE`] is rendered from them.

use std::fmt::{self, Write as _};
use std::sync::LazyLock;
use trustseq_baselines::cost_of_mistrust;
use trustseq_core::indemnity::{make_feasible_cached, IndemnityPlan};
use trustseq_core::obs::{self, MetricsRegistry};
use trustseq_core::{dot, AnalysisCache, BuildOptions, Protocol, SequencingGraph};
use trustseq_dist::{
    run_node, Addr, DistributedReduction, FaultPlan, Journal, JournalEvent, NetworkDescription,
    ResilientConfig, RunObserver as _, SocketOutcome, SuperviseConfig,
};
use trustseq_lang::parse_spec;
use trustseq_model::{AgentId, ExchangeSpec};
use trustseq_service::{LoadgenConfig, LoadgenReport, ServiceConfig};
use trustseq_workloads::{MarketConfig, MarketMode};

use crate::orchestrate::{self, TransportKind};
use trustseq_sim::BehaviorMap;

/// A participant's name, or its raw id when the spec does not know it.
fn participant_name(spec: &ExchangeSpec, a: AgentId) -> String {
    spec.participant(a)
        .map(|p| p.name().to_owned())
        .unwrap_or_else(|_| format!("{a}"))
}

/// Renders an indemnity plan with participant names instead of raw ids.
fn render_plan(out: &mut String, spec: &ExchangeSpec, plan: &IndemnityPlan) {
    let name = |a| participant_name(spec, a);
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
        COMMANDS.iter().find_map(|c| match &c.run {
            Run::Spec(command) if c.name() == name => Some(command.clone()),
            _ => None,
        })
    }
}

/// How a command runs.
enum Run {
    /// One of the eight commands that [`run`] a spec file.
    Spec(Command),
    Other(fn(&Invocation) -> Result<String, String>),
}

/// One command: its name and positional argument, e.g.
/// `check <SPEC.tseq>`, its help line, and how it runs.
struct CommandSpec {
    usage: &'static str,
    help: &'static str,
    run: Run,
}

/// One flag: its name and value placeholder, e.g. `--workers N`, the
/// commands that read it (every other command rejects it), how its value
/// is read and stored, what leaving it out means, and its help line.
struct Flag {
    usage: &'static str,
    scope: Scope,
    kind: Kind,
    default: &'static str,
    help: &'static str,
}

/// The name is the usage text's first word; the rest is the argument.
fn split_usage(usage: &'static str) -> (&'static str, &'static str) {
    usage.split_once(' ').unwrap_or((usage, ""))
}

impl CommandSpec {
    fn name(&self) -> &'static str {
        split_usage(self.usage).0
    }
}

/// Every command, in usage order.
static COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        usage: "check <SPEC.tseq>",
        help: "decide feasibility (sequencing-graph reduction, §4)",
        run: Run::Spec(Command::Check),
    },
    CommandSpec {
        usage: "sequence <SPEC.tseq>",
        help: "print the synthesised execution sequence (§5)",
        run: Run::Spec(Command::Sequence),
    },
    CommandSpec {
        usage: "protocol <SPEC.tseq>",
        help: "print per-agent protocol instructions",
        run: Run::Spec(Command::Protocol),
    },
    CommandSpec {
        usage: "dot <SPEC.tseq>",
        help: "print Graphviz DOT for the interaction and sequencing graphs",
        run: Run::Spec(Command::Dot),
    },
    CommandSpec {
        usage: "simulate <SPEC.tseq>",
        help: "run the protocol honestly, then sweep every defection pattern",
        run: Run::Spec(Command::Simulate),
    },
    CommandSpec {
        usage: "cost <SPEC.tseq>",
        help: "print the §8 cost-of-mistrust table",
        run: Run::Spec(Command::Cost),
    },
    CommandSpec {
        usage: "indemnify <SPEC.tseq>",
        help: "plan minimal indemnities that make the exchange feasible (§6)",
        run: Run::Spec(Command::Indemnify),
    },
    CommandSpec {
        usage: "advise <SPEC.tseq>",
        help: "list every unlocking option: trust edges (§4.2.3), indemnities (§6), \
               shared-escrow delegation (§9)",
        run: Run::Spec(Command::Advise),
    },
    CommandSpec {
        usage: "dist <SPEC.tseq>",
        help: "run the fault-tolerant distributed reduction (§9) under a seeded fault \
               plan; optionally record an event journal",
        run: Run::Other(cmd_dist),
    },
    CommandSpec {
        usage: "dist-run <SPEC.tseq>",
        help: "run the distributed reduction as one OS process per principal over \
               live loopback sockets, supervised from this process",
        run: Run::Other(cmd_dist_run),
    },
    CommandSpec {
        usage: "dist-node <SPEC.tseq>",
        help: "run a single principal's node against a network description (spawned \
               by `dist-run`; usable manually)",
        run: Run::Other(cmd_dist_node),
    },
    CommandSpec {
        usage: "chaos-sockets",
        help: "run the multi-process chaos matrix (fault classes x fixtures x seeds) \
               and write the agreement report",
        run: Run::Other(cmd_chaos_sockets),
    },
    CommandSpec {
        usage: "journal-replay <JOURNAL.jsonl>",
        help: "re-run a recorded journal and verify it reproduces byte-for-byte, then \
               re-check the verdict centrally",
        run: Run::Other(|inv| run_journal_replay(&read(&inv.path)?)),
    },
    CommandSpec {
        usage: "sweep",
        help: "feasibility rate of a seeded random exchange corpus at five trust densities",
        run: Run::Other(|inv| run_sweep(inv.samples, inv.stream, inv.cache.as_ref())),
    },
    CommandSpec {
        usage: "market",
        help: "stream a live marketplace: post/accept/cancel/expire events over a \
               population of structures, re-certifying after every event",
        run: Run::Other(cmd_market),
    },
    CommandSpec {
        usage: "serve",
        help: "run the always-on analysis service: resident structures behind \
               length-prefixed framing, admission control (quotas, bounded queue, \
               write deadlines), graceful drain",
        run: Run::Other(cmd_serve),
    },
    CommandSpec {
        usage: "loadgen",
        help: "hammer a running `serve` with pipelined clients and verify every \
               verdict against a centralised replay, or run the committed benchmark",
        run: Run::Other(cmd_loadgen),
    },
];

/// The commands that read a flag, as space-separated command names.
#[derive(Clone, Copy)]
enum Scope {
    Only(&'static str),
    AllBut(&'static str),
}

impl Scope {
    fn includes(self, command: &str) -> bool {
        match self {
            Only(names) => names.split(' ').any(|n| n == command),
            AllBut(names) => !names.split(' ').any(|n| n == command),
        }
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Only(names) => write!(f, "{}", names.replace(' ', ", ")),
            AllBut("") => write!(f, "every command"),
            AllBut(names) => write!(f, "every command but {}", names.replace(' ', ", ")),
        }
    }
}

/// How a flag's value is read, with the setter that stores it.
#[derive(Clone, Copy)]
enum Kind {
    Switch(fn(&mut Invocation)),
    /// An integer in `1..=max`; `noun` says what it counts.
    Count {
        noun: &'static str,
        max: usize,
        set: fn(&mut Invocation, usize),
    },
    /// A positive count, consumed only when the next token starts with a
    /// digit, so the flag also works bare (`None`).
    OptionalCount(&'static str, fn(&mut Invocation, Option<usize>)),
    Probability(fn(&mut Invocation, f64)),
    /// A finite, non-negative rate.
    Rate(fn(&mut Invocation, f64)),
    Seed(fn(&mut Invocation, u64)),
    /// A path or an address.
    Text(fn(&mut Invocation, String)),
    Plan(fn(&mut Invocation, FaultPlan)),
    /// One of a fixed set of words; the setter gets the word's index.
    Choice(&'static [&'static str], fn(&mut Invocation, usize)),
}

use Kind::{Choice, Count, OptionalCount, Plan, Probability, Rate, Seed, Switch, Text};
use Scope::{AllBut, Only};

/// A positive count without an upper bound.
const fn count(noun: &'static str, set: fn(&mut Invocation, usize)) -> Kind {
    Count {
        noun,
        max: usize::MAX,
        set,
    }
}

const NO_METRICS: &str = "dist-node chaos-sockets";

/// Every flag, in usage order.
static FLAGS: &[Flag] = &[
    Flag {
        usage: "--extended",
        scope: Only("check sequence protocol dot simulate dist"),
        kind: Switch(|a| a.options = BuildOptions::EXTENDED),
        default: "",
        help: "enable the §9 shared-escrow delegation semantics (multi-party trusted agents)",
    },
    Flag {
        usage: "--cache-stats",
        scope: Only("check sequence protocol dot simulate cost indemnify advise sweep market"),
        kind: Switch(|a| a.cache = Some(AnalysisCache::new())),
        default: "",
        help: "route feasibility analyses through a memoized cache; print its hit/miss statistics",
    },
    Flag {
        usage: "--threads N",
        scope: AllBut(""),
        kind: Count {
            noun: "thread count",
            max: trustseq_core::pool::MAX_WIDTH,
            set: |a, n| a.threads = Some(n),
        },
        default: "the machine's available parallelism",
        help: "worker threads for sweep fan-out (defection sweeps, batch analysis)",
    },
    Flag {
        usage: "--metrics",
        scope: AllBut(NO_METRICS),
        kind: Switch(|a| a.metrics = a.metrics.or(Some(MetricsFormat::Table))),
        default: "",
        help: "record runtime metrics (reducer, cache, pool, protocol) and print them after",
    },
    Flag {
        usage: "--metrics-format",
        scope: AllBut(NO_METRICS),
        kind: Choice(&["table", "json"], |a, i| {
            a.metrics = Some([MetricsFormat::Table, MetricsFormat::Json][i]);
        }),
        default: "table",
        help: "how to print the recorded metrics; implies recording them",
    },
    Flag {
        usage: "--faults PLAN",
        scope: Only("dist dist-run dist-node"),
        kind: Plan(|a, plan| a.faults = plan),
        default: "",
        help: "seeded fault plan, e.g. \"seed=7;drop=200;dup=50;delay=2;corrupt=50\"",
    },
    Flag {
        usage: "--journal PATH",
        scope: Only("dist dist-run"),
        kind: Text(|a, path| a.journal = Some(path)),
        default: "",
        help: "write the run's JSONL event journal (dist-run's is an audit, not replayable)",
    },
    Flag {
        usage: "--transport",
        scope: Only("dist-run"),
        kind: Choice(&["tcp", "unix"], |a, i| {
            a.transport = Some([TransportKind::Tcp, TransportKind::Unix][i]);
        }),
        default: "tcp",
        help: "loopback TCP or Unix-domain sockets",
    },
    Flag {
        usage: "--net NET.txt",
        scope: Only("dist-node"),
        kind: Text(|a, path| a.net = Some(path)),
        default: "",
        help: "the shared network description file (required)",
    },
    Flag {
        usage: "--id AGENT",
        scope: Only("dist-node"),
        kind: Text(|a, id| a.id = Some(id)),
        default: "",
        help: "which principal this process runs, e.g. `a0` (required)",
    },
    Flag {
        usage: "--out PATH",
        scope: Only("chaos-sockets"),
        kind: Text(|a, path| a.out = Some(path)),
        default: "BENCH_sockets.json",
        help: "where to write the JSON report",
    },
    Flag {
        usage: "--quick",
        scope: Only("chaos-sockets loadgen"),
        kind: Switch(|a| a.quick = true),
        default: "",
        help: "the small CI smoke profile",
    },
    Flag {
        usage: "--samples N",
        scope: Only("sweep"),
        kind: count("corpus size", |a, n| a.samples = n as u64),
        default: "1000",
        help: "corpus size per trust density: seeds 0..N",
    },
    Flag {
        usage: "--stream CHUNK",
        scope: Only("sweep"),
        kind: count("chunk size", |a, n| a.stream = Some(n)),
        default: "materialize the whole corpus",
        help: "bounded memory: generate, analyze and fold CHUNK specs at a time",
    },
    Flag {
        usage: "--events [N]",
        scope: Only("market loadgen"),
        kind: OptionalCount("event count", |a, n| match n {
            Some(n) => (a.market.events, a.counted_events) = (n as u64, true),
            None => a.loadgen.events = true,
        }),
        default: "1000 with market",
        help: "market: how many marketplace events to stream; loadgen (bare): send \
               lifecycle `event` frames, audited through their echoed verdict-stream \
               hashes, instead of analyze/mutate/analyzespec traffic",
    },
    Flag {
        usage: "--mutation-rate R",
        scope: Only("market loadgen"),
        kind: Probability(|a, r| (a.market.mutation_rate, a.loadgen.mutation_rate) = (r, r)),
        default: "0.2 with market, 0.1 with loadgen",
        help: "probability that an event or request mutates a structure, not re-certifies it",
    },
    Flag {
        usage: "--delta",
        scope: Only("market"),
        kind: Switch(|a| a.delta = true),
        default: "",
        help: "maintain verdicts incrementally with resident delta analyzers (the default)",
    },
    Flag {
        usage: "--full",
        scope: Only("market"),
        kind: Switch(|a| a.full = true),
        default: "",
        help: "recompute every verdict from scratch: the baseline the delta engine beats",
    },
    Flag {
        usage: "--addr HOST:PORT",
        scope: Only("serve loadgen"),
        kind: Text(|a, addr| a.addr = Some(addr)),
        default: "127.0.0.1:7421 for serve, an in-process server for loadgen",
        help: "serve: the listen address; loadgen: the server to hammer",
    },
    Flag {
        usage: "--workers N",
        scope: Only("serve"),
        kind: count("worker count", |a, n| a.service.workers = n),
        default: "1",
        help: "analysis workers (= queue shards)",
    },
    Flag {
        usage: "--structures N",
        scope: Only("serve loadgen"),
        kind: count("population size", |a, n| {
            (a.service.structures, a.loadgen.structures) = (n, n);
        }),
        default: "32",
        help: "resident marketplace population size; must match across the two commands",
    },
    Flag {
        usage: "--seed S",
        scope: Only("serve loadgen"),
        kind: Seed(|a, s| (a.service.seed, a.loadgen.seed) = (s, s)),
        default: "42",
        help: "population seed; must match across the two commands",
    },
    Flag {
        usage: "--queue N",
        scope: Only("serve"),
        kind: count("slot count", |a, n| a.service.queue_capacity = n),
        default: "1024",
        help: "bounded queue slots per worker shard: the backpressure surface",
    },
    Flag {
        usage: "--quota R",
        scope: Only("serve"),
        kind: Rate(|a, r| a.service.quota_rate = r),
        default: "0, unlimited",
        help: "per-connection token-bucket quota in requests/second",
    },
    Flag {
        usage: "--duration SECS",
        scope: Only("serve"),
        kind: count("number of seconds", |a, n| a.duration = Some(n as u64)),
        default: "serve until killed",
        help: "drain and exit after SECS seconds",
    },
    Flag {
        usage: "--clients N",
        scope: Only("loadgen"),
        kind: count("client count", |a, n| a.clients = Some(n)),
        default: "4, or 2 in the quick profile",
        help: "concurrent client connections",
    },
    Flag {
        usage: "--requests N",
        scope: Only("loadgen"),
        kind: count("request count", |a, n| a.requests = Some(n as u64)),
        default: "1000000, or 40000 in the quick profile",
        help: "total requests across all clients",
    },
    Flag {
        usage: "--spec-rate R",
        scope: Only("loadgen"),
        kind: Probability(|a, r| a.loadgen.spec_rate = r),
        default: "0.005",
        help: "fraction of requests that are inline one-shot spec analyses",
    },
    Flag {
        usage: "--window N",
        scope: Only("loadgen"),
        kind: count("window size", |a, n| a.loadgen.window = n),
        default: "64",
        help: "max outstanding requests per client",
    },
    Flag {
        usage: "--grow N",
        scope: Only("loadgen"),
        kind: count("structure count", |a, n| a.loadgen.grow = n),
        default: "none, or a quarter of the population in the event-stream bench",
        help: "event-stream mode: structures past the resident population, opened \
               mid-run by `event post` frames to exercise hot admission",
    },
    Flag {
        usage: "--bench-out PATH",
        scope: Only("loadgen"),
        kind: Text(|a, path| a.bench_out = Some(path)),
        default: "",
        help: "run the committed benchmark against an in-process server and write its \
               JSON report: sustained plus 2x overload, or the event-stream bench",
    },
];

impl Flag {
    fn name(&self) -> &'static str {
        split_usage(self.usage).0
    }

    /// What the value must be, for error texts.
    fn expects(&self) -> String {
        match self.kind {
            Count { noun, max, .. } if max < usize::MAX => format!("a {noun} between 1 and {max}"),
            Count { noun, .. } | OptionalCount(noun, _) => format!("a positive {noun}"),
            Probability(_) => "a probability in [0, 1]".to_owned(),
            Rate(_) => "a finite, non-negative rate".to_owned(),
            Seed(_) => "an unsigned seed".to_owned(),
            Plan(_) => "a fault-plan wire string".to_owned(),
            Choice(words, _) => format!("`{}`", words.join("` or `")),
            Switch(_) | Text(_) => split_usage(self.usage).1.to_owned(),
        }
    }

    /// Reads this flag's value, if it takes one, from `tokens` into `inv`.
    fn read(
        &self,
        tokens: &mut std::iter::Peekable<std::slice::Iter<'_, String>>,
        inv: &mut Invocation,
    ) -> Result<(), String> {
        let name = self.name();
        let raw = match self.kind {
            Switch(set) => {
                set(inv);
                return Ok(());
            }
            OptionalCount(_, set) => {
                match tokens.next_if(|t| t.starts_with(|c: char| c.is_ascii_digit())) {
                    Some(raw) => raw,
                    None => {
                        set(inv, None);
                        return Ok(());
                    }
                }
            }
            _ => tokens
                .next()
                .ok_or_else(|| format!("`{name}` expects {}", self.expects()))?,
        };
        let bad = || {
            let mut err = format!("`{name}` expects {}, got `{raw}`", self.expects());
            if !self.default.is_empty() {
                let omit = match self.kind {
                    OptionalCount(..) => "count",
                    _ => "flag",
                };
                let _ = write!(err, "; omit the {omit} for the default ({})", self.default);
            }
            err
        };
        let count = |max: usize| {
            raw.parse()
                .ok()
                .filter(|n| (1..=max).contains(n))
                .ok_or_else(bad)
        };
        let real = |ok: fn(f64) -> bool| raw.parse().ok().filter(|r| ok(*r)).ok_or_else(bad);
        match self.kind {
            Count { max, set, .. } => set(inv, count(max)?),
            OptionalCount(_, set) => set(inv, Some(count(usize::MAX)?)),
            Probability(set) => set(inv, real(|r| (0.0..=1.0).contains(&r))?),
            Rate(set) => set(inv, real(|r| r.is_finite() && r >= 0.0)?),
            Seed(set) => set(inv, raw.parse().map_err(|_| bad())?),
            Text(set) => set(inv, raw.clone()),
            Plan(set) => set(inv, raw.parse().map_err(|e| format!("{}: {e}", bad()))?),
            Choice(words, set) => set(inv, words.iter().position(|w| w == raw).ok_or_else(bad)?),
            Switch(_) => unreachable!("a switch takes no value"),
        }
        Ok(())
    }
}

/// A command line's positional argument and flags, each already in the
/// type its command takes.
#[derive(Default)]
struct Invocation {
    /// The spec or journal path; empty when the command takes none.
    path: String,
    options: BuildOptions,
    /// With `--cache-stats`: the memo table analyses go through, whose
    /// statistics follow the command's output.
    cache: Option<AnalysisCache>,
    metrics: Option<MetricsFormat>,
    threads: Option<usize>,
    faults: FaultPlan,
    journal: Option<String>,
    transport: Option<TransportKind>,
    net: Option<String>,
    id: Option<String>,
    out: Option<String>,
    quick: bool,
    samples: u64,
    stream: Option<usize>,
    market: MarketConfig,
    /// `--events` came with a count.
    counted_events: bool,
    delta: bool,
    full: bool,
    addr: Option<String>,
    /// The `serve` command's server, and `loadgen`'s in-process one.
    service: ServiceConfig,
    duration: Option<u64>,
    loadgen: LoadgenConfig,
    clients: Option<usize>,
    requests: Option<u64>,
    bench_out: Option<String>,
}

/// Parses and validates a command line without side effects: every flag
/// is known, well-formed and read by the command, the positional argument
/// is exactly the one the command takes, and the cross-flag rules hold.
/// Nothing is read, bound or spawned.
fn parse_args(args: &[String]) -> Result<(&'static CommandSpec, Invocation), String> {
    let mut inv = Invocation {
        samples: 1000,
        service: ServiceConfig {
            structures: 32,
            ..ServiceConfig::default()
        },
        loadgen: LoadgenConfig {
            structures: 32,
            spec_rate: 0.005,
            ..LoadgenConfig::default()
        },
        ..Invocation::default()
    };
    let mut seen: Vec<&Flag> = Vec::new();
    let mut positional: Vec<&String> = Vec::new();
    let mut tokens = args.iter().peekable();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            positional.push(token);
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name() == token)
            .ok_or_else(|| format!("unknown flag `{token}`"))?;
        flag.read(&mut tokens, &mut inv)?;
        seen.push(flag);
    }
    let (name, rest) = positional.split_first().ok_or("missing command")?;
    let name = name.as_str();
    let command = COMMANDS
        .iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown command `{name}`"))?;
    if let Some(flag) = seen.iter().find(|f| !f.scope.includes(name)) {
        let takers: Vec<String> = COMMANDS
            .iter()
            .filter(|c| flag.scope.includes(c.name()))
            .map(|c| format!("`{}`", c.name()))
            .collect();
        let takers = match takers.split_last() {
            Some((last, [])) => format!("the {last} command"),
            Some((last, init)) => format!("the {} and {last} commands", init.join(", ")),
            None => "no command".to_owned(),
        };
        return Err(format!(
            "`{}` applies to {takers}, not `{name}`",
            flag.name()
        ));
    }
    let arg = split_usage(command.usage).1;
    match (arg.is_empty(), rest) {
        (true, []) => {}
        (false, [path]) => inv.path = (*path).clone(),
        (false, []) => return Err(format!("`{name}` expects {arg}")),
        (true, [stray, ..]) | (false, [_, stray, ..]) => {
            let takes = if arg.is_empty() { "no argument" } else { arg };
            return Err(format!("stray argument `{stray}`: `{name}` takes {takes}"));
        }
    }
    let rules = [
        (
            inv.delta && inv.full,
            "`--delta` and `--full` are mutually exclusive; pick one maintenance mode \
             (the default is `--delta`)",
        ),
        (
            name == "loadgen" && inv.counted_events,
            "`--events` takes no count with `loadgen` (the run length is `--requests`); \
             pass the bare flag to enable event-stream mode",
        ),
        (
            inv.loadgen.grow > 0 && !inv.loadgen.events,
            "`--grow` needs `--events`: grown structures are admitted hot by event-stream \
             `post` frames",
        ),
        (
            inv.bench_out.is_some() && inv.addr.is_some(),
            "`--bench-out` always benches an in-process server; `--addr` does not apply",
        ),
        (
            name == "dist-node" && inv.net.is_none(),
            "`dist-node` requires `--net <NET.txt>`",
        ),
        (
            name == "dist-node" && inv.id.is_none(),
            "`dist-node` requires `--id <AGENT>`",
        ),
    ];
    if let Some((_, rule)) = rules.iter().find(|(broken, _)| *broken) {
        return Err((*rule).to_owned());
    }
    Ok((command, inv))
}

/// The usage text, rendered from the command and flag tables.
pub static USAGE: LazyLock<String> = LazyLock::new(|| {
    let mut out = String::from(
        "trustseq — trust-explicit distributed commerce transactions (ICDCS 1996)\n\n\
         USAGE:\n    trustseq <COMMAND> [OPTIONS] [ARG]\n\nCOMMANDS:\n",
    );
    for c in COMMANDS {
        usage_entry(&mut out, c.usage, c.help);
    }
    out.push_str("\nOPTIONS (the commands that read each one are in brackets):\n");
    for f in FLAGS {
        let mut left = f.usage.to_owned();
        if let Choice(words, _) = f.kind {
            let _ = write!(left, " {}", words.join("|"));
        }
        let mut text = f.help.to_owned();
        if !f.default.is_empty() {
            let _ = write!(text, " (default: {})", f.default);
        }
        let _ = write!(text, " [{}]", f.scope);
        usage_entry(&mut out, &left, &text);
    }
    out
});

/// Appends one usage entry: `left` in the gutter, then `text` wrapped at
/// 79 columns beside it (from the next line when `left` fills the gutter).
fn usage_entry(out: &mut String, left: &str, text: &str) {
    const GUTTER: usize = 26;
    let mut line = format!("    {left}");
    let mut fresh = true;
    for word in text.split_whitespace() {
        let width = line.chars().count();
        if width + 1 + word.chars().count() > 79 || (fresh && width >= GUTTER) {
            out.push_str(&line);
            out.push('\n');
            line.clear();
            fresh = true;
        }
        let pad = if fresh {
            GUTTER - line.chars().count()
        } else {
            1
        };
        line.extend(std::iter::repeat_n(' ', pad));
        line.push_str(word);
        fresh = false;
    }
    out.push_str(&line);
    out.push('\n');
}

/// Runs one of the eight spec commands against specification source
/// text. `options` selects the build semantics
/// ([`BuildOptions::EXTENDED`] is §9's shared-escrow delegation). With a
/// `cache`, feasibility checks, advice probes and indemnity planning go
/// through the memo table; sequence/protocol synthesis stays uncached —
/// its output is defined by the deterministic reducer's exact step order
/// (§5).
///
/// # Errors
///
/// Returns a human-readable error string for parse failures, infeasible
/// exchanges (where a sequence was demanded), or simulation errors.
pub fn run(
    command: Command,
    source: &str,
    options: BuildOptions,
    cache: Option<&AnalysisCache>,
) -> Result<String, String> {
    let spec = &parse_spec(source).map_err(|e| format!("parse error: {e}"))?;
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
            let name = |a| participant_name(spec, a);
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
            let name = |a| participant_name(spec, a);
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
        .ok_or_else(|| {
            format!(
                "`--id` expects an agent id like `a0`, got `{raw}`\n\n{}",
                *USAGE
            )
        })
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
/// outcome. With `with_journal`, also returns the audit journal: the run
/// header, every removal the supervisor observed, each node's final view
/// and the verdict. It is an audit record, not a replayable one.
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

/// Runs the `sweep` command: at each density of
/// [`TRUST_DENSITY_GRID`](trustseq_workloads::TRUST_DENSITY_GRID) (E19's
/// grid), the feasible fraction of `samples` seeded random exchanges
/// (seeds `0..samples`, default workload topology). Without a chunk
/// budget each density's corpus is materialized and analyzed in one
/// batch; with `chunk = Some(n)` it streams through
/// [`trustseq_workloads::sweep_streaming`], holding at most `n` specs
/// resident regardless of corpus size. Both paths honour the process-wide
/// worker pool, and both report the same rates.
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
    let mut out = String::new();
    let _ = writeln!(out, "sweep: {samples} samples per trust density");
    let (mut chunks, mut errors) = (0, 0);
    for trust_density in trustseq_workloads::TRUST_DENSITY_GRID {
        let config = trustseq_workloads::RandomConfig {
            trust_density,
            ..Default::default()
        };
        let rate = match chunk {
            Some(chunk) => {
                let report = trustseq_workloads::sweep_streaming(&config, samples, chunk, cache);
                chunks += report.chunks;
                errors += report.errors;
                report.rate()
            }
            None => trustseq_workloads::feasibility_rate_cached(&config, samples, cache),
        };
        let _ = writeln!(
            out,
            "  trust density {trust_density:.2}: feasibility rate {rate:.4}"
        );
    }
    if let Some(chunk) = chunk {
        let _ = writeln!(
            out,
            "streamed in {chunks} chunks of at most {chunk} resident specs ({errors} errors)"
        );
    }
    Ok(out)
}

/// Runs the `market` command: streams `config.events` marketplace events
/// over the default structure population and reports deterministic counts
/// (never throughput — timing belongs to the `delta` bench).
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
    config: &MarketConfig,
    mode: MarketMode,
    cache: Option<&AnalysisCache>,
) -> Result<String, String> {
    let report = trustseq_workloads::run_market(config, mode, cache);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "market: {} events over {} structures (mutation rate {:.2}, {} mode)",
        report.events,
        config.structures,
        config.mutation_rate,
        match mode {
            MarketMode::Delta => "delta",
            MarketMode::Full => "full",
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

/// Runs the `serve` command: binds, prints the banner straight to stdout
/// (the process is about to block), serves until `--duration` elapses (or
/// forever), then drains and reports.
fn cmd_serve(inv: &Invocation) -> Result<String, String> {
    let addr = inv.addr.as_deref().unwrap_or("127.0.0.1:7421");
    let config = &inv.service;
    let server = trustseq_service::Server::bind(ServiceConfig {
        addr: Addr::Tcp(addr.to_owned()),
        ..config.clone()
    })
    .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    let local = server.local_addr();
    println!(
        "serving on {local}: {} workers, {} resident structures (seed {}), \
         queue {}x{}, quota {}",
        config.workers,
        config.structures,
        config.seed,
        config.workers,
        config.queue_capacity,
        if config.quota_rate > 0.0 {
            format!("{} req/s per connection", config.quota_rate)
        } else {
            "unlimited".to_string()
        }
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let handle = server.handle();
    if let Some(secs) = inv.duration {
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_secs(secs));
            handle.shutdown();
        });
    }
    let stats = server.run().map_err(|e| format!("serve failed: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "drained: {} accepted, {} rejected",
        stats.accepted, stats.rejected
    );
    Ok(out)
}

fn render_loadgen_report(out: &mut String, clients: usize, report: &LoadgenReport) {
    let _ = writeln!(
        out,
        "loadgen: {} requests over {} clients -> {} replies in {:.2} s ({:.0} req/s)",
        report.sent,
        clients,
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
            "  server: queue depth {}, connections {}",
            s.queue_depth, s.connections
        );
    }
}

/// The CI gate shared by `loadgen` and the bench: a run that proved
/// nothing (no accepted work) or proved something *wrong* fails loudly.
fn check_loadgen_report(out: &str, report: &LoadgenReport) -> Result<(), String> {
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

/// Runs the `loadgen` command against `--addr`, against an in-process
/// server when no address is given, or as the committed benchmark with
/// `--bench-out`.
///
/// # Errors
///
/// Connection errors, or a failed verification gate (wrong verdicts, hash
/// mismatches, unanswered or zero accepted requests).
fn cmd_loadgen(inv: &Invocation) -> Result<String, String> {
    let (requests, clients) = if inv.quick {
        (40_000, 2)
    } else {
        (1_000_000, 4)
    };
    let config = LoadgenConfig {
        requests: inv.requests.unwrap_or(requests),
        clients: inv.clients.unwrap_or(clients),
        ..inv.loadgen.clone()
    };
    if let Some(out_file) = &inv.bench_out {
        return if config.events {
            run_events_bench(&inv.service, config, out_file)
        } else {
            run_service_bench(&inv.service, config, out_file)
        };
    }
    let report = match &inv.addr {
        None => run_in_process(&inv.service, &config)?,
        Some(addr) => trustseq_service::run_loadgen(&LoadgenConfig {
            addr: Addr::Tcp(addr.clone()),
            ..config.clone()
        })
        .map_err(|e| format!("loadgen failed (is `trustseq serve` running on {addr}?): {e}"))?,
    };
    let mut out = String::new();
    render_loadgen_report(&mut out, config.clients, &report);
    check_loadgen_report(&out, &report)?;
    Ok(out)
}

fn bench_phase_json(
    name: &str,
    service: &ServiceConfig,
    loadgen: &LoadgenConfig,
    report: &LoadgenReport,
) -> String {
    let [overloaded, quota, draining, malformed, unknown] = report.rejected;
    let queue_depth = report.server.as_ref().map_or(0, |s| s.queue_depth);
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
      "final_queue_depth": {queue_depth}
    }}"#,
        loadgen.clients,
        loadgen.window,
        service.workers,
        loadgen.structures,
        loadgen.events,
        loadgen.grow,
        service.quota_rate,
        service.queue_capacity,
        loadgen.mutation_rate,
        loadgen.spec_rate,
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
/// Socket errors, a failed verification gate, or an unwritable `out_file`.
fn run_service_bench(
    service: &ServiceConfig,
    loadgen: LoadgenConfig,
    out_file: &str,
) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "service bench, phase 1 (sustained):");
    let phase1 = run_in_process(service, &loadgen)?;
    render_loadgen_report(&mut out, loadgen.clients, &phase1);
    check_loadgen_report(&out, &phase1)?;

    // Phase 2: quotas sized so the admitted rate is about half of what
    // phase 1 proved the pipeline can carry, while clients offer full
    // speed — a deliberate ~2x overload.
    let over_service = ServiceConfig {
        quota_rate: (phase1.rps / 2.0 / loadgen.clients as f64).max(100.0),
        ..service.clone()
    };
    let over_loadgen = LoadgenConfig {
        requests: loadgen.requests / 2,
        ..loadgen.clone()
    };
    let _ = writeln!(
        out,
        "service bench, phase 2 (~2x overload, quota {:.0} req/s per connection):",
        over_service.quota_rate
    );
    let phase2 = run_in_process(&over_service, &over_loadgen)?;
    render_loadgen_report(&mut out, over_loadgen.clients, &phase2);
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
  "note": "always-on analysis service (E27): pipelined request engine over loopback TCP on one machine — the loadgen clients, their reader threads, the server's accept loop, connection readers and pool workers all share {cpus} core(s), so rps is a self-contained single-box number, not a distributed-systems claim. Requests are length-prefixed text frames (analyze/mutate/analyzespec/stats) against a resident marketplace population; analyze and mutate verdicts are read straight off each structure's resident incremental analyzer, and each analyzespec is answered by one direct reduction of its parsed graph (the server keeps no analysis cache and canonicalizes nothing). Every verdict the clients receive is verified after the timed window by replaying the accepted schedule against per-client full-re-reduction mirrors (the centralised reducer) and comparing order-sensitive FNV verdict-stream hashes per structure; wrong_verdicts and hash_mismatches are hard gates, not observations. Latency percentiles cover accepted (verdict-carrying) replies only and include client-side queueing inside the pipelining window, so they are honest end-to-end numbers at full throughput, not unloaded ping times. The overload phase sizes per-connection token-bucket quotas to half of phase 1's measured rps while clients offer full speed (~2x overload): the gate demands typed shedding engaged and the p99 of accepted requests stays bounded — no hangs, no unbounded queueing, no wrong verdicts under pressure.",
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
        bench_phase_json("sustained", service, &loadgen, &phase1),
        bench_phase_json("overload_2x", &over_service, &over_loadgen, &phase2),
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
fn run_events_bench(
    service: &ServiceConfig,
    mut ev: LoadgenConfig,
    out_file: &str,
) -> Result<String, String> {
    ev.events = true;
    // Every event is a mutation and none is an inline spec; the rates are
    // set so the committed record says so.
    ev.mutation_rate = 1.0;
    ev.spec_rate = 0.0;
    if ev.grow == 0 {
        ev.grow = (ev.structures / 4).max(1);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "events bench (event stream, {} structures admitted hot):",
        ev.grow
    );
    let report = run_in_process(service, &ev)?;
    render_loadgen_report(&mut out, ev.clients, &report);
    check_loadgen_report(&out, &report)?;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        r#"{{
  "suite": "events",
  "note": "event-stream wire protocol (E28), in-process over loopback TCP on one machine ({cpus} core(s) shared by clients, readers and workers — a self-contained single-box number). Clients send lifecycle `event` frames (post/accept/cancel/expire with a slot); verdicts come straight off the resident per-structure delta analyzers, with no canonicalization (the server keeps no analysis cache), and a slice of the population is admitted hot mid-run by `post` frames on unseen structure ids. Verification is three-legged: every verdict is checked against per-client centralised full-re-reduction mirrors after the timed window, order-sensitive FNV verdict-stream hashes are compared per structure, and the server's echoed running hash must match the mirror fold — wrong_verdicts and hash_mismatches are hard gates. The whole-op `mutate` baseline phase and its 3x gate were retired once `mutate` began sharing the event path's resident verdict code.",
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
        bench_phase_json("event_stream", service, &ev, &report),
    );
    std::fs::write(out_file, &json).map_err(|e| format!("cannot write `{out_file}`: {e}"))?;
    let _ = writeln!(out, "report written to {out_file}");
    Ok(out)
}

/// Runs `loadgen` against a server bound in this process on an ephemeral
/// loopback port, then shuts the server down.
fn run_in_process(
    service: &ServiceConfig,
    loadgen: &LoadgenConfig,
) -> Result<LoadgenReport, String> {
    let server = trustseq_service::Server::bind(service.clone())
        .map_err(|e| format!("cannot bind the in-process server: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.run());
    let result = trustseq_service::run_loadgen(&LoadgenConfig {
        addr,
        ..loadgen.clone()
    });
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

/// Runs `body` with a process-wide [`MetricsRegistry`] installed (when a
/// `format` is given) and appends the snapshot, rendered in that format,
/// to its output. The registry is a single static so repeated invocations
/// reuse it; it is reset on entry and uninstalled on exit.
fn with_metrics(
    format: Option<MetricsFormat>,
    body: impl FnOnce() -> Result<String, String>,
) -> Result<String, String> {
    let Some(format) = format else {
        return body();
    };
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

/// Reads the file a command names.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// The running `trustseq` binary, which `dist-run` and `chaos-sockets`
/// spawn as `dist-node` children.
fn this_binary() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot locate the trustseq binary: {e}"))
}

/// Writes a run's journal to `--journal`, when one was asked for.
fn write_journal(path: Option<&str>, journal: Option<String>) -> Result<(), String> {
    if let (Some(path), Some(text)) = (path, journal) {
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(())
}

fn cmd_dist(inv: &Invocation) -> Result<String, String> {
    let (out, journal) = run_dist(
        &read(&inv.path)?,
        inv.options,
        &inv.faults,
        &ResilientConfig::default(),
        inv.journal.is_some(),
    )?;
    write_journal(inv.journal.as_deref(), journal)?;
    Ok(out)
}

fn cmd_dist_run(inv: &Invocation) -> Result<String, String> {
    let source = read(&inv.path)?;
    let (out, journal) = run_dist_sockets(
        &this_binary()?,
        &source,
        inv.transport.unwrap_or(TransportKind::Tcp),
        &inv.faults,
        inv.journal.is_some(),
    )?;
    write_journal(inv.journal.as_deref(), journal)?;
    Ok(out)
}

fn cmd_market(inv: &Invocation) -> Result<String, String> {
    let mode = if inv.full {
        MarketMode::Full
    } else {
        MarketMode::Delta
    };
    run_market_cmd(&inv.market, mode, inv.cache.as_ref())
}

fn cmd_dist_node(inv: &Invocation) -> Result<String, String> {
    let (Some(net_file), Some(id)) = (&inv.net, &inv.id) else {
        unreachable!("parse_args requires both for dist-node")
    };
    let net_text = read(net_file)?;
    run_dist_node(&net_text, id, &read(&inv.path)?, &inv.faults)
}

fn cmd_chaos_sockets(inv: &Invocation) -> Result<String, String> {
    let report = orchestrate::socket_chaos_matrix(&this_binary()?, inv.quick)?;
    let json = report.to_json();
    let out_file = inv.out.as_deref().unwrap_or("BENCH_sockets.json");
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
    Ok(out)
}

/// Entry point used by `main.rs`: validates the whole command line, then
/// reads the files and runs the command.
///
/// # Errors
///
/// Usage or execution errors as strings (printed to stderr by the wrapper).
pub fn main_with_args(args: &[String]) -> Result<String, String> {
    let (command, inv) = parse_args(args).map_err(|e| format!("{e}\n\n{}", *USAGE))?;
    if let Some(n) = inv.threads {
        trustseq_core::pool::set_size(n);
    }
    with_metrics(inv.metrics, || {
        let mut out = match &command.run {
            Run::Spec(spec_command) => run(
                spec_command.clone(),
                &read(&inv.path)?,
                inv.options,
                inv.cache.as_ref(),
            )?,
            Run::Other(run_command) => run_command(&inv)?,
        };
        if let Some(cache) = &inv.cache {
            let _ = writeln!(out, "cache: {}", cache.stats());
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one spec entry point under the paper's semantics, uncached.
    fn run(command: Command, source: &str) -> Result<String, String> {
        super::run(command, source, BuildOptions::PAPER, None)
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    /// The parse-time rejection of a command line; parsing reads no file,
    /// binds no socket and spawns no process.
    fn parse_error(words: &[&str]) -> String {
        match parse_args(&args(words)) {
            Ok(_) => panic!("`trustseq {}` must be rejected", words.join(" ")),
            Err(e) => e,
        }
    }

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
                let cached = super::run(
                    command.clone(),
                    source,
                    trustseq_core::BuildOptions::PAPER,
                    Some(&cache),
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
        assert!(
            err.contains("`--journal` applies to the `dist` and `dist-run` commands, not `check`"),
            "{err}"
        );
        // A metrics run appends the snapshot to the command output.
        let out =
            with_metrics(Some(MetricsFormat::Table), || run(Command::Check, EXAMPLE1)).unwrap();
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("reduce.runs"), "{out}");
        let out =
            with_metrics(Some(MetricsFormat::Json), || run(Command::Check, EXAMPLE1)).unwrap();
        assert!(out.contains("\"reduce.runs\""), "{out}");
    }

    #[test]
    fn sweep_command_streams_and_materializes_identically() {
        // Materialized and streaming sweeps report the same rate at every
        // density of the grid.
        let full = main_with_args(&["sweep".into(), "--samples".into(), "30".into()]).unwrap();
        assert!(full.contains("30 samples per trust density"), "{full}");
        let streamed = main_with_args(&[
            "sweep".into(),
            "--samples".into(),
            "30".into(),
            "--stream".into(),
            "7".into(),
        ])
        .unwrap();
        // Five chunks per density.
        assert!(streamed.contains("in 25 chunks"), "{streamed}");
        assert!(streamed.contains("at most 7 resident"), "{streamed}");
        let rate_of = |out: &str| -> Vec<String> {
            out.lines()
                .filter(|line| line.contains("feasibility rate"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(rate_of(&full).len(), 5, "{full}");
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
        assert!(
            err.contains("`--samples` applies to the `sweep` command, not `check`"),
            "{err}"
        );
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
        assert!(
            err.contains(
                "`--faults` applies to the `dist`, `dist-run` and `dist-node` commands, not `sweep`"
            ),
            "{err}"
        );
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
            err.contains("`--events` applies to the `market` and `loadgen` commands, not `check`"),
            "{err}"
        );
        let err = main_with_args(&["--events".into(), "check".into(), "x".into()]).unwrap_err();
        assert!(
            err.contains("`--events` applies to the `market` and `loadgen` commands, not `check`"),
            "{err}"
        );
        let err = main_with_args(&["sweep".into(), "--delta".into()]).unwrap_err();
        assert!(
            err.contains("`--delta` applies to the `market` command, not `sweep`"),
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
        assert!(
            err.contains("`--samples` applies to the `sweep` command, not `market`"),
            "{err}"
        );
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
        assert!(
            err.contains("`--net` applies to the `dist-node` command, not `check`"),
            "{err}"
        );
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
            err.contains(
                "`--quick` applies to the `chaos-sockets` and `loadgen` commands, not `check`"
            ),
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
        // The width is set only once the whole line is valid.
        let width = if trustseq_core::pool::size() == 3 {
            5
        } else {
            3
        };
        let err = main_with_args(&args(&["--threads", &width.to_string(), "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag `--bogus`"), "{err}");
        assert_ne!(trustseq_core::pool::size(), width);
    }

    #[test]
    fn usage_declares_each_flag_and_command_once() {
        let words: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .collect();
        for flag in FLAGS {
            let uses = words.iter().filter(|w| **w == flag.name()).count();
            assert_eq!(uses, 1, "`{}` in\n{}", flag.name(), *USAGE);
            let (Only(names) | AllBut(names)) = flag.scope;
            for name in names.split_whitespace() {
                assert!(
                    COMMANDS.iter().any(|c| c.name() == name),
                    "`{}` names unknown command `{name}`",
                    flag.name()
                );
            }
        }
        for command in COMMANDS {
            let entries = USAGE
                .lines()
                .filter(|l| {
                    l.strip_prefix("    ")
                        .is_some_and(|l| l.split(' ').next() == Some(command.name()))
                })
                .count();
            assert_eq!(entries, 1, "`{}` in\n{}", command.name(), *USAGE);
        }
    }

    /// A well-formed value for `flag`, when it takes one.
    fn sample_value(flag: &Flag) -> Option<&'static str> {
        match flag.kind {
            Switch(_) => None,
            Count { .. } | OptionalCount(..) => Some("2"),
            Probability(_) | Rate(_) => Some("0.5"),
            Seed(_) => Some("7"),
            Text(_) => Some("x"),
            Plan(_) => Some("seed=1;drop=100"),
            Choice(words, _) => Some(words[0]),
        }
    }

    #[test]
    fn every_flag_is_rejected_outside_its_scope() {
        for flag in FLAGS {
            let takers: Vec<&str> = COMMANDS
                .iter()
                .map(|c| c.name())
                .filter(|c| flag.scope.includes(c))
                .collect();
            assert!(!takers.is_empty(), "`{}` applies nowhere", flag.name());
            for command in COMMANDS {
                let mut words = vec![command.name()];
                if !split_usage(command.usage).1.is_empty() {
                    words.push("/nonexistent.tseq");
                }
                words.push(flag.name());
                words.extend(sample_value(flag));
                let result = parse_args(&args(&words));
                if flag.scope.includes(command.name()) {
                    // In scope: whatever else may be missing, not the scope.
                    if let Err(e) = result {
                        assert!(!e.contains(" applies to "), "{}: {e}", words.join(" "));
                    }
                    continue;
                }
                let err = result
                    .err()
                    .unwrap_or_else(|| panic!("{} parsed", words.join(" ")));
                let head = format!("`{}` applies to the ", flag.name());
                assert!(err.starts_with(&head), "{err}");
                assert!(
                    err.ends_with(&format!(", not `{}`", command.name())),
                    "{err}"
                );
                for taker in &takers {
                    assert!(err.contains(&format!("`{taker}`")), "{err}");
                }
            }
        }
        // Pairs whose flag the command would otherwise ignore.
        for (words, flag) in [
            (
                &["dist", "s.tseq", "--transport", "unix"][..],
                "--transport",
            ),
            (&["dist", "s.tseq", "--net", "foo"], "--net"),
            (&["dist", "s.tseq", "--cache-stats"], "--cache-stats"),
            (&["sweep", "--extended"], "--extended"),
            (&["sweep", "--transport", "unix"], "--transport"),
            (&["sweep", "--out", "x"], "--out"),
            (&["market", "--quick"], "--quick"),
            (&["serve", "--extended", "--cache-stats"], "--extended"),
            (&["loadgen", "--extended", "--cache-stats"], "--extended"),
            (
                &["dist-run", "s.tseq", "--cache-stats", "--out", "x"],
                "--cache-stats",
            ),
            (&["indemnify", "--extended", "s.tseq"], "--extended"),
            (&["dist-run", "--extended", "s.tseq"], "--extended"),
            (
                &[
                    "dist-node",
                    "--net",
                    "n",
                    "--id",
                    "a0",
                    "s.tseq",
                    "--metrics",
                ],
                "--metrics",
            ),
            (&["chaos-sockets", "--metrics"], "--metrics"),
        ] {
            let err = parse_error(words);
            assert!(err.starts_with(&format!("`{flag}` applies to")), "{err}");
        }
        for extra in [
            &["--faults", "seed=1;drop=900"][..],
            &["--journal", "j2.jsonl"],
            &["--transport", "unix"],
            &["--net", "n"],
            &["--id", "a0"],
            &["--out", "x"],
            &["--quick"],
            &["--extended"],
            &["--cache-stats"],
        ] {
            let mut words = vec!["journal-replay", "j.jsonl"];
            words.extend_from_slice(extra);
            let err = parse_error(&words);
            assert!(
                err.starts_with(&format!("`{}` applies to", extra[0])),
                "{err}"
            );
            assert!(err.ends_with("not `journal-replay`"), "{err}");
        }
    }

    #[test]
    fn stray_positionals_are_named() {
        for (words, stray) in [
            (&["market", "foo"][..], "foo"),
            (&["sweep", "extra"], "extra"),
            (&["serve", "extra"], "extra"),
            (
                &[
                    "loadgen",
                    "--events",
                    "--requests",
                    "10",
                    "--quick",
                    "extra",
                ],
                "extra",
            ),
            (&["chaos-sockets", "extra", "--quick"], "extra"),
            (&["market", "--events", "-5"], "-5"),
            (&["check", "a.tseq", "b.tseq"], "b.tseq"),
        ] {
            let err = parse_error(words);
            assert!(
                err.starts_with(&format!("stray argument `{stray}`")),
                "{err}"
            );
        }
        assert!(parse_error(&["check"]).contains("`check` expects <SPEC.tseq>"));
    }

    /// Every `trustseq` argument list the repository documents, runs in CI
    /// or spawns, with the file it comes from.
    const TRAFFIC: &[(&str, &[&str])] = &[
        (
            ".github/workflows/ci.yml",
            &[
                "dist",
                "specs/example1.tseq",
                "--faults",
                "seed=7;drop=200;dup=50;delay=2;corrupt=100",
                "--journal",
                "/tmp/run.jsonl",
                "--metrics",
            ],
        ),
        (
            ".github/workflows/ci.yml",
            &["journal-replay", "/tmp/run.jsonl"],
        ),
        (
            ".github/workflows/ci.yml",
            &["market", "--events", "500", "--delta"],
        ),
        (
            ".github/workflows/ci.yml",
            &["market", "--events", "500", "--full"],
        ),
        (
            ".github/workflows/ci.yml",
            &["serve", "--addr", "127.0.0.1:7431", "--duration", "30"],
        ),
        (
            ".github/workflows/ci.yml",
            &["loadgen", "--addr", "127.0.0.1:7431", "--quick"],
        ),
        (
            ".github/workflows/ci.yml",
            &[
                "loadgen",
                "--quick",
                "--bench-out",
                "/tmp/BENCH_service.json",
            ],
        ),
        (
            ".github/workflows/ci.yml",
            &["loadgen", "--quick", "--events", "--grow", "8"],
        ),
        (
            ".github/workflows/ci.yml",
            &[
                "loadgen",
                "--quick",
                "--events",
                "--bench-out",
                "/tmp/BENCH_events.json",
            ],
        ),
        ("README.md", &["check", "specs/example2.tseq"]),
        ("README.md", &["sequence", "specs/example1.tseq"]),
        ("README.md", &["indemnify", "specs/figure7.tseq"]),
        ("README.md", &["advise", "specs/example2.tseq"]),
        ("README.md", &["simulate", "specs/example1.tseq"]),
        ("README.md", &["cost", "specs/example1.tseq"]),
        ("README.md", &["dot", "specs/example1.tseq"]),
        (
            "README.md",
            &[
                "dist",
                "specs/example1.tseq",
                "--metrics",
                "--faults",
                "seed=7;drop=200;dup=50;delay=2;corrupt=50",
                "--journal",
                "run.jsonl",
            ],
        ),
        ("README.md", &["journal-replay", "run.jsonl"]),
        (
            "README.md",
            &["sweep", "--samples", "100000", "--stream", "64"],
        ),
        (
            "README.md",
            &[
                "market",
                "--events",
                "2000",
                "--mutation-rate",
                "0.2",
                "--delta",
            ],
        ),
        ("README.md", &["dist-run", "specs/example1.tseq"]),
        (
            "README.md",
            &["dist-run", "--transport", "unix", "specs/example1.tseq"],
        ),
        (
            "README.md",
            &["dist-node", "--net", "net.txt", "--id", "a0", "spec.tseq"],
        ),
        ("README.md", &["chaos-sockets"]),
        (
            "README.md",
            &[
                "serve",
                "--addr",
                "127.0.0.1:7421",
                "--workers",
                "2",
                "--structures",
                "32",
            ],
        ),
        (
            "README.md",
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:7421",
                "--requests",
                "1000000",
                "--clients",
                "4",
            ],
        ),
        ("README.md", &["loadgen", "--quick"]),
        (
            "README.md",
            &["loadgen", "--quick", "--bench-out", "BENCH_service.json"],
        ),
        (
            "README.md",
            &[
                "loadgen",
                "--events",
                "--grow",
                "8",
                "--requests",
                "20000",
                "--clients",
                "2",
                "--structures",
                "16",
            ],
        ),
        (
            "README.md",
            &["loadgen", "--events", "--bench-out", "BENCH_events.json"],
        ),
        ("verify SKILL.md", &["check", "specs/example1.tseq"]),
        ("verify SKILL.md", &["check", "specs/example2.tseq"]),
        ("verify SKILL.md", &["sequence", "specs/example1.tseq"]),
        ("verify SKILL.md", &["advise", "specs/example2.tseq"]),
        (
            "verify SKILL.md",
            &[
                "dist",
                "specs/example1.tseq",
                "--metrics",
                "--faults",
                "seed=7;drop=200;dup=50;delay=2;corrupt=100",
                "--journal",
                "/tmp/run.jsonl",
            ],
        ),
        ("verify SKILL.md", &["journal-replay", "/tmp/run.jsonl"]),
        (
            "verify SKILL.md",
            &["serve", "--addr", "127.0.0.1:7433", "--duration", "20"],
        ),
        (
            "verify SKILL.md",
            &[
                "serve",
                "--addr",
                "127.0.0.1:7433",
                "--duration",
                "20",
                "--quota",
                "5000",
            ],
        ),
        (
            "verify SKILL.md",
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:7433",
                "--requests",
                "100000",
                "--clients",
                "3",
            ],
        ),
        ("verify SKILL.md", &["loadgen", "--quick"]),
        (
            "perfbench/src/server.rs",
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--structures",
                "64",
                "--seed",
                "1011",
            ],
        ),
        (
            "perfbench/src/server.rs",
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--structures",
                "64",
                "--seed",
                "1011",
                "--metrics",
                "--metrics-format",
                "json",
                "--duration",
                "8",
            ],
        ),
        (
            "src/orchestrate.rs",
            &[
                "dist-node",
                "--net",
                "/tmp/run/net.txt",
                "--id",
                "a0",
                "/tmp/run/run.tseq",
            ],
        ),
        (
            "src/orchestrate.rs",
            &[
                "dist-node",
                "--net",
                "/tmp/run/net.txt",
                "--id",
                "a3",
                "--faults",
                "seed=5;drop=200;dup=100;delay=2",
                "/tmp/run/run.tseq",
            ],
        ),
    ];

    #[test]
    fn documented_invocations_parse() {
        for (source, words) in TRAFFIC {
            if let Err(e) = parse_args(&args(words)) {
                panic!("{source}: `trustseq {}` is rejected: {e}", words.join(" "));
            }
        }
    }
}
