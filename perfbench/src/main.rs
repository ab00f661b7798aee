//! `perfbench` — the trustseq service benchmark.
//!
//! Spawns the release `trustseq serve` as a child process, drives it over
//! loopback TCP from this one process (at most two threads and two
//! connections), and verifies every reply off the clock. After a warm-up a run
//! alternates `saturate` blocks — a closed loop with a bounded pipelining
//! window, for throughput — with `paced` blocks — an open loop at the
//! workload's fixed rate, each request timed from when it was due.
//!
//! ```text
//! perfbench --workload <events|certify|specs|all> [--seed N] [--seconds S]
//!           [--trace 0|1] [--repeat N] [--serve-bin PATH]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant and prints the per-layer metrics (see `replay`). `--repeat N`
//! runs each workload N times on consecutive seeds and prints each
//! end-to-end metric's median and quartiles next to its bound. Workload
//! parameters and the layer map live in `perfbench/config.json`, metric
//! bounds in `BENCHMARK.json`. The last line of a run is its JSON result.

mod json;
mod load;
mod replay;
mod server;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use json::Json;
use load::{Conn, Session, Verification, SATURATE_SLICE, WINDOW};
use replay::{Stage, Tracer};
use server::{ServeArgs, ServerProc};
use stats::{median, percentile, quartiles};
use workload::{Inputs, Workload};

/// Warm-up before the first measured block: caches fill and, for
/// `events`, the first hot admissions land.
const WARMUP: Duration = Duration::from_secs(1);
/// Share of `--seconds` spent in `saturate` blocks; the rest is `paced`.
const SATURATE_SHARE: f64 = 0.5;
/// Saturate/paced alternations per run, so both phases sample the whole
/// run rather than one end of it.
const CYCLES: u32 = 4;
/// Set-ups timed per burst; a burst runs before each cycle and after the
/// last one, so set-up is sampled across the whole run too.
const SETUP_BURST: usize = 10;
/// Wait between `serve`'s banner and the set-up probe's connect. The
/// server's accept thread starts right after the banner and then polls
/// every 10 ms; a probe that raced its first poll would land on either
/// side of it, making set-up two-moded (about 10 ms apart). Connecting
/// this long after the banner always lands after the first poll, so every
/// set-up waits out one poll period.
const PROBE_AFTER_BANNER: Duration = Duration::from_millis(2);
/// Paced requests per latency slice, with 20 samples beyond its p99. Short
/// slices keep a host stall to the few slices it overlaps.
const PACED_SLICE: usize = 2000;
/// Traced run: requests replayed in-process, per replay.
const REPLAY_REQUESTS: u64 = 5000;
/// Traced run: seconds the `--metrics --duration` server outlives the
/// phases it serves, so a slow host cannot push a request into its drain.
const DRAIN_SLACK_S: u64 = 10;
/// Traced run: `stats` poll period.
const POLL: Duration = Duration::from_millis(20);
/// Traced run: the workload whose inputs stand in for layers another
/// workload never reaches (it reaches all of them).
const PROBE_WORKLOAD: &str = "certify";

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: None,
        seconds: None,
        trace: false,
        repeat: None,
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for `{flag}`");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .ok_or_else(|| bad(&v))?,
                );
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .ok_or_else(|| bad(&v))?,
                );
            }
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// `perfbench/config.json`: the boot population, the workloads and the
/// layer map.
struct Config {
    /// Resident structures `serve` boots with (`--structures`).
    structures: usize,
    workloads: Vec<(Workload, u64)>,
    layers: Json,
}

impl Config {
    fn load(root: &Path) -> Result<Config, String> {
        let j = read_json(&root.join("perfbench").join("config.json"))?;
        let mut workloads = Vec::new();
        for (name, w) in j.req("workloads")?.fields()? {
            let wl = Workload::from_json(name, w).map_err(|e| format!("workload `{name}`: {e}"))?;
            workloads.push((wl, w.key_num("seed")? as u64));
        }
        Ok(Config {
            structures: j.req("server")?.key_num("structures")? as usize,
            workloads,
            layers: j.req("layers")?.clone(),
        })
    }

    fn workload(&self, name: &str) -> Result<&(Workload, u64), String> {
        self.workloads
            .iter()
            .find(|(w, _)| w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))
    }
}

/// Saturate and paced time per block when `seconds` is split over
/// `cycles` alternations.
fn blocks(seconds: f64, cycles: u32) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(seconds);
    let saturate = total.mul_f64(SATURATE_SHARE);
    (saturate / cycles, (total - saturate) / cycles)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The checkout this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// What a result was measured on.
struct Env {
    parallelism: usize,
    git_rev: String,
    bin: PathBuf,
    out_dir: PathBuf,
}

fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        note: note.into(),
    }
}

/// A finished run: its metrics and the verification of every reply.
struct Outcome {
    metrics: Vec<Metric>,
    verification: Verification,
    /// Problems found outside reply verification (e.g. a replayed verdict
    /// disagreeing with the resident analyzer).
    errors: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.verification.failed() == 0 && self.errors.is_empty()
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json::num(x.value),
                x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.verification.attempted,
            self.verification.failed()
        )
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let root = repo_root();
    let cfg = Config::load(&root)?;
    let bench = read_json(&root.join("BENCHMARK.json"))?;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The paced phase and verification each run two threads; the live
    // counts are checked against the budget where they peak (see `load`).
    if parallelism < 2 {
        return Err(format!(
            "the generator needs 2 threads, but available_parallelism is {parallelism}"
        ));
    }
    let bin = match &args.serve_bin {
        Some(bin) => bin.clone(),
        None => server::build_release(&root)?,
    };
    server::check_release(&bin)?;
    let env = Env {
        parallelism,
        git_rev: git_rev(&root),
        bin,
        out_dir: root.join(".bench_out"),
    };
    let seconds = match args.seconds {
        Some(s) => s,
        None => bench.key_num("run_seconds")?,
    };
    let names: Vec<String> = if args.workload == "all" {
        cfg.workloads.iter().map(|(w, _)| w.name.clone()).collect()
    } else {
        vec![cfg.workload(&args.workload)?.0.name.clone()]
    };
    if let Some(n) = args.repeat {
        return repeat(&cfg, &bench, &env, &names, args.seed, seconds, n);
    }
    let mut code = 0;
    for name in &names {
        let (wl, default_seed) = cfg.workload(name)?;
        let seed = args.seed.unwrap_or(*default_seed);
        println!(
            "perfbench: workload={name} seed={seed} seconds={seconds} trace={} \
             available_parallelism={} git_rev={} serve={}",
            u8::from(args.trace),
            env.parallelism,
            env.git_rev,
            env.bin.display()
        );
        let inputs = Inputs::generate(wl, cfg.structures, seed)?;
        let outcome = if args.trace {
            let probe = if name == PROBE_WORKLOAD {
                None
            } else {
                let (pw, _) = cfg.workload(PROBE_WORKLOAD)?;
                Some(Inputs::generate(pw, cfg.structures, seed)?)
            };
            traced(&cfg, &env, &inputs, probe.as_ref(), seconds)?
        } else {
            measure(&cfg, &env, &inputs, seconds)?
        };
        let section = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        check_names(&bench, section, &outcome.metrics)?;
        let v = &outcome.verification;
        for m in &outcome.metrics {
            println!(
                "  {:<32} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  {:<32} {:>16.6} {:<6} {} of {} failed: {} rejected {:?}, {} unanswered, {} wrong, \
             {} hash mismatches over {} structures, {} stray",
            "failed_frac",
            v.failed() as f64 / v.attempted.max(1) as f64,
            "ratio",
            v.failed(),
            v.attempted,
            v.rejected,
            v.reject_reasons,
            v.unanswered,
            v.wrong,
            v.hash_mismatches,
            v.hashes_checked,
            v.stray
        );
        for e in &outcome.errors {
            println!("  error: {e}");
        }
        let result = outcome.json();
        save_result(&env, name, seed, seconds, args.trace, &result)?;
        println!("{result}");
        if !outcome.correct() {
            code = 1;
        }
    }
    Ok(code)
}

/// Every metric the run emits must be listed under `section` of
/// `BENCHMARK.json`, and every listed one emitted.
fn check_names(bench: &Json, section: &str, metrics: &[Metric]) -> Result<(), String> {
    let mut listed: Vec<&str> = bench
        .req(section)?
        .arr()?
        .iter()
        .map(|m| m.key_str("name"))
        .collect::<Result<_, _>>()?;
    let mut emitted: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    listed.sort_unstable();
    emitted.sort_unstable();
    if listed != emitted {
        return Err(format!(
            "BENCHMARK.json `{section}` lists {listed:?} but the run emits {emitted:?}"
        ));
    }
    Ok(())
}

fn save_result(
    env: &Env,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    result: &str,
) -> Result<(), String> {
    std::fs::create_dir_all(&env.out_dir).map_err(|e| e.to_string())?;
    let path = env
        .out_dir
        .join(format!("result-{name}-trace{}.json", u8::from(trace)));
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"git_rev\": \"{}\", \"serve_bin\": \"{}\", \"result\": {result}}}\n",
        json::num(seconds),
        u8::from(trace),
        env.parallelism,
        env.git_rev,
        trustseq_core::obs::escape_json(&env.bin.display().to_string())
    );
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))
}

fn serve_args<'a>(
    cfg: &Config,
    env: &'a Env,
    inputs: &Inputs,
    metrics_for: Option<u64>,
) -> ServeArgs<'a> {
    ServeArgs {
        bin: &env.bin,
        structures: cfg.structures,
        seed: inputs.server_seed,
        metrics_for,
    }
}

fn io_err(e: std::io::Error) -> String {
    format!("load generator: {e}")
}

/// Starts a server and runs the set-up probe; returns the server, its
/// connection and the seconds from spawn to the first verified reply.
fn start(args: &ServeArgs<'_>, inputs: &Inputs) -> Result<(ServerProc, Conn, f64), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(args)?;
    std::thread::sleep(PROBE_AFTER_BANNER);
    let conn = load::probe(server.addr, inputs)?;
    Ok((server, conn, t0.elapsed().as_secs_f64()))
}

/// Times `n` set-ups, killing each server before the next one spawns, and
/// returns the last server still running, with its connection.
fn set_up(
    serve: &ServeArgs<'_>,
    inputs: &Inputs,
    n: usize,
    times: &mut Vec<f64>,
) -> Result<(ServerProc, Conn), String> {
    let mut kept = None;
    for _ in 0..n.max(1) {
        drop(kept.take());
        let (server, conn, secs) = start(serve, inputs)?;
        times.push(secs);
        kept = Some((server, conn));
    }
    Ok(kept.expect("at least one set-up ran"))
}

/// The untraced run: end-to-end metrics, each over the whole run.
fn measure(cfg: &Config, env: &Env, inputs: &Inputs, seconds: f64) -> Result<Outcome, String> {
    let (saturate, paced_for) = blocks(seconds, CYCLES);
    let serve = serve_args(cfg, env, inputs, None);
    let mut setups = Vec::new();
    let (server, conn) = set_up(&serve, inputs, SETUP_BURST, &mut setups)?;
    let mut s = Session::new(inputs, conn, None);
    s.closed_loop(WARMUP).map_err(io_err)?;
    let (mut answered, mut secs, mut cpu_s) = (0, 0.0, 0.0);
    let (mut slice_rps, mut latencies, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for cycle in 0..CYCLES {
        if cycle > 0 {
            drop(set_up(&serve, inputs, SETUP_BURST, &mut setups)?);
        }
        let cpu0 = server.cpu_s()?;
        let block = s.closed_loop(saturate).map_err(io_err)?;
        cpu_s += server.cpu_s()? - cpu0;
        answered += block.answered;
        secs += block.secs;
        slice_rps.extend(block.slice_rps);
        let paced = s
            .paced(inputs.workload.paced_rps, paced_for)
            .map_err(io_err)?;
        for slice in paced.latencies_ns.chunks(PACED_SLICE) {
            // An unanswered request fails verification; it has no latency.
            let mut v: Vec<f64> = slice.iter().copied().filter(|x| !x.is_nan()).collect();
            v.sort_by(f64::total_cmp);
            p99s.push(percentile(&v, 0.99));
            latencies.extend(v);
        }
    }
    let rss = server.peak_rss_mb()?;
    drop(server);
    drop(set_up(&serve, inputs, SETUP_BURST, &mut setups)?);
    let verification = load::verify(inputs, &s.replies, s.sent)?;
    latencies.sort_by(f64::total_cmp);
    slice_rps.sort_by(f64::total_cmp);
    let sat_note = format!(
        "{answered} requests in {secs:.2} s of saturate, window {WINDOW}",
    );
    let paced_note = format!(
        "{} paced requests at {} req/s",
        latencies.len(),
        inputs.workload.paced_rps
    );
    Ok(Outcome {
        metrics: vec![
            metric(
                "rps",
                "req/s",
                median(&slice_rps),
                format!(
                    "median of {} saturate slices of {} ms ({:.0}..{:.0}); overall {:.0}",
                    slice_rps.len(),
                    SATURATE_SLICE.as_millis(),
                    slice_rps[0],
                    slice_rps[slice_rps.len() - 1],
                    answered as f64 / secs
                ),
            ),
            metric(
                "p50_us",
                "us",
                percentile(&latencies, 0.50) / 1e3,
                paced_note.clone(),
            ),
            metric(
                "p99_us",
                "us",
                median(&p99s) / 1e3,
                format!(
                    "median p99 of {} slices of {PACED_SLICE} paced requests ({} beyond each \
                     p99); pooled p99 {:.1} us",
                    p99s.len(),
                    PACED_SLICE / 100,
                    percentile(&latencies, 0.99) / 1e3
                ),
            ),
            metric(
                "cpu_us_per_req",
                "us",
                cpu_s * 1e6 / answered.max(1) as f64,
                sat_note,
            ),
            metric("rss_mb", "MiB", rss, "server VmHWM at the end of the run"),
            metric(
                "setup_s",
                "s",
                median(&setups),
                format!(
                    "median of {} spawns to first verified reply, in {} bursts",
                    setups.len(),
                    CYCLES + 1
                ),
            ),
        ],
        verification,
        errors: Vec::new(),
    })
}

/// Sums a thread-CPU sample over threads whose name starts with `prefix`.
fn cpu_of(threads: &[(String, f64)], prefix: &str) -> f64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, cpu)| cpu)
        .sum()
}

fn add(a: Verification, b: Verification) -> Verification {
    Verification {
        attempted: a.attempted + b.attempted,
        rejected: a.rejected + b.rejected,
        reject_reasons: {
            let mut r = a.reject_reasons;
            for (k, n) in b.reject_reasons {
                *r.entry(k).or_default() += n;
            }
            r
        },
        unanswered: a.unanswered + b.unanswered,
        wrong: a.wrong + b.wrong,
        hash_mismatches: a.hash_mismatches + b.hash_mismatches,
        hashes_checked: a.hashes_checked + b.hashes_checked,
        stray: a.stray + b.stray,
    }
}

/// The traced run: per-layer metrics.
///
/// 1. An untraced server runs `saturate` while its per-thread CPU is read
///    from `/proc` — the reference throughput and the thread split.
/// 2. A server with `--metrics` runs both phases while the generator polls
///    `stats` for queue depth; its exit dump gives the `svc.*` and
///    `cache.*` counters.
/// 3. While that server runs out its duration, the same inputs are
///    replayed in-process through each layer (see [`replay`]). Layers the
///    workload never reaches are replayed on the probe workload's inputs
///    at the same seed, and marked `probe`.
fn traced(
    cfg: &Config,
    env: &Env,
    inputs: &Inputs,
    probe: Option<&Inputs>,
    seconds: f64,
) -> Result<Outcome, String> {
    let (saturate, paced_for) = blocks(seconds, 1);

    let (server, conn, _) = start(&serve_args(cfg, env, inputs, None), inputs)?;
    let mut a = Session::new(inputs, conn, None);
    a.closed_loop(WARMUP).map_err(io_err)?;
    let threads0 = server.thread_cpu_s()?;
    let block_a = a.closed_loop(saturate).map_err(io_err)?;
    let threads1 = server.thread_cpu_s()?;
    drop(server);
    let reader_cpu = cpu_of(&threads1, "trustseq-svc-co") - cpu_of(&threads0, "trustseq-svc-co");
    let worker_cpu = cpu_of(&threads1, "trustseq-pool") - cpu_of(&threads0, "trustseq-pool");
    let (wall, reqs_a) = (block_a.secs, block_a.answered.max(1) as f64);
    let va = load::verify(inputs, &a.replies, a.sent)?;
    drop(a);

    // The server drains after `duration` and sheds what arrives later as
    // `draining`, so it is given ample slack past the phases' own time.
    let budget = (WARMUP + saturate + paced_for).as_secs_f64();
    let duration = budget.ceil() as u64 + DRAIN_SLACK_S;
    let (server, conn, _) = start(&serve_args(cfg, env, inputs, Some(duration)), inputs)?;
    let mut b = Session::new(inputs, conn, Some(POLL));
    b.closed_loop(WARMUP).map_err(io_err)?;
    let block_b = b.closed_loop(saturate).map_err(io_err)?;
    let paced = b
        .paced(inputs.workload.paced_rps, paced_for)
        .map_err(io_err)?;

    let rps_a = block_a.answered as f64 / block_a.secs;
    let rps_b = block_b.answered as f64 / block_b.secs;
    let mut tracer = Tracer::new();
    let own = replay::replay(&mut tracer, inputs, REPLAY_REQUESTS, "workload");
    let probed = probe.map(|p| replay::replay(&mut tracer, p, REPLAY_REQUESTS, "probe"));
    let timer_ns = tracer.span_cost_ns();
    let spans = env
        .out_dir
        .join(format!("spans-{}.jsonl", inputs.workload.name));
    tracer
        .write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let output = server.wait_output(Duration::from_secs(duration + 30))?;
    let dump = output
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("`serve --metrics` printed no JSON dump")
        .and_then(|l| Json::parse(l).map_err(|_| "unparseable metrics dump"))?;
    let vb = load::verify(inputs, &b.replies, b.sent)?;

    let counter = |name: &str| dump.get(name).and_then(|v| v.num().ok()).unwrap_or(0.0);
    let (request_count, request_sum) = dump.get("svc.request_ns").map_or((0.0, 0.0), |h| {
        (
            h.key_num("count").unwrap_or(0.0),
            h.key_num("sum").unwrap_or(0.0),
        )
    });
    let (tier1, tier2, misses) = (
        counter("cache.tier1_hits"),
        counter("cache.tier2_hits"),
        counter("cache.misses"),
    );
    let lookups = (tier1 + tier2 + misses).max(1.0);

    let own_t = tracer.self_times("workload");
    let probe_t = tracer.self_times("probe");
    let find = |t: &[(Stage, u64, u64)], stage: Stage| {
        t.iter()
            .find(|(s, _, _)| *s == stage)
            .map(|&(_, calls, ns)| (calls, ns))
            .unwrap_or((0, 0))
    };
    // A stage's mean self time and call count, from the workload's own
    // replay when it reaches the stage, else from the probe replay.
    let stage = |stages: &[Stage]| -> (f64, u64, &'static str) {
        let from_own = find(&own_t, stages[0]).0 > 0;
        let t = if from_own { &own_t } else { &probe_t };
        let mean = stages
            .iter()
            .map(|&s| {
                let (calls, ns) = find(t, s);
                ns as f64 / calls.max(1) as f64 - timer_ns
            })
            .sum();
        (
            mean,
            find(t, stages[0]).0,
            if from_own { "workload" } else { "probe" },
        )
    };
    let per_request = |on: fn(Stage) -> bool| -> f64 {
        own_t
            .iter()
            .filter(|(s, _, _)| on(*s))
            .map(|&(_, calls, ns)| ns as f64 - calls as f64 * timer_ns)
            .sum::<f64>()
            / own.requests.max(1) as f64
    };

    let mut metrics = Vec::new();
    let timed: [(&str, &[Stage]); 14] = [
        ("net.frame_encode", &[Stage::FrameEncode]),
        ("net.frame_decode", &[Stage::FrameDecode]),
        ("codec.request_parse", &[Stage::RequestParse]),
        ("codec.reply_encode", &[Stage::ReplyEncode]),
        ("quota.take", &[Stage::QuotaTake]),
        ("queue.push_pop", &[Stage::QueuePush, Stage::QueuePop]),
        ("market.apply", &[Stage::MarketApply]),
        ("cache.invalidate", &[Stage::CacheInvalidate]),
        ("cache.verdict", &[Stage::CacheVerdict]),
        ("canon.prefingerprint", &[Stage::Prefingerprint]),
        ("canon.canonicalize", &[Stage::Canonicalize]),
        ("lang.parse", &[Stage::LangParse]),
        ("build.from_spec", &[Stage::BuildFromSpec]),
        ("reduce.verdict", &[Stage::ReduceVerdict]),
    ];
    for (name, stages) in timed {
        let (mean, calls, source) = stage(stages);
        let note = format!("replay ({source}), net of {timer_ns:.1} ns timer cost per span");
        metrics.push(metric(&format!("{name}_ns"), "ns", mean, note));
        metrics.push(metric(
            &format!("{name}_calls"),
            "count",
            calls as f64,
            format!("replay ({source})"),
        ));
    }
    let req_n = own.requests.max(1) as f64;
    metrics.push(metric(
        "codec.request_bytes",
        "bytes",
        own.request_bytes as f64 / req_n,
        "mean request frame",
    ));
    metrics.push(metric(
        "codec.reply_bytes",
        "bytes",
        own.reply_bytes as f64 / req_n,
        "mean reply frame",
    ));
    let mut depths: Vec<f64> = b.replies.depths.iter().map(|&d| f64::from(d)).collect();
    depths.sort_by(f64::total_cmp);
    let polls = format!("{} stats polls", depths.len());
    metrics.push(metric(
        "server.queue_depth_p50",
        "count",
        percentile(&depths, 0.5),
        polls.clone(),
    ));
    metrics.push(metric(
        "server.queue_depth_max",
        "count",
        depths.last().copied().unwrap_or(0.0),
        polls,
    ));
    metrics.push(metric(
        "server.reader_cpu_frac",
        "ratio",
        reader_cpu / wall,
        "reader thread CPU / saturate wall",
    ));
    metrics.push(metric(
        "server.worker_cpu_frac",
        "ratio",
        worker_cpu / wall,
        "worker thread CPU / saturate wall",
    ));
    metrics.push(metric(
        "server.request_ns",
        "ns",
        request_sum / request_count.max(1.0),
        "svc.request_ns from the exit dump",
    ));
    metrics.push(metric(
        "server.request_calls",
        "count",
        request_count,
        "svc.request_ns count",
    ));
    metrics.push(metric(
        "server.reader_unattributed_ns",
        "ns",
        reader_cpu * 1e9 / reqs_a - per_request(Stage::on_reader),
        "reader CPU per request minus replayed decode+parse+quota+push",
    ));
    metrics.push(metric(
        "server.worker_unattributed_ns",
        "ns",
        worker_cpu * 1e9 / reqs_a - per_request(Stage::on_worker),
        "worker CPU per request minus replayed pop+process+encode+frame",
    ));
    let market = if own.applies > 0 {
        own
    } else {
        probed.unwrap_or(own)
    };
    let applies = market.applies.max(1) as f64;
    metrics.push(metric(
        "market.noop_frac",
        "ratio",
        market.noop_applies as f64 / applies,
        "replay",
    ));
    metrics.push(metric(
        "delta.undone_steps_per_event",
        "steps",
        market.undone_steps as f64 / applies,
        "replay",
    ));
    metrics.push(metric(
        "delta.fallback_frac",
        "ratio",
        market.fallbacks as f64 / applies,
        "fallbacks per event, replay",
    ));
    metrics.push(metric(
        "cache.hit_ratio",
        "ratio",
        (tier1 + tier2) / lookups,
        format!("{lookups} server lookups"),
    ));
    metrics.push(metric(
        "cache.label_hit_ratio",
        "ratio",
        tier1 / lookups,
        "tier-1 hits / server lookups",
    ));
    metrics.push(metric(
        "cache.evictions",
        "count",
        counter("cache.evictions"),
        "exit dump",
    ));
    let (_, reduce_calls, _) = stage(&[Stage::ReduceVerdict]);
    let reducer = if find(&own_t, Stage::ReduceVerdict).0 > 0 {
        own
    } else {
        probed.unwrap_or(own)
    };
    metrics.push(metric(
        "reduce.steps_per_spec",
        "steps",
        reducer.reduce_steps as f64 / reduce_calls.max(1) as f64,
        "replay",
    ));
    metrics.push(metric(
        "client.send_lag_p99_us",
        "us",
        percentile(&paced.lags_ns, 0.99) / 1e3,
        format!("paced writer lateness, n={}", paced.lags_ns.len()),
    ));
    metrics.push(metric(
        "trace.overhead_frac",
        "ratio",
        1.0 - rps_b / rps_a,
        format!("traced {rps_b:.0} vs untraced {rps_a:.0} req/s"),
    ));

    print_layers(&cfg.layers, &inputs.workload.name, &metrics);
    let mut errors = Vec::new();
    for (what, c) in [("workload", Some(own)), ("probe", probed)] {
        if let Some(c) = c.filter(|c| c.mismatches > 0) {
            errors.push(format!(
                "{what} replay: {} cache verdicts disagreed with the resident analyzer",
                c.mismatches
            ));
        }
    }
    println!("  spans: {}", spans.display());
    Ok(Outcome {
        metrics,
        verification: add(va, vb),
        errors,
    })
}

/// Prints which end-to-end metrics each layer's numbers should move, on
/// which workloads, and which workloads never run the layer's code, as
/// `config.json` records it.
fn print_layers(layers: &Json, workload: &str, metrics: &[Metric]) {
    let Ok(layers) = layers.arr() else {
        return;
    };
    for layer in layers {
        let list = |k: &str| -> Vec<String> {
            layer
                .get(k)
                .and_then(|v| v.arr().ok())
                .map(|a| {
                    a.iter()
                        .filter_map(|x| x.str().ok().map(String::from))
                        .collect()
                })
                .unwrap_or_default()
        };
        let on = list("on");
        let tag = if on.iter().any(|w| w == workload) {
            "exercised"
        } else if list("not_on").iter().any(|w| w == workload) {
            "not run"
        } else {
            "incidental"
        };
        println!(
            "  [{}] moves {} on {} — {tag} here",
            layer.key_str("layer").unwrap_or("?"),
            list("moves").join(", "),
            on.join(", ")
        );
        for name in list("metrics") {
            if let Some(m) = metrics.iter().find(|m| m.name == name) {
                let calls = metrics
                    .iter()
                    .find(|c| c.name == format!("{}_calls", name.trim_end_matches("_ns")))
                    .map(|c| format!(" calls={}", c.value))
                    .unwrap_or_default();
                println!(
                    "      {:<32} {:>14.4} {:<6}{calls}",
                    m.name, m.value, m.unit
                );
            }
        }
    }
}

/// Runs each workload `n` times on consecutive seeds and prints every
/// end-to-end metric's median and quartiles next to its bound.
fn repeat(
    cfg: &Config,
    bench: &Json,
    env: &Env,
    names: &[String],
    seed: Option<u64>,
    seconds: f64,
    n: usize,
) -> Result<i32, String> {
    let mut code = 0;
    for name in names {
        let (wl, default_seed) = cfg.workload(name)?;
        let first = seed.unwrap_or(*default_seed);
        let mut runs: Vec<Vec<Metric>> = Vec::new();
        for i in 0..n as u64 {
            let inputs = Inputs::generate(wl, cfg.structures, first + i)?;
            let outcome = measure(cfg, env, &inputs, seconds)?;
            eprintln!("perfbench: {name} seed {} {}", first + i, outcome.json());
            if !outcome.correct() {
                code = 1;
            }
            runs.push(outcome.metrics);
        }
        println!(
            "{name}: {n} runs, seeds {first}..{}, {seconds} s each, available_parallelism={} git_rev={}",
            first + n as u64 - 1,
            env.parallelism,
            env.git_rev
        );
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for spec in bench.req("end_to_end")?.arr()? {
            let metric_name = spec.key_str("name")?;
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|m| m.name == metric_name).map(|m| m.value))
                .collect();
            let (q1, q3) = quartiles(&values);
            let mid = median(&values);
            let spread = (q3 - q1) / mid.abs().max(f64::MIN_POSITIVE);
            let bound = spec.key_num("bound")?;
            println!(
                "  {metric_name:<16} {mid:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4} {bound:>7.3}{}",
                if spread < bound / 3.0 { "" } else { "  (spread above a third of the bound)" }
            );
        }
    }
    Ok(code)
}
