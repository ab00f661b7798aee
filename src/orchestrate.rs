//! Multi-process orchestration: spawn one `trustseq dist-node` OS process
//! per principal over loopback sockets, supervise the run from the parent,
//! and (for the chaos matrix) compare every verdict with the centralised
//! reducer.
//!
//! This is the parent half of the socket transport introduced with the
//! `dist::net`/`dist::supervise` modules: the parent binds the control
//! plane, writes the shared network-description and spec files to a
//! per-run temp directory, spawns the children, optionally crash-kills one
//! mid-run (the `crash` fault class — a real SIGKILL, not a simulated
//! flag), and harvests every child under a deadline so no run can leak a
//! hung process.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trustseq_core::obs;
use trustseq_dist::net::{free_loopback_ports, Addr, Listener, NetworkDescription};
use trustseq_dist::{
    participants_and_edges, run_supervisor, FaultPlan, SocketOutcome, SuperviseConfig,
};
use trustseq_lang::parse_spec;
use trustseq_model::AgentId;

/// Which socket family a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// TCP over 127.0.0.1, ports probed by binding port 0.
    Tcp,
    /// Unix-domain sockets in the run's temp directory (no port races —
    /// the chaos matrix default).
    Unix,
}

/// A completed multi-process run: the supervisor's outcome plus process
/// accounting.
#[derive(Debug)]
pub struct MultiProcessRun {
    /// The supervisor's verdict and per-node reports.
    pub outcome: SocketOutcome,
    /// Child processes spawned.
    pub spawned: usize,
    /// Children that had to be killed at harvest time because they out-
    /// lived the halt broadcast and their own watchdog margin. Always 0 in
    /// a healthy run; counted (not hidden) so the matrix can assert on it.
    pub hung: usize,
}

static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn run_dir() -> PathBuf {
    let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("trustseq-run-{}-{n}", std::process::id()))
}

/// Spawns one `dist-node` process per participant of `spec_source`, runs
/// the supervisor in this process, and returns the outcome. `crash_kill`
/// SIGKILLs the given principal's process after the given delay — the
/// only fault that is *not* in the plan, because it is real.
///
/// # Errors
///
/// Parse failures, socket errors, and spawn failures, as readable strings.
pub fn run_multiprocess(
    binary: &Path,
    spec_source: &str,
    transport: TransportKind,
    plan: &FaultPlan,
    config: &SuperviseConfig,
    crash_kill: Option<(AgentId, u64)>,
) -> Result<MultiProcessRun, String> {
    let spec = parse_spec(spec_source).map_err(|e| format!("parse error: {e}"))?;
    let (agents, total_edges) =
        participants_and_edges(&spec).map_err(|e| format!("spec error: {e}"))?;
    plan.check(&agents, false).map_err(|e| e.to_string())?;

    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // Best-effort cleanup even on early return.
    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let _cleanup = Cleanup(dir.clone());

    let (supervisor_addr, node_addrs) = match transport {
        TransportKind::Tcp => {
            let ports = free_loopback_ports(agents.len() + 1)
                .map_err(|e| format!("cannot probe ports: {e}"))?;
            let sup = Addr::Tcp(format!("127.0.0.1:{}", ports[0]));
            let nodes: BTreeMap<AgentId, Addr> = agents
                .iter()
                .zip(&ports[1..])
                .map(|(&a, &p)| (a, Addr::Tcp(format!("127.0.0.1:{p}"))))
                .collect();
            (sup, nodes)
        }
        TransportKind::Unix => {
            let sup = Addr::Unix(dir.join("sup.sock"));
            let nodes: BTreeMap<AgentId, Addr> = agents
                .iter()
                .map(|&a| (a, Addr::Unix(dir.join(format!("{a}.sock")))))
                .collect();
            (sup, nodes)
        }
    };
    let desc = NetworkDescription {
        supervisor: supervisor_addr.clone(),
        nodes: node_addrs,
        config: Some(config.to_wire()),
    };
    let net_path = dir.join("net.txt");
    let spec_path = dir.join("run.tseq");
    std::fs::write(&net_path, desc.to_text()).map_err(|e| format!("cannot write net: {e}"))?;
    std::fs::write(&spec_path, spec_source).map_err(|e| format!("cannot write spec: {e}"))?;

    // Bind the control plane before any child can try to connect.
    let listener =
        Listener::bind(&supervisor_addr).map_err(|e| format!("cannot bind supervisor: {e}"))?;

    let children: Arc<Mutex<BTreeMap<AgentId, Child>>> = Arc::new(Mutex::new(BTreeMap::new()));
    for &agent in &agents {
        let mut cmd = Command::new(binary);
        cmd.arg("dist-node")
            .arg("--net")
            .arg(&net_path)
            .arg("--id")
            .arg(agent.to_string());
        if !plan.is_faultless() {
            cmd.arg("--faults").arg(plan.to_string());
        }
        cmd.arg(&spec_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn dist-node for {agent}: {e}"))?;
        children.lock().expect("children lock").insert(agent, child);
    }
    let spawned = agents.len();

    // The crash-kill fault class: a real SIGKILL from a side thread while
    // the protocol runs.
    let killer = crash_kill.map(|(victim, after_ms)| {
        let children = Arc::clone(&children);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(after_ms));
            if let Some(child) = children.lock().expect("children lock").get_mut(&victim) {
                let _ = child.kill();
            }
        })
    });

    let outcome = run_supervisor(listener, &agents, total_edges, config)
        .map_err(|e| format!("supervisor failed: {e}"))?;

    if let Some(k) = killer {
        let _ = k.join();
    }

    // Harvest every child under a deadline: after the halt broadcast each
    // node exits on its own; the watchdog margin bounds the stragglers.
    let mut hung = 0;
    let harvest_deadline = Instant::now() + Duration::from_millis(5000);
    let mut children = match Arc::try_unwrap(children) {
        Ok(m) => m.into_inner().expect("children lock"),
        Err(_) => return Err("killer thread leaked".into()),
    };
    for (_, child) in children.iter_mut() {
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() >= harvest_deadline => {
                    hung += 1;
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => break,
            }
        }
    }

    // Feed the run's traffic totals into the obs taxonomy (`net.*`) so
    // `--metrics` surfaces them alongside the reducer/cache counters.
    obs::with(|r| {
        r.counter("net.bytes_sent", outcome.bytes_sent());
        r.counter("net.frames_rx", outcome.frames_received());
        r.counter("net.reconnects", outcome.reconnects());
        r.observe("net.rtt_us", outcome.max_rtt_us());
    });

    Ok(MultiProcessRun {
        outcome,
        spawned,
        hung,
    })
}

/// One cell of the socket chaos matrix.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Fault class (`drop`, `dup`, `reorder`, `corrupt`, `partition`,
    /// `crash`).
    pub class: &'static str,
    /// Fixture name.
    pub fixture: &'static str,
    /// Plan seed.
    pub seed: u64,
    /// The supervisor's verdict token.
    pub verdict: String,
    /// The centralised reducer's answer for the same spec.
    pub expected_feasible: bool,
    /// Decided-and-correct, or explicitly undecided. `false` = a wrong
    /// verdict, the one thing the protocol must never produce.
    pub agree: bool,
    /// Wall-clock, milliseconds.
    pub elapsed_ms: u64,
    /// Total bytes sent across nodes.
    pub bytes_sent: u64,
    /// Total frames received across nodes.
    pub frames_rx: u64,
    /// Total link reconnections.
    pub reconnects: u64,
    /// Child processes killed at harvest (must be 0).
    pub hung: usize,
}

/// The full matrix report, serialisable as `BENCH_sockets.json`.
#[derive(Debug)]
pub struct MatrixReport {
    /// Every run, in execution order.
    pub runs: Vec<MatrixRun>,
    /// Runs that decided (feasible/infeasible) and matched the reducer.
    pub decided_correct: usize,
    /// Runs that degraded to an explicit `Undecided`.
    pub undecided: usize,
    /// Runs that decided *wrongly* — must be 0.
    pub wrong: usize,
    /// Hung processes across all runs — must be 0.
    pub hung_total: usize,
}

impl MatrixReport {
    /// `true` when no run produced a wrong verdict, a panic-equivalent
    /// supervisor failure, or a hung process.
    pub fn clean(&self) -> bool {
        self.wrong == 0 && self.hung_total == 0
    }

    /// Renders the `BENCH_sockets.json` document.
    pub fn to_json(&self) -> String {
        let mut per_class: BTreeMap<&str, (usize, usize, usize)> = BTreeMap::new();
        for run in &self.runs {
            let slot = per_class.entry(run.class).or_default();
            slot.0 += 1;
            if run.verdict.starts_with("undecided") {
                slot.2 += 1;
            } else if run.agree {
                slot.1 += 1;
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"suite\": \"sockets\",");
        let _ = writeln!(
            out,
            "  \"note\": \"multi-process chaos matrix over loopback sockets: one trustseq dist-node OS process per principal, parent-side supervisor, fault classes injected at the socket layer (drop/dup/reorder/corrupt at the sending link, partition via connection refusal, crash via real SIGKILL of a child). agreement means the verdict is either correct or an explicit undecided with a reason — never a wrong feasible/infeasible.\","
        );
        let _ = writeln!(
            out,
            "  \"cpu_count\": {},",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        let _ = writeln!(out, "  \"total_runs\": {},", self.runs.len());
        let _ = writeln!(out, "  \"decided_correct\": {},", self.decided_correct);
        let _ = writeln!(out, "  \"undecided\": {},", self.undecided);
        let _ = writeln!(out, "  \"wrong_verdicts\": {},", self.wrong);
        let _ = writeln!(out, "  \"hung_processes\": {},", self.hung_total);
        let _ = writeln!(out, "  \"per_class\": [");
        let n_classes = per_class.len();
        for (i, (class, (runs, correct, undecided))) in per_class.into_iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"class\": \"{class}\", \"runs\": {runs}, \"decided_correct\": {correct}, \"undecided\": {undecided} }}{}",
                if i + 1 < n_classes { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"runs\": [");
        for (i, run) in self.runs.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"class\": \"{}\", \"fixture\": \"{}\", \"seed\": {}, \"verdict\": \"{}\", \"expected_feasible\": {}, \"agree\": {}, \"elapsed_ms\": {}, \"bytes_sent\": {}, \"frames_rx\": {}, \"reconnects\": {}, \"hung\": {} }}{}",
                run.class,
                run.fixture,
                run.seed,
                run.verdict,
                run.expected_feasible,
                run.agree,
                run.elapsed_ms,
                run.bytes_sent,
                run.frames_rx,
                run.reconnects,
                run.hung,
                if i + 1 < self.runs.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }
}

/// The timing profile the matrix uses: snappier than the defaults so 90
/// runs finish in minutes while still exercising reconnect/backoff.
pub fn matrix_config() -> SuperviseConfig {
    SuperviseConfig {
        tick_ms: 5,
        status_every: 8,
        heartbeat_ms: 150,
        connect_timeout_ms: 400,
        read_timeout_ms: 20,
        reconnect_base_ms: 8,
        reconnect_max_ms: 120,
        max_attempts: 5,
        ack_timeout_ms: 50,
        settle_ms: 200,
        stale_ms: 1500,
        deadline_ms: 8_000,
        jitter_seed: 1,
    }
}

/// Runs the socket chaos matrix: every fault class × fixture × seed as a
/// real multi-process run, each verdict checked against the centralised
/// reducer. `quick` shrinks the grid to one fixture and one seed per class
/// (the CI smoke profile).
///
/// # Errors
///
/// Propagates per-run orchestration failures (spawn/bind errors) as
/// strings; verdict disagreements are *not* errors — they are recorded and
/// surfaced via [`MatrixReport::clean`].
pub fn socket_chaos_matrix(binary: &Path, quick: bool) -> Result<MatrixReport, String> {
    let fixtures: Vec<(&'static str, String)> = [
        ("example1", trustseq_core::fixtures::example1().0),
        ("figure7", trustseq_core::fixtures::figure7().0),
        ("poor_broker", trustseq_core::fixtures::poor_broker().0),
    ]
    .into_iter()
    .map(|(name, spec)| (name, trustseq_lang::print(&spec)))
    .collect();
    let fixtures: Vec<(&'static str, String)> = if quick {
        fixtures.into_iter().take(1).collect()
    } else {
        fixtures
    };
    let seeds: Vec<u64> = if quick { vec![1] } else { vec![1, 2, 3, 4, 5] };
    let classes: [&'static str; 6] = ["drop", "dup", "reorder", "corrupt", "partition", "crash"];
    let transport = if cfg!(unix) {
        TransportKind::Unix
    } else {
        TransportKind::Tcp
    };
    let config = matrix_config();

    let mut runs = Vec::new();
    let (mut decided_correct, mut undecided, mut wrong, mut hung_total) = (0, 0, 0, 0);
    for (fixture, source) in &fixtures {
        let spec = parse_spec(source).map_err(|e| format!("fixture {fixture}: {e}"))?;
        let expected = trustseq_core::analyze(&spec)
            .map_err(|e| format!("fixture {fixture}: {e}"))?
            .feasible;
        let (agents, _) = participants_and_edges(&spec).map_err(|e| e.to_string())?;
        let agents: Vec<AgentId> = agents.into_iter().collect();
        for class in classes {
            for &seed in &seeds {
                let mut plan = FaultPlan::seeded(seed);
                let mut crash_kill = None;
                match class {
                    "drop" => plan = plan.with_drop_per_mille(200),
                    "dup" => plan = plan.with_dup_per_mille(250),
                    "reorder" => plan = plan.with_max_extra_delay(4),
                    "corrupt" => plan = plan.with_corrupt_per_mille(150),
                    "partition" => {
                        // Cut one link for ~0.4s of ticks mid-run; both
                        // endpoints refuse the pair's connections, then
                        // reconnect/backoff heals it.
                        let a = agents[seed as usize % agents.len()];
                        let b = agents[(seed as usize + 1) % agents.len()];
                        plan = plan.with_partition(trustseq_dist::Partition {
                            a,
                            b,
                            from_round: 10,
                            until_round: 90,
                        });
                    }
                    "crash" => {
                        // A real SIGKILL of one child mid-protocol; the
                        // plan itself stays empty.
                        let victim = agents[seed as usize % agents.len()];
                        crash_kill = Some((victim, 150 + 50 * seed));
                    }
                    _ => unreachable!(),
                }
                let run = run_multiprocess(binary, source, transport, &plan, &config, crash_kill)
                    .map_err(|e| format!("{class}/{fixture}/seed {seed}: {e}"))?;
                let verdict = &run.outcome.verdict;
                let agree = match verdict.decided() {
                    Some(feasible) => feasible == expected,
                    None => true,
                };
                match verdict.decided() {
                    Some(f) if f == expected => decided_correct += 1,
                    Some(_) => wrong += 1,
                    None => undecided += 1,
                }
                hung_total += run.hung;
                runs.push(MatrixRun {
                    class,
                    fixture,
                    seed,
                    verdict: verdict.to_token().to_string(),
                    expected_feasible: expected,
                    agree,
                    elapsed_ms: run.outcome.elapsed_ms,
                    bytes_sent: run.outcome.bytes_sent(),
                    frames_rx: run.outcome.frames_received(),
                    reconnects: run.outcome.reconnects(),
                    hung: run.hung,
                });
            }
        }
    }
    Ok(MatrixReport {
        runs,
        decided_correct,
        undecided,
        wrong,
        hung_total,
    })
}
