//! Process-level tests of the socket transport: real `dist-node` child
//! processes over loopback, supervised by the parent binary.

use std::path::Path;
use std::process::Command;

fn trustseq(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_trustseq");
    let output = Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn dist_run_agrees_with_the_centralised_reducer_over_tcp() {
    let (ok, stdout, stderr) = trustseq(&["dist-run", "specs/example1.tseq"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verdict: feasible"), "{stdout}");
    assert!(stdout.contains("0 hung"), "{stdout}");

    let (ok, stdout, stderr) = trustseq(&["dist-run", "specs/poor_broker.tseq"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verdict: infeasible"), "{stdout}");
}

#[cfg(unix)]
#[test]
fn dist_run_works_over_unix_sockets_with_faults() {
    let (ok, stdout, stderr) = trustseq(&[
        "dist-run",
        "--transport",
        "unix",
        "--faults",
        "seed=5;drop=200;dup=100;delay=2",
        "specs/example1.tseq",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verdict: feasible"), "{stdout}");
}

#[test]
fn dist_run_records_net_metrics() {
    let (ok, stdout, stderr) = trustseq(&["dist-run", "--metrics", "specs/example1.tseq"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("net.bytes_sent"), "{stdout}");
    assert!(stdout.contains("net.frames_rx"), "{stdout}");
    assert!(stdout.contains("net.reconnects"), "{stdout}");
    assert!(stdout.contains("net.rtt_us"), "{stdout}");
}

#[test]
fn dist_run_writes_an_audit_journal() {
    let dir = std::env::temp_dir().join(format!("trustseq-sockets-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("audit.jsonl");
    let (ok, _, stderr) = trustseq(&[
        "dist-run",
        "--journal",
        journal.to_str().unwrap(),
        "specs/example1.tseq",
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.starts_with("{\"type\":\"run_start\""), "{text}");
    assert!(text.contains("\"type\":\"removal\""), "{text}");
    assert!(text.contains("\"type\":\"verdict\""), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `journal-replay` names a socket audit journal for what it is instead
/// of failing to parse its supervision config.
#[test]
fn a_socket_audit_journal_is_refused_by_name() {
    let dir = std::env::temp_dir().join(format!("trustseq-replay-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("audit.jsonl");
    let journal = journal.to_str().unwrap();
    let (ok, _, stderr) = trustseq(&["dist-run", "--journal", journal, "specs/example1.tseq"]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) = trustseq(&["journal-replay", journal]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("socket audit journal"), "{stderr}");
    assert!(stderr.contains("only `dist` journals replay"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A fault plan the socket runtime cannot honour is refused before any
/// process starts: a crash schedule (socket runs crash a node by killing
/// it), and an agent outside the spec, in the words `dist` uses.
#[test]
fn dist_run_refuses_a_plan_it_cannot_honour() {
    let crash = "seed=1;crash=a1@1..";
    let (ok, stdout, stderr) = trustseq(&["dist-run", "--faults", crash, "specs/example1.tseq"]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("`crash=`"), "{stderr}");
    assert!(stderr.contains("only by `dist`"), "{stderr}");

    let cut = "seed=1;cut=a0~a99@1..";
    let (ok, stdout, socket) = trustseq(&["dist-run", "--faults", cut, "specs/example1.tseq"]);
    assert!(!ok, "{stdout}");
    let (ok, stdout, in_process) = trustseq(&["dist", "--faults", cut, "specs/example1.tseq"]);
    assert!(!ok, "{stdout}");
    assert!(socket.contains("unknown agent a99"), "{socket}");
    assert_eq!(socket, in_process);
}

#[test]
fn dist_node_validates_its_flags() {
    // Missing --net / --id are usage errors, not hangs.
    let (ok, _, stderr) = trustseq(&["dist-node", "specs/example1.tseq"]);
    assert!(!ok);
    assert!(stderr.contains("--net"), "{stderr}");

    let (ok, _, stderr) = trustseq(&[
        "dist-node",
        "--net",
        "/nonexistent-net.txt",
        "--id",
        "bogus",
        "specs/example1.tseq",
    ]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn quick_chaos_matrix_is_clean() {
    let dir = std::env::temp_dir().join(format!("trustseq-matrix-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("bench.json");
    let (ok, stdout, stderr) =
        trustseq(&["chaos-sockets", "--quick", "--out", out.to_str().unwrap()]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("0 wrong verdicts"), "{stdout}");
    assert!(stdout.contains("0 hung processes"), "{stdout}");
    let json = std::fs::read_to_string(&out).unwrap();
    assert!(json.contains("\"suite\": \"sockets\""), "{json}");
    assert!(json.contains("\"wrong_verdicts\": 0"), "{json}");
    for class in ["drop", "dup", "reorder", "corrupt", "partition", "crash"] {
        assert!(json.contains(&format!("\"class\": \"{class}\"")), "{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn network_description_files_round_trip_through_dist_node_errors() {
    // A malformed network description is a typed error.
    let dir = std::env::temp_dir().join(format!("trustseq-net-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.txt");
    std::fs::write(&net, "garbage without structure\n").unwrap();
    let (ok, _, stderr) = trustseq(&[
        "dist-node",
        "--net",
        net.to_str().unwrap(),
        "--id",
        "a0",
        "specs/example1.tseq",
    ]);
    assert!(!ok);
    assert!(stderr.contains("bad network description"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sample_specs_used_by_the_matrix_exist() {
    for f in [
        "specs/example1.tseq",
        "specs/figure7.tseq",
        "specs/poor_broker.tseq",
    ] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(f).exists(),
            "{f}"
        );
    }
}
