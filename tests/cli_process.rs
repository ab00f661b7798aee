//! Process-level tests of the `trustseq` binary against the shipped sample
//! specifications.

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
fn sample_specs_exist() {
    for f in [
        "specs/example1.tseq",
        "specs/example2.tseq",
        "specs/figure7.tseq",
        "specs/poor_broker.tseq",
        "specs/direct_trust.tseq",
        "specs/cross_domain.tseq",
        "specs/shared_escrow.tseq",
    ] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(f).exists(),
            "{f} missing"
        );
    }
}

#[test]
fn check_command_on_all_samples() {
    for (file, feasible) in [
        ("specs/example1.tseq", true),
        ("specs/example2.tseq", false),
        ("specs/figure7.tseq", false),
        ("specs/poor_broker.tseq", false),
        ("specs/direct_trust.tseq", true),
        ("specs/cross_domain.tseq", true),
    ] {
        let (ok, stdout, stderr) = trustseq(&["check", file]);
        assert!(ok, "{file}: {stderr}");
        if feasible {
            assert!(stdout.starts_with("feasible"), "{file}: {stdout}");
        } else {
            assert!(stdout.starts_with("infeasible"), "{file}: {stdout}");
        }
    }
}

/// The §5 execution sequence of Example #1, step for step. The order
/// follows the deterministic reduction trace, so any change to which move
/// the engine picks first shows up here.
#[test]
fn sequence_command_prints_ten_steps() {
    let (ok, stdout, _) = trustseq(&["sequence", "specs/example1.tseq"]);
    assert!(ok);
    assert_eq!(
        stdout,
        "  1. p sends doc to t2
  2. t2 notifies b
  3. c sends $100.00 to t1
  4. t1 notifies b
  5. b sends $80.00 to t2
  6. t2 sends doc to b
  7. t2 sends $80.00 to p
  8. b sends doc to t1
  9. t1 sends doc to c
 10. t1 sends $100.00 to b
"
    );
}

/// Example #2's §4.2.2 impasse: the verdict line, then the residual graph
/// that the owning reducer hands back after replaying its trace.
#[test]
fn check_command_prints_the_example2_impasse() {
    let (ok, stdout, _) = trustseq(&["check", "specs/example2.tseq"]);
    assert!(ok);
    assert_eq!(
        stdout,
        "infeasible: 10 edges remain after 4 reductions
sequencing graph: 8 commitments, 7 conjunctions, 10/14 edges live
  e0 [black] : (a0--a5 d0 buyer) -- and[a0]
  e1 [black] : (a0--a5 d0 buyer) -- and[a5]
  e2 [red] : (a1--a5 d0 seller) -- and[a1]
  e3 [black] : (a1--a5 d0 seller) -- and[a5]
  e4 [black] : (a1--a6 d1 buyer) -- and[a1]
  e7 [black] : (a0--a7 d2 buyer) -- and[a0]
  e8 [black] : (a0--a7 d2 buyer) -- and[a7]
  e9 [red] : (a2--a7 d2 seller) -- and[a2]
  e10 [black] : (a2--a7 d2 seller) -- and[a7]
  e11 [black] : (a2--a8 d3 buyer) -- and[a2]
"
    );
}

#[test]
fn sequence_command_fails_cleanly_on_infeasible_spec() {
    let (ok, _, stderr) = trustseq(&["sequence", "specs/example2.tseq"]);
    assert!(!ok);
    assert!(stderr.contains("not feasible"));
}

#[test]
fn usage_on_bad_invocations() {
    let (ok, _, stderr) = trustseq(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
    let (ok, _, stderr) = trustseq(&["frobnicate", "specs/example1.tseq"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = trustseq(&["check", "specs/nonexistent.tseq"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn extended_flag_unlocks_the_shared_escrow() {
    let (ok, stdout, _) = trustseq(&["check", "specs/shared_escrow.tseq"]);
    assert!(ok);
    assert!(stdout.starts_with("infeasible"));
    let (ok, stdout, _) = trustseq(&["check", "--extended", "specs/shared_escrow.tseq"]);
    assert!(ok);
    assert!(stdout.starts_with("feasible"));
    let (ok, _, stderr) = trustseq(&["check", "--bogus", "specs/shared_escrow.tseq"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"));
}

#[test]
fn advise_command_on_example2() {
    let (ok, stdout, _) = trustseq(&["advise", "specs/example2.tseq"]);
    assert!(ok);
    assert!(stdout.contains("trust"));
    assert!(stdout.contains("indemnity plan"));
}

#[test]
fn simulate_command_reports_sweep() {
    let (ok, stdout, _) = trustseq(&["simulate", "specs/cross_domain.tseq"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("safety OK"));
    assert!(stdout.contains("0 violations"));
}

#[test]
fn mutation_rate_rejects_out_of_range_and_non_numeric_values() {
    for bad in ["1.5", "-0.1", "NaN", "nan", "inf", "abc"] {
        let (ok, _, stderr) = trustseq(&["market", "--mutation-rate", bad]);
        assert!(!ok, "`--mutation-rate {bad}` must be rejected");
        assert!(
            stderr.contains("probability in [0, 1]") && stderr.contains(bad),
            "`--mutation-rate {bad}` gets the typed hint: {stderr}"
        );
    }
    // The boundary values are legal.
    let (ok, stdout, stderr) = trustseq(&["market", "--events", "50", "--mutation-rate", "1"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("mutation rate 1.00"), "{stdout}");
    let (ok, _, stderr) = trustseq(&["market", "--events", "50", "--mutation-rate", "0"]);
    assert!(ok, "{stderr}");
}

#[test]
fn quota_rejects_non_finite_and_negative_rates() {
    for bad in ["inf", "-inf", "NaN", "-5", "lots"] {
        let (ok, _, stderr) = trustseq(&["serve", "--quota", bad]);
        assert!(!ok, "`--quota {bad}` must be rejected");
        assert!(
            stderr.contains("finite, non-negative") && stderr.contains(bad),
            "`--quota {bad}` gets the typed hint: {stderr}"
        );
    }
}

#[test]
fn loadgen_event_flags_are_validated() {
    // `--events` with a count belongs to `market`, not `loadgen`.
    let (ok, _, stderr) = trustseq(&["loadgen", "--events", "100"]);
    assert!(!ok);
    assert!(stderr.contains("takes no count"), "{stderr}");
    // `--grow` without `--events` has nothing to admit structures with.
    let (ok, _, stderr) = trustseq(&["loadgen", "--grow", "4", "--requests", "10"]);
    assert!(!ok);
    assert!(stderr.contains("`--grow` needs `--events`"), "{stderr}");
    // `--grow` never applies to `market`.
    let (ok, _, stderr) = trustseq(&["market", "--grow", "4"]);
    assert!(!ok);
    assert!(
        stderr.contains("`--grow` applies to the `loadgen`"),
        "{stderr}"
    );
}

#[test]
fn loadgen_event_mode_smoke_run_passes_its_gates() {
    let (ok, stdout, stderr) = trustseq(&[
        "loadgen",
        "--events",
        "--grow",
        "2",
        "--requests",
        "2000",
        "--clients",
        "2",
        "--structures",
        "4",
    ]);
    assert!(ok, "{stdout}{stderr}");
    assert!(stdout.contains("0 wrong verdicts"), "{stdout}");
    assert!(stdout.contains("0/6 structure hash mismatches"), "{stdout}");
}

/// `--quick` sets the default request count; it does not cap an explicit
/// `--requests`, with or without `--bench-out`. With `--bench-out` the
/// count used to be cut to 40000 without a word.
#[test]
fn loadgen_bench_honours_an_explicit_request_count() {
    let out = std::env::temp_dir().join(format!(
        "trustseq-bench-requests-{}.json",
        std::process::id()
    ));
    let (ok, stdout, stderr) = trustseq(&[
        "loadgen",
        "--quick",
        "--events",
        "--requests",
        "40100",
        "--clients",
        "1",
        "--structures",
        "4",
        "--bench-out",
        out.to_str().expect("a UTF-8 temp path"),
    ]);
    let json = std::fs::read_to_string(&out);
    let _ = std::fs::remove_file(&out);
    assert!(ok, "{stdout}{stderr}");
    let json = json.expect("the bench report was written");
    assert!(
        json.contains(r#""requests": 40100, "replies": 40100"#),
        "{json}"
    );
}

/// A flag its command never reads is rejected before the command runs, so
/// it cannot quietly change the question answered: `indemnify` and
/// `dist-run` do not read `--extended`, and `journal-replay` replays the
/// fault plan recorded in the journal's header, not `--faults`.
#[test]
fn flags_a_command_would_ignore_are_rejected() {
    let extended = "`--extended` applies to the `check`, `sequence`, `protocol`, `dot`, \
                    `simulate` and `dist` commands";
    let (ok, stdout, stderr) = trustseq(&["indemnify", "--extended", "specs/shared_escrow.tseq"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with(&format!("{extended}, not `indemnify`\n")),
        "{stderr}"
    );

    // Rejected while parsing the command line, before the supervisor binds
    // a socket or spawns a node process: nothing reaches stdout, and the
    // scope error is the first thing on stderr.
    let (ok, stdout, stderr) = trustseq(&["dist-run", "--extended", "specs/shared_escrow.tseq"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with(&format!("{extended}, not `dist-run`\n")),
        "{stderr}"
    );

    let dir = std::env::temp_dir().join(format!("trustseq-scope-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("run.jsonl");
    let journal = journal.to_str().unwrap();
    let (ok, _, stderr) = trustseq(&["dist", "specs/example1.tseq", "--journal", journal]);
    assert!(ok, "{stderr}");
    let (ok, stdout, stderr) =
        trustseq(&["journal-replay", journal, "--faults", "seed=1;drop=900"]);
    assert!(!ok);
    assert!(stdout.is_empty(), "{stdout}");
    assert!(
        stderr.starts_with(
            "`--faults` applies to the `dist`, `dist-run` and `dist-node` commands, \
             not `journal-replay`\n"
        ),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
