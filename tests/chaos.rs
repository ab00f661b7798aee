//! Integration: the E20 acceptance matrix — the resilient distributed
//! reduction under seeded fault plans, checked against the centralised
//! reducer on every fixture.
//!
//! Drop p ∈ {0, 0.1, 0.3} with 50 seeded plans each (duplication,
//! reordering and crash/restart schedules included): every decided
//! verdict must agree with the centralised reduction, no run may remove
//! an edge the centralised reduction keeps, and every fault-free run must
//! decide without retransmissions, relays, sync requests, dedup drops or
//! decode failures.

use trustseq::core::fixtures;
use trustseq::dist::{Crash, DistributedReduction, FaultPlan, Partition, ResilientConfig};
use trustseq::model::Money;
use trustseq::sim::{chaos_sweep, chaos_sweep_all, ChaosMatrix};
use trustseq::workloads::broker_chain;

#[test]
fn acceptance_matrix_is_clean_on_every_fixture() {
    let (ex1, _) = fixtures::example1();
    let (ex2, _) = fixtures::example2();
    let (fig7, _) = fixtures::figure7();
    let (chain, _) = broker_chain(6, Money::from_dollars(1000), Money::from_dollars(5));
    let specs = [
        ("example1", &ex1),
        ("example2", &ex2),
        ("figure7", &fig7),
        ("chain-6", &chain),
    ];
    let matrix = ChaosMatrix::default();
    assert_eq!(matrix.drop_per_mille, vec![0, 100, 300]);
    assert_eq!(matrix.seeds_per_cell, 50);

    let (report, first_dirty) = chaos_sweep_all(specs, &matrix).unwrap();
    assert!(report.clean(), "dirty spec {first_dirty:?}: {report}");
    // 4 specs × 3 drop probabilities × 50 seeds.
    assert_eq!(report.runs, 600);
    // Loss costs retransmissions; the lossless third of the matrix does
    // not retransmit, so the total stays attributable to injected faults.
    assert!(report.retransmissions > 0);
}

#[test]
fn permanent_outages_degrade_but_never_lie() {
    // A node that crashes and never restarts, and a partition that never
    // heals: the engine may degrade to Undecided, but a decided verdict
    // must still match the centralised reducer.
    let (spec, _) = fixtures::example1();
    let central = trustseq::core::analyze(&spec).unwrap().feasible;
    let participants: Vec<_> = DistributedReduction::new(&spec)
        .unwrap()
        .participants()
        .collect();
    let config = ResilientConfig::default();
    for seed in 0..40u64 {
        let victim = participants[seed as usize % participants.len()];
        let mut plan = FaultPlan::seeded(seed).with_drop_per_mille(200).with_crash(
            victim,
            Crash {
                at_round: 1 + seed as usize % 3,
                restart_at: None,
            },
        );
        if participants.len() > 1 && seed % 2 == 0 {
            plan = plan.with_partition(Partition {
                a: participants[0],
                b: participants[1 + seed as usize % (participants.len() - 1)],
                from_round: 0,
                until_round: usize::MAX,
            });
        }
        let out = DistributedReduction::new(&spec)
            .unwrap()
            .run_resilient(&plan, &config)
            .unwrap();
        if let Some(feasible) = out.verdict.decided() {
            assert_eq!(feasible, central, "plan [{plan}] decided wrongly: {out}");
        }
    }
}

#[test]
fn chaos_report_display_is_informative() {
    let (spec, _) = fixtures::example1();
    let report = chaos_sweep(&spec, &ChaosMatrix::quick()).unwrap();
    assert!(report.clean());
    let text = report.to_string();
    assert!(text.contains("chaos runs"), "{text}");
    assert!(text.contains("decided"), "{text}");
}
