//! Property tests for the fault-injection layer and the resilient engine.
//!
//! The central property mirrors the paper's confluence argument: the
//! reduction's fixpoint removal set is unique, so *any* fault plan under
//! which every announcement is eventually delivered must steer the
//! resilient engine to the naive centralised reducer's removal set — the
//! faults may only cost rounds and retransmissions, never correctness.

use proptest::prelude::*;
use std::collections::BTreeSet;
use trustseq_core::{EdgeId, Reducer, SequencingGraph};
use trustseq_dist::{Crash, DistributedReduction, FaultPlan, Partition, ResilientConfig};
use trustseq_model::{AgentId, ExchangeSpec};
use trustseq_workloads::{random_exchange, RandomConfig};

/// A generous budget: retries practically never run out, so any plan with
/// eventual delivery (drop < 1000‰, crashed nodes restart, partitions
/// heal) must reach a decided verdict.
fn generous() -> ResilientConfig {
    ResilientConfig {
        max_attempts: 64,
        ..ResilientConfig::default()
    }
}

/// A small random exchange topology (1–3 chains, depth ≤ 3, a dash of
/// direct trust), deterministic in `seed`.
fn spec_for(seed: u64) -> ExchangeSpec {
    random_exchange(&RandomConfig {
        width: 1 + (seed as usize % 3),
        max_depth: 1 + (seed as usize / 3 % 3),
        trust_density: if seed.is_multiple_of(5) { 0.3 } else { 0.0 },
        seed,
        ..RandomConfig::default()
    })
    .spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any eventually-delivering fault plan the resilient engine
    /// decides, agrees with the naive reducer's verdict, and removes
    /// exactly the naive reducer's removal set.
    #[test]
    fn eventual_delivery_reaches_the_fault_free_fixpoint(
        spec_seed in 0u64..64,
        plan_seed in 0u64..1 << 20,
        drop in 0u16..=300,
        dup in 0u16..=200,
        delay in 0u64..=3,
        victim_pick in 0usize..16,
        crash_at in 1usize..=3,
        outage in 1usize..=4,
        cut_pick in 0usize..16,
        heal_at in 2usize..=5,
    ) {
        let spec = spec_for(spec_seed);
        let engine = DistributedReduction::new(&spec).unwrap();
        let participants: Vec<AgentId> = engine.participants().collect();

        let mut plan = FaultPlan::seeded(plan_seed)
            .with_drop_per_mille(drop)
            .with_dup_per_mille(dup)
            .with_max_extra_delay(delay);
        // Crash one real participant — but always restart it.
        if plan_seed.is_multiple_of(2) && !participants.is_empty() {
            let victim = participants[victim_pick % participants.len()];
            plan = plan.with_crash(
                victim,
                Crash {
                    at_round: crash_at,
                    restart_at: Some(crash_at + outage),
                },
            );
        }
        // Partition two real participants — but always heal the cut.
        if plan_seed.is_multiple_of(3) && participants.len() > 1 {
            let b = participants[1 + cut_pick % (participants.len() - 1)];
            plan = plan.with_partition(Partition {
                a: participants[0],
                b,
                from_round: 0,
                until_round: heal_at,
            });
        }

        let baseline = Reducer::new(SequencingGraph::from_spec(&spec).unwrap()).run_naive();
        let base_set: BTreeSet<EdgeId> =
            baseline.trace.steps().iter().map(|s| s.edge).collect();

        let out = engine.run_resilient(&plan, &generous()).unwrap();
        prop_assert_eq!(
            out.verdict.decided(),
            Some(baseline.feasible),
            "plan [{}] did not reach the naive reducer's verdict: {}",
            plan,
            out
        );
        let set: BTreeSet<EdgeId> = out.removals.iter().map(|r| r.edge).collect();
        prop_assert_eq!(set, base_set, "plan [{}] removal set diverged", plan);
    }

    /// `FaultPlan`'s textual form round-trips exactly — the chaos harness
    /// can log a plan and replay it byte-for-byte.
    #[test]
    fn fault_plan_text_round_trips(
        seed in 0u64..1 << 40,
        drop in 0u16..1000,
        dup in 0u16..1000,
        delay in 0u64..8,
        crash_victim in 0u32..12,
        at_round in 0usize..8,
        restarts in 0usize..2,
        resume in 1usize..6,
        cut_b in 1u32..12,
        cut_from in 0usize..4,
        heals in 0usize..2,
        heal_at in 5usize..9,
    ) {
        let plan = FaultPlan::seeded(seed)
            .with_drop_per_mille(drop)
            .with_dup_per_mille(dup)
            .with_max_extra_delay(delay)
            .with_crash(
                AgentId::new(crash_victim),
                Crash {
                    at_round,
                    restart_at: (restarts == 1).then_some(at_round + resume),
                },
            )
            .with_partition(Partition {
                a: AgentId::new(0),
                b: AgentId::new(cut_b),
                from_round: cut_from,
                until_round: if heals == 1 { heal_at } else { usize::MAX },
            });
        let text = plan.to_string();
        let back: FaultPlan = text.parse().expect("plan text parses back");
        prop_assert_eq!(&plan, &back, "text was [{}]", text);
        // And the round-trip is textually stable, too.
        prop_assert_eq!(text, back.to_string());
    }
}
