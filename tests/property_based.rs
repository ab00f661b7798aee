//! Property-based integration tests over generated workloads: confluence of
//! the reduction, Petri agreement, execution verification, indemnity-plan
//! optimality, and simulator conservation.

use proptest::prelude::*;
use trustseq::core::indemnity::{exhaustive_min_plan, greedy_plan};
use trustseq::core::{
    analyze, confluence_check, synthesize, Reducer, SequencingGraph, Strategy as ReductionStrategy,
};
use trustseq::model::Money;
use trustseq::petri;
use trustseq::sim::{run_protocol, Behavior, BehaviorMap};
use trustseq::workloads::{broker_chain, bundle, random_exchange, RandomConfig};

fn arb_config() -> impl Strategy<Value = RandomConfig> {
    (1usize..=3, 1usize..=3, 0u8..=10, any::<u64>()).prop_map(
        |(width, max_depth, density, seed)| RandomConfig {
            width,
            max_depth,
            price_range: (10, 100),
            trust_density: f64::from(density) / 10.0,
            seed,
            ..Default::default()
        },
    )
}

/// Configurations that also exercise shared escrows and bridged deals (the
/// §9 extensions).
fn arb_federated_config() -> impl Strategy<Value = RandomConfig> {
    (arb_config(), 0u8..=10, 0u8..=10).prop_map(|(mut config, shared, bridge)| {
        config.shared_escrow_prob = f64::from(shared) / 10.0;
        config.bridge_prob = f64::from(bridge) / 10.0;
        config
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The feasibility verdict is confluent: random reduction orders agree
    /// with the deterministic one (the paper's §4.2.4 claim).
    #[test]
    fn reduction_is_confluent(config in arb_config()) {
        let ex = random_exchange(&config);
        let report = confluence_check(&ex.spec, 10).unwrap();
        prop_assert!(report.unanimous(), "{}", report);
        prop_assert_eq!(report.agreeing, report.samples);
    }

    /// The owning reducer (the bitset scratch engine) reproduces the naive
    /// rescan engine's *entire* outcome — the full step-by-step
    /// [`ReductionTrace`], the verdict, and the surviving edges — on random
    /// federated topologies, under both strategies. This is the
    /// byte-identity guarantee the incremental engine is held to.
    #[test]
    fn worklist_outcome_matches_naive_oracle(
        config in arb_federated_config(),
        random_seed in any::<u64>(),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        for strategy in [
            ReductionStrategy::Deterministic,
            ReductionStrategy::Randomized { seed: random_seed },
        ] {
            let incremental = Reducer::new(graph.clone()).with_strategy(strategy).run();
            let naive = Reducer::new(graph.clone()).with_strategy(strategy).run_naive();
            prop_assert_eq!(&incremental.trace, &naive.trace);
            prop_assert_eq!(&incremental.remaining_edges, &naive.remaining_edges);
            prop_assert_eq!(incremental.feasible, naive.feasible);
        }
    }

    /// The Petri-net encoding agrees with the sequencing-graph verdict.
    #[test]
    fn petri_agrees_with_reduction(config in arb_config()) {
        let ex = random_exchange(&config);
        let verdict = analyze(&ex.spec).unwrap().feasible;
        let net = petri::compile::compile(&ex.spec).unwrap();
        let report = petri::coverable(&net.net, &net.initial, &net.goal, 3_000_000).unwrap();
        prop_assert_eq!(report.coverable, verdict);
    }

    /// The distributed reduction protocol agrees with the centralised one
    /// on every random topology.
    #[test]
    fn distributed_agrees_with_centralized(config in arb_config()) {
        let ex = random_exchange(&config);
        let central = analyze(&ex.spec).unwrap();
        let dist = trustseq::dist::DistributedReduction::new(&ex.spec)
            .unwrap()
            .run();
        prop_assert_eq!(dist.feasible, central.feasible);
        if central.feasible {
            // Feasible: every edge removed either way. (Infeasible maximal
            // reductions may differ in shape — the paper notes different
            // orders can leave different graphs — only the verdict is
            // confluent.)
            prop_assert_eq!(dist.removals.len(), central.trace.len());
        }
    }

    /// Every feasible generated exchange synthesises a sequence that
    /// verifies: items flow physically, and every principal ends preferred.
    #[test]
    fn feasible_exchanges_synthesize_and_verify(config in arb_config()) {
        let ex = random_exchange(&config);
        if analyze(&ex.spec).unwrap().feasible {
            let seq = synthesize(&ex.spec).unwrap();
            seq.verify(&ex.spec).unwrap();
        }
    }

    /// Randomised reduction orders of a feasible graph all produce
    /// verifying execution sequences (not just the deterministic one).
    #[test]
    fn random_orders_also_yield_valid_sequences(seed in any::<u64>()) {
        let (spec, _) = trustseq::core::fixtures::example1();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let outcome = Reducer::new(graph.clone())
            .with_strategy(ReductionStrategy::Randomized { seed })
            .run();
        prop_assert!(outcome.feasible);
        let seq = trustseq::core::recover_execution(&spec, &graph, &outcome).unwrap();
        seq.verify(&spec).unwrap();
    }

    /// The greedy indemnity plan matches the exhaustive minimum on random
    /// price vectors (§6's optimality argument).
    #[test]
    fn greedy_indemnity_plan_is_optimal(prices in proptest::collection::vec(1i64..500, 2..8)) {
        let money: Vec<Money> = prices.iter().map(|&p| Money::from_dollars(p)).collect();
        let (spec, ids) = bundle(&money);
        let greedy = greedy_plan(&spec, ids.consumer);
        let best = exhaustive_min_plan(&spec, ids.consumer);
        prop_assert_eq!(greedy.total(), best.total());
        // Applying it always unlocks the bundle.
        let mut unlocked = spec.clone();
        greedy.apply(&mut unlocked).unwrap();
        prop_assert!(analyze(&unlocked).unwrap().feasible);
    }

    /// Simulated chains conserve assets and protect honest parties under a
    /// random single defector.
    #[test]
    fn chain_simulation_is_safe_under_random_defection(
        depth in 1usize..5,
        defector_index in 0usize..6,
        silent_after in 0u32..3,
    ) {
        let (spec, _) = broker_chain(depth, Money::from_dollars(1000), Money::from_dollars(5));
        let principals: Vec<_> = spec.principals().map(|p| p.id()).collect();
        let defector = principals[defector_index % principals.len()];
        let behaviors = BehaviorMap::all_honest()
            .with(defector, Behavior::SilentAfter(silent_after));
        let report = run_protocol(&spec, behaviors).unwrap();
        prop_assert!(report.safety_holds(), "{report}");
        report.ledger.check_conservation().unwrap();
    }

    /// Federated topologies (shared escrows, bridged deals): confluence,
    /// distributed agreement, and synthesis verification all extend.
    #[test]
    fn federated_topologies_are_coherent(config in arb_federated_config()) {
        let ex = random_exchange(&config);
        prop_assert!(confluence_check(&ex.spec, 8).unwrap().unanimous());
        let central = analyze(&ex.spec).unwrap();
        let dist = trustseq::dist::DistributedReduction::new(&ex.spec)
            .unwrap()
            .run();
        prop_assert_eq!(dist.feasible, central.feasible);
        if central.feasible {
            let seq = synthesize(&ex.spec).unwrap();
            seq.verify(&ex.spec).unwrap();
        }
        // The §9 delegation extension never makes a feasible exchange
        // infeasible.
        let extended = trustseq::core::analyze_with(
            &ex.spec,
            trustseq::core::BuildOptions::EXTENDED,
        )
        .unwrap();
        prop_assert!(!central.feasible || extended.feasible);
    }

    /// Feasible federated exchanges simulate safely under a random single
    /// defector — with one *documented* exception: a bundle unlocked by
    /// direct trust (§4.2.3) exposes the bundling consumer's linkage when
    /// another chain defects at execution time, because the paper's
    /// feasibility notion treats commitments as binding (see
    /// EXPERIMENTS.md). Any violation must be exactly that shape.
    #[test]
    fn federated_simulation_safe(config in arb_federated_config(), defector in 0usize..8, cut in 0u32..3) {
        let ex = random_exchange(&config);
        if !analyze(&ex.spec).unwrap().feasible {
            return Ok(());
        }
        let principals: Vec<_> = ex.spec.principals().map(|p| p.id()).collect();
        let behaviors = BehaviorMap::all_honest().with(
            principals[defector % principals.len()],
            Behavior::SilentAfter(cut),
        );
        let report = run_protocol(&ex.spec, behaviors.clone()).unwrap();
        report.ledger.check_conservation().unwrap();
        if !report.safety_holds() {
            // Without direct trust the synthesised protocols are
            // defection-proof; a violation can only occur when direct
            // trust unlocked the exchange, whose feasibility then rests on
            // the paper's commitments-are-binding semantics — an honest
            // principal that moved after a counterparty *committed* is
            // exposed if that counterparty defects at execution time
            // anyway (see EXPERIMENTS.md).
            prop_assert!(!ex.spec.trust().is_empty(), "{report}");
        }
    }

    /// Asynchronous message delays never change the distributed verdict,
    /// removal set or announcement count (liveness information only
    /// shrinks, so stale views are conservative).
    #[test]
    fn distributed_verdict_is_delay_invariant(
        config in arb_federated_config(),
        seed in any::<u64>(),
        max_delay in 1u64..6,
    ) {
        use trustseq::dist::{DistributedReduction, FaultPlan, ResilientConfig};
        let ex = random_exchange(&config);
        let sync = DistributedReduction::new(&ex.spec).unwrap().run();
        // Every announcement arrives 1..=max_delay rounds after it is sent.
        let plan = FaultPlan::seeded(seed).with_max_extra_delay(max_delay - 1);
        let delayed = DistributedReduction::new(&ex.spec)
            .unwrap()
            .run_resilient(&plan, &ResilientConfig::default())
            .unwrap();
        prop_assert_eq!(delayed.verdict.decided(), Some(sync.feasible));
        let edges = |removals: &[trustseq::dist::DistRemoval]| {
            removals.iter().map(|r| r.edge).collect::<std::collections::BTreeSet<_>>()
        };
        prop_assert_eq!(edges(&sync.removals), edges(&delayed.removals));
        prop_assert_eq!(sync.messages, delayed.messages);
    }

    /// Money parsing round-trips through display for arbitrary amounts.
    #[test]
    fn money_roundtrip(cents in -1_000_000_000i64..1_000_000_000) {
        let m = Money::from_cents(cents);
        prop_assert_eq!(m.to_string().parse::<Money>().unwrap(), m);
    }

    /// The DSL printer round-trips every generated random exchange.
    #[test]
    fn printer_roundtrips_random_specs(config in arb_config()) {
        let ex = random_exchange(&config);
        let text = trustseq::lang::print(&ex.spec);
        let reparsed = trustseq::lang::parse_spec(&text).unwrap();
        prop_assert_eq!(&ex.spec, &reparsed);
    }
}

/// The incremental engine's acceptance bar, checked exhaustively rather than
/// sampled: on every paper fixture and on 100 seeded `random_exchange`
/// instances spanning the trust-density range, the default
/// `Reducer::new(g).run()` produces the byte-identical `ReductionOutcome`
/// (trace, verdict, leftovers) of the naive rescan engine it replaced.
#[test]
fn deterministic_traces_match_oracle_on_fixtures_and_100_seeds() {
    use trustseq::core::fixtures;
    let mut graphs = vec![
        SequencingGraph::from_spec(&fixtures::example1().0).unwrap(),
        SequencingGraph::from_spec(&fixtures::example2().0).unwrap(),
        SequencingGraph::from_spec(&fixtures::example2_shared_escrow().0).unwrap(),
        SequencingGraph::from_spec(&fixtures::poor_broker().0).unwrap(),
        SequencingGraph::from_spec(&fixtures::figure7().0).unwrap(),
        SequencingGraph::from_spec(&fixtures::cross_domain_sale().0).unwrap(),
        SequencingGraph::from_spec(&fixtures::patent_assembly().0).unwrap(),
    ];
    for seed in 0..100u64 {
        let config = RandomConfig {
            width: 1 + (seed as usize % 3),
            max_depth: 1 + (seed as usize % 4),
            trust_density: (seed % 11) as f64 / 10.0,
            shared_escrow_prob: (seed % 5) as f64 / 4.0,
            bridge_prob: (seed % 3) as f64 / 2.0,
            seed,
            ..Default::default()
        };
        graphs.push(SequencingGraph::from_spec(&random_exchange(&config).spec).unwrap());
    }
    for graph in graphs {
        let incremental = Reducer::new(graph.clone()).run();
        let naive = Reducer::new(graph).run_naive();
        assert_eq!(incremental, naive);
    }
}
