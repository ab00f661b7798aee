//! Property-based equivalence tests for the CSR-arena graph layout and the
//! reusable scratch reducer: on random workloads, the owning reducer, a
//! reused zero-allocation scratch reducer and the naive rescan oracle
//! must produce *byte-identical* reduction outcomes (including the
//! step-by-step trace), and the scratch-based confluence check must
//! report exactly what per-sample naive reductions report.

use proptest::prelude::*;
use trustseq::core::{
    confluence_check, ConfluenceReport, Reducer, ScratchReducer, SequencingGraph,
    Strategy as ReduceStrategy,
};
use trustseq::workloads::{random_exchange, RandomConfig};

fn arb_config() -> impl Strategy<Value = RandomConfig> {
    (1usize..=3, 1usize..=4, 0u8..=10, any::<u64>()).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The CSR adjacency preserves per-node edge order, so the owning
    /// reducer's trace stays byte-identical to the naive rescan oracle —
    /// on original and randomly relabelled graphs alike.
    #[test]
    fn csr_worklist_trace_matches_naive_oracle(
        config in arb_config(),
        perm_seed in any::<u64>(),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let incremental = Reducer::new(graph.clone()).run();
        let naive = Reducer::new(graph.clone()).run_naive();
        prop_assert_eq!(&incremental, &naive);
        let permuted = graph.permuted(perm_seed);
        prop_assert_eq!(
            Reducer::new(permuted.clone()).run(),
            Reducer::new(permuted).run_naive()
        );
    }

    /// One scratch reducer reused across differently-shaped random graphs
    /// reproduces the naive rescan oracle byte-for-byte, deterministic
    /// and randomized, and never mutates the borrowed graph.
    #[test]
    fn scratch_reducer_matches_owning_reducer(config in arb_config()) {
        let mut scratch = ScratchReducer::new();
        for offset in 0..4u64 {
            let ex = random_exchange(&RandomConfig {
                seed: config.seed.wrapping_add(offset),
                ..config.clone()
            });
            let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
            let pristine = graph.clone();
            let out = scratch.run(&graph, ReduceStrategy::Deterministic);
            prop_assert_eq!(&out, &Reducer::new(graph.clone()).run_naive());
            for seed in 0..3u64 {
                let strategy = ReduceStrategy::Randomized { seed };
                let out = scratch.run(&graph, strategy);
                prop_assert_eq!(
                    &out,
                    &Reducer::new(graph.clone()).with_strategy(strategy).run_naive()
                );
            }
            prop_assert_eq!(&graph, &pristine);
        }
    }

    /// The scratch-based confluence check reports exactly what a naive
    /// rescan per sample reports.
    #[test]
    fn scratch_confluence_matches_per_sample_fresh_reducers(config in arb_config()) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let samples = 6u64;
        let reference_feasible = Reducer::new(graph.clone()).run_naive().feasible;
        let disagreeing_seeds: Vec<u64> = (0..samples)
            .filter(|&seed| {
                Reducer::new(graph.clone())
                    .with_strategy(ReduceStrategy::Randomized { seed })
                    .run_naive()
                    .feasible
                    != reference_feasible
            })
            .collect();
        let expected = ConfluenceReport {
            reference_feasible,
            samples,
            agreeing: samples - disagreeing_seeds.len() as u64,
            disagreeing_seeds,
        };
        prop_assert_eq!(confluence_check(&ex.spec, samples).unwrap(), expected);
    }
}
