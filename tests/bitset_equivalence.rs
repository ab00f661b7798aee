//! Property-based equivalence tests for the raw-speed pass: the
//! bitset/SoA scratch engine must reproduce the naive rescan oracle
//! *byte-for-byte* (full traces, not just verdicts), multi-worker batch
//! fan-out must be indistinguishable from serial analysis, and the
//! bounded-memory streaming sweep must fold to exactly the materialized
//! driver's statistics.

use proptest::prelude::*;
use trustseq::core::{
    analyze, analyze_batch_with, Reducer, ScratchReducer, SequencingGraph,
    Strategy as ReduceStrategy,
};
use trustseq::workloads::{
    feasibility_rate_cached, random_exchange, sweep_streaming, RandomConfig,
};

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

    /// One bitset/SoA scratch reducer reused across differently-shaped
    /// random graphs reproduces the naive rescan oracle byte-for-byte —
    /// deterministic and randomized, on original and randomly relabelled
    /// graphs alike.
    #[test]
    fn bitset_trace_matches_naive_oracle(
        config in arb_config(),
        perm_seed in any::<u64>(),
    ) {
        let mut bitset = ScratchReducer::new();
        for offset in 0..3u64 {
            let ex = random_exchange(&RandomConfig {
                seed: config.seed.wrapping_add(offset),
                ..config.clone()
            });
            let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
            for graph in [graph.permuted(perm_seed), graph] {
                let naive = Reducer::new(graph.clone()).run_naive();
                prop_assert_eq!(&bitset.run(&graph, ReduceStrategy::Deterministic), &naive);
                for seed in 0..2u64 {
                    let strategy = ReduceStrategy::Randomized { seed };
                    let expected = Reducer::new(graph.clone())
                        .with_strategy(strategy)
                        .run_naive();
                    prop_assert_eq!(&bitset.run(&graph, strategy), &expected);
                }
            }
        }
    }

    /// Work-stealing batch fan-out returns exactly what serial `analyze`
    /// returns, spec for spec, across worker counts below, at and above
    /// the batch size, including the serial fallback.
    #[test]
    fn batches_match_serial_analyze(config in arb_config()) {
        let specs: Vec<_> = (0..7u64)
            .map(|offset| {
                random_exchange(&RandomConfig {
                    seed: config.seed.wrapping_add(offset),
                    ..config.clone()
                })
                .spec
            })
            .collect();
        for workers in [1usize, 2, 3, 8, 16] {
            let batch = analyze_batch_with(&specs, None, workers);
            prop_assert_eq!(batch.len(), specs.len());
            for (spec, result) in specs.iter().zip(&batch) {
                match (result, analyze(spec)) {
                    (Ok(x), Ok(y)) => prop_assert_eq!(x, &y),
                    (Err(x), Err(y)) => prop_assert_eq!(x.to_string(), y.to_string()),
                    _ => prop_assert!(false, "batch and serial verdicts disagree"),
                }
            }
        }
    }

    /// The streaming sweep folds to exactly the materialized driver's
    /// feasibility rate, whatever the chunk size — chunking changes when a
    /// spec is analyzed, never its verdict.
    #[test]
    fn streaming_sweep_matches_materialized_sweep(
        config in arb_config(),
        chunk in 1usize..=12,
    ) {
        let samples = 24u64;
        let materialized = feasibility_rate_cached(&config, samples, None);
        let report = sweep_streaming(&config, samples, chunk, None);
        prop_assert_eq!(report.rate(), materialized);
        prop_assert_eq!(report.samples, samples);
        prop_assert_eq!(report.chunks, samples.div_ceil(chunk as u64));
    }
}
