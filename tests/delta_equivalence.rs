//! Property-based equivalence tests for the delta re-analysis engine:
//! a resident [`DeltaAnalyzer`] driven by random mutation streams must
//! agree with the cold full re-analysis oracle on every intermediate
//! verdict, whatever the undo fallback threshold — including both sides
//! of the exact threshold boundary — and the spec-level event mappings
//! ([`trust_deltas`] / [`indemnity_deltas`]) must round-trip to the
//! original verdict.
//!
//! [`trust_deltas`]: trustseq::core::SequencingGraph::trust_deltas
//! [`indemnity_deltas`]: trustseq::core::SequencingGraph::indemnity_deltas

use proptest::prelude::*;
use trustseq::core::{
    AnalysisCache, CommitmentId, DeltaAnalyzer, EdgeColor, EdgeId, GraphDelta, Reducer,
    SequencingGraph,
};
use trustseq::workloads::{random_exchange, RandomConfig};

fn arb_config() -> impl Strategy<Value = RandomConfig> {
    (1usize..=2, 1usize..=4, 0u8..=10, any::<u64>()).prop_map(
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

/// One raw mutation choice; [`decode`] turns it into a delta that is
/// valid for the analyzer's *current* graph (toggling whichever state the
/// targeted edge or waiver is in), so streams stay applicable however the
/// earlier mutations landed.
type RawOp = (u8, u16, bool);

fn decode(graph: &SequencingGraph, (sel, idx, waived): RawOp) -> Option<GraphDelta> {
    if sel % 3 == 2 {
        let commitments = graph.commitments().len();
        if commitments == 0 {
            return None;
        }
        Some(GraphDelta::SetWaiver {
            commitment: CommitmentId::new(u32::from(idx) % commitments as u32),
            waived,
        })
    } else {
        let edges = graph.edges().len();
        if edges == 0 {
            return None;
        }
        let id = EdgeId::new(u32::from(idx) % edges as u32);
        Some(if graph.is_live(id) {
            GraphDelta::RemoveEdge(id)
        } else {
            GraphDelta::RestoreEdge(id)
        })
    }
}

/// Drives `analyzer` through `ops`, checking it against a cold
/// full-re-reduction `oracle` after every delta, and returns the verdict
/// trajectory.
fn drive_checked(
    analyzer: &mut DeltaAnalyzer,
    oracle: &mut DeltaAnalyzer,
    ops: &[RawOp],
) -> Result<Vec<bool>, TestCaseError> {
    let mut verdicts = Vec::with_capacity(ops.len());
    for &op in ops {
        let Some(delta) = decode(analyzer.graph(), op) else {
            continue;
        };
        let maintained = analyzer.apply(delta).unwrap();
        let cold = oracle.apply(delta).unwrap();
        prop_assert_eq!(
            maintained,
            cold,
            "maintained verdict diverged from the cold oracle on {:?}",
            delta
        );
        prop_assert_eq!(maintained, analyzer.feasible());
        // §4.2.4: feasible iff maximal reduction removes every edge, and
        // confluence makes the irreducible remainder unique.
        prop_assert_eq!(maintained, analyzer.remaining_edges() == 0);
        prop_assert_eq!(analyzer.remaining_edges(), oracle.remaining_edges());
        // The red count of that unique remainder, against the naive
        // oracle's residual and the canonicalising cache.
        let graph = analyzer.graph();
        let naive_red = Reducer::new(graph.clone())
            .run_naive()
            .remaining_edges
            .iter()
            .filter(|&&e| graph.edge(e).color == EdgeColor::Red)
            .count();
        prop_assert_eq!(analyzer.remaining_red(), naive_red);
        prop_assert_eq!(
            analyzer.remaining_red(),
            AnalysisCache::new().verdict(graph).remaining_red as usize
        );
        verdicts.push(maintained);
    }
    Ok(verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A resident analyzer fed an arbitrary stream of edge toggles and
    /// waiver toggles agrees with the cold full re-analysis oracle on
    /// every intermediate verdict and irreducible-remainder size.
    #[test]
    fn mutation_stream_matches_cold_oracle(
        config in arb_config(),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<bool>()), 1..24),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let mut analyzer = DeltaAnalyzer::new(graph.clone());
        let mut oracle = DeltaAnalyzer::full_baseline(graph);
        prop_assert_eq!(analyzer.feasible(), oracle.feasible());
        drive_checked(&mut analyzer, &mut oracle, &ops)?;
        // The oracle recomputed from scratch on every effective delta
        // (no-op waiver toggles are absorbed without a run); the resident
        // analyzer's only full runs are fallbacks. Both applied everything.
        prop_assert_eq!(analyzer.stats().applied, oracle.stats().applied);
        prop_assert!(oracle.stats().full_runs <= oracle.stats().applied);
        prop_assert_eq!(analyzer.stats().full_runs, analyzer.stats().fallbacks);
    }

    /// The fallback threshold is a performance knob, never a semantic
    /// one: the eager extreme (`0`, every invalidated move falls back to
    /// a full re-reduction) and the lazy extreme (`usize::MAX`, the undo
    /// cascade always runs to completion) produce the same verdict
    /// trajectory, and the lazy analyzer never falls back.
    #[test]
    fn threshold_extremes_agree(
        config in arb_config(),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<bool>()), 1..24),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let mut eager = DeltaAnalyzer::with_threshold(graph.clone(), 0);
        let mut lazy = DeltaAnalyzer::with_threshold(graph.clone(), usize::MAX);
        let mut oracle_a = DeltaAnalyzer::full_baseline(graph.clone());
        let mut oracle_b = DeltaAnalyzer::full_baseline(graph);
        let via_eager = drive_checked(&mut eager, &mut oracle_a, &ops)?;
        let via_lazy = drive_checked(&mut lazy, &mut oracle_b, &ops)?;
        prop_assert_eq!(via_eager, via_lazy);
        prop_assert_eq!(lazy.stats().fallbacks, 0);
        // Eager fallbacks are bounded by its undos: only anti-monotone
        // deltas can trip the threshold.
        prop_assert!(eager.stats().fallbacks <= eager.stats().undos);
    }

    /// The exact boundary: scanning thresholds upward from `0` finds the
    /// smallest value `t*` at which a stream completes without any
    /// fallback; at `t* - 1` the same stream provably falls back at least
    /// once, and *every* scanned threshold yields the oracle's verdicts.
    /// (The scan is bounded by the lazy analyzer's total undone steps,
    /// which dominates any single frontier.)
    #[test]
    fn fallback_threshold_boundary(
        config in arb_config(),
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u16>(), any::<bool>()), 4..24),
    ) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();

        let mut lazy = DeltaAnalyzer::with_threshold(graph.clone(), usize::MAX);
        let mut oracle = DeltaAnalyzer::full_baseline(graph.clone());
        let expected = drive_checked(&mut lazy, &mut oracle, &ops)?;
        let cap = usize::try_from(lazy.stats().undone_steps).unwrap();

        let mut previous_fallbacks = None;
        for threshold in 0..=cap {
            let mut analyzer = DeltaAnalyzer::with_threshold(graph.clone(), threshold);
            let mut oracle = DeltaAnalyzer::full_baseline(graph.clone());
            let verdicts = drive_checked(&mut analyzer, &mut oracle, &ops)?;
            prop_assert_eq!(&verdicts, &expected, "threshold {} diverged", threshold);
            if analyzer.stats().fallbacks == 0 {
                // t* found: the threshold one below it (if any) fell back.
                if let Some(below) = previous_fallbacks {
                    prop_assert!(
                        below >= 1,
                        "threshold {} cleared but {} did not fall back",
                        threshold,
                        threshold - 1
                    );
                }
                return Ok(());
            }
            previous_fallbacks = Some(analyzer.stats().fallbacks);
        }
        // cap dominates every frontier the lazy run saw, so the scan must
        // have terminated above.
        prop_assert!(cap == 0 || expected.is_empty(), "no fallback-free threshold <= {cap}");
    }

    /// Spec-level mapping round-trip: posting then expiring an indemnity
    /// on each deal (and granting then revoking the trust behind each
    /// commitment's clause-2 waiver) returns the maintained verdict and
    /// irreducible remainder to their initial values, matching the cold
    /// oracle at every intermediate step.
    #[test]
    fn event_mappings_round_trip(config in arb_config()) {
        let ex = random_exchange(&config);
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        let mut analyzer = DeltaAnalyzer::new(graph.clone());
        let mut oracle = DeltaAnalyzer::full_baseline(graph.clone());
        let initial = (analyzer.feasible(), analyzer.remaining_edges());

        for chain in &ex.chains {
            for &deal in &chain.deals {
                for posted in [true, false] {
                    for delta in graph.indemnity_deltas(deal, posted) {
                        prop_assert_eq!(
                            analyzer.apply(delta).unwrap(),
                            oracle.apply(delta).unwrap()
                        );
                    }
                }
            }
        }
        for c in graph.commitments() {
            let Some(other) = graph
                .commitments()
                .iter()
                .find(|o| o.deal == c.deal && o.side != c.side)
            else {
                continue;
            };
            // Spec trust can leave waivers initially granted, so a bare
            // grant/revoke cycle would not return there — remember each
            // affected commitment's starting state and put it back.
            let saved: Vec<(CommitmentId, bool)> = graph
                .trust_deltas(other.principal, c.principal, true)
                .iter()
                .map(|d| match d {
                    GraphDelta::SetWaiver { commitment, .. } => {
                        (*commitment, graph.commitment(*commitment).clause2_waiver)
                    }
                    _ => unreachable!("trust_deltas only emits waiver toggles"),
                })
                .collect();
            for granted in [true, false] {
                for delta in graph.trust_deltas(other.principal, c.principal, granted) {
                    prop_assert_eq!(
                        analyzer.apply(delta).unwrap(),
                        oracle.apply(delta).unwrap()
                    );
                }
            }
            for (commitment, waived) in saved {
                let delta = GraphDelta::SetWaiver { commitment, waived };
                prop_assert_eq!(
                    analyzer.apply(delta).unwrap(),
                    oracle.apply(delta).unwrap()
                );
            }
        }

        prop_assert_eq!((analyzer.feasible(), analyzer.remaining_edges()), initial);
    }
}
