//! The reduction engine: rules #1 and #2, maximal (greedy) reduction and the
//! feasibility test (§4.2).

use crate::graph::{EdgeColor, EdgeId, SequencingGraph};
use crate::obs;
use crate::trace::{ReductionStep, ReductionTrace, Rule};
use crate::CoreError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reduction move: a live edge together with the rule that sanctions its
/// removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// The edge to remove.
    pub edge: EdgeId,
    /// The sanctioning rule.
    pub rule: Rule,
    /// Whether rule #1 applies via clause 2 (direct-trust waiver) only.
    pub via_clause2: bool,
}

/// The order in which applicable moves are chosen.
///
/// The paper proves (and our property tests confirm) that the feasibility
/// verdict is *confluent* — independent of the reduction order — so the
/// strategy only affects the shape of the recovered execution sequence, not
/// whether one exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Strategy {
    /// Always apply the applicable move with the *largest* edge id,
    /// preferring rule #1 on ties. With deals declared retail-first (as in
    /// the [fixtures](crate::fixtures)), this works inward from the
    /// supplier-side fringe exactly like the paper's worked reductions in
    /// §4.2.2, so the recovered execution sequence matches §5 step for
    /// step.
    #[default]
    Deterministic,
    /// Shuffle the applicable moves with a seeded RNG at every step. Used to
    /// test confluence.
    Randomized {
        /// RNG seed.
        seed: u64,
    },
}

/// The outcome of a maximal reduction.
///
/// The `Default` value is an empty, vacuously infeasible outcome — its only
/// purpose is to seed a reusable output slot for
/// [`ScratchReducer::run_into`](crate::ScratchReducer::run_into).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReductionOutcome {
    /// Whether the graph reduced to zero edges — the feasibility test of
    /// §4.2.4.
    pub feasible: bool,
    /// The rule applications performed.
    pub trace: ReductionTrace,
    /// Edges still live when no rule applied (empty iff `feasible`).
    pub remaining_edges: Vec<EdgeId>,
}

impl ReductionOutcome {
    /// How many of the remaining edges are red. Edge colours never change
    /// during a reduction, so they are read off `graph`, the graph reduced.
    pub fn remaining_red(&self, graph: &SequencingGraph) -> usize {
        self.remaining_edges
            .iter()
            .filter(|&&e| graph.edge(e).color == EdgeColor::Red)
            .count()
    }
}

impl fmt::Display for ReductionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.feasible {
            write!(f, "feasible after {} reductions", self.trace.len())
        } else {
            write!(
                f,
                "infeasible: {} edges remain after {} reductions",
                self.remaining_edges.len(),
                self.trace.len()
            )
        }
    }
}

/// Applies reduction rules to a [`SequencingGraph`] until no more apply.
///
/// ```
/// use trustseq_core::{fixtures, Reducer, SequencingGraph};
///
/// # fn main() -> Result<(), trustseq_core::CoreError> {
/// let (spec, _) = fixtures::example1();
/// let graph = SequencingGraph::from_spec(&spec)?;
/// let outcome = Reducer::new(graph).run();
/// assert!(outcome.feasible);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reducer {
    graph: SequencingGraph,
    strategy: Strategy,
}

impl Reducer {
    /// Creates a reducer with the default deterministic strategy.
    pub fn new(graph: SequencingGraph) -> Self {
        Reducer {
            graph,
            strategy: Strategy::Deterministic,
        }
    }

    /// Selects the move-ordering strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Read access to the (possibly partially reduced) graph.
    pub fn graph(&self) -> &SequencingGraph {
        &self.graph
    }

    /// All currently applicable moves.
    ///
    /// Rule #1 applies to an edge `(c, j)` when `c` has no other live edge
    /// and either no *other* live red edge is incident to `j` (clause 1) or
    /// `c` carries the direct-trust waiver (clause 2). Rule #2 applies when
    /// `j` has no other live edge.
    pub fn applicable_moves(&self) -> Vec<Move> {
        let g = &self.graph;
        let mut moves = Vec::new();
        for e in g.live_edges() {
            // Rule #1: fringe commitment.
            if g.commitment_degree(e.commitment) == 1 {
                let preempted = g.preempted_by_red(e.conjunction, e.id);
                let waiver = g.commitment(e.commitment).clause2_waiver;
                if !preempted || waiver {
                    moves.push(Move {
                        edge: e.id,
                        rule: Rule::CommitmentFringe,
                        via_clause2: preempted && waiver,
                    });
                }
            }
            // Rule #2: fringe conjunction.
            if g.conjunction_degree(e.conjunction) == 1 {
                moves.push(Move {
                    edge: e.id,
                    rule: Rule::ConjunctionFringe,
                    via_clause2: false,
                });
            }
        }
        moves
    }

    /// Applies one move, recording what it disconnected.
    ///
    /// # Errors
    ///
    /// [`CoreError::RuleNotApplicable`] if the move's preconditions do not
    /// hold, [`CoreError::InvalidMove`] if the edge is unknown or dead.
    pub fn apply(&mut self, mv: Move) -> Result<ReductionStep, CoreError> {
        let g = &self.graph;
        let edge = match g.edges().get(mv.edge.index()) {
            Some(&edge) if g.is_live(mv.edge) => edge,
            _ => return Err(CoreError::InvalidMove(mv.edge)),
        };
        match mv.rule {
            Rule::CommitmentFringe => {
                if g.commitment_degree(edge.commitment) != 1 {
                    return Err(CoreError::RuleNotApplicable {
                        edge: mv.edge,
                        reason: "commitment is not on the fringe",
                    });
                }
                let preempted = g.preempted_by_red(edge.conjunction, edge.id);
                let waiver = g.commitment(edge.commitment).clause2_waiver;
                if preempted && !waiver {
                    return Err(CoreError::RuleNotApplicable {
                        edge: mv.edge,
                        reason: "pre-empted by a red edge",
                    });
                }
            }
            Rule::ConjunctionFringe => {
                if g.conjunction_degree(edge.conjunction) != 1 {
                    return Err(CoreError::RuleNotApplicable {
                        edge: mv.edge,
                        reason: "conjunction is not on the fringe",
                    });
                }
            }
        }
        self.graph.remove_edge(mv.edge)?;
        let step = ReductionStep {
            edge: mv.edge,
            rule: mv.rule,
            via_clause2: mv.via_clause2,
            disconnected_commitment: (self.graph.commitment_degree(edge.commitment) == 0)
                .then_some(edge.commitment),
            disconnected_conjunction: (self.graph.conjunction_degree(edge.conjunction) == 0)
                .then_some(edge.conjunction),
        };
        Ok(step)
    }

    /// Runs the reduction to a fixpoint and reports the outcome, through a
    /// [`ScratchReducer`](crate::ScratchReducer) over the owned graph.
    pub fn run(self) -> ReductionOutcome {
        crate::ScratchReducer::new().run(&self.graph, self.strategy)
    }

    /// Runs the reduction and returns the reduced graph alongside the
    /// outcome (useful for inspecting the impasse of an infeasible
    /// exchange): the trace's removals are replayed onto the owned graph.
    pub fn run_keeping_graph(mut self) -> (ReductionOutcome, SequencingGraph) {
        let outcome = crate::ScratchReducer::new().run(&self.graph, self.strategy);
        for step in outcome.trace.steps() {
            self.graph
                .remove_edge(step.edge)
                .expect("a trace removes each live edge exactly once");
        }
        (outcome, self.graph)
    }

    /// Reference engine: rescans the whole edge set for applicable moves at
    /// every step.
    ///
    /// O(edges) per step, so O(edges²) per run — kept as the oracle the
    /// property tests and the `reduce_random` benchmarks compare the
    /// bitset engine against.
    pub fn run_naive(mut self) -> ReductionOutcome {
        let mut trace = ReductionTrace::new();
        let mut rng = match self.strategy {
            Strategy::Randomized { seed } => Some(StdRng::seed_from_u64(seed)),
            Strategy::Deterministic => None,
        };
        loop {
            let mut moves = self.applicable_moves();
            if moves.is_empty() {
                break;
            }
            let mv = match &mut rng {
                Some(rng) => {
                    moves.shuffle(rng);
                    moves[0]
                }
                None => {
                    // Largest edge id, rule #1 preferred on ties.
                    moves.sort_by_key(|m| {
                        (std::cmp::Reverse(m.edge), m.rule != Rule::CommitmentFringe)
                    });
                    moves[0]
                }
            };
            let step = self.apply(mv).expect("applicable move must apply");
            trace.push(step);
        }
        let remaining_edges: Vec<EdgeId> = self.graph.live_edges().map(|e| e.id).collect();
        ReductionOutcome {
            feasible: remaining_edges.is_empty(),
            trace,
            remaining_edges,
        }
    }
}

/// Reports one finished reduction to the installed [`obs`] recorder:
/// run/removal counters, the rule #1 vs rule #2 split, and the peak
/// worklist (or applicable-set) depth the driver tracked. Callers gate on
/// [`obs::enabled`] first — this is never reached on the disabled path.
pub(crate) fn record_reduction_metrics(out: &ReductionOutcome, worklist_peak: usize) {
    let rule1 = out
        .trace
        .steps()
        .iter()
        .filter(|s| s.rule == Rule::CommitmentFringe)
        .count() as u64;
    let rule2 = out.trace.len() as u64 - rule1;
    obs::with(|r| {
        r.counter("reduce.runs", 1);
        r.counter("reduce.removals", out.trace.len() as u64);
        r.counter("reduce.rule1", rule1);
        r.counter("reduce.rule2", rule2);
        r.observe("reduce.worklist_peak", worklist_peak as u64);
    });
}

/// Convenience: builds the sequencing graph of `spec`, reduces it
/// deterministically, and reports the outcome.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn analyze(spec: &trustseq_model::ExchangeSpec) -> Result<ReductionOutcome, CoreError> {
    let graph = SequencingGraph::from_spec(spec)?;
    Ok(Reducer::new(graph).run())
}

/// Like [`analyze`], but with explicit [`BuildOptions`](crate::BuildOptions)
/// (e.g. the §9 shared-escrow delegation extension).
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn analyze_with(
    spec: &trustseq_model::ExchangeSpec,
    options: crate::BuildOptions,
) -> Result<ReductionOutcome, CoreError> {
    let graph = SequencingGraph::from_spec_with(spec, options)?;
    Ok(Reducer::new(graph).run())
}

/// Memoized [`analyze`]: with a cache, structurally repeated specs cost a
/// canonicalization plus a hash lookup instead of a reduction. `None`
/// degrades to plain [`analyze`].
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn analyze_cached(
    spec: &trustseq_model::ExchangeSpec,
    cache: Option<&crate::AnalysisCache>,
) -> Result<ReductionOutcome, CoreError> {
    match cache {
        Some(cache) => cache.analyze(spec),
        None => analyze(spec),
    }
}

/// Analyzes many specs at once, fanning the reductions across the
/// persistent [`pool`](crate::pool) workers.
///
/// Results are returned in input order, one per spec, each carrying its own
/// graph-construction errors. The fan-out width is
/// [`pool::size`](crate::pool::size) capped at the batch size, so small
/// batches don't over-fan and a single spec degenerates to the serial
/// path; the pool threads are spawned once per process, not per call.
pub fn analyze_batch(
    specs: &[trustseq_model::ExchangeSpec],
) -> Vec<Result<ReductionOutcome, CoreError>> {
    analyze_batch_cached(specs, None)
}

/// [`analyze_batch`] with an optional shared [`AnalysisCache`](crate::AnalysisCache).
pub fn analyze_batch_cached(
    specs: &[trustseq_model::ExchangeSpec],
    cache: Option<&crate::AnalysisCache>,
) -> Vec<Result<ReductionOutcome, CoreError>> {
    let workers = crate::pool::size().min(specs.len());
    analyze_batch_with(specs, cache, workers)
}

/// The fully explicit batch entry point: analyze `specs` with `workers`
/// worker indices, optionally through a shared cache.
///
/// Workers pull the next spec from a shared atomic counter, so one
/// structurally hard spec — or a run of cache misses next to a run of
/// hits — cannot leave the other workers idle. The result vector is in
/// input order and independent of `workers`: the property tests in
/// `tests/bitset_equivalence.rs` hold it equal to serial [`analyze`]
/// spec for spec.
pub fn analyze_batch_with(
    specs: &[trustseq_model::ExchangeSpec],
    cache: Option<&crate::AnalysisCache>,
    workers: usize,
) -> Vec<Result<ReductionOutcome, CoreError>> {
    let workers = workers.min(specs.len());
    // Each worker analyzes through its own reusable scratchpad: the graph
    // build still allocates per spec, but the reduction itself reuses the
    // worker's bitset and counter buffers for the whole batch.
    let analyze_one = |scratch: &mut crate::ScratchReducer,
                       spec: &trustseq_model::ExchangeSpec|
     -> Result<ReductionOutcome, CoreError> {
        match cache {
            Some(cache) => cache.analyze(spec),
            None => {
                let graph = SequencingGraph::from_spec(spec)?;
                Ok(scratch.run(&graph, Strategy::Deterministic))
            }
        }
    };
    if workers <= 1 {
        let mut scratch = crate::ScratchReducer::new();
        return specs.iter().map(|s| analyze_one(&mut scratch, s)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<Result<ReductionOutcome, CoreError>>> = Vec::new();
    results.resize_with(specs.len(), || None);
    let worker = |_worker_index: usize| {
        let mut scratch = crate::ScratchReducer::new();
        let mut done: Vec<(usize, Result<ReductionOutcome, CoreError>)> = Vec::new();
        loop {
            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(spec) = specs.get(i) else { break };
            done.push((i, analyze_one(&mut scratch, spec)));
        }
        done
    };
    for (i, result) in crate::pool::broadcast_collect(workers, &worker) {
        results[i] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("the shared counter covers every slot exactly once"))
        .collect()
}

/// The per-sample verdicts of an empirical confluence check.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfluenceReport {
    /// The deterministic strategy's feasibility verdict.
    pub reference_feasible: bool,
    /// How many randomized orders were sampled.
    pub samples: u64,
    /// How many of them agreed with the reference verdict.
    pub agreeing: u64,
    /// The seeds whose verdict disagreed (empty iff confluent on this
    /// sample).
    pub disagreeing_seeds: Vec<u64>,
}

impl ConfluenceReport {
    /// Whether every sampled order agreed with the deterministic verdict.
    pub fn unanimous(&self) -> bool {
        self.disagreeing_seeds.is_empty()
    }
}

impl fmt::Display for ConfluenceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} randomized orders agree with the {} reference",
            self.agreeing,
            self.samples,
            if self.reference_feasible {
                "feasible"
            } else {
                "infeasible"
            }
        )?;
        if !self.unanimous() {
            write!(f, " (disagreeing seeds: {:?})", self.disagreeing_seeds)?;
        }
        Ok(())
    }
}

/// Reduces a graph in place and rewinds it: the trace records exactly the
/// removed edges, so restoring them returns the graph (and its cached
/// counters) to the pre-run state without cloning.
///
/// Production paths now run repeated reductions through a
/// [`ScratchReducer`](crate::ScratchReducer) on an immutable graph; this
/// survives as the regression harness for
/// [`restore_edge`](SequencingGraph::restore_edge)'s state-word maintenance.
#[cfg(test)]
pub(crate) fn run_and_rewind(graph: &mut SequencingGraph, strategy: Strategy) -> ReductionOutcome {
    let owned = std::mem::replace(
        graph,
        SequencingGraph::from_parts(Vec::new(), Vec::new(), Vec::new()),
    );
    let (outcome, mut reduced) = Reducer::new(owned)
        .with_strategy(strategy)
        .run_keeping_graph();
    for step in outcome.trace.steps() {
        reduced.restore_edge(step.edge);
    }
    *graph = reduced;
    outcome
}

/// Checks confluence empirically: reduces `spec`'s graph under `samples`
/// random orders plus the deterministic order and reports the per-sample
/// verdicts.
///
/// The graph is built once and never mutated: every sample runs through a
/// reusable [`ScratchReducer`](crate::ScratchReducer), so the per-sample
/// cost is the reduction itself with no per-sample allocation, cloning or
/// rewinding.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn confluence_check(
    spec: &trustseq_model::ExchangeSpec,
    samples: u64,
) -> Result<ConfluenceReport, CoreError> {
    let graph = SequencingGraph::from_spec(spec)?;
    Ok(confluence_check_graph(&graph, samples))
}

/// [`confluence_check`] over an already-built graph.
pub(crate) fn confluence_check_graph(graph: &SequencingGraph, samples: u64) -> ConfluenceReport {
    let mut scratch = crate::ScratchReducer::new();
    let mut out = ReductionOutcome::default();
    scratch.run_into(graph, Strategy::Deterministic, &mut out);
    let reference_feasible = out.feasible;
    let mut agreeing = 0;
    let mut disagreeing_seeds = Vec::new();
    for seed in 0..samples {
        scratch.run_into(graph, Strategy::Randomized { seed }, &mut out);
        if out.feasible == reference_feasible {
            agreeing += 1;
        } else {
            disagreeing_seeds.push(seed);
        }
    }
    ConfluenceReport {
        reference_feasible,
        samples,
        agreeing,
        disagreeing_seeds,
    }
}

/// [`confluence_check`] with a memoized validation record: the randomized
/// samples are an experiment on a *structure*, so they run once per
/// structure — on its canonical graph — and every isomorphic query reuses
/// (or extends) the interned record instead of repeating the identical
/// experiment. A fresh structure still pays the reference reduction plus
/// all `samples` randomized reductions.
///
/// The cached report agrees with [`confluence_check`]'s for the same spec
/// whenever the reduction is confluent (the §4.2 theorem, upheld by every
/// test in this crate): both then report `samples` agreeing orders and no
/// disagreeing seeds. Seed `k` indexes an order of the canonical graph
/// here rather than of the query labelling, so in the (theorem-violating)
/// event of a disagreement the two reports could name different seeds.
///
/// # Errors
///
/// Propagates graph-construction errors.
pub fn confluence_check_cached(
    spec: &trustseq_model::ExchangeSpec,
    samples: u64,
    cache: Option<&crate::AnalysisCache>,
) -> Result<ConfluenceReport, CoreError> {
    let Some(cache) = cache else {
        return confluence_check(spec, samples);
    };
    let graph = SequencingGraph::from_spec(spec)?;
    Ok(cache.confluence(&graph, samples))
}

/// Runs [`confluence_check_cached`] over a whole corpus, fanning the
/// per-spec experiments across the persistent [`pool`](crate::pool)
/// workers, which pull specs from a shared atomic counter. Results are
/// returned in input order and are independent of worker count (each
/// per-spec experiment is deterministic in its seeds).
pub fn confluence_sweep(
    specs: &[trustseq_model::ExchangeSpec],
    samples: u64,
    cache: Option<&crate::AnalysisCache>,
) -> Vec<Result<ConfluenceReport, CoreError>> {
    let workers = crate::pool::size().min(specs.len());
    let check = |spec: &trustseq_model::ExchangeSpec| confluence_check_cached(spec, samples, cache);
    if workers <= 1 {
        return specs.iter().map(check).collect();
    }
    let results: Vec<std::sync::Mutex<Option<Result<ConfluenceReport, CoreError>>>> =
        specs.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    crate::pool::broadcast(workers, &|_index| loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(spec) = specs.get(i) else { break };
        *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(check(spec));
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every corpus slot was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::graph::EdgeColor;
    use trustseq_model::Money;

    #[test]
    fn example1_is_feasible() {
        let (spec, _) = fixtures::example1();
        let outcome = analyze(&spec).unwrap();
        assert!(outcome.feasible);
        // Six edges, six rule applications (Figure 3's circled numbers).
        assert_eq!(outcome.trace.len(), 6);
        assert!(outcome.remaining_edges.is_empty());
    }

    #[test]
    fn example1_commit_order_matches_paper() {
        // §4.2.2: the commit points are reached in the order
        // (t2↔producer), (consumer↔t1), (t1↔broker) [red], (broker↔t2).
        let (spec, ids) = fixtures::example1();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        let outcome = Reducer::new(g.clone()).run();
        let order: Vec<_> = outcome
            .trace
            .commitment_order()
            .map(|c| {
                let c = g.commitment(c);
                (c.principal, c.trusted)
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (ids.producer, ids.t2),
                (ids.consumer, ids.t1),
                (ids.broker, ids.t1), // the red (sale-side) commitment
                (ids.broker, ids.t2),
            ]
        );
    }

    #[test]
    fn example2_is_infeasible_with_paper_impasse() {
        let (spec, ids) = fixtures::example2();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        let (outcome, reduced) = Reducer::new(g).run_keeping_graph();
        assert!(!outcome.feasible);
        // §4.2.2: exactly four edges can be removed before the impasse.
        assert_eq!(outcome.trace.len(), 4);
        assert_eq!(outcome.remaining_edges.len(), 10);
        // The returned graph is the residual the outcome describes.
        let live: Vec<_> = reduced.live_edges().map(|e| e.id).collect();
        assert_eq!(live, outcome.remaining_edges);
        // The source-side commitments are committed; nothing else.
        let committed: Vec<_> = outcome.trace.commitment_order().collect();
        assert_eq!(committed.len(), 2);
        for c in committed {
            let c = reduced.commitment(c);
            assert!(c.principal == ids.source1 || c.principal == ids.source2);
        }
    }

    #[test]
    fn direct_trust_variant1_feasible() {
        // §4.2.3 variant 1: source1 trusts broker1 → broker1 plays t2's
        // role → the whole exchange becomes feasible (domino effect).
        let (mut spec, ids) = fixtures::example2();
        spec.add_trust(ids.source1, ids.broker1).unwrap();
        let outcome = analyze(&spec).unwrap();
        assert!(outcome.feasible);
        // Clause 2 must actually have fired somewhere.
        assert!(outcome.trace.steps().iter().any(|s| s.via_clause2));
    }

    #[test]
    fn direct_trust_variant2_still_infeasible() {
        // §4.2.3 variant 2: broker1 trusts source1 → source1 plays t2's
        // role — the impasse remains.
        let (mut spec, ids) = fixtures::example2();
        spec.add_trust(ids.broker1, ids.source1).unwrap();
        let outcome = analyze(&spec).unwrap();
        assert!(!outcome.feasible);
        assert_eq!(outcome.trace.len(), 4);
    }

    #[test]
    fn poor_broker_infeasible_with_reds_remaining() {
        let (spec, ids) = fixtures::poor_broker();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        let (outcome, reduced) = Reducer::new(g).run_keeping_graph();
        assert!(!outcome.feasible);
        // Both red edges at ∧B must survive: neither can be removed.
        let broker_j = reduced.conjunction_of(ids.broker).unwrap();
        let live_reds = reduced
            .live_edges_of_conjunction(broker_j)
            .filter(|e| e.color == EdgeColor::Red)
            .count();
        assert_eq!(live_reds, 2);
    }

    #[test]
    fn indemnity_makes_example2_feasible() {
        let (mut spec, ids) = fixtures::example2();
        // §6: broker 1 indemnifies the consumer with the price of doc 2.
        spec.add_indemnity(ids.broker1, ids.sale1, Money::from_dollars(20))
            .unwrap();
        let outcome = analyze(&spec).unwrap();
        assert!(outcome.feasible);
    }

    #[test]
    fn confluence_on_paper_examples() {
        for (spec, feasible) in [
            (fixtures::example1().0, true),
            (fixtures::example2().0, false),
            (fixtures::poor_broker().0, false),
            (fixtures::figure7().0, false),
        ] {
            let report = confluence_check(&spec, 25).unwrap();
            assert!(report.unanimous(), "{}: {report}", spec.name());
            assert_eq!(report.samples, 25);
            assert_eq!(report.agreeing, 25);
            assert_eq!(report.reference_feasible, feasible, "{}", spec.name());
            assert_eq!(
                analyze(&spec).unwrap().feasible,
                feasible,
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn confluence_rewind_leaves_graph_intact() {
        let (spec, _) = fixtures::example1();
        let mut graph = SequencingGraph::from_spec(&spec).unwrap();
        let pristine = graph.clone();
        super::run_and_rewind(&mut graph, Strategy::Deterministic);
        super::run_and_rewind(&mut graph, Strategy::Randomized { seed: 3 });
        assert_eq!(graph, pristine);
    }

    #[test]
    fn worklist_trace_matches_naive_oracle_on_fixtures() {
        for spec in [
            fixtures::example1().0,
            fixtures::example2().0,
            fixtures::poor_broker().0,
            fixtures::figure7().0,
        ] {
            let g = SequencingGraph::from_spec(&spec).unwrap();
            let incremental = Reducer::new(g.clone()).run();
            let naive = Reducer::new(g).run_naive();
            assert_eq!(incremental, naive, "{}", spec.name());
        }
    }

    #[test]
    fn analyze_batch_matches_serial_analyze() {
        let specs: Vec<_> = [
            fixtures::example1().0,
            fixtures::example2().0,
            fixtures::poor_broker().0,
            fixtures::figure7().0,
            fixtures::example1().0,
        ]
        .into_iter()
        .collect();
        let batch = analyze_batch(&specs);
        assert_eq!(batch.len(), specs.len());
        for (spec, result) in specs.iter().zip(&batch) {
            assert_eq!(result.as_ref().unwrap(), &analyze(spec).unwrap());
        }
    }

    #[test]
    fn randomized_strategies_agree_and_traces_cover_all_edges() {
        let (spec, _) = fixtures::example1();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        for seed in 0..10 {
            let outcome = Reducer::new(g.clone())
                .with_strategy(Strategy::Randomized { seed })
                .run();
            assert!(outcome.feasible);
            assert_eq!(outcome.trace.len(), 6);
        }
    }

    #[test]
    fn invalid_moves_are_rejected() {
        let (spec, _) = fixtures::example1();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        let mut reducer = Reducer::new(g);
        let moves = reducer.applicable_moves();
        assert!(!moves.is_empty());
        let mv = moves[0];
        reducer.apply(mv).unwrap();
        // Reapplying the same move fails: the edge is dead.
        assert_eq!(reducer.apply(mv), Err(CoreError::InvalidMove(mv.edge)));
    }

    #[test]
    fn out_of_range_moves_are_rejected() {
        let (spec, _) = fixtures::example1();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        let edge = EdgeId::new(10_000);
        for rule in [Rule::CommitmentFringe, Rule::ConjunctionFringe] {
            let mv = Move {
                edge,
                rule,
                via_clause2: false,
            };
            assert_eq!(
                Reducer::new(g.clone()).apply(mv),
                Err(CoreError::InvalidMove(edge))
            );
        }
    }

    #[test]
    fn rule_preconditions_enforced() {
        let (spec, ids) = fixtures::example1();
        let g = SequencingGraph::from_spec(&spec).unwrap();
        // The broker's purchase-side edge at ∧B is blocked by the red edge.
        let purchase = g
            .commitment_for(ids.supply, trustseq_model::DealSide::Buyer)
            .unwrap();
        let broker_j = g.conjunction_of(ids.broker).unwrap();
        let blocked = g
            .live_edges_of_commitment(purchase)
            .find(|e| e.conjunction == broker_j)
            .map(|e| e.id)
            .unwrap();
        let mut reducer = Reducer::new(g);
        let err = reducer
            .apply(Move {
                edge: blocked,
                rule: Rule::CommitmentFringe,
                via_clause2: false,
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::RuleNotApplicable { .. }));
    }

    #[test]
    fn outcome_display() {
        let (spec, _) = fixtures::example1();
        assert!(analyze(&spec).unwrap().to_string().contains("feasible"));
        let (spec, _) = fixtures::example2();
        assert!(analyze(&spec).unwrap().to_string().contains("infeasible"));
    }
}
