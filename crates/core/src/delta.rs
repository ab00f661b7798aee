//! Incremental verdict maintenance over an evolving trust graph.
//!
//! Every batch driver treats a spec/trust-graph pair as a cold problem:
//! any change to the trust relation or the indemnity set forces a full
//! rebuild and re-reduction. A live marketplace mutates between almost
//! every query — trust edges gained via successful trades and lost via
//! defections, indemnities posted and expiring — and re-certification
//! latency, not cold throughput, becomes the bottleneck.
//!
//! [`DeltaAnalyzer`] keeps the bitset scratch engine's state (live-edge
//! bitset, packed degree+XOR state words, candidate bitsets — see
//! [`ScratchReducer`]) *resident at the reduction fixpoint* per structure,
//! together with a per-slot removal-stamp history, and maintains the
//! §4.2.4 feasibility verdict across typed [`GraphDelta`]s without
//! rebuilding or re-reducing from scratch.
//!
//! # The monotonicity split
//!
//! The §4.2 rules are monotone under edge **removal** and waiver
//! **grant**: degrees only fall, red pre-emption only lifts, waivers only
//! enable moves. Every previously applied move therefore stays valid on
//! the mutated graph, the residual fixpoint state remains reachable, and
//! by the confluence theorem the engine may simply *resume*: remove the
//! edge from the resident state (or set the waiver bit), re-seed only the
//! disturbed fringe — the two endpoint survivors plus the red
//! pre-emption-lift cascade, exactly the enabling events of a rule
//! application — and pop to the new fixpoint. Cost is proportional to the
//! disturbed region, typically O(1).
//!
//! Edge **restores** and waiver **revocations** are anti-monotone: a
//! restored edge raises degrees and can re-impose pre-emption, so
//! retained moves may become invalid and previously reduced edges may
//! need to *resurrect*. Reduction has no inverse rule, but invalidity is
//! *local in time*: a move's validity depends only on the removals it
//! could observe — those stamped before it. The engine therefore keeps
//! per-slot removal stamps (when each edge left the live set, and by
//! which rule) plus per-commitment waiver-grant stamps, and computes the
//! exact set of retained moves a mutation invalidates — the **minimal
//! undo frontier** — by cascading from the mutation through shared
//! commitments (rule #1 degrees), shared conjunctions (rule #2 degrees
//! and red pre-emption re-imposition) and waiver timing. Exactly those
//! edges are resurrected in place in the resident state, pre-emption
//! flags and candidates are re-seeded over the disturbed region (only
//! resurrected slots can have become reducible), and the engine pops to
//! the new fixpoint. The surviving history stays valid in stamp order, so
//! the patched state is reachable on the mutated graph and confluence
//! again carries the verdict; cost is proportional to the disturbed
//! region, not to the history length or the graph size.
//!
//! When the undo frontier exceeds a configurable threshold (default
//! `max(32, edges/8)` invalidated moves), cascading invalidations mean
//! patching approaches the cost of cold work, and the engine falls back
//! to a full verdict-only re-reduction
//! ([`ScratchReducer::run_verdict_only`] semantics, stamped so the next
//! delta can resume). Fallbacks are counted in [`DeltaStats`] and the
//! `delta.fallbacks` metric.
//!
//! # Example
//!
//! ```
//! use trustseq_core::{DeltaAnalyzer, GraphDelta, SequencingGraph, fixtures};
//!
//! # fn main() -> Result<(), trustseq_core::CoreError> {
//! // Example #2 deadlocks on mutual distrust…
//! let (spec, ids) = fixtures::example2();
//! let graph = SequencingGraph::from_spec(&spec)?;
//! let mut analyzer = DeltaAnalyzer::new(graph);
//! assert!(!analyzer.feasible());
//! // …until source1 comes to trust broker1: the marketplace event
//! // maps to clause-2 waiver grants, maintained incrementally.
//! let deltas = analyzer.graph().trust_deltas(ids.source1, ids.broker1, true);
//! for delta in deltas {
//!     analyzer.apply(delta)?;
//! }
//! assert!(analyzer.feasible());
//! # Ok(())
//! # }
//! ```

use crate::error::CoreError;
use crate::graph::{CommitmentId, EdgeId, SequencingGraph};
use crate::obs;
use crate::scratch::{RemovalLog, ScratchReducer, UndoOrigin};
use trustseq_model::{AgentId, DealId};

/// A typed, graph-level mutation of an exchange's trust structure — the
/// unit of work of the [`DeltaAnalyzer`].
///
/// Spec-level marketplace events map onto these via
/// [`SequencingGraph::trust_deltas`] (trust edge added/removed → clause-2
/// waiver toggles) and [`SequencingGraph::indemnity_deltas`] (indemnity
/// posted/expired → principal-side edge removed/restored). Participant
/// joins and leaves change the graph's shape and are handled by rebuilding
/// (see [`DeltaAnalyzer::replace_graph`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphDelta {
    /// Removes a live edge from the base graph — an indemnity posted on a
    /// deal splits the buyer's principal-side edge away (§6). Monotone:
    /// maintained by resuming from the residual state.
    RemoveEdge(EdgeId),
    /// Restores a removed edge — an indemnity expired or was revoked.
    /// Anti-monotone: maintained by resurrecting the minimal undo
    /// frontier.
    RestoreEdge(EdgeId),
    /// Grants or withdraws the clause-2 waiver of a commitment — a trust
    /// edge gained or lost between a deal's counterparties (§4.2.3). A
    /// grant is monotone (resume); a withdrawal is anti-monotone (undo
    /// frontier).
    SetWaiver {
        /// The commitment whose waiver flag changes.
        commitment: CommitmentId,
        /// The new waiver state.
        waived: bool,
    },
}

/// Counters describing how a [`DeltaAnalyzer`] has maintained its verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Deltas applied (including no-op waiver toggles).
    pub applied: u64,
    /// Monotone deltas maintained by resuming from the residual state.
    pub resumed: u64,
    /// Anti-monotone deltas maintained by undo-frontier resurrection.
    pub undos: u64,
    /// Retained moves invalidated and resurrected across all undo
    /// cascades (the summed undo-frontier size).
    pub undone_steps: u64,
    /// Undo cascades abandoned for a full re-reduction because the
    /// frontier exceeded the fallback threshold.
    pub fallbacks: u64,
    /// Full verdict-only re-reductions (fallbacks, graph replacements, and
    /// every delta when constructed as a [`DeltaAnalyzer::full_baseline`]).
    pub full_runs: u64,
}

/// Incremental re-analysis engine: owns an evolving [`SequencingGraph`]
/// and maintains its feasibility verdict across [`GraphDelta`]s from
/// resident scratch state, per the module-level monotonicity split.
#[derive(Debug)]
pub struct DeltaAnalyzer {
    graph: SequencingGraph,
    scratch: ScratchReducer,
    /// Per-slot removal stamps behind the current residual state — the
    /// undo-frontier input for anti-monotone deltas.
    log: RemovalLog,
    fallback_threshold: usize,
    full_baseline: bool,
    feasible: bool,
    stats: DeltaStats,
}

impl DeltaAnalyzer {
    /// Takes ownership of `graph`, runs the initial full analysis, and
    /// keeps the residual state resident. Uses the default fallback
    /// threshold of `max(32, edges/8)` skipped steps.
    pub fn new(graph: SequencingGraph) -> Self {
        let threshold = default_threshold(&graph);
        Self::with_threshold(graph, threshold)
    }

    /// [`DeltaAnalyzer::new`] with an explicit undo fallback threshold:
    /// an anti-monotone delta whose undo frontier invalidates *more than*
    /// `threshold` retained moves abandons the patch for a full
    /// re-reduction. `0` falls back as soon as one retained move is
    /// invalidated; `usize::MAX` never falls back.
    pub fn with_threshold(graph: SequencingGraph, threshold: usize) -> Self {
        let mut analyzer = DeltaAnalyzer {
            graph,
            scratch: ScratchReducer::new(),
            log: RemovalLog::default(),
            fallback_threshold: threshold,
            full_baseline: false,
            feasible: false,
            stats: DeltaStats::default(),
        };
        analyzer.feasible = analyzer
            .scratch
            .run_stamped(&analyzer.graph, &mut analyzer.log);
        analyzer
    }

    /// A non-incremental twin for honest comparisons: applies every delta
    /// to the base graph exactly like [`DeltaAnalyzer::new`] would, but
    /// recomputes the verdict with a full verdict-only re-reduction each
    /// time instead of maintaining resident state — the `--full`
    /// marketplace baseline measured by the `delta` bench.
    pub fn full_baseline(graph: SequencingGraph) -> Self {
        let mut analyzer = Self::new(graph);
        analyzer.full_baseline = true;
        analyzer
    }

    /// The current feasibility verdict (§4.2.4).
    pub fn feasible(&self) -> bool {
        self.feasible
    }

    /// Live edges remaining after maximal reduction of the current graph.
    pub fn remaining_edges(&self) -> usize {
        self.scratch.remaining_live()
    }

    /// Red edges among [`remaining_edges`](Self::remaining_edges). By
    /// confluence the irreducible remainder, and so this count, depends on
    /// the current graph alone.
    pub fn remaining_red(&self) -> usize {
        self.scratch.remaining_red(&self.graph)
    }

    /// The evolving base graph (mutations go through
    /// [`apply`](Self::apply), never directly).
    pub fn graph(&self) -> &SequencingGraph {
        &self.graph
    }

    /// The undo fallback threshold this analyzer was built with.
    pub fn fallback_threshold(&self) -> usize {
        self.fallback_threshold
    }

    /// Maintenance counters accumulated since construction.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Applies one typed delta to the base graph and brings the verdict to
    /// the new fixpoint, returning it. On error the graph and the resident
    /// state are unchanged.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidMove`] — removing a dead/unknown edge;
    /// * [`CoreError::RuleNotApplicable`] — restoring a live edge;
    /// * [`CoreError::UnknownCommitment`] — waiver toggle out of range.
    pub fn apply(&mut self, delta: GraphDelta) -> Result<bool, CoreError> {
        match delta {
            GraphDelta::RemoveEdge(id) => {
                self.graph.remove_edge(id)?;
                if self.full_baseline {
                    self.recompute_full();
                } else if self.scratch.slot_is_live(id.index()) {
                    // Monotone resume: take the edge out of the residual
                    // state, stamp the exogenous removal, seed the
                    // disturbed fringe, pop to fixpoint.
                    self.stats.resumed += 1;
                    self.log.stamp_removal(id.index(), false);
                    self.scratch.exogenous_remove(&self.graph, id.index());
                    self.feasible = self.scratch.drive_stamped(&self.graph, &mut self.log);
                } else {
                    // The reduction had already removed this edge, so the
                    // residual state *is* the new fixpoint and the stamp
                    // history is untouched: the slot keeps the stamp of
                    // the reduction move that removed it — exactly when
                    // later moves began observing its absence — and the
                    // undo cascade filters graph-dead slots on its own.
                    self.stats.resumed += 1;
                }
            }
            GraphDelta::RestoreEdge(id) => {
                if id.index() >= self.graph.edges().len() {
                    return Err(CoreError::InvalidMove(id));
                }
                if self.graph.is_live(id) {
                    return Err(CoreError::RuleNotApplicable {
                        edge: id,
                        reason: "cannot restore a live edge",
                    });
                }
                self.graph.restore_edge(id);
                if self.full_baseline {
                    self.recompute_full();
                } else {
                    self.reanalyze_by_undo(UndoOrigin::Restore(id.index()));
                }
            }
            GraphDelta::SetWaiver { commitment, waived } => {
                if self.graph.set_waiver(commitment, waived)? {
                    if self.full_baseline {
                        self.recompute_full();
                    } else if waived {
                        // Monotone resume: the only newly enabled move is
                        // the commitment's fringe survivor, if any. Stamp
                        // the grant first so the moves it enables carry
                        // later stamps (they relied on the waiver).
                        self.stats.resumed += 1;
                        self.log.stamp_grant(commitment);
                        self.scratch.grant_waiver(&self.graph, commitment);
                        self.feasible = self.scratch.drive_stamped(&self.graph, &mut self.log);
                    } else {
                        self.reanalyze_by_undo(UndoOrigin::Revoke(commitment));
                    }
                }
            }
        }
        self.stats.applied += 1;
        if obs::enabled() {
            obs::with(|r| r.counter("delta.applied", 1));
        }
        Ok(self.feasible)
    }

    /// Replaces the base graph wholesale — a participant joined or left,
    /// or a deal was added, changing the graph's shape — and re-analyzes
    /// from scratch. Scratch buffers and thresholds are retained; the
    /// fallback threshold is re-derived for the new shape.
    pub fn replace_graph(&mut self, graph: SequencingGraph) {
        self.graph = graph;
        self.fallback_threshold = default_threshold(&self.graph);
        self.recompute_full();
    }

    /// Full re-reduction of the current graph. Incremental analyzers
    /// restart the removal-stamp history so subsequent deltas can resume
    /// or undo from it; the full baseline skips even that bookkeeping so
    /// the delta-vs-full comparison is against the fastest possible
    /// non-incremental run.
    fn recompute_full(&mut self) {
        self.stats.full_runs += 1;
        if obs::enabled() {
            obs::with(|r| r.counter("delta.full_runs", 1));
        }
        self.feasible = if self.full_baseline {
            self.scratch
                .run_verdict_only(&self.graph, crate::reduce::Strategy::Deterministic)
        } else {
            self.scratch.run_stamped(&self.graph, &mut self.log)
        };
    }

    /// The anti-monotone path: resurrect the minimal undo frontier in the
    /// resident state, or fall back to a full re-reduction when it is
    /// wider than the fallback threshold.
    fn reanalyze_by_undo(&mut self, origin: UndoOrigin) {
        self.stats.undos += 1;
        match self.scratch.undo_frontier(
            &self.graph,
            &mut self.log,
            origin,
            self.fallback_threshold,
        ) {
            Some((undone, feasible)) => {
                self.stats.undone_steps += undone as u64;
                if obs::enabled() {
                    obs::with(|r| r.counter("delta.undone_steps", undone as u64));
                }
                self.feasible = feasible;
            }
            None => {
                // The cascade tore the resident state before bailing; the
                // full run rebuilds both it and the stamp history.
                self.stats.fallbacks += 1;
                if obs::enabled() {
                    obs::with(|r| r.counter("delta.fallbacks", 1));
                }
                self.recompute_full();
            }
        }
    }
}

/// Default undo fallback threshold for a graph's shape.
fn default_threshold(graph: &SequencingGraph) -> usize {
    (graph.edges().len() / 8).max(32)
}

impl SequencingGraph {
    /// Maps a trust-relation mutation — `truster` gains (`granted`) or
    /// loses direct trust in `trustee` — onto the clause-2 waiver toggles
    /// it induces on this graph (§4.2.3: the trusted-agent role of a deal
    /// passes to the counterparty the other side trusts): one
    /// [`GraphDelta::SetWaiver`] per commitment where `trustee` is the
    /// principal and `truster` is the deal's other principal.
    ///
    /// Exact when, as in the marketplace workload, each deal's commitments
    /// have a dedicated trusted component and at most one trust edge per
    /// principal pair; overlapping role sources (shared escrows mediating
    /// several deals between the same parties, explicit
    /// `set_role_player` grants) can make a *withdrawal* over-revoke —
    /// rebuild from the spec in that regime.
    pub fn trust_deltas(
        &self,
        truster: AgentId,
        trustee: AgentId,
        granted: bool,
    ) -> Vec<GraphDelta> {
        self.commitments()
            .iter()
            .filter(|c| {
                c.principal == trustee
                    && self
                        .commitments()
                        .iter()
                        .any(|o| o.deal == c.deal && o.side != c.side && o.principal == truster)
            })
            .map(|c| GraphDelta::SetWaiver {
                commitment: c.id,
                waived: granted,
            })
            .collect()
    }

    /// Maps an indemnity event on `deal` — posted (`posted`) or
    /// expired/revoked — onto the structural deltas it induces: §6 splits
    /// the covered deal's buyer-side commitment away from the buyer's
    /// conjunction, so the principal-side edges of that commitment are
    /// removed (posted) or restored (expired). Returns an empty vector
    /// when the deal has no buyer-side principal edge in this graph (it
    /// was built with the indemnity already in place, or the deal is
    /// unknown).
    pub fn indemnity_deltas(&self, deal: DealId, posted: bool) -> Vec<GraphDelta> {
        self.edges()
            .iter()
            .filter(|e| {
                let c = self.commitment(e.commitment);
                c.deal == deal
                    && c.side == trustseq_model::DealSide::Buyer
                    && !self.conjunction(e.conjunction).trusted
            })
            .map(|e| {
                if posted {
                    GraphDelta::RemoveEdge(e.id)
                } else {
                    GraphDelta::RestoreEdge(e.id)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::reduce::Strategy;

    /// Cold-oracle verdict of the analyzer's *current* graph state.
    fn cold_verdict(analyzer: &DeltaAnalyzer) -> bool {
        ScratchReducer::new().run_verdict_only(analyzer.graph(), Strategy::Deterministic)
    }

    #[test]
    fn edge_churn_tracks_cold_oracle() {
        let (spec, _) = fixtures::example1();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let edge_count = graph.edges().len();
        let mut analyzer = DeltaAnalyzer::new(graph);
        assert!(analyzer.feasible());
        // Remove every edge one at a time (each against the cold oracle),
        // then restore them in reverse.
        for slot in 0..edge_count {
            let got = analyzer.apply(GraphDelta::RemoveEdge(EdgeId::new(slot as u32)));
            assert_eq!(got.unwrap(), cold_verdict(&analyzer), "remove e{slot}");
        }
        // All base edges removed: trivially feasible.
        assert!(analyzer.feasible());
        assert_eq!(analyzer.remaining_edges(), 0);
        for slot in (0..edge_count).rev() {
            let got = analyzer.apply(GraphDelta::RestoreEdge(EdgeId::new(slot as u32)));
            assert_eq!(got.unwrap(), cold_verdict(&analyzer), "restore e{slot}");
        }
        assert!(analyzer.feasible());
        assert_eq!(analyzer.graph().live_edge_count(), edge_count);
    }

    #[test]
    fn trust_deltas_flip_example2_feasibility() {
        // §4.2.3 variant 1: source1 coming to trust broker1 makes
        // Example #2 feasible (domino effect); withdrawal reverts it.
        let (spec, ids) = fixtures::example2();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let mut analyzer = DeltaAnalyzer::new(graph);
        assert!(!analyzer.feasible());

        let deltas = analyzer
            .graph()
            .trust_deltas(ids.source1, ids.broker1, true);
        assert!(!deltas.is_empty());
        for d in deltas {
            analyzer.apply(d).unwrap();
        }
        assert!(analyzer.feasible());
        assert_eq!(analyzer.feasible(), cold_verdict(&analyzer));

        // The spec-level mutation rebuilt cold agrees.
        let mut trusted_spec = spec.clone();
        trusted_spec.add_trust(ids.source1, ids.broker1).unwrap();
        let rebuilt = SequencingGraph::from_spec(&trusted_spec).unwrap();
        assert_eq!(
            rebuilt,
            *analyzer.graph(),
            "waiver toggle must equal rebuild"
        );
        assert_eq!(
            ScratchReducer::new().run_verdict_only(&rebuilt, Strategy::Deterministic),
            analyzer.feasible()
        );

        // Withdrawing the trust again restores infeasibility via the
        // undo-frontier path.
        let deltas = analyzer
            .graph()
            .trust_deltas(ids.source1, ids.broker1, false);
        for d in deltas {
            analyzer.apply(d).unwrap();
        }
        assert!(!analyzer.feasible());
        assert_eq!(analyzer.feasible(), cold_verdict(&analyzer));
        let stats = analyzer.stats();
        assert!(stats.resumed >= 1, "grant should resume: {stats:?}");
        assert!(stats.undos >= 1, "revoke should undo: {stats:?}");
    }

    #[test]
    fn threshold_zero_always_falls_back_and_stays_correct() {
        let (spec, ids) = fixtures::example2();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let mut eager = DeltaAnalyzer::with_threshold(graph.clone(), 0);
        let mut lazy = DeltaAnalyzer::with_threshold(graph, usize::MAX);
        for granted in [true, false, true] {
            for d in eager
                .graph()
                .trust_deltas(ids.source1, ids.broker1, granted)
            {
                let a = eager.apply(d).unwrap();
                let b = lazy.apply(d).unwrap();
                assert_eq!(a, b);
                assert_eq!(a, cold_verdict(&eager));
            }
        }
        assert!(lazy.stats().fallbacks == 0, "{:?}", lazy.stats());
        // Revoking the waiver invalidates at least one retained move, so
        // the zero-threshold analyzer must have fallen back; both agree
        // with the oracle throughout regardless.
        assert!(eager.stats().fallbacks >= 1, "{:?}", eager.stats());
        assert!(lazy.stats().undone_steps >= 1, "{:?}", lazy.stats());
    }

    #[test]
    fn invalid_deltas_are_typed_errors_and_leave_state_intact() {
        let (spec, _) = fixtures::example1();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let mut analyzer = DeltaAnalyzer::new(graph);
        let before = analyzer.feasible();

        assert!(matches!(
            analyzer.apply(GraphDelta::RemoveEdge(EdgeId::new(999))),
            Err(CoreError::InvalidMove(_))
        ));
        assert!(matches!(
            analyzer.apply(GraphDelta::RestoreEdge(EdgeId::new(0))),
            Err(CoreError::RuleNotApplicable { .. })
        ));
        assert!(matches!(
            analyzer.apply(GraphDelta::RestoreEdge(EdgeId::new(999))),
            Err(CoreError::InvalidMove(_))
        ));
        assert!(matches!(
            analyzer.apply(GraphDelta::SetWaiver {
                commitment: CommitmentId::new(999),
                waived: true
            }),
            Err(CoreError::UnknownCommitment(_))
        ));
        assert_eq!(analyzer.feasible(), before);
        assert_eq!(analyzer.feasible(), cold_verdict(&analyzer));
        assert_eq!(analyzer.stats().applied, 0);
    }

    #[test]
    fn full_baseline_twin_agrees_everywhere() {
        let (spec, ids) = fixtures::example2();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let mut delta = DeltaAnalyzer::new(graph.clone());
        let mut full = DeltaAnalyzer::full_baseline(graph);
        for granted in [true, false] {
            for d in delta
                .graph()
                .trust_deltas(ids.source1, ids.broker1, granted)
            {
                assert_eq!(delta.apply(d).unwrap(), full.apply(d).unwrap());
            }
        }
        assert!(full.stats().full_runs >= 1);
        assert_eq!(delta.stats().full_runs, 0);
    }

    #[test]
    fn indemnity_deltas_match_spec_level_rebuild() {
        // §6: the consumer indemnifying sale1 splits its bundle, freeing
        // both chains of Example #2.
        let (mut spec, ids) = fixtures::example2();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let mut analyzer = DeltaAnalyzer::new(graph);
        assert!(!analyzer.feasible());

        let deltas = analyzer.graph().indemnity_deltas(ids.sale1, true);
        assert!(!deltas.is_empty());
        for d in deltas {
            analyzer.apply(d).unwrap();
        }
        assert_eq!(analyzer.feasible(), cold_verdict(&analyzer));

        // Spec-level: post the actual indemnity and rebuild cold.
        spec.add_indemnity(
            ids.consumer,
            ids.sale1,
            trustseq_model::Money::from_dollars(10),
        )
        .unwrap();
        let rebuilt = SequencingGraph::from_spec(&spec).unwrap();
        assert_eq!(
            ScratchReducer::new().run_verdict_only(&rebuilt, Strategy::Deterministic),
            analyzer.feasible()
        );

        // Expiry restores the edges and the original verdict.
        let deltas = analyzer.graph().indemnity_deltas(ids.sale1, false);
        for d in deltas {
            analyzer.apply(d).unwrap();
        }
        assert!(!analyzer.feasible());
        assert_eq!(analyzer.feasible(), cold_verdict(&analyzer));
    }

    #[test]
    fn replace_graph_rebuilds_for_shape_changes() {
        let (spec1, _) = fixtures::example2();
        let (spec2, _) = fixtures::example1();
        let mut analyzer = DeltaAnalyzer::new(SequencingGraph::from_spec(&spec1).unwrap());
        assert!(!analyzer.feasible());
        analyzer.replace_graph(SequencingGraph::from_spec(&spec2).unwrap());
        assert!(analyzer.feasible());
        assert!(analyzer.stats().full_runs >= 1);
    }
}
