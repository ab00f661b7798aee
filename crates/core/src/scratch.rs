//! A reusable reduction scratchpad: the §4.2 rules over a *borrowed*
//! graph, with zero steady-state heap allocations and a cache-friendly
//! data layout.
//!
//! [`ScratchReducer`] is the one reduction engine behind every production
//! path. [`Reducer`](crate::Reducer) runs it over the graph it owns (and
//! replays the trace onto that graph when the caller wants the residual
//! back); batch drivers — feasibility sweeps, confluence sampling, the
//! analysis cache — keep one scratchpad per worker and reduce thousands
//! of specs through it, so the per-spec constant factors vanish.
//! [`Reducer::run_naive`](crate::Reducer::run_naive) is its oracle.
//!
//! # Data layout
//!
//! [`ScratchReducer`] keeps every piece of mutable reduction state in
//! structure-of-arrays buffers it owns and reuses:
//!
//! * **liveness** is a packed [`EdgeBitSet`] indexed by edge slot — the
//!   remaining-edge scan walks `u64` words with `trailing_zeros` instead
//!   of a byte-per-edge bitmap;
//! * **candidate scoring** is one interleaved bitset over two bits per
//!   edge slot (rule #1 and rule #2 eligibility): selecting the next move
//!   is a branch-light top-down word scan with `leading_zeros`, guided by
//!   a high-water word hint;
//! * **degrees and survivors** are packed per-node `u64` state words
//!   (live degree in the high 32 bits, an XOR accumulator of live edge
//!   slots in the low 32) copied verbatim from the graph's own state
//!   words: one word per node carries both the fringe test and — when the
//!   degree is exactly 1 — the surviving edge slot, so fringe cascades
//!   need no adjacency-row scan at all;
//! * **clause-2 waivers** are packed into one more bitset (memcpy'd from
//!   the graph) so the hot loop never loads a whole `Commitment` record.
//!
//! After the first run over the largest graph shape, a
//! [`reset_for`](ScratchReducer::reset_for) +
//! [`run_into`](ScratchReducer::run_into) loop performs no heap
//! allocation at all (verified by the counting test allocator in
//! `tests/alloc.rs`).
//!
//! # Exact candidacy: no pop-time revalidation
//!
//! The §4.2 rules are *monotone*: degrees only decrease (a degree-2
//! commitment becoming degree-1 enables a move; degree 1→0 means the
//! candidate itself was just removed), and rule #1's red pre-emption only
//! ever lifts (red edges are removed, never added). So a move that is
//! applicable stays applicable until its edge is removed. The engine
//! checks eligibility once at insert and clears a removed edge's
//! candidate bits immediately, so **every set bit is a valid move** and
//! the pop loop applies straight away.
//!
//! # Trace equivalence
//!
//! Traces are byte-identical to
//! [`Reducer::run_naive`](crate::Reducer::run_naive)'s for both
//! strategies. The deterministic rescan applies the applicable move with
//! the largest edge id, rule #1 first on ties; with rule #1 at bit
//! `2s + 1` and rule #2 at bit `2s`, the highest set candidate bit is
//! that same move, because the set holds exactly the applicable moves
//! (`via_clause2` is computed at pop time, as the rescan computes it at
//! selection). The randomized path reuses the rescan-shuffle protocol
//! with the same seeded RNG, so every confluence report carries over
//! unchanged.

use crate::bitset::{EdgeBitSet, WORD_BITS};
use crate::graph::{CommitmentId, ConjunctionId, Edge, EdgeColor, SequencingGraph};
use crate::obs;
use crate::reduce::{record_reduction_metrics, Move, ReductionOutcome, Strategy};
use crate::trace::{ReductionStep, Rule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Reusable reduction state: run the reduction rules over `&SequencingGraph`
/// without touching the graph, reusing every internal buffer across runs.
///
/// ```
/// use trustseq_core::{fixtures, ReductionOutcome, ScratchReducer, SequencingGraph, Strategy};
///
/// # fn main() -> Result<(), trustseq_core::CoreError> {
/// let graph = SequencingGraph::from_spec(&fixtures::example1().0)?;
/// let mut scratch = ScratchReducer::default();
/// let mut out = ReductionOutcome::default();
/// scratch.run_into(&graph, Strategy::Deterministic, &mut out);
/// assert!(out.feasible);
/// // The graph itself is untouched and can be reduced again immediately.
/// assert_eq!(graph.live_edge_count(), graph.initial_edge_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ScratchReducer {
    /// Live-edge membership, packed 64 slots per word.
    live: EdgeBitSet,
    /// Interleaved candidate set over `2 * edge_count` bits: bit
    /// `2s + 1` is rule #1 (commitment-fringe) candidacy of slot `s`,
    /// bit `2s` is rule #2 (conjunction-fringe). Plain descending bit
    /// order *is* the pop order `(edge id desc, rule #1 first)`, so a
    /// pop is one word load plus `leading_zeros`, and clearing a removed
    /// edge's candidacy is a single masked write on the adjacent pair.
    cand: EdgeBitSet,
    /// High-water hint: every candidate word at index `>= cand_top` is
    /// zero. Raised on insert, lowered by the pop scan.
    cand_top: usize,
    /// Per-commitment packed state: live degree in the high 32 bits, XOR
    /// of live edge slots in the low 32. When the degree is exactly 1 the
    /// accumulator *is* the surviving slot — an O(1) survivor lookup with
    /// no adjacency-row scan — and one word carries both.
    commitment_state: Vec<u64>,
    /// Per-conjunction packed state (same layout).
    conjunction_state: Vec<u64>,
    /// Per-conjunction packed state over live *red* edges only: the high
    /// half drives the rule #1 pre-emption test, the low half is the O(1)
    /// surviving-red lookup for the pre-emption-lift cascade.
    conjunction_red_state: Vec<u64>,
    /// Commitments whose §4.2 clause-2 waiver is set, packed by id.
    waivers: EdgeBitSet,
    /// Per-edge §4.2 pre-emption flags: bit `s` set iff another live red
    /// edge shares slot `s`'s conjunction. Seeded by memcpy from the
    /// graph's static full-live flags and cleared only at the 2→1 / 1→0
    /// red-count transitions, so the rule #1 eligibility test is one hot
    /// bitset load instead of an edge→conjunction→red-state chase.
    /// Deterministic-strategy only; bits of dead edges go stale and are
    /// never read.
    preempted: EdgeBitSet,
    live_count: usize,
    moves: Vec<Move>,
}

impl ScratchReducer {
    /// Creates an empty scratchpad. Buffers grow on first use and are
    /// retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads `graph`'s current liveness state (bitmap and cached degree
    /// counters) into the scratch buffers, clearing any previous run. After
    /// the buffers have grown to a graph's shape once, resetting for any
    /// graph of equal or smaller shape allocates nothing.
    pub fn reset_for(&mut self, graph: &SequencingGraph) {
        let edge_count = graph.edges().len();
        if graph.live_edge_count() == edge_count {
            // Fully live graph (the batch-driver common case): fill whole
            // words instead of re-packing the bool slice bit by bit.
            self.live.reset_full(edge_count);
        } else {
            self.live.reset_from_bools(graph.alive_slice());
        }
        // The graph maintains the packed degree+XOR state words in
        // lock-step with its liveness bitmap, so loading them — and the
        // static waiver set — is a handful of memcpys, not an edge scan.
        let (c_state, j_state, r_state) = graph.state_slices();
        self.commitment_state.clear();
        self.commitment_state.extend_from_slice(c_state);
        self.conjunction_state.clear();
        self.conjunction_state.extend_from_slice(j_state);
        self.conjunction_red_state.clear();
        self.conjunction_red_state.extend_from_slice(r_state);
        self.waivers.load_words(graph.waiver_words(), c_state.len());
        self.live_count = graph.live_edge_count();
        self.cand.reset(edge_count * 2);
        self.cand_top = 0;
        self.moves.clear();
    }

    /// Runs a maximal reduction of `graph` under `strategy`, writing the
    /// outcome into `out` (whose buffers are reused). Resets the scratch
    /// state from the graph first, so consecutive calls are independent.
    pub fn run_into(
        &mut self,
        graph: &SequencingGraph,
        strategy: Strategy,
        out: &mut ReductionOutcome,
    ) {
        self.reset_for(graph);
        out.trace.clear();
        out.remaining_edges.clear();
        // Worklist-depth tracking runs only with a recorder installed; the
        // disabled path (a single relaxed load) stays allocation-free, as
        // asserted by the counting allocator in `tests/alloc.rs`.
        let track = obs::enabled();
        let mut worklist_peak = 0usize;
        let mut candidates_scanned = 0u64;
        match strategy {
            Strategy::Deterministic => {
                self.seed_worklist(graph);
                if track {
                    worklist_peak = self.cand.count();
                }
                while let Some((slot, rule1)) = self.pop_candidate() {
                    if track {
                        candidates_scanned += 1;
                    }
                    out.trace.push(self.apply(graph, slot, rule1));
                    if track {
                        worklist_peak = worklist_peak.max(self.cand.count());
                    }
                }
            }
            Strategy::Randomized { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                loop {
                    self.collect_moves(graph);
                    if self.moves.is_empty() {
                        break;
                    }
                    if track {
                        worklist_peak = worklist_peak.max(self.moves.len());
                        candidates_scanned += self.moves.len() as u64;
                    }
                    self.moves.shuffle(&mut rng);
                    let mv = self.moves[0];
                    let removed = *graph.edge(mv.edge);
                    out.trace.push(self.remove_rescanned(mv, removed));
                }
            }
        }
        out.remaining_edges
            .extend(self.live.ones().map(|slot| graph.edges()[slot].id));
        out.feasible = out.remaining_edges.is_empty();
        debug_assert_eq!(out.feasible, self.live_count == 0);
        if track {
            obs::with(|r| {
                r.counter("reduce.candidates_scanned", candidates_scanned);
                r.counter("reduce.bitset_words", self.live.word_count() as u64);
            });
            record_reduction_metrics(out, worklist_peak);
        }
    }

    /// [`run_into`](Self::run_into) returning a freshly allocated outcome,
    /// for callers that keep the result.
    pub fn run(&mut self, graph: &SequencingGraph, strategy: Strategy) -> ReductionOutcome {
        let mut out = ReductionOutcome::default();
        self.run_into(graph, strategy, &mut out);
        out
    }

    /// Runs a maximal reduction and returns only the §4.2.4 feasibility
    /// verdict, skipping trace emission and the remaining-edge scan — the
    /// ~15–20 ns/reduction recording floor `BENCH_hotpath.json` identified
    /// — for callers that never read the steps: confluence sampling (which
    /// compares verdicts, not traces), the
    /// [`DeltaAnalyzer`](crate::DeltaAnalyzer)'s full-re-analysis fallback,
    /// and the `--full` marketplace baseline.
    ///
    /// Applies exactly the same move sequence as
    /// [`run_into`](Self::run_into) under the same strategy, so the verdict
    /// is identical by construction (asserted in the equivalence property
    /// suites and in-bench).
    pub fn run_verdict_only(&mut self, graph: &SequencingGraph, strategy: Strategy) -> bool {
        self.reset_for(graph);
        match strategy {
            Strategy::Deterministic => {
                self.seed_worklist(graph);
                while let Some((slot, rule1)) = self.pop_candidate() {
                    self.apply(graph, slot, rule1);
                }
            }
            Strategy::Randomized { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                loop {
                    self.collect_moves(graph);
                    if self.moves.is_empty() {
                        break;
                    }
                    self.moves.shuffle(&mut rng);
                    let mv = self.moves[0];
                    let removed = *graph.edge(mv.edge);
                    self.remove_rescanned(mv, removed);
                }
            }
        }
        if obs::enabled() {
            obs::with(|r| r.counter("reduce.verdict_only_runs", 1));
        }
        debug_assert_eq!(self.live_count, self.live.count());
        self.live_count == 0
    }

    /// Marks `slot` a rule #1 candidate, raising the scan hint.
    #[inline]
    fn push_rule1(&mut self, slot: usize) {
        let w = self.cand.insert(2 * slot + 1);
        self.cand_top = self.cand_top.max(w + 1);
    }

    /// Marks `slot` a rule #2 candidate, raising the scan hint.
    #[inline]
    fn push_rule2(&mut self, slot: usize) {
        let w = self.cand.insert(2 * slot);
        self.cand_top = self.cand_top.max(w + 1);
    }

    /// Peeks the maximum candidate in `(edge id, rule #1 first)` order:
    /// top-down word scan plus `leading_zeros` in the first non-empty
    /// word. The interleaved layout makes plain bit
    /// order *be* that order, so no fusing or tie-break is needed. The
    /// popped bit is not cleared here — [`apply`](Self::apply) clears
    /// the removed edge's whole candidate pair in one write.
    #[inline]
    fn pop_candidate(&mut self) -> Option<(usize, bool)> {
        while self.cand_top > 0 {
            let w = self.cand_top - 1;
            let word = self.cand.word(w);
            if word == 0 {
                self.cand_top = w;
                continue;
            }
            let bit = w * WORD_BITS + (WORD_BITS - 1 - word.leading_zeros() as usize);
            return Some((bit >> 1, bit & 1 == 1));
        }
        None
    }

    /// Seeds the candidate sets with the currently applicable moves. For
    /// the fully live graph (the batch-driver common case) the applicable
    /// sets are static graph structure, precomputed at construction and
    /// loaded here by memcpy; a partially reduced graph falls back to the
    /// live-set word scan.
    fn seed_worklist(&mut self, graph: &SequencingGraph) {
        let edges = graph.edges();
        if self.live_count == edges.len() {
            self.cand
                .load_words(graph.seed_cand_words(), edges.len() * 2);
            self.preempted
                .load_words(graph.seed_preempted_words(), edges.len());
            self.cand_top = self.cand.word_count();
            #[cfg(debug_assertions)]
            for e in edges {
                let rule1 = self.commitment_degree(graph, e.commitment) == 1
                    && (!self.red_probe(graph, e) || self.waivers.contains(e.commitment.index()));
                debug_assert_eq!(
                    self.cand.contains(2 * e.id.index() + 1),
                    rule1,
                    "stale precomputed rule #1 seed at {}",
                    e.id
                );
                debug_assert_eq!(
                    self.cand.contains(2 * e.id.index()),
                    self.conjunction_degree(graph, e.conjunction) == 1,
                    "stale precomputed rule #2 seed at {}",
                    e.id
                );
                debug_assert_eq!(
                    self.preempted.contains(e.id.index()),
                    self.red_probe(graph, e),
                    "stale precomputed pre-emption seed at {}",
                    e.id
                );
            }
            return;
        }
        self.preempted.reset(edges.len());
        for w in 0..self.live.word_count() {
            let mut word = self.live.word(w);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let e = &edges[w * WORD_BITS + bit];
                // Every live edge's pre-emption flag is materialised, not
                // just the current fringe's: later survivors consult it.
                let preempted = self.red_probe(graph, e);
                if preempted {
                    self.preempted.insert(e.id.index());
                }
                if self.commitment_degree(graph, e.commitment) == 1
                    && (!preempted || self.waivers.contains(e.commitment.index()))
                {
                    self.push_rule1(e.id.index());
                }
                if self.conjunction_degree(graph, e.conjunction) == 1 {
                    self.push_rule2(e.id.index());
                }
            }
        }
    }

    /// Mirror of `Reducer::applicable_moves`, rescanning into the reusable
    /// move buffer (the randomized strategy must sample from the whole
    /// applicable set at every step). The live-set word scan yields edges
    /// in the same ascending-id order as the former bool-slice scan.
    fn collect_moves(&mut self, graph: &SequencingGraph) {
        self.moves.clear();
        let edges = graph.edges();
        for w in 0..self.live.word_count() {
            let mut word = self.live.word(w);
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                let e = &edges[w * WORD_BITS + bit];
                if self.commitment_degree(graph, e.commitment) == 1 {
                    let preempted = self.red_probe(graph, e);
                    let waiver = self.waivers.contains(e.commitment.index());
                    if !preempted || waiver {
                        self.moves.push(Move {
                            edge: e.id,
                            rule: Rule::CommitmentFringe,
                            via_clause2: preempted && waiver,
                        });
                    }
                }
                if self.conjunction_degree(graph, e.conjunction) == 1 {
                    self.moves.push(Move {
                        edge: e.id,
                        rule: Rule::ConjunctionFringe,
                        via_clause2: false,
                    });
                }
            }
        }
    }

    /// Removes a move picked by the randomized rescan protocol. The rescan
    /// recomputes applicability from scratch every round, so no candidate
    /// bookkeeping is needed here (the candidate sets stay empty in
    /// randomized runs).
    fn remove_rescanned(&mut self, mv: Move, removed: Edge) -> ReductionStep {
        let slot = mv.edge.index();
        debug_assert!(self.live.contains(slot), "removing a dead edge");
        self.live.remove(slot);
        self.live_count -= 1;
        let c_state = {
            let st = &mut self.commitment_state[removed.commitment.index()];
            *st = (*st - (1 << 32)) ^ slot as u64;
            *st
        };
        let j_state = {
            let st = &mut self.conjunction_state[removed.conjunction.index()];
            *st = (*st - (1 << 32)) ^ slot as u64;
            *st
        };
        if removed.color == EdgeColor::Red {
            let st = &mut self.conjunction_red_state[removed.conjunction.index()];
            *st = (*st - (1 << 32)) ^ slot as u64;
        }
        ReductionStep {
            edge: mv.edge,
            rule: mv.rule,
            via_clause2: mv.via_clause2,
            disconnected_commitment: (c_state >> 32 == 0).then_some(removed.commitment),
            disconnected_conjunction: (j_state >> 32 == 0).then_some(removed.conjunction),
        }
    }

    /// Applies the popped candidate: removes the edge from the scratch
    /// liveness state, records the step, and inserts every move the
    /// removal newly enables (the three monotone enabling events, each
    /// checked for full eligibility at insert — see the module docs on
    /// exact candidacy). The candidate needs no revalidation: set
    /// membership guarantees applicability, so this goes straight to work.
    fn apply(&mut self, graph: &SequencingGraph, slot: usize, rule1: bool) -> ReductionStep {
        debug_assert!(self.live.contains(slot), "popped a dead candidate");
        let removed = graph.edges()[slot];
        debug_assert!(
            if rule1 {
                self.commitment_degree(graph, removed.commitment) == 1
            } else {
                self.conjunction_degree(graph, removed.conjunction) == 1
            },
            "popped an inapplicable candidate at {}",
            removed.id
        );
        // `via_clause2` reports pop-time pre-emption, exactly as the naive
        // rescan computes it at selection: an in-set rule #1 candidate is
        // either unpreempted or waived, so `preempted && waiver` reduces to
        // the waiver bit gating one pre-emption-flag load. The waiver bit
        // is loaded once — the fringe cascade below is for the same
        // commitment.
        let waived = self.waivers.contains(removed.commitment.index());
        let via_clause2 = rule1 && waived && self.preempted.contains(slot);
        debug_assert!(
            !rule1 || self.preempted.contains(slot) == self.red_probe(graph, &removed),
            "stale pre-emption flag at popped {}",
            removed.id
        );
        let (c_state, j_state) = self.remove_and_enable(graph, slot, waived);

        ReductionStep {
            edge: removed.id,
            rule: if rule1 {
                Rule::CommitmentFringe
            } else {
                Rule::ConjunctionFringe
            },
            via_clause2,
            disconnected_commitment: (c_state >> 32 == 0).then_some(removed.commitment),
            disconnected_conjunction: (j_state >> 32 == 0).then_some(removed.conjunction),
        }
    }

    /// The shared removal core of [`apply`](Self::apply) and the delta
    /// engine's [`exogenous_remove`](Self::exogenous_remove): takes `slot`
    /// out of the live set, updates the packed node states, and inserts
    /// every move the removal newly enables (fringe survivors and the red
    /// pre-emption-lift cascade). Returns the updated packed commitment and
    /// conjunction state words.
    fn remove_and_enable(
        &mut self,
        graph: &SequencingGraph,
        slot: usize,
        waived: bool,
    ) -> (u64, u64) {
        let removed = graph.edges()[slot];
        self.live.remove(slot);
        // One masked write clears both of the removed edge's candidacy
        // bits — the popped rule's and (if set) the other rule's.
        self.cand.remove_pair(2 * slot);
        self.live_count -= 1;
        // One packed read-modify-write per node: the high half is the
        // decremented degree, the low half the updated XOR accumulator —
        // which, at degree 1, is exactly the surviving edge slot.
        let c_state = {
            let st = &mut self.commitment_state[removed.commitment.index()];
            *st = (*st - (1 << 32)) ^ slot as u64;
            *st
        };
        let j_state = {
            let st = &mut self.conjunction_state[removed.conjunction.index()];
            *st = (*st - (1 << 32)) ^ slot as u64;
            *st
        };
        // `None` = the removed edge was black, so no pre-emption lift is
        // possible; the lift branches below key off the red state *after*
        // this decrement.
        let mut red_state = None;
        if removed.color == EdgeColor::Red {
            let st = &mut self.conjunction_red_state[removed.conjunction.index()];
            *st = (*st - (1 << 32)) ^ slot as u64;
            red_state = Some(*st);
        }

        if c_state >> 32 == 1 {
            let survivor = c_state as u32 as usize;
            debug_assert_eq!(
                Some(survivor),
                graph
                    .commitment_edge_ids(removed.commitment)
                    .iter()
                    .map(|e| e.index())
                    .find(|&s| self.live.contains(s)),
                "stale commitment state accumulator at {}",
                removed.commitment
            );
            debug_assert_eq!(
                self.preempted.contains(survivor),
                self.red_probe(graph, &graph.edges()[survivor]),
                "stale pre-emption flag at survivor {survivor}"
            );
            if waived || !self.preempted.contains(survivor) {
                self.push_rule1(survivor);
            }
        }
        if j_state >> 32 == 1 {
            let survivor = j_state as u32 as usize;
            debug_assert_eq!(
                Some(survivor),
                graph
                    .conjunction_edge_ids(removed.conjunction)
                    .iter()
                    .map(|e| e.index())
                    .find(|&s| self.live.contains(s)),
                "stale conjunction state accumulator at {}",
                removed.conjunction
            );
            self.push_rule2(survivor);
        }
        // Pre-emption lift: removing a red edge changes some survivor's
        // pre-emption status only at the 2→1 and 1→0 red-count
        // transitions. At 2→1 the one edge whose status flips is the
        // surviving red itself (the blacks still see one *other* red); at
        // 1→0 nothing at the conjunction is pre-empted any more. Waived
        // degree-1 edges were candidates regardless of pre-emption, so
        // neither branch needs the waiver test.
        if let Some(rst) = red_state {
            if rst >> 32 == 1 {
                let red = rst as u32 as usize;
                debug_assert!(
                    self.live.contains(red) && graph.edges()[red].color == EdgeColor::Red,
                    "stale conjunction red state accumulator at {}",
                    removed.conjunction
                );
                // The surviving red no longer sees another live red, so
                // its pre-emption lifts; the blacks at the conjunction
                // still see it and stay pre-empted.
                self.preempted.remove(red);
                if self.commitment_degree(graph, graph.edges()[red].commitment) == 1 {
                    self.push_rule1(red);
                }
            } else if rst >> 32 == 0 {
                for eid in graph.conjunction_edge_ids(removed.conjunction) {
                    let s = eid.index();
                    if self.live.contains(s) {
                        self.preempted.remove(s);
                        if self.commitment_degree(graph, graph.edge(*eid).commitment) == 1 {
                            self.push_rule1(s);
                        }
                    }
                }
            }
        }

        (c_state, j_state)
    }

    /// O(1) live degree of a commitment (high half of the packed state
    /// word), with the same debug-build scan oracle discipline as
    /// `SequencingGraph::commitment_degree`.
    fn commitment_degree(&self, graph: &SequencingGraph, id: CommitmentId) -> u32 {
        let cached = (self.commitment_state[id.index()] >> 32) as u32;
        debug_assert_eq!(
            cached as usize,
            graph
                .commitment_edge_ids(id)
                .iter()
                .filter(|e| self.live.contains(e.index()))
                .count(),
            "stale scratch commitment state counter at {id}"
        );
        cached
    }

    /// O(1) live degree of a conjunction, oracle-checked in debug builds.
    fn conjunction_degree(&self, graph: &SequencingGraph, id: ConjunctionId) -> u32 {
        let cached = (self.conjunction_state[id.index()] >> 32) as u32;
        debug_assert_eq!(
            cached as usize,
            graph
                .conjunction_edge_ids(id)
                .iter()
                .filter(|e| self.live.contains(e.index()))
                .count(),
            "stale scratch conjunction state counter at {id}"
        );
        cached
    }

    /// The Rule #1 pre-emption test for a **live** edge `e`: is any *other*
    /// live red edge attached to `e`'s conjunction? One state-word load and
    /// a compare — `e`'s own contribution to the red count is its colour,
    /// which the caller already holds. Oracle-checked in debug builds.
    #[inline]
    fn red_probe(&self, graph: &SequencingGraph, e: &Edge) -> bool {
        debug_assert!(self.live.contains(e.id.index()), "red probe on a dead edge");
        let preempted = self.conjunction_red_state[e.conjunction.index()] >> 32
            > u64::from(e.color == EdgeColor::Red);
        debug_assert_eq!(
            preempted,
            graph
                .conjunction_edge_ids(e.conjunction)
                .iter()
                .filter(|t| self.live.contains(t.index()))
                .map(|t| graph.edge(*t))
                .any(|t| t.color == EdgeColor::Red && t.id != e.id),
            "stale scratch conjunction red state counter at {}",
            e.conjunction
        );
        preempted
    }

    // ------------------------------------------------------------------
    // Delta-maintenance primitives (consumed by `core::delta`)
    // ------------------------------------------------------------------
    //
    // The `DeltaAnalyzer` keeps this scratchpad resident at a reduction
    // fixpoint between mutations. The §4.2 rules are monotone under edge
    // *removal* and waiver *grant* (degrees only fall, pre-emption only
    // lifts, waivers only enable), so every previously applied move stays
    // valid and the engine can resume from the residual state after
    // re-seeding only the disturbed fringe. Edge *restores* and waiver
    // *revocations* are anti-monotone — retained moves may become invalid
    // — so the engine computes the exact set of invalidated moves from
    // per-slot removal stamps (`RemovalLog`) and *resurrects* just those
    // edges in place: the minimal undo frontier, cost proportional to the
    // disturbed region instead of the whole history.

    /// Number of live edges remaining in the scratch state.
    pub(crate) fn remaining_live(&self) -> usize {
        self.live_count
    }

    /// Number of live *red* edges remaining: the sum of the per-conjunction
    /// red degrees, which removal and resurrection keep current. Checked
    /// against a scan of the live set in debug builds.
    pub(crate) fn remaining_red(&self, graph: &SequencingGraph) -> usize {
        let red: u64 = self.conjunction_red_state.iter().map(|st| st >> 32).sum();
        debug_assert_eq!(
            red as usize,
            self.live
                .ones()
                .filter(|&s| graph.edges()[s].color == EdgeColor::Red)
                .count(),
            "stale scratch conjunction red state counters"
        );
        red as usize
    }

    /// Whether edge slot `s` is live in the scratch state.
    pub(crate) fn slot_is_live(&self, s: usize) -> bool {
        self.live.contains(s)
    }

    /// Full deterministic verdict-only run that also restarts `log`'s
    /// removal history (the delta engine's retained state).
    pub(crate) fn run_stamped(&mut self, graph: &SequencingGraph, log: &mut RemovalLog) -> bool {
        self.reset_for(graph);
        log.reset(graph);
        self.seed_worklist(graph);
        self.drive_stamped(graph, log)
    }

    /// Runs the deterministic pop loop to its fixpoint, stamping every
    /// applied move into `log`. Returns the feasibility verdict.
    pub(crate) fn drive_stamped(&mut self, graph: &SequencingGraph, log: &mut RemovalLog) -> bool {
        while let Some((slot, rule1)) = self.pop_candidate() {
            self.apply(graph, slot, rule1);
            log.stamp_removal(slot, rule1);
        }
        debug_assert_eq!(self.live_count, self.live.count());
        self.live_count == 0
    }

    /// Removes a live edge *exogenously* — by graph mutation, not by a
    /// reduction rule — from the resident fixpoint state, inserting any
    /// moves the removal newly enables at the disturbed fringe (its two
    /// endpoint survivors and the red pre-emption-lift cascade). The caller
    /// stamps the removal and resumes with
    /// [`drive_stamped`](Self::drive_stamped).
    ///
    /// Sound because the rules are monotone under removal: the retained
    /// move list stays valid on the mutated graph, so the residual state is
    /// still reachable and confluence carries the verdict.
    pub(crate) fn exogenous_remove(&mut self, graph: &SequencingGraph, slot: usize) {
        debug_assert!(self.live.contains(slot), "exogenous removal of a dead edge");
        let waived = self
            .waivers
            .contains(graph.edges()[slot].commitment.index());
        self.remove_and_enable(graph, slot, waived);
    }

    /// Grants a clause-2 waiver in the resident fixpoint state and inserts
    /// the one move it can newly enable: the commitment's surviving edge,
    /// when its degree is already 1 and red pre-emption was the only
    /// blocker. (A waiver *revocation* is anti-monotone and goes through
    /// [`undo_frontier`](Self::undo_frontier) instead.)
    pub(crate) fn grant_waiver(&mut self, graph: &SequencingGraph, id: CommitmentId) {
        self.waivers.insert(id.index());
        let st = self.commitment_state[id.index()];
        if st >> 32 == 1 {
            let survivor = st as u32 as usize;
            debug_assert!(self.live.contains(survivor), "stale commitment survivor");
            debug_assert_eq!(graph.edges()[survivor].commitment, id);
            self.push_rule1(survivor);
        }
    }

    /// The anti-monotone maintenance path: applies `origin` (an edge
    /// restore or a waiver revocation, already applied to `graph`) to the
    /// resident fixpoint state by resurrecting exactly the retained moves
    /// it invalidates — the **minimal undo frontier** — then re-seeding
    /// candidates over the disturbed region and popping to the new
    /// fixpoint. Returns `Some((undone, feasible))` with the frontier size
    /// and the new verdict, or `None` when the frontier exceeded
    /// `threshold` — the scratch state is then torn and the caller must
    /// fall back to a full [`run_stamped`](Self::run_stamped).
    ///
    /// # Why the cascade is exact (and sound)
    ///
    /// The retained history is a valid move sequence ordered by removal
    /// stamp. A retained move `t` is invalidated by a resurrected edge `f`
    /// only when `f` left the live set *before* `t` was applied
    /// (`stamp(f) < stamp(t)` — earlier removals are the only absences
    /// `t`'s validity could have observed) and `f` touches `t`'s validity
    /// predicate: same commitment for rule #1's degree test, same
    /// conjunction for rule #2's degree test, or a red `f` at `t`'s
    /// conjunction re-imposing rule #1 pre-emption — unless `t`'s clause-2
    /// waiver already held when `t` was applied
    /// (`waiver_stamp < stamp(t)`). Closing the frontier under this
    /// relation and touching nothing else leaves every retained move valid
    /// in stamp order, so the patched state is reachable on the mutated
    /// graph and the confluence theorem carries the verdict. New
    /// candidates can only appear *at* resurrected slots: every other
    /// live edge sees the same or higher degrees and the same or more red
    /// pre-emption than at the old fixpoint, where it was not reducible.
    pub(crate) fn undo_frontier(
        &mut self,
        graph: &SequencingGraph,
        log: &mut RemovalLog,
        origin: UndoOrigin,
        threshold: usize,
    ) -> Option<(usize, bool)> {
        let mut queue = std::mem::take(&mut log.queue);
        let mut undone = std::mem::take(&mut log.undone);
        queue.clear();
        undone.clear();
        // Retained moves invalidated so far (a restore's own edge is the
        // mutation itself, not undone work, and is excluded).
        let mut frontier = 0usize;
        match origin {
            UndoOrigin::Restore(slot) => {
                debug_assert!(!self.live.contains(slot), "restore of a live slot");
                let stamp = log.stamp[slot];
                log.stamp[slot] = LIVE_STAMP;
                queue.push((slot as u32, stamp));
            }
            UndoOrigin::Revoke(c) => {
                self.waivers.remove(c.index());
                // Only a rule #1 move applied after the grant can have
                // relied on the revoked waiver.
                for t in graph.commitment_edge_ids(c) {
                    let s = t.index();
                    let stamp = log.stamp[s];
                    if stamp != LIVE_STAMP
                        && log.rule1[s]
                        && graph.is_live(*t)
                        && log.waiver_stamp[c.index()] < stamp
                    {
                        log.stamp[s] = LIVE_STAMP;
                        frontier += 1;
                        queue.push((s as u32, stamp));
                    }
                }
            }
        }

        let mut qi = 0;
        while qi < queue.len() {
            if frontier > threshold {
                log.queue = queue;
                log.undone = undone;
                return None;
            }
            let (slot, stamp) = queue[qi];
            qi += 1;
            let slot = slot as usize;
            let e = graph.edges()[slot];
            // Bring the edge back into the resident live set.
            self.live.insert(slot);
            self.live_count += 1;
            {
                let st = &mut self.commitment_state[e.commitment.index()];
                *st = (*st + (1 << 32)) ^ slot as u64;
            }
            {
                let st = &mut self.conjunction_state[e.conjunction.index()];
                *st = (*st + (1 << 32)) ^ slot as u64;
            }
            if e.color == EdgeColor::Red {
                let st = &mut self.conjunction_red_state[e.conjunction.index()];
                *st = (*st + (1 << 32)) ^ slot as u64;
            }
            undone.push(slot as u32);

            // Cascade over the retained moves this resurrection
            // invalidates. Only reduced-but-graph-live slots carry
            // retained moves: exogenously removed edges are filtered by
            // `is_live`, already-queued slots by their `LIVE_STAMP`
            // marker.
            for t in graph.commitment_edge_ids(e.commitment) {
                let s = t.index();
                let ts = log.stamp[s];
                if ts != LIVE_STAMP && ts > stamp && log.rule1[s] && graph.is_live(*t) {
                    log.stamp[s] = LIVE_STAMP;
                    frontier += 1;
                    queue.push((s as u32, ts));
                }
            }
            for t in graph.conjunction_edge_ids(e.conjunction) {
                let s = t.index();
                let ts = log.stamp[s];
                if ts == LIVE_STAMP || ts <= stamp || !graph.is_live(*t) {
                    continue;
                }
                let invalid = if log.rule1[s] {
                    let c = graph.edges()[s].commitment.index();
                    e.color == EdgeColor::Red
                        && !(self.waivers.contains(c) && log.waiver_stamp[c] < ts)
                } else {
                    true
                };
                if invalid {
                    log.stamp[s] = LIVE_STAMP;
                    frontier += 1;
                    queue.push((s as u32, ts));
                }
            }
        }

        // Exact pre-emption flags over the disturbed region: each
        // resurrected slot's own flag, plus — for resurrected reds — the
        // flags of every live edge at their conjunction.
        for &slot in &undone {
            let slot = slot as usize;
            let e = graph.edges()[slot];
            let preempted = self.red_probe(graph, &e);
            self.set_preempted(slot, preempted);
            if e.color == EdgeColor::Red {
                for t in graph.conjunction_edge_ids(e.conjunction) {
                    let s = t.index();
                    if s != slot && self.live.contains(s) {
                        let preempted = self.red_probe(graph, &graph.edges()[s]);
                        self.set_preempted(s, preempted);
                    }
                }
            }
        }
        // Seed candidates: only resurrected slots can have become
        // reducible (see the soundness note above).
        for &slot in &undone {
            let slot = slot as usize;
            let e = graph.edges()[slot];
            if self.commitment_degree(graph, e.commitment) == 1
                && (!self.preempted.contains(slot) || self.waivers.contains(e.commitment.index()))
            {
                self.push_rule1(slot);
            }
            if self.conjunction_degree(graph, e.conjunction) == 1 {
                self.push_rule2(slot);
            }
        }
        let feasible = self.drive_stamped(graph, log);
        log.queue = queue;
        log.undone = undone;
        Some((frontier, feasible))
    }

    #[inline]
    fn set_preempted(&mut self, slot: usize, preempted: bool) {
        if preempted {
            self.preempted.insert(slot);
        } else {
            self.preempted.remove(slot);
        }
    }
}

/// Stamp marking a slot as currently live (no retained removal).
const LIVE_STAMP: u64 = u64::MAX;

/// The anti-monotone mutation kinds [`ScratchReducer::undo_frontier`]
/// maintains.
#[derive(Debug, Clone, Copy)]
pub(crate) enum UndoOrigin {
    /// Edge slot restored into the base graph (already live there).
    Restore(usize),
    /// Clause-2 waiver revoked on a commitment (already cleared in the
    /// graph).
    Revoke(CommitmentId),
}

/// The delta engine's retained history: *when* each edge slot left the
/// live set and by which rule, plus when each commitment's clause-2
/// waiver was last granted — enough to compute exact undo frontiers
/// without keeping (or walking) an ordered move list.
#[derive(Debug, Default)]
pub(crate) struct RemovalLog {
    /// Per-slot stamp: [`LIVE_STAMP`] while live, `0` for edges dead
    /// since before this history began (graph-dead at the last full run),
    /// otherwise the strictly increasing clock value of the removal —
    /// reduction move or exogenous graph removal.
    stamp: Vec<u64>,
    /// Whether the slot's stamped removal was a rule #1 move (`false`
    /// for rule #2 moves and exogenous removals).
    rule1: Vec<bool>,
    /// Per-commitment stamp of the most recent clause-2 waiver grant
    /// (`0` = held since before this history began).
    waiver_stamp: Vec<u64>,
    /// Next removal stamp; starts at 1 so stamp `0` always reads as
    /// "before history".
    clock: u64,
    /// Reusable cascade buffers for [`ScratchReducer::undo_frontier`].
    queue: Vec<(u32, u64)>,
    undone: Vec<u32>,
}

impl RemovalLog {
    /// Restarts the history for a freshly (re-)analyzed `graph`.
    pub(crate) fn reset(&mut self, graph: &SequencingGraph) {
        let edges = graph.edges();
        self.stamp.clear();
        self.stamp.extend(
            edges
                .iter()
                .map(|e| if graph.is_live(e.id) { LIVE_STAMP } else { 0 }),
        );
        self.rule1.clear();
        self.rule1.resize(edges.len(), false);
        self.waiver_stamp.clear();
        self.waiver_stamp.resize(graph.commitments().len(), 0);
        self.clock = 1;
    }

    /// Stamps slot `slot` as removed now (by rule #1 if `rule1`, else by
    /// rule #2 or exogenously).
    pub(crate) fn stamp_removal(&mut self, slot: usize, rule1: bool) {
        self.stamp[slot] = self.clock;
        self.rule1[slot] = rule1;
        self.clock += 1;
    }

    /// Stamps a clause-2 waiver grant on commitment `c` now.
    pub(crate) fn stamp_grant(&mut self, c: CommitmentId) {
        self.waiver_stamp[c.index()] = self.clock;
        self.clock += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::Reducer;

    fn fixture_graphs() -> Vec<SequencingGraph> {
        [
            fixtures::example1().0,
            fixtures::example2().0,
            fixtures::poor_broker().0,
            fixtures::figure7().0,
        ]
        .iter()
        .map(|s| SequencingGraph::from_spec(s).unwrap())
        .collect()
    }

    #[test]
    fn matches_naive_oracle_deterministic() {
        let mut scratch = ScratchReducer::new();
        let mut out = ReductionOutcome::default();
        for graph in fixture_graphs() {
            scratch.run_into(&graph, Strategy::Deterministic, &mut out);
            assert_eq!(out, Reducer::new(graph).run_naive());
        }
    }

    #[test]
    fn matches_naive_oracle_randomized() {
        let mut scratch = ScratchReducer::new();
        let mut out = ReductionOutcome::default();
        for graph in fixture_graphs() {
            for seed in 0..8 {
                let strategy = Strategy::Randomized { seed };
                scratch.run_into(&graph, strategy, &mut out);
                let reference = Reducer::new(graph.clone())
                    .with_strategy(strategy)
                    .run_naive();
                assert_eq!(out, reference, "seed {seed}");
            }
        }
    }

    #[test]
    fn graph_is_untouched_and_runs_are_independent() {
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        let pristine = graph.clone();
        let mut scratch = ScratchReducer::new();
        let first = scratch.run(&graph, Strategy::Deterministic);
        let second = scratch.run(&graph, Strategy::Deterministic);
        assert_eq!(first, second);
        assert_eq!(graph, pristine);
    }

    #[test]
    fn resumes_from_a_partially_reduced_graph() {
        // reset_for copies the graph's *current* liveness, so a scratch run
        // on a half-reduced graph completes exactly the remaining work.
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        let mut reducer = Reducer::new(graph);
        let mv = reducer.applicable_moves()[0];
        reducer.apply(mv).unwrap();
        let partial = reducer.graph().clone();
        let mut scratch = ScratchReducer::new();
        let out = scratch.run(&partial, Strategy::Deterministic);
        assert!(out.feasible);
        assert_eq!(out.trace.len(), partial.live_edge_count());
        // The partial graph exercises the packed (non-full) reset path.
        assert_eq!(out, Reducer::new(partial).run_naive());
    }
}
