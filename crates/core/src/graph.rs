//! The sequencing graph of §4: commitment nodes, conjunction nodes and
//! red/black edges.

use crate::csr::Csr;
use crate::CoreError;
use serde::{Deserialize, Serialize};
use std::fmt;
use trustseq_model::{AgentId, DealId, DealSide};

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from a raw index.
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the raw index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a commitment node (hexagons in the paper's figures).
    CommitmentId,
    "c"
);
define_id!(
    /// Identifies a conjunction node (squares labelled `∧x`).
    ConjunctionId,
    "j"
);
define_id!(
    /// Identifies an edge between a commitment and a conjunction.
    EdgeId,
    "e"
);

/// The colour of a sequencing-graph edge.
///
/// Red edges carry the ordering component of the third conjunction type
/// (§4.1): the red commitment must be *committed* before its siblings, but
/// *executed* after them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeColor {
    /// No ordering constraint among siblings.
    Black,
    /// Must be committed first (and executed last).
    Red,
}

impl fmt::Display for EdgeColor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EdgeColor::Black => "black",
            EdgeColor::Red => "red",
        })
    }
}

/// A commitment node: the decision to commit to one side of a pairwise
/// exchange between a principal and a trusted component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commitment {
    /// This commitment's id.
    pub id: CommitmentId,
    /// The principal endpoint.
    pub principal: AgentId,
    /// The trusted-component endpoint.
    pub trusted: AgentId,
    /// The deal this commitment belongs to.
    pub deal: DealId,
    /// Whether the principal is the deal's buyer or seller.
    pub side: DealSide,
    /// Rule #1 clause 2 (§4.2.4): `true` when the trusted-agent role of this
    /// commitment is played by its own principal (the counterparty trusts
    /// the principal directly), which waives red-edge pre-emption.
    pub clause2_waiver: bool,
}

/// A conjunction node `∧x`: all commitments of agent `x` happen together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conjunction {
    /// This conjunction's id.
    pub id: ConjunctionId,
    /// The agent common to all conjoined commitments.
    pub agent: AgentId,
    /// Whether the agent is a trusted component (conjunctions of the first
    /// type) or a principal (second/third type).
    pub trusted: bool,
}

/// An edge between a commitment and a conjunction node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// This edge's id.
    pub id: EdgeId,
    /// The commitment endpoint.
    pub commitment: CommitmentId,
    /// The conjunction endpoint.
    pub conjunction: ConjunctionId,
    /// Black or red.
    pub color: EdgeColor,
}

/// The sequencing graph `SG = (C, J, R, B)` of §4.1.
///
/// The graph is bipartite between commitment nodes `C` and conjunction nodes
/// `J`; `R` and `B` are the red and black edge sets (here represented as one
/// edge list with a colour plus a liveness bit, so that reductions are O(1)
/// and a [trace](crate::ReductionTrace) can replay them).
///
/// Graphs are built from an [`ExchangeSpec`](trustseq_model::ExchangeSpec)
/// via [`SequencingGraph::from_spec`](crate::SequencingGraph::from_spec) and
/// reduced with a [`Reducer`](crate::Reducer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequencingGraph {
    commitments: Vec<Commitment>,
    conjunctions: Vec<Conjunction>,
    edges: Vec<Edge>,
    alive: Vec<bool>,
    // Adjacency as flat CSR arenas (one allocation each instead of a Vec
    // per node); row order is edge-insertion order, so scans visit edges
    // exactly as the former Vec<Vec<EdgeId>> layout did.
    commitment_edges: Csr<EdgeId>,
    conjunction_edges: Csr<EdgeId>,
    live_count: usize,
    // Packed per-node state words, kept in lock-step with `alive` by
    // `remove_edge`/`restore_edge`: the high 32 bits hold the live
    // degree, the low 32 bits an XOR accumulator of live edge slots. When
    // the degree is exactly 1 the accumulator *is* the surviving slot — an
    // O(1) survivor lookup — and packing both into one word means a
    // removal touches one cache word per node instead of two.
    // `conjunction_red_state` tracks only the live *red* edges of each
    // conjunction (rule #1 pre-emption and its lift cascade). The degree
    // and pre-emption queries read the high halves, so they are O(1)
    // instead of an adjacency scan; `ScratchReducer::reset_for` copies the
    // words verbatim. Invariants (checked by the scan oracles in debug
    // builds):
    //   commitment_state[c]      >> 32 == #{ live edges at commitment c }
    //   conjunction_state[j]     >> 32 == #{ live edges at conjunction j }
    //   conjunction_red_state[j] >> 32 == #{ live red edges at conjunction j }
    commitment_state: Vec<u64>,
    conjunction_state: Vec<u64>,
    conjunction_red_state: Vec<u64>,
    // Static packed sets over the *initial* fully-live graph: clause-2
    // waiver flags per commitment, the scratch engine's seed worklist
    // in its interleaved candidate layout (bit `2 * slot + 1` = edge
    // applicable under rule #1, bit `2 * slot` = rule #2), and the
    // per-edge §4.2 pre-emption flags the scratch engine maintains
    // incrementally from this seed. Mutated only by `set_waiver`, which
    // re-derives the affected waiver bit and rule #1 seed bits; structural
    // `remove_edge`/`restore_edge` leave them untouched because they
    // describe the initial fully-live graph, which only `set_waiver`
    // changes.
    waiver_words: Vec<u64>,
    seed_cand_words: Vec<u64>,
    seed_preempted_words: Vec<u64>,
}

impl SequencingGraph {
    /// Assembles a graph from raw parts. Prefer
    /// [`SequencingGraph::from_spec`](crate::SequencingGraph::from_spec).
    pub(crate) fn from_parts(
        commitments: Vec<Commitment>,
        conjunctions: Vec<Conjunction>,
        edges: Vec<Edge>,
    ) -> Self {
        let commitment_edges = Csr::from_memberships(
            commitments.len(),
            edges.iter().map(|e| (e.commitment.index(), e.id)),
        );
        let conjunction_edges = Csr::from_memberships(
            conjunctions.len(),
            edges.iter().map(|e| (e.conjunction.index(), e.id)),
        );
        let mut commitment_state = vec![0u64; commitments.len()];
        let mut conjunction_state = vec![0u64; conjunctions.len()];
        let mut conjunction_red_state = vec![0u64; conjunctions.len()];
        for (slot, e) in edges.iter().enumerate() {
            if e.color == EdgeColor::Red {
                conjunction_red_state[e.conjunction.index()] =
                    (conjunction_red_state[e.conjunction.index()] + (1 << 32)) ^ slot as u64;
            }
            commitment_state[e.commitment.index()] =
                (commitment_state[e.commitment.index()] + (1 << 32)) ^ slot as u64;
            conjunction_state[e.conjunction.index()] =
                (conjunction_state[e.conjunction.index()] + (1 << 32)) ^ slot as u64;
        }
        let pack = |bits: &mut dyn Iterator<Item = bool>, len: usize| {
            let mut words = vec![0u64; len.div_ceil(64)];
            for (i, flag) in bits.enumerate() {
                words[i / 64] |= u64::from(flag) << (i % 64);
            }
            words
        };
        let waiver_words = pack(
            &mut commitments.iter().map(|c| c.clause2_waiver),
            commitments.len(),
        );
        // The scratch engine's initial worklist over the fully live graph,
        // in its interleaved candidate layout (edge slot `s` occupies bit
        // `2s + 1` for rule #1 and bit `2s` for rule #2): rule #1 wants
        // commitment degree 1 and no pre-empting *other* live red edge at
        // the conjunction (unless waived); rule #2 wants conjunction
        // degree 1. Static, so seeding becomes a memcpy.
        let reds_at = |j: ConjunctionId| conjunction_red_state[j.index()] >> 32;
        let seed_cand_words = pack(
            &mut edges.iter().flat_map(|e| {
                let rule2 = conjunction_state[e.conjunction.index()] >> 32 == 1;
                let rule1 = commitment_state[e.commitment.index()] >> 32 == 1 && {
                    let preempted = reds_at(e.conjunction) > u64::from(e.color == EdgeColor::Red);
                    !preempted || commitments[e.commitment.index()].clause2_waiver
                };
                [rule2, rule1]
            }),
            edges.len() * 2,
        );
        // Per-edge pre-emption over the fully live graph: edge `e` is
        // pre-empted iff another live red edge shares its conjunction.
        // The scratch engine memcpys this seed and then clears bits only
        // at the 2→1 / 1→0 red-count transitions, so the hot rule #1
        // eligibility test is one bitset load instead of an
        // edge→conjunction→red-state pointer chase.
        let seed_preempted_words = pack(
            &mut edges
                .iter()
                .map(|e| reds_at(e.conjunction) > u64::from(e.color == EdgeColor::Red)),
            edges.len(),
        );
        let live_count = edges.len();
        SequencingGraph {
            alive: vec![true; edges.len()],
            commitments,
            conjunctions,
            edges,
            commitment_edges,
            conjunction_edges,
            live_count,
            commitment_state,
            conjunction_state,
            conjunction_red_state,
            waiver_words,
            seed_cand_words,
            seed_preempted_words,
        }
    }

    /// Rebuilds the graph with every commitment, conjunction and edge id
    /// remapped through a seed-determined permutation — the same structure
    /// under fresh labels. Used by canonicalization tests to check that
    /// [`canon::fingerprint`](crate::canon::fingerprint) is label-invariant.
    ///
    /// Only defined for graphs with no removed edges (permuting a
    /// half-reduced graph would scramble the liveness bookkeeping).
    pub fn permuted(&self, seed: u64) -> SequencingGraph {
        assert_eq!(
            self.live_count,
            self.edges.len(),
            "permuted() requires a fully live graph"
        );
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x1996;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        // One shared shuffle buffer: `permutation` fills a caller-provided
        // vec (old id → new id) instead of allocating a fresh Vec per call,
        // and each node list is then built directly in new-id order through
        // the inverse map — no clone-then-overwrite passes.
        let mut permutation = |n: usize, order: &mut Vec<u32>, inverse: &mut Vec<u32>| {
            order.clear();
            order.extend(0..n as u32);
            for i in (1..n).rev() {
                order.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            inverse.clear();
            inverse.resize(n, 0);
            for (old, &new) in order.iter().enumerate() {
                inverse[new as usize] = old as u32;
            }
        };
        let (mut cperm, mut cinv) = (Vec::new(), Vec::new());
        let (mut jperm, mut jinv) = (Vec::new(), Vec::new());
        let (mut eperm, mut einv) = (Vec::new(), Vec::new());
        permutation(self.commitments.len(), &mut cperm, &mut cinv);
        permutation(self.conjunctions.len(), &mut jperm, &mut jinv);
        permutation(self.edges.len(), &mut eperm, &mut einv);

        let commitments: Vec<Commitment> = cinv
            .iter()
            .enumerate()
            .map(|(new, &old)| Commitment {
                id: CommitmentId::new(new as u32),
                ..self.commitments[old as usize]
            })
            .collect();
        let conjunctions: Vec<Conjunction> = jinv
            .iter()
            .enumerate()
            .map(|(new, &old)| Conjunction {
                id: ConjunctionId::new(new as u32),
                ..self.conjunctions[old as usize]
            })
            .collect();
        let edges: Vec<Edge> = einv
            .iter()
            .enumerate()
            .map(|(new, &old)| {
                let e = self.edges[old as usize];
                Edge {
                    id: EdgeId::new(new as u32),
                    commitment: CommitmentId::new(cperm[e.commitment.index()]),
                    conjunction: ConjunctionId::new(jperm[e.conjunction.index()]),
                    color: e.color,
                }
            })
            .collect();
        SequencingGraph::from_parts(commitments, conjunctions, edges)
    }

    /// The commitment nodes.
    pub fn commitments(&self) -> &[Commitment] {
        &self.commitments
    }

    /// The conjunction nodes.
    pub fn conjunctions(&self) -> &[Conjunction] {
        &self.conjunctions
    }

    /// All edges (live and removed).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up a commitment node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn commitment(&self, id: CommitmentId) -> &Commitment {
        &self.commitments[id.index()]
    }

    /// Looks up a conjunction node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn conjunction(&self, id: ConjunctionId) -> &Conjunction {
        &self.conjunctions[id.index()]
    }

    /// Looks up an edge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Whether an edge is still in the graph.
    pub fn is_live(&self, id: EdgeId) -> bool {
        self.alive[id.index()]
    }

    /// The liveness bitmap, indexed by edge id. Copied (not recomputed) by
    /// [`ScratchReducer::reset_for`](crate::ScratchReducer::reset_for).
    pub(crate) fn alive_slice(&self) -> &[bool] {
        &self.alive
    }

    /// The packed per-node state words (degree in the high 32 bits,
    /// live-slot XOR accumulator in the low 32) for commitments,
    /// conjunctions, and red-only conjunctions, kept in lock-step with
    /// `alive`. Copied verbatim by `ScratchReducer::reset_for`.
    pub(crate) fn state_slices(&self) -> (&[u64], &[u64], &[u64]) {
        (
            &self.commitment_state,
            &self.conjunction_state,
            &self.conjunction_red_state,
        )
    }

    /// Clause-2 waiver flags packed 64 commitments per word, built once at
    /// construction (waivers are immutable graph structure).
    pub(crate) fn waiver_words(&self) -> &[u64] {
        &self.waiver_words
    }

    /// The initial applicable-move set over the *fully live* graph in the
    /// scratch engine's interleaved candidate layout (bit `2 * slot + 1` =
    /// rule #1, bit `2 * slot` = rule #2; 32 edges per word). Only
    /// meaningful while `live_edge_count() == edges().len()`.
    pub(crate) fn seed_cand_words(&self) -> &[u64] {
        &self.seed_cand_words
    }

    /// Per-edge §4.2 pre-emption flags over the *fully live* graph (edge
    /// slot per bit), built once at construction. Only meaningful while
    /// `live_edge_count() == edges().len()`.
    pub(crate) fn seed_preempted_words(&self) -> &[u64] {
        &self.seed_preempted_words
    }

    /// Number of edges still in the graph.
    pub fn live_edge_count(&self) -> usize {
        self.live_count
    }

    /// Total number of edges the graph was built with.
    pub fn initial_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All edge ids incident to a commitment (live and removed), in
    /// insertion order.
    pub(crate) fn commitment_edge_ids(&self, id: CommitmentId) -> &[EdgeId] {
        self.commitment_edges.row(id.index())
    }

    /// All edge ids incident to a conjunction (live and removed), in
    /// insertion order.
    pub(crate) fn conjunction_edge_ids(&self, id: ConjunctionId) -> &[EdgeId] {
        self.conjunction_edges.row(id.index())
    }

    /// Live edges incident to a commitment.
    pub fn live_edges_of_commitment(&self, id: CommitmentId) -> impl Iterator<Item = &Edge> + '_ {
        self.commitment_edges
            .row(id.index())
            .iter()
            .filter(|e| self.alive[e.index()])
            .map(|e| &self.edges[e.index()])
    }

    /// Live edges incident to a conjunction.
    pub fn live_edges_of_conjunction(&self, id: ConjunctionId) -> impl Iterator<Item = &Edge> + '_ {
        self.conjunction_edges
            .row(id.index())
            .iter()
            .filter(|e| self.alive[e.index()])
            .map(|e| &self.edges[e.index()])
    }

    /// Number of live edges at a commitment. O(1): the high half of the
    /// packed state word.
    pub fn commitment_degree(&self, id: CommitmentId) -> usize {
        let cached = (self.commitment_state[id.index()] >> 32) as usize;
        debug_assert_eq!(
            cached,
            self.scan_commitment_degree(id),
            "stale commitment state word at {id}"
        );
        cached
    }

    /// Number of live edges at a conjunction. O(1): the high half of the
    /// packed state word.
    pub fn conjunction_degree(&self, id: ConjunctionId) -> usize {
        let cached = (self.conjunction_state[id.index()] >> 32) as usize;
        debug_assert_eq!(
            cached,
            self.scan_conjunction_degree(id),
            "stale conjunction state word at {id}"
        );
        cached
    }

    /// Adjacency-scan oracle for [`Self::commitment_degree`]; asserted equal
    /// to the state-word degree in debug builds.
    pub(crate) fn scan_commitment_degree(&self, id: CommitmentId) -> usize {
        self.live_edges_of_commitment(id).count()
    }

    /// Adjacency-scan oracle for [`Self::conjunction_degree`]; asserted equal
    /// to the state-word degree in debug builds.
    pub(crate) fn scan_conjunction_degree(&self, id: ConjunctionId) -> usize {
        self.live_edges_of_conjunction(id).count()
    }

    /// Adjacency-scan oracle for [`Self::preempted_by_red`]; asserted equal
    /// to the state-word answer in debug builds.
    pub(crate) fn scan_preempted_by_red(&self, conjunction: ConjunctionId, except: EdgeId) -> bool {
        self.live_edges_of_conjunction(conjunction)
            .any(|e| e.color == EdgeColor::Red && e.id != except)
    }

    /// Whether a commitment is on the fringe: at most one live edge.
    pub fn commitment_is_fringe(&self, id: CommitmentId) -> bool {
        self.commitment_degree(id) <= 1
    }

    /// Whether a conjunction is on the fringe: at most one live edge.
    pub fn conjunction_is_fringe(&self, id: ConjunctionId) -> bool {
        self.conjunction_degree(id) <= 1
    }

    /// Whether a live red edge other than `except` is incident to the
    /// conjunction — the pre-emption test of Rule #1. O(1): the live red
    /// count in the high half of the conjunction's red state word, minus
    /// one when `except` itself is a live red edge of this conjunction.
    pub fn preempted_by_red(&self, conjunction: ConjunctionId, except: EdgeId) -> bool {
        let mut reds = self.conjunction_red_state[conjunction.index()] >> 32;
        if let Some(e) = self.edges.get(except.index()) {
            if self.alive[except.index()]
                && e.color == EdgeColor::Red
                && e.conjunction == conjunction
            {
                reds -= 1;
            }
        }
        let preempted = reds > 0;
        debug_assert_eq!(
            preempted,
            self.scan_preempted_by_red(conjunction, except),
            "stale conjunction red state word at {conjunction}"
        );
        preempted
    }

    /// Removes a live edge.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidMove`] if the edge is unknown or already removed.
    pub(crate) fn remove_edge(&mut self, id: EdgeId) -> Result<(), CoreError> {
        match self.alive.get_mut(id.index()) {
            Some(slot) if *slot => {
                *slot = false;
                self.live_count -= 1;
                let e = self.edges[id.index()];
                if e.color == EdgeColor::Red {
                    let st = &mut self.conjunction_red_state[e.conjunction.index()];
                    *st = (*st - (1 << 32)) ^ id.index() as u64;
                }
                let st = &mut self.commitment_state[e.commitment.index()];
                *st = (*st - (1 << 32)) ^ id.index() as u64;
                let st = &mut self.conjunction_state[e.conjunction.index()];
                *st = (*st - (1 << 32)) ^ id.index() as u64;
                Ok(())
            }
            _ => Err(CoreError::InvalidMove(id)),
        }
    }

    /// Restores a removed edge, rewinding a reduction on the same graph.
    ///
    /// Batch analysis paths re-run from an immutable graph via
    /// [`ScratchReducer`](crate::ScratchReducer); this is the mutation
    /// substrate for the [`DeltaAnalyzer`](crate::DeltaAnalyzer)'s evolving
    /// base graph (an indemnity revoked resurrects the principal-side edge
    /// it had split away) and the test harness for the incremental
    /// state-word maintenance. No-op when the edge is already live.
    pub(crate) fn restore_edge(&mut self, id: EdgeId) {
        let slot = &mut self.alive[id.index()];
        if !*slot {
            *slot = true;
            self.live_count += 1;
            let e = self.edges[id.index()];
            if e.color == EdgeColor::Red {
                let st = &mut self.conjunction_red_state[e.conjunction.index()];
                *st = (*st + (1 << 32)) ^ id.index() as u64;
            }
            let st = &mut self.commitment_state[e.commitment.index()];
            *st = (*st + (1 << 32)) ^ id.index() as u64;
            let st = &mut self.conjunction_state[e.conjunction.index()];
            *st = (*st + (1 << 32)) ^ id.index() as u64;
        }
    }

    /// Grants or withdraws the clause-2 waiver of a commitment (§4.2.4):
    /// the trust-relation mutation "counterparty now trusts / no longer
    /// trusts the principal" expressed at graph level.
    ///
    /// Keeps the static scratch-engine seeds coherent: the packed waiver
    /// word and the rule #1 bits of the seed candidate words are re-derived
    /// for the commitment's edges over the *initial fully live* graph (the
    /// only state those seeds describe; `seed_preempted_words` depends only
    /// on edge colours and is untouched). Returns whether the flag changed.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownCommitment`] for an out-of-range id.
    pub(crate) fn set_waiver(&mut self, id: CommitmentId, waived: bool) -> Result<bool, CoreError> {
        let c = id.index();
        let Some(commitment) = self.commitments.get_mut(c) else {
            return Err(CoreError::UnknownCommitment(id));
        };
        if commitment.clause2_waiver == waived {
            return Ok(false);
        }
        commitment.clause2_waiver = waived;
        self.waiver_words[c / 64] ^= 1 << (c % 64);
        for &e in self.commitment_edges.row(c) {
            let slot = e.index();
            let edge = self.edges[slot];
            // Rule #1 over the fully live graph: commitment degree 1 (the
            // row length — edges are never added) and not pre-empted by
            // another initially-live red edge unless waived.
            let rule1 = self.commitment_edges.row(c).len() == 1 && {
                let preempted = (self.seed_preempted_words[slot / 64] >> (slot % 64)) & 1 != 0;
                !preempted || waived
            };
            let bit = 2 * slot + 1;
            let word = &mut self.seed_cand_words[bit / 64];
            *word = (*word & !(1 << (bit % 64))) | (u64::from(rule1) << (bit % 64));
            debug_assert_eq!(edge.commitment, id, "CSR row out of sync");
        }
        Ok(true)
    }

    /// The feasibility test of §4.2.4: a maximally reduced graph is feasible
    /// iff all edges have been removed (`R' ∪ B' = ∅`).
    ///
    /// Note: this only indicates feasibility when no further reduction is
    /// possible; use [`Reducer`](crate::Reducer) to reach that fixpoint.
    pub fn is_fully_reduced(&self) -> bool {
        self.live_count == 0
    }

    /// The commitment whose principal-side edge is red, if any.
    ///
    /// A commitment has at most two edges (one to its principal's
    /// conjunction, one to its trusted component's), and only the
    /// principal-side edge can be red.
    pub fn red_edge_of_commitment(&self, id: CommitmentId) -> Option<&Edge> {
        self.commitment_edges
            .row(id.index())
            .iter()
            .map(|e| &self.edges[e.index()])
            .find(|e| e.color == EdgeColor::Red)
    }

    /// Iterates over the live edges.
    pub fn live_edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter().filter(|e| self.alive[e.id.index()])
    }
}

impl fmt::Display for SequencingGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sequencing graph: {} commitments, {} conjunctions, {}/{} edges live",
            self.commitments.len(),
            self.conjunctions.len(),
            self.live_count,
            self.edges.len()
        )?;
        for e in self.live_edges() {
            let c = self.commitment(e.commitment);
            let j = self.conjunction(e.conjunction);
            writeln!(
                f,
                "  {} [{}] : ({}--{} {} {}) -- and[{}]",
                e.id, e.color, c.principal, c.trusted, c.deal, c.side, j.agent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy graph: two commitments sharing one conjunction, one red edge.
    fn toy() -> SequencingGraph {
        let commitments = vec![
            Commitment {
                id: CommitmentId::new(0),
                principal: AgentId::new(0),
                trusted: AgentId::new(2),
                deal: DealId::new(0),
                side: DealSide::Seller,
                clause2_waiver: false,
            },
            Commitment {
                id: CommitmentId::new(1),
                principal: AgentId::new(0),
                trusted: AgentId::new(3),
                deal: DealId::new(1),
                side: DealSide::Buyer,
                clause2_waiver: false,
            },
        ];
        let conjunctions = vec![Conjunction {
            id: ConjunctionId::new(0),
            agent: AgentId::new(0),
            trusted: false,
        }];
        let edges = vec![
            Edge {
                id: EdgeId::new(0),
                commitment: CommitmentId::new(0),
                conjunction: ConjunctionId::new(0),
                color: EdgeColor::Red,
            },
            Edge {
                id: EdgeId::new(1),
                commitment: CommitmentId::new(1),
                conjunction: ConjunctionId::new(0),
                color: EdgeColor::Black,
            },
        ];
        SequencingGraph::from_parts(commitments, conjunctions, edges)
    }

    #[test]
    fn degrees_and_fringes() {
        let g = toy();
        assert_eq!(g.live_edge_count(), 2);
        assert_eq!(g.commitment_degree(CommitmentId::new(0)), 1);
        assert_eq!(g.conjunction_degree(ConjunctionId::new(0)), 2);
        assert!(g.commitment_is_fringe(CommitmentId::new(0)));
        assert!(!g.conjunction_is_fringe(ConjunctionId::new(0)));
    }

    #[test]
    fn preemption_excludes_self() {
        let g = toy();
        // The black edge is pre-empted by the red sibling…
        assert!(g.preempted_by_red(ConjunctionId::new(0), EdgeId::new(1)));
        // …but the red edge is not pre-empted by itself.
        assert!(!g.preempted_by_red(ConjunctionId::new(0), EdgeId::new(0)));
    }

    #[test]
    fn remove_and_restore() {
        let mut g = toy();
        g.remove_edge(EdgeId::new(0)).unwrap();
        assert_eq!(g.live_edge_count(), 1);
        assert!(!g.is_live(EdgeId::new(0)));
        assert!(g.conjunction_is_fringe(ConjunctionId::new(0)));
        // Double removal is an error.
        assert_eq!(
            g.remove_edge(EdgeId::new(0)),
            Err(CoreError::InvalidMove(EdgeId::new(0)))
        );
        g.restore_edge(EdgeId::new(0));
        assert_eq!(g.live_edge_count(), 2);
        assert!(g.is_live(EdgeId::new(0)));
    }

    #[test]
    fn unknown_edge_removal_is_an_error() {
        let mut g = toy();
        assert_eq!(
            g.remove_edge(EdgeId::new(7)),
            Err(CoreError::InvalidMove(EdgeId::new(7)))
        );
    }

    #[test]
    fn red_edge_lookup() {
        let g = toy();
        assert_eq!(
            g.red_edge_of_commitment(CommitmentId::new(0)).map(|e| e.id),
            Some(EdgeId::new(0))
        );
        assert!(g.red_edge_of_commitment(CommitmentId::new(1)).is_none());
    }

    #[test]
    fn fully_reduced_after_all_removals() {
        let mut g = toy();
        assert!(!g.is_fully_reduced());
        g.remove_edge(EdgeId::new(0)).unwrap();
        g.remove_edge(EdgeId::new(1)).unwrap();
        assert!(g.is_fully_reduced());
        assert_eq!(g.live_edges().count(), 0);
    }

    #[test]
    fn state_words_track_removals_and_restores() {
        let mut g = toy();
        // Churn the graph through every remove/restore order and verify the
        // state-word degrees against the scan oracles at each step.
        for first in [EdgeId::new(0), EdgeId::new(1)] {
            let second = EdgeId::new(1 - first.index() as u32);
            g.remove_edge(first).unwrap();
            g.remove_edge(second).unwrap();
            g.restore_edge(second);
            g.restore_edge(first);
            for c in [CommitmentId::new(0), CommitmentId::new(1)] {
                assert_eq!(g.commitment_degree(c), g.scan_commitment_degree(c));
            }
            let j = ConjunctionId::new(0);
            assert_eq!(g.conjunction_degree(j), g.scan_conjunction_degree(j));
            for except in [EdgeId::new(0), EdgeId::new(1), EdgeId::new(9)] {
                assert_eq!(
                    g.preempted_by_red(j, except),
                    g.scan_preempted_by_red(j, except)
                );
            }
        }
        assert_eq!(g.live_edge_count(), 2);
        // Restoring an already-live edge is a no-op on the state words.
        g.restore_edge(EdgeId::new(0));
        assert_eq!(g.commitment_degree(CommitmentId::new(0)), 1);
    }

    /// `toy()` with the waiver flags chosen per commitment.
    fn toy_waived(w0: bool, w1: bool) -> SequencingGraph {
        let g = toy();
        let mut commitments = g.commitments.clone();
        commitments[0].clause2_waiver = w0;
        commitments[1].clause2_waiver = w1;
        SequencingGraph::from_parts(commitments, g.conjunctions, g.edges)
    }

    #[test]
    fn set_waiver_rederives_static_seeds() {
        let mut g = toy();
        // Granting the waiver on each commitment must leave the packed
        // waiver/seed words exactly as a from-scratch build with that flag.
        assert!(g.set_waiver(CommitmentId::new(1), true).unwrap());
        let rebuilt = toy_waived(false, true);
        assert_eq!(g.waiver_words(), rebuilt.waiver_words());
        assert_eq!(g.seed_cand_words(), rebuilt.seed_cand_words());
        assert_eq!(g.seed_preempted_words(), rebuilt.seed_preempted_words());
        assert!(g.commitment(CommitmentId::new(1)).clause2_waiver);

        // No-op toggles report no change; withdrawing restores the original.
        assert!(!g.set_waiver(CommitmentId::new(1), true).unwrap());
        assert!(g.set_waiver(CommitmentId::new(1), false).unwrap());
        let original = toy();
        assert_eq!(g.waiver_words(), original.waiver_words());
        assert_eq!(g.seed_cand_words(), original.seed_cand_words());

        assert_eq!(
            g.set_waiver(CommitmentId::new(9), true),
            Err(CoreError::UnknownCommitment(CommitmentId::new(9)))
        );
    }

    #[test]
    fn display_shows_live_edges_only() {
        let mut g = toy();
        g.remove_edge(EdgeId::new(1)).unwrap();
        let s = g.to_string();
        assert!(s.contains("1/2 edges live"));
        assert!(s.contains("[red]"));
        assert!(!s.contains("[black]"));
    }
}
