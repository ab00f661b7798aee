//! A streaming marketplace: a fixed population of exchange structures
//! mutating under post/accept/cancel/expire events, re-certified after
//! every event.
//!
//! This is the workload the delta engine exists for. A live marketplace
//! holds many concurrent exchange structures; most events only *touch* one
//! of them — a trust edge gained after a successful trade (**accept**) or
//! withdrawn after a defection (**cancel**), an indemnity **post**ed or
//! **expire**d — and after every event the touched structure's §4.2.4
//! feasibility verdict must be current before the next trade step is
//! released. [`run_market`] drives exactly that loop in one of two modes:
//!
//! * [`MarketMode::Delta`] — each structure keeps a resident
//!   [`DeltaAnalyzer`](trustseq_core::DeltaAnalyzer); events map to
//!   [`GraphDelta`]s (via
//!   [`trust_deltas`](trustseq_core::SequencingGraph::trust_deltas) /
//!   [`indemnity_deltas`](trustseq_core::SequencingGraph::indemnity_deltas))
//!   and re-certification reads the maintained verdict;
//! * [`MarketMode::Full`] — the same graphs mutate identically, but every
//!   event *and* every re-certification pays a full verdict-only
//!   re-reduction, the way a batch pipeline would.
//!
//! Both modes fold every per-event verdict into an order-sensitive
//! [`verdict_hash`](MarketReport::verdict_hash), so equality of two
//! reports proves the modes agreed on every single event, not just in
//! aggregate.
//!
//! Generation and event choice are deterministic in
//! [`MarketConfig::seed`].

use crate::random::{random_exchange, RandomConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use trustseq_core::{
    AnalysisCache, CommitmentId, DeltaAnalyzer, DeltaStats, EdgeId, GraphDelta, SequencingGraph,
};

/// Configuration for [`run_market`].
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfig {
    /// Number of concurrent exchange structures in the marketplace.
    pub structures: usize,
    /// Total events to stream.
    pub events: u64,
    /// Probability that an event mutates its structure (the rest are pure
    /// re-certifications). `1.0` is a pure single-mutation stream.
    pub mutation_rate: f64,
    /// RNG seed for generation and event choice.
    pub seed: u64,
    /// Shape of the generated structures (structure `i` uses seed
    /// `seed + i`). Shared-escrow and bridged links are rejected by
    /// [`run_market`]: the event-to-delta mapping is exact only when each
    /// deal has a dedicated trusted component (see
    /// [`trust_deltas`](trustseq_core::SequencingGraph::trust_deltas)).
    pub base: RandomConfig,
    /// Undo fallback threshold for the delta analyzers; `None` uses the
    /// per-graph default.
    pub threshold: Option<usize>,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            structures: 16,
            events: 1000,
            mutation_rate: 0.2,
            seed: 0,
            base: RandomConfig::default(),
            threshold: None,
        }
    }
}

/// How [`run_market`] maintains verdicts across events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketMode {
    /// Incremental: resident delta analyzers, mutation cost proportional
    /// to the disturbed region, re-certification is a read.
    Delta,
    /// Non-incremental baseline: full verdict-only re-reduction on every
    /// mutation and every re-certification.
    Full,
}

/// What a [`run_market`] run did and concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarketReport {
    /// Events streamed.
    pub events: u64,
    /// Events that mutated a structure.
    pub mutations: u64,
    /// Events that only re-certified.
    pub recerts: u64,
    /// Mutations that flipped their structure's feasibility verdict.
    pub flips: u64,
    /// Structures feasible when the stream ended.
    pub feasible_final: usize,
    /// Order-sensitive FNV-1a fold of every per-event
    /// `(event, structure, verdict)` triple: two runs over the same
    /// config agree on this iff they agreed on every verdict in order.
    pub verdict_hash: u64,
    /// Aggregated maintenance counters across all structures (all zeros
    /// except `applied`/`full_runs` in [`MarketMode::Full`]).
    pub stats: DeltaStats,
}

/// A marketplace event kind applied to one slot of a [`Stall`]:
/// accept/cancel toggle the `slot`-th seller→buyer trust pair, post/expire
/// toggle the `slot`-th deal's indemnity. This is the shared event
/// vocabulary of the streaming market workload *and* the analysis
/// service's `Mutate` request — both sides apply events through
/// [`Stall::apply`], so a loadgen mirror replaying accepted events is
/// bit-equivalent to the server's resident state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketOp {
    /// A trade settles and the seller comes to trust its buyer
    /// (§4.2.3 variant 1): clause-2 waivers switch on.
    Accept,
    /// A defection withdraws that trust: the waivers switch off.
    Cancel,
    /// A buyer collateralizes one deal (§6): its buyer-side principal
    /// edges split away.
    Post,
    /// The indemnity runs out: the edges are restored.
    Expire,
}

/// A [`Stall::apply`] slot index beyond the stall's pair/deal population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOutOfRange {
    /// The offending event kind.
    pub op: MarketOp,
    /// The requested slot.
    pub slot: usize,
    /// The number of valid slots for that kind.
    pub limit: usize,
}

impl std::fmt::Display for SlotOutOfRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} slot {} out of range: stall has {} slots for that event",
            self.op, self.slot, self.limit
        )
    }
}

impl std::error::Error for SlotOutOfRange {}

/// One structure's mutable marketplace state: its resident analyzer plus
/// the seller→buyer trust toggles and per-deal indemnity toggles the event
/// stream can flip.
///
/// The event-to-delta mapping depends only on the graph's *shape* (which
/// commitments a principal pair spans, which edges an indemnity splits),
/// and marketplace events never change the shape — so the mapping is
/// computed once per stall via
/// [`trust_deltas`](SequencingGraph::trust_deltas) /
/// [`indemnity_deltas`](SequencingGraph::indemnity_deltas) and each event
/// replays its precomputed target list instead of re-scanning the
/// structure. Both maintenance modes share this, so the delta-vs-full
/// comparison stays about verdict maintenance, not event decoding — and
/// the analysis server and its loadgen verifier share it too, so their
/// comparison stays about the serving stack.
#[derive(Debug)]
pub struct Stall {
    analyzer: DeltaAnalyzer,
    trusted: Vec<bool>,
    /// How many of `trusted` are set (kept so event choice is O(1) in the
    /// common no-candidate case).
    trusted_count: usize,
    indemnified: Vec<bool>,
    /// How many of `indemnified` are set.
    indemnified_count: usize,
    /// Per-pair clause-2 waiver targets of an accept/cancel on pair `k`.
    waiver_targets: Vec<Vec<CommitmentId>>,
    /// Per-deal principal-side edges a post/expire on deal `k` toggles.
    indemnity_edges: Vec<Vec<EdgeId>>,
}

impl Stall {
    /// Generates one marketplace structure: a [`random_exchange`] under
    /// `seed` with `base`'s shape, its resident analyzer in the chosen
    /// maintenance `mode`, and the precomputed event-to-delta mappings.
    ///
    /// # Panics
    ///
    /// Panics if `base` enables shared escrows or bridges — the
    /// event-to-delta mapping is exact only when each deal has a dedicated
    /// trusted component (see
    /// [`trust_deltas`](SequencingGraph::trust_deltas)).
    pub fn generate(
        seed: u64,
        base: &RandomConfig,
        mode: MarketMode,
        threshold: Option<usize>,
    ) -> Stall {
        assert!(
            base.shared_escrow_prob == 0.0 && base.bridge_prob == 0.0,
            "market structures need dedicated trusted components per deal"
        );
        let ex = random_exchange(&RandomConfig {
            seed,
            ..base.clone()
        });
        let mut pairs = Vec::new();
        let mut deals = Vec::new();
        for chain in &ex.chains {
            let mut sellers = chain.brokers.clone();
            sellers.push(chain.producer);
            let mut buyers = vec![chain.consumer];
            buyers.extend(chain.brokers.iter().copied());
            for k in 0..chain.deals.len() {
                pairs.push((sellers[k], buyers[k]));
                deals.push(chain.deals[k]);
            }
        }
        let trusted: Vec<bool> = pairs
            .iter()
            .map(|&(s, b)| ex.spec.trust().trusts(s, b))
            .collect();
        let trusted_count = trusted.iter().filter(|&&t| t).count();
        let indemnified = vec![false; deals.len()];
        let graph = SequencingGraph::from_spec(&ex.spec).unwrap();
        // Decode every possible event once, against the canonical
        // mappings, so the per-event hot path is toggle + maintain.
        let waiver_targets = pairs
            .iter()
            .map(|&(seller, buyer)| {
                graph
                    .trust_deltas(seller, buyer, true)
                    .into_iter()
                    .map(|d| match d {
                        GraphDelta::SetWaiver { commitment, .. } => commitment,
                        _ => unreachable!("trust deltas are waiver toggles"),
                    })
                    .collect()
            })
            .collect();
        let indemnity_edges = deals
            .iter()
            .map(|&deal| {
                graph
                    .indemnity_deltas(deal, true)
                    .into_iter()
                    .map(|d| match d {
                        GraphDelta::RemoveEdge(e) => e,
                        _ => unreachable!("posting maps to edge removals"),
                    })
                    .collect()
            })
            .collect();
        let analyzer = match (mode, threshold) {
            (MarketMode::Full, _) => DeltaAnalyzer::full_baseline(graph),
            (MarketMode::Delta, Some(t)) => DeltaAnalyzer::with_threshold(graph, t),
            (MarketMode::Delta, None) => DeltaAnalyzer::new(graph),
        };
        Stall {
            analyzer,
            trusted,
            trusted_count,
            indemnified,
            indemnified_count: 0,
            waiver_targets,
            indemnity_edges,
        }
    }

    /// Number of trust-pair slots (valid for [`MarketOp::Accept`] /
    /// [`MarketOp::Cancel`]).
    pub fn pairs(&self) -> usize {
        self.trusted.len()
    }

    /// Number of deal slots (valid for [`MarketOp::Post`] /
    /// [`MarketOp::Expire`]).
    pub fn deals(&self) -> usize {
        self.indemnified.len()
    }

    /// The stall's current feasibility verdict (maintained, not
    /// recomputed).
    pub fn feasible(&self) -> bool {
        self.analyzer.feasible()
    }

    /// Edges currently surviving the maintained reduction (0 iff
    /// feasible).
    pub fn remaining_edges(&self) -> usize {
        self.analyzer.remaining_edges()
    }

    /// Red edges among [`remaining_edges`](Self::remaining_edges).
    pub fn remaining_red(&self) -> usize {
        self.analyzer.remaining_red()
    }

    /// The stall's live graph, in its current mutation state.
    pub fn graph(&self) -> &SequencingGraph {
        self.analyzer.graph()
    }

    /// The resident analyzer's maintenance counters.
    pub fn stats(&self) -> DeltaStats {
        self.analyzer.stats()
    }

    /// Applies one marketplace event to `slot`, maintaining the verdict
    /// through the resident analyzer. Returns whether the toggle changed
    /// state: re-accepting an already-trusted pair (or re-posting a posted
    /// indemnity, …) is a well-defined no-op reporting `Ok(false)`, so the
    /// operation is idempotent and a replay — e.g. the loadgen verifier
    /// mirroring accepted server events — converges to the same state.
    pub fn apply(&mut self, op: MarketOp, slot: usize) -> Result<bool, SlotOutOfRange> {
        let (state, limit) = match op {
            MarketOp::Accept | MarketOp::Cancel => (&self.trusted, self.trusted.len()),
            MarketOp::Post | MarketOp::Expire => (&self.indemnified, self.indemnified.len()),
        };
        if slot >= limit {
            return Err(SlotOutOfRange { op, slot, limit });
        }
        let want = matches!(op, MarketOp::Accept | MarketOp::Post);
        if state[slot] == want {
            return Ok(false);
        }
        match op {
            MarketOp::Accept | MarketOp::Cancel => {
                self.trusted[slot] = want;
                if want {
                    self.trusted_count += 1;
                } else {
                    self.trusted_count -= 1;
                }
                for &commitment in &self.waiver_targets[slot] {
                    self.analyzer
                        .apply(GraphDelta::SetWaiver {
                            commitment,
                            waived: want,
                        })
                        .unwrap();
                }
            }
            MarketOp::Post | MarketOp::Expire => {
                self.indemnified[slot] = want;
                if want {
                    self.indemnified_count += 1;
                } else {
                    self.indemnified_count -= 1;
                }
                for &edge in &self.indemnity_edges[slot] {
                    let delta = if want {
                        GraphDelta::RemoveEdge(edge)
                    } else {
                        GraphDelta::RestoreEdge(edge)
                    };
                    self.analyzer.apply(delta).unwrap();
                }
            }
        }
        Ok(true)
    }
}

/// FNV-1a offset basis: the seed of every verdict-hash fold.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One order-sensitive FNV-1a-style round over a whole 64-bit word (the
/// verdict hash only needs determinism and order sensitivity, so it folds
/// words, not bytes — the fold is on the per-event hot path). Public so
/// the analysis service's loadgen folds its reply stream with the same
/// function the centralised-reducer mirror uses.
pub fn fnv_fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(FNV_PRIME)
}

/// A resident marketplace: the generated structure population plus the
/// deterministic event stream's RNG, kept warm between
/// [`drive`](Market::drive) batches.
///
/// Construction (generation, graph building, the initial full analyses,
/// event decoding) is the cold part; [`drive`](Market::drive) is the
/// sustained part benchmarks measure. [`run_market`] composes the two for
/// one-shot runs.
#[derive(Debug)]
pub struct Market {
    mode: MarketMode,
    mutation_rate: f64,
    stalls: Vec<Stall>,
    rng: StdRng,
    recert_scratch: trustseq_core::ScratchReducer,
    events_streamed: u64,
}

/// Streams `config.events` marketplace events over `config.structures`
/// generated structures, maintaining every verdict in the chosen `mode`.
///
/// With a `cache`, every mutation also exercises the delta-aware
/// invalidation path: the structure's *pre-mutation* labelled key is
/// dropped with
/// [`invalidate_graph`](trustseq_core::AnalysisCache::invalidate_graph),
/// the post-mutation verdict is re-interned through the cache, and the two
/// maintenance paths are asserted to agree — a live cross-check of the
/// engine against the canonicalizing pipeline (and correspondingly slower;
/// benches pass `None`).
///
/// # Panics
///
/// Panics on a degenerate configuration (`structures == 0`, `events == 0`,
/// `mutation_rate` outside `[0, 1]`, shared-escrow or bridged base
/// shapes), and on any verdict disagreement when `cache` is present.
pub fn run_market(
    config: &MarketConfig,
    mode: MarketMode,
    cache: Option<&AnalysisCache>,
) -> MarketReport {
    assert!(config.events >= 1, "events must be at least 1");
    Market::new(config, mode).drive(config.events, cache)
}

impl Market {
    /// Builds the structure population and decodes the event vocabulary
    /// for the chosen maintenance `mode`. Panics on degenerate
    /// configurations (see [`run_market`]).
    pub fn new(config: &MarketConfig, mode: MarketMode) -> Market {
        assert!(config.structures >= 1, "structures must be at least 1");
        assert!(
            (0.0..=1.0).contains(&config.mutation_rate),
            "mutation rate must be within [0, 1]"
        );

        let stalls: Vec<Stall> = (0..config.structures)
            .map(|i| {
                Stall::generate(
                    config.seed.wrapping_add(i as u64),
                    &config.base,
                    mode,
                    config.threshold,
                )
            })
            .collect();

        Market {
            mode,
            mutation_rate: config.mutation_rate,
            stalls,
            rng: StdRng::seed_from_u64(config.seed ^ 0x6d61_726b_6574), // "market"
            recert_scratch: trustseq_core::ScratchReducer::new(),
            events_streamed: 0,
        }
    }

    /// Streams the next `events` events of the deterministic stream,
    /// maintaining every verdict, and reports on the batch. Repeated
    /// calls continue where the previous batch stopped (the sustained
    /// regime the `delta` bench measures);
    /// [`stats`](MarketReport::stats) and
    /// [`feasible_final`](MarketReport::feasible_final) describe the
    /// market's cumulative state. See [`run_market`] for the `cache`
    /// cross-check and panics.
    pub fn drive(&mut self, events: u64, cache: Option<&AnalysisCache>) -> MarketReport {
        let mut report = MarketReport {
            events,
            mutations: 0,
            recerts: 0,
            flips: 0,
            feasible_final: 0,
            verdict_hash: FNV_OFFSET,
            stats: DeltaStats::default(),
        };

        for _ in 0..events {
            let event = self.events_streamed;
            self.events_streamed += 1;
            let s = self.rng.random_range(0..self.stalls.len());
            let stall = &mut self.stalls[s];
            let verdict = if self.rng.random_bool(self.mutation_rate) {
                report.mutations += 1;
                let before = stall.analyzer.feasible();
                if let Some(cache) = cache {
                    // The structure is about to stop presenting this labelled
                    // shape: drop exactly its key, nothing else.
                    cache.invalidate_graph(stall.analyzer.graph());
                }
                // Four marketplace event kinds; rotate to the next applicable
                // one so the stream never stalls (at least one toggle of each
                // pair is always available). The slot draw only happens when
                // candidates exist, so the RNG sequence — and therefore the
                // verdict hash — is unchanged by routing the application
                // through the shared [`Stall::apply`].
                let wanted = self.rng.random_range(0..4u8);
                for offset in 0..4u8 {
                    let kind = (wanted + offset) % 4;
                    let picked = match kind {
                        0 => pick(
                            &mut self.rng,
                            &stall.trusted,
                            false,
                            stall.trusted.len() - stall.trusted_count,
                        )
                        .map(|k| (MarketOp::Accept, k)),
                        1 => pick(&mut self.rng, &stall.trusted, true, stall.trusted_count)
                            .map(|k| (MarketOp::Cancel, k)),
                        2 => pick(
                            &mut self.rng,
                            &stall.indemnified,
                            false,
                            stall.indemnified.len() - stall.indemnified_count,
                        )
                        .map(|k| (MarketOp::Post, k)),
                        _ => pick(
                            &mut self.rng,
                            &stall.indemnified,
                            true,
                            stall.indemnified_count,
                        )
                        .map(|k| (MarketOp::Expire, k)),
                    };
                    match picked {
                        Some((op, k)) => {
                            let changed = stall.apply(op, k).unwrap();
                            debug_assert!(changed, "pick only returns eligible slots");
                        }
                        None => continue,
                    }
                    break;
                }
                let verdict = stall.analyzer.feasible();
                if verdict != before {
                    report.flips += 1;
                }
                if let Some(cache) = cache {
                    let interned = cache.verdict(stall.analyzer.graph());
                    assert_eq!(
                        interned.feasible, verdict,
                        "delta engine and canonicalizing cache disagree \
                     (event {event}, structure {s})"
                    );
                }
                verdict
            } else {
                report.recerts += 1;
                match self.mode {
                    MarketMode::Delta => stall.analyzer.feasible(),
                    // The baseline re-certifies the hard way, like a batch
                    // pipeline fielding a verdict query.
                    MarketMode::Full => self.recert_scratch.run_verdict_only(
                        stall.analyzer.graph(),
                        trustseq_core::Strategy::Deterministic,
                    ),
                }
            };
            report.verdict_hash = fnv_fold(report.verdict_hash, event);
            report.verdict_hash = fnv_fold(report.verdict_hash, s as u64);
            report.verdict_hash = fnv_fold(report.verdict_hash, u64::from(verdict));
        }

        for stall in &self.stalls {
            if stall.analyzer.feasible() {
                report.feasible_final += 1;
            }
            let s = stall.analyzer.stats();
            report.stats.applied += s.applied;
            report.stats.resumed += s.resumed;
            report.stats.undos += s.undos;
            report.stats.undone_steps += s.undone_steps;
            report.stats.fallbacks += s.fallbacks;
            report.stats.full_runs += s.full_runs;
        }
        report
    }
}

/// Uniformly picks an index of `state` whose value is `want`, or `None`
/// if there is none. `available` is the caller-maintained count of
/// matching entries, saving the counting pass on the hot event path.
fn pick(rng: &mut StdRng, state: &[bool], want: bool, available: usize) -> Option<usize> {
    debug_assert_eq!(available, state.iter().filter(|&&v| v == want).count());
    if available == 0 {
        return None;
    }
    let target = rng.random_range(0..available);
    state
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v == want)
        .nth(target)
        .map(|(k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MarketConfig {
        MarketConfig {
            structures: 4,
            events: 200,
            mutation_rate: 0.5,
            seed: 7,
            base: RandomConfig {
                max_depth: 3,
                trust_density: 0.3,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_market(&small(), MarketMode::Delta, None);
        let b = run_market(&small(), MarketMode::Delta, None);
        assert_eq!(a, b);
        assert_eq!(a.events, 200);
        assert_eq!(a.mutations + a.recerts, 200);
        assert!(a.mutations > 0 && a.recerts > 0);
    }

    #[test]
    fn delta_and_full_agree_on_every_verdict() {
        let delta = run_market(&small(), MarketMode::Delta, None);
        let full = run_market(&small(), MarketMode::Full, None);
        assert_eq!(delta.verdict_hash, full.verdict_hash);
        assert_eq!(delta.flips, full.flips);
        assert_eq!(delta.feasible_final, full.feasible_final);
        // The baseline re-reduced on every event touching it; the delta
        // engine never fell back to a full run by itself here or it did —
        // either way it must not have *started* from full runs.
        assert!(full.stats.full_runs >= full.mutations);
        assert!(delta.stats.resumed > 0);
    }

    #[test]
    fn cache_cross_check_exercises_invalidation() {
        let cache = trustseq_core::AnalysisCache::new();
        let checked = run_market(&small(), MarketMode::Delta, Some(&cache));
        let plain = run_market(&small(), MarketMode::Delta, None);
        assert_eq!(checked, plain, "cache cross-check must not change results");
        let stats = cache.stats();
        assert!(
            stats.invalidations > 0,
            "mutations must drop stale labelled keys: {stats:?}"
        );
    }

    #[test]
    fn pure_recert_stream_never_mutates() {
        let config = MarketConfig {
            mutation_rate: 0.0,
            events: 50,
            ..small()
        };
        let report = run_market(&config, MarketMode::Delta, None);
        assert_eq!(report.mutations, 0);
        assert_eq!(report.recerts, 50);
        assert_eq!(report.flips, 0);
    }

    #[test]
    fn pure_mutation_stream_never_recerts() {
        let config = MarketConfig {
            mutation_rate: 1.0,
            events: 50,
            ..small()
        };
        let delta = run_market(&config, MarketMode::Delta, None);
        assert_eq!(delta.mutations, 50);
        assert_eq!(delta.recerts, 0);
        let full = run_market(&config, MarketMode::Full, None);
        assert_eq!(delta.verdict_hash, full.verdict_hash);
    }

    #[test]
    fn explicit_threshold_changes_strategy_not_verdicts() {
        let eager = run_market(
            &MarketConfig {
                threshold: Some(0),
                ..small()
            },
            MarketMode::Delta,
            None,
        );
        let lazy = run_market(
            &MarketConfig {
                threshold: Some(usize::MAX),
                ..small()
            },
            MarketMode::Delta,
            None,
        );
        assert_eq!(eager.verdict_hash, lazy.verdict_hash);
        assert_eq!(lazy.stats.fallbacks, 0);
    }

    #[test]
    #[should_panic(expected = "mutation rate")]
    fn out_of_range_mutation_rate_panics() {
        let config = MarketConfig {
            mutation_rate: 1.5,
            ..small()
        };
        let _ = run_market(&config, MarketMode::Delta, None);
    }
}
