//! Memoized feasibility analysis: a two-tier, sharded, lock-striped table
//! mapping graph structure to interned reduction outcomes.
//!
//! Sweep drivers (defection enumeration, trust-density sweeps, chaos
//! matrices, indemnity search) reduce the same handful of structural
//! shapes thousands of times. An [`AnalysisCache`] collapses those repeats
//! into one reduction per *structure*: on a miss the graph is relabelled
//! into canonical form, reduced there, and the canonical-coordinate
//! outcome is stored; on every path — hit or miss — the stored outcome is
//! translated back through the query graph's own canonical maps. Because
//! hit and miss both read the same interned entry through the same
//! translation, they return byte-identical [`ReductionOutcome`]s by
//! construction.
//!
//! # Two tiers
//!
//! Canonicalization itself (a search over colour refinements, §“canon”) is
//! far more expensive than the O(E) hash a lookup fundamentally needs, and
//! sweeps overwhelmingly re-query *identically labelled* graphs — the same
//! spec probed under different protocols or seeds. Lookups therefore go
//! through two keys:
//!
//! * **Tier 1** — a [`PreFingerprint`] of the *exact labelled* live
//!   structure, computed in one O(E) pass. A hit returns the interned
//!   canonical form and entry without running canonicalization at all —
//!   and serves a clone of the outcome translation memoized at intern
//!   time, so a hit does no relabelling work either.
//! * **Tier 2** — the label-invariant canonical [`Fingerprint`]. Only
//!   tier-1 misses (graphs never seen under these exact labels) pay for
//!   canonicalization; relabelled isomorphs then still hit here and share
//!   the single interned outcome.
//!
//! Equal pre-fingerprints imply identical labelled live structure (up to a
//! 2⁻¹²⁸ collision — the same trust extended to the canonical
//! fingerprint), so the interned canonical form translates the stored
//! outcome verbatim for every tier-1 hit.
//!
//! The cached trace can differ from a fresh [`analyze`](crate::analyze)
//! trace in step *order* (the deterministic reducer picks moves by edge
//! id, and canonical ids order differently) — both are maximal reductions,
//! and by the confluence theorem of §4.2 they agree on the verdict and on
//! the set of removed edges.
//!
//! Concurrency: the table is split into 16 stripes, each behind a
//! `parking_lot::Mutex`, selected by the fingerprint's low bits; counters
//! are relaxed atomics. Racing inserts of the same fingerprint resolve to
//! a single interned entry. In debug builds a sampled fraction of hits is
//! re-reduced from scratch and asserted equal to the cached entry, which
//! would expose a fingerprint collision (probability ≈ 2⁻¹²⁸).

use crate::build::BuildOptions;
use crate::canon::{canonicalize, prefingerprint, CanonicalForm, Fingerprint, PreFingerprint};
use crate::graph::SequencingGraph;
use crate::obs;
use crate::reduce::{ConfluenceReport, ReductionOutcome, Strategy};
use crate::scratch::ScratchReducer;
use crate::CoreError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of lock stripes. A small power of two: sweeps run on at most a
/// handful of workers, so 16 stripes keep contention negligible without
/// bloating the table.
const SHARDS: usize = 16;

/// In debug builds, one in this many hits is verified against a fresh
/// reduction of the canonical graph.
#[cfg(debug_assertions)]
const HIT_VERIFY_SAMPLE: u64 = 16;

/// An interned analysis result in canonical coordinates.
#[derive(Debug)]
struct CacheEntry {
    /// Outcome of reducing the canonical graph (canonical ids throughout).
    outcome: ReductionOutcome,
    /// Red edges among `outcome.remaining_edges` — the impasse colour
    /// profile, exposed via [`CachedVerdict`] without translation.
    remaining_red: u32,
    /// Randomized-order confluence validation performed so far on this
    /// structure's canonical graph (see [`AnalysisCache::confluence`]).
    confluence: Mutex<ConfluenceRecord>,
    /// Cache-clock millisecond this entry was interned at; drives TTL
    /// expiry (verdicts never decay *logically* — TTL only bounds how long
    /// an idle long-running service keeps a structure resident).
    interned_ms: u64,
    /// Cache-clock millisecond of the most recent lookup that served this
    /// entry; drives LRU-class segmented eviction.
    accessed_ms: AtomicU64,
}

/// A tier-1 value: one exact labelled live structure's canonical form,
/// paired with the structure's interned entry. Hits on this tier skip
/// canonicalization entirely and translate through the stored form.
#[derive(Debug)]
struct LabelledEntry {
    /// Canonical relabelling of the (exact, labelled) live structure.
    form: CanonicalForm,
    /// The tier-2 entry this structure resolves to.
    entry: Arc<CacheEntry>,
    /// `entry.outcome` translated back into this labelling's own ids,
    /// memoized once at intern time: translation is deterministic per
    /// labelled key, so a tier-1 hit serves a clone instead of
    /// re-relabelling the whole trace.
    translated: ReductionOutcome,
    /// Cache-clock millisecond this labelled key was interned at (TTL).
    interned_ms: u64,
    /// Cache-clock millisecond of the most recent tier-1 hit (LRU).
    accessed_ms: AtomicU64,
}

impl LabelledEntry {
    fn intern(form: CanonicalForm, entry: Arc<CacheEntry>, now_ms: u64) -> Arc<Self> {
        let translated = form.translate(&entry.outcome);
        Arc::new(LabelledEntry {
            form,
            entry,
            translated,
            interned_ms: now_ms,
            accessed_ms: AtomicU64::new(now_ms),
        })
    }
}

/// How much confluence sampling a structure has already been through:
/// seeds `0..samples` have run, and `disagreeing` lists the (normally
/// none) seeds whose verdict contradicted the reference.
#[derive(Debug, Default)]
struct ConfluenceRecord {
    samples: u64,
    disagreeing: Vec<u64>,
}

/// The label-free part of a cached outcome: everything a sweep needs when
/// it only gates on feasibility, available without translating ids back to
/// the query graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedVerdict {
    /// Whether the structure reduces to zero edges (§4.2.4).
    pub feasible: bool,
    /// Edges surviving at the impasse (0 iff feasible).
    pub remaining_edges: usize,
    /// Red edges among the survivors.
    pub remaining_red: u32,
}

/// A point-in-time snapshot of cache effectiveness counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the table (either tier).
    pub hits: u64,
    /// Hits answered at tier 1 — by exact labelled structure, skipping
    /// canonicalization entirely. A subset of `hits`.
    pub pre_hits: u64,
    /// Lookups that had to reduce.
    pub misses: u64,
    /// Entries actually interned (≤ misses: racing misses intern once).
    pub inserts: u64,
    /// Distinct structures currently interned (tier 2).
    pub entries: usize,
    /// Distinct labelled keys currently interned (tier 1, ≥ `entries`).
    pub labelled_entries: usize,
    /// Entries discarded by capacity eviction (both tiers; 0 on an
    /// unbounded cache).
    pub evictions: u64,
    /// Labelled keys dropped by targeted delta-aware invalidation
    /// (see [`AnalysisCache::invalidate_labelled`]).
    pub invalidations: u64,
    /// Keys (both tiers) dropped because they outlived the cache's TTL
    /// (0 on a cache without one). Disjoint from `evictions`, which counts
    /// capacity-pressure drops.
    pub expired: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups. Zero lookups report 0.0 rather
    /// than NaN, and the lookup total saturates instead of overflowing if
    /// the counters are ever near `u64::MAX`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} label-fast), {} structures interned, {} evicted, {} expired",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.pre_hits,
            self.entries,
            self.evictions,
            self.expired
        )
    }
}

/// A sharded memo table mapping canonical fingerprints to interned
/// reduction outcomes. Cheap to share by reference across sweep workers;
/// all methods take `&self`.
///
/// By default the table only grows; [`with_capacity`](Self::with_capacity)
/// bounds it with segmented LRU-class eviction, and
/// [`with_capacity_and_ttl`](Self::with_capacity_and_ttl) additionally
/// expires idle keys by age — the configuration a long-running analysis
/// service wants.
#[derive(Debug)]
pub struct AnalysisCache {
    /// Tier 1: exact labelled live structure → canonical form + entry.
    pre_shards: [Mutex<HashMap<u128, Arc<LabelledEntry>>>; SHARDS],
    /// Tier 2: canonical fingerprint → interned outcome.
    shards: [Mutex<HashMap<u128, Arc<CacheEntry>>>; SHARDS],
    /// Per-shard entry cap for each tier; 0 means unbounded.
    shard_cap: usize,
    /// TTL in cache-clock milliseconds; 0 means entries never expire.
    ttl_ms: u64,
    /// Origin of the cache clock (see [`now_ms`](Self::now_ms)).
    epoch: Instant,
    /// Virtual milliseconds added to the cache clock by
    /// [`advance_clock`](Self::advance_clock), so TTL behaviour is testable
    /// without sleeping.
    clock_skew_ms: AtomicU64,
    hits: AtomicU64,
    pre_hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    expired: AtomicU64,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisCache {
    /// An empty, unbounded cache without TTL.
    pub fn new() -> Self {
        Self::with_capacity_and_ttl(0, None)
    }

    /// An empty cache holding at most (approximately) `max_entries`
    /// interned keys *per tier*, without TTL. `0` means unbounded, same as
    /// [`new`](Self::new).
    ///
    /// Bounding is by **segmented LRU-class eviction**: the cap is spread
    /// over the 16 lock stripes (rounded up, at least one entry
    /// per stripe), and an insert into a full stripe first drops the
    /// least-recently-accessed *half* of that stripe (everything at or
    /// below the stripe's median access stamp) — one relaxed store per hit
    /// is the only hot-path bookkeeping, and eviction is a rare O(stripe)
    /// sweep instead of per-entry list surgery. Evicted totals are
    /// reported in [`CacheStats::evictions`] and on the `cache.evictions`
    /// counter. Entries are re-interned on next miss, so eviction affects
    /// throughput, never results.
    ///
    /// Memory note: a tier-1 key pins its tier-2 entry through an `Arc`,
    /// so the worst-case resident set is one entry per interned key across
    /// both tiers — still bounded, at roughly `2 × max_entries` entries.
    pub fn with_capacity(max_entries: usize) -> Self {
        Self::with_capacity_and_ttl(max_entries, None)
    }

    /// An empty cache bounded by `max_entries` (0 = unbounded, as in
    /// [`with_capacity`](Self::with_capacity)) whose keys additionally
    /// expire once they are at least `ttl` old, counted from intern time.
    ///
    /// Expiry is lazy: a lookup that lands on an over-age key drops it,
    /// counts it in [`CacheStats::expired`] (and on the `cache.expired`
    /// counter), and proceeds as a miss — there is no background sweeper
    /// thread. A verdict never decays *logically* (structure determines
    /// outcome), so TTL exists purely to bound the resident set of a
    /// long-running service whose key population drifts: without it, keys
    /// for structures that will never be queried again survive until
    /// capacity pressure happens to hit their stripe.
    ///
    /// Both tiers expire independently: a fresh labelled key can outlive
    /// its structure's tier-2 table slot (the `Arc` pin keeps results
    /// correct), and an expired labelled key re-resolves through a still
    /// fresh tier 2 without re-reducing.
    pub fn with_capacity_and_ttl(max_entries: usize, ttl: Option<Duration>) -> Self {
        AnalysisCache {
            pre_shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            shard_cap: if max_entries == 0 {
                0
            } else {
                max_entries.div_ceil(SHARDS).max(1)
            },
            ttl_ms: ttl.map_or(0, |d| (d.as_millis() as u64).max(1)),
            epoch: Instant::now(),
            clock_skew_ms: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            pre_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Milliseconds on the cache clock: wall time since construction plus
    /// any virtual skew from [`advance_clock`](Self::advance_clock).
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64 + self.clock_skew_ms.load(Ordering::Relaxed)
    }

    /// Advances the cache clock by `by` without sleeping. Exists so TTL
    /// expiry is deterministic under test; harmless (if pointless) on a
    /// cache without a TTL.
    pub fn advance_clock(&self, by: Duration) {
        self.clock_skew_ms
            .fetch_add(by.as_millis() as u64, Ordering::Relaxed);
    }

    /// Whether a key interned at `interned_ms` is over-age at `now`.
    fn is_expired(&self, interned_ms: u64, now: u64) -> bool {
        self.ttl_ms != 0 && now.saturating_sub(interned_ms) >= self.ttl_ms
    }

    /// Counts one lazily-dropped over-age key.
    fn note_expired(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
        obs::with(|r| r.counter("cache.expired", 1));
    }

    /// Makes room in `map`'s stripe if inserting a new `key` would
    /// overflow the per-shard cap: the least-recently-accessed half of the
    /// stripe (access stamp at or below the median, read via `stamp`) is
    /// dropped and credited to the eviction counters. Inserts of an
    /// already-present key never evict. When every stamp is equal — e.g. a
    /// burst interned within one millisecond — the whole stripe goes,
    /// degenerating to the coarse segment eviction this replaces.
    fn evict_if_full<V>(&self, map: &mut HashMap<u128, V>, key: u128, stamp: impl Fn(&V) -> u64) {
        if self.shard_cap == 0 || map.len() < self.shard_cap || map.contains_key(&key) {
            return;
        }
        let mut stamps: Vec<u64> = map.values().map(&stamp).collect();
        let mid = stamps.len() / 2;
        let (_, &mut threshold, _) = stamps.select_nth_unstable(mid);
        let before = map.len();
        map.retain(|_, v| stamp(v) > threshold);
        let evicted = (before - map.len()) as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        obs::with(|r| r.counter("cache.evictions", evicted));
    }

    /// Interns `labelled` under its tier-1 key, evicting the stripe's
    /// stale half first if it is at capacity. Racing interns keep the
    /// first value.
    fn intern_labelled(&self, pre: PreFingerprint, labelled: &Arc<LabelledEntry>) {
        let mut shard = self.pre_shard(pre).lock();
        self.evict_if_full(&mut shard, pre.as_u128(), |l| {
            l.accessed_ms.load(Ordering::Relaxed)
        });
        shard
            .entry(pre.as_u128())
            .or_insert_with(|| labelled.clone());
    }

    fn pre_shard(&self, pre: PreFingerprint) -> &Mutex<HashMap<u128, Arc<LabelledEntry>>> {
        &self.pre_shards[(pre.as_u128() as usize) & (SHARDS - 1)]
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<HashMap<u128, Arc<CacheEntry>>> {
        &self.shards[(fp.as_u128() as usize) & (SHARDS - 1)]
    }

    /// In debug builds, every [`HIT_VERIFY_SAMPLE`]th hit re-reduces the
    /// canonical graph from scratch and compares — this would expose a
    /// collision in *either* fingerprint tier.
    #[cfg(debug_assertions)]
    fn maybe_verify_hit(hits_before: u64, graph: &SequencingGraph, labelled: &LabelledEntry) {
        if hits_before.is_multiple_of(HIT_VERIFY_SAMPLE) {
            let canonical = labelled.form.canonical_graph(graph);
            let fresh = ScratchReducer::new().run(&canonical, Strategy::Deterministic);
            assert_eq!(
                fresh, labelled.entry.outcome,
                "cached outcome diverges from a fresh reduction (fingerprint collision?)"
            );
        }
    }

    #[cfg(not(debug_assertions))]
    fn maybe_verify_hit(_hits_before: u64, _graph: &SequencingGraph, _labelled: &LabelledEntry) {}

    /// Looks up (or computes and interns) the entry for `graph`'s
    /// structure. Tier-1 hits return without canonicalizing; tier-1 misses
    /// canonicalize, resolve through tier 2 (reducing only if the
    /// *structure* is new as well), and intern the labelled key for next
    /// time.
    fn entry(&self, graph: &SequencingGraph) -> Arc<LabelledEntry> {
        let now = self.now_ms();
        let pre = prefingerprint(graph);
        let tier1 = {
            let mut shard = self.pre_shard(pre).lock();
            match shard.get(&pre.as_u128()) {
                Some(l) if self.is_expired(l.interned_ms, now) => {
                    // Lazy TTL: drop the over-age key and miss through.
                    shard.remove(&pre.as_u128());
                    self.note_expired();
                    None
                }
                Some(l) => Some(l.clone()),
                None => None,
            }
        };
        if let Some(labelled) = tier1 {
            labelled.accessed_ms.store(now, Ordering::Relaxed);
            labelled.entry.accessed_ms.store(now, Ordering::Relaxed);
            let hits = self.hits.fetch_add(1, Ordering::Relaxed);
            self.pre_hits.fetch_add(1, Ordering::Relaxed);
            obs::with(|r| r.counter("cache.tier1_hits", 1));
            Self::maybe_verify_hit(hits, graph, &labelled);
            return labelled;
        }
        let form = canonicalize(graph);
        let fp = form.fingerprint();
        let cached = {
            let mut shard = self.shard(fp).lock();
            match shard.get(&fp.as_u128()) {
                Some(e) if self.is_expired(e.interned_ms, now) => {
                    shard.remove(&fp.as_u128());
                    self.note_expired();
                    None
                }
                Some(e) => Some(e.clone()),
                None => None,
            }
        };
        let entry = match cached {
            Some(entry) => {
                entry.accessed_ms.store(now, Ordering::Relaxed);
                let hits = self.hits.fetch_add(1, Ordering::Relaxed);
                obs::with(|r| r.counter("cache.tier2_hits", 1));
                let labelled = LabelledEntry::intern(form, entry, now);
                Self::maybe_verify_hit(hits, graph, &labelled);
                self.intern_labelled(pre, &labelled);
                return labelled;
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::with(|r| r.counter("cache.misses", 1));
                let intern_span = obs::enabled().then(obs::Span::wall);
                // Reduce outside the lock: reductions are the expensive
                // part, and a racing thread interning the same structure
                // first is harmless.
                let canonical = form.canonical_graph(graph);
                let outcome = ScratchReducer::new().run(&canonical, Strategy::Deterministic);
                let remaining_red = outcome.remaining_red(&canonical) as u32;
                let candidate = Arc::new(CacheEntry {
                    outcome,
                    remaining_red,
                    confluence: Mutex::new(ConfluenceRecord::default()),
                    interned_ms: now,
                    accessed_ms: AtomicU64::new(now),
                });
                let mut inserted = false;
                let entry = {
                    let mut shard = self.shard(fp).lock();
                    self.evict_if_full(&mut shard, fp.as_u128(), |e| {
                        e.accessed_ms.load(Ordering::Relaxed)
                    });
                    shard
                        .entry(fp.as_u128())
                        .or_insert_with(|| {
                            inserted = true;
                            candidate
                        })
                        .clone()
                };
                if inserted {
                    self.inserts.fetch_add(1, Ordering::Relaxed);
                }
                // Interning latency = canonical reduce + table insert on
                // the miss path, in wall-clock nanoseconds.
                if let Some(span) = intern_span {
                    span.finish("cache.intern_ns", None);
                }
                entry
            }
        };
        let labelled = LabelledEntry::intern(form, entry, now);
        self.intern_labelled(pre, &labelled);
        labelled
    }

    /// Memoized equivalent of reducing `graph` to its fixpoint: the
    /// returned outcome is expressed in `graph`'s own ids and is
    /// byte-identical whether it was served from the table or computed
    /// fresh. See the module docs for how its trace relates to
    /// [`analyze`](crate::analyze)'s.
    pub fn reduce(&self, graph: &SequencingGraph) -> ReductionOutcome {
        self.entry(graph).translated.clone()
    }

    /// Memoized feasibility verdict for `graph`, skipping the id
    /// translation — the fast path for sweeps that only gate on
    /// feasibility.
    pub fn verdict(&self, graph: &SequencingGraph) -> CachedVerdict {
        let labelled = self.entry(graph);
        CachedVerdict {
            feasible: labelled.entry.outcome.feasible,
            remaining_edges: labelled.entry.outcome.remaining_edges.len(),
            remaining_red: labelled.entry.remaining_red,
        }
    }

    /// Memoized [`analyze`](crate::analyze): builds the sequencing graph
    /// and reduces it through the cache.
    pub fn analyze(
        &self,
        spec: &trustseq_model::ExchangeSpec,
    ) -> Result<ReductionOutcome, CoreError> {
        self.analyze_with(spec, BuildOptions::default())
    }

    /// Memoized [`analyze_with`](crate::analyze_with). Graphs built under
    /// different [`BuildOptions`] have different structures, so they
    /// naturally occupy distinct cache entries.
    pub fn analyze_with(
        &self,
        spec: &trustseq_model::ExchangeSpec,
        options: BuildOptions,
    ) -> Result<ReductionOutcome, CoreError> {
        let graph = SequencingGraph::from_spec_with(spec, options)?;
        Ok(self.reduce(&graph))
    }

    /// Memoized confluence validation
    /// (see [`confluence_check_cached`](crate::confluence_check_cached)):
    /// randomized-order samples run once per *structure*, on its canonical
    /// graph, and every isomorphic query reuses the interned record. A
    /// query asking for more samples than the record holds extends it with
    /// exactly the missing seeds.
    pub fn confluence(&self, graph: &SequencingGraph, samples: u64) -> ConfluenceReport {
        let labelled = self.entry(graph);
        let reference_feasible = labelled.entry.outcome.feasible;
        let mut record = labelled.entry.confluence.lock();
        if record.samples < samples {
            let canonical = labelled.form.canonical_graph(graph);
            // Only the verdict is compared, so the trace-free fast path
            // saves allocating and filling a ReductionOutcome per seed.
            let mut scratch = ScratchReducer::new();
            for seed in record.samples..samples {
                let feasible = scratch.run_verdict_only(&canonical, Strategy::Randomized { seed });
                if feasible != reference_feasible {
                    record.disagreeing.push(seed);
                }
            }
            record.samples = samples;
        }
        let disagreeing_seeds: Vec<u64> = record
            .disagreeing
            .iter()
            .copied()
            .filter(|&s| s < samples)
            .collect();
        ConfluenceReport {
            reference_feasible,
            samples,
            agreeing: samples - disagreeing_seeds.len() as u64,
            disagreeing_seeds,
        }
    }

    /// Drops the tier-1 entry for the exact labelled structure keyed by
    /// `pre`, if present, returning whether anything was dropped.
    ///
    /// This is the *delta-aware* invalidation hook: when a live
    /// marketplace mutates one structure in place (a
    /// [`DeltaAnalyzer`](crate::DeltaAnalyzer) applying
    /// [`GraphDelta`](crate::GraphDelta)s), only that structure's
    /// pre-mutation labelled key goes stale — its graph will never present
    /// that exact labelled live structure again. Dropping the single key
    /// leaves every other labelled key and the whole canonical tier
    /// untouched: tier-2 entries are immutable per *structure* and stay
    /// correct for any graph that still hashes to them, so they are never
    /// invalidated, merely unreferenced once no labelled key pins them.
    pub fn invalidate_labelled(&self, pre: PreFingerprint) -> bool {
        let dropped = self.pre_shard(pre).lock().remove(&pre.as_u128()).is_some();
        if dropped {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            obs::with(|r| r.counter("cache.invalidations", 1));
        }
        dropped
    }

    /// [`invalidate_labelled`](Self::invalidate_labelled) keyed by a graph:
    /// computes the labelled pre-fingerprint of `graph`'s *current* live
    /// structure and drops that key. Call with the graph **before**
    /// mutating it (or with its stored pre-fingerprint) — afterwards it
    /// hashes to a different key.
    pub fn invalidate_graph(&self, graph: &SequencingGraph) -> bool {
        self.invalidate_labelled(prefingerprint(graph))
    }

    /// Current counter snapshot, torn-free across shards: every shard of
    /// both tiers is locked (in fixed index order, so lookups holding at
    /// most one shard lock cannot deadlock against this) *before* any
    /// counter or table length is read. Previously each shard length was
    /// read under its own lock while inserts raced the others, so the
    /// entry totals could be torn across shards; now both tiers' tables
    /// are frozen together and the counters are sampled at that same
    /// point.
    pub fn stats(&self) -> CacheStats {
        let pre_guards: Vec<_> = self.pre_shards.iter().map(|s| s.lock()).collect();
        let guards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            pre_hits: self.pre_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: guards.iter().map(|s| s.len()).sum(),
            labelled_entries: pre_guards.iter().map(|s| s.len()).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, fixtures};

    #[test]
    fn hit_and_miss_return_byte_identical_outcomes() {
        let cache = AnalysisCache::new();
        for spec in [
            fixtures::example1().0,
            fixtures::example2().0,
            fixtures::poor_broker().0,
            fixtures::figure7().0,
        ] {
            let cold = cache.analyze(&spec).unwrap();
            let warm = cache.analyze(&spec).unwrap();
            assert_eq!(cold, warm, "{}", spec.name());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.inserts, 4);
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn cached_verdict_matches_plain_analyze() {
        let cache = AnalysisCache::new();
        for spec in [
            fixtures::example1().0,
            fixtures::example2().0,
            fixtures::poor_broker().0,
            fixtures::figure7().0,
            fixtures::example2_shared_escrow().0,
        ] {
            let plain = analyze(&spec).unwrap();
            let cached = cache.analyze(&spec).unwrap();
            assert_eq!(plain.feasible, cached.feasible, "{}", spec.name());
            // Confluence (§4.2): any two maximal reductions remove the
            // same edge set, so the impasses must coincide exactly.
            assert_eq!(
                plain.remaining_edges,
                cached.remaining_edges,
                "{}",
                spec.name()
            );
            assert_eq!(plain.trace.len(), cached.trace.len(), "{}", spec.name());
        }
    }

    #[test]
    fn isomorphic_specs_share_one_entry() {
        let (spec, ids) = fixtures::example2();
        let mut v1 = spec.clone();
        v1.add_trust(ids.source1, ids.broker1).unwrap();
        let mut v2 = spec.clone();
        v2.add_trust(ids.source2, ids.broker2).unwrap();
        let cache = AnalysisCache::new();
        let o1 = cache.analyze(&v1).unwrap();
        let o2 = cache.analyze(&v2).unwrap();
        assert_eq!(o1.feasible, o2.feasible);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1, "isomorphic variants must intern once");
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn permuted_graphs_hit_the_cache() {
        let graph = SequencingGraph::from_spec(&fixtures::figure7().0).unwrap();
        let cache = AnalysisCache::new();
        let reference = cache.reduce(&graph);
        for seed in 0..6 {
            let permuted = graph.permuted(seed);
            let outcome = cache.reduce(&permuted);
            assert_eq!(outcome.feasible, reference.feasible);
            assert_eq!(outcome.trace.len(), reference.trace.len());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 6);
    }

    #[test]
    fn identical_lookups_hit_the_labelled_tier() {
        let cache = AnalysisCache::new();
        let graph = SequencingGraph::from_spec(&fixtures::figure7().0).unwrap();
        let cold = cache.reduce(&graph);
        let warm = cache.reduce(&graph);
        assert_eq!(cold, warm);
        let stats = cache.stats();
        assert_eq!(stats.pre_hits, 1, "warm lookup must skip canonicalization");
        assert_eq!(stats.labelled_entries, 1);
        // A relabelled isomorph misses tier 1 but still hits tier 2, and
        // its labelled key is interned for subsequent queries.
        let permuted = graph.permuted(42);
        let translated = cache.reduce(&permuted);
        assert_eq!(translated.feasible, cold.feasible);
        cache.reduce(&permuted);
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.pre_hits, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1, "one structure");
        assert_eq!(stats.labelled_entries, 2, "two labelled keys");
    }

    #[test]
    fn verdict_reports_red_survivors() {
        let cache = AnalysisCache::new();
        let (spec, _) = fixtures::example2();
        let graph = SequencingGraph::from_spec(&spec).unwrap();
        let verdict = cache.verdict(&graph);
        assert!(!verdict.feasible);
        assert!(verdict.remaining_edges > 0);
        let plain = analyze(&spec).unwrap();
        assert_eq!(verdict.remaining_edges, plain.remaining_edges.len());
        assert_eq!(verdict.remaining_red as usize, plain.remaining_red(&graph));
    }

    #[test]
    fn confluence_record_is_interned_per_structure() {
        let cache = AnalysisCache::new();
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        let first = cache.confluence(&graph, 8);
        assert!(first.reference_feasible);
        assert_eq!(first.agreeing, 8);
        assert!(first.disagreeing_seeds.is_empty());
        // Isomorphic queries reuse the record: no further reductions, same
        // report (modulo nothing — it is label-free).
        for seed in 0..4 {
            let again = cache.confluence(&graph.permuted(seed), 8);
            assert_eq!(again, first);
        }
        // Asking for more samples extends the record in place; asking for
        // fewer reports the prefix.
        let extended = cache.confluence(&graph, 12);
        assert_eq!(extended.samples, 12);
        assert_eq!(extended.agreeing, 12);
        let prefix = cache.confluence(&graph, 3);
        assert_eq!(prefix.samples, 3);
        assert_eq!(prefix.agreeing, 3);
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cached_confluence_matches_plain_check() {
        let cache = AnalysisCache::new();
        for spec in [
            fixtures::example1().0,
            fixtures::example2().0,
            fixtures::figure7().0,
        ] {
            let plain = crate::confluence_check(&spec, 10).unwrap();
            let cached = crate::confluence_check_cached(&spec, 10, Some(&cache)).unwrap();
            assert_eq!(plain, cached, "{}", spec.name());
        }
    }

    #[test]
    fn concurrent_lookups_intern_once() {
        let cache = AnalysisCache::new();
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert!(cache.reduce(&graph).feasible);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.hits + stats.misses, 32);
        assert!(stats.inserts == 1, "racing misses must intern exactly once");
    }

    #[test]
    fn stats_display_is_human_readable() {
        let cache = AnalysisCache::new();
        cache.analyze(&fixtures::example1().0).unwrap();
        cache.analyze(&fixtures::example1().0).unwrap();
        let text = cache.stats().to_string();
        assert!(text.contains("1 hits / 1 misses"), "{text}");
        assert!(text.contains("50.0% hit rate"), "{text}");
        assert!(text.contains("1 structures interned"), "{text}");
        assert!(text.contains("0 evicted"), "{text}");
    }

    /// A resale chain with `depth` brokers — each depth is a structurally
    /// distinct graph, so a run over many depths fills tier 2 with that
    /// many distinct entries.
    fn chain_spec(depth: usize) -> trustseq_model::ExchangeSpec {
        use trustseq_model::{Money, Role};
        let mut spec = trustseq_model::ExchangeSpec::new(format!("chain-{depth}"));
        let consumer = spec.add_principal("consumer", Role::Consumer).unwrap();
        let brokers: Vec<_> = (0..depth)
            .map(|k| spec.add_principal(format!("b{k}"), Role::Broker).unwrap())
            .collect();
        let producer = spec.add_principal("src", Role::Producer).unwrap();
        let doc = spec.add_item("doc", "The Document").unwrap();
        let mut sellers = brokers.clone();
        sellers.push(producer);
        let mut buyers = vec![consumer];
        buyers.extend(brokers.iter().copied());
        let mut price = Money::from_dollars(100);
        let mut deals = Vec::new();
        for k in 0..=depth {
            let t = spec.add_trusted(format!("t{k}")).unwrap();
            deals.push(spec.add_deal(sellers[k], buyers[k], t, doc, price).unwrap());
            price -= Money::from_dollars(2);
        }
        for (k, &broker) in brokers.iter().enumerate() {
            spec.add_resale_constraint(broker, deals[k], deals[k + 1])
                .unwrap();
        }
        spec
    }

    #[test]
    fn bounded_cache_evicts_and_stays_correct() {
        // Cap of 4 spreads to 1 entry per stripe; 20 distinct structures
        // cannot fit in 16 stripes, so eviction is guaranteed by
        // pigeonhole — and every verdict must match the uncached analyzer
        // before and after entries are thrown out.
        let cache = AnalysisCache::with_capacity(4);
        let specs: Vec<_> = (1..=20).map(chain_spec).collect();
        for spec in &specs {
            assert_eq!(
                cache.analyze(spec).unwrap().feasible,
                analyze(spec).unwrap().feasible,
                "{}",
                spec.name()
            );
        }
        let stats = cache.stats();
        assert!(
            stats.evictions > 0,
            "20 structures over 16 stripes: {stats:?}"
        );
        assert!(
            stats.entries <= SHARDS,
            "tier 2 must respect the per-stripe cap: {stats:?}"
        );
        assert!(stats.labelled_entries <= SHARDS, "{stats:?}");
        // Evicted structures are recomputed, not wrong.
        for spec in &specs {
            assert_eq!(
                cache.analyze(spec).unwrap().feasible,
                analyze(spec).unwrap().feasible
            );
        }
        assert!(cache.stats().to_string().contains("evicted"));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = AnalysisCache::new();
        for depth in 1..=20 {
            cache.analyze(&chain_spec(depth)).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 20);
        // with_capacity(0) is the same unbounded behaviour.
        let unbounded = AnalysisCache::with_capacity(0);
        for depth in 1..=20 {
            unbounded.analyze(&chain_spec(depth)).unwrap();
        }
        assert_eq!(unbounded.stats().evictions, 0);
    }

    #[test]
    fn tier1_survives_tier2_eviction_and_stays_correct() {
        // A tier-1 key Arc-pins its CacheEntry, so evicting the entry's
        // tier-2 stripe must not corrupt labelled-tier hits: the pinned
        // entry is immutable and stays correct for the structure it was
        // reduced from. Hammer tier 2 with distinct structures until the
        // original's stripe has demonstrably been cleared, then re-query
        // the original through tier 1 and compare byte-for-byte.
        let cache = AnalysisCache::with_capacity(4);
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        let reference = cache.reduce(&graph);
        let mut tier1_hits_under_pressure = 0u64;
        for depth in 2..=40 {
            cache.analyze(&chain_spec(depth)).unwrap();
            let before = cache.stats();
            let warm = cache.reduce(&graph);
            assert_eq!(warm, reference, "depth {depth}");
            let after = cache.stats();
            if before.evictions > 0 && after.pre_hits > before.pre_hits {
                tier1_hits_under_pressure += 1;
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "pressure must evict: {stats:?}");
        assert!(
            tier1_hits_under_pressure > 0,
            "some re-queries must be served by the labelled tier after \
             evictions began: {stats:?}"
        );
        // And the uncached oracle still agrees.
        assert_eq!(
            reference.feasible,
            analyze(&fixtures::example1().0).unwrap().feasible
        );
    }

    #[test]
    fn invalidation_drops_only_the_targeted_labelled_key() {
        let cache = AnalysisCache::new();
        let g1 = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        let g2 = SequencingGraph::from_spec(&fixtures::example2().0).unwrap();
        cache.reduce(&g1);
        cache.reduce(&g2);
        assert_eq!(cache.stats().labelled_entries, 2);

        assert!(cache.invalidate_graph(&g1));
        assert!(!cache.invalidate_graph(&g1), "second drop is a no-op");
        let stats = cache.stats();
        assert_eq!(stats.labelled_entries, 1, "{stats:?}");
        assert_eq!(stats.entries, 2, "canonical tier is never invalidated");
        assert_eq!(stats.invalidations, 1);

        // g2's labelled key is untouched: its lookup is still a tier-1
        // hit, while g1 re-resolves through tier 2 without re-reducing.
        let pre_hits = cache.stats().pre_hits;
        cache.reduce(&g2);
        assert_eq!(cache.stats().pre_hits, pre_hits + 1);
        let misses = cache.stats().misses;
        cache.reduce(&g1);
        assert_eq!(cache.stats().misses, misses, "structure is still interned");
        assert_eq!(cache.stats().labelled_entries, 2, "key re-interned");
    }

    #[test]
    fn ttl_expires_both_tiers_lazily() {
        let ttl = Duration::from_millis(60_000);
        let cache = AnalysisCache::with_capacity_and_ttl(0, Some(ttl));
        let graph = SequencingGraph::from_spec(&fixtures::figure7().0).unwrap();
        let reference = cache.reduce(&graph);
        // Within the TTL the key is live: a re-query is a tier-1 hit.
        cache.advance_clock(Duration::from_millis(59_000));
        assert_eq!(cache.reduce(&graph), reference);
        let stats = cache.stats();
        assert_eq!(stats.pre_hits, 1);
        assert_eq!(stats.expired, 0);
        // Hits do not refresh intern age (TTL counts from intern, not last
        // access): one more millisecond and both tiers are over-age. The
        // next lookup lazily drops them, misses, and re-reduces to the
        // same outcome.
        cache.advance_clock(Duration::from_millis(1_000));
        assert_eq!(cache.reduce(&graph), reference);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.expired, 2, "tier-1 and tier-2 keys both expire");
        assert_eq!(stats.entries, 1, "re-interned fresh");
        assert_eq!(stats.labelled_entries, 1);
        // The re-interned key is young again.
        cache.advance_clock(Duration::from_millis(30_000));
        assert_eq!(cache.reduce(&graph), reference);
        assert_eq!(cache.stats().expired, 2);
    }

    #[test]
    fn ttl_zero_duration_and_no_ttl_never_expire() {
        // None = no TTL even across huge clock jumps.
        let cache = AnalysisCache::with_capacity_and_ttl(0, None);
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        cache.reduce(&graph);
        cache.advance_clock(Duration::from_secs(10_000_000));
        cache.reduce(&graph);
        let stats = cache.stats();
        assert_eq!(stats.expired, 0);
        assert_eq!(stats.pre_hits, 1);
    }

    #[test]
    fn tier1_stays_consistent_across_time_based_eviction() {
        // The PR-8 labelled-key consistency regression, extended to TTL:
        // interleave queries whose keys expire at different cache-clock
        // times with capacity pressure, and require every answer to stay
        // byte-identical to the first. Expiry and eviction may cost
        // re-reduction, never correctness.
        let ttl = Duration::from_millis(10_000);
        let cache = AnalysisCache::with_capacity_and_ttl(4, Some(ttl));
        let graph = SequencingGraph::from_spec(&fixtures::example1().0).unwrap();
        let reference = cache.reduce(&graph);
        for round in 0..30u64 {
            // Advance past the TTL every few rounds so the pinned graph's
            // keys expire repeatedly while chain structures churn the
            // bounded stripes.
            cache.advance_clock(Duration::from_millis(4_000));
            cache
                .analyze(&chain_spec(2 + (round as usize % 12)))
                .unwrap();
            let warm = cache.reduce(&graph);
            assert_eq!(warm, reference, "round {round}");
        }
        let stats = cache.stats();
        assert!(stats.expired > 0, "TTL must have fired: {stats:?}");
        assert!(stats.evictions > 0, "capacity must have fired: {stats:?}");
        assert!(stats.labelled_entries <= SHARDS, "{stats:?}");
        assert_eq!(
            reference.feasible,
            analyze(&fixtures::example1().0).unwrap().feasible
        );
    }

    #[test]
    fn segmented_eviction_drops_the_stale_half() {
        // Drive the private eviction hook directly: a full stripe sheds
        // everything at or below its median access stamp, so the
        // most-recently-used half survives.
        let cache = AnalysisCache::with_capacity(8 * SHARDS); // 8 per stripe
        let mut map: HashMap<u128, u64> = (0..8u128).map(|k| (k, k as u64)).collect();
        cache.evict_if_full(&mut map, 99, |v| *v);
        assert_eq!(map.len(), 3, "stamps 0..=4 (median 4) evicted: {map:?}");
        assert!(map.values().all(|&v| v > 4), "{map:?}");
        assert_eq!(cache.stats().evictions, 5);

        // Inserting an existing key never evicts; a non-full stripe never
        // evicts.
        cache.evict_if_full(&mut map, 7, |v| *v);
        assert_eq!(map.len(), 3);
        cache.evict_if_full(&mut map, 100, |v| *v);
        assert_eq!(map.len(), 3);

        // Uniform stamps degenerate to clearing the stripe (still at
        // least one slot freed).
        let mut uniform: HashMap<u128, u64> = (0..8u128).map(|k| (k, 7)).collect();
        cache.evict_if_full(&mut uniform, 99, |v| *v);
        assert!(uniform.is_empty(), "{uniform:?}");
    }

    #[test]
    fn lru_eviction_prefers_dropping_cold_entries() {
        // End-to-end recency check on tier 2: keep one structure hot with
        // a touch between every insertion burst; after heavy churn the hot
        // structure must still be resolvable without a fresh reduction
        // much more often than not. (Stripe assignment is hash-dependent,
        // so assert on the aggregate miss count rather than per-stripe
        // placement.)
        let cache = AnalysisCache::with_capacity(2 * SHARDS); // 2 per stripe
        let hot = SequencingGraph::from_spec(&fixtures::figure7().0).unwrap();
        cache.reduce(&hot);
        let mut hot_misses = 0u64;
        for depth in 1..=40 {
            cache.analyze(&chain_spec(depth)).unwrap();
            // Tick the virtual clock between the cold insert and the hot
            // touch so the hot stamps are strictly fresher than every cold
            // entry's, regardless of how fast the loop runs.
            cache.advance_clock(Duration::from_millis(5));
            let before = cache.stats().misses;
            cache.reduce(&hot);
            if cache.stats().misses > before {
                hot_misses += 1;
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "churn must evict: {stats:?}");
        assert_eq!(
            hot_misses, 0,
            "a continuously-touched entry outlives cold churn: {stats:?}"
        );
    }

    #[test]
    fn tier1_eviction_bounds_labelled_keys() {
        // Permutations of one structure are distinct tier-1 keys sharing a
        // single tier-2 entry: enough of them must overflow and evict
        // tier 1 while tier 2 stays at one interned structure.
        let cache = AnalysisCache::with_capacity(4);
        let graph = SequencingGraph::from_spec(&fixtures::figure7().0).unwrap();
        let reference = cache.reduce(&graph);
        for seed in 0..40 {
            let outcome = cache.reduce(&graph.permuted(seed));
            assert_eq!(outcome.feasible, reference.feasible);
            assert_eq!(outcome.trace.len(), reference.trace.len());
        }
        let stats = cache.stats();
        assert!(stats.labelled_entries <= SHARDS, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.entries, 1, "one structure throughout: {stats:?}");
    }
}
