//! The chaos-sweep harness: runs the resilient distributed engine under
//! matrices of seeded fault plans and checks every decided verdict against
//! the centralised [`Reducer`](trustseq_core::Reducer).
//!
//! The harness is the robustness analogue of [`harness::sweep`](crate::harness::sweep):
//! where the defection sweep enumerates *agent* misbehaviour, the chaos
//! sweep enumerates *network and node* misbehaviour — drop probabilities,
//! duplication, reordering delays and crash/restart schedules — and
//! asserts three properties on every cell:
//!
//! 1. **agreement** — whenever the resilient run decides, its verdict and
//!    removal *set* equal the centralised reduction's (the rewrite system
//!    is confluent, so the fixpoint removal set is unique);
//! 2. **soundness** — even undecided runs only ever remove edges the
//!    centralised reduction removes;
//! 3. **baseline identity** — under the fault-free plan the resilient
//!    engine decides and needs no recovery traffic: no retransmissions,
//!    relays, sync requests, dedup drops or decode failures.

use crate::SimError;
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use trustseq_core::{analyze, obs, EdgeId};
use trustseq_dist::{Crash, DistributedReduction, FaultPlan, ResilientConfig};
use trustseq_model::ExchangeSpec;

/// A grid of fault intensities to sweep a specification under.
#[derive(Debug, Clone)]
pub struct ChaosMatrix {
    /// Drop probabilities (per-mille) to sweep; `0` exercises the
    /// baseline-identity check.
    pub drop_per_mille: Vec<u16>,
    /// Seeded plans per drop probability.
    pub seeds_per_cell: u64,
    /// Duplication probability (per-mille) applied to every lossy cell.
    pub dup_per_mille: u16,
    /// Frame-corruption probability (per-mille) applied to every lossy
    /// cell — corrupted frames must die as typed decode failures, never
    /// panics or wrong verdicts.
    pub corrupt_per_mille: u16,
    /// Maximum extra delivery delay (rounds) in lossy cells — exercises
    /// reordering.
    pub max_extra_delay: u64,
    /// Whether every third lossy seed also crashes (and restarts) one
    /// participant, cycling through them.
    pub with_crashes: bool,
    /// Protocol tuning for the resilient runs.
    pub config: ResilientConfig,
}

impl Default for ChaosMatrix {
    /// The acceptance matrix: drop p ∈ {0, 0.1, 0.3}, 50 seeds each,
    /// duplication, reordering and crash/restart schedules on.
    fn default() -> Self {
        ChaosMatrix {
            drop_per_mille: vec![0, 100, 300],
            seeds_per_cell: 50,
            dup_per_mille: 50,
            corrupt_per_mille: 50,
            max_extra_delay: 2,
            with_crashes: true,
            config: ResilientConfig::default(),
        }
    }
}

impl ChaosMatrix {
    /// A small matrix for quick checks: drop p ∈ {0, 0.2}, 10 seeds each.
    pub fn quick() -> Self {
        ChaosMatrix {
            drop_per_mille: vec![0, 200],
            seeds_per_cell: 10,
            ..ChaosMatrix::default()
        }
    }
}

/// What a chaos sweep observed. The sweep never panics on a property
/// violation — it counts them, so a harness can report every cell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Resilient runs performed.
    pub runs: usize,
    /// Runs that decided feasibility.
    pub decided: usize,
    /// Runs that degraded to an undecided verdict.
    pub undecided: usize,
    /// Decided verdicts disagreeing with the centralised reducer.
    pub wrong_verdicts: usize,
    /// Decided runs whose removal set differs from the centralised one,
    /// plus any run (decided or not) removing an edge the centralised
    /// reduction keeps.
    pub removal_set_mismatches: usize,
    /// Fault-free runs that did not decide or needed recovery traffic.
    pub baseline_divergences: usize,
    /// Total retransmissions across all runs.
    pub retransmissions: usize,
    /// Total frames rejected by the codec across all runs (the corruption
    /// fault class surfacing as typed decode failures).
    pub decode_failures: usize,
    /// Total duplicate announcements dropped by sequence-number dedup.
    pub dedup_drops: usize,
    /// Total first-transmission announcements across all runs.
    pub messages: usize,
    /// The longest run, in rounds.
    pub max_rounds_seen: usize,
}

impl ChaosReport {
    /// `true` when every property held in every cell.
    pub fn clean(&self) -> bool {
        self.wrong_verdicts == 0
            && self.removal_set_mismatches == 0
            && self.baseline_divergences == 0
    }

    fn absorb(&mut self, other: &ChaosReport) {
        self.runs += other.runs;
        self.decided += other.decided;
        self.undecided += other.undecided;
        self.wrong_verdicts += other.wrong_verdicts;
        self.removal_set_mismatches += other.removal_set_mismatches;
        self.baseline_divergences += other.baseline_divergences;
        self.retransmissions += other.retransmissions;
        self.decode_failures += other.decode_failures;
        self.dedup_drops += other.dedup_drops;
        self.messages += other.messages;
        self.max_rounds_seen = self.max_rounds_seen.max(other.max_rounds_seen);
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chaos runs: {} decided, {} undecided, {} retransmissions, \
             {} bad frames, {} dup drops \
             ({} verdict / {} removal-set mismatches, {} baseline divergences, \
             longest run {} rounds)",
            self.runs,
            self.decided,
            self.undecided,
            self.retransmissions,
            self.decode_failures,
            self.dedup_drops,
            self.wrong_verdicts,
            self.removal_set_mismatches,
            self.baseline_divergences,
            self.max_rounds_seen
        )
    }
}

/// Sweeps `spec` under every cell of `matrix` and reports.
///
/// # Errors
///
/// Propagates graph-construction failures; individual fault plans never
/// error (the harness only builds plans naming real participants).
pub fn chaos_sweep(spec: &ExchangeSpec, matrix: &ChaosMatrix) -> Result<ChaosReport, SimError> {
    chaos_sweep_cached(spec, matrix, None)
}

/// [`chaos_sweep`] with an optional
/// [`AnalysisCache`](trustseq_core::AnalysisCache) for the centralised
/// reference reduction. Sound because the comparison uses the removal
/// *set*, not the step order: by confluence the fixpoint removal set is
/// unique, so a cache-translated outcome gives the same reference the
/// deterministic reducer would.
///
/// Cells of the matrix run in parallel on the persistent
/// [`trustseq_core::pool`]; every cell is seeded independently and the
/// per-cell reports are merged in cell order, so the merged report is
/// deterministic and identical to a serial sweep's.
///
/// # Errors
///
/// As [`chaos_sweep`].
pub fn chaos_sweep_cached(
    spec: &ExchangeSpec,
    matrix: &ChaosMatrix,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> Result<ChaosReport, SimError> {
    let central = match cache {
        Some(cache) => cache.analyze(spec).map_err(SimError::from)?,
        None => analyze(spec)?,
    };
    let central_set: BTreeSet<EdgeId> = central.trace.steps().iter().map(|s| s.edge).collect();
    let participants: Vec<_> = DistributedReduction::new(spec)?.participants().collect();

    let run_cell = |drop: u16, seed: u64| -> Result<ChaosReport, SimError> {
        let mut plan = FaultPlan::seeded(seed);
        if drop > 0 {
            plan = plan
                .with_drop_per_mille(drop)
                .with_dup_per_mille(matrix.dup_per_mille)
                .with_corrupt_per_mille(matrix.corrupt_per_mille)
                .with_max_extra_delay(matrix.max_extra_delay);
            if matrix.with_crashes && seed.is_multiple_of(3) && !participants.is_empty() {
                let victim = participants[(seed as usize / 3) % participants.len()];
                plan = plan.with_crash(
                    victim,
                    Crash {
                        at_round: 2,
                        restart_at: Some(3 + seed as usize % 4),
                    },
                );
            }
        }
        let out = DistributedReduction::new(spec)?.run_resilient(&plan, &matrix.config)?;

        let mut cell = ChaosReport {
            runs: 1,
            retransmissions: out.retransmissions,
            decode_failures: out.decode_failures,
            dedup_drops: out.dedup_drops,
            messages: out.messages,
            max_rounds_seen: out.rounds,
            ..ChaosReport::default()
        };
        let removal_set: BTreeSet<EdgeId> = out.removals.iter().map(|r| r.edge).collect();
        // Soundness: no run may remove an edge the centralised reduction
        // keeps.
        if !removal_set.is_subset(&central_set) {
            cell.removal_set_mismatches += 1;
        }
        match out.verdict.decided() {
            Some(feasible) => {
                cell.decided += 1;
                if feasible != central.feasible {
                    cell.wrong_verdicts += 1;
                }
                if removal_set != central_set {
                    cell.removal_set_mismatches += 1;
                }
            }
            None => cell.undecided += 1,
        }
        let recovered = out.retransmissions
            + out.relays
            + out.sync_requests
            + out.dedup_drops
            + out.decode_failures;
        if plan.is_faultless() && (out.verdict.decided().is_none() || recovered > 0) {
            cell.baseline_divergences += 1;
        }
        Ok(cell)
    };

    let cells: Vec<(u16, u64)> = matrix
        .drop_per_mille
        .iter()
        .flat_map(|&drop| (0..matrix.seeds_per_cell).map(move |seed| (drop, seed)))
        .collect();
    let results: Vec<Mutex<Option<Result<ChaosReport, SimError>>>> =
        cells.iter().map(|_| Mutex::new(None)).collect();
    let workers = trustseq_core::pool::size().clamp(1, cells.len().max(1));
    // Per-cell results land in indexed slots and are merged in cell order
    // below, so the report does not depend on how workers claimed cells.
    let next = AtomicUsize::new(0);
    trustseq_core::pool::broadcast(workers, &|_index| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(drop, seed)) = cells.get(i) else {
            break;
        };
        *results[i].lock() = Some(run_cell(drop, seed));
    });

    let mut report = ChaosReport::default();
    for slot in results {
        let cell = slot.into_inner().expect("every cell was claimed")?;
        report.absorb(&cell);
    }
    // Aggregate after the merge so the emission order is deterministic
    // regardless of how the pool interleaved the cells.
    obs::with(|r| {
        r.counter("chaos.cells", report.runs as u64);
        r.counter("chaos.decided", report.decided as u64);
        r.counter("chaos.undecided", report.undecided as u64);
        r.counter("chaos.retransmissions", report.retransmissions as u64);
        r.counter("chaos.decode_failures", report.decode_failures as u64);
        r.counter("chaos.dedup_drops", report.dedup_drops as u64);
        r.observe("chaos.rounds_longest", report.max_rounds_seen as u64);
    });
    Ok(report)
}

/// Sweeps every named spec and merges the reports; the `&str` in the
/// return names the first spec with a dirty report, if any.
///
/// # Errors
///
/// Propagates the first per-spec failure.
pub fn chaos_sweep_all<'a>(
    specs: impl IntoIterator<Item = (&'a str, &'a ExchangeSpec)>,
    matrix: &ChaosMatrix,
) -> Result<(ChaosReport, Option<&'a str>), SimError> {
    chaos_sweep_all_cached(specs, matrix, None)
}

/// [`chaos_sweep_all`] with an optional shared
/// [`AnalysisCache`](trustseq_core::AnalysisCache) — structurally repeated
/// specs in the batch share one centralised reference reduction.
///
/// # Errors
///
/// Propagates the first per-spec failure.
pub fn chaos_sweep_all_cached<'a>(
    specs: impl IntoIterator<Item = (&'a str, &'a ExchangeSpec)>,
    matrix: &ChaosMatrix,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> Result<(ChaosReport, Option<&'a str>), SimError> {
    let mut merged = ChaosReport::default();
    let mut first_dirty = None;
    for (name, spec) in specs {
        let report = chaos_sweep_cached(spec, matrix, cache)?;
        if !report.clean() && first_dirty.is_none() {
            first_dirty = Some(name);
        }
        merged.absorb(&report);
    }
    Ok((merged, first_dirty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustseq_core::fixtures;

    #[test]
    fn quick_matrix_is_clean_on_the_paper_examples() {
        for (name, spec) in [
            ("example1", fixtures::example1().0),
            ("example2", fixtures::example2().0),
        ] {
            let report = chaos_sweep(&spec, &ChaosMatrix::quick()).unwrap();
            assert!(report.clean(), "{name}: {report}");
            assert_eq!(report.runs, 20, "{name}");
            assert!(report.decided > 0, "{name}");
        }
    }

    #[test]
    fn lossy_cells_actually_retransmit() {
        let (spec, _) = fixtures::example1();
        let report = chaos_sweep(&spec, &ChaosMatrix::quick()).unwrap();
        assert!(report.retransmissions > 0, "{report}");
    }

    #[test]
    fn corrupting_cells_surface_decode_failures_without_violations() {
        let (spec, _) = fixtures::figure7();
        let matrix = ChaosMatrix {
            corrupt_per_mille: 300,
            ..ChaosMatrix::quick()
        };
        let report = chaos_sweep(&spec, &matrix).unwrap();
        assert!(report.clean(), "{report}");
        assert!(report.decode_failures > 0, "{report}");
    }

    #[test]
    fn merged_sweep_reports_dirty_spec_names() {
        let (e1, _) = fixtures::example1();
        let (e2, _) = fixtures::poor_broker();
        let (report, dirty) = chaos_sweep_all(
            [("example1", &e1), ("poor_broker", &e2)],
            &ChaosMatrix::quick(),
        )
        .unwrap();
        assert_eq!(dirty, None, "{report}");
        assert_eq!(report.runs, 40);
    }

    #[test]
    fn cached_sweep_is_identical_to_uncached() {
        let cache = trustseq_core::AnalysisCache::new();
        for spec in [fixtures::example1().0, fixtures::example2().0] {
            let plain = chaos_sweep(&spec, &ChaosMatrix::quick()).unwrap();
            let cached = chaos_sweep_cached(&spec, &ChaosMatrix::quick(), Some(&cache)).unwrap();
            assert_eq!(plain, cached);
        }
        // Sweep the same specs again: the centralised references must now
        // be served from the table.
        let before = cache.stats();
        let (e1, _) = fixtures::example1();
        let (e2, _) = fixtures::example2();
        let (merged, dirty) = chaos_sweep_all_cached(
            [("example1", &e1), ("example2", &e2)],
            &ChaosMatrix::quick(),
            Some(&cache),
        )
        .unwrap();
        assert_eq!(dirty, None, "{merged}");
        assert_eq!(cache.stats().hits, before.hits + 2);
        assert_eq!(cache.stats().entries, before.entries);
    }

    #[test]
    fn report_display_summarises() {
        let (spec, _) = fixtures::example1();
        let report = chaos_sweep(&spec, &ChaosMatrix::quick()).unwrap();
        let s = report.to_string();
        assert!(s.contains("chaos runs"), "{s}");
        assert!(s.contains("retransmissions"), "{s}");
    }
}
