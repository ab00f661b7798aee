//! Bounded-memory streaming sweeps: generate → analyze → fold in fixed
//! chunks.
//!
//! [`feasibility_rate`](crate::feasibility_rate) materializes the whole
//! corpus of random exchanges before fanning the reductions out, which is
//! fine for thousands of samples and fatal for billions: resident memory
//! grows linearly with the corpus. The streaming driver caps residency at
//! one *chunk*: it generates `chunk_len` specs into a reused buffer,
//! analyzes the chunk through the regular batch machinery (so worker
//! fan-out and the analysis cache apply unchanged),
//! folds the verdicts into running statistics, and reuses the buffer for
//! the next chunk. A corpus 10×, 1000×, any× larger than the chunk budget
//! completes in the same peak memory — the property the `hotpath` bench
//! asserts with a byte-tracking allocator.
//!
//! The measured statistics are a pure per-spec fold, so they are
//! *identical* to the materialized driver's on the same configuration —
//! chunking changes when a spec is analyzed, never its verdict.

use crate::random::{random_exchange, RandomConfig};
use trustseq_model::ExchangeSpec;

/// Folded statistics of one streaming sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Total specs generated and analyzed (seeds `0..samples`).
    pub samples: u64,
    /// Specs whose exchange was feasible.
    pub feasible: u64,
    /// Specs whose graph construction failed (counted, not fatal — same
    /// per-spec error policy as the batch analyzer).
    pub errors: u64,
    /// Chunks the corpus was processed in.
    pub chunks: u64,
    /// The resident chunk budget the sweep ran under (specs per chunk).
    pub chunk_len: usize,
}

impl StreamReport {
    /// Feasible fraction of all samples (0.0 on an empty sweep).
    pub fn rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.feasible as f64 / self.samples as f64
        }
    }
}

/// Sweeps `samples` random exchanges (seeds `0..samples`) under `config`
/// without materializing the corpus: at most `chunk_len` specs are
/// resident at any point. Analysis runs through
/// [`trustseq_core::analyze_batch_cached`], so the persistent worker
/// pool and the optional shared cache behave exactly as in the
/// materialized driver.
///
/// The report is a pure function of `config` and `samples` — independent
/// of `chunk_len`, worker count and cache (equality with the
/// materialized [`feasibility_rate`](crate::feasibility_rate) is property
/// tested).
///
/// # Panics
///
/// Panics if `chunk_len` is zero or on a degenerate `config` (same rules
/// as [`random_exchange`]).
pub fn sweep_streaming(
    config: &RandomConfig,
    samples: u64,
    chunk_len: usize,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> StreamReport {
    assert!(chunk_len >= 1, "chunk_len must be at least 1");
    let mut report = StreamReport {
        samples,
        feasible: 0,
        errors: 0,
        chunks: 0,
        chunk_len,
    };
    // The chunk buffer is the whole resident corpus; it is cleared and
    // refilled in place, so its capacity — and with it peak residency —
    // never exceeds one chunk of specs.
    let mut chunk: Vec<ExchangeSpec> = Vec::with_capacity(chunk_len.min(samples as usize));
    let mut seed = 0u64;
    while seed < samples {
        let end = samples.min(seed + chunk_len as u64);
        chunk.clear();
        chunk.extend((seed..end).map(|seed| {
            random_exchange(&RandomConfig {
                seed,
                ..config.clone()
            })
            .spec
        }));
        for result in trustseq_core::analyze_batch_cached(&chunk, cache) {
            match result {
                Ok(outcome) => report.feasible += u64::from(outcome.feasible),
                Err(_) => report.errors += 1,
            }
        }
        report.chunks += 1;
        seed = end;
    }
    report
}

/// [`feasibility_rate`](crate::feasibility_rate) in bounded memory: the
/// feasible fraction of `samples` random exchanges, never holding more
/// than `chunk_len` specs resident. The rate is identical to the
/// materialized driver's.
pub fn feasibility_rate_streaming(
    config: &RandomConfig,
    samples: u64,
    chunk_len: usize,
    cache: Option<&trustseq_core::AnalysisCache>,
) -> f64 {
    sweep_streaming(config, samples, chunk_len, cache).rate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility_rate_cached;

    fn half_trust() -> RandomConfig {
        RandomConfig {
            width: 2,
            max_depth: 2,
            trust_density: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn streaming_rate_equals_materialized_rate() {
        for density in [0.0, 0.5, 1.0] {
            let config = RandomConfig {
                trust_density: density,
                ..half_trust()
            };
            let materialized = feasibility_rate_cached(&config, 40, None);
            for chunk_len in [1usize, 7, 16, 40, 100] {
                let streamed = feasibility_rate_streaming(&config, 40, chunk_len, None);
                assert_eq!(
                    streamed, materialized,
                    "density {density}, chunk {chunk_len}"
                );
            }
        }
    }

    #[test]
    fn chunk_accounting_is_exact() {
        let report = sweep_streaming(&half_trust(), 25, 8, None);
        assert_eq!(report.samples, 25);
        assert_eq!(report.chunks, 4, "ceil(25 / 8)");
        assert_eq!(report.chunk_len, 8);
        assert_eq!(report.errors, 0);
        assert!(report.feasible <= 25);
        // A chunk larger than the corpus degenerates to one chunk.
        let one = sweep_streaming(&half_trust(), 5, 1000, None);
        assert_eq!(one.chunks, 1);
        // An empty sweep is well-defined.
        let empty = sweep_streaming(&half_trust(), 0, 8, None);
        assert_eq!(empty.chunks, 0);
        assert_eq!(empty.rate(), 0.0);
    }

    #[test]
    fn shared_cache_leaves_the_report_unchanged() {
        let cache = trustseq_core::AnalysisCache::new();
        let cold = sweep_streaming(&half_trust(), 30, 10, Some(&cache));
        let warm = sweep_streaming(&half_trust(), 30, 10, Some(&cache));
        let uncached = sweep_streaming(&half_trust(), 30, 10, None);
        assert_eq!(cold, warm);
        assert_eq!(cold, uncached);
        assert!(cache.stats().hits > 0, "second pass must hit the cache");
    }

    #[test]
    #[should_panic(expected = "chunk_len")]
    fn zero_chunk_panics() {
        let _ = sweep_streaming(&half_trust(), 10, 0, None);
    }
}
