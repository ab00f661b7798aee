//! Sequencing graphs, reduction rules, execution-sequence recovery, protocol
//! synthesis and indemnity planning — the core algorithms of *"Making Trust
//! Explicit in Distributed Commerce Transactions"* (Ketchpel &
//! Garcia-Molina, ICDCS 1996).
//!
//! # Pipeline
//!
//! 1. Describe the exchange problem with a
//!    [`trustseq_model::ExchangeSpec`] (or parse one with `trustseq-lang`).
//! 2. Build the [`SequencingGraph`] (§4.1) with
//!    [`SequencingGraph::from_spec`].
//! 3. Reduce it with a [`Reducer`] (§4.2); the [`ReductionOutcome`] reports
//!    **feasibility** — whether a protocol exists that protects every
//!    participant.
//! 4. If feasible, [`recover_execution`] (§5) produces the
//!    [`ExecutionSequence`] of pairwise transfers and notifications, and
//!    [`Protocol::from_sequence`] splits it into per-participant
//!    instructions.
//! 5. If infeasible because of a purchase bundle, [`indemnity::make_feasible`]
//!    (§6) plans minimal collateral that unlocks the exchange.
//!
//! # Example
//!
//! ```
//! use trustseq_core::{analyze, fixtures, synthesize};
//!
//! # fn main() -> Result<(), trustseq_core::CoreError> {
//! // The paper's Example #1 is feasible…
//! let (spec, _) = fixtures::example1();
//! assert!(analyze(&spec)?.feasible);
//! // …and its synthesised execution sequence has the paper's 10 steps.
//! assert_eq!(synthesize(&spec)?.len(), 10);
//!
//! // Example #2 deadlocks on mutual distrust…
//! let (mut spec2, _) = fixtures::example2();
//! assert!(!analyze(&spec2)?.feasible);
//! // …until an indemnity splits the consumer's bundle.
//! trustseq_core::indemnity::make_feasible(&mut spec2)?;
//! assert!(analyze(&spec2)?.feasible);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the worker pool's scoped-borrow broadcast
// needs exactly one audited lifetime erasure (`pool::erase`), which carries
// a scoped `#[allow(unsafe_code)]` with its safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod advisor;
pub mod bitset;
mod build;
pub mod cache;
pub mod canon;
pub mod csr;
mod delta;
pub mod dot;
mod error;
mod execution;
pub mod fixtures;
mod graph;
pub mod indemnity;
pub mod obs;
pub mod pool;
mod protocol;
mod reduce;
mod scratch;
mod trace;

pub use advisor::{advise, advise_cached, Advice, TrustSuggestion};
pub use build::BuildOptions;
pub use cache::{AnalysisCache, CacheStats, CachedVerdict};
pub use canon::{
    canonicalize, fingerprint, prefingerprint, CanonicalForm, Fingerprint, PreFingerprint,
};
pub use delta::{DeltaAnalyzer, DeltaStats, GraphDelta};
pub use error::CoreError;
pub use execution::{
    recover_execution, synthesize, synthesize_with, ExecutionSequence, ExecutionStep, StepKind,
};
pub use graph::{
    Commitment, CommitmentId, Conjunction, ConjunctionId, Edge, EdgeColor, EdgeId, SequencingGraph,
};
pub use indemnity::{IndemnityPlan, PlannedIndemnity};
pub use obs::{MetricsRegistry, MetricsSnapshot, NoopRecorder, Recorder, VirtualClock};
pub use protocol::{Instruction, Protocol};
pub use reduce::{
    analyze, analyze_batch, analyze_batch_cached, analyze_batch_with, analyze_cached, analyze_with,
    confluence_check, confluence_check_cached, confluence_sweep, ConfluenceReport, Move, Reducer,
    ReductionOutcome, Strategy,
};
pub use scratch::ScratchReducer;
pub use trace::{ReductionStep, ReductionTrace, Rule};
