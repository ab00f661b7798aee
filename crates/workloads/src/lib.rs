//! Parametric exchange-scenario generators for benchmarks and tests.
//!
//! * [`broker_chain`] — Example #1 generalised to resale chains of any
//!   depth;
//! * [`bundle`] / [`bundle_arithmetic`] — Example #2 / Figure 7 generalised
//!   to `n`-document bundles;
//! * [`assembly_market`] — §3.2's combined documents generalised to `n`
//!   parts composed by one publisher;
//! * [`random_exchange`] — seeded random topologies with a
//!   [`trust_density`](RandomConfig::trust_density) knob, and
//!   [`feasibility_rate`] to measure how trust unlocks exchanges;
//! * [`sweep_streaming`] — the same sweep in bounded memory: corpora far
//!   larger than RAM are generated, analyzed and folded chunk by chunk;
//! * [`run_market`] — a streaming marketplace mutating a population of
//!   structures under post/accept/cancel/expire events, with verdicts
//!   maintained incrementally ([`MarketMode::Delta`]) or recomputed from
//!   scratch ([`MarketMode::Full`]).
//!
//! # Example
//!
//! ```
//! use trustseq_model::Money;
//! use trustseq_workloads::{broker_chain, bundle_arithmetic};
//!
//! // A three-broker resale chain is feasible…
//! let (chain, _) = broker_chain(3, Money::from_dollars(100), Money::from_dollars(10));
//! assert!(trustseq_core::analyze(&chain).unwrap().feasible);
//!
//! // …while a three-document bundle deadlocks without indemnities.
//! let (bundle, _) = bundle_arithmetic(3);
//! assert!(!trustseq_core::analyze(&bundle).unwrap().feasible);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod assembly;
mod bundle;
mod chain;
mod market;
mod random;
mod stream;

pub use assembly::{assembly_market, AssemblyIds};
pub use bundle::{bundle, bundle_arithmetic, BundleIds};
pub use chain::{broker_chain, ChainIds};
pub use market::{
    fnv_fold, run_market, Market, MarketConfig, MarketMode, MarketOp, MarketReport, SlotOutOfRange,
    Stall, FNV_OFFSET,
};
pub use random::{
    feasibility_rate, feasibility_rate_cached, random_exchange, RandomConfig, RandomExchange,
    TRUST_DENSITY_GRID,
};
pub use stream::{feasibility_rate_streaming, sweep_streaming, StreamReport};
