//! The always-on analysis service: a server that keeps a marketplace of
//! sequencing structures resident — verdicts maintained incrementally and
//! read straight off each structure's analyzer, inline specs memoized in
//! the shared [`AnalysisCache`](trustseq_core::AnalysisCache) — behind the
//! length-prefixed framing of
//! [`trustseq_dist::net`], plus the load generator that hammers and
//! *verifies* it.
//!
//! # The admission-control ladder
//!
//! Every decoded request walks the same rungs, each shedding with a typed
//! [`Rejected`](trustseq_dist::ServiceReply::Rejected) reply rather than
//! queueing unboundedly:
//!
//! 1. **draining** — the server is shutting down; in-flight requests are
//!    answered, new ones are not;
//! 2. **quota** — the connection's token bucket is empty;
//! 3. **overloaded** — the bounded worker queue is full (backpressure);
//! 4. **malformed / unknown_structure** — semantic refusals from the
//!    worker (frame-level garbage drops the connection instead: there is
//!    no trustworthy `seq` to answer).
//!
//! Slow clients are bounded on both directions: a reply write that blocks
//! past the write deadline condemns the connection, and a *partial* frame
//! making no progress past the idle timeout is treated as a slow-loris
//! attempt and dropped.
//!
//! # Example
//!
//! ```no_run
//! use trustseq_service::{LoadgenConfig, Server, ServiceConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(ServiceConfig::default())?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let serving = std::thread::spawn(move || server.run());
//!
//! let report = trustseq_service::run_loadgen(&LoadgenConfig {
//!     addr,
//!     ..LoadgenConfig::default()
//! })?;
//! assert_eq!(report.wrong, 0);
//!
//! handle.shutdown();
//! serving.join().unwrap()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod loadgen;
mod queue;
mod quota;
mod server;

pub use loadgen::{run_loadgen, LatencySummary, LoadgenConfig, LoadgenReport};
pub use queue::ShardedQueue;
pub use quota::TokenBucket;
pub use server::{build_population, market_op, Server, ServerHandle, ServiceConfig};
