//! Distributed sequencing-graph reduction — §9's "fully distributed
//! approach, with each participant locally making decisions about the
//! feasibility and sequencing of its own parts of the transaction",
//! implemented as a round-based message-passing protocol.
//!
//! # How it works
//!
//! Every participant runs a [`Node`] that knows only its *local* slice of
//! the sequencing graph:
//!
//! * a principal owns its commitments and applies **rule #1** to them;
//! * the owner of a conjunction (principal or trusted component) applies
//!   **rule #2** to it;
//! * when a node removes an edge it sends [`EdgeRemoved`](Message) messages
//!   to exactly the parties whose future decisions the removal can affect
//!   (the other endpoint's owner and the principals sharing the
//!   conjunction).
//!
//! Because edges only ever die, a stale view is always *conservative*: a
//! node may delay a removal it could already make, but never makes an
//! unsound one — so the protocol converges to exactly the centralised
//! fixpoint (checked against [`trustseq_core::Reducer`] in the tests, and
//! property-tested on random topologies).
//!
//! One round loop runs the protocol in process:
//! [`DistributedReduction::run_resilient`], over a
//! [`FaultyTransport`] driven by a seeded [`FaultPlan`].
//! [`DistributedReduction::run`] is that loop under the fault-free plan.
//! The socket engine ([`supervise`]) runs the same protocol across OS
//! processes.
//!
//! # Example
//!
//! ```
//! use trustseq_core::fixtures;
//! use trustseq_dist::DistributedReduction;
//!
//! # fn main() -> Result<(), trustseq_core::CoreError> {
//! let (spec, _) = fixtures::example1();
//! let outcome = DistributedReduction::new(&spec)?.run();
//! assert!(outcome.feasible);
//! assert!(outcome.rounds >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod codec;
mod engine;
pub mod faults;
pub mod journal;
pub mod net;
mod node;
mod resilient;
pub mod supervise;
pub mod transport;

pub use codec::{
    CodecError, NodeStatus, Packet, RejectReason, ServiceOp, ServiceReply, ServiceRequest,
    ServiceStats,
};
pub use engine::{DistOutcome, DistRemoval, DistributedReduction};
pub use faults::{Crash, FaultPlan, FaultPlanParseError, Partition};
pub use journal::{Journal, JournalError, JournalEvent, NoopObserver, RunObserver};
pub use net::{encode_frame, Addr, FrameDecoder, FrameError, NetParseError, NetworkDescription};
pub use node::{Message, Node};
pub use resilient::{
    ConfigParseError, DistVerdict, ResilientConfig, ResilientOutcome, UndecidedReason,
};
pub use supervise::{
    decide, participants_and_edges, run_node, run_supervisor, NodeReport, SocketOutcome,
    SuperviseConfig, SuperviseError,
};
pub use transport::{FaultyTransport, TransportStats};
