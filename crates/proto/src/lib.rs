//! Directory-based write-invalidate coherence for the AS-COMA simulator.
//!
//! Implements the home-node directory of the paper's Figure 1 DSM
//! controller: per-128-byte-block copysets and dirty owners, plus the
//! R-NUMA-style per-page-per-node *refetch counters* that drive page
//! relocation in all three hybrid architectures.  See [`directory`].
//!
//! The protocol is sequentially consistent write-invalidate, with data
//! moved in 128-byte (4-line) chunks as in the paper.  Timing (bus,
//! network, bank and controller occupancies along the remote path) is
//! composed by the machine layer in the `ascoma` crate; this crate holds
//! the protocol *state machine*.

#![warn(missing_docs)]

pub mod directory;
pub mod msg;

#[cfg(feature = "check")]
pub use directory::DirFault;
pub use directory::{Directory, FetchClass, FetchOutcome};
pub use msg::ProtoStats;
