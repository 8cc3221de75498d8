//! Correctness subsystem for the AS-COMA simulator.
//!
//! The paper's contribution — S-COMA-first allocation with an adaptive
//! software back-off (PAPER.md §1) — lives entirely in coupled state
//! machines: the MSI directory protocol, per-node page-mode transitions,
//! and frame-pool accounting.  This crate is the layer that *proves* those
//! machines stay coherent, in four parts:
//!
//! 1. **Invariant catalog** ([`invariant`], [`checkers`]) — an
//!    [`Invariant`] trait plus ~10 concrete checkers run against a
//!    borrowed [`MachineView`] of live simulator state.  The `ascoma`
//!    core calls [`assert_all`] at barriers and end-of-run (under its
//!    `check_invariants` config flag), and the layer crates carry
//!    `debug_assert`-style hooks that compile to nothing in release
//!    builds unless their `check` feature is enabled.
//! 2. **Exploration engines** ([`harness`], [`explore`], [`liveness`]) —
//!    a [`Harness`] trait (clone-able snapshot, enabled-action
//!    enumeration, deterministic step, injective canonical encoding,
//!    static dependence) drives three engines: exhaustive BFS, a
//!    DPOR-reduced DFS (persistent + sleep sets), and a lasso search for
//!    livelock (a reachable cycle of non-progress actions).
//!    Counterexamples are ddmin-minimized by [`shrink()`] before they are
//!    written as artifacts.
//! 3. **Conformance checking** ([`conform`], `check` feature) — the
//!    engines' one harness: the **production** `proto`/`vm`/`mem` state
//!    machines — real `Directory` fetches, page-table remaps, frame-pool
//!    accounting, pageout-daemon victim selection, and back-off
//!    automaton — with the invariant catalog checked in every explored
//!    state.  There is no separate protocol model: the checker explores
//!    exactly the code the simulator runs.  With a fault budget the same
//!    harness also drops, duplicates and resends directory transactions,
//!    the only faults it models: the simulated machine never crashes a
//!    node or loses directory state.
//! 4. **Mutation self-tests** ([`conform::ConformMutation`]) — known bugs
//!    are injectable via `cfg(feature = "check")` fault hooks in the
//!    production crates, so the test suite can assert the checkers
//!    actually catch them.
//!
//! The lint/sanitizer half of the correctness gate is `scripts/check.sh`
//! at the repository root (clippy wall, unwrap/expect lint, formatting).

#![warn(missing_docs)]

pub mod checkers;
#[cfg(feature = "check")]
pub mod conform;
pub mod explore;
pub mod harness;
pub mod invariant;
pub mod liveness;
pub mod shrink;
#[cfg(test)]
mod toy;
pub mod view;

pub use explore::{bfs, dpor, replay_on, Cex, Outcome};
pub use harness::Harness;
pub use invariant::{assert_all, catalog, check_all, Invariant, Violation};
pub use liveness::{find_lasso, Lasso, LivenessOutcome};
pub use shrink::shrink;
pub use view::{MachineView, NodeView};
