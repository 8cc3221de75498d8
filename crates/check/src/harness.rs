//! The [`Harness`] trait: anything the explorers can drive.
//!
//! The harness abstraction decouples the exploration engines
//! ([`crate::explore`], [`crate::liveness`], [`mod@crate::shrink`]) from
//! *what* is being explored.  Its one implementation is the
//! conformance harness over the **production** `proto`/`vm`/`mem`
//! state machines (`crate::conform`, behind the `check` feature); the
//! engines' own unit tests run on a hand-checkable toy counter harness.
//!
//! A harness supplies four things:
//!
//! 1. a clone-able state snapshot and a *deterministic* step function,
//! 2. enabled-action enumeration (the exploration branching),
//! 3. an **injective** canonical encoding of the protocol-relevant
//!    state — the explorers deduplicate on it, so anything excluded
//!    (monotone bookkeeping: clocks, statistics, trajectories) must
//!    never be read by a transition,
//! 4. a conservative static *dependence* relation for partial-order
//!    reduction: `dependent(a, b)` may over-approximate (costing only
//!    reduction), but must return `true` whenever executing `a` and
//!    `b` in either order can lead to different states or change each
//!    other's enabledness.

/// A checkable state machine the explorers can drive.
pub trait Harness {
    /// Snapshot of the whole machine.  Cloned per transition.
    type State: Clone;
    /// One atomic transition.
    type Action: Clone + PartialEq + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// All transitions enabled in `s`, in a deterministic order.
    fn enabled(&self, s: &Self::State) -> Vec<Self::Action>;

    /// Apply `a` to `s`.  `Err(detail)` marks the transition itself as
    /// illegal (reported as the `illegal-transition` pseudo-invariant).
    fn step(&self, s: &Self::State, a: &Self::Action) -> Result<Self::State, String>;

    /// Check every invariant in `s`.  `Err((invariant, detail))` on the
    /// first violation.
    fn check(&self, s: &Self::State) -> Result<(), (String, String)>;

    /// Injective canonical encoding of the protocol-relevant state.
    /// Two states with equal encodings must be behaviorally identical
    /// (encode variable-length parts with a length prefix).
    fn canon(&self, s: &Self::State) -> Vec<u64>;

    /// Conservative static dependence: must be `true` whenever `a` and
    /// `b` can fail to commute (in effect or in enabledness).
    fn dependent(&self, a: &Self::Action, b: &Self::Action) -> bool;

    /// Liveness labeling: `false` for actions that represent no
    /// application progress (remaps, evictions, daemon runs) — a
    /// reachable cycle of non-progress actions is a livelock lasso.
    fn is_progress(&self, a: &Self::Action) -> bool {
        let _ = a;
        true
    }

    /// Stable kind label for `a`, used by the explorers' per-action-kind
    /// transition statistics (e.g. proving a fault-enabled run actually
    /// exercised drop/resend actions, not just protocol traffic).
    /// Harnesses with one action flavor can keep the default.
    fn action_kind(&self, a: &Self::Action) -> &'static str {
        let _ = a;
        "step"
    }

    /// Render one action as a JSON object (a counterexample trace line).
    fn action_json(&self, a: &Self::Action, step: usize) -> String;
}
