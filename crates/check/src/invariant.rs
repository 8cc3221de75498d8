//! The [`Invariant`] trait, violation reporting, and the catalog runner.

use crate::view::MachineView;
use ascoma_sim::NodeId;
use std::fmt;

/// One violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the invariant that failed (see [`Invariant::name`]).
    pub invariant: &'static str,
    /// The node the violation is attributed to, if any.
    pub node: Option<NodeId>,
    /// Human-readable description of the failing state.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.node {
            Some(n) => write!(f, "[{}] {}: {}", self.invariant, n, self.detail),
            None => write!(f, "[{}] {}", self.invariant, self.detail),
        }
    }
}

/// A machine-state invariant: a predicate over a [`MachineView`] that must
/// hold in every quiescent state (barriers, end-of-run, test probes).
///
/// Checkers push one [`Violation`] per failing site rather than returning
/// early, so a single sweep reports everything that is wrong at once.
pub trait Invariant {
    /// Stable identifier, used in violation reports and DESIGN.md §13.
    fn name(&self) -> &'static str;
    /// Append a violation to `out` for every failing site in `view`.
    fn check(&self, view: &MachineView<'_>, out: &mut Vec<Violation>);
}

/// The full catalog of machine-state invariants, in reporting order.
pub fn catalog() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(crate::checkers::SwmrOwnership),
        Box::new(crate::checkers::DirectoryCacheAgreement),
        Box::new(crate::checkers::DirectoryWellFormed),
        Box::new(crate::checkers::FrameConservation),
        Box::new(crate::checkers::FrameOwnership),
        Box::new(crate::checkers::ResidencyConsistency),
        Box::new(crate::checkers::HomeModeConsistency),
        Box::new(crate::checkers::ReplicaLegality),
        Box::new(crate::checkers::PageCacheUsage),
        Box::new(crate::checkers::ThresholdLegality),
        Box::new(crate::checkers::TrajectoryMonotonicity),
    ]
}

/// Run every invariant in the catalog, collecting all violations.
pub fn check_all(view: &MachineView<'_>) -> Vec<Violation> {
    let mut out = Vec::new();
    for inv in catalog() {
        inv.check(view, &mut out);
    }
    out
}

/// Run every invariant and panic with a full report if any fail — the
/// entry point the `ascoma` core machine uses at barriers and end-of-run.
pub fn assert_all(view: &MachineView<'_>) {
    let violations = check_all(view);
    if !violations.is_empty() {
        let mut report = format!("{} invariant violation(s):\n", violations.len());
        for v in &violations {
            report.push_str("  ");
            report.push_str(&v.to_string());
            report.push('\n');
        }
        panic!("{report}");
    }
}
