//! Counterexample shrinking: delta-debugging over action traces.
//!
//! DPOR (and even BFS on mutated configurations) can return traces with
//! incidental actions — operations by bystander nodes, deliveries that
//! commute with the bug.  Before a counterexample is written as a JSONL
//! artifact, [`shrink`] minimizes it with the classic *ddmin* loop: try
//! dropping progressively finer-grained chunks of the trace, keeping any
//! candidate that still reproduces **the same invariant violation**
//! (replayed on the pristine harness), and finish with a 1-minimality
//! sweep.  The result is a trace where removing any single action loses
//! the bug — the smallest story a human has to read.
//!
//! Reproduction is judged by invariant *name* only: a shorter trace that
//! trips the same invariant with a different detail string (e.g. a
//! different node id) is still the same bug class, and accepting it
//! shrinks much further.  The exceptions are the synthetic
//! `illegal-transition` and `disabled-action` classes, which cover every
//! way a step can be rejected — there the *detail* must match too, or
//! the shrinker would happily collapse any trace to a single arbitrary
//! invalid action (e.g. completing a miss that was never issued, or
//! resending a message that was never dropped) and call it the same
//! bug.  This matters doubly for fault traces: a drop/resend schedule
//! mangled by ddmin turns into disabled recovery actions, and without
//! the detail match any such mangling would "reproduce".

use crate::explore::replay_on;
use crate::harness::Harness;

/// True if `trace` still reproduces the violation `(invariant, detail)`
/// on `h`.  `detail` is only consulted for the synthetic
/// `illegal-transition` / `disabled-action` classes (see module docs).
fn reproduces<H: Harness>(h: &H, invariant: &str, detail: &str, trace: &[H::Action]) -> bool {
    let detail_matters = invariant == "illegal-transition" || invariant == "disabled-action";
    match replay_on(h, trace) {
        Some((inv, d)) => inv == invariant && (!detail_matters || d == detail),
        None => false,
    }
}

/// Minimize `trace` while it keeps violating `invariant` on `h` (with
/// the same `detail` for the `illegal-transition` and `disabled-action`
/// classes).
///
/// Returns the shrunk trace; if the input does not reproduce at all
/// (caller bug, or a nondeterministic harness), it is returned unchanged.
/// Worst-case cost is `O(n^2)` replays of at most `n` steps each — traces
/// here are tens of actions, so this is instantaneous in practice.
pub fn shrink<H: Harness>(
    h: &H,
    invariant: &str,
    detail: &str,
    trace: &[H::Action],
) -> Vec<H::Action> {
    let mut best: Vec<H::Action> = trace.to_vec();
    if !reproduces(h, invariant, detail, &best) {
        return best;
    }
    // ddmin: remove chunks of size |trace|/n, refining n on failure.
    let mut n = 2usize;
    while best.len() >= 2 {
        let chunk = best.len().div_ceil(n);
        let mut removed_any = false;
        let mut start = 0usize;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - start));
            candidate.extend_from_slice(&best[..start]);
            candidate.extend_from_slice(&best[end..]);
            if reproduces(h, invariant, detail, &candidate) {
                best = candidate;
                removed_any = true;
                // Restart the scan: indices after the removed chunk shifted.
                start = 0;
            } else {
                start = end;
            }
        }
        if removed_any {
            // Each removal strictly shrinks `best`, so re-coarsening
            // cannot loop forever.
            n = 2;
        } else if chunk <= 1 {
            break;
        } else {
            n = (n * 2).min(best.len());
        }
    }
    // Final 1-minimality sweep: drop single actions until none can go.
    let mut i = 0usize;
    while i < best.len() {
        let mut candidate = best.clone();
        candidate.remove(i);
        if reproduces(h, invariant, detail, &candidate) {
            best = candidate;
            i = 0;
        } else {
            i += 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{bfs, dpor};
    use crate::toy::Toy;

    #[test]
    fn shrunk_trace_still_reproduces_and_is_one_minimal() {
        let h = Toy::seeded();
        // DPOR exhausts lane 0 before touching lane 1, so its trace has
        // steps to drop.
        let cex = dpor(&h, 1_000).violation.expect("mutation caught");
        let small = shrink(&h, &cex.invariant, &cex.detail, &cex.trace);
        assert!(small.len() < cex.trace.len(), "nothing was dropped");
        assert!(reproduces(&h, &cex.invariant, &cex.detail, &small));
        for i in 0..small.len() {
            let mut cand = small.clone();
            cand.remove(i);
            assert!(
                !reproduces(&h, &cex.invariant, &cex.detail, &cand),
                "dropping step {i} still reproduces: not 1-minimal"
            );
        }
    }

    #[test]
    fn dpor_trace_shrinks_to_bfs_scale() {
        let h = Toy::seeded();
        let deep = dpor(&h, 1_000).violation.expect("mutation caught");
        let minimal = bfs(&h, 1_000).violation.expect("mutation caught");
        let small = shrink(&h, &deep.invariant, &deep.detail, &deep.trace);
        // ddmin guarantees 1-minimality, not the global minimum: a DPOR
        // trace can shrink to a locally minimal variant of the bug with
        // a few more incidental-but-now-load-bearing steps.  It must
        // still land in the same league as BFS's minimal-depth trace.
        assert!(
            small.len() <= 2 * minimal.trace.len(),
            "shrunk DPOR trace ({}) far above BFS minimum ({})",
            small.len(),
            minimal.trace.len()
        );
    }

    #[test]
    fn non_reproducing_trace_is_returned_unchanged() {
        let h = Toy::seeded();
        let cex = bfs(&h, 1_000).violation.expect("mutation caught");
        let same = shrink(&h, "no-such-invariant", "", &cex.trace);
        assert_eq!(same.len(), cex.trace.len());
    }
}
