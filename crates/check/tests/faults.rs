//! Fault-injection integration tests (`--features check`).
//!
//! The release gate (`model_check faults`) explores the whole bounded-fault
//! suite up to budget k = 2; these tests keep the same claims on the
//! configurations small enough for the test profile: clean bounded-fault
//! exploration with real fault/recovery coverage, a byte-for-byte identical
//! state space at k = 0, lasso-free drop/resend recovery, and ddmin
//! shrinking that keeps fault traces legal.
#![cfg(feature = "check")]

use ascoma_check::conform::{ConformAction, ConformConfig, ConformHarness, ConformMutation};
use ascoma_check::explore::{bfs, dpor, replay_on, Outcome};
use ascoma_check::liveness::find_lasso;
use ascoma_check::shrink::shrink;

const MAX_STATES: usize = 4_000_000;

fn kind_coverage(out: &Outcome<ConformAction>) -> (bool, bool) {
    let faults = out
        .kinds
        .iter()
        .any(|(k, n)| k.starts_with("fault-") && *n > 0);
    let recovers = out
        .kinds
        .iter()
        .any(|(k, n)| k.starts_with("recover-") && *n > 0);
    (faults, recovers)
}

/// The small end of the bounded-fault gate: every coherence-only config at
/// k = 1 plus a compact single-page AS-COMA config.  Each must
/// explore completely with zero violations, exercise both fault and
/// recovery actions (no vacuous pass), and stay DPOR-sound.
#[test]
fn bounded_fault_configs_are_clean_with_coverage() {
    let mut cfgs: Vec<ConformConfig> = ConformConfig::fault_suite(1)
        .into_iter()
        .filter(|c| !c.remap)
        .collect();
    cfgs.push(ConformConfig::ascoma(2, 1, 1, 3).with_faults(1));
    assert!(cfgs.len() >= 5);
    for cfg in cfgs {
        let h = ConformHarness::new(cfg);
        let full = bfs(&h, MAX_STATES);
        assert!(full.complete, "{}: BFS hit the state cap", cfg.label());
        assert!(
            full.violation.is_none(),
            "{}: BFS violation: {:?}",
            cfg.label(),
            full.violation.map(|v| (v.invariant, v.detail))
        );
        let (faults, recovers) = kind_coverage(&full);
        assert!(faults, "{}: no fault action ever fired", cfg.label());
        assert!(recovers, "{}: no recovery action ever fired", cfg.label());
        let reduced = dpor(&h, MAX_STATES);
        assert!(reduced.complete, "{}: DPOR hit the state cap", cfg.label());
        assert!(
            reduced.violation.is_none(),
            "{}: DPOR violation: {:?}",
            cfg.label(),
            reduced.violation.map(|v| (v.invariant, v.detail))
        );
        // The shared fault budget couples fault actions, so the reduction
        // is weaker than in the fault-free suite but must never expand.
        assert!(
            reduced.states <= full.states,
            "{}: DPOR expanded the state space ({} vs {})",
            cfg.label(),
            reduced.states,
            full.states
        );
    }
}

/// With a zero fault budget the fault layer must be invisible: the ghost
/// data-plane versions and fault flags stay out of the canonical key, so
/// the explored graph is exactly the plain conformance graph.
#[test]
fn zero_budget_is_state_identical_to_plain_conformance() {
    for cfg in ConformConfig::smoke_suite() {
        let plain = bfs(&ConformHarness::new(cfg), MAX_STATES);
        let zeroed = bfs(&ConformHarness::new(cfg.with_faults(0)), MAX_STATES);
        assert_eq!(
            (plain.states, plain.transitions),
            (zeroed.states, zeroed.transitions),
            "{}: k = 0 must not perturb the state space",
            cfg.label()
        );
        assert!(zeroed.violation.is_none());
    }
}

/// Recovery terminates: in the faulted liveness suite no non-progress
/// cycle exists, and the proof is not vacuous — states with a dropped
/// transaction awaiting its resend are actually covered.
#[test]
fn resend_recovery_is_lasso_free_and_covers_dropped_states() {
    for cfg in ConformConfig::fault_liveness_suite() {
        let h = ConformHarness::new(cfg);
        let out = find_lasso(&h, MAX_STATES, |s| s.any_pending_dropped())
            .expect("clean config must have no illegal transitions");
        assert!(out.complete, "{}: liveness BFS hit the cap", cfg.label());
        assert!(
            out.lasso.is_none(),
            "{}: recovery has a non-progress cycle",
            cfg.label()
        );
        assert!(
            out.interesting > 0,
            "{}: no dropped-transaction state was ever explored",
            cfg.label()
        );
    }
}

/// ddmin across a fault schedule: a drop/resend pair padded into a
/// seeded-bug trace is incidental, but removing the drop alone leaves a
/// resend of nothing — a disabled action, not the bug.  The shrunk trace
/// must stay legal (every resend after its drop), still reproduce the
/// bug, and be 1-minimal.
#[test]
fn shrunk_fault_traces_stay_legal_and_ordered() {
    let cfg = ConformConfig {
        mutation: Some(ConformMutation::SkipInval),
        ..ConformConfig::coherence(2, 1, 1, 2).with_faults(1)
    };
    let h = ConformHarness::new(cfg);
    let padded = [
        ConformAction::Issue {
            node: 0,
            block: 0,
            write: false,
        },
        ConformAction::DropMsg { node: 0 },
        ConformAction::Resend { node: 0 },
        ConformAction::Complete {
            node: 0,
            block: 0,
            write: false,
        },
        ConformAction::Issue {
            node: 1,
            block: 0,
            write: true,
        },
        ConformAction::Complete {
            node: 1,
            block: 0,
            write: true,
        },
    ];
    let (invariant, detail) = replay_on(&h, &padded).expect("padded trace exposes the bug");
    assert!(
        invariant != "disabled-action" && invariant != "illegal-transition",
        "padded trace must be legal, got {invariant}: {detail}"
    );
    let small = shrink(&h, &invariant, &detail, &padded);
    assert_eq!(
        replay_on(&h, &small).map(|(inv, _)| inv),
        Some(invariant.clone())
    );
    for (i, a) in small.iter().enumerate() {
        if let ConformAction::Resend { node } = *a {
            assert!(
                small[..i].contains(&ConformAction::DropMsg { node }),
                "resend without its drop: {small:?}"
            );
        }
    }
    for i in 0..small.len() {
        let mut probe = small.clone();
        probe.remove(i);
        assert!(
            replay_on(&h, &probe).map(|(inv, _)| inv) != Some(invariant.clone()),
            "shrunk trace is not 1-minimal (action {i} removable): {small:?}"
        );
    }
}
