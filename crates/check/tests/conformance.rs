//! Conformance-harness integration tests (`--features check`).
//!
//! These drive the *production* proto/vm/mem state machines through the
//! generic exploration engines: the smoke suite must be clean with its
//! pinned state-space size, every seeded production fault must be caught
//! with a replayable counterexample, and the liveness gate must
//! prove lasso-freedom (covering the max-back-off latch) while finding
//! the livelock seeded by skipping the refetch-counter reset.
#![cfg(feature = "check")]

use ascoma_check::conform::{ConformConfig, ConformHarness, ConformMutation};
use ascoma_check::explore::{bfs, replay_on};
use ascoma_check::liveness::find_lasso;

const MAX_STATES: usize = 4_000_000;

/// BFS `(states, transitions)` of each smoke configuration, in suite
/// order: a change to the explored space (a missed or an extra state)
/// shows up here before it can hide a violation.
const SMOKE_SPACE: [(usize, usize); 8] = [
    (211, 284),
    (873, 1712),
    (1017, 1864),
    (1058, 2316),
    (16511, 37368),
    (10167, 24239),
    (23236, 52196),
    (14940, 34716),
];

#[test]
fn smoke_suite_is_clean() {
    let suite = ConformConfig::smoke_suite();
    assert_eq!(suite.len(), SMOKE_SPACE.len());
    for (cfg, space) in suite.into_iter().zip(SMOKE_SPACE) {
        let h = ConformHarness::new(cfg);
        let full = bfs(&h, MAX_STATES);
        assert!(full.complete, "{}: BFS hit the state cap", cfg.label());
        assert!(
            full.violation.is_none(),
            "{}: BFS violation: {:?}",
            cfg.label(),
            full.violation.map(|v| (v.invariant, v.detail))
        );
        assert_eq!(
            (full.states, full.transitions),
            space,
            "{}: explored space changed",
            cfg.label()
        );
    }
}

#[test]
fn relocation_configs_actually_relocate() {
    // A suite whose remap actions never fire would vacuously pass the
    // safety gate; prove the explored spaces contain S-COMA-resident
    // states (and, for AS-COMA, the relocation-disabled latch).
    for cfg in ConformConfig::smoke_suite().into_iter().filter(|c| c.remap) {
        let h = ConformHarness::new(cfg);
        let out = find_lasso(&h, MAX_STATES, |s| s.any_scoma_resident())
            .expect("clean config must have no illegal transitions");
        assert!(out.complete, "{}: liveness BFS hit the cap", cfg.label());
        assert!(
            out.interesting > 0,
            "{}: no explored state ever held an S-COMA page",
            cfg.label()
        );
    }
    for cfg in ConformConfig::smoke_suite()
        .into_iter()
        .filter(|c| c.pageout)
    {
        let h = ConformHarness::new(cfg);
        let out = find_lasso(&h, MAX_STATES, |s| s.any_relocation_disabled())
            .expect("clean config must have no illegal transitions");
        assert!(
            out.interesting > 0,
            "{}: max back-off (relocation latched off) never reached",
            cfg.label()
        );
    }
}

#[test]
fn seeded_production_faults_are_caught() {
    let cases: [(ConformConfig, &[&str]); 4] = [
        (
            ConformConfig {
                mutation: Some(ConformMutation::SkipInval),
                ..ConformConfig::coherence(2, 1, 1, 2)
            },
            &["l1-directory-agreement", "directory-cache-agreement"],
        ),
        (
            ConformConfig {
                mutation: Some(ConformMutation::SkipForward),
                ..ConformConfig::coherence(2, 1, 1, 2)
            },
            &["l1-ownership"],
        ),
        (
            ConformConfig {
                mutation: Some(ConformMutation::LeakFrame),
                ..ConformConfig::remap(2, 2, 1, 3)
            },
            &["frame-conservation", "frame-ownership"],
        ),
        (
            ConformConfig {
                mutation: Some(ConformMutation::ResidencyLeak),
                ..ConformConfig::remap(2, 2, 1, 3)
            },
            &["frame-conservation", "residency-consistency"],
        ),
    ];
    for (cfg, expected) in cases {
        let h = ConformHarness::new(cfg);
        let out = bfs(&h, MAX_STATES);
        let cex = out
            .violation
            .unwrap_or_else(|| panic!("{}: fault not caught", cfg.label()));
        assert!(
            expected.contains(&cex.invariant.as_str()),
            "{}: caught as {:?}, expected one of {:?}",
            cfg.label(),
            cex.invariant,
            expected
        );
        // The BFS trace replays to the same invariant.
        let replayed = replay_on(&h, &cex.trace).expect("trace must reproduce");
        assert_eq!(replayed.0, cex.invariant, "{}", cfg.label());
    }
}

#[test]
fn liveness_gate_is_lasso_free_and_catches_skip_reset() {
    for cfg in ConformConfig::liveness_suite() {
        let h = ConformHarness::new(cfg);
        let out = find_lasso(&h, MAX_STATES, |s| s.any_relocation_disabled())
            .expect("clean config must have no illegal transitions");
        assert!(out.complete, "{}: liveness BFS hit the cap", cfg.label());
        assert!(
            out.lasso.is_none(),
            "{}: unexpected livelock lasso",
            cfg.label()
        );
        if cfg.pageout {
            assert!(
                out.interesting > 0,
                "{}: lasso-freedom not proven at max back-off",
                cfg.label()
            );
        }
    }
    // Skipping the refetch-counter reset creates a genuine
    // remap/evict livelock: the page keeps "deserving" relocation the
    // moment it is dropped.
    let cfg = ConformConfig {
        mutation: Some(ConformMutation::SkipReset),
        ..ConformConfig::remap(2, 2, 1, 3)
    };
    let h = ConformHarness::new(cfg);
    let out = find_lasso(&h, MAX_STATES, |_| false).expect("transitions stay legal");
    let lasso = out.lasso.expect("skip-reset must produce a livelock lasso");
    assert!(!lasso.cycle.is_empty());
}
