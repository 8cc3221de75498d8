//! Integration tests for the online auto-tuner (DESIGN.md §19): the
//! closed control loop must be deterministic across job counts, inert
//! when disabled, and replayable from its exported event stream.

use ascoma::experiments::{figure_grid, run_cells, Cell};
use ascoma::machine::{simulate, simulate_measured_streamed};
use ascoma::{Arch, SimConfig};
use ascoma_obs::{export, replay_tunes, ControllerParams};
use ascoma_workloads::{App, SizeClass};

/// The paper config at `pressure` with an aggressive short-window
/// controller, so tiny traces still see plenty of decision windows.
fn auto_cfg(pressure: f64) -> SimConfig {
    let mut cfg = SimConfig::at_pressure(pressure);
    cfg.controller = ControllerParams {
        window: 50_000,
        ..ControllerParams::enabled()
    };
    cfg
}

#[test]
fn controller_on_results_are_identical_across_job_counts() {
    let base = auto_cfg(0.9);
    let traces = [App::Em3d.build(SizeClass::Tiny, base.geometry.page_bytes())];
    let cells = figure_grid(&traces, &[0.5, 0.9], &base);
    let serial = run_cells(&cells, 1, None);
    assert!(
        serial.iter().any(|r| r.controller.is_some()),
        "controller-on bars must carry a summary"
    );
    for jobs in [3, 4] {
        // RunResult derives PartialEq over every field, including the
        // controller summary and its knob trajectories.
        let parallel = run_cells(&cells, jobs, None);
        assert_eq!(serial, parallel, "jobs={jobs} drifted from serial");
    }
}

#[test]
fn controller_on_metrics_digest_is_deterministic() {
    let cfg = auto_cfg(0.9);
    let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let measured = || simulate_measured_streamed(&trace, Arch::AsComa, &cfg, 50_000, 0, |_| {});
    let (r1, _, reg1) = measured();
    let (r2, _, reg2) = measured();
    assert_eq!(r1, r2);
    assert_eq!(reg1.digest(), reg2.digest());
    // Tuner activity reaches the digest's cause counters.
    let s = r1.controller.expect("controller on");
    let json = reg1.digest().to_json();
    assert!(
        json.contains("controller_dwell"),
        "dwell histogram must keep the digest shape stable"
    );
    if s.decisions > 0 {
        assert!(
            json.contains("controller_cause/"),
            "controller causes missing from digest: {json}"
        );
    }
}

#[test]
fn disabled_controller_with_tuned_constants_is_inert() {
    let base = SimConfig::at_pressure(0.7);
    let trace = App::Em3d.build(SizeClass::Tiny, base.geometry.page_bytes());
    let plain = simulate(&trace, Arch::AsComa, &base);
    // Same run with wildly different — but disabled — controller
    // constants: `enabled: false` must gate everything.
    let mut cfg = base;
    cfg.controller = ControllerParams {
        enabled: false,
        window: 10_000,
        hot_enter: 4,
        hot_exit: 2,
        cold_enter: 1,
        confirm: 1,
        ..ControllerParams::default()
    };
    let off = simulate(&trace, Arch::AsComa, &cfg);
    assert_eq!(plain, off, "a disabled controller must change nothing");
    assert!(off.controller.is_none());
}

#[test]
fn ablation_auto_leg_never_loses_its_summary() {
    // The static/auto leg pairs `bench ablate` builds, per pressure.
    let trace = App::Em3d.build(SizeClass::Tiny, auto_cfg(0.7).geometry.page_bytes());
    let mut cells = Vec::new();
    for pressure in [0.7, 0.9] {
        for enabled in [false, true] {
            let mut cfg = auto_cfg(pressure);
            cfg.controller.enabled = enabled;
            cells.push(Cell::new(&trace, Arch::AsComa, cfg));
        }
    }
    for jobs in [1, 3, 4] {
        let runs = run_cells(&cells, jobs, None);
        assert_eq!(runs.len(), 4);
        for pair in runs.chunks_exact(2) {
            assert!(pair[0].controller.is_none());
            let s = pair[1].controller.as_ref().expect("summary");
            assert_eq!(s.window, 50_000);
        }
    }
}

#[test]
fn replayed_tunes_reproduce_the_live_knob_trajectory() {
    // Force tuner activity: a low hot-enter bound plus single-window
    // confirmation makes even a tiny trace's refetch traffic tune.
    let mut cfg = SimConfig::at_pressure(0.9);
    cfg.controller = ControllerParams {
        window: 20_000,
        hot_enter: 4,
        hot_exit: 2,
        cold_enter: 1,
        confirm: 1,
        ..ControllerParams::enabled()
    };
    let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let (run, events, _) = simulate_measured_streamed(&trace, Arch::AsComa, &cfg, 0, 0, |_| {});
    let summary = run.controller.expect("controller on");
    assert!(
        summary.per_node.iter().any(|n| n.knob_trajectory.len() > 1),
        "the aggressive bounds must actually tune (decisions={})",
        summary.decisions
    );

    // Round-trip: export the trace to JSONL, replay only the
    // `tune_applied` lines, and compare against the live trajectories.
    let jsonl = export::jsonl_string(&events);
    let replayed = replay_tunes(
        &jsonl,
        trace.nodes,
        cfg.policy.threshold_increment,
        cfg.kernel.daemon_period,
    );
    assert_eq!(replayed.len(), summary.per_node.len());
    for (n, node) in summary.per_node.iter().enumerate() {
        assert_eq!(
            replayed[n], node.knob_trajectory,
            "node {n}: replayed trajectory must match the live one"
        );
    }
}
