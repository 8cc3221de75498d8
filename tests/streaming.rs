//! The live-telemetry contract: streaming snapshots is resultwise
//! invisible.  A run instrumented with a `StreamSink` must return a
//! `RunResult` byte-identical to the uninstrumented path, at any job
//! count, and the per-cell snapshot sequences themselves must be a
//! deterministic function of the cell — identical whether the grid runs
//! serially or fanned across workers.

use ascoma::experiments::{figure_grid, run_cells, Cell, StreamSpec};
use ascoma::machine::{simulate_measured, simulate_measured_streamed, simulate_streamed};
use ascoma::{simulate, Arch, SimConfig};
use ascoma_obs::{Snapshot, StreamEvent};
use ascoma_workloads::{App, SizeClass};
use std::sync::mpsc;

const WINDOW: u64 = 100_000;
const CADENCE: u64 = 200_000;

fn base_cfg() -> SimConfig {
    let mut cfg = SimConfig::at_pressure(0.7);
    cfg.obs_sample_period = 50_000;
    cfg
}

#[test]
fn streamed_run_result_matches_plain() {
    let cfg = base_cfg();
    let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let plain = simulate(&trace, Arch::AsComa, &cfg);
    let mut snaps: Vec<Snapshot> = Vec::new();
    let (streamed, registry) =
        simulate_streamed(&trace, Arch::AsComa, &cfg, WINDOW, CADENCE, |s| {
            snaps.push(s)
        });
    assert_eq!(plain, streamed, "streaming must not perturb the run");
    assert!(!snaps.is_empty(), "cadence must produce snapshots");
    assert!(
        snaps.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
        "seq is dense and monotonic"
    );
    assert!(
        snaps.windows(2).all(|w| w[0].cycle <= w[1].cycle),
        "snapshot cycles never go backwards"
    );
    let last = snaps.last().unwrap();
    assert_eq!(last.cycle, streamed.cycles, "final frame is end-of-run");
    assert_eq!(last.events, registry.total_events());
    assert!(last.nodes.iter().any(|n| n.threshold > 0 || n.free > 0));
}

#[test]
fn measured_streamed_matches_measured() {
    let cfg = base_cfg();
    let trace = App::Radix.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let (r_off, ev_off, reg_off) = simulate_measured(&trace, Arch::AsComa, &cfg, WINDOW);
    let mut snaps = 0u64;
    let (r_on, ev_on, reg_on) =
        simulate_measured_streamed(&trace, Arch::AsComa, &cfg, WINDOW, CADENCE, |_| snaps += 1);
    assert_eq!(r_off, r_on, "result incl. obs + metrics digests");
    assert_eq!(ev_off, ev_on, "recorded event streams");
    assert_eq!(reg_off.digest(), reg_on.digest(), "online == offline fold");
    assert!(snaps > 0);
}

fn tiny_grid(cfg: &SimConfig) -> Vec<ascoma_workloads::trace::Trace> {
    vec![
        App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes()),
        App::Radix.build(SizeClass::Tiny, cfg.geometry.page_bytes()),
    ]
}

#[test]
fn grid_results_identical_with_streaming_on_or_off_at_any_job_count() {
    let cfg = base_cfg();
    let traces = tiny_grid(&cfg);
    let cells = figure_grid(&traces, &[0.1, 0.9], &cfg);
    let reference = run_cells(&cells, 1, None);
    for jobs in [1usize, 4] {
        let (tx, rx) = mpsc::channel();
        let spec = StreamSpec::new(tx, CADENCE, WINDOW);
        let streamed = run_cells(&cells, jobs, Some(&spec));
        drop(spec);
        assert_eq!(reference, streamed, "jobs={jobs}");
        assert!(rx.try_iter().count() > 0, "stream was fed");
        let plain = run_cells(&cells, jobs, None);
        assert_eq!(reference, plain, "jobs={jobs} uninstrumented");
    }
}

/// Collect the full stream for one sweep configuration.
fn stream_of(cells: &[Cell<'_>], jobs: usize) -> Vec<StreamEvent> {
    let (tx, rx) = mpsc::channel();
    let spec = StreamSpec::new(tx, CADENCE, WINDOW);
    let _ = run_cells(cells, jobs, Some(&spec));
    drop(spec);
    rx.try_iter().collect()
}

#[test]
fn per_cell_snapshot_sequences_are_deterministic_across_job_counts() {
    let cfg = base_cfg();
    let traces = tiny_grid(&cfg);
    let cells = figure_grid(&traces, &[0.5], &cfg);
    let serial = stream_of(&cells, 1);
    let parallel = stream_of(&cells, 3);

    // Protocol shape: brackets, one start and one done per cell.
    for evs in [&serial, &parallel] {
        assert!(matches!(
            evs.first(),
            Some(StreamEvent::GridStart { cells: n }) if *n == cells.len() as u64
        ));
        assert!(matches!(
            evs.last(),
            Some(StreamEvent::GridDone { cells: n }) if *n == cells.len() as u64
        ));
        for i in 0..cells.len() as u64 {
            let starts = evs
                .iter()
                .filter(|e| matches!(e, StreamEvent::CellStart { cell, .. } if *cell == i))
                .count();
            let dones = evs
                .iter()
                .filter(|e| matches!(e, StreamEvent::CellDone { cell, .. } if *cell == i))
                .count();
            assert_eq!((starts, dones), (1, 1), "cell {i}");
        }
    }

    // Per-cell snapshot subsequences are identical: worker scheduling
    // may interleave cells differently, but each cell's own telemetry
    // is a pure function of the cell.
    let per_cell = |evs: &[StreamEvent], cell: u64| -> Vec<Snapshot> {
        evs.iter()
            .filter_map(|e| match e {
                StreamEvent::Snap { cell: c, snap } if *c == cell => Some(snap.clone()),
                _ => None,
            })
            .collect()
    };
    for i in 0..cells.len() as u64 {
        assert_eq!(per_cell(&serial, i), per_cell(&parallel, i), "cell {i}");
        assert!(!per_cell(&serial, i).is_empty(), "cell {i} streamed");
    }

    // And the reported completion cycles match the actual results.
    let runs = run_cells(&cells, 1, None);
    for ev in &serial {
        if let StreamEvent::CellDone { cell, cycles } = ev {
            assert_eq!(*cycles, runs[*cell as usize].cycles);
        }
    }
}

#[test]
fn marker_only_mode_sends_no_snapshots() {
    let mut cfg = base_cfg();
    cfg.pressure = 0.5;
    let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let cells = vec![Cell::new(&trace, Arch::Scoma, cfg)];
    let (tx, rx) = mpsc::channel();
    let spec = StreamSpec::new(tx, 0, WINDOW);
    let runs = run_cells(&cells, 1, Some(&spec));
    drop(spec);
    let evs: Vec<StreamEvent> = rx.try_iter().collect();
    assert_eq!(runs.len(), 1);
    assert_eq!(
        evs,
        vec![
            StreamEvent::GridStart { cells: 1 },
            StreamEvent::CellStart {
                cell: 0,
                label: cells[0].label(),
            },
            StreamEvent::CellDone {
                cell: 0,
                cycles: runs[0].cycles,
            },
            StreamEvent::GridDone { cells: 1 },
        ]
    );
}
