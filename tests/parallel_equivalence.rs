//! The parallel engine's determinism contract: fanning cells across
//! worker threads must produce `RunResult`s field-for-field identical to
//! the serial path — including threshold trajectories and observability
//! digests — for every `(app, arch, pressure)` cell.

use ascoma::experiments::{assemble_figure, figure_grid, run_cells, Cell};
use ascoma::machine::simulate_traced;
use ascoma::parallel::run_indexed;
use ascoma::{Arch, SimConfig};
use ascoma_workloads::{App, SizeClass};

const APPS: [App; 2] = [App::Em3d, App::Radix];
const ARCHS: [Arch; 2] = [Arch::AsComa, Arch::RNuma];
const PRESSURES: [f64; 2] = [0.1, 0.9];

/// Every `(arch, pressure)` cell of `ARCHS x PRESSURES` over `trace`.
fn grid(trace: &ascoma_workloads::Trace) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    for arch in ARCHS {
        for p in PRESSURES {
            cells.push(Cell::new(trace, arch, SimConfig::at_pressure(p)));
        }
    }
    cells
}

#[test]
fn parallel_cells_identical_to_serial() {
    let base = SimConfig::default();
    for app in APPS {
        let trace = app.build(SizeClass::Tiny, base.geometry.page_bytes());
        let cells = grid(&trace);
        let parallel = run_cells(&cells, 4, None);
        for (cell, p) in cells.iter().zip(&parallel) {
            let s = ascoma::simulate(cell.trace, cell.arch, &cell.cfg);
            // Field-for-field; `RunResult: PartialEq` covers every field
            // including `threshold_trajectories` and the obs digest.
            assert_eq!(&s, p, "{}", cell.label());
            assert!(!s.threshold_trajectories.is_empty());
        }
    }
}

#[test]
fn traced_runs_agree_across_workers() {
    // The obs digest and event stream must also be reproduction-stable
    // when produced on worker threads.
    let mut cfg = SimConfig::at_pressure(0.7);
    cfg.obs_sample_period = 50_000;
    for app in APPS {
        let trace = app.build(SizeClass::Tiny, cfg.geometry.page_bytes());
        let (serial, serial_events) = simulate_traced(&trace, Arch::AsComa, &cfg);
        let traced = run_indexed(2, 2, |_| simulate_traced(&trace, Arch::AsComa, &cfg));
        for (r, events) in &traced {
            assert_eq!(&serial, r, "{app:?} traced run diverged");
            assert_eq!(&serial_events, events, "{app:?} event stream diverged");
            assert!(r.obs.is_some() && r.obs == serial.obs);
        }
    }
}

#[test]
fn figure_engine_identical_across_job_counts() {
    let base = SimConfig::default();
    for app in APPS {
        let traces = [app.build(SizeClass::Tiny, base.geometry.page_bytes())];
        let cells = figure_grid(&traces, &PRESSURES, &base);
        let serial = assemble_figure(app.name(), run_cells(&cells, 1, None));
        for jobs in [2, 4, 9] {
            let par = assemble_figure(app.name(), run_cells(&cells, jobs, None));
            assert_eq!(serial.baseline, par.baseline);
            assert_eq!(serial.bars.len(), par.bars.len());
            for (a, b) in serial.bars.iter().zip(&par.bars) {
                assert_eq!(a.run, b.run, "jobs={jobs}");
                assert_eq!(a.relative_time, b.relative_time, "jobs={jobs}");
            }
        }
    }
}

#[test]
fn sweep_jobs_produce_identical_grid() {
    let base = SimConfig::default();
    let trace = App::Ocean.build(SizeClass::Tiny, base.geometry.page_bytes());
    let cells = grid(&trace);
    assert_eq!(run_cells(&cells, 1, None), run_cells(&cells, 4, None));
}
