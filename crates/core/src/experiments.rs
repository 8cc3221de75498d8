//! Experiment grids: the cross-products behind the paper's figures and
//! tables, and the one runner that executes them.
//!
//! The paper simulates each application across the five architectures and
//! memory pressures from 10% to 90% (CC-NUMA once, being pressure-
//! independent).  Every experiment in this repo is a list of [`Cell`]s —
//! a trace, an architecture and the whole [`SimConfig`] it runs under —
//! handed once to [`run_cells`], which fans them across worker threads
//! and returns results in cell order.

use crate::config::{Arch, SimConfig};
use crate::machine::{simulate, simulate_streamed};
use crate::result::RunResult;
use ascoma_obs::StreamEvent;
use ascoma_sim::Cycles;
use ascoma_workloads::trace::Trace;
use std::sync::{mpsc, Mutex};

/// The pressure grid of the paper's charts.
pub const PAPER_PRESSURES: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

/// One bar of a figure: an `(arch, pressure)` run plus its relative time.
#[derive(Debug, Clone)]
pub struct FigureBar {
    /// The run's results.
    pub run: RunResult,
    /// Execution time relative to the CC-NUMA baseline.
    pub relative_time: f64,
}

/// The data behind one application's pair of charts.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Application name.
    pub app: String,
    /// The CC-NUMA baseline run.
    pub baseline: RunResult,
    /// All bars, in chart order (CC-NUMA first, then each architecture
    /// across pressures).
    pub bars: Vec<FigureBar>,
}

/// The canonical cell list behind one figure: the CC-NUMA baseline first
/// (at the base config's pressure — CC-NUMA is pressure-independent), then
/// each hybrid architecture across `pressures`, in chart order.
pub fn figure_cells(pressures: &[f64], base_pressure: f64) -> Vec<(Arch, f64)> {
    let mut cells = vec![(Arch::CcNuma, base_pressure)];
    for arch in [Arch::Scoma, Arch::AsComa, Arch::VcNuma, Arch::RNuma] {
        for &p in pressures {
            cells.push((arch, p));
        }
    }
    cells
}

/// Assemble a [`FigureData`] from runs in [`figure_cells`] order (the
/// baseline is `runs[0]`).
///
/// ```
/// use ascoma::experiments::{assemble_figure, figure_grid, run_cells};
/// use ascoma::SimConfig;
/// use ascoma_workloads::{App, SizeClass};
///
/// let base = SimConfig::default();
/// let traces = [App::Ocean.build(SizeClass::Tiny, base.geometry.page_bytes())];
/// let cells = figure_grid(&traces, &[0.5], &base);
/// let data = assemble_figure("ocean", run_cells(&cells, 2, None));
/// // 1 CC-NUMA baseline bar + 4 architectures x 1 pressure.
/// assert_eq!(data.bars.len(), 5);
/// assert_eq!(data.bars[0].relative_time, 1.0);
/// ```
pub fn assemble_figure(app: &str, runs: Vec<RunResult>) -> FigureData {
    let baseline = runs[0].clone();
    let bars = runs
        .into_iter()
        .enumerate()
        .map(|(i, run)| {
            let relative_time = if i == 0 {
                1.0
            } else {
                run.relative_to(&baseline)
            };
            FigureBar { run, relative_time }
        })
        .collect();
    FigureData {
        app: app.to_string(),
        baseline,
        bars,
    }
}

/// The Table 6 census cell for `trace`: R-NUMA at 10% memory pressure —
/// "the percentage of remote pages that are refetched at least [threshold]
/// times, and thus will be remapped from CC-NUMA to S-COMA mode in R-NUMA
/// or VC-NUMA, versus the total number of remote pages accessed."  The
/// run's `remote_page_node_pairs`, `relocated_page_node_pairs` and
/// `relocated_fraction()` are the table's row.
pub fn table6_cell<'t>(trace: &'t Trace, base: &SimConfig) -> Cell<'t> {
    let cfg = SimConfig {
        pressure: 0.1,
        ..*base
    };
    Cell::new(trace, Arch::RNuma, cfg)
}

/// Where a streamed sweep sends its progress, and how often.
///
/// Holds the producing half of an `mpsc` channel of [`StreamEvent`]s.
/// The sender sits behind a `Mutex` only so the spec can be shared by
/// reference across the worker pool (`mpsc::Sender` is `Send` but not
/// `Sync`); each worker clones a private sender once per cell, so the
/// lock is touched O(cells) times, never per event.
#[derive(Debug)]
pub struct StreamSpec {
    tx: Mutex<mpsc::Sender<StreamEvent>>,
    /// Snapshot cadence in simulated cycles.  0 = markers only: cells
    /// run completely uninstrumented ([`simulate`]'s `NoopSink` path)
    /// and the stream carries just start/finish events — the mode
    /// `perf_baseline --progress` uses so measured timings stay honest.
    pub cadence: Cycles,
    /// Registry series window for instrumented cells (0 disables).
    pub window: Cycles,
}

impl StreamSpec {
    /// A spec streaming to `tx` with the given cadence and window.
    pub fn new(tx: mpsc::Sender<StreamEvent>, cadence: Cycles, window: Cycles) -> Self {
        Self {
            tx: Mutex::new(tx),
            cadence,
            window,
        }
    }

    fn sender(&self) -> mpsc::Sender<StreamEvent> {
        // A poisoned lock only means another worker panicked while
        // cloning; the sender inside is still fine to clone.
        match self.tx.lock() {
            Ok(g) => g.clone(),
            Err(e) => e.into_inner().clone(),
        }
    }
}

/// One schedulable cell: a (pre-built) trace, an architecture, and the
/// whole configuration the run uses.  A cell is a deterministic function
/// of these three, which is what lets [`run_cells`] run any list of them
/// in any order and still return byte-identical results.
#[derive(Debug, Clone)]
pub struct Cell<'t> {
    /// The trace to run.
    pub trace: &'t Trace,
    /// Architecture under test.
    pub arch: Arch,
    /// The full configuration of this run (pressure included).
    pub cfg: SimConfig,
}

impl<'t> Cell<'t> {
    /// A cell running `trace` on `arch` under `cfg`.
    pub fn new(trace: &'t Trace, arch: Arch, cfg: SimConfig) -> Self {
        Self { trace, arch, cfg }
    }

    /// Display label, e.g. `em3d/ASCOMA@0.50`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}@{:.2}",
            self.trace.name,
            self.arch.name(),
            self.cfg.pressure
        )
    }
}

/// The cells of a whole figure grid: every trace's [`figure_cells`],
/// traces in caller order, each cell `base` at its pressure.  Assemble
/// each trace's consecutive run of results with [`assemble_figure`].
pub fn figure_grid<'t>(traces: &'t [Trace], pressures: &[f64], base: &SimConfig) -> Vec<Cell<'t>> {
    let mut cells = Vec::new();
    for trace in traces {
        for (arch, pressure) in figure_cells(pressures, base.pressure) {
            cells.push(Cell::new(trace, arch, SimConfig { pressure, ..*base }));
        }
    }
    cells
}

/// Run `cells` across up to `jobs` workers, optionally streaming
/// progress, and return results in cell order.  This is the one cell
/// runner: figures, tables, ablations, `bench watch` and `perf_baseline`
/// all build a cell list and call it once.
///
/// With `stream == None` each cell runs the uninstrumented [`simulate`].
/// With a spec, each worker sends [`StreamEvent::CellStart`], then (if
/// `cadence > 0`) runs instrumented via [`simulate_streamed`] forwarding
/// per-cell [`StreamEvent::Snap`]s, then sends [`StreamEvent::CellDone`];
/// the caller's receiver is the aggregator that orders nothing and
/// merely tallies.  `GridStart`/`GridDone` bracket the whole sweep.
///
/// Streaming cannot change results: instrumentation only observes, so
/// the returned `Vec<RunResult>` is byte-identical across `stream` on /
/// off and across job counts (`tests/streaming.rs`).  Send failures are
/// ignored — a detached viewer never stalls or kills a sweep.
///
/// Any cross product is a cell list; here two architectures by two
/// pressures:
///
/// ```
/// use ascoma::experiments::{run_cells, Cell};
/// use ascoma::{Arch, SimConfig};
/// use ascoma_workloads::{App, SizeClass};
///
/// let base = SimConfig::default();
/// let trace = App::Ocean.build(SizeClass::Tiny, base.geometry.page_bytes());
/// let mut cells = Vec::new();
/// for arch in [Arch::CcNuma, Arch::AsComa] {
///     for pressure in [0.1, 0.9] {
///         cells.push(Cell::new(&trace, arch, SimConfig { pressure, ..base }));
///     }
/// }
/// let runs = run_cells(&cells, 2, None);
/// assert_eq!(runs.len(), 4);
/// let best = runs.iter().map(|r| r.cycles).min().unwrap();
/// assert!(runs.iter().all(|r| r.cycles >= best));
/// ```
pub fn run_cells(cells: &[Cell<'_>], jobs: usize, stream: Option<&StreamSpec>) -> Vec<RunResult> {
    if let Some(sp) = stream {
        let _ = sp.sender().send(StreamEvent::GridStart {
            cells: cells.len() as u64,
        });
    }
    let runs = crate::parallel::run_indexed(cells.len(), jobs, |i| {
        let cell = &cells[i];
        let mut cfg = cell.cfg;
        let Some(sp) = stream else {
            return simulate(cell.trace, cell.arch, &cfg);
        };
        let tx = sp.sender();
        let _ = tx.send(StreamEvent::CellStart {
            cell: i as u64,
            label: cell.label(),
        });
        let run = if sp.cadence == 0 {
            simulate(cell.trace, cell.arch, &cfg)
        } else {
            // Populated node gauges need the periodic sampler; default
            // it to the snapshot cadence when the caller left it off.
            if cfg.obs_sample_period == 0 {
                cfg.obs_sample_period = sp.cadence;
            }
            let snap_tx = tx.clone();
            let (run, _registry) = simulate_streamed(
                cell.trace,
                cell.arch,
                &cfg,
                sp.window,
                sp.cadence,
                move |snap| {
                    let _ = snap_tx.send(StreamEvent::Snap {
                        cell: i as u64,
                        snap,
                    });
                },
            );
            run
        };
        let _ = tx.send(StreamEvent::CellDone {
            cell: i as u64,
            cycles: run.cycles,
        });
        run
    });
    if let Some(sp) = stream {
        let _ = sp.sender().send(StreamEvent::GridDone {
            cells: cells.len() as u64,
        });
    }
    runs
}

/// `app`'s Tiny trace, for tests.
#[cfg(test)]
fn tiny(app: ascoma_workloads::App) -> Trace {
    app.build(
        ascoma_workloads::SizeClass::Tiny,
        SimConfig::default().geometry.page_bytes(),
    )
}

/// `app`'s figure at Tiny size, for the chart and report tests.
#[cfg(test)]
pub(crate) fn tiny_figure(app: ascoma_workloads::App, pressures: &[f64]) -> FigureData {
    let traces = [tiny(app)];
    let cells = figure_grid(&traces, pressures, &SimConfig::default());
    assemble_figure(app.name(), run_cells(&cells, 1, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_workloads::App;

    #[test]
    fn figure_contains_all_bars() {
        let data = tiny_figure(App::Ocean, &[0.1, 0.9]);
        // 1 CC-NUMA + 4 archs x 2 pressures.
        assert_eq!(data.bars.len(), 9);
        assert_eq!(data.bars[0].relative_time, 1.0);
        assert_eq!(data.app, "ocean");
    }

    #[test]
    fn table6_row_is_consistent() {
        let trace = tiny(App::Em3d);
        let r = &run_cells(&[table6_cell(&trace, &SimConfig::default())], 1, None)[0];
        assert_eq!((r.arch, r.pressure), (Arch::RNuma, 0.1));
        assert!(r.remote_page_node_pairs > 0);
        assert!(r.relocated_page_node_pairs <= r.remote_page_node_pairs);
        assert!((0.0..=1.0).contains(&r.relocated_fraction()));
        assert!(crate::report::table6(&[("em3d", r)]).contains("em3d"));
    }

    #[test]
    fn ablation_pairs_static_and_auto_runs() {
        // Cells may differ in any config field, not just pressure: here
        // the static and auto-tuned legs of the controller ablation.
        let trace = tiny(App::Em3d);
        let mut cells = Vec::new();
        for pressure in [0.5, 0.9] {
            for enabled in [false, true] {
                let mut cfg = SimConfig::at_pressure(pressure);
                cfg.controller.window = 50_000;
                cfg.controller.enabled = enabled;
                cells.push(Cell::new(&trace, Arch::AsComa, cfg));
            }
        }
        let runs = run_cells(&cells, 2, None);
        for pair in runs.chunks_exact(2) {
            assert!(pair[0].controller.is_none(), "static leg is untuned");
            assert!(pair[1].controller.is_some(), "auto leg carries a summary");
        }
        assert_eq!(runs, run_cells(&cells, 1, None));
    }

    #[test]
    fn run_cell_respects_pressure() {
        let trace = tiny(App::Ocean);
        let cell = Cell::new(&trace, Arch::Scoma, SimConfig::at_pressure(0.7));
        assert_eq!(cell.label(), "ocean/SCOMA@0.70");
        let r = &run_cells(&[cell], 1, None)[0];
        assert!((r.pressure - 0.7).abs() < 1e-12);
    }

    #[test]
    fn results_follow_cell_order() {
        let trace = tiny(App::Ocean);
        let mut cells = Vec::new();
        for arch in [Arch::CcNuma, Arch::Scoma] {
            for p in [0.2, 0.8] {
                cells.push(Cell::new(&trace, arch, SimConfig::at_pressure(p)));
            }
        }
        let runs = run_cells(&cells, 3, None);
        for (cell, run) in cells.iter().zip(&runs) {
            assert_eq!(run.arch, cell.arch);
            assert!((run.pressure - cell.cfg.pressure).abs() < 1e-12);
        }
    }

    #[test]
    fn cell_config_applies() {
        let trace = tiny(App::Ocean);
        let mut cfg = SimConfig::at_pressure(0.5);
        cfg.rac_bytes = 0;
        let runs = run_cells(&[Cell::new(&trace, Arch::CcNuma, cfg)], 1, None);
        assert_eq!(runs[0].miss.rac, 0);
    }
}
