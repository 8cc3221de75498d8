//! The benchmark's three workloads: which simulation cells each runs,
//! why, and how its traces are built from the seed.
//!
//! A cell is one `(app, arch, pressure)` simulation that starts with
//! empty simulated caches.  Load is closed-loop and batch: a pass runs
//! every cell of its workload once, serially, and the work is fixed by
//! the input sizes below, not by an arrival rate.

use ascoma::experiments::{figure_cells, PAPER_PRESSURES};
use ascoma::{Arch, SimConfig};
use ascoma_sim::Cycles;
use ascoma_workloads::apps::{em3d::Em3dParams, radix::RadixParams};
use ascoma_workloads::{App, SizeClass, Trace};

/// Sampler period of the observed workload's cells, in simulated cycles.
pub const OBS_SAMPLE_PERIOD: Cycles = 100_000;
/// Metrics window and snapshot cadence of the observed workload's cells.
pub const OBS_WINDOW: Cycles = 1_000_000;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Cells run through the streamed, measured path (event emission,
    /// metrics registry, snapshots) instead of the no-op sink.
    pub observed: bool,
    /// Host seconds one full-size pass takes on the reference host (a
    /// 2-core container); `--seconds` divided by this is the pass count,
    /// so the amount of work measured never depends on the host's speed.
    nominal_pass_s: f64,
}

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    // em3d at Default size: 11.8 M ops per cell and 46% of them miss
    // L1, yet at most 9.5% of misses go remote.  The per-access front
    // end (trace replay, scheduler, TLB, L1, page table, dispatch, local
    // memory) does the work; directory, network and pageout idle.
    Workload {
        name: "em3d-local",
        observed: false,
        nominal_pass_s: 9.0,
    },
    // radix at Paper size and barnes at Default size, every figure
    // cell: almost every access misses L1 and up to a third (radix) or
    // over half (barnes) of misses go remote; S-COMA cells above 0.3
    // pressure run the pageout daemon thousands of times.  Directory,
    // network, frame pool, pageout and remap/flush dominate.
    Workload {
        name: "remote-thrash",
        observed: false,
        nominal_pass_s: 9.3,
    },
    // The same kinds of machine work as above, but every op emits
    // 0.5–1.8 events into the recording sink, the metrics registry and
    // the snapshot stream: the path behind `bench report`, `inspect
    // trace` and `bench watch`.
    Workload {
        name: "observed",
        observed: true,
        nominal_pass_s: 5.3,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Input scale: the measured size, or the Tiny smoke-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the workloads are defined at.
    Full,
    /// Tiny traces, one pass: exercises every path in seconds.
    Smoke,
}

/// One simulation: `trace` indexes the workload's trace list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Index into [`Workload::apps`].
    pub trace: usize,
    /// Architecture simulated.
    pub arch: Arch,
    /// Memory pressure.
    pub pressure: f64,
}

impl Workload {
    /// The applications whose traces the cells run, in trace-index order.
    pub fn apps(&self) -> Vec<App> {
        match self.name {
            "em3d-local" => vec![App::Em3d],
            "remote-thrash" => vec![App::Radix, App::Barnes],
            _ => vec![App::Em3d, App::Radix, App::Barnes, App::Lu],
        }
    }

    /// The cells of one pass, in run order.
    pub fn cells(&self) -> Vec<Cell> {
        let on = |trace: usize, list: Vec<(Arch, f64)>| {
            list.into_iter().map(move |(arch, pressure)| Cell {
                trace,
                arch,
                pressure,
            })
        };
        let base = SimConfig::default().pressure;
        match self.name {
            "em3d-local" => on(0, figure_cells(&[0.1, 0.5, 0.9], base)).collect(),
            "remote-thrash" => on(0, figure_cells(&PAPER_PRESSURES, base))
                .chain(on(1, figure_cells(&PAPER_PRESSURES, base)))
                .collect(),
            _ => on(0, vec![(Arch::AsComa, 0.7), (Arch::Scoma, 0.9)])
                .chain(on(1, vec![(Arch::AsComa, 0.9), (Arch::Scoma, 0.9)]))
                .chain(on(2, vec![(Arch::Scoma, 0.9), (Arch::AsComa, 0.9)]))
                .chain(on(3, vec![(Arch::AsComa, 0.9)]))
                .collect(),
        }
    }

    /// Measured passes for a run of `seconds` (at least one).
    pub fn passes(&self, size: Size, seconds: u32) -> usize {
        match size {
            Size::Smoke => 1,
            Size::Full => ((seconds as f64 / self.nominal_pass_s) as usize).max(1),
        }
    }

    /// The simulator configuration of `cell`.
    pub fn config(&self, cell: &Cell) -> SimConfig {
        let mut cfg = SimConfig::at_pressure(cell.pressure);
        if self.observed {
            cfg.obs_sample_period = OBS_SAMPLE_PERIOD;
        }
        cfg
    }

    /// Build trace `index` of this workload.
    pub fn build(&self, index: usize, size: Size, seed: u64) -> Trace {
        build(self.apps()[index], size, seed)
    }
}

/// Build `app`'s trace.  em3d runs at Default size and radix at Paper
/// size (4096 shared pages); barnes and lu run at Default size.  The
/// seed is XORed into the em3d and radix generators' built-in seeds, so
/// seed 0 gives the traces behind the committed figures; barnes, fft,
/// lu and ocean are seedless structural generators.
pub fn build(app: App, size: Size, seed: u64) -> Trace {
    let page_bytes = SimConfig::default().geometry.page_bytes();
    let tiny = size == Size::Smoke;
    match app {
        App::Em3d => {
            let p = if tiny {
                Em3dParams::tiny()
            } else {
                Em3dParams::default()
            };
            Em3dParams {
                seed: p.seed ^ seed,
                ..p
            }
            .build(page_bytes)
        }
        App::Radix => {
            let p = if tiny {
                RadixParams::tiny()
            } else {
                RadixParams::paper()
            };
            RadixParams {
                seed: p.seed ^ seed,
                ..p
            }
            .build(page_bytes)
        }
        other => other.build(
            if tiny {
                SizeClass::Tiny
            } else {
                SizeClass::Default
            },
            page_bytes,
        ),
    }
}

/// Whether `app`'s generator takes the seed.
pub fn seeded(app: App) -> bool {
    matches!(app, App::Em3d | App::Radix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_lists_have_the_stated_sizes() {
        let n: Vec<usize> = WORKLOADS.iter().map(|w| w.cells().len()).collect();
        assert_eq!(n, vec![13, 42, 7]);
        for w in WORKLOADS {
            let apps = w.apps();
            assert!(w.cells().iter().all(|c| c.trace < apps.len()));
            assert_eq!(find(w.name), Some(w));
        }
    }

    #[test]
    fn pass_counts_follow_the_run_length() {
        let p: Vec<usize> = WORKLOADS.iter().map(|w| w.passes(Size::Full, 28)).collect();
        assert_eq!(p, vec![3, 3, 5]);
        assert_eq!(WORKLOADS[0].passes(Size::Full, 1), 1);
        assert_eq!(WORKLOADS[2].passes(Size::Smoke, 30), 1);
    }

    #[test]
    fn seed_zero_is_the_figure_trace_and_others_differ() {
        let fig = App::Radix.build(SizeClass::Tiny, 4096);
        let zero = build(App::Radix, Size::Smoke, 0);
        let seven = build(App::Radix, Size::Smoke, 7);
        let ops = |t: &Trace| -> Vec<u64> {
            t.programs[0]
                .segments
                .iter()
                .flat_map(|s| s.ops.iter().map(|o| o.0))
                .collect()
        };
        assert_eq!(ops(&fig), ops(&zero));
        assert_ne!(ops(&zero), ops(&seven));
    }
}
