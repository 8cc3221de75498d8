//! Benchmarks for the table-regenerating experiments: one benchmark per
//! paper table, measuring the simulator work that produces it.  (Table 2
//! and Table 3 are configuration dumps with no simulation; they are
//! covered by the probe/census benches' setup costs.)
//!
//! Plain timing harness (no criterion — the build is offline); run with
//! `cargo bench -p ascoma-bench --bench tables`.

use ascoma::experiments::{run_cells, table6_cell, Cell};
use ascoma::probe::probe_table4;
use ascoma::{Arch, SimConfig};
use ascoma_bench::harness::bench;
use ascoma_workloads::analyze::profile;
use ascoma_workloads::{App, SizeClass};
use std::hint::black_box;

fn main() {
    let cfg = SimConfig::default();
    let page_bytes = cfg.geometry.page_bytes();

    // Table 1: measured overhead terms need one run per architecture;
    // bench the canonical (em3d, 50%) cell per architecture.
    for arch in [Arch::CcNuma, Arch::Scoma, Arch::AsComa] {
        bench(&format!("table1/{}", arch.name()), 5, 2, || {
            let trace = App::Em3d.build(SizeClass::Tiny, page_bytes);
            let cell = Cell::new(&trace, arch, SimConfig::at_pressure(0.5));
            black_box(run_cells(&[cell], 1, None))
        });
    }

    // Table 4: the four differential latency probes.
    bench("table4/probe", 5, 2, || {
        black_box(probe_table4(black_box(&cfg)))
    });

    // Table 5: static workload profiling of all six applications.
    for app in App::ALL {
        bench(&format!("table5/{}", app.name()), 5, 2, || {
            let t = app.build(SizeClass::Tiny, 4096);
            black_box(profile(&t, 4096))
        });
    }

    // Table 6: the R-NUMA relocation census at 10% pressure.
    for app in [App::Radix, App::Fft] {
        bench(&format!("table6/{}", app.name()), 5, 2, || {
            let trace = app.build(SizeClass::Tiny, page_bytes);
            black_box(run_cells(&[table6_cell(&trace, black_box(&cfg))], 1, None))
        });
    }
}
