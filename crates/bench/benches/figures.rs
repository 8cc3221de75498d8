//! Benchmarks for the figure-regenerating experiments: one benchmark per
//! (application, architecture) chart column of Figures 2 and 3, at the
//! 50% pressure midpoint, measuring full-simulation throughput on the
//! tiny size class.
//!
//! Plain timing harness (no criterion — the build is offline); run with
//! `cargo bench -p ascoma-bench --bench figures`.

use ascoma::experiments::{run_cells, Cell};
use ascoma::{Arch, SimConfig};
use ascoma_bench::harness::bench;
use ascoma_workloads::{App, SizeClass};
use std::hint::black_box;

fn bench_figure(name: &str, apps: &[App]) {
    let cfg = SimConfig::at_pressure(0.5);
    for app in apps {
        for arch in [Arch::CcNuma, Arch::Scoma, Arch::AsComa] {
            bench(
                &format!("{name}/{}/{}", app.name(), arch.name()),
                5,
                2,
                || {
                    let trace = app.build(SizeClass::Tiny, cfg.geometry.page_bytes());
                    black_box(run_cells(&[Cell::new(&trace, arch, cfg)], 1, None))
                },
            );
        }
    }
}

fn main() {
    // Figure 2: barnes, em3d, fft.
    bench_figure("figure2", &[App::Barnes, App::Em3d, App::Fft]);
    // Figure 3: lu, ocean, radix.
    bench_figure("figure3", &[App::Lu, App::Ocean, App::Radix]);

    // Simulator throughput: memory operations per second through the full
    // access path (the number that bounds how big an input we can afford).
    let cfg = SimConfig::default();
    let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    let ops = trace.total_ops();
    let m = bench("throughput/em3d_tiny_ops", 5, 2, || {
        black_box(ascoma::machine::simulate(
            black_box(&trace),
            Arch::AsComa,
            &cfg,
        ))
    });
    let mops = ops as f64 / m.median_ns * 1e3;
    println!("throughput/em3d_tiny_ops: {mops:.2} M memory ops/s");
}
