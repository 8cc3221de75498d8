//! Memory-pressure sweep: reproduce the paper's core experiment for one
//! application — execution time of each architecture relative to CC-NUMA
//! as memory pressure rises from 10% to 90%.
//!
//! ```text
//! cargo run --release --example memory_pressure_sweep            # radix
//! cargo run --release --example memory_pressure_sweep -- barnes
//! ```

use ascoma::experiments::{assemble_figure, figure_grid, run_cells, PAPER_PRESSURES};
use ascoma::{report, SimConfig};
use ascoma_workloads::{App, SizeClass};

fn main() {
    let app = std::env::args()
        .nth(1)
        .map(|s| App::parse(&s).unwrap_or_else(|| panic!("unknown app '{s}'")))
        .unwrap_or(App::Radix);
    let cfg = SimConfig::default();
    let traces = [app.build(SizeClass::Default, cfg.geometry.page_bytes())];
    let cells = figure_grid(&traces, &PAPER_PRESSURES, &cfg);
    let data = assemble_figure(app.name(), run_cells(&cells, 1, None));
    print!("{}", report::figure(&data));

    // Pull out the paper's headline comparison: AS-COMA vs the other
    // hybrids at the lowest and highest pressures.
    let pick = |name: &str, p: f64| {
        data.bars
            .iter()
            .find(|b| b.run.arch.name() == name && (b.run.pressure - p).abs() < 1e-9)
            .map(|b| b.relative_time)
    };
    if let (Some(a_lo), Some(r_lo), Some(a_hi), Some(r_hi)) = (
        pick("ASCOMA", 0.1),
        pick("RNUMA", 0.1),
        pick("ASCOMA", 0.9),
        pick("RNUMA", 0.9),
    ) {
        println!(
            "\nAS-COMA vs R-NUMA on {}: {:+.1}% at 10% pressure, {:+.1}% at 90% pressure",
            data.app,
            (r_lo / a_lo - 1.0) * 100.0,
            (r_hi / a_hi - 1.0) * 100.0
        );
    }
}
