//! # ascoma — AS-COMA: An Adaptive Hybrid Shared Memory Architecture
//!
//! A cycle-approximate, execution-structure-driven simulator reproducing
//! Kuo, Carter, Kuramkote & Swanson, *AS-COMA: An Adaptive Hybrid Shared
//! Memory Architecture* (ICPP 1998).  Five distributed-shared-memory
//! architectures — CC-NUMA, pure S-COMA, R-NUMA, VC-NUMA and AS-COMA —
//! run over common substrates (L1/RAC caches, banked DRAM, split-
//! transaction busses, a switch interconnect with input-port contention,
//! a block-grained write-invalidate directory with refetch counters, and
//! a 4.4BSD-style VM kernel with a second-chance pageout daemon) across
//! the paper's six benchmarks and memory pressures from 10% to 90%.
//!
//! ## Quick start
//!
//! ```
//! use ascoma::{simulate, Arch, SimConfig};
//! use ascoma_workloads::{App, SizeClass};
//!
//! let cfg = SimConfig::at_pressure(0.3);
//! let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
//! let result = simulate(&trace, Arch::AsComa, &cfg);
//! println!("{} cycles, {} remote misses",
//!          result.cycles, result.miss.remote());
//! ```
//!
//! An experiment is a list of [`Cell`]s — trace, architecture, whole
//! [`SimConfig`] — run once by [`run_cells`] across worker threads, with
//! results in cell order (see [`experiments`]).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every table and figure.

#![warn(missing_docs)]

pub mod analysis;
pub mod chart;
pub mod config;
pub mod experiments;
pub mod machine;
pub mod parallel;
pub mod policy;
pub mod presets;
pub mod probe;
pub mod report;
pub mod result;

pub use config::{Arch, PolicyParams, SimConfig};
pub use experiments::{figure_grid, run_cells, Cell, StreamSpec};
pub use machine::{
    simulate, simulate_measured_streamed, simulate_streamed, simulate_traced, simulate_with_sink,
    Machine,
};
pub use result::RunResult;
