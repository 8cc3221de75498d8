//! Performance baseline harness: times the canonical experiment grid
//! serially and through the cell-parallel engine, verifies the two are
//! equivalent, and writes a machine-readable `BENCH_perf.json`.
//!
//! ```text
//! cargo run --release -p ascoma-bench --bin perf_baseline
//! cargo run --release -p ascoma-bench --bin perf_baseline -- \
//!     --grid reduced --check --out BENCH_perf.json
//! ```
//!
//! Options:
//! - `--grid full|reduced` — full is 6 apps x 21 figure cells (the
//!   paper grid); reduced is 2 apps x 9 cells (CI smoke).
//! - `--jobs N` — parallel worker count (default `ASCOMA_JOBS`, else
//!   available parallelism).
//! - `--check` — exit non-zero unless every parallel `RunResult` is
//!   field-for-field identical to its serial counterpart.
//! - `--out PATH` — where to write the JSON (default `BENCH_perf.json`).
//! - `--progress` — print one line per completed cell with wall-clock
//!   and ETA (markers-only streaming, so measured timings stay honest).

use ascoma::experiments::{figure_cells, figure_grid, run_cells, Cell, StreamSpec};
use ascoma::parallel::effective_jobs;
use ascoma::result::RunResult;
use ascoma::SimConfig;
use ascoma_bench::pacing::Clock;
use ascoma_bench::watch::{line_for, WatchState};
use ascoma_bench::{die, jobs, text, value};
use ascoma_obs::StreamEvent;
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::Instant;

struct Args {
    grid: String,
    jobs: Option<usize>,
    check: bool,
    out: String,
    progress: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        grid: "full".into(),
        jobs: None,
        check: false,
        out: "BENCH_perf.json".into(),
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--grid" => {
                let grid = |v: &str| ["full", "reduced"].contains(&v).then(|| v.to_string());
                args.grid = value(&mut it, &a, grid);
            }
            "--jobs" | "-j" => args.jobs = Some(value(&mut it, &a, jobs)),
            "--check" => args.check = true,
            "--out" => args.out = value(&mut it, &a, text),
            "--progress" => args.progress = true,
            "--help" | "-h" => {
                eprintln!("options: --grid full|reduced --jobs N --check --out PATH --progress");
                std::process::exit(0);
            }
            other => die(&format!("unknown option '{other}'")),
        }
    }
    args
}

/// Run the grid's cells across `jobs` workers; with `progress`, print
/// one stderr line per cell start and finish, with wall-clock elapsed and
/// a deterministic-input ETA.
///
/// Progress uses markers-only streaming (cadence 0), so every cell still
/// runs the uninstrumented `simulate` path and the measured timings stay
/// honest; the consumer prints from this thread while workers simulate.
fn run_grid(cells: &[Cell<'_>], jobs: usize, progress: bool, phase: &str) -> Vec<RunResult> {
    if !progress {
        return run_cells(cells, jobs, None);
    }
    let (tx, rx) = mpsc::channel();
    let spec = StreamSpec::new(tx, 0, 0);
    std::thread::scope(|s| {
        let worker = s.spawn(|| run_cells(cells, jobs, Some(&spec)));
        let mut st = WatchState::new(phase);
        let clock = Clock::start();
        while let Ok(ev) = rx.recv() {
            st.elapsed_secs = clock.elapsed_secs();
            let ev = st.stamped(ev);
            st.apply(&ev);
            if let Some(line) = line_for(&st, &ev) {
                eprintln!("  {line}");
            }
            if matches!(ev, StreamEvent::GridDone { .. }) {
                break;
            }
        }
        worker
            .join()
            .unwrap_or_else(|_| die("progress worker panicked"))
    })
}

// The baseline's wall-clock sections (trace build, serial, parallel)
// are measurements, the one place Instant is allowed.
#[allow(clippy::disallowed_methods)]
fn main() {
    let args = parse_args();
    let base = SimConfig::default();
    let (apps, pressures, size) = if args.grid == "full" {
        (
            App::ALL.to_vec(),
            ascoma::experiments::PAPER_PRESSURES.to_vec(),
            SizeClass::Default,
        )
    } else {
        (vec![App::Em3d, App::Lu], vec![0.1, 0.9], SizeClass::Default)
    };
    let jobs = effective_jobs(args.jobs);
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_app = figure_cells(&pressures, base.pressure).len();
    let ncells = apps.len() * per_app;

    eprintln!(
        "perf_baseline: grid={} ({} apps x {per_app} cells = {ncells}), jobs={jobs}, host cores={host_cores}",
        args.grid,
        apps.len(),
    );

    let t0 = Instant::now();
    let traces: Vec<Trace> = apps
        .iter()
        .map(|a| a.build(size, base.geometry.page_bytes()))
        .collect();
    let build_secs = t0.elapsed().as_secs_f64();
    let cells = figure_grid(&traces, &pressures, &base);

    // `--progress` streams markers only: same uninstrumented simulate
    // path per cell, so both variants produce identical results and
    // comparable timings (one consumer thread printing aside).
    let run = |jobs: usize, phase: &str| run_grid(&cells, jobs, args.progress, phase);

    let t1 = Instant::now();
    let serial = run(1, "serial grid");
    let serial_secs = t1.elapsed().as_secs_f64();
    eprintln!(
        "serial  : {serial_secs:.3}s ({:.1} cells/s)",
        ncells as f64 / serial_secs
    );

    // On a single-core host the parallel leg would re-run the whole
    // grid only to time the same engine under scheduler round-robin:
    // skip it and record `"parallel": null` so downstream tooling can
    // tell "skipped" from "ran slowly".
    let parallel: Option<(Vec<RunResult>, f64)> = if host_cores > 1 {
        let t2 = Instant::now();
        let runs = run(jobs, "parallel grid");
        let parallel_secs = t2.elapsed().as_secs_f64();
        eprintln!(
            "parallel: {parallel_secs:.3}s ({:.1} cells/s, {jobs} jobs)",
            ncells as f64 / parallel_secs
        );
        Some((runs, parallel_secs))
    } else {
        eprintln!("parallel: skipped (host_cores=1; nothing to parallelize against)");
        None
    };
    // A serial-vs-parallel ratio only measures the engine when there is
    // real parallelism; on a single-core host (or with --jobs 1) it is
    // just timing noise, so flag it and omit the number.
    let speedup_meaningful = parallel.is_some() && jobs > 1;
    if let Some((_, parallel_secs)) = &parallel {
        let speedup = serial_secs / parallel_secs;
        if speedup_meaningful {
            eprintln!("speedup : {speedup:.2}x");
        } else {
            eprintln!(
                "speedup : n/a (host_cores={host_cores}, jobs={jobs}; comparison not meaningful)"
            );
        }
    }

    // With the parallel leg skipped there is nothing to compare, which
    // is vacuously equivalent (and `--check` has nothing to fail on).
    let equivalent = match &parallel {
        Some((runs, _)) => serial == *runs,
        None => true,
    };
    if args.check && !equivalent {
        let bad = parallel
            .as_ref()
            .and_then(|(runs, _)| serial.iter().zip(runs).position(|(s, p)| s != p))
            .unwrap_or(0);
        eprintln!("FAIL: parallel result diverges from serial at cell {bad}");
        std::process::exit(1);
    }
    eprintln!(
        "equivalence: {}",
        if equivalent { "identical" } else { "DIVERGED" }
    );

    // Per-layer counters over the whole (serial) grid: how much machine
    // the harness exercised per wall-second.
    let sim_cycles: u64 = serial.iter().map(|r| r.cycles).sum();
    let miss_total: u64 = serial.iter().map(|r| r.miss.total()).sum();
    let miss_remote: u64 = serial
        .iter()
        .map(|r| r.miss.conf_capc + r.miss.coherence)
        .sum();
    let miss_scoma: u64 = serial.iter().map(|r| r.miss.scoma).sum();
    let net_messages: u64 = serial.iter().map(|r| r.net_messages).sum();
    let upgrades: u64 = serial.iter().map(|r| r.kernel.upgrades).sum();
    let downgrades: u64 = serial.iter().map(|r| r.kernel.downgrades).sum();
    let daemon_runs: u64 = serial.iter().map(|r| r.kernel.daemon_runs).sum();
    let proto_fetches: u64 = serial
        .iter()
        .map(|r| r.proto.fetch_local + r.proto.fetch_2hop + r.proto.fetch_3hop)
        .sum();

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"grid\": \"{}\",", args.grid);
    let _ = writeln!(
        json,
        "  \"apps\": [{}],",
        apps.iter()
            .map(|a| format!("\"{}\"", a.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "  \"pressures\": [{}],",
        pressures
            .iter()
            .map(|p| format!("{p}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"cells\": {ncells},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"trace_build_secs\": {build_secs:.6},");
    let _ = writeln!(
        json,
        "  \"serial\": {{ \"wall_secs\": {serial_secs:.6}, \"cells_per_sec\": {:.3} }},",
        ncells as f64 / serial_secs
    );
    match &parallel {
        Some((_, parallel_secs)) => {
            let _ = writeln!(
                json,
                "  \"parallel\": {{ \"wall_secs\": {parallel_secs:.6}, \"cells_per_sec\": {:.3} }},",
                ncells as f64 / parallel_secs
            );
        }
        None => {
            let _ = writeln!(json, "  \"parallel\": null,");
        }
    }
    let _ = writeln!(json, "  \"speedup_meaningful\": {speedup_meaningful},");
    if let Some((_, parallel_secs)) = &parallel {
        if speedup_meaningful {
            let _ = writeln!(json, "  \"speedup\": {:.3},", serial_secs / parallel_secs);
        }
    }
    let _ = writeln!(json, "  \"equivalent\": {equivalent},");
    let _ = writeln!(json, "  \"counters\": {{");
    let _ = writeln!(json, "    \"sim_cycles\": {sim_cycles},");
    let _ = writeln!(json, "    \"shared_misses\": {miss_total},");
    let _ = writeln!(json, "    \"remote_conflict_misses\": {miss_remote},");
    let _ = writeln!(json, "    \"scoma_page_cache_hits\": {miss_scoma},");
    let _ = writeln!(json, "    \"net_messages\": {net_messages},");
    let _ = writeln!(json, "    \"proto_fetches\": {proto_fetches},");
    let _ = writeln!(json, "    \"page_upgrades\": {upgrades},");
    let _ = writeln!(json, "    \"page_downgrades\": {downgrades},");
    let _ = writeln!(json, "    \"daemon_runs\": {daemon_runs}");
    let _ = writeln!(json, "  }},");
    // Per-layer throughput: deterministic counters over the measured
    // serial wall time.  Advisory (host-speed-dependent) — `bench diff`
    // ignores them; they answer "which layer got slower" across runs of
    // the same host, complementing the per-layer replays of `benchmark trace`.
    let per_sec = |count: u64| count as f64 / serial_secs;
    let _ = writeln!(json, "  \"rates\": {{");
    let _ = writeln!(
        json,
        "    \"sim_cycles_per_sec\": {:.0},",
        per_sec(sim_cycles)
    );
    let _ = writeln!(
        json,
        "    \"shared_misses_per_sec\": {:.0},",
        per_sec(miss_total)
    );
    let _ = writeln!(
        json,
        "    \"net_messages_per_sec\": {:.0},",
        per_sec(net_messages)
    );
    let _ = writeln!(
        json,
        "    \"proto_fetches_per_sec\": {:.0}",
        per_sec(proto_fetches)
    );
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    std::fs::write(&args.out, &json).unwrap_or_else(|e| die(&format!("write {}: {e}", args.out)));
    eprintln!("wrote {}", args.out);
}
