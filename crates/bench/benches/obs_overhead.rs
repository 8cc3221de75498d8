//! Overhead of the observability layer.
//!
//! Six variants of the same em3d/AS-COMA run at 70% pressure:
//!
//! * `baseline`       — plain `simulate` (no sink type parameter in play);
//! * `noop_sink`      — `Machine::with_sink(.., NoopSink)`: emission
//!   sites compiled away; must be within noise of baseline (<2%);
//! * `log_sink`       — full recording into an `EventLog`, the real cost
//!   of tracing;
//! * `stream_off`     — the cell-sweep streaming entry point
//!   (`run_cells`) with streaming disabled: must also stay
//!   within the 2% budget, so wiring telemetry through the sweep path
//!   costs nothing when nobody is watching;
//! * `observed`       — `simulate_measured_streamed`, the path behind
//!   `bench report`, `inspect trace` and `bench watch`: recording, the
//!   online lifecycle summary, the metrics registry and snapshots.  Its
//!   cost over baseline is printed per event, and its recorded log size
//!   in bytes per event, advisory only (no budget), next to the time to
//!   encode and to decode that log per event (what `bench report`,
//!   `inspect trace` and the JSONL export pay to read a whole log);
//! * `batched`        — the simulating thread's share of `observed`:
//!   events batched to a `BatchSink` whose worker discards them.  The
//!   observed path folds on that worker, so this is what observation
//!   still costs the thread that simulates, printed per event, advisory.
//!
//! The variants are sampled *interleaved* (A, B, C, A, B, C, ...) so that
//! clock-frequency drift over the bench's lifetime biases all of them
//! equally; sequential blocks were observed to skew later variants by
//! several percent on boost-clocked hosts.
//!
//! Plain timing harness (no criterion — the build is offline); run with
//! `cargo bench -p ascoma-bench --bench obs_overhead`.

use ascoma::experiments::{run_cells, Cell};
use ascoma::machine::{simulate, simulate_measured_streamed};
use ascoma::{Arch, Machine, SimConfig};
use ascoma_obs::{BatchSink, EventLog, NoopSink, Sink, TimedEvent};
use ascoma_workloads::{App, SizeClass};
use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 9;
const ITERS: usize = 3;

// Wall-clock reads are this harness's whole purpose.
#[allow(clippy::disallowed_methods)]
fn batch_ns(f: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ITERS {
        f();
    }
    t0.elapsed().as_nanos() as f64 / ITERS as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    let cfg = SimConfig::at_pressure(0.7);
    // The `observed` variant's window and snapshot cadence, in cycles.
    let obs_window = 100_000;

    let mut run_base = || {
        black_box(simulate(black_box(&trace), Arch::AsComa, black_box(&cfg)));
    };
    let mut run_noop = || {
        black_box(
            Machine::with_sink(black_box(&trace), Arch::AsComa, black_box(&cfg), NoopSink)
                .run_into(),
        );
    };
    let mut run_log = || {
        black_box(
            Machine::with_sink(
                black_box(&trace),
                Arch::AsComa,
                black_box(&cfg),
                EventLog::new(),
            )
            .run_into(),
        );
    };
    // Streaming disabled (`stream: None`): jobs=1 runs inline, so this
    // measures only what the sweep entry point adds around `simulate`.
    let cells = vec![Cell::new(&trace, Arch::AsComa, cfg)];
    let mut run_off = || {
        black_box(run_cells(black_box(&cells), 1, None));
    };
    let mut run_obs = || {
        black_box(simulate_measured_streamed(
            black_box(&trace),
            Arch::AsComa,
            black_box(&cfg),
            obs_window,
            obs_window,
            |s| {
                black_box(s);
            },
        ));
    };
    let mut run_batched = || {
        black_box(std::thread::scope(|scope| {
            Machine::with_sink(
                black_box(&trace),
                Arch::AsComa,
                black_box(&cfg),
                BatchSink::spawn(scope, NoopSink),
            )
            .run_into()
            .1
            .finish()
        }));
    };

    // Warm-up: one batch of each.
    run_base();
    run_noop();
    run_log();
    run_off();
    run_obs();
    run_batched();
    let (_r, recorded, _reg) =
        simulate_measured_streamed(&trace, Arch::AsComa, &cfg, obs_window, obs_window, |_| {});
    let log_bytes = recorded.byte_len() as f64;
    let events = recorded.len() as f64;
    let decoded: Vec<TimedEvent> = recorded.iter().collect();
    let mut encode = || {
        let mut log = EventLog::new();
        for te in black_box(&decoded) {
            log.emit(te.cycle, te.event);
        }
        black_box(log);
    };
    let mut decode = || {
        black_box(
            black_box(&recorded)
                .iter()
                .fold(0u64, |acc, te| acc ^ te.cycle),
        );
    };
    encode();
    decode();

    let mut base = Vec::with_capacity(SAMPLES);
    let mut noop = Vec::with_capacity(SAMPLES);
    let mut log = Vec::with_capacity(SAMPLES);
    let mut off = Vec::with_capacity(SAMPLES);
    let mut obs = Vec::with_capacity(SAMPLES);
    let mut batched = Vec::with_capacity(SAMPLES);
    let mut enc = Vec::with_capacity(SAMPLES);
    let mut dec = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        base.push(batch_ns(&mut run_base));
        noop.push(batch_ns(&mut run_noop));
        log.push(batch_ns(&mut run_log));
        off.push(batch_ns(&mut run_off));
        obs.push(batch_ns(&mut run_obs));
        batched.push(batch_ns(&mut run_batched));
        enc.push(batch_ns(&mut encode));
        dec.push(batch_ns(&mut decode));
    }

    let (base, noop, log, off, obs, batched) = (
        median(base),
        median(noop),
        median(log),
        median(off),
        median(obs),
        median(batched),
    );
    println!("obs/baseline   {base:>12.0} ns/iter");
    println!("obs/noop_sink  {noop:>12.0} ns/iter");
    println!("obs/log_sink   {log:>12.0} ns/iter");
    println!("obs/stream_off {off:>12.0} ns/iter");
    println!("obs/observed   {obs:>12.0} ns/iter");
    println!("obs/batched    {batched:>12.0} ns/iter");

    let overhead = noop / base - 1.0;
    let off_overhead = off / base - 1.0;
    println!("noop-sink overhead vs baseline:  {:+.2}%", overhead * 100.0);
    println!(
        "log-sink overhead vs baseline:   {:+.2}%",
        (log / base - 1.0) * 100.0
    );
    println!(
        "stream-off overhead vs baseline: {:+.2}%",
        off_overhead * 100.0
    );
    println!(
        "observed over baseline:          {:+.1} ns/event ({events:.0} events, advisory)",
        (obs - base) / events
    );
    println!(
        "observed on simulating thread:   {:+.1} ns/event (advisory)",
        (batched - base) / events
    );
    println!(
        "observed recorded log:           {:.2} bytes/event (advisory)",
        log_bytes / events
    );
    println!(
        "observed log encode:             {:.1} ns/event (advisory)",
        median(enc) / events
    );
    println!(
        "observed log decode:             {:.1} ns/event (advisory)",
        median(dec) / events
    );
    if overhead > 0.02 {
        println!("WARNING: no-op sink overhead exceeds the 2% budget");
        std::process::exit(1);
    }
    if off_overhead > 0.02 {
        println!("WARNING: disabled-streaming sweep overhead exceeds the 2% budget");
        std::process::exit(1);
    }
}
