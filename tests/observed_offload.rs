//! The observed entry points fold their events on a second thread:
//! the simulating thread batches events to one worker that owns the
//! recording log, the lifecycle summary and the metrics registry.  The
//! hand-off is FIFO, so every entry point must leave exactly what an
//! in-thread run over the same sink stack leaves: the same decoded
//! events, summary, metrics digest and snapshot sequence.

use ascoma::machine::{simulate_measured_streamed, simulate_streamed};
use ascoma::{Arch, Machine, RunResult, SimConfig};
use ascoma_obs::sink::BATCH;
use ascoma_obs::{EventLog, MetricsRegistry, Snapshot, StreamSink, SummaryFold};
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};
use std::thread::{self, ThreadId};

const WINDOW: u64 = 20_000;
const CADENCE: u64 = 40_000;

fn cfg() -> SimConfig {
    let mut cfg = SimConfig::at_pressure(0.9);
    cfg.obs_sample_period = 10_000;
    cfg
}

/// What an in-thread run over the measured entry points' sink stack
/// leaves behind.
struct Reference {
    result: RunResult,
    log: EventLog,
    registry: MetricsRegistry,
    snaps: Vec<Snapshot>,
}

fn reference(trace: &Trace, arch: Arch, cfg: &SimConfig) -> Reference {
    let mut snaps = Vec::new();
    let sink = StreamSink::new(
        (EventLog::new(), SummaryFold::new(trace.nodes)),
        trace.nodes,
        WINDOW,
        CADENCE,
        |s| snaps.push(s),
    );
    let (mut result, mut sink) = Machine::with_sink(trace, arch, cfg, sink).run_into();
    sink.snapshot_now(result.cycles);
    let ((log, summary), registry) = sink.into_parts();
    result.obs = Some(summary.finish());
    result.metrics = Some(registry.digest());
    Reference {
        result,
        log,
        registry,
        snaps,
    }
}

/// Snapshots with the thread each was delivered on.
type Delivered = Vec<(ThreadId, Snapshot)>;

#[test]
fn every_observed_entry_point_equals_an_in_thread_run() {
    let cfg = cfg();
    let caller = thread::current().id();
    for app in [App::Em3d, App::Radix, App::Barnes] {
        let trace = app.build(SizeClass::Tiny, cfg.geometry.page_bytes());
        for arch in [Arch::AsComa, Arch::Scoma] {
            let cell = format!("{}/{}", app.name(), arch.name());
            let want = reference(&trace, arch, &cfg);
            assert!(
                want.log.len() > 2 * BATCH,
                "{cell}: {} events do not fill batches",
                want.log.len()
            );
            assert!(
                want.snaps.len() > 2,
                "{cell}: cadence never fired in {} cycles",
                want.result.cycles
            );
            let plain = RunResult {
                obs: None,
                metrics: None,
                ..want.result.clone()
            };

            let mut got: Delivered = Vec::new();
            let (r, log, registry) =
                simulate_measured_streamed(&trace, arch, &cfg, WINDOW, CADENCE, |s| {
                    got.push((thread::current().id(), s));
                });
            assert_eq!(r, want.result, "{cell}: measured_streamed result");
            assert_eq!(log, want.log, "{cell}: measured_streamed log");
            assert!(log.iter().eq(want.log.iter()), "{cell}: decoded events");
            assert_eq!(
                registry, want.registry,
                "{cell}: measured_streamed registry"
            );
            assert_snaps(&cell, caller, got, &want.snaps);

            let mut got: Delivered = Vec::new();
            let (r, registry) = simulate_streamed(&trace, arch, &cfg, WINDOW, CADENCE, |s| {
                got.push((thread::current().id(), s));
            });
            assert_eq!(r, plain, "{cell}: streamed result");
            assert_eq!(registry, want.registry, "{cell}: streamed registry");
            assert_snaps(&cell, caller, got, &want.snaps);
        }
    }
}

/// `got` is `want` in full (seq, cycle, content).  Every snapshot but
/// the final end-of-run frame is delivered on the worker; that one is
/// taken on the caller after the worker is joined.
fn assert_snaps(cell: &str, caller: ThreadId, got: Delivered, want: &[Snapshot]) {
    let (threads, snaps): (Vec<ThreadId>, Vec<Snapshot>) = got.into_iter().unzip();
    assert_eq!(snaps, want, "{cell}: snapshot sequence");
    let (last, live) = threads.split_last().expect("a final frame");
    assert_eq!(*last, caller, "{cell}: final frame");
    assert!(
        live.iter().all(|t| *t != caller),
        "{cell}: live snapshots run on the worker"
    );
}
