//! Observability guarantees:
//!
//! * recording is deterministic — two identical runs produce
//!   byte-identical event streams;
//! * event streams obey causal ordering — a page is never evicted at a
//!   node before it was mapped there;
//! * the no-op sink is free — an instrumented-but-disabled run matches
//!   an uninstrumented run cycle-for-cycle;
//! * exports are well-formed — Chrome traces validate as JSON, JSONL
//!   writes one flat object per event, and the em3d/70% acceptance trace
//!   contains daemon epochs, back-off events and CC-NUMA→S-COMA
//!   upgrades;
//! * recorded logs are compact and canonical — real runs re-encode to
//!   the same bytes, at a pinned bound on bytes per event.

use ascoma::machine::{simulate, simulate_measured_streamed};
use ascoma::parallel::run_indexed;
use ascoma::{Arch, Machine, RunResult, SimConfig};
use ascoma_obs::export::{chrome_trace, jsonl_string};
use ascoma_obs::json::{parse, Json};
use ascoma_obs::{summarize, Event, EventLog, NoopSink, TimedEvent};
use ascoma_workloads::apps::em3d::Em3dParams;
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};

fn traced_cfg(pressure: f64) -> SimConfig {
    let mut cfg = SimConfig::at_pressure(pressure);
    cfg.obs_sample_period = 20_000;
    cfg
}

/// A recording run with no registry window and no snapshots: the result
/// and the event log.
fn traced(trace: &Trace, arch: Arch, cfg: &SimConfig) -> (RunResult, EventLog) {
    let (result, events, _registry) = simulate_measured_streamed(trace, arch, cfg, 0, 0, |_| {});
    (result, events)
}

#[test]
fn event_streams_are_deterministic() {
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    let cfg = traced_cfg(0.7);
    let (ra, ea) = traced(&trace, Arch::AsComa, &cfg);
    let (rb, eb) = traced(&trace, Arch::AsComa, &cfg);
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ea, eb, "event streams must be identical across runs");
    assert_eq!(jsonl_string(&ea), jsonl_string(&eb));
    assert!(!ea.is_empty(), "em3d at 70% pressure must emit events");
}

#[test]
fn eviction_never_precedes_mapping() {
    // Per (node, page): the first map event must come no later than the
    // first eviction, and eviction counts can never outrun map counts as
    // the stream is scanned in order.
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    for arch in [Arch::AsComa, Arch::Scoma, Arch::RNuma] {
        let (_r, events) = traced(&trace, arch, &traced_cfg(0.7));
        let mut mapped = std::collections::HashMap::new();
        for te in &events {
            match te.event {
                Event::PageMapped { node, page, .. } => {
                    *mapped.entry((node.0, page.0)).or_insert(0i64) += 1;
                }
                Event::PageEvicted { node, page, .. } => {
                    let count = mapped.entry((node.0, page.0)).or_insert(0i64);
                    assert!(
                        *count > 0,
                        "{}: page {} evicted at node {} before being mapped",
                        arch.name(),
                        page.0,
                        node.0
                    );
                    *count -= 1;
                }
                _ => {}
            }
        }
    }
}

#[test]
fn per_node_cycles_are_monotone() {
    // Events carry the emitting node's clock; within one node's
    // subsequence the stamps must never go backwards.
    let trace = App::Radix.build(SizeClass::Tiny, 4096);
    let (_r, events) = traced(&trace, Arch::AsComa, &traced_cfg(0.7));
    let mut last = std::collections::HashMap::new();
    for te in &events {
        let node = te.event.node().0;
        let prev = last.insert(node, te.cycle).unwrap_or(0);
        assert!(te.cycle >= prev, "node {node} clock went backwards");
    }
}

#[test]
fn noop_sink_run_matches_uninstrumented_run() {
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    for arch in Arch::ALL {
        let cfg = SimConfig::at_pressure(0.7);
        let plain = simulate(&trace, arch, &cfg);
        let (noop, _sink) = Machine::with_sink(&trace, arch, &cfg, NoopSink).run_into();
        assert_eq!(plain.cycles, noop.cycles, "{}", arch.name());
        assert_eq!(plain.exec, noop.exec);
        assert_eq!(plain.miss, noop.miss);
        assert_eq!(plain.kernel, noop.kernel);
        assert_eq!(plain.final_thresholds, noop.final_thresholds);
    }
}

#[test]
fn sampling_does_not_perturb_simulation() {
    // The cycle-driven sampler observes node state between scheduler
    // steps; turning it on must not change any simulated outcome.
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    let plain = simulate(&trace, Arch::AsComa, &SimConfig::at_pressure(0.7));
    let (sampled, events) = traced(&trace, Arch::AsComa, &traced_cfg(0.7));
    assert_eq!(plain.cycles, sampled.cycles);
    assert_eq!(plain.miss, sampled.miss);
    assert!(
        events.iter().any(|e| e.event.is_sample()),
        "sampler enabled but no samples emitted"
    );
}

#[test]
fn acceptance_trace_em3d_70_pct() {
    // The ISSUE acceptance run: em3d on AS-COMA at 70% memory pressure
    // must export a valid Chrome trace containing at least one pageout
    // epoch, one threshold back-off and one CC-NUMA→S-COMA upgrade.
    //
    // The Tiny size class compresses simulated time by orders of
    // magnitude, so the paper's policy constants (threshold 64, +32
    // back-off, full daemon period) never trip within a tiny run; scale
    // them down proportionally, exactly as tests/phase_change.rs does
    // for its compressed-timescale daemon runs.
    let trace = Em3dParams {
        iters: 8,
        ..Em3dParams::tiny()
    }
    .build(4096);
    let mut cfg = traced_cfg(0.7);
    cfg.kernel.daemon_period = 10_000;
    cfg.policy.initial_threshold = 16;
    cfg.policy.threshold_increment = 8;
    let (result, events) = traced(&trace, Arch::AsComa, &cfg);

    let has = |f: fn(&TimedEvent) -> bool| events.iter().any(|e| f(&e));
    assert!(
        has(|e| matches!(e.event, Event::DaemonEpoch { .. })),
        "expected at least one pageout epoch"
    );
    assert!(
        has(|e| matches!(e.event, Event::ThresholdBackoff { .. })),
        "expected at least one threshold back-off event"
    );
    assert!(
        has(|e| matches!(e.event, Event::PageUpgraded { .. })),
        "expected at least one CC-NUMA→S-COMA upgrade"
    );

    let doc = chrome_trace(&events, trace.nodes);
    parse(&doc).expect("chrome trace must be valid JSON");
    assert!(doc.contains("\"ph\":\"i\"") && doc.contains("\"ph\":\"C\""));

    let s = summarize(&events, trace.nodes);
    assert!(s.upgrades > 0);
    assert!(s.relocated_pairs() > 0);
    assert!(result.cycles > 0);
}

#[test]
fn jsonl_export_writes_one_flat_line_per_event() {
    // Every event becomes one line holding one flat JSON object whose
    // `kind`, `t` (cycle) and `node` fields are the event's own.
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    let (_r, events) = traced(&trace, Arch::AsComa, &traced_cfg(0.7));
    assert!(events.iter().any(|e| e.event.is_sample()), "sampling is on");
    let text = jsonl_string(&events);
    assert_eq!(text.lines().count(), events.len(), "one line per event");
    for (line, te) in text.lines().zip(&events) {
        let obj = parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let fields = obj
            .as_obj()
            .unwrap_or_else(|| panic!("not an object: {line}"));
        assert!(
            fields
                .iter()
                .all(|(_, v)| !matches!(v, Json::Obj(_) | Json::Arr(_))),
            "not flat: {line}"
        );
        assert_eq!(
            obj.get("kind").and_then(Json::as_str),
            Some(te.event.kind())
        );
        assert_eq!(obj.get("t").and_then(Json::as_u64), Some(te.cycle));
        assert_eq!(
            obj.get("node").and_then(Json::as_u64),
            Some(u64::from(te.event.node().0))
        );
    }
}

#[test]
fn metrics_digest_is_identical_across_job_counts() {
    // The digest is a pure function of the deterministic event stream,
    // so sweeping cells through 1 worker or 4 must yield the same bytes.
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    let cells = [
        (Arch::AsComa, 0.5),
        (Arch::AsComa, 0.9),
        (Arch::Scoma, 0.7),
        (Arch::RNuma, 0.7),
    ];
    let run = |jobs: usize| {
        run_indexed(cells.len(), jobs, |i| {
            let (arch, p) = cells[i];
            let (result, _events, _reg) =
                simulate_measured_streamed(&trace, arch, &traced_cfg(p), 50_000, 0, |_| {});
            (result.metrics, result.cycles)
        })
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|(m, _)| m.is_some()));
}

#[test]
fn threshold_trajectories_extend_final_thresholds() {
    // The trajectory's last point must agree with the legacy
    // final_thresholds field it supersedes.
    let trace = App::Em3d.build(SizeClass::Tiny, 4096);
    let r = simulate(&trace, Arch::AsComa, &SimConfig::at_pressure(0.9));
    assert_eq!(r.threshold_trajectories.len(), r.final_thresholds.len());
    for (node, (traj, fin)) in r
        .threshold_trajectories
        .iter()
        .zip(&r.final_thresholds)
        .enumerate()
    {
        if let Some(last) = traj.last() {
            assert_eq!(last.threshold, *fin, "node {node}");
        }
        assert!(
            traj.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "node {node} trajectory not time-ordered"
        );
    }
}

/// Tiny em3d and radix at S-COMA@0.9 with the sampler on: the two
/// applications whose observed cells record the largest logs.
fn scoma_logs() -> Vec<(App, EventLog)> {
    [App::Em3d, App::Radix]
        .into_iter()
        .map(|app| {
            let trace = app.build(SizeClass::Tiny, 4096);
            (app, traced(&trace, Arch::Scoma, &traced_cfg(0.9)).1)
        })
        .collect()
}

#[test]
fn recorded_logs_reencode_to_identical_bytes() {
    for (app, log) in scoma_logs() {
        let again: EventLog = log.iter().collect();
        assert!(
            again == log,
            "{app:?}: decoding then re-encoding changed the bytes"
        );
    }
}

#[test]
fn recorded_logs_stay_compact() {
    // 4.85 (em3d) and 4.63 (radix) bytes per event when the bound was
    // set.  Stamping misses at their end (5.48 on em3d) or storing every
    // latency (5.39) fails it.  Tiny page numbers fit a byte either way,
    // so page deltas are pinned by the log's own unit tests instead.
    for (app, log) in scoma_logs() {
        let per_event = log.byte_len() as f64 / log.len() as f64;
        assert!(
            per_event <= 5.0,
            "{app:?}: {per_event:.3} bytes/event exceeds the 5.0 bound"
        );
    }
}
