//! Live telemetry: streaming [`Snapshot`]s of in-run registry state.
//!
//! Post-mortem observability ([`crate::summary`], [`crate::metrics`])
//! only materializes after a run finishes, but long sweeps need the same
//! state *while* they execute.  This module adds three pieces:
//!
//! * [`Snapshot`] — a constant-size excerpt of a [`MetricsRegistry`]
//!   (cycle, per-node free-pool depth and low-water mark, threshold
//!   level, current-window refetch rate, net backlog, and the
//!   machine-wide miss-latency [`HistDigest`]s), captured in O(nodes)
//!   with [`Snapshot::capture`];
//! * [`StreamSink`] — composes with any inner [`Sink`], folds every
//!   event into its own registry, and hands a snapshot to a callback
//!   each time the observed cycle front crosses a cadence boundary.
//!   Cadence is measured in *simulated cycles*, never wall-clock, so the
//!   snapshot sequence is a pure function of the (deterministic) event
//!   stream — identical across hosts, machine speeds, and parallel job
//!   counts;
//! * [`StreamEvent`] — the grid-progress wire protocol: cell start and
//!   finish markers plus per-cell snapshots, each encoding to one NDJSON
//!   line so external consumers (`bench watch --tail`) can follow a
//!   `--stream` file written by another process.

use crate::event::{Event, MissLoc, TimedEvent};
use crate::json::{parse, Json};
use crate::metrics::MetricsRegistry;
use crate::sink::Sink;
use ascoma_sim::hist::{HistDigest, Histogram};
use ascoma_sim::Cycles;
use std::fmt::Write as _;
use std::sync::mpsc;

/// Number of miss-service locations tracked per snapshot
/// (= [`MissLoc::ALL`] length).
pub const MISS_LOCS: usize = 5;

/// Per-node live state inside a [`Snapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSnap {
    /// Node id.
    pub node: u16,
    /// Last sampled free-pool depth (frames).
    pub free: u64,
    /// Last sampled free-pool low watermark.
    pub low: u64,
    /// Last sampled refetch threshold level.
    pub threshold: u64,
    /// Capacity refetches recorded in the most recent series window
    /// (0 when windowing is disabled).
    pub refetch: u64,
    /// Last sampled network backlog.
    pub backlog: u64,
    /// Controller phase ([`crate::control::Phase::index`]; 0 = baseline,
    /// also the value when the controller is off).
    pub phase: u64,
    /// Live tuned `threshold_increment` (0 until a tune lands).
    pub inc: u64,
    /// Live tuned daemon base period (0 until a tune lands).
    pub period: u64,
}

/// One live-telemetry frame: the registry state as of `cycle`.
///
/// `cells_done` / `cells_total` are zero when a snapshot leaves a single
/// run's [`StreamSink`]; the grid aggregator stamps them before the
/// snapshot reaches a display or an NDJSON feed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic snapshot ordinal within one run (1-based).
    pub seq: u64,
    /// The node-clock cycle stamp that triggered this snapshot.
    pub cycle: Cycles,
    /// Total instrumentation events folded so far.
    pub events: u64,
    /// Grid cells completed (stamped by the aggregator).
    pub cells_done: u64,
    /// Grid cells in total (stamped by the aggregator).
    pub cells_total: u64,
    /// Per-node live state, indexed by node id.
    pub nodes: Vec<NodeSnap>,
    /// Machine-wide miss-service digests, one per [`MissLoc::ALL`] entry.
    pub miss: [HistDigest; MISS_LOCS],
}

impl Snapshot {
    /// Capture the current registry state (O(nodes)).
    pub fn capture(reg: &MetricsRegistry, cycle: Cycles, seq: u64) -> Self {
        let nodes = reg
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, nm)| NodeSnap {
                node: i as u16,
                free: nm.last_free,
                low: nm.last_low,
                threshold: nm.last_threshold,
                refetch: nm.refetch_rate.last().map_or(0, |p| p.value),
                backlog: nm.last_backlog,
                phase: nm.last_phase,
                inc: nm.last_inc,
                period: nm.last_period,
            })
            .collect();
        let mut miss = [HistDigest::default(); MISS_LOCS];
        for (li, slot) in miss.iter_mut().enumerate() {
            let mut h = Histogram::new();
            for nm in reg.nodes() {
                h.merge(&nm.miss_service[li]);
            }
            *slot = h.digest();
        }
        Self {
            seq,
            cycle,
            events: reg.total_events(),
            cells_done: 0,
            cells_total: 0,
            nodes,
            miss,
        }
    }

    /// Total free frames across all nodes (the dashboard's headline
    /// free-pool series).
    pub fn total_free(&self) -> u64 {
        self.nodes.iter().map(|n| n.free).sum()
    }

    /// Total current-window capacity refetches across all nodes.
    pub fn total_refetch(&self) -> u64 {
        self.nodes.iter().map(|n| n.refetch).sum()
    }

    /// Total sampled network backlog across all nodes.
    pub fn total_backlog(&self) -> u64 {
        self.nodes.iter().map(|n| n.backlog).sum()
    }
}

/// A [`Sink`] adapter that streams [`Snapshot`]s while forwarding every
/// event to the wrapped inner sink.
///
/// The callback fires whenever the observed cycle front (the largest
/// node-clock stamp seen so far) crosses a multiple of `cadence`; with
/// `cadence == 0` only explicitly requested snapshots
/// ([`Self::snapshot_now`]) are produced.  Because emission sites never
/// perturb simulation state, a run instrumented with a `StreamSink`
/// produces exactly the same `RunResult` as an uninstrumented one —
/// `tests/streaming.rs` in `ascoma-core` asserts this A/B.
#[derive(Debug)]
pub struct StreamSink<S: Sink, F: FnMut(Snapshot)> {
    inner: S,
    registry: MetricsRegistry,
    cadence: Cycles,
    next: Cycles,
    seq: u64,
    on_snap: F,
}

impl<S: Sink, F: FnMut(Snapshot)> StreamSink<S, F> {
    /// Wrap `inner`, folding events into a fresh registry for `nodes`
    /// nodes (series window `window`; 0 disables windowed series) and
    /// calling `on_snap` every `cadence` cycles of simulated time.
    pub fn new(inner: S, nodes: usize, window: Cycles, cadence: Cycles, on_snap: F) -> Self {
        Self {
            inner,
            registry: MetricsRegistry::new(nodes, window),
            cadence,
            next: cadence,
            seq: 0,
            on_snap,
        }
    }

    /// Snapshots emitted so far.
    pub fn snapshots(&self) -> u64 {
        self.seq
    }

    /// The registry being folded.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Emit one snapshot immediately, stamped `cycle` (used for the
    /// final end-of-run frame).
    pub fn snapshot_now(&mut self, cycle: Cycles) {
        self.seq += 1;
        (self.on_snap)(Snapshot::capture(&self.registry, cycle, self.seq));
    }

    /// Tear down into the inner sink and the folded registry.
    pub fn into_parts(self) -> (S, MetricsRegistry) {
        (self.inner, self.registry)
    }
}

impl<S: Sink, F: FnMut(Snapshot)> Sink for StreamSink<S, F> {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        if S::ENABLED {
            self.inner.emit(cycle, event);
        }
        self.registry.fold(&TimedEvent { cycle, event });
        if self.cadence > 0 && cycle >= self.next {
            self.snapshot_now(cycle);
            // Advance past `cycle` so sparse streams skip empty periods
            // instead of emitting a burst of stale frames.
            let periods = (cycle - self.next) / self.cadence + 1;
            self.next += periods * self.cadence;
        }
    }
}

/// A [`StreamSink`] that forwards snapshots over an `mpsc` channel.
/// Send failures (the receiver hung up — a detached viewer) are ignored
/// so the run always completes.
pub fn channel_sink<S: Sink>(
    inner: S,
    nodes: usize,
    window: Cycles,
    cadence: Cycles,
    tx: mpsc::Sender<Snapshot>,
) -> StreamSink<S, impl FnMut(Snapshot)> {
    StreamSink::new(inner, nodes, window, cadence, move |s| {
        let _ = tx.send(s);
    })
}

/// One frame of the grid-progress stream protocol.
///
/// A sweep produces `GridStart`, then per cell a `CellStart`, zero or
/// more `Snap`s, and a `CellDone` (cells interleave freely under the
/// parallel engine), then `GridDone`.  Each variant encodes to one
/// NDJSON line via [`StreamEvent::write_json`] and round-trips through
/// [`parse_stream_line`].
#[derive(Debug, Clone, PartialEq, Eq)]
// `Snap` dominates the enum size, but events move over a channel at
// cadence rate (a handful per simulated megacycle), so boxing would
// trade an irrelevant move cost for a per-snapshot allocation.
#[allow(clippy::large_enum_variant)]
pub enum StreamEvent {
    /// A sweep of `cells` cells is starting.
    GridStart {
        /// Number of cells the sweep will run.
        cells: u64,
    },
    /// Cell `cell` started running.
    CellStart {
        /// Cell index in canonical grid order.
        cell: u64,
        /// Human-readable cell label, e.g. `em3d/AS-COMA@0.50`.
        label: String,
    },
    /// A live snapshot from cell `cell`.
    Snap {
        /// Cell index the snapshot belongs to.
        cell: u64,
        /// The registry excerpt.
        snap: Snapshot,
    },
    /// Cell `cell` finished.
    CellDone {
        /// Cell index that completed.
        cell: u64,
        /// The finished run's total machine cycles.
        cycles: Cycles,
    },
    /// The whole sweep finished.
    GridDone {
        /// Number of cells the sweep ran.
        cells: u64,
    },
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl StreamEvent {
    /// Append this event as one JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        match self {
            StreamEvent::GridStart { cells } => {
                let _ = write!(out, "{{\"ev\":\"grid_start\",\"cells\":{cells}}}");
            }
            StreamEvent::CellStart { cell, label } => {
                let _ = write!(out, "{{\"ev\":\"cell_start\",\"cell\":{cell},\"label\":\"");
                escape_into(label, out);
                out.push_str("\"}");
            }
            StreamEvent::Snap { cell, snap } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"snap\",\"cell\":{cell},\"seq\":{},\"t\":{},\"events\":{},\"done\":{},\"total\":{},\"nodes\":[",
                    snap.seq, snap.cycle, snap.events, snap.cells_done, snap.cells_total
                );
                for (i, n) in snap.nodes.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"node\":{},\"free\":{},\"low\":{},\"threshold\":{},\"refetch\":{},\"backlog\":{},\"phase\":{},\"inc\":{},\"period\":{}}}",
                        n.node, n.free, n.low, n.threshold, n.refetch, n.backlog,
                        n.phase, n.inc, n.period
                    );
                }
                out.push_str("],\"miss\":[");
                for (i, (loc, d)) in MissLoc::ALL.iter().zip(snap.miss.iter()).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"loc\":\"{}\",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        loc.name(), d.count, d.sum, d.max, d.p50, d.p95, d.p99
                    );
                }
                out.push_str("]}");
            }
            StreamEvent::CellDone { cell, cycles } => {
                let _ = write!(
                    out,
                    "{{\"ev\":\"cell_done\",\"cell\":{cell},\"cycles\":{cycles}}}"
                );
            }
            StreamEvent::GridDone { cells } => {
                let _ = write!(out, "{{\"ev\":\"grid_done\",\"cells\":{cells}}}");
            }
        }
    }

    /// This event as a JSON string (one NDJSON line, no newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_json(&mut s);
        s
    }
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field \"{key}\""))
}

fn u64_field_or(obj: &Json, key: &str, default: u64) -> u64 {
    obj.get(key).and_then(Json::as_u64).unwrap_or(default)
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

fn arr_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array field \"{key}\""))
}

fn parse_snap(obj: &Json) -> Result<Snapshot, String> {
    let mut nodes = Vec::new();
    for n in arr_field(obj, "nodes")? {
        nodes.push(NodeSnap {
            node: u16::try_from(u64_field(n, "node")?)
                .map_err(|_| "field \"node\" out of u16 range".to_string())?,
            free: u64_field(n, "free")?,
            low: u64_field(n, "low")?,
            threshold: u64_field(n, "threshold")?,
            refetch: u64_field(n, "refetch")?,
            backlog: u64_field(n, "backlog")?,
            // Controller fields default to 0 so pre-controller NDJSON
            // archives still parse.
            phase: u64_field_or(n, "phase", 0),
            inc: u64_field_or(n, "inc", 0),
            period: u64_field_or(n, "period", 0),
        });
    }
    let mut miss = [HistDigest::default(); MISS_LOCS];
    for m in arr_field(obj, "miss")? {
        let name = str_field(m, "loc")?;
        let li = MissLoc::ALL
            .iter()
            .position(|l| l.name() == name)
            .ok_or_else(|| format!("unknown miss location \"{name}\""))?;
        miss[li] = HistDigest {
            count: u64_field(m, "count")?,
            sum: u64_field(m, "sum")?,
            max: u64_field(m, "max")?,
            p50: u64_field(m, "p50")?,
            p95: u64_field(m, "p95")?,
            p99: u64_field(m, "p99")?,
        };
    }
    Ok(Snapshot {
        seq: u64_field(obj, "seq")?,
        cycle: u64_field(obj, "t")?,
        events: u64_field(obj, "events")?,
        cells_done: u64_field(obj, "done")?,
        cells_total: u64_field(obj, "total")?,
        nodes,
        miss,
    })
}

/// Parse one NDJSON stream line back into a [`StreamEvent`].
pub fn parse_stream_line(line: &str) -> Result<StreamEvent, String> {
    let obj = parse(line).map_err(|e| e.to_string())?;
    match str_field(&obj, "ev")? {
        "grid_start" => Ok(StreamEvent::GridStart {
            cells: u64_field(&obj, "cells")?,
        }),
        "cell_start" => Ok(StreamEvent::CellStart {
            cell: u64_field(&obj, "cell")?,
            label: str_field(&obj, "label")?.to_string(),
        }),
        "snap" => Ok(StreamEvent::Snap {
            cell: u64_field(&obj, "cell")?,
            snap: parse_snap(&obj)?,
        }),
        "cell_done" => Ok(StreamEvent::CellDone {
            cell: u64_field(&obj, "cell")?,
            cycles: u64_field(&obj, "cycles")?,
        }),
        "grid_done" => Ok(StreamEvent::GridDone {
            cells: u64_field(&obj, "cells")?,
        }),
        other => Err(format!("unknown stream event \"{other}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::DEFAULT_WINDOW;
    use ascoma_sim::addr::VPage;
    use ascoma_sim::NodeId;

    fn miss(node: u16, cycles: u64, refetch: bool) -> Event {
        Event::MissServiced {
            node: NodeId(node),
            page: VPage(7),
            loc: MissLoc::Remote2,
            refetch,
            cycles,
        }
    }

    fn pool(node: u16, free: u32, low: u32) -> Event {
        Event::FreePoolSample {
            node: NodeId(node),
            free,
            resident: 10,
            deficit: 0,
            low,
        }
    }

    #[test]
    fn capture_reads_last_values_and_merged_digests() {
        let mut reg = MetricsRegistry::new(2, DEFAULT_WINDOW);
        reg.fold(&TimedEvent {
            cycle: 50,
            event: pool(0, 12, 3),
        });
        reg.fold(&TimedEvent {
            cycle: 60,
            event: Event::ThresholdSample {
                node: NodeId(1),
                threshold: 96,
            },
        });
        reg.fold(&TimedEvent {
            cycle: 70,
            event: miss(0, 300, true),
        });
        reg.fold(&TimedEvent {
            cycle: 80,
            event: miss(1, 500, false),
        });
        reg.fold(&TimedEvent {
            cycle: 90,
            event: Event::PhaseChange {
                node: NodeId(1),
                window: 1,
                from: crate::control::Phase::Baseline,
                to: crate::control::Phase::Hot,
                cause: crate::control::Cause::RefetchHigh,
                dwell: 1,
            },
        });
        reg.fold(&TimedEvent {
            cycle: 90,
            event: Event::TuneApplied {
                node: NodeId(1),
                window: 1,
                inc_from: 32,
                inc_to: 64,
                period_from: 2_000,
                period_to: 4_000,
                cause: crate::control::Cause::RefetchHigh,
            },
        });
        let s = Snapshot::capture(&reg, 100, 1);
        assert_eq!(s.cycle, 100);
        assert_eq!(s.seq, 1);
        assert_eq!(s.events, 6);
        assert_eq!(s.nodes.len(), 2);
        assert_eq!(s.nodes[0].free, 12);
        assert_eq!(s.nodes[0].low, 3);
        assert_eq!(s.nodes[0].refetch, 1);
        assert_eq!(s.nodes[1].threshold, 96);
        assert_eq!(s.nodes[0].phase, 0, "no controller activity on node 0");
        assert_eq!(s.nodes[0].inc, 0);
        assert_eq!(s.nodes[1].phase, crate::control::Phase::Hot.index() as u64);
        assert_eq!(s.nodes[1].inc, 64);
        assert_eq!(s.nodes[1].period, 4_000);
        let li = MissLoc::ALL
            .iter()
            .position(|l| *l == MissLoc::Remote2)
            .unwrap();
        assert_eq!(s.miss[li].count, 2, "merged across nodes");
        assert_eq!(s.miss[li].max, 500);
        assert_eq!(s.total_free(), 12);
        assert_eq!(s.total_refetch(), 1);
    }

    #[test]
    fn stream_sink_fires_on_cadence_boundaries() {
        let mut got = Vec::new();
        {
            let mut sink = StreamSink::new(
                crate::sink::NoopSink,
                1,
                DEFAULT_WINDOW,
                1_000,
                |s: Snapshot| got.push((s.seq, s.cycle)),
            );
            sink.emit(10, pool(0, 9, 2)); // before first boundary
            sink.emit(1_000, miss(0, 40, false)); // crosses 1000
            sink.emit(1_500, miss(0, 41, false)); // within [1000,2000)
            sink.emit(5_250, miss(0, 42, false)); // skips 3 empty periods
            sink.emit(5_999, miss(0, 43, false)); // still inside
            sink.emit(6_000, miss(0, 44, false)); // next boundary
            assert_eq!(sink.snapshots(), 3);
        }
        assert_eq!(got, vec![(1, 1_000), (2, 5_250), (3, 6_000)]);
    }

    #[test]
    fn stream_sink_forwards_to_inner_and_registry() {
        let mut sink = StreamSink::new(crate::sink::VecSink::new(), 1, 0, 0, |_s: Snapshot| {});
        sink.emit(5, miss(0, 40, false));
        sink.emit(9, pool(0, 3, 1));
        assert_eq!(sink.registry().total_events(), 2);
        let (inner, reg) = sink.into_parts();
        assert_eq!(inner.events.len(), 2);
        assert_eq!(reg.nodes()[0].last_free, 3);
    }

    #[test]
    fn cadence_zero_means_manual_snapshots_only() {
        let got = std::cell::Cell::new(0u64);
        let mut sink = StreamSink::new(crate::sink::NoopSink, 1, 0, 0, |_s: Snapshot| {
            got.set(got.get() + 1)
        });
        for c in 0..10_000 {
            sink.emit(c, miss(0, 1, false));
        }
        assert_eq!(got.get(), 0);
        sink.snapshot_now(10_000);
        assert_eq!(got.get(), 1);
    }

    #[test]
    fn channel_sink_survives_dropped_receiver() {
        let (tx, rx) = mpsc::channel();
        let mut sink = channel_sink(crate::sink::NoopSink, 1, 0, 100, tx);
        sink.emit(150, miss(0, 1, false));
        assert_eq!(rx.recv().map(|s: Snapshot| s.cycle), Ok(150));
        drop(rx);
        sink.emit(300, miss(0, 1, false)); // must not panic
        assert_eq!(sink.snapshots(), 2);
    }

    #[test]
    fn every_stream_event_round_trips() {
        let mut reg = MetricsRegistry::new(2, DEFAULT_WINDOW);
        reg.fold(&TimedEvent {
            cycle: 50,
            event: pool(0, 12, 3),
        });
        reg.fold(&TimedEvent {
            cycle: 60,
            event: miss(1, 312, true),
        });
        reg.fold(&TimedEvent {
            cycle: 70,
            event: Event::TuneApplied {
                node: NodeId(0),
                window: 2,
                inc_from: 32,
                inc_to: 16,
                period_from: 2_000,
                period_to: 1_000,
                cause: crate::control::Cause::RefetchLow,
            },
        });
        let mut snap = Snapshot::capture(&reg, 100_000, 4);
        assert_eq!(snap.nodes[0].inc, 16, "controller knobs reach the wire");
        snap.cells_done = 3;
        snap.cells_total = 18;
        let events = vec![
            StreamEvent::GridStart { cells: 18 },
            StreamEvent::CellStart {
                cell: 2,
                label: "em3d/AS-COMA@0.50".to_string(),
            },
            StreamEvent::Snap { cell: 2, snap },
            StreamEvent::CellDone {
                cell: 2,
                cycles: 1_234_567,
            },
            StreamEvent::GridDone { cells: 18 },
        ];
        for ev in events {
            let line = ev.to_json();
            assert_eq!(parse_stream_line(&line), Ok(ev.clone()), "{line}");
            crate::export::validate_json(&line).unwrap();
        }
    }

    #[test]
    fn labels_with_quotes_and_controls_round_trip() {
        let ev = StreamEvent::CellStart {
            cell: 0,
            label: "odd \"label\"\\ with\ttabs\n".to_string(),
        };
        assert_eq!(parse_stream_line(&ev.to_json()), Ok(ev));
    }

    #[test]
    fn pre_controller_snap_lines_still_parse() {
        // Archives written before the controller fields existed omit
        // phase/inc/period; they must parse with zero defaults.
        let line = "{\"ev\":\"snap\",\"cell\":0,\"seq\":1,\"t\":10,\"events\":0,\
                    \"done\":0,\"total\":1,\
                    \"nodes\":[{\"node\":0,\"free\":5,\"low\":1,\"threshold\":64,\
                    \"refetch\":2,\"backlog\":0}],\"miss\":[]}";
        match parse_stream_line(line) {
            Ok(StreamEvent::Snap { snap, .. }) => {
                assert_eq!(snap.nodes[0].free, 5);
                assert_eq!(snap.nodes[0].phase, 0);
                assert_eq!(snap.nodes[0].inc, 0);
                assert_eq!(snap.nodes[0].period, 0);
            }
            other => panic!("expected snap, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_stream_line("{}").is_err());
        assert!(parse_stream_line("{\"ev\":\"bogus\"}").is_err());
        assert!(parse_stream_line("{\"ev\":\"snap\",\"cell\":0}").is_err());
        assert!(parse_stream_line("not json").is_err());
    }
}
