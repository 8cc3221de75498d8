//! # ascoma-obs — in-run observability for the AS-COMA simulator
//!
//! The whole point of AS-COMA is *dynamic* behavior — S-COMA-first
//! allocation draining the free pool, the pageout daemon detecting
//! thrashing, refetch-threshold back-off reacting to phase changes — but
//! end-of-run aggregates cannot show any of those trajectories.  This
//! crate defines:
//!
//! * a typed [`Event`] taxonomy covering page-mode transitions, pageout
//!   daemon epochs, threshold back-off/recovery, refetch-threshold
//!   crossings, and periodic time-series samples;
//! * a zero-cost-when-disabled [`Sink`] abstraction: the machine layer is
//!   generic over `S: Sink`, and the default [`NoopSink`] has
//!   `Sink::ENABLED == false`, so every emission site compiles away and an
//!   uninstrumented run is bit-identical to the pre-instrumentation
//!   simulator;
//! * the recording sink, the compact, lossless [`EventLog`] (about 5
//!   bytes per event, decoded on iteration);
//! * [`BatchSink`], which batches events to a second thread that owns
//!   the real sink stack, so recording and folding run beside the
//!   simulation instead of on its thread;
//! * exporters to JSONL and Chrome `trace_event` JSON (loadable in
//!   Perfetto / `chrome://tracing`) in [`export`];
//! * a [`summary`] API folding a trace back into per-page lifecycle
//!   histories, per-node threshold trajectories and daemon-epoch records,
//!   online while a run executes ([`SummaryFold`] as a sink) or offline
//!   over a recorded trace;
//! * a [`metrics`] registry folding measurement events into per-node,
//!   per-class latency histograms, windowed time series, and hot-page
//!   tallies, with an integer-only [`MetricsDigest`] compared by
//!   `bench diff`, folded online by [`StreamSink`], which also streams
//!   live [`Snapshot`]s of it;
//! * a dependency-free JSON reader ([`json`]) for digests, the
//!   grid-progress stream and controller replay;
//! * the closed control loop ([`control`]): a deterministic, integer-only
//!   phase detector folding the windowed signals back into per-node
//!   `Tune` actions on the back-off knobs, with every decision emitted
//!   as an event, summarized in the `RunResult`, and replayable from an
//!   exported trace.
//!
//! Event cycles come from the emitting node's clock, and the simulator is
//! deterministic, so two identical runs produce byte-identical streams.

#![warn(missing_docs)]

pub mod control;
pub mod event;
pub mod export;
pub mod hash;
pub mod json;
pub mod log;
pub mod metrics;
pub mod sink;
pub mod snapshot;
pub mod summary;

pub use control::{
    replay_tunes, Cause, Controller, ControllerParams, ControllerSummary, Decision, KnobStep,
    NodeControllerSummary, Phase, PhaseChangeInfo, PhaseStep, TuneInfo, WindowSample,
};
pub use event::{BackoffKind, Event, EvictCause, MapMode, MissLoc, TimedEvent, KINDS, KIND_NAMES};
pub use log::EventLog;
pub use metrics::{HistStat, MetricsDigest, MetricsRegistry};
pub use sink::{BatchSink, NoopSink, Sink};
pub use snapshot::{parse_stream_line, NodeSnap, Snapshot, StreamEvent, StreamSink};
pub use summary::{
    summarize, summarize_lossy, DaemonEpochRecord, LifecycleViolation, PageLifecycle, Summary,
    SummaryFold, ThresholdStep,
};
