//! Event sinks: where instrumentation emissions go.
//!
//! The machine layer is generic over `S: Sink`; every emission site is
//! guarded by `if S::ENABLED`, an associated *const*, so with the default
//! [`NoopSink`] the compiler removes the sites entirely — instrumentation
//! is demonstrably free when disabled (`tests/observability.rs` asserts
//! cycle-identical results, `benches/obs_overhead.rs` bounds the
//! residual).

use crate::event::{Event, TimedEvent};
use ascoma_sim::Cycles;
use std::io::Write;

/// A consumer of instrumentation events.
pub trait Sink {
    /// Whether emission sites should be compiled in at all.  Guard every
    /// emission with `if S::ENABLED { ... }`: for the no-op sink the
    /// branch is constant-false and the event construction folds away.
    const ENABLED: bool = true;

    /// Consume one event stamped with the emitting node's clock.
    fn emit(&mut self, cycle: Cycles, event: Event);
}

/// The default sink: discards everything, compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl Sink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _cycle: Cycles, _event: Event) {}
}

/// Two sinks side by side: every event goes to both, first `A` then `B`.
/// The observed run paths compose recording with online folds this way,
/// e.g. `(VecSink, SummaryFold)`, so each event is observed once.
impl<A: Sink, B: Sink> Sink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        if A::ENABLED {
            self.0.emit(cycle, event);
        }
        if B::ENABLED {
            self.1.emit(cycle, event);
        }
    }
}

/// Records every event in order (the exporter/summary work off this).
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    /// Events in emission order.
    pub events: Vec<TimedEvent>,
}

impl VecSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Sink for VecSink {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        self.events.push(TimedEvent { cycle, event });
    }
}

/// A bounded ring buffer keeping the most recent `capacity` events —
/// for always-on tracing of long runs where only the tail matters
/// (e.g. post-mortem of a thrashing collapse).
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TimedEvent>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring keeping the last `capacity` events (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be >= 1");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The retained events in emission order (oldest first).
    pub fn into_events(self) -> Vec<TimedEvent> {
        let Self { mut buf, head, .. } = self;
        buf.rotate_left(head);
        buf
    }
}

impl Sink for RingSink {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        let te = TimedEvent { cycle, event };
        if self.buf.len() < self.capacity {
            self.buf.push(te);
        } else {
            self.buf[self.head] = te;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// Streams events as JSON Lines to any writer (file, pipe, buffer) as
/// they are emitted — constant memory regardless of run length.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    line: String,
    /// Events written so far.
    written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Stream events to `w`.  Wrap files in a `BufWriter`.
    pub fn new(w: W) -> Self {
        Self {
            w,
            line: String::with_capacity(128),
            written: 0,
        }
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flush and return the writer.
    pub fn finish(mut self) -> std::io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn emit(&mut self, cycle: Cycles, event: Event) {
        self.line.clear();
        TimedEvent { cycle, event }.write_json(&mut self.line);
        self.line.push('\n');
        // I/O failure mid-run cannot be surfaced through the emit path;
        // panicking keeps the trace honest rather than silently truncated.
        self.w
            .write_all(self.line.as_bytes())
            .expect("JSONL sink write failed");
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_sim::addr::VPage;
    use ascoma_sim::NodeId;

    fn ev(i: u64) -> Event {
        Event::PageMapped {
            node: NodeId(0),
            page: VPage(i),
            mode: crate::event::MapMode::Scoma,
        }
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopSink::ENABLED) };
        const { assert!(VecSink::ENABLED) };
        let mut s = NoopSink;
        s.emit(0, ev(0));
    }

    #[test]
    fn vec_sink_records_in_order() {
        let mut s = VecSink::new();
        for i in 0..5 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.events.len(), 5);
        assert!(s.events.windows(2).all(|w| w[0].cycle < w[1].cycle));
    }

    #[test]
    fn pair_sink_feeds_both_halves_in_order() {
        const { assert!(!<(NoopSink, NoopSink)>::ENABLED) };
        const { assert!(<(NoopSink, VecSink)>::ENABLED) };
        let mut s = (VecSink::new(), RingSink::new(2));
        for i in 0..3 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.0.events.len(), 3);
        let tail: Vec<u64> = s.1.into_events().iter().map(|e| e.cycle).collect();
        assert_eq!(tail, vec![1, 2]);
    }

    #[test]
    fn ring_sink_keeps_tail() {
        let mut s = RingSink::new(3);
        for i in 0..10 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.dropped(), 7);
        assert_eq!(s.len(), 3);
        let evs = s.into_events();
        let cycles: Vec<u64> = evs.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9]);
    }

    #[test]
    fn ring_sink_under_capacity_preserves_all() {
        let mut s = RingSink::new(8);
        for i in 0..3 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.into_events().len(), 3);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(1, ev(1));
        s.emit(2, ev(2));
        assert_eq!(s.written(), 2);
        let buf = s.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
