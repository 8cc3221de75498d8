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
use std::panic::resume_unwind;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread::{Scope, ScopedJoinHandle};

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
/// e.g. `(EventLog, SummaryFold)`, so each event is observed once.
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

/// Events per [`BatchSink`] batch.
pub const BATCH: usize = 4096;

/// Full batches that may wait for the [`BatchSink`] worker before the
/// producer blocks.
///
/// Events come in bursts: on the benchmark's observed cells the
/// backlog reaches 16–32 batches in most cells even though the worker
/// is idle for more than half of each cell.  A shallower queue makes
/// the producer wait out those bursts (at depth 4, 1–15% of a run's
/// time, varying from run to run with the load on the worker's core);
/// at 32 its waits are mostly the fixed cost of waking the worker
/// (about 0.7%), for at most 6.7 MB of buffers.
const DEPTH: usize = 32;

/// A sink that moves another sink onto a second thread.
///
/// [`BatchSink::spawn`] starts one worker in a [`std::thread::scope`]
/// and hands it the inner sink.  Events are appended to a
/// [`BATCH`]-event buffer; each full buffer goes to the worker over a
/// bounded channel, and the worker emits its events into the inner sink
/// in order and returns the empty buffer for reuse, newest first, so
/// the buffers in use stay few and warm in cache.  One producer, one
/// FIFO channel and one consumer means the inner sink sees exactly the
/// stream it would have seen in-thread, so whatever it records or folds
/// is identical.  [`BatchSink::finish`] ships the last partial batch,
/// joins the worker and returns the inner sink.
///
/// At most `DEPTH` full batches wait in the channel, one is being
/// emitted and one is being filled; a fresh buffer is allocated only
/// when none has come back, so no more than `DEPTH + 2` exist.
///
/// A panic in the worker (the inner sink, or a callback it runs)
/// reaches the producer as the same panic, from the next hand-off or
/// from `finish`.  If the producer unwinds instead, dropping the sink
/// hangs up the channel and the worker returns, so the scope never
/// waits on it.
#[derive(Debug)]
pub struct BatchSink<'scope, S: Sink + Send> {
    buf: Vec<TimedEvent>,
    /// Drained buffers, the most recently drained last.
    spare: Vec<Vec<TimedEvent>>,
    full: SyncSender<Vec<TimedEvent>>,
    empty: Receiver<Vec<TimedEvent>>,
    worker: Option<ScopedJoinHandle<'scope, S>>,
}

impl<'scope, S: Sink + Send + 'scope> BatchSink<'scope, S> {
    /// Start the worker that owns `inner` in `scope`.
    pub fn spawn<'env>(scope: &'scope Scope<'scope, 'env>, mut inner: S) -> Self {
        let (full, batches) = mpsc::sync_channel::<Vec<TimedEvent>>(DEPTH);
        let (recycle, empty) = mpsc::channel();
        let worker = scope.spawn(move || {
            for mut batch in batches {
                for te in batch.drain(..) {
                    inner.emit(te.cycle, te.event);
                }
                // The producer may have finished already.
                let _ = recycle.send(batch);
            }
            inner
        });
        Self {
            buf: Vec::with_capacity(BATCH),
            spare: Vec::new(),
            full,
            empty,
            worker: Some(worker),
        }
    }

    /// Ship the filled buffer and continue in an empty one.
    #[cold]
    fn hand_off(&mut self) {
        // Reuse the buffer drained last: after a burst the channel
        // holds many, and taking the oldest would cycle them all
        // through the cache.
        self.spare.extend(self.empty.try_iter());
        let next = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(BATCH));
        let batch = std::mem::replace(&mut self.buf, next);
        if self.full.send(batch).is_err() {
            // Only a dead worker drops its receiver.
            join(&mut self.worker);
            panic!("batch worker exited before the stream ended");
        }
    }

    /// Deliver the buffered events, wait for the worker to emit them
    /// all, and return the inner sink.
    ///
    /// # Panics
    ///
    /// With the worker's panic, if it panicked.
    pub fn finish(self) -> S {
        let Self {
            buf,
            full,
            mut worker,
            ..
        } = self;
        // A dead worker refuses the batch; its panic surfaces from the join.
        if !buf.is_empty() {
            let _ = full.send(buf);
        }
        drop(full);
        join(&mut worker)
    }
}

/// Join the worker, re-raising its panic on this thread.
fn join<S>(worker: &mut Option<ScopedJoinHandle<'_, S>>) -> S {
    match worker.take().map(ScopedJoinHandle::join) {
        Some(Ok(inner)) => inner,
        Some(Err(payload)) => resume_unwind(payload),
        None => unreachable!("the batch worker is joined once"),
    }
}

impl<'scope, S: Sink + Send + 'scope> Sink for BatchSink<'scope, S> {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        self.buf.push(TimedEvent { cycle, event });
        if self.buf.len() == BATCH {
            self.hand_off();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::EventLog;
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
        const { assert!(EventLog::ENABLED) };
        let mut s = NoopSink;
        s.emit(0, ev(0));
    }

    #[test]
    fn event_log_records_in_order() {
        let mut s = EventLog::new();
        for i in 0..5 {
            s.emit(i, ev(i));
        }
        assert_eq!(s.len(), 5);
        let cycles: Vec<u64> = s.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pair_sink_feeds_both_halves_in_order() {
        const { assert!(!<(NoopSink, NoopSink)>::ENABLED) };
        const { assert!(<(NoopSink, EventLog)>::ENABLED) };
        let mut s = (EventLog::new(), EventLog::new());
        for i in 0..3 {
            s.emit(i, ev(i));
        }
        assert!(s.0.iter().map(|e| e.cycle).eq(0..3));
        assert_eq!(s.0, s.1);
    }

    /// Panics on its `after + 1`-th event.
    struct Bomb {
        after: usize,
    }

    impl Sink for Bomb {
        fn emit(&mut self, _cycle: Cycles, _event: Event) {
            if self.after == 0 {
                panic!("bomb");
            }
            self.after -= 1;
        }
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
        payload.downcast_ref::<&str>().copied()
    }

    #[test]
    fn batch_sink_delivers_every_event_in_order() {
        for n in [0, BATCH, BATCH + 1, 3 * BATCH + 17] {
            let log = std::thread::scope(|scope| {
                let mut s = BatchSink::spawn(scope, EventLog::new());
                for i in 0..n as u64 {
                    s.emit(i, ev(i));
                }
                s.finish()
            });
            assert_eq!(log.len(), n);
            assert!(log.iter().map(|te| te.cycle).eq(0..n as u64), "n = {n}");
            assert!(log.iter().map(|te| te.event).eq((0..n as u64).map(ev)));
        }
    }

    #[test]
    fn batch_sink_worker_panic_surfaces_from_finish() {
        let caught = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                let mut s = BatchSink::spawn(scope, Bomb { after: 5 });
                for i in 0..10 {
                    s.emit(i, ev(i));
                }
                s.finish()
            })
        });
        let Err(payload) = caught else {
            panic!("finish must panic")
        };
        assert_eq!(panic_message(&*payload), Some("bomb"));
    }

    #[test]
    fn batch_sink_worker_panic_stops_a_long_producer() {
        // The worker dies in its first batch while the producer still has
        // far more batches than the channel holds: the producer must
        // panic with the worker's payload, not block.
        let caught = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                let mut s = BatchSink::spawn(scope, Bomb { after: 0 });
                for i in 0..(4 * DEPTH * BATCH) as u64 {
                    s.emit(i, ev(i));
                }
                s.finish()
            })
        });
        let Err(payload) = caught else {
            panic!("the producer must panic")
        };
        assert_eq!(panic_message(&*payload), Some("bomb"));
    }

    #[test]
    fn batch_sink_producer_unwinding_does_not_hang_the_scope() {
        let caught = std::panic::catch_unwind(|| {
            std::thread::scope(|scope| {
                let mut s = BatchSink::spawn(scope, EventLog::new());
                for i in 0..(BATCH + BATCH / 2) as u64 {
                    s.emit(i, ev(i));
                }
                panic!("producer");
            })
        });
        let Err(payload) = caught else {
            panic!("the producer's panic propagates")
        };
        assert_eq!(panic_message(&*payload), Some("producer"));
    }
}
