//! In-memory spans around the benchmark's calls into each layer,
//! written out once as Chrome trace-event JSON.
//!
//! Spans nest strictly (workload → pass → cell → {setup, run}, plus one
//! span per layer replay), and the benchmark is single-threaded, so a
//! stack of open spans gives every span its parent and children never
//! overlap: a span's self time is its duration minus its children's.

use ascoma_bench::pacing::Clock;
use std::fmt::Write as _;

/// One closed (or still open) span; times are seconds since the
/// recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Parent span id (`None` for a root).
    pub parent: Option<usize>,
    /// What the span covers.
    pub name: String,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds (equal to `start` while open).
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The span recorder; a span's id is its index.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Start recording; time zero is now.
    pub fn new() -> Self {
        Self {
            clock: Clock::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let now = self.clock.elapsed_secs();
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.into(),
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its duration.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.clock.elapsed_secs();
        debug_assert_eq!(
            self.open.last(),
            Some(&id),
            "spans must close innermost-first"
        );
        self.open.retain(|&o| o != id);
        let span = &mut self.spans[id];
        span.end = now;
        span.secs()
    }

    /// All spans, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of `id` minus the durations of its direct children.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Chrome trace-event JSON (complete `X` events in microseconds),
    /// loadable in Perfetto or `chrome://tracing`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name.replace(['"', '\\'], "'"),
                s.start * 1e6,
                s.secs() * 1e6,
                self.self_secs(id) * 1e6,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_json_parses() {
        let mut s = Spans::new();
        let root = s.begin("workload");
        let a = s.begin("run");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        s.end(a);
        let b = s.begin("setup");
        s.end(b);
        let total = s.end(root);
        let own = s.self_secs(root);
        assert!(own >= 0.0 && own <= total);
        assert!((own + s.all()[a].secs() + s.all()[b].secs() - total).abs() < 1e-9);
        assert_eq!(s.all()[a].parent, Some(root));
        let doc = ascoma_obs::json::parse(&s.chrome_json()).expect("trace JSON parses");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 3);
    }
}
