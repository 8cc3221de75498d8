//! Running cells: build a pass's traces, set up and run each cell on
//! one of three sink paths, and check every result.

use crate::digest::{self, Reference};
use crate::spans::Spans;
use crate::suite::{Cell, Size, Workload, OBS_WINDOW};
use ascoma::machine::simulate_measured_streamed;
use ascoma::{Machine, RunResult};
use ascoma_obs::{Event, Sink};
use ascoma_sim::stats::ExecBreakdown;
use ascoma_sim::Cycles;
use ascoma_workloads::trace::ScheduleItem;
use ascoma_workloads::Trace;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The benchmark's own event sink: counts what the machine emits.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counter {
    /// Events emitted.
    pub events: u64,
    /// Pages examined by pageout-daemon epochs (Σ `DaemonEpoch.examined`).
    pub examined: u64,
}

impl Sink for Counter {
    #[inline]
    fn emit(&mut self, _cycle: Cycles, event: Event) {
        self.events += 1;
        if let Event::DaemonEpoch { examined, .. } = event {
            self.examined += u64::from(examined);
        }
    }
}

/// Which sink a cell runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `Machine::new(..).run()`: every emission site compiled away.
    Noop,
    /// `simulate_measured_streamed`: events recorded, registry folded
    /// online, snapshots every [`OBS_WINDOW`] cycles.
    Observed,
    /// `Machine::with_sink(.., Counter)`: the traced run's counting pass.
    Counting,
}

impl Path {
    /// Lowercase name, used in span names.
    pub fn tag(self) -> &'static str {
        match self {
            Path::Noop => "noop",
            Path::Observed => "observed",
            Path::Counting => "counting",
        }
    }
}

/// What one cell produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The simulation result, with `obs` and `metrics` cleared.
    pub result: RunResult,
    /// Result digest (observability fields cleared).
    pub digest: u64,
    /// Metrics-registry digest (observed path only).
    pub metrics_digest: Option<u64>,
    /// Events emitted (observed and counting paths).
    pub events: u64,
    /// Snapshots streamed (observed path).
    pub snapshots: u64,
    /// Pages examined by the pageout daemon (counting path).
    pub examined: u64,
    /// Host seconds in `Machine` construction.
    pub setup_s: f64,
    /// Host seconds running the machine.
    pub run_s: f64,
}

/// Static facts about a trace the checks and the ledger need.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Dynamic memory operations (`Trace::total_ops`).
    pub ops: u64,
    /// Dynamic operations on shared memory.
    pub shared: u64,
}

impl TraceStats {
    /// Count `trace`'s dynamic and shared operations.
    pub fn of(trace: &Trace) -> Self {
        let mut s = Self::default();
        for p in &trace.programs {
            let shared: Vec<u64> = p
                .segments
                .iter()
                .map(|seg| seg.ops.iter().filter(|o| !o.private()).count() as u64)
                .collect();
            for item in &p.schedule {
                if let ScheduleItem::Run(i) = *item {
                    s.ops += p.segments[i as usize].ops.len() as u64;
                    s.shared += shared[i as usize];
                }
            }
        }
        s
    }
}

/// One pass's traces, built under a `build` span.
pub struct Traces {
    /// Traces in [`Workload::apps`] order.
    pub traces: Vec<Trace>,
    /// Their static statistics.
    pub stats: Vec<TraceStats>,
    /// Host seconds spent building them.
    pub build_s: f64,
}

impl Traces {
    /// Build every trace of `w`.
    pub fn build(spans: &mut Spans, w: &Workload, size: Size, seed: u64) -> Self {
        let id = spans.begin("build");
        let traces: Vec<Trace> = (0..w.apps().len())
            .map(|i| w.build(i, size, seed))
            .collect();
        let build_s = spans.end(id);
        let stats = traces.iter().map(TraceStats::of).collect();
        Self {
            traces,
            stats,
            build_s,
        }
    }
}

/// Run `f`, turning a panic into an error message.
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The label of `cell` in spans and reports: `<app> <arch> <pressure>`.
pub fn label(w: &Workload, cell: &Cell) -> String {
    format!(
        "{} {} {}",
        w.apps()[cell.trace].name(),
        cell.arch.name(),
        cell.pressure
    )
}

/// The key a cell's digests are filed under: `<workload> <label>`.
pub fn key(w: &Workload, cell: &Cell) -> String {
    format!("{} {}", w.name, label(w, cell))
}

/// [`run_cell`] on `t`'s trace for `cell`, with the outcome checked and
/// counted by `chk`.
pub fn run_checked(
    spans: &mut Spans,
    w: &Workload,
    t: &Traces,
    cell: &Cell,
    path: Path,
    chk: &mut Checker,
) -> Result<Outcome, String> {
    let out = run_cell(spans, w, &t.traces[cell.trace], cell, path);
    chk.check(w, t, cell, &out);
    out
}

/// A machine set up for one of the sink paths.
enum Built<'t> {
    Noop(Machine<'t>),
    Counting(Machine<'t, Counter>),
}

/// Set up and run one cell under a `cell` span with `setup` and `run`
/// children.  A panic anywhere in the simulator is returned as `Err`.
pub fn run_cell(
    spans: &mut Spans,
    w: &Workload,
    trace: &Trace,
    cell: &Cell,
    path: Path,
) -> Result<Outcome, String> {
    let cfg = w.config(cell);
    let id = spans.begin(format!("cell {} [{}]", label(w, cell), path.tag()));
    let setup = spans.begin("setup");
    let built = guarded(|| match path {
        Path::Counting => Built::Counting(Machine::with_sink(
            trace,
            cell.arch,
            &cfg,
            Counter::default(),
        )),
        // The observed path builds its own machine inside
        // `simulate_measured_streamed`; set-up is timed on an identical
        // construction so every path reports it the same way.
        Path::Noop | Path::Observed => Built::Noop(Machine::new(trace, cell.arch, &cfg)),
    });
    let setup_s = spans.end(setup);
    let run = spans.begin("run");
    let ran = built.and_then(|machine| {
        guarded(|| match (machine, path) {
            (Built::Counting(m), _) => {
                let (r, c) = m.run_into();
                (r, c, 0)
            }
            (Built::Noop(m), Path::Noop) => (m.run(), Counter::default(), 0),
            (Built::Noop(m), _) => {
                drop(m);
                let mut snapshots = 0u64;
                let (r, events, _registry) = simulate_measured_streamed(
                    trace,
                    cell.arch,
                    &cfg,
                    OBS_WINDOW,
                    OBS_WINDOW,
                    |_| snapshots += 1,
                );
                let counted = Counter {
                    events: events.len() as u64,
                    examined: 0,
                };
                (r, counted, snapshots)
            }
        })
    });
    let run_s = spans.end(run);
    spans.end(id);
    let (mut result, counter, snapshots) = ran?;
    result.obs = None;
    let metrics_digest = result.metrics.take().map(|m| digest::of_debug(&m));
    Ok(Outcome {
        digest: digest::of_debug(&result),
        result,
        metrics_digest,
        events: counter.events,
        snapshots,
        examined: counter.examined,
        setup_s,
        run_s,
    })
}

/// Directory fetches of a run: local, two-hop and three-hop.
pub fn fetches(r: &RunResult) -> u64 {
    r.proto.fetch_local + r.proto.fetch_2hop + r.proto.fetch_3hop
}

/// Conservation laws every result must satisfy, whatever the seed.
pub fn structural(
    r: &RunResult,
    trace: &Trace,
    stats: &TraceStats,
    cell: &Cell,
) -> Result<(), String> {
    let mut per_node = ExecBreakdown::default();
    r.exec_per_node.iter().for_each(|e| per_node.add(e));
    let laws = [
        (r.workload == trace.name, "result names another workload"),
        (
            r.arch == cell.arch && r.pressure == cell.pressure,
            "result names another cell",
        ),
        (
            r.exec_per_node.len() == trace.nodes,
            "one exec breakdown per node",
        ),
        (
            per_node == r.exec,
            "per-node exec breakdowns sum to the total",
        ),
        (r.cycles > 0, "the run takes simulated time"),
        (
            r.miss.total() <= stats.shared,
            "no more shared misses than shared accesses",
        ),
        (
            fetches(r) == r.miss.home + r.miss.remote(),
            "one directory fetch per home or remote miss",
        ),
        (
            r.kernel.upgrades <= r.kernel.relocation_interrupts,
            "every upgrade follows a relocation interrupt",
        ),
        (
            r.kernel.daemon_failures <= r.kernel.daemon_runs,
            "daemon failures are daemon runs",
        ),
    ];
    match laws.iter().find(|(ok, _)| !ok) {
        Some((_, law)) => Err(format!("violates: {law}")),
        None => Ok(()),
    }
}

/// Per-cell correctness bookkeeping for one run of the benchmark.
///
/// With references (seed 0 at full size) every digest must equal its
/// reference.  Without, every digest of a cell must equal the first one
/// seen for it in this run, across passes and across sink paths, so a
/// no-op and an observed run of one cell must agree.
#[derive(Debug, Default)]
pub struct Checker {
    refs: Option<HashMap<String, Reference>>,
    seen: HashMap<String, Reference>,
    /// Cells attempted (every pass and path, warm-up included).
    pub attempted: u64,
    /// Cells that panicked or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker comparing against `refs` when given.
    pub fn new(refs: Option<Vec<(String, Reference)>>) -> Self {
        Self {
            refs: refs.map(|r| r.into_iter().collect()),
            ..Self::default()
        }
    }

    /// Check one cell's outcome and count it.
    pub fn check(
        &mut self,
        w: &Workload,
        t: &Traces,
        cell: &Cell,
        outcome: &Result<Outcome, String>,
    ) {
        self.attempted += 1;
        let key = key(w, cell);
        let verdict = outcome
            .as_ref()
            .map_err(|e| format!("panicked: {e}"))
            .and_then(|o| {
                structural(&o.result, &t.traces[cell.trace], &t.stats[cell.trace], cell)?;
                let got = Reference {
                    result: o.digest,
                    metrics: o.metrics_digest,
                };
                self.compare(&key, got)
            });
        if let Err(e) = verdict {
            self.failed += 1;
            self.failures.push(format!("{key}: {e}"));
        }
    }

    fn compare(&mut self, key: &str, got: Reference) -> Result<(), String> {
        let want = match &self.refs {
            Some(refs) => *refs.get(key).ok_or("no committed reference")?,
            None => *self.seen.entry(key.to_string()).or_insert(got),
        };
        if got.result != want.result {
            return Err(format!(
                "result digest {:#018x} != {:#018x}",
                got.result, want.result
            ));
        }
        match (got.metrics, want.metrics) {
            (Some(g), Some(w)) if g != w => Err(format!("metrics digest {g:#018x} != {w:#018x}")),
            (Some(_), None) if self.refs.is_none() => {
                // First observed run of a cell seen before on the no-op
                // path: remember its metrics digest for later passes.
                self.seen.insert(key.to_string(), got);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Count a failure found outside a single cell's outcome.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Size, WORKLOADS};

    fn tiny(w: &Workload) -> (Spans, Traces) {
        let mut spans = Spans::new();
        let t = Traces::build(&mut spans, w, Size::Smoke, 0);
        (spans, t)
    }

    #[test]
    fn digests_repeat_and_no_op_matches_observed_and_counting() {
        let w = WORKLOADS[2];
        let (mut spans, t) = tiny(&w);
        let cell = w.cells()[0];
        let trace = &t.traces[cell.trace];
        let a = run_cell(&mut spans, &w, trace, &cell, Path::Noop).expect("no-op run");
        let b = run_cell(&mut spans, &w, trace, &cell, Path::Noop).expect("second run");
        let o = run_cell(&mut spans, &w, trace, &cell, Path::Observed).expect("observed run");
        let c = run_cell(&mut spans, &w, trace, &cell, Path::Counting).expect("counting run");
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.digest, o.digest);
        assert_eq!(a.digest, c.digest);
        assert!(o.metrics_digest.is_some() && o.events > 0 && o.snapshots > 0);
        assert_eq!(o.events, c.events, "both sinks see every emission");
        let mut chk = Checker::new(None);
        for out in [Ok(a), Ok(o.clone()), Ok(c), Ok(o)] {
            chk.check(&w, &t, &cell, &out);
        }
        assert_eq!((chk.attempted, chk.failed), (4, 0), "{:?}", chk.failures);
    }

    #[test]
    fn checker_flags_drift_panics_and_missing_references() {
        let w = WORKLOADS[0];
        let (mut spans, t) = tiny(&w);
        let cell = w.cells()[0];
        let good = run_checked(
            &mut spans,
            &w,
            &t,
            &cell,
            Path::Noop,
            &mut Checker::new(None),
        )
        .expect("run");
        let mut drifted = good.clone();
        drifted.digest ^= 1;
        let mut chk = Checker::new(None);
        chk.check(&w, &t, &cell, &Ok(good.clone()));
        chk.check(&w, &t, &cell, &Ok(drifted));
        chk.check(&w, &t, &cell, &Err("boom".into()));
        assert_eq!((chk.attempted, chk.failed), (3, 2));
        let mut with_refs = Checker::new(Some(vec![]));
        with_refs.check(&w, &t, &cell, &Ok(good.clone()));
        assert_eq!(with_refs.failed, 1);
        let mut bad = good;
        bad.result.exec_per_node.pop();
        assert!(structural(&bad.result, &t.traces[0], &t.stats[0], &cell).is_err());
    }
}
