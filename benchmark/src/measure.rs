//! The two ways a workload is measured.
//!
//! [`run`] is the untraced run behind the end-to-end metrics: a warm-up,
//! then timed passes over the workload's cells on its own sink path.
//! [`trace`] is the separate traced run behind the per-layer metrics:
//! one pass running each cell on the no-op, counting-sink and (where
//! observed) observed paths, then a replay of every layer on each
//! trace; spans from all of it go to a Chrome trace file.

use crate::calib::{self, Calibrator};
use crate::digest::{self, Reference};
use crate::exec::{fetches, key, label, run_checked, Checker, Outcome, Path, Traces};
use crate::layers::{self, LayerCosts};
use crate::report::{Metric, Report};
use crate::spans::Spans;
use crate::stats::{median, percentile, tail};
use crate::suite::{seeded, Cell, Size, Workload};
use ascoma::{RunResult, SimConfig};
use ascoma_sim::stats::KernelStats;

/// Set-up repetitions per untraced run.
const SETUP_SAMPLES: usize = 7;

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed (0 = the committed figures' traces).
    pub seed: u64,
    /// Run length in seconds, which fixes the pass count.
    pub seconds: u32,
    /// Full size or Tiny smoke size.
    pub size: Size,
    /// Regenerating references: check stability only.
    pub bless: bool,
}

impl Options {
    fn checker(&self) -> Result<Checker, String> {
        let refs = self.size == Size::Full && self.seed == 0 && !self.bless;
        Ok(Checker::new(if refs {
            Some(digest::parse(digest::REFERENCES)?)
        } else {
            None
        }))
    }
}

/// One untraced pass over every cell, each preceded by a calibration
/// sample.
struct Pass {
    outcomes: Vec<Result<Outcome, String>>,
    calibration: Vec<f64>,
}

impl Pass {
    fn run(
        spans: &mut Spans,
        w: &Workload,
        t: &Traces,
        cal: &mut Calibrator,
        chk: &mut Checker,
    ) -> Self {
        let mut calibration = Vec::new();
        let outcomes = w
            .cells()
            .iter()
            .map(|cell| {
                calibration.push(cal.sample(spans));
                run_checked(spans, w, t, cell, own_path(w), chk)
            })
            .collect();
        Self {
            outcomes,
            calibration,
        }
    }

    fn run_s(&self) -> f64 {
        self.outcomes.iter().flatten().map(|o| o.run_s).sum()
    }
}

fn own_path(w: &Workload) -> Path {
    if w.observed {
        Path::Observed
    } else {
        Path::Noop
    }
}

/// Notes every report carries: seeding and size.
fn notes(w: &Workload, o: &Options) -> Vec<String> {
    let (seeded, seedless): (Vec<_>, Vec<_>) = w.apps().into_iter().partition(|a| seeded(*a));
    let names =
        |v: Vec<ascoma_workloads::App>| v.iter().map(|a| a.name()).collect::<Vec<_>>().join(",");
    let mut n = vec![format!(
        "seed {}: seeds {}; {} seedless structural generator(s)",
        o.seed,
        if seeded.is_empty() {
            "-".into()
        } else {
            names(seeded)
        },
        if seedless.is_empty() {
            "no".into()
        } else {
            names(seedless)
        },
    )];
    if o.size == Size::Smoke {
        n.push("smoke: Tiny traces, one pass; not comparable with full-size runs".into());
    }
    n
}

/// Warm-up: the workload's first cell, untimed, checked like any other.
fn warm_up(spans: &mut Spans, w: &Workload, t: &Traces, chk: &mut Checker) {
    let id = spans.begin("pass 0 (warm-up)");
    let _ = run_checked(spans, w, t, &w.cells()[0], own_path(w), chk);
    spans.end(id);
}

/// Set up every cell without running it: trace builds plus `Machine`
/// construction.  Returns reference-host seconds.
fn setup_only(spans: &mut Spans, w: &Workload, o: &Options, cal: &mut Calibrator) -> f64 {
    let id = spans.begin("setup-only");
    let speed: Vec<f64> = (0..3).map(|_| cal.sample(spans)).collect();
    let t = Traces::build(spans, w, o.size, o.seed);
    let mut secs = t.build_s;
    for cell in w.cells() {
        let s = spans.begin("setup");
        drop(ascoma::Machine::new(
            &t.traces[cell.trace],
            cell.arch,
            &w.config(&cell),
        ));
        secs += spans.end(s);
    }
    spans.end(id);
    secs * calib::factor(&speed)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn cell_digests(w: &Workload, pass: &Pass) -> Vec<(String, Reference)> {
    w.cells()
        .iter()
        .zip(&pass.outcomes)
        .filter_map(|(cell, out)| {
            let o = out.as_ref().ok()?;
            Some((
                key(w, cell),
                Reference {
                    result: o.digest,
                    metrics: o.metrics_digest,
                },
            ))
        })
        .collect()
}

/// The untraced run: the end-to-end metrics, in reference-host seconds
/// (see [`crate::calib`]).  The traces are built once and every pass
/// reuses them; set-up is timed afterwards by repetitions of its own.
pub fn run(w: &Workload, o: &Options) -> Result<Report, String> {
    let mut spans = Spans::new();
    let mut chk = o.checker()?;
    let root = spans.begin(format!("workload {}", w.name));
    let mut cal = Calibrator::new();
    let t = Traces::build(&mut spans, w, o.size, o.seed);
    warm_up(&mut spans, w, &t, &mut chk);
    let cells = w.cells();
    let ops_per_pass: u64 = cells.iter().map(|c| t.stats[c.trace].ops).sum();
    let (mut walls, mut raw_walls, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut ns_per_op = Vec::new();
    let mut pass_ns: Vec<Vec<f64>> = Vec::new();
    let mut digests = Vec::new();
    for p in 1..=w.passes(o.size, o.seconds) {
        let id = spans.begin(format!("pass {p}"));
        let pass = Pass::run(&mut spans, w, &t, &mut cal, &mut chk);
        spans.end(id);
        let speed = calib::factor(&pass.calibration);
        let ns: Vec<f64> = cells
            .iter()
            .zip(&pass.outcomes)
            .filter_map(|(c, out)| {
                Some(out.as_ref().ok()?.run_s * speed * 1e9 / t.stats[c.trace].ops as f64)
            })
            .collect();
        ns_per_op.extend_from_slice(&ns);
        pass_ns.push(ns);
        raw_walls.push(pass.run_s());
        walls.push(pass.run_s() * speed);
        speeds.push(speed);
        digests = cell_digests(w, &pass);
    }
    drop(t);
    // Read before the set-up repetitions: rebuilding traces into a heap
    // the passes fragmented raises the high-water mark by a varying
    // amount that says nothing about the simulator.
    let peak_rss = peak_rss_mib()?;
    let setups: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| setup_only(&mut spans, w, o, &mut cal))
        .collect();
    spans.end(root);

    let wall = median(&walls);
    let mops: Vec<f64> = walls
        .iter()
        .map(|s| ops_per_pass as f64 / s / 1e6)
        .collect();
    let t = tail(&ns_per_op);
    let mut report = Report {
        workload: w.name.to_string(),
        mode: "run",
        notes: notes(w, o),
        cells: digests,
        ..Report::default()
    };
    report.notes.push(format!(
        "{} passes of {} cells; cell_ns_per_op_tail is p{} of {} cell x pass samples ({} above it)",
        walls.len(),
        cells.len(),
        t.percentile,
        t.samples,
        t.above
    ));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.notes.push(format!(
        "times are reference-host seconds: raw wall_s per pass {} x host speed factor {}",
        list(&raw_walls),
        list(&speeds)
    ));
    let sampled = |name, unit, value, samples: Vec<f64>| Metric {
        name,
        unit,
        value,
        samples,
    };
    report.metrics = vec![
        sampled("wall_s", "s", wall, walls.clone()),
        sampled(
            "sim_mops_per_s",
            "Mops/s",
            ops_per_pass as f64 / wall / 1e6,
            mops,
        ),
        sampled(
            "cell_ns_per_op_p50",
            "ns",
            median(&ns_per_op),
            pass_ns.iter().map(|p| median(p)).collect(),
        ),
        sampled(
            "cell_ns_per_op_tail",
            "ns",
            t.value,
            pass_ns
                .iter()
                .map(|p| percentile(p, t.percentile))
                .collect(),
        ),
        sampled("setup_s", "s", median(&setups), setups),
        Metric::new("peak_rss_mib", "MiB", peak_rss),
    ];
    report.attempted = chk.attempted;
    report.failed = chk.failed;
    report.failures = chk.failures;
    Ok(report)
}

/// Σ over cells of `count(cell) × cost(trace of cell)`, in ns, and
/// Σ count: one line of the ledger.
fn line(
    cells: &[Cell],
    costs: &[LayerCosts],
    count: impl Fn(usize, &Cell) -> f64,
    cost: impl Fn(&LayerCosts) -> f64,
) -> (f64, f64) {
    cells
        .iter()
        .enumerate()
        .fold((0.0, 0.0), |(ns, n), (i, c)| {
            let k = count(i, c);
            (ns + k * cost(&costs[c.trace]), n + k)
        })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The traced run: per-layer metrics, the ledger, and the span file.
///
/// Every cell runs on the no-op and counting paths back to back, plus
/// the observed path (all cells of the observed workload, the first
/// cell elsewhere), so slow drift in host speed cancels out of the
/// differences between paths.
pub fn trace(w: &Workload, o: &Options, span_file: &std::path::Path) -> Result<Report, String> {
    let mut spans = Spans::new();
    let mut chk = o.checker()?;
    let root = spans.begin(format!("workload {} (traced)", w.name));
    let t = Traces::build(&mut spans, w, o.size, o.seed);
    warm_up(&mut spans, w, &t, &mut chk);
    let cells = w.cells();
    let pass = spans.begin("pass traced");
    let mut runs: Vec<[Option<Outcome>; 3]> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let observe = w.observed || i == 0;
        let mut run = |path: Path| run_checked(&mut spans, w, &t, cell, path, &mut chk).ok();
        runs.push([
            run(Path::Noop),
            run(Path::Counting),
            if observe { run(Path::Observed) } else { None },
        ]);
    }
    spans.end(pass);
    let costs: Vec<LayerCosts> = w
        .apps()
        .iter()
        .zip(&t.traces)
        .map(|(app, trace)| layers::replay(&mut spans, app.name(), trace, &SimConfig::default()))
        .collect();
    spans.end(root);

    let (mut results, mut counted, mut observed) = (Vec::new(), Vec::new(), Vec::new());
    for (cell, [noop, counting, obs]) in cells.iter().zip(&runs) {
        let (Some(noop), Some(counting)) = (noop, counting) else {
            return Err(format!(
                "traced run of {} had cells that panicked: {:?}",
                w.name, chk.failures
            ));
        };
        if let Some(obs) = obs {
            if obs.events != counting.events {
                chk.fail(format!(
                    "{}: observed run saw {} events, counting sink {}",
                    label(w, cell),
                    obs.events,
                    counting.events
                ));
            }
            observed.push((cell, noop, obs));
        }
        results.push(noop);
        counted.push(counting);
    }
    let own: Vec<&Outcome> = if w.observed {
        observed.iter().map(|(_, _, o)| *o).collect()
    } else {
        results.clone()
    };
    let secs = |xs: &[&Outcome], f: fn(&Outcome) -> f64| xs.iter().map(|o| f(o)).sum::<f64>();
    let sum = |f: &dyn Fn(&Outcome) -> f64| results.iter().map(|o| f(o)).sum::<f64>();
    let ops: f64 = cells.iter().map(|c| t.stats[c.trace].ops as f64).sum();
    let shared: f64 = cells.iter().map(|c| t.stats[c.trace].shared as f64).sum();
    let k = |f: &dyn Fn(&RunResult) -> u64| sum(&|o: &Outcome| f(&o.result) as f64);
    let run_s = secs(&own, |o| o.run_s);
    let noop_run_s = secs(&results, |o| o.run_s);
    let examined: f64 = counted.iter().map(|o| o.examined as f64).sum();
    let total_fetches = k(&fetches);
    let shared_misses = k(&|r| r.miss.total());
    let messages = k(&|r| r.net_messages);
    let events: f64 = observed.iter().map(|(_, _, o)| o.events as f64).sum();
    let observed_ops: f64 = observed
        .iter()
        .map(|(c, _, _)| t.stats[c.trace].ops as f64)
        .sum();
    let event_wall: f64 = observed.iter().map(|(_, n, o)| o.run_s - n.run_s).sum();
    let ns_per_event = ratio(event_wall * 1e9, events);

    // The ledger: each cell's exact counts times its trace's replayed
    // ns per operation.
    let st = |c: &Cell| t.stats[c.trace];
    let res = |i: usize| &results[i].result;
    let by_ops = |_: usize, c: &Cell| st(c).ops as f64;
    let by_shared = |_: usize, c: &Cell| st(c).shared as f64;
    let replay = line(&cells, &costs, by_ops, |l| l.replay_ns);
    let sched = line(&cells, &costs, by_ops, |l| l.sched_ns);
    let tlb = line(&cells, &costs, by_shared, |l| l.tlb_ns);
    let pt = line(&cells, &costs, by_shared, |l| l.pt_ns);
    let pageout = line(
        &cells,
        &costs,
        |i, _| counted[i].examined as f64,
        |l| l.pageout_ns,
    );
    let l1 = line(&cells, &costs, by_ops, |l| l.l1_ns);
    let local = line(
        &cells,
        &costs,
        |i, _| res(i).miss.total() as f64,
        |l| l.local_fetch_ns,
    );
    let dir = line(&cells, &costs, |i, _| fetches(res(i)) as f64, |l| l.dir_ns);
    let net = line(
        &cells,
        &costs,
        |i, _| res(i).net_messages as f64,
        |l| l.send_ns,
    );
    // On the observed workload event handling is part of the path run_s
    // times; elsewhere it is compiled away.
    let obs_ns = if w.observed {
        events * ns_per_event
    } else {
        0.0
    };
    let ledger_ns: f64 = [replay, sched, tlb, pt, pageout, l1, local, dir, net]
        .iter()
        .map(|(ns, _)| ns)
        .sum();
    let attributed_s = (ledger_ns + obs_ns) / 1e9;
    let per = |(ns, n): (f64, f64)| ratio(ns, n);
    let weighted = |count: &dyn Fn(&Cell) -> f64, r: &dyn Fn(&LayerCosts) -> f64| {
        let total: f64 = cells.iter().map(count).sum();
        ratio(
            cells.iter().map(|c| count(c) * r(&costs[c.trace])).sum(),
            total,
        )
    };
    let exec_total = k(&|r| r.exec.total());
    let kernel = |f: fn(&KernelStats) -> u64| k(&|r| f(&r.kernel));

    let m = Metric::new;
    let mut report = Report {
        workload: w.name.to_string(),
        mode: "trace",
        notes: notes(w, o),
        ..Report::default()
    };
    report.metrics = vec![
        m("workloads.build_s", "s", t.build_s),
        m("workloads.ops", "count", ops),
        m("workloads.shared_accesses", "count", shared),
        m("workloads.replay_ns_per_op", "ns", per(replay)),
        m("sim.sched_ns_per_op", "ns", per(sched)),
        m("vm.tlb_probes", "count", shared),
        m(
            "vm.tlb_miss_ratio",
            "ratio",
            weighted(&|c| st(c).shared as f64, &|l| l.tlb_miss_ratio),
        ),
        m("vm.tlb_ns_per_probe", "ns", per(tlb)),
        m("vm.pt_ns_per_touch", "ns", per(pt)),
        m("vm.page_faults", "count", kernel(|s| s.page_faults)),
        m("vm.upgrades", "count", kernel(|s| s.upgrades)),
        m("vm.downgrades", "count", kernel(|s| s.downgrades)),
        m("vm.daemon_runs", "count", kernel(|s| s.daemon_runs)),
        m("vm.pages_examined", "count", examined),
        m("vm.pages_reclaimed", "count", kernel(|s| s.pages_reclaimed)),
        m("vm.blocks_flushed", "count", kernel(|s| s.blocks_flushed)),
        m(
            "vm.relocation_yield",
            "ratio",
            ratio(kernel(|s| s.upgrades), kernel(|s| s.relocation_interrupts)),
        ),
        m(
            "vm.daemon_failure_ratio",
            "ratio",
            ratio(kernel(|s| s.daemon_failures), kernel(|s| s.daemon_runs)),
        ),
        m(
            "vm.reclaim_yield",
            "ratio",
            ratio(kernel(|s| s.pages_reclaimed), examined),
        ),
        m("vm.pageout_ns_per_examined", "ns", per(pageout)),
        m("mem.l1_probes", "count", ops),
        m(
            "mem.l1_replay_miss_ratio",
            "ratio",
            weighted(&|c| st(c).ops as f64, &|l| l.l1_miss_ratio),
        ),
        m("mem.l1_ns_per_probe", "ns", per(l1)),
        m("mem.local_fetch_ns", "ns", per(local)),
        m("mem.shared_misses", "count", shared_misses),
        m(
            "mem.local_service_share",
            "ratio",
            ratio(k(&|r| r.miss.local()), shared_misses),
        ),
        m("proto.fetches", "count", total_fetches),
        m(
            "proto.fetch_3hop_share",
            "ratio",
            ratio(k(&|r| r.proto.fetch_3hop), total_fetches),
        ),
        m(
            "proto.invalidations",
            "count",
            k(&|r| r.proto.invalidations),
        ),
        m(
            "proto.relocation_notices",
            "count",
            k(&|r| r.proto.relocation_notices),
        ),
        m("proto.dir_fetch_ns", "ns", per(dir)),
        m("net.messages", "count", messages),
        m("net.msgs_per_op", "ratio", ratio(messages, ops)),
        m(
            "net.queued_cycles_per_msg",
            "cycles",
            ratio(k(&|r| r.net_queued_cycles), messages),
        ),
        m("net.send_ns", "ns", per(net)),
        m("core.machine_new_s", "s", secs(&own, |o| o.setup_s)),
        m("core.run_s", "s", run_s),
        m("core.host_ns_per_op", "ns", ratio(run_s * 1e9, ops)),
        m("core.sim_cycles", "cycles", k(&|r| r.cycles)),
        m(
            "core.k_overhd_share",
            "ratio",
            ratio(k(&|r| r.exec.k_overhd), exec_total),
        ),
        m(
            "core.u_sh_mem_share",
            "ratio",
            ratio(k(&|r| r.exec.u_sh_mem), exec_total),
        ),
        m("core.ledger_attributed_s", "s", attributed_s),
        m(
            "core.ledger_residual_share",
            "ratio",
            1.0 - ratio(attributed_s, run_s),
        ),
        m("obs.events", "count", events),
        m(
            "obs.snapshots",
            "count",
            observed.iter().map(|(_, _, o)| o.snapshots as f64).sum(),
        ),
        m("obs.events_per_op", "ratio", ratio(events, observed_ops)),
        m("obs.ns_per_event", "ns", ns_per_event),
        m(
            "bench.trace_overhead",
            "ratio",
            ratio(secs(&counted, |o| o.run_s), noop_run_s) - 1.0,
        ),
        m(
            "bench.harness_self_s",
            "s",
            spans
                .all()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name.starts_with("pass") || s.name.starts_with("workload"))
                .map(|(i, _)| spans.self_secs(i))
                .sum(),
        ),
    ];
    report.notes.push(format!(
        "ledger: {:.3} s of core.run_s {:.3} s attributed to layer replays ({} ns/event x {} events for obs); \
         pageout replay scans node 0's S-COMA frames at pressure 0.9",
        attributed_s, run_s, ns_per_event, events
    ));
    if let Some(dir) = span_file.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(span_file, spans.chrome_json())
        .map_err(|e| format!("{}: {e}", span_file.display()))?;
    report
        .notes
        .push(format!("spans written to {}", span_file.display()));
    report.attempted = chk.attempted;
    report.failed = chk.failed;
    report.failures = chk.failures;
    Ok(report)
}
