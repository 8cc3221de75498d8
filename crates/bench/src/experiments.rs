//! The experiment registry behind `bench <name>`: every table, figure,
//! ablation and the claim checklist of the reproduction.
//!
//! Each [`Experiment`] declares the [`Flag`]s it honours with their
//! defaults, and its `run` builds one cell list, hands it once to
//! [`run_cells`], and renders the results as text.  The rendered text is
//! what `results/<name>.txt` holds (`scripts/regen_results.sh`).
//!
//! ```text
//! bench table1 --app em3d --pressure 0.1,0.5,0.9
//! bench figures --csv > figures.csv
//! bench ablation_rac --app fft,em3d
//! ```

use crate::{build_traces, Flag, Options};
use ascoma::experiments::{
    assemble_figure, figure_grid, run_cells, table6_cell, Cell, FigureData, PAPER_PRESSURES,
};
use ascoma::parallel::run_indexed;
use ascoma::probe::probe_table4;
use ascoma::result::RunResult;
use ascoma::{chart, presets, report, Arch, SimConfig};
use ascoma_obs::{ControllerParams, Phase};
use ascoma_workloads::analyze::profile;
use ascoma_workloads::apps::em3d::Em3dParams;
use ascoma_workloads::apps::micro;
use ascoma_workloads::trace::Trace;
use ascoma_workloads::{App, SizeClass};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One experiment of the registry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Subcommand name (`bench <name>`).
    pub name: &'static str,
    /// One-line description for `bench --help`.
    pub about: &'static str,
    /// The flags this experiment honours, with their defaults.
    pub flags: &'static [Flag],
    /// Run it: the rendered output and the process exit code.
    pub run: fn(&Options) -> (String, i32),
}

const APPS: Flag = Flag::Apps(&App::ALL);
const SIZE: Flag = Flag::Size(SizeClass::Default);
const JOBS: Flag = Flag::Jobs;
const PRESSURES: Flag = Flag::Pressures(&PAPER_PRESSURES);
/// The figure-grid selection: `table1`, and `bench watch`.
pub const SWEEP: &[Flag] = &[APPS, PRESSURES, SIZE, JOBS];

/// Builds [`REGISTRY`] from `name: about, flags;` rows, where `name` is
/// both the subcommand and the function that runs it.
macro_rules! registry {
    ($($name:ident: $about:literal, $flags:expr;)*) => {
        &[$(Experiment { name: stringify!($name), about: $about, flags: $flags, run: $name },)*]
    };
}

/// Every experiment, in `bench --help` order.
pub const REGISTRY: &[Experiment] = registry! {
    table1: "remote-overhead terms, protocol and kernel counters per arch", SWEEP;
    table2: "storage cost and complexity of each model", &[];
    table3: "cache and network characteristics of the modeled machine", &[];
    table4: "minimum access latencies, measured by differential probes", &[];
    table5: "programs, home pages, max remote pages and ideal pressure", &[APPS, SIZE];
    table6: "remote pages accessed vs relocated under R-NUMA at 10%", &[APPS, SIZE, JOBS];
    figures: "Figures 2-3: relative execution time and miss location",
        &[APPS, PRESSURES, SIZE, JOBS, Flag::Csv, Flag::Chart];
    scaling: "machine-size scaling of the AS-COMA advantage (4-32 nodes)", &[];
    ablation_alloc: "S-COMA-first initial allocation on vs off (AS-COMA)",
        &[APPS, Flag::Pressures(&[0.1]), SIZE, JOBS];
    ablation_associativity: "L1 associativity 1/2/4-way on barnes and em3d", &[];
    ablation_backoff: "AS-COMA thrashing back-off on vs off at high pressure",
        &[APPS, Flag::Pressures(&[0.7, 0.9]), SIZE];
    ablation_controller: "back-off auto-tuner vs the paper's fixed constants (AS-COMA)", SWEEP;
    ablation_costs: "relocation-path kernel costs scaled 0.5x-4x at 90% pressure",
        &[Flag::Apps(&[App::Radix]), SIZE, JOBS];
    ablation_interconnect: "AS-COMA win under the paper and a high-end interconnect", &[];
    ablation_rac: "RAC size 0-8 KB under CC-NUMA", &[APPS, SIZE, JOBS];
    ablation_replication: "read-only page replication under CC-NUMA", &[];
    ablation_threshold: "initial relocation threshold 16-256, R-NUMA and AS-COMA",
        &[Flag::Apps(&[App::Em3d]), Flag::Pressures(&[0.3, 0.9]), SIZE, JOBS];
    validate_claims: "pass/fail checklist of the headline claims (exit 1 on a failure)", &[JOBS];
};

/// The registry entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// `cfg` with `edit` applied.
fn with(mut cfg: SimConfig, edit: impl FnOnce(&mut SimConfig)) -> SimConfig {
    edit(&mut cfg);
    cfg
}

/// `new / old - 1` in percent.
fn pct(new: u64, old: u64) -> f64 {
    (new as f64 / old as f64 - 1.0) * 100.0
}

/// The figures of `o.apps` over `o.pressures`: one cell list, one run.
pub fn figure_data(o: &Options) -> Vec<FigureData> {
    let base = SimConfig::default();
    let traces = build_traces(&o.apps, o.size, &base, o.jobs());
    let cells = figure_grid(&traces, &o.pressures, &base);
    let per_app = cells.len() / traces.len().max(1);
    let mut runs = run_cells(&cells, o.jobs(), None).into_iter();
    traces
        .iter()
        .map(|t| assemble_figure(&t.name, runs.by_ref().take(per_app).collect()))
        .collect()
}

/// Every trace under every `(arch, config)` variant, in one
/// [`run_cells`] call; each trace's runs come back in variant order.
fn cross(traces: &[Trace], variants: &[(Arch, SimConfig)], jobs: usize) -> Vec<Vec<RunResult>> {
    let cells: Vec<_> = traces
        .iter()
        .flat_map(|t| {
            variants
                .iter()
                .map(move |&(arch, cfg)| Cell::new(t, arch, cfg))
        })
        .collect();
    let mut runs = run_cells(&cells, jobs, None).into_iter();
    traces
        .iter()
        .map(|_| runs.by_ref().take(variants.len()).collect())
        .collect()
}

/// The ablation shape: `title`, then per app of `o` an `== app ==`
/// header and the lines `rows` renders from its runs under `variants`.
fn per_app(
    title: &str,
    o: &Options,
    variants: &[(Arch, SimConfig)],
    mut rows: impl FnMut(&mut String, &[RunResult]),
) -> (String, i32) {
    let traces = build_traces(&o.apps, o.size, &SimConfig::default(), o.jobs());
    let mut s = format!("{title}\n");
    for (t, runs) in traces.iter().zip(cross(&traces, variants, o.jobs())) {
        let _ = writeln!(s, "== {} ==", t.name);
        rows(&mut s, &runs);
    }
    (s, 0)
}

fn table1(o: &Options) -> (String, i32) {
    let mut s = String::new();
    for data in figure_data(o) {
        let runs: Vec<_> = data.bars.into_iter().map(|b| b.run).collect();
        let _ = writeln!(s, "== {} ==", data.app);
        let _ = writeln!(s, "{}", report::table1(&runs));
        let _ = writeln!(s, "{}", report::proto_table(&runs));
        let _ = writeln!(
            s,
            "{:<8} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            "arch", "press", "upgrades", "dngrades", "dmn-runs", "dmn-fail", "interrpts", "flushed"
        );
        for r in &runs {
            let k = &r.kernel;
            let _ = writeln!(
                s,
                "{:<8} {:>5.0}% {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
                r.arch.name(),
                r.pressure * 100.0,
                k.upgrades,
                k.downgrades,
                k.daemon_runs,
                k.daemon_failures,
                k.relocation_interrupts,
                k.blocks_flushed,
            );
        }
        s.push('\n');
    }
    (s, 0)
}

fn table2(_: &Options) -> (String, i32) {
    (report::table2(&SimConfig::default(), 8), 0)
}

fn table3(_: &Options) -> (String, i32) {
    (report::table3(&SimConfig::default()), 0)
}

fn table4(_: &Options) -> (String, i32) {
    (report::table4(&probe_table4(&SimConfig::default())), 0)
}

fn table5(o: &Options) -> (String, i32) {
    let pb = SimConfig::default().geometry.page_bytes();
    let profiles: Vec<_> = o
        .apps
        .iter()
        .map(|app| profile(&app.build(o.size, pb), pb))
        .collect();
    (report::table5(&profiles), 0)
}

fn table6(o: &Options) -> (String, i32) {
    let base = SimConfig::default();
    let traces = build_traces(&o.apps, o.size, &base, o.jobs());
    let cells: Vec<_> = traces.iter().map(|t| table6_cell(t, &base)).collect();
    let runs = run_cells(&cells, o.jobs(), None);
    let rows: Vec<_> = traces.iter().map(|t| t.name.as_str()).zip(&runs).collect();
    (report::table6(&rows), 0)
}

fn figures(o: &Options) -> (String, i32) {
    let mut s = String::new();
    for data in &figure_data(o) {
        if o.csv {
            s += &report::figure_csv(data);
        } else if o.chart {
            let _ = writeln!(s, "{}", chart::exec_chart(data));
            let _ = writeln!(s, "{}", chart::miss_chart(data));
        } else {
            let _ = writeln!(s, "{}", report::figure(data));
        }
    }
    (s, 0)
}

/// Extension: sweep machine size on an em3d-like workload over the
/// two-level switch tree (remote latency rises at 2 levels; per-node
/// home share shrinks).
fn scaling(o: &Options) -> (String, i32) {
    const NODES: [usize; 4] = [4, 8, 16, 32];
    let cfg = SimConfig::at_pressure(0.7);
    let traces = run_indexed(NODES.len(), o.jobs(), |i| {
        let params = Em3dParams {
            nodes: NODES[i],
            n_per_node: 4096,
            iters: 6,
            ..Em3dParams::default()
        };
        params.build(cfg.geometry.page_bytes())
    });
    let variants = [Arch::CcNuma, Arch::RNuma, Arch::AsComa].map(|arch| (arch, cfg));
    let mut s = String::from("machine-size scaling (em3d-like, 70% pressure)\n");
    let _ = writeln!(
        s,
        "{:>6} | {:>12} {:>12} {:>12} | {:>14}",
        "nodes", "CCNUMA", "RNUMA", "ASCOMA", "ASCOMA vs CC"
    );
    for (t, r) in traces.iter().zip(cross(&traces, &variants, o.jobs())) {
        let (cc, rn, asc) = (r[0].cycles, r[1].cycles, r[2].cycles);
        let _ = writeln!(
            s,
            "{:>6} | {cc:>12} {rn:>12} {asc:>12} | {:+.1}%",
            t.nodes,
            pct(asc, cc)
        );
    }
    (s, 0)
}

/// §5.1: AS-COMA's S-COMA-preferred initial allocation on and off; it
/// "can improve the performance of hybrid architectures moderately"
/// at low pressure, most on radix.
fn ablation_alloc(o: &Options) -> (String, i32) {
    let mut variants = Vec::new();
    for &p in &o.pressures {
        let on = SimConfig::at_pressure(p);
        let off = with(on, |c| c.policy.ascoma_scoma_first = false);
        variants.extend([(Arch::AsComa, on), (Arch::AsComa, off)]);
    }
    let title = "S-COMA-first initial allocation ablation (AS-COMA)";
    per_app(title, o, &variants, |s, runs| {
        for pair in runs.chunks_exact(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let _ = writeln!(s, "  scoma-first: {}", report::summary_line(a));
            let _ = writeln!(s, "  numa-first : {}", report::summary_line(b));
            let gain = pct(b.cycles, a.cycles);
            let _ = writeln!(s, "  S-COMA-first initial allocation wins by {gain:.1}%");
        }
    })
}

/// L1 associativity beyond the paper's direct-mapped cache recovers
/// *local* conflict misses but barely dents the capacity-driven remote
/// miss stream, so the hybrids' page-cache advantage persists.
fn ablation_associativity(o: &Options) -> (String, i32) {
    const WAYS: [usize; 3] = [1, 2, 4];
    let base = SimConfig::at_pressure(0.3);
    let mut variants = Vec::new();
    for ways in WAYS {
        let cfg = with(base, |c| c.l1_ways = ways);
        variants.extend([(Arch::CcNuma, cfg), (Arch::AsComa, cfg)]);
    }
    let o = Options {
        apps: vec![App::Barnes, App::Em3d],
        ..o.clone()
    };
    let title = "L1 associativity ablation (30% pressure)\n";
    per_app(title, &o, &variants, |s, runs| {
        for (ways, pair) in WAYS.iter().zip(runs.chunks_exact(2)) {
            let (cc, asc) = (&pair[0], &pair[1]);
            let _ = writeln!(
                s,
                "  {}-way: CC-NUMA {:.3} (vs 1-way)  AS-COMA win {:+.1}%  CC conf/capc {}",
                ways,
                cc.cycles as f64 / runs[0].cycles as f64,
                pct(cc.cycles, asc.cycles),
                cc.miss.conf_capc_chart(),
            );
        }
        s.push('\n');
    })
}

/// §5.2: AS-COMA at high pressure with its thrashing back-off on and off
/// (thresholds never rise, the daemon never slows); without it the
/// hybrid thrashes like R-NUMA.
fn ablation_backoff(o: &Options) -> (String, i32) {
    // CC-NUMA never maps S-COMA frames, so one baseline run serves every
    // pressure (only its reported pressure is restamped).
    let mut variants = vec![(Arch::CcNuma, SimConfig::default())];
    for &p in &o.pressures {
        let on = SimConfig::at_pressure(p);
        let off = with(on, |c| c.policy.ascoma_backoff = false);
        variants.extend([(Arch::AsComa, on), (Arch::AsComa, off)]);
    }
    let title = "back-off ablation (AS-COMA at high pressure)";
    per_app(title, o, &variants, |s, runs| {
        let mut cc = runs[0].clone();
        for (&p, pair) in o.pressures.iter().zip(runs[1..].chunks_exact(2)) {
            let (a, b) = (&pair[0], &pair[1]);
            cc.pressure = p;
            let _ = writeln!(s, "  CC-NUMA    : {}", report::summary_line(&cc));
            let _ = writeln!(s, "  backoff on : {}", report::summary_line(a));
            let _ = writeln!(s, "  backoff off: {}", report::summary_line(b));
            let _ = writeln!(
                s,
                "  back-off wins by {:.1}% (vs CC-NUMA: on {:+.1}%, off {:+.1}%)",
                pct(b.cycles, a.cycles),
                pct(a.cycles, cc.cycles),
                pct(b.cycles, cc.cycles),
            );
        }
    })
}

/// The back-off auto-tuner's constants at `size`: Tiny runs decide every
/// 50K cycles so they still see several windows.
fn controller_params(size: SizeClass) -> ControllerParams {
    match size {
        SizeClass::Tiny => ControllerParams {
            window: 50_000,
            ..ControllerParams::enabled()
        },
        _ => ControllerParams::enabled(),
    }
}

/// Per pressure of `o`: AS-COMA with the controller off, then on.
fn controller_variants(o: &Options) -> Vec<(Arch, SimConfig)> {
    let params = controller_params(o.size);
    let mut variants = Vec::new();
    for &p in &o.pressures {
        let fixed = SimConfig::at_pressure(p);
        let auto = with(fixed, |c| c.controller = params);
        variants.extend([(Arch::AsComa, fixed), (Arch::AsComa, auto)]);
    }
    variants
}

/// §5.2's back-off with the paper's fixed constants against the online
/// auto-tuner that retunes `threshold_increment` and the daemon period
/// per node (DESIGN.md §19), with every controller decision printed.
fn ablation_controller(o: &Options) -> (String, i32) {
    let c = controller_params(o.size);
    let title = format!(
        "back-off controller ablation: fixed constants vs auto-tuner (AS-COMA)\n\
         auto leg: window {}, ewma shift {}, hot {}/{}, cold {}, reclaim {}, backlog {}, \
         confirm {}, inc {}..{}, period shift {}",
        c.window,
        c.ewma_shift,
        c.hot_enter,
        c.hot_exit,
        c.cold_enter,
        c.reclaim_enter,
        c.backlog_enter,
        c.confirm,
        c.inc_min,
        c.inc_max,
        c.period_shift_max,
    );
    // [auto faster, tied, static faster], indexed by `auto.cmp(static)`.
    let mut tally = [0usize; 3];
    let (mut s, code) = per_app(&title, o, &controller_variants(o), |s, runs| {
        for (&p, pair) in o.pressures.iter().zip(runs.chunks_exact(2)) {
            let (fixed, auto) = (&pair[0], &pair[1]);
            tally[(auto.cycles.cmp(&fixed.cycles) as i8 + 1) as usize] += 1;
            let _ = writeln!(
                s,
                "  pressure {p:.2}: static {} auto {} ({:+}) decisions {}",
                fixed.cycles,
                auto.cycles,
                auto.cycles as i128 - fixed.cycles as i128,
                auto.controller.as_ref().map_or(0, |cs| cs.decisions),
            );
            for n in auto.controller.iter().flat_map(|cs| &cs.per_node) {
                let _ = writeln!(
                    s,
                    "    node {}: {} phase changes, {} tunes, final {} inc {} period {}",
                    n.node,
                    n.phase_changes,
                    n.tunes,
                    n.final_phase.tag(),
                    n.final_inc,
                    n.final_period,
                );
                s.push_str("      dwell");
                for (ph, d) in Phase::ALL.iter().zip(n.dwell) {
                    let _ = write!(s, " {} {d}", ph.tag());
                }
                s.push_str("\n      knobs");
                for k in &n.knob_trajectory {
                    let _ = write!(s, " {}:{}/{}", k.window, k.inc, k.period);
                }
                s.push_str("\n      phases");
                for ph in &n.phase_trajectory {
                    let _ = write!(s, " {}:{}", ph.window, ph.phase.tag());
                }
                s.push('\n');
            }
        }
    });
    let [auto_wins, ties, static_wins] = tally;
    let _ = writeln!(
        s,
        "verdict: auto faster on {auto_wins}, tied on {ties}, static faster on {static_wins} \
         of {} cells; auto <= static on a majority: {}",
        auto_wins + ties + static_wins,
        (auto_wins + ties) * 2 >= auto_wins + ties + static_wins,
    );
    (s, code)
}

/// Kernel-cost sensitivity: the relocation-path costs (interrupt,
/// remap, per-block flush) scaled around the DESIGN.md §4 calibration.
fn ablation_costs(o: &Options) -> (String, i32) {
    const SCALES: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
    let mut variants = Vec::new();
    for scale in SCALES {
        let scaled = |cost: &mut u64| *cost = (*cost as f64 * scale) as u64;
        let cfg = with(SimConfig::at_pressure(0.9), |c| {
            scaled(&mut c.kernel.relocation_interrupt);
            scaled(&mut c.kernel.remap);
            scaled(&mut c.kernel.flush_per_block);
        });
        variants.extend([Arch::CcNuma, Arch::RNuma, Arch::AsComa].map(|arch| (arch, cfg)));
    }
    let title = "kernel-cost sensitivity sweep (90% pressure)";
    per_app(title, o, &variants, |s, runs| {
        let _ = writeln!(
            s,
            "{:>6} | {:>10} {:>10} {:>10} | {:>16}",
            "scale", "CCNUMA", "RNUMA", "ASCOMA", "ASCOMA vs RNUMA"
        );
        for (scale, r) in SCALES.iter().zip(runs.chunks_exact(3)) {
            let (cc, rn, asc) = (r[0].cycles, r[1].cycles, r[2].cycles);
            let _ = writeln!(
                s,
                "{scale:>5.1}x | {cc:>10} {rn:>10} {asc:>10} | ASCOMA {:+.1}% faster",
                pct(rn, asc),
            );
        }
    })
}

/// The page-caching win under the paper interconnect (~3.3:1
/// remote:local) and a high-end one (~2:1): the cheaper remote accesses
/// become, the less the page cache saves.
fn ablation_interconnect(o: &Options) -> (String, i32) {
    let machines = [
        ("paper (~3.3:1)", presets::paper(0.3)),
        ("high-end (~2:1)", presets::fast_interconnect(0.3)),
    ];
    let variants: Vec<_> = machines
        .iter()
        .flat_map(|&(_, cfg)| [Arch::CcNuma, Arch::AsComa].map(|arch| (arch, cfg)))
        .collect();
    let apps = [App::Barnes, App::Em3d, App::Radix];
    let traces = build_traces(&apps, SizeClass::Default, &machines[0].1, o.jobs());
    let runs = cross(&traces, &variants, o.jobs());
    let mut s =
        String::from("interconnect ablation: AS-COMA win vs remote:local ratio (30% pressure)\n\n");
    for (m, (name, cfg)) in machines.iter().enumerate() {
        let probe = probe_table4(cfg);
        let ratio = probe.remote_local_ratio();
        let remote = probe.remote_memory;
        let _ = writeln!(
            s,
            "-- {name}: remote {remote:.0} cycles, ratio {ratio:.2} --"
        );
        for (t, r) in traces.iter().zip(&runs) {
            let win = pct(r[2 * m].cycles, r[2 * m + 1].cycles);
            let _ = writeln!(s, "   {:<8} AS-COMA beats CC-NUMA by {win:+.1}%", t.name);
        }
        s.push('\n');
    }
    (s, 0)
}

/// The paper's 512-byte RAC "had a larger impact on performance than we
/// had anticipated", especially for fft's sequential remote reads.
fn ablation_rac(o: &Options) -> (String, i32) {
    const RAC_SIZES: [u64; 4] = [0, 512, 2048, 8192];
    let variants = RAC_SIZES.map(|b| {
        (
            Arch::CcNuma,
            with(SimConfig::default(), |c| c.rac_bytes = b),
        )
    });
    per_app("RAC size ablation (CC-NUMA)", o, &variants, |s, runs| {
        for (rac_bytes, r) in RAC_SIZES.iter().zip(runs) {
            let _ = writeln!(
                s,
                "  rac={:>5}B rel-time={:.3} rac-hits={:>9} {}",
                rac_bytes,
                r.cycles as f64 / runs[0].cycles as f64,
                r.miss.rac,
                report::summary_line(r)
            );
        }
    })
}

/// §2.2 extension: read-only replication fully localizes a never-written
/// remote lookup table, while the paper workloads (whose shared pages
/// are all written) gain nothing.
fn ablation_replication(o: &Options) -> (String, i32) {
    let off = SimConfig::at_pressure(0.3);
    let on = with(off, |c| c.policy.replicate_read_only = true);
    let variants = [(Arch::CcNuma, off), (Arch::CcNuma, on)];
    let mut traces = vec![micro::read_only_table(8, 32, 8, 4096)];
    traces.extend(build_traces(&App::ALL, SizeClass::Default, &off, o.jobs()));
    let runs = cross(&traces, &variants, o.jobs());
    let mut s = String::from("read-only replication ablation (CC-NUMA, 30% pressure)\n\n");
    s += "-- read-only lookup table (the case it is for) --\n";
    let (off, on) = (&runs[0][0], &runs[0][1]);
    let _ = writeln!(s, "  off: {}", report::summary_line(off));
    let _ = writeln!(s, "  on : {}", report::summary_line(on));
    let _ = writeln!(
        s,
        "  replication wins by {:.1}% ({} replicas, {} collapses)\n",
        pct(off.cycles, on.cycles),
        on.kernel.replications,
        on.kernel.replica_collapses
    );
    s += "-- the paper's workloads (all shared pages get written) --\n";
    for (t, r) in traces.iter().zip(&runs).skip(1) {
        let _ = writeln!(
            s,
            "  {:<8} gain {:+.2}%  (replicas {}, collapses {})",
            t.name,
            pct(r[0].cycles, r[1].cycles),
            r[1].kernel.replications,
            r[1].kernel.replica_collapses,
        );
    }
    (s, 0)
}

/// The relocation threshold: "too low ... leads to thrashing; too high,
/// remappings that could be usefully made will be delayed."  Fixed for
/// R-NUMA, only AS-COMA's adaptive starting point.
fn ablation_threshold(o: &Options) -> (String, i32) {
    const THRESHOLDS: [u32; 5] = [16, 32, 64, 128, 256];
    let grid: Vec<_> = o
        .pressures
        .iter()
        .flat_map(|&p| THRESHOLDS.map(|th| (p, th)))
        .collect();
    let mut variants = Vec::new();
    for &(p, threshold) in &grid {
        let cfg = with(SimConfig::at_pressure(p), |c| {
            c.policy.initial_threshold = threshold
        });
        variants.extend([(Arch::RNuma, cfg), (Arch::AsComa, cfg)]);
    }
    per_app("relocation-threshold sweep", o, &variants, |s, runs| {
        let _ = writeln!(
            s,
            "{:>9} {:>6} | {:>12} {:>9} | {:>12} {:>9} {:>14}",
            "threshold", "press", "RNUMA cyc", "upgrades", "ASCOMA cyc", "upgrades", "final thresh"
        );
        for ((p, threshold), pair) in grid.iter().zip(runs.chunks_exact(2)) {
            let (r, a) = (&pair[0], &pair[1]);
            let tmax = a.final_thresholds.iter().max().copied().unwrap_or(0);
            let _ = writeln!(
                s,
                "{:>9} {:>5.0}% | {:>12} {:>9} | {:>12} {:>9} {:>14}",
                threshold,
                p * 100.0,
                r.cycles,
                r.kernel.upgrades,
                a.cycles,
                a.kernel.upgrades,
                tmax
            );
        }
    })
}

/// The reproduction checklist: the paper's headline claims re-measured
/// at Default scale (the release-mode companion of `tests/shapes.rs`).
fn validate_claims(o: &Options) -> (String, i32) {
    use App::{Barnes, Em3d, Fft, Lu, Ocean, Radix};
    use Arch::{AsComa, RNuma, Scoma, VcNuma};
    let grid = Options {
        apps: App::ALL.to_vec(),
        pressures: vec![0.1, 0.5, 0.7, 0.9],
        size: SizeClass::Default,
        ..o.clone()
    };
    // Relative time per (app, arch, pressure %); the CC-NUMA run is the
    // 1.0 baseline at every pressure.
    let mut rel = HashMap::new();
    for (&app, data) in App::ALL.iter().zip(figure_data(&grid)) {
        for bar in &data.bars {
            let r = &bar.run;
            let ps = if r.arch == Arch::CcNuma {
                grid.pressures.clone()
            } else {
                vec![r.pressure]
            };
            for p in ps {
                rel.insert((app, r.arch, (p * 100.0).round() as u32), bar.relative_time);
            }
        }
    }
    let get = |app, arch, p: u32| rel[&(app, arch, p)];
    let max = |v: &mut dyn Iterator<Item = f64>| v.fold(0.0, f64::max);
    let all = |apps: &[App], archs: &[Arch], ps: &[u32], ok: &dyn Fn(f64) -> bool| {
        apps.iter()
            .all(|&a| archs.iter().all(|&h| ps.iter().all(|&p| ok(get(a, h, p)))))
    };

    let gap = max(&mut App::ALL
        .iter()
        .map(|&a| (get(a, AsComa, 10) / get(a, Scoma, 10) - 1.0).abs()));
    let scoma = max(&mut [Barnes, Em3d, Radix].iter().map(|&a| get(a, Scoma, 90)));
    let (barnes, radix) = (get(Barnes, RNuma, 90), get(Radix, RNuma, 90));
    let ascoma = max(&mut App::ALL
        .iter()
        .flat_map(|&a| [10, 50, 70, 90].map(|p| get(a, AsComa, p))));
    let vc_between = [Barnes, Radix].iter().all(|&a| {
        let v = get(a, VcNuma, 90);
        v <= get(a, RNuma, 90) + 0.01 && v >= get(a, AsComa, 90) - 0.01
    });
    let radix_gain = get(Radix, RNuma, 10) / get(Radix, AsComa, 10) - 1.0;
    let hybrids = [Scoma, AsComa, VcNuma, RNuma];
    let claims = [
        (
            "AS-COMA acts like S-COMA at 10% pressure",
            gap < 0.05,
            format!("max |gap| {:.1}%", gap * 100.0),
        ),
        (
            "pure S-COMA thrashes at 90% pressure",
            scoma > 2.0,
            format!("up to {scoma:.1}x CC-NUMA"),
        ),
        (
            "R-NUMA loses to CC-NUMA at 90% pressure",
            barnes > 1.02 && radix > 1.02,
            format!("barnes {barnes:.2}, radix {radix:.2}"),
        ),
        (
            "AS-COMA never loses to CC-NUMA by more than ~5%",
            ascoma < 1.06,
            format!("worst {ascoma:.3}"),
        ),
        (
            "VC-NUMA sits between R-NUMA and AS-COMA at 90%",
            vc_between,
            String::new(),
        ),
        (
            "S-COMA-first allocation wins big on radix at 10% (paper: 37%)",
            radix_gain > 0.25,
            format!("{:.0}%", radix_gain * 100.0),
        ),
        (
            "lu: every hybrid beats CC-NUMA at all pressures",
            all(&[Lu], &hybrids, &[10, 50, 90], &|r| r < 1.0),
            String::new(),
        ),
        (
            "fft/ocean are architecture-insensitive",
            all(&[Fft, Ocean], &hybrids[1..], &[10, 90], &|r| {
                (0.9..1.1).contains(&r)
            }),
            String::new(),
        ),
    ];
    let mut s = String::new();
    for (name, ok, detail) in &claims {
        let verdict = if *ok { "PASS" } else { "FAIL" };
        let _ = writeln!(s, "[{verdict}] {name}: {detail}");
    }
    let failed = claims.iter().filter(|c| !c.1).count();
    let _ = writeln!(s, "\n{} passed, {failed} failed", claims.len() - failed);
    (s, i32::from(failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(name: &str, args: &str) -> Result<Options, String> {
        let e = find(name).expect("registered");
        Options::parse(e.flags, args.split_whitespace().map(String::from))
    }

    const PAPER_ARGS: &str = "--pressure 0.1,0.3,0.5,0.7,0.9";
    const ALL_APPS: &str = "--app barnes,em3d,fft,lu,ocean,radix";

    #[test]
    fn registry_names_are_unique() {
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(REGISTRY[..i].iter().all(|p| p.name != e.name), "{}", e.name);
        }
    }

    #[test]
    fn ablation_threshold_keeps_an_explicit_five_pressure_list() {
        assert_eq!(
            parse("ablation_threshold", "").unwrap().pressures,
            [0.3, 0.9]
        );
        let o = parse("ablation_threshold", PAPER_ARGS).unwrap();
        assert_eq!(o.pressures, PAPER_PRESSURES);
    }

    #[test]
    fn ablation_threshold_keeps_an_explicit_six_app_list() {
        assert_eq!(parse("ablation_threshold", "").unwrap().apps, [App::Em3d]);
        assert_eq!(
            parse("ablation_threshold", ALL_APPS).unwrap().apps,
            App::ALL
        );
    }

    #[test]
    fn ablation_costs_keeps_an_explicit_six_app_list() {
        assert_eq!(parse("ablation_costs", "").unwrap().apps, [App::Radix]);
        assert_eq!(parse("ablation_costs", ALL_APPS).unwrap().apps, App::ALL);
    }

    #[test]
    fn ablation_alloc_keeps_an_explicit_paper_pressure_list() {
        assert_eq!(parse("ablation_alloc", "").unwrap().pressures, [0.1]);
        let o = parse("ablation_alloc", PAPER_ARGS).unwrap();
        assert_eq!(o.pressures, PAPER_PRESSURES);
    }

    #[test]
    fn ablation_controller_defaults_are_the_full_grid() {
        let o = parse("ablation_controller", "").unwrap();
        assert_eq!(o.apps, App::ALL);
        assert_eq!(o.pressures, PAPER_PRESSURES);
        assert_eq!(o.size, SizeClass::Default);
        assert_eq!(controller_params(o.size), ControllerParams::enabled());
        assert_eq!(controller_params(SizeClass::Tiny).window, 50_000);
        let legs = controller_variants(&o);
        assert_eq!(legs.len(), 2 * PAPER_PRESSURES.len());
        for pair in legs.chunks_exact(2) {
            assert!(!pair[0].1.controller.enabled && pair[1].1.controller.enabled);
        }
    }

    #[test]
    fn ablation_controller_verdict_tallies_the_printed_cycles() {
        let o = parse(
            "ablation_controller",
            "--app em3d --pressure 0.9 --size tiny",
        )
        .unwrap();
        let traces = build_traces(&o.apps, o.size, &SimConfig::default(), 1);
        let runs = &cross(&traces, &controller_variants(&o), 1)[0];
        assert!(runs[0].controller.is_none());
        let cs = runs[1].controller.as_ref().expect("auto leg summary");
        assert_eq!(cs.window, 50_000);

        let (text, code) = ablation_controller(&o);
        assert_eq!(code, 0);
        let cycles = format!("static {} auto {} (", runs[0].cycles, runs[1].cycles);
        assert!(text.contains(&cycles), "{text}");
        assert!(text.contains(&format!("decisions {}", cs.decisions)));
        assert_eq!(text.matches("    node ").count(), cs.per_node.len());
        let tally = match runs[1].cycles.cmp(&runs[0].cycles) {
            std::cmp::Ordering::Less => "auto faster on 1, tied on 0, static faster on 0",
            std::cmp::Ordering::Equal => "auto faster on 0, tied on 1, static faster on 0",
            std::cmp::Ordering::Greater => "auto faster on 0, tied on 0, static faster on 1",
        };
        let verdict = text.lines().last().unwrap();
        assert!(
            verdict.starts_with(&format!("verdict: {tally} of 1 cells")),
            "{verdict}"
        );
    }

    #[test]
    fn validate_claims_rejects_the_grid_flags_it_overrides() {
        for args in ["--app em3d", "--pressure 0.5", "--size tiny"] {
            let e = parse("validate_claims", args).unwrap_err();
            assert!(e.contains("unknown option"), "{args}: {e}");
        }
        assert_eq!(parse("validate_claims", "--jobs 2").unwrap().jobs, Some(2));
    }

    #[test]
    fn ablation_rac_rejects_pressure() {
        assert!(parse("ablation_rac", "--pressure 0.5").is_err());
        assert!(parse("ablation_rac", "--app fft --size tiny --jobs 2").is_ok());
    }

    #[test]
    fn fixed_experiments_reject_every_argument() {
        for name in [
            "table2",
            "table3",
            "table4",
            "scaling",
            "ablation_interconnect",
            "ablation_associativity",
        ] {
            assert!(find(name).unwrap().flags.is_empty(), "{name}");
            for args in ["--app em3d", "--size tiny", "--jobs 2", "extra"] {
                assert!(parse(name, args).is_err(), "{name} accepted {args}");
            }
        }
    }
}
