//! Workload inspector: static characterization of the benchmark traces —
//! Table 5 profile plus stride/heat/sharing distributions — without
//! running any simulation.
//!
//! ```text
//! cargo run --release -p ascoma-bench --bin inspect
//! cargo run --release -p ascoma-bench --bin inspect -- --app radix --size paper
//! ```
//!
//! The `trace` subcommand runs one instrumented simulation and exports
//! the event stream (Chrome `trace_event` JSON for Perfetto, or JSONL):
//!
//! ```text
//! cargo run --release -p ascoma-bench --bin inspect -- trace \
//!     --app em3d --arch ascoma --pressure 0.7 --size tiny \
//!     --out em3d_70.trace.json
//! cargo run --release -p ascoma-bench --bin inspect -- trace \
//!     --app em3d --pressure 0.7 --summary
//! ```

use ascoma::machine::simulate_measured_streamed;
use ascoma::{Arch, SimConfig};
use ascoma_bench::{die, num, pressure, text, usage, value, Flag, Options};
use ascoma_obs::export::{chrome_trace, jsonl};
use ascoma_obs::Summary;
use ascoma_workloads::analyze::profile;
use ascoma_workloads::stats::{render, trace_stats};
use ascoma_workloads::{App, SizeClass};
use std::fs::File;
use std::io::{self, BufWriter, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        trace_cmd(&args[1..]);
        return;
    }
    let flags = [Flag::Apps(&App::ALL), Flag::Size(SizeClass::Default)];
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", usage("inspect", &flags));
        eprintln!("   or: inspect trace [options]  (see `inspect trace --help`)");
        return;
    }
    let opts = Options::parse(&flags, args).unwrap_or_else(|e| die(&e));
    let cfg = SimConfig::default();
    let pb = cfg.geometry.page_bytes();
    for app in &opts.apps {
        let t = app.build(opts.size, pb);
        let prof = profile(&t, pb);
        let stats = trace_stats(&t, pb);
        println!(
            "== {} == {} nodes, {} shared pages, ideal pressure {:.0}%, max remote {} pages",
            t.name,
            t.nodes,
            t.shared_pages,
            prof.ideal_pressure * 100.0,
            prof.max_remote_pages
        );
        print!("{}", render(&t.name, &stats));
        println!(
            "  remote access fraction: {:.1}%",
            prof.remote_access_fraction * 100.0
        );
        println!();
    }
}

/// Options for `inspect trace`.
struct TraceOpts {
    app: App,
    size: SizeClass,
    arch: Arch,
    /// The run's configuration, with the pressure and policy overrides.
    cfg: SimConfig,
    out: Option<String>,
    jsonl: bool,
    summary: bool,
}

impl TraceOpts {
    fn parse(args: &[String]) -> TraceOpts {
        let mut o = TraceOpts {
            app: App::Em3d,
            size: SizeClass::Tiny,
            arch: Arch::AsComa,
            cfg: SimConfig {
                obs_sample_period: 20_000,
                ..SimConfig::at_pressure(0.7)
            },
            out: None,
            jsonl: false,
            summary: false,
        };
        let mut it = args.iter().cloned();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--app" => o.app = value(&mut it, &a, App::parse),
                "--size" => o.size = value(&mut it, &a, SizeClass::parse),
                "--arch" => o.arch = value(&mut it, &a, Arch::parse),
                "--pressure" => o.cfg.pressure = value(&mut it, &a, pressure),
                "--out" => o.out = Some(value(&mut it, &a, text)),
                "--jsonl" => o.jsonl = true,
                "--summary" => o.summary = true,
                "--sample-period" => o.cfg.obs_sample_period = value(&mut it, &a, num),
                "--daemon-period" => o.cfg.kernel.daemon_period = value(&mut it, &a, num),
                "--threshold" => o.cfg.policy.initial_threshold = value(&mut it, &a, num),
                "--increment" => o.cfg.policy.threshold_increment = value(&mut it, &a, num),
                "--help" | "-h" => {
                    eprintln!(
                        "inspect trace: run one instrumented simulation and export the trace\n\
                         \n\
                         options:\n\
                         \x20 --app NAME           workload (default em3d)\n\
                         \x20 --size tiny|default|paper (default tiny)\n\
                         \x20 --arch NAME          architecture (default ascoma)\n\
                         \x20 --pressure P         memory pressure in [0.001,1] (default 0.7)\n\
                         \x20 --out FILE           write trace to FILE (default stdout)\n\
                         \x20 --jsonl              export JSONL instead of Chrome trace JSON\n\
                         \x20 --summary            print the per-page relocation table instead\n\
                         \x20 --sample-period N    sampler period, cycles; 0 disables (default 20000)\n\
                         \x20 --daemon-period N    override pageout-daemon period\n\
                         \x20 --threshold N        override initial refetch threshold\n\
                         \x20 --increment N        override back-off threshold increment"
                    );
                    std::process::exit(0);
                }
                other => die(&format!("unknown trace option '{other}'")),
            }
        }
        o
    }
}

fn trace_cmd(args: &[String]) {
    let o = TraceOpts::parse(args);
    let trace = o.app.build(o.size, o.cfg.geometry.page_bytes());
    let (result, events, _registry) =
        simulate_measured_streamed(&trace, o.arch, &o.cfg, 0, 0, |_| {});

    if o.summary {
        let s = result
            .obs
            .as_ref()
            .unwrap_or_else(|| die("the run attached no summary"));
        print_summary(&trace.name, o.arch, o.cfg.pressure, s);
        return;
    }

    // JSONL streams line by line; the Chrome document is one JSON
    // object, rendered whole.
    let render = |w: &mut dyn Write| -> io::Result<()> {
        if o.jsonl {
            jsonl(&events, w)?;
        } else {
            w.write_all(chrome_trace(&events, trace.nodes).as_bytes())?;
        }
        w.flush()
    };
    match &o.out {
        Some(path) => {
            let bytes = File::create(path)
                .and_then(|f| {
                    let mut w = BufWriter::new(f);
                    render(&mut w)?;
                    w.get_ref().metadata()
                })
                .map(|m| m.len())
                .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            eprintln!(
                "{}: {} events, {} cycles -> {path} ({bytes} bytes{})",
                trace.name,
                events.len(),
                result.cycles,
                if o.jsonl {
                    ", JSONL"
                } else {
                    ", open in ui.perfetto.dev"
                }
            );
        }
        None => render(&mut BufWriter::new(io::stdout().lock()))
            .unwrap_or_else(|e| die(&format!("write stdout: {e}"))),
    }
}

/// Per-page relocation table in the spirit of Table 6: for every
/// `(node, page)` pair that the trace touched, how many times it was
/// mapped, upgraded CC-NUMA -> S-COMA, declined, and evicted.
fn print_summary(name: &str, arch: Arch, pressure: f64, s: &Summary) {
    println!(
        "== {name} on {} at {:.0}% pressure ==",
        arch.name(),
        pressure * 100.0
    );
    println!(
        "{} events to cycle {}; {} maps, {} upgrades ({} declined), {} evictions",
        s.events, s.last_cycle, s.maps, s.upgrades, s.declined, s.evictions
    );
    println!(
        "{} refetch-threshold crossings, {} back-off raises, {} drops, {} daemon epochs ({} thrashing)",
        s.crossings,
        s.raises,
        s.drops,
        s.epochs.len(),
        s.thrash_epochs()
    );
    println!(
        "relocated (node, page) pairs: {} of {} traced",
        s.relocated_pairs(),
        s.pages.len()
    );
    println!();
    println!("node  page      maps  upgrades  declined  evictions  first..last cycle");
    let mut rows: Vec<_> = s.pages.iter().collect();
    // Most-relocated pages first; the long idle tail is summarized.
    rows.sort_by_key(|(k, p)| {
        (
            std::cmp::Reverse(p.upgrades + p.evictions + p.maps),
            k.0,
            k.1,
        )
    });
    const MAX_ROWS: usize = 40;
    for ((node, page), p) in rows.iter().take(MAX_ROWS) {
        println!(
            "{node:>4}  {page:<8}  {:>4}  {:>8}  {:>8}  {:>9}  {}..{}",
            p.maps, p.upgrades, p.declined, p.evictions, p.first_cycle, p.last_cycle
        );
    }
    if rows.len() > MAX_ROWS {
        println!("  ... {} more (node, page) pairs", rows.len() - MAX_ROWS);
    }
}
