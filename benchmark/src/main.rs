//! The repository benchmark: host time of the AS-COMA simulator on three
//! workloads, end to end and layer by layer.  See `README.md` beside
//! this crate for the metrics, the workloads and the rules for using
//! them.
//!
//! ```text
//! benchmark all [--seed S] [--seconds N] [--smoke] [--bless]
//! benchmark run <workload> [--seed S] [--seconds N] [--smoke]
//! benchmark trace <workload> [--seed S] [--seconds N] [--smoke]
//! benchmark compare A.json B.json
//! benchmark --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! `run` and `trace` (the last form is the same thing spelt with flags)
//! print `<workload> <metric> <value> <unit>` lines and end with one
//! JSON result line.  `all` runs both for every workload, each in its
//! own child process so peak memory is per workload, and writes
//! `<target>/benchmark/results.json`.  Every mode exits 1 if any cell
//! failed its checks.

mod calib;
mod digest;
mod exec;
mod layers;
mod measure;
mod report;
mod spans;
mod stats;
mod suite;

use measure::Options;
use report::{Report, Verdict};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use suite::{Size, Workload, WORKLOADS};

/// Default run length, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u32 = 28;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark all|run <workload>|trace <workload>|compare A.json B.json \
         [--seed S] [--seconds N] [--smoke] [--bless]\n       \
         benchmark --workload W --seed S --seconds N --trace 0|1\nworkloads: {}",
        names.join(", ")
    )
}

#[derive(Debug, Clone, PartialEq)]
enum Cmd {
    All,
    Run(Workload),
    Trace(Workload),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<(Cmd, Options), String> {
    let mut o = Options {
        seed: 0,
        seconds: DEFAULT_SECONDS,
        size: Size::Full,
        bless: false,
    };
    let mut positional = Vec::new();
    let mut workload = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--seed" => o.seed = value(a)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&o.seconds) {
                    return Err("--seconds must be 1..=3600".into());
                }
            }
            "--workload" => workload = Some(value(a)?.clone()),
            "--trace" => {
                traced = Some(match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                })
            }
            "--smoke" => o.size = Size::Smoke,
            "--bless" => o.bless = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option '{flag}'")),
            _ => positional.push(a.clone()),
        }
    }
    let find = |name: &str| suite::find(name).ok_or(format!("unknown workload '{name}'"));
    let cmd = match (positional.as_slice(), workload) {
        ([], Some(w)) => match traced {
            Some(true) => Cmd::Trace(find(&w)?),
            _ => Cmd::Run(find(&w)?),
        },
        ([c], None) if c == "all" => Cmd::All,
        ([c, w], None) if c == "run" => Cmd::Run(find(w)?),
        ([c, w], None) if c == "trace" => Cmd::Trace(find(w)?),
        ([c, a, b], None) if c == "compare" => Cmd::Compare(a.clone(), b.clone()),
        _ => return Err(usage()),
    };
    if o.bless
        && (o.seed != 0 || o.size == Size::Smoke || matches!(cmd, Cmd::Trace(_) | Cmd::Compare(..)))
    {
        return Err("--bless regenerates the seed-0 full-size references: use it with `all` or `run`, seed 0, no --smoke".into());
    }
    Ok((cmd, o))
}

/// Where output files go: `$CARGO_TARGET_DIR/benchmark`, else
/// `target/benchmark`, relative to the working directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark")
}

/// Print a report: text lines, the detail record, then the result line.
fn emit(r: &Report) {
    print!("{}", r.text());
    println!("detail {}", r.detail());
    println!("{}", r.result_line());
}

fn fail_line(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
    ExitCode::FAILURE
}

fn run_one(cmd: &Cmd, o: &Options) -> ExitCode {
    let report = match cmd {
        Cmd::Run(w) => measure::run(w, o),
        Cmd::Trace(w) => measure::trace(w, o, &out_dir().join(format!("{}.trace.json", w.name))),
        _ => unreachable!("run_one takes run or trace"),
    };
    match report {
        Ok(r) => {
            emit(&r);
            if r.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail_line(&e),
    }
}

/// Run `mode` of `w` in a child process; return its text lines and its
/// detail record.
fn child(w: &Workload, mode: &str, o: &Options) -> Result<(String, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        mode,
        w.name,
        "--seed",
        &o.seed.to_string(),
        "--seconds",
        &o.seconds.to_string(),
    ]);
    if o.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    if o.bless {
        cmd.arg("--bless");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{mode} {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut text = String::new();
    let mut detail = None;
    for l in stdout.lines() {
        if let Some(d) = l.strip_prefix("detail ") {
            detail = Some(d.to_string());
        } else if !l.starts_with('{') {
            text.push_str(l);
            text.push('\n');
        }
    }
    detail.map(|d| (text, d)).ok_or(format!(
        "{mode} {} exited with {} and no result",
        w.name, out.status
    ))
}

fn all(o: &Options) -> ExitCode {
    let mut records = Vec::new();
    let mut failed = 0u64;
    let mut blessed = Vec::new();
    for w in WORKLOADS {
        let modes: &[&str] = if o.bless { &["run"] } else { &["run", "trace"] };
        let mut parts = Vec::new();
        for mode in modes {
            match child(&w, mode, o) {
                Ok((text, detail)) => {
                    print!("{text}");
                    let doc = match ascoma_obs::json::parse(&detail) {
                        Ok(d) => d,
                        Err(e) => return fail_line(&format!("{mode} {}: {e}", w.name)),
                    };
                    failed += doc.get("failed").and_then(|f| f.as_u64()).unwrap_or(1);
                    if o.bless {
                        blessed.extend(bless_cells(&doc));
                    }
                    parts.push(format!("\"{mode}\":{detail}"));
                }
                Err(e) => return fail_line(&e),
            }
        }
        records.push(format!("{{\"name\":\"{}\",{}}}", w.name, parts.join(",")));
    }
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"size\":\"{}\",\"workloads\":[\n{}\n]}}\n",
        o.seed,
        o.seconds,
        if o.size == Size::Smoke {
            "smoke"
        } else {
            "full"
        },
        records.join(",\n")
    );
    let path = out_dir().join("results.json");
    let written = std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, doc));
    if let Err(e) = written {
        return fail_line(&format!("{}: {e}", path.display()));
    }
    println!("# wrote {}", path.display());
    if o.bless {
        if failed > 0 {
            return fail_line("cells were unstable; references not written");
        }
        if let Err(e) = std::fs::write(digest::REFERENCES_PATH, digest::render(&blessed)) {
            return fail_line(&format!("{}: {e}", digest::REFERENCES_PATH));
        }
        println!(
            "# blessed {} references into {}",
            blessed.len(),
            digest::REFERENCES_PATH
        );
    }
    if failed > 0 {
        eprintln!("error: {failed} cell(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn bless_cells(detail: &ascoma_obs::json::Json) -> Vec<(String, digest::Reference)> {
    let hex = |v: Option<&ascoma_obs::json::Json>| {
        v.and_then(|s| s.as_str())
            .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
    };
    detail
        .get("cells")
        .and_then(|c| c.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|c| {
            Some((
                c.get("key")?.as_str()?.to_string(),
                digest::Reference {
                    result: hex(c.get("result"))?,
                    metrics: hex(c.get("metrics")),
                },
            ))
        })
        .collect()
}

fn compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| -> Result<ascoma_obs::json::Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        ascoma_obs::json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let rows = report::specs().and_then(|(e2e, _)| report::compare(&load(a)?, &load(b)?, &e2e));
    let rows = match rows {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for r in &rows {
        let change = if r.a == 0.0 {
            0.0
        } else {
            (r.b - r.a) / r.a * 100.0
        };
        println!(
            "{:<14} {:<20} {:>14.6} {:>14.6} {:>8.2}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            r.verdict.tag()
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, o) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match &cmd {
        Cmd::All => all(&o),
        Cmd::Compare(a, b) => compare(a, b),
        _ => run_one(&cmd, &o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flag_form_maps_to_run_and_trace() {
        let (cmd, o) =
            parse(&args("--workload observed --seed 3 --seconds 12 --trace 1")).expect("parses");
        assert_eq!(cmd, Cmd::Trace(WORKLOADS[2]));
        assert_eq!((o.seed, o.seconds), (3, 12));
        let (cmd, _) = parse(&args("--workload em3d-local --trace 0")).expect("parses");
        assert_eq!(cmd, Cmd::Run(WORKLOADS[0]));
        assert!(parse(&args("--workload nope --trace 0")).is_err());
        assert!(parse(&args("run em3d-local --seconds 0")).is_err());
        assert!(parse(&args("all --bless --seed 7")).is_err());
        assert!(parse(&args("all --bless")).is_ok());
    }

    #[test]
    fn every_declared_metric_is_emitted_and_nothing_else() {
        let (e2e, layer) = report::specs().expect("BENCHMARK.json parses");
        let o = Options {
            seed: 0,
            seconds: 1,
            size: Size::Smoke,
            bless: false,
        };
        let w = WORKLOADS[0];
        let run = measure::run(&w, &o).expect("smoke run");
        let dir =
            std::env::temp_dir().join(format!("ascoma-benchmark-test-{}", std::process::id()));
        let traced = measure::trace(&w, &o, &dir.join("t.json")).expect("smoke trace");
        let _ = std::fs::remove_dir_all(&dir);
        for (report, spec) in [(&run, &e2e), (&traced, &layer)] {
            let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            let want: Vec<(&str, &str)> = spec
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(got, want);
            assert!(report.correct(), "{:?}", report.failures);
        }
        let ledger = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        let (att, run_s, res) = (
            ledger("core.ledger_attributed_s").expect("attributed"),
            ledger("core.run_s").expect("run_s"),
            ledger("core.ledger_residual_share").expect("residual"),
        );
        assert!(att > 0.0);
        assert!(
            (res - (1.0 - att / run_s)).abs() < 1e-9,
            "residual = 1 - attributed / run_s"
        );
        let results = format!(
            "{{\"seed\":0,\"workloads\":[{{\"name\":\"{}\",\"run\":{},\"trace\":{}}}]}}",
            w.name,
            run.detail(),
            traced.detail()
        );
        let doc =
            ascoma_obs::json::parse(&results).expect("results.json parses with ascoma_obs::json");
        let rows = report::compare(&doc, &doc, &e2e).expect("compare");
        assert!(rows.iter().all(|r| r.verdict != Verdict::Worse));
        assert_eq!(
            bless_cells(&ascoma_obs::json::parse(&run.detail()).expect("detail")).len(),
            13
        );
    }
}
