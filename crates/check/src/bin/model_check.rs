//! CLI driver for the conformance, liveness and fault gates over the
//! production proto/vm/mem state machines (built only with `--features
//! check`, which compiles in the fault hooks the gates seed).
//!
//! Four subcommands (the first one is the default when omitted):
//!
//! * `conform` — every conformance configuration is explored
//!   exhaustively (BFS) and must be clean; every seeded production
//!   fault must be caught.  Counterexamples — BFS traces, so shortest
//!   paths to the violation — are written as JSONL under `--out-dir`
//!   (default `counterexamples/`).
//! * `liveness` — lasso search over the conformance configurations:
//!   clean configurations must be free of non-progress cycles *with the
//!   max-back-off latch actually covered*, and the seeded `skip-reset`
//!   fault must produce a livelock witness.
//! * `faults` — the bounded-fault gate: every conformance configuration
//!   explores completely with `k ∈ {0,1,2}` injected message faults
//!   (drop/duplicate) and zero violations, and recovery is provably
//!   lasso-free (no drop→resend livelock).
//! * `soak` — a seeded random fault walk over a configuration larger
//!   than the exhaustive gates reach, reporting action-kind coverage and
//!   writing a deterministic JSON summary (default
//!   `results/FAULT_soak.json`) that `bench report` renders.

use ascoma_check::conform::{ConformConfig, ConformHarness, ConformMutation};
use ascoma_check::explore::bfs;
use ascoma_check::liveness::find_lasso;
use ascoma_check::{Harness, Lasso};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_MAX_STATES: usize = 4_000_000;

fn write_trace(dir: &Path, label: &str, jsonl: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("model_check: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{label}.jsonl"));
    if let Err(e) = std::fs::write(&path, jsonl) {
        eprintln!("model_check: cannot write {}: {e}", path.display());
    } else {
        println!("  trace written to {}", path.display());
    }
}

/// The configuration each production fault is seeded into: the
/// smallest clean configuration whose action set can expose it.
fn fault_config(m: ConformMutation) -> ConformConfig {
    let base = match m {
        // A stale L1 line or a lost forward needs only two nodes sharing
        // one block.
        ConformMutation::SkipInval | ConformMutation::SkipForward => {
            ConformConfig::coherence(2, 1, 1, 2)
        }
        // Frame accounting faults need remap/evict traffic.
        _ => ConformConfig::remap(2, 2, 1, 3),
    };
    ConformConfig {
        mutation: Some(m),
        ..base
    }
}

/// `conform` subcommand body.
fn conform(max_states: usize, out_dir: &Path) -> bool {
    let mut ok = true;
    println!("== clean conformance configurations (BFS)");
    for cfg in ConformConfig::smoke_suite() {
        let h = ConformHarness::new(cfg);
        let full = bfs(&h, max_states);
        println!(
            "{}: BFS {} states / {} transitions{}",
            cfg.label(),
            full.states,
            full.transitions,
            if full.complete { "" } else { " (incomplete)" },
        );
        if !full.complete {
            println!("  INCOMPLETE: state cap {max_states} hit");
            ok = false;
            continue;
        }
        if let Some(cex) = &full.violation {
            println!(
                "  VIOLATION [{}] {} ({} steps)",
                cex.invariant,
                cex.detail,
                cex.trace.len()
            );
            write_trace(out_dir, &cfg.label(), &cex.to_jsonl(&h));
            ok = false;
        }
    }
    println!("== seeded production faults (must be detected)");
    for m in ConformMutation::SAFETY {
        let cfg = fault_config(m);
        let h = ConformHarness::new(cfg);
        let out = bfs(&h, max_states);
        match out.violation {
            Some(cex) => {
                println!(
                    "{}: detected [{}] {} ({} steps)",
                    cfg.label(),
                    cex.invariant,
                    cex.detail,
                    cex.trace.len()
                );
                write_trace(out_dir, &cfg.label(), &cex.to_jsonl(&h));
            }
            None => {
                println!(
                    "{}: NOT DETECTED: fault {} escaped the checker",
                    cfg.label(),
                    m.name()
                );
                ok = false;
            }
        }
    }
    ok
}

/// `liveness` subcommand body.
fn liveness(max_states: usize, out_dir: &Path) -> bool {
    let mut ok = true;
    println!("== livelock freedom (clean configurations)");
    for cfg in ConformConfig::liveness_suite() {
        let h = ConformHarness::new(cfg);
        let out = match find_lasso(&h, max_states, |s| s.any_relocation_disabled()) {
            Ok(out) => out,
            Err(e) => {
                println!("{}: ERROR: {e}", cfg.label());
                ok = false;
                continue;
            }
        };
        println!(
            "{}: {} states, {} transitions, {} latched states{}",
            cfg.label(),
            out.states,
            out.transitions,
            out.interesting,
            if out.complete { "" } else { " (incomplete)" },
        );
        if !out.complete {
            println!("  INCOMPLETE: state cap {max_states} hit — proves nothing");
            ok = false;
            continue;
        }
        if let Some(lasso) = &out.lasso {
            println!(
                "  LIVELOCK: stem {} + cycle {} actions",
                lasso.stem.len(),
                lasso.cycle.len()
            );
            write_trace(
                out_dir,
                &format!("{}-lasso", cfg.label()),
                &lasso_jsonl(&h, lasso),
            );
            ok = false;
        }
        if cfg.pageout && out.interesting == 0 {
            println!("  VACUOUS: max back-off latch never reached");
            ok = false;
        }
    }
    println!("== seeded livelock (must be found)");
    let cfg = ConformConfig {
        mutation: Some(ConformMutation::SkipReset),
        ..ConformConfig::remap(2, 2, 1, 3)
    };
    let h = ConformHarness::new(cfg);
    match find_lasso(&h, max_states, |_| false) {
        Ok(out) => match out.lasso {
            Some(lasso) => {
                println!(
                    "{}: livelock found (stem {} + cycle {} actions)",
                    cfg.label(),
                    lasso.stem.len(),
                    lasso.cycle.len()
                );
                write_trace(
                    out_dir,
                    &format!("{}-lasso", cfg.label()),
                    &lasso_jsonl(&h, &lasso),
                );
            }
            None => {
                println!("{}: NOT FOUND: skip-reset livelock escaped", cfg.label());
                ok = false;
            }
        },
        Err(e) => {
            println!("{}: ERROR: {e}", cfg.label());
            ok = false;
        }
    }
    ok
}

/// `faults` subcommand body: the bounded-fault conformance gate.
fn faults(max_states: usize, out_dir: &Path) -> bool {
    let mut ok = true;
    println!("== bounded-fault conformance (k faults per run, BFS)");
    for k in 0..=2u8 {
        for cfg in ConformConfig::fault_suite(k) {
            let h = ConformHarness::new(cfg);
            let full = bfs(&h, max_states);
            println!(
                "{}: BFS {} states / {} transitions{}",
                cfg.label(),
                full.states,
                full.transitions,
                if full.complete { "" } else { " (incomplete)" },
            );
            println!("  kinds: {}", full.kinds_summary());
            if !full.complete {
                println!("  INCOMPLETE: state cap {max_states} hit");
                ok = false;
                continue;
            }
            if let Some(cex) = &full.violation {
                println!(
                    "  VIOLATION [{}] {} ({} steps)",
                    cex.invariant,
                    cex.detail,
                    cex.trace.len()
                );
                write_trace(out_dir, &cfg.label(), &cex.to_jsonl(&h));
                ok = false;
            }
            // Coverage: a fault-enabled run must actually take fault
            // and recovery transitions, or the gate proves nothing.
            if k > 0 {
                let took = |prefix: &str| {
                    full.kinds
                        .iter()
                        .any(|(kind, n)| kind.starts_with(prefix) && *n > 0)
                };
                if !took("fault-") || !took("recover-") {
                    println!("  VACUOUS: no fault/recovery transitions explored");
                    ok = false;
                }
            }
        }
    }
    println!("== recovery liveness (drop/resend must terminate)");
    for cfg in ConformConfig::fault_liveness_suite() {
        let h = ConformHarness::new(cfg);
        let out = match find_lasso(&h, max_states, |s| s.any_pending_dropped()) {
            Ok(out) => out,
            Err(e) => {
                println!("{}: ERROR: {e}", cfg.label());
                ok = false;
                continue;
            }
        };
        println!(
            "{}: {} states, {} transitions, {} dropped-transaction states{}",
            cfg.label(),
            out.states,
            out.transitions,
            out.interesting,
            if out.complete { "" } else { " (incomplete)" },
        );
        if !out.complete {
            println!("  INCOMPLETE: state cap {max_states} hit — proves nothing");
            ok = false;
            continue;
        }
        if let Some(lasso) = &out.lasso {
            println!(
                "  LIVELOCK: stem {} + cycle {} actions",
                lasso.stem.len(),
                lasso.cycle.len()
            );
            write_trace(
                out_dir,
                &format!("{}-lasso", cfg.label()),
                &lasso_jsonl(&h, lasso),
            );
            ok = false;
        }
        if out.interesting == 0 {
            println!("  VACUOUS: no dropped-transaction state ever reached");
            ok = false;
        }
    }
    ok
}

/// `soak` subcommand body: a seeded random fault walk over a
/// configuration larger than the exhaustive gates reach.  Every
/// state along every walk is checked against the full catalog; the
/// summary JSON is deterministic for a given seed (wall-clock time
/// is the only advisory field).
// Wall-clock allow: `soak_wall_ms` is a measured advisory field of the
// summary, exactly like the bench harness timings (audited in
// scripts/check.sh).
#[allow(clippy::disallowed_methods)]
fn soak(seed: u64, walks: usize, steps: usize, out_path: &Path) -> bool {
    use ascoma_sim::rng::SimRng;
    use std::collections::BTreeMap;
    use std::time::Instant;

    let cfg = ConformConfig::ascoma(3, 2, 2, 4).with_faults(3);
    let h = ConformHarness::new(cfg);
    let mut rng = SimRng::seed_from(seed);
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_steps = 0u64;
    let mut violations = 0u64;
    let mut first_violation: Option<(String, String)> = None;
    let started = Instant::now();
    for _ in 0..walks {
        let mut s = h.initial();
        for _ in 0..steps {
            let acts = h.enabled(&s);
            if acts.is_empty() {
                break;
            }
            let a = acts[rng.below(acts.len() as u64) as usize];
            s = match h.step(&s, &a) {
                Ok(t) => t,
                Err(e) => {
                    println!("soak: enabled action refused: {e}");
                    violations += 1;
                    break;
                }
            };
            *kinds.entry(h.action_kind(&a)).or_insert(0) += 1;
            total_steps += 1;
            if let Err((inv, detail)) = h.check(&s) {
                violations += 1;
                if first_violation.is_none() {
                    println!("soak: VIOLATION [{inv}] {detail}");
                    first_violation = Some((inv, detail));
                }
                break;
            }
        }
    }
    let wall_ms = started.elapsed().as_millis() as u64;
    let faults_injected: u64 = kinds
        .iter()
        .filter(|(k, _)| k.starts_with("fault-"))
        .map(|(_, n)| n)
        .sum();
    let recoveries: u64 = kinds
        .iter()
        .filter(|(k, _)| k.starts_with("recover-"))
        .map(|(_, n)| n)
        .sum();
    let kind_fields: Vec<String> = kinds
        .iter()
        .map(|(k, n)| format!("    \"{k}\": {n}"))
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"fault_soak\",\n  \"config\": \"{}\",\n  \
         \"seed\": {seed},\n  \"walks\": {walks},\n  \"steps_per_walk\": {steps},\n  \
         \"soak_steps\": {total_steps},\n  \"faults_injected\": {faults_injected},\n  \
         \"recoveries\": {recoveries},\n  \"soak_violations\": {violations},\n  \
         \"soak_wall_ms\": {wall_ms},\n  \"kinds\": {{\n{}\n  }}\n}}\n",
        cfg.label(),
        kind_fields.join(",\n"),
    );
    if let Some(dir) = out_path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                println!("soak: cannot create {}: {e}", dir.display());
                return false;
            }
        }
    }
    if let Err(e) = std::fs::write(out_path, &json) {
        println!("soak: cannot write {}: {e}", out_path.display());
        return false;
    }
    println!(
        "soak: {} walks x {} steps = {} transitions, {} faults injected, \
         {} recoveries, {} violations ({} ms)",
        walks, steps, total_steps, faults_injected, recoveries, violations, wall_ms
    );
    println!("  summary written to {}", out_path.display());
    violations == 0
}

/// Render a lasso as JSONL: a header, the stem actions, then the
/// cycle actions (step numbering continues through the cycle).
fn lasso_jsonl<H: Harness>(h: &H, lasso: &Lasso<H::Action>) -> String {
    let mut out = format!(
        "{{\"lasso\":true,\"stem\":{},\"cycle\":{}}}\n",
        lasso.stem.len(),
        lasso.cycle.len()
    );
    for (i, a) in lasso.stem.iter().chain(lasso.cycle.iter()).enumerate() {
        out.push_str(&h.action_json(a, i));
        out.push('\n');
    }
    out
}

#[derive(Clone, Copy, PartialEq)]
enum Cmd {
    Conform,
    Liveness,
    Faults,
    Soak,
}

struct Args {
    cmd: Cmd,
    max_states: usize,
    out_dir: PathBuf,
    seed: u64,
    walks: usize,
    steps: usize,
    soak_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cmd: Cmd::Conform,
        max_states: DEFAULT_MAX_STATES,
        out_dir: PathBuf::from("counterexamples"),
        seed: 0xA5C0_0A5C,
        walks: 2000,
        steps: 64,
        soak_out: PathBuf::from("results/FAULT_soak.json"),
    };
    let mut it = std::env::args().skip(1).peekable();
    if let Some(first) = it.peek() {
        let cmd = match first.as_str() {
            "conform" => Some(Cmd::Conform),
            "liveness" => Some(Cmd::Liveness),
            "faults" => Some(Cmd::Faults),
            "soak" => Some(Cmd::Soak),
            _ => None,
        };
        if let Some(cmd) = cmd {
            args.cmd = cmd;
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--max-states" => {
                args.max_states = val("--max-states")?
                    .parse()
                    .map_err(|e| format!("bad --max-states: {e}"))?;
            }
            "--out-dir" => args.out_dir = PathBuf::from(val("--out-dir")?),
            "--seed" => {
                args.seed = val("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--walks" => {
                args.walks = val("--walks")?
                    .parse()
                    .map_err(|e| format!("bad --walks: {e}"))?;
            }
            "--steps" => {
                args.steps = val("--steps")?
                    .parse()
                    .map_err(|e| format!("bad --steps: {e}"))?;
            }
            "--soak-out" => args.soak_out = PathBuf::from(val("--soak-out")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("model_check: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ok = match args.cmd {
        Cmd::Conform => conform(args.max_states, &args.out_dir),
        Cmd::Liveness => liveness(args.max_states, &args.out_dir),
        Cmd::Faults => faults(args.max_states, &args.out_dir),
        Cmd::Soak => soak(args.seed, args.walks, args.steps, &args.soak_out),
    };

    if ok {
        println!("model_check: OK");
        ExitCode::SUCCESS
    } else {
        println!("model_check: FAILED");
        ExitCode::FAILURE
    }
}
