//! Static-vs-auto ablation of the back-off auto-tuner (`bench ablate`).
//!
//! ROADMAP item 4 asks whether the paper's statically chosen back-off
//! constants (`threshold_increment`, `daemon_period`) leave performance
//! on the table.  This module runs the AS-COMA pressure grid twice per
//! cell — once with the controller off (the paper's constants) and once
//! with the online auto-tuner — and renders the answer two ways: a
//! deterministic JSON file (`bench diff`-gated in CI, wall-clock leaves
//! advisory) and a self-contained HTML report (exec-time stacks,
//! per-node knob-trajectory polylines, phase-timeline strips).
//!
//! Everything deterministic in the JSON is integer-exact: the simulator
//! is deterministic and the controller is integer-only, so the committed
//! `results/BENCH_ablate_reduced.json` reproduces byte-for-byte on any
//! host at any job count.

use crate::report::{esc, EXEC_COLORS, LINE_COLORS};
use ascoma::experiments::{run_cells, Cell, PAPER_PRESSURES};
use ascoma::result::RunResult;
use ascoma::{Arch, SimConfig};
use ascoma_obs::{ControllerParams, NodeControllerSummary, Phase};
use ascoma_sim::stats::ExecBreakdown;
use ascoma_workloads::{App, SizeClass};
use std::fmt::Write as _;

/// Fill colors per [`Phase`], `Phase::ALL` order (baseline muted, hot
/// red, pressure orange, cold blue).
const PHASE_COLORS: [&str; 4] = ["#c7c7c7", "#d62728", "#ff7f0e", "#1f77b4"];

/// One named ablation grid preset.
#[derive(Debug, Clone)]
pub struct AblateGrid {
    /// Preset name (`reduced` | `full`), recorded in the JSON.
    pub name: &'static str,
    /// Applications swept.
    pub apps: Vec<App>,
    /// Memory pressures swept.
    pub pressures: Vec<f64>,
    /// Problem-size class.
    pub size: SizeClass,
    /// Controller constants for the auto leg (window scaled to the
    /// size class so tiny runs still see several decision windows).
    pub controller: ControllerParams,
}

/// Resolve a grid preset by name.
///
/// `reduced` is the CI smoke grid: three apps at three pressures on the
/// tiny size with a short decision window — a couple of seconds of
/// wall-clock.  `full` is the paper grid: all six apps across the five
/// chart pressures at the default size.
pub fn grid(name: &str) -> Option<AblateGrid> {
    match name {
        "reduced" => Some(AblateGrid {
            name: "reduced",
            apps: vec![App::Em3d, App::Ocean, App::Radix],
            pressures: vec![0.3, 0.7, 0.9],
            size: SizeClass::Tiny,
            controller: ControllerParams {
                window: 50_000,
                ..ControllerParams::enabled()
            },
        }),
        "full" => Some(AblateGrid {
            name: "full",
            apps: App::ALL.to_vec(),
            pressures: PAPER_PRESSURES.to_vec(),
            size: SizeClass::Default,
            controller: ControllerParams::enabled(),
        }),
        _ => None,
    }
}

/// One `(app, pressure)` cell of the ablation: the same AS-COMA run with
/// the controller off (the paper's static constants) and on (the online
/// auto-tuner), everything else equal.
#[derive(Debug, Clone)]
pub struct AblationCell {
    /// Application name.
    pub app: String,
    /// Memory pressure of both runs.
    pub pressure: f64,
    /// The static-constants run (`SimConfig::controller` disabled).
    pub static_run: RunResult,
    /// The auto-tuned run (its `controller` summary is `Some`).
    pub auto_run: RunResult,
}

impl AblationCell {
    /// True when auto-tuning did not slow this cell down (ties count:
    /// a controller that never fires is exactly the static run).
    pub fn auto_le_static(&self) -> bool {
        self.auto_run.cycles <= self.static_run.cycles
    }
}

/// Run the grid: one static and one auto-tuned AS-COMA cell per
/// `(app, pressure)`, all in one [`run_cells`] call; results come back
/// trace-major, pressure-minor, identical at every job count.
pub fn run_grid(g: &AblateGrid, base: &SimConfig, jobs: usize) -> Vec<AblationCell> {
    let traces = crate::build_traces(&g.apps, g.size, base, jobs);
    let mut cells = Vec::new();
    for trace in &traces {
        for &pressure in &g.pressures {
            for enabled in [false, true] {
                let mut cfg = *base;
                cfg.pressure = pressure;
                cfg.controller = g.controller;
                cfg.controller.enabled = enabled;
                cells.push(Cell::new(trace, Arch::AsComa, cfg));
            }
        }
    }
    let mut runs = run_cells(&cells, jobs, None).into_iter();
    cells
        .chunks_exact(2)
        .filter_map(|legs| {
            Some(AblationCell {
                app: legs[0].trace.name.clone(),
                pressure: legs[0].cfg.pressure,
                static_run: runs.next()?,
                auto_run: runs.next()?,
            })
        })
        .collect()
}

/// The grid-level verdict for ROADMAP item 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Cells where the auto leg was strictly faster.
    pub auto_wins: usize,
    /// Cells where both legs ran the same cycle count (a controller
    /// that never needed to act).
    pub ties: usize,
    /// Cells where the static constants won.
    pub static_wins: usize,
}

impl Verdict {
    /// Tally the cells.
    pub fn of(cells: &[AblationCell]) -> Verdict {
        let mut v = Verdict {
            auto_wins: 0,
            ties: 0,
            static_wins: 0,
        };
        for c in cells {
            if c.auto_run.cycles < c.static_run.cycles {
                v.auto_wins += 1;
            } else if c.auto_run.cycles == c.static_run.cycles {
                v.ties += 1;
            } else {
                v.static_wins += 1;
            }
        }
        v
    }

    /// ROADMAP item 4's acceptance: auto no worse than static on a
    /// majority of cells, ties counting toward auto.
    pub fn majority_auto_le_static(&self) -> bool {
        (self.auto_wins + self.ties) * 2 >= (self.auto_wins + self.ties + self.static_wins)
    }
}

/// Render the ablation JSON: stable key order, every simulator-derived
/// leaf integer-exact, wall-clock under the advisory `wall_secs` key.
/// `wall_secs` is `None` for deterministic fixtures (tests).
pub fn to_json(g: &AblateGrid, cells: &[AblationCell], wall_secs: Option<f64>) -> String {
    let v = Verdict::of(cells);
    let c = g.controller;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"experiment\":\"ablation\",\"grid\":\"{}\",\"size\":\"{}\",\"arch\":\"AS-COMA\",\
         \"controller\":{{\"window\":{},\"ewma_shift\":{},\"hot_enter\":{},\"hot_exit\":{},\
         \"cold_enter\":{},\"reclaim_enter\":{},\"backlog_enter\":{},\"confirm\":{},\
         \"inc_min\":{},\"inc_max\":{},\"period_shift_max\":{}}},\"cells\":[",
        g.name,
        g.size.name(),
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
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"app\":\"{}\",\"pressure\":{:.2},\"static_cycles\":{},\"auto_cycles\":{},\
             \"auto_le_static\":{},\"controller\":{}}}",
            cell.app,
            cell.pressure,
            cell.static_run.cycles,
            cell.auto_run.cycles,
            cell.auto_le_static(),
            cell.auto_run
                .controller
                .as_ref()
                .map_or_else(|| "null".to_string(), |cs| cs.to_json()),
        );
    }
    let _ = write!(
        s,
        "],\"auto_wins\":{},\"ties\":{},\"static_wins\":{},\"majority_auto_le_static\":{}",
        v.auto_wins,
        v.ties,
        v.static_wins,
        v.majority_auto_le_static(),
    );
    if let Some(w) = wall_secs {
        let _ = write!(s, ",\"wall_secs\":{w:.3}");
    }
    s.push_str("}\n");
    s
}

/// Two labelled stacked exec-time bars (static above auto) on a shared
/// scale.
fn exec_pair_svg(static_exec: &ExecBreakdown, auto_exec: &ExecBreakdown) -> String {
    let denom = static_exec.total().max(auto_exec.total()).max(1);
    let bar_h = 16;
    let gap = 6;
    let label_w = 70;
    let plot_w = 560.0;
    let h = 2 * (bar_h + gap) + 2;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n",
        w = label_w + plot_w as usize + 10,
    );
    for (row, (label, e)) in [("static", static_exec), ("auto", auto_exec)]
        .iter()
        .enumerate()
    {
        let y = row * (bar_h + gap);
        let _ = write!(svg, "<text x=\"0\" y=\"{}\">{label}</text>", y + bar_h - 3);
        let mut x = label_w as f64;
        for (i, frac) in e.normalized(denom).iter().enumerate() {
            let w = frac * plot_w;
            if w > 0.0 {
                let _ = write!(
                    svg,
                    "<rect x=\"{x:.1}\" y=\"{y}\" width=\"{w:.1}\" height=\"{bar_h}\" \
                     fill=\"{}\"><title>{}: {:.1}%</title></rect>",
                    EXEC_COLORS[i],
                    ExecBreakdown::LABELS[i],
                    frac * 100.0
                );
                x += w;
            }
        }
    }
    svg.push_str("</svg>\n");
    svg
}

/// Per-node `threshold_increment` step polylines over decision windows.
fn knob_trajectories_svg(per_node: &[NodeControllerSummary], total_windows: u64) -> String {
    let w = 560.0;
    let h = 90.0;
    let x_max = total_windows.max(1) as f64;
    let y_max = per_node
        .iter()
        .flat_map(|n| n.knob_trajectory.iter().map(|k| k.inc))
        .max()
        .unwrap_or(1)
        .max(1) as f64;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {vw} {vh}\" width=\"{vw}\" height=\"{vh}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n\
         <rect x=\"0\" y=\"0\" width=\"{w}\" height=\"{h}\" fill=\"none\" stroke=\"#ccc\"/>\n\
         <text x=\"4\" y=\"12\">inc, max {y_max}</text>\n",
        vw = w as usize + 10,
        vh = h as usize + 6,
    );
    for n in per_node {
        let traj = &n.knob_trajectory;
        if traj.is_empty() {
            continue;
        }
        let mut pts = String::new();
        let mut last_y = h - traj[0].inc as f64 / y_max * (h - 18.0) - 4.0;
        for k in traj {
            let x = k.window as f64 / x_max * w;
            let y = h - k.inc as f64 / y_max * (h - 18.0) - 4.0;
            let _ = write!(pts, "{x:.1},{last_y:.1} {x:.1},{y:.1} ");
            last_y = y;
        }
        let _ = write!(pts, "{w:.1},{last_y:.1}");
        let _ = writeln!(
            svg,
            "<polyline points=\"{pts}\" fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\">\
             <title>node {}</title></polyline>",
            LINE_COLORS[n.node as usize % LINE_COLORS.len()],
            n.node
        );
    }
    svg.push_str("</svg>\n");
    svg
}

/// One horizontal phase strip per node: colored segments spanning the
/// windows each detector phase was in force.
fn phase_timeline_svg(per_node: &[NodeControllerSummary], total_windows: u64) -> String {
    let w = 560.0;
    let row_h = 12;
    let gap = 3;
    let label_w = 70;
    let x_max = total_windows.max(1) as f64;
    let h = per_node.len() * (row_h + gap) + 16;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {vw} {h}\" width=\"{vw}\" height=\"{h}\" \
         xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\" font-size=\"11\">\n",
        vw = label_w + w as usize + 10,
    );
    for (row, n) in per_node.iter().enumerate() {
        let y = row * (row_h + gap);
        let _ = write!(
            svg,
            "<text x=\"0\" y=\"{}\">node {}</text>",
            y + row_h - 2,
            n.node
        );
        let steps = &n.phase_trajectory;
        for (i, p) in steps.iter().enumerate() {
            let end = steps.get(i + 1).map_or(total_windows, |next| next.window);
            let x0 = label_w as f64 + p.window as f64 / x_max * w;
            let x1 = label_w as f64 + end as f64 / x_max * w;
            let _ = write!(
                svg,
                "<rect x=\"{x0:.1}\" y=\"{y}\" width=\"{:.1}\" height=\"{row_h}\" fill=\"{}\">\
                 <title>{}: windows {}..{end}</title></rect>",
                (x1 - x0).max(0.5),
                PHASE_COLORS[p.phase.index()],
                p.phase.tag(),
                p.window,
            );
        }
    }
    // Legend.
    let ly = per_node.len() * (row_h + gap) + 12;
    let mut lx = label_w;
    for p in Phase::ALL {
        let _ = write!(
            svg,
            "<rect x=\"{lx}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{}\"/>\
             <text x=\"{}\" y=\"{ly}\">{}</text>",
            ly - 9,
            PHASE_COLORS[p.index()],
            lx + 14,
            p.tag()
        );
        lx += 14 + 8 * p.tag().len() + 16;
    }
    svg.push_str("</svg>\n");
    svg
}

/// Render the full ablation report as one self-contained HTML page.
pub fn render_html(g: &AblateGrid, cells: &[AblationCell]) -> String {
    let v = Verdict::of(cells);
    let title = format!(
        "AS-COMA back-off ablation: auto-tuned vs. static constants ({} grid)",
        g.name
    );
    let mut html = format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>{t}</title>\n\
         <style>\n\
         body {{ font-family: monospace; margin: 2em; max-width: 60em; }}\n\
         table {{ border-collapse: collapse; margin: 1em 0; }}\n\
         th, td {{ border: 1px solid #ccc; padding: 3px 10px; text-align: right; }}\n\
         th:first-child, td:first-child {{ text-align: left; }}\n\
         h2 {{ margin-top: 1.6em; }}\n\
         .win {{ color: #2ca02c; }} .loss {{ color: #d62728; }}\n\
         </style></head><body>\n<h1>{t}</h1>\n\
         <p>{n} cells ({s} size): auto faster on {aw}, tied on {ti}, \
         static faster on {sw} &mdash; auto &le; static on a majority: \
         <strong>{verdict}</strong> (ROADMAP item 4).</p>\n",
        t = esc(&title),
        n = cells.len(),
        s = g.size.name(),
        aw = v.auto_wins,
        ti = v.ties,
        sw = v.static_wins,
        verdict = v.majority_auto_le_static(),
    );

    html.push_str(
        "<h2>Cycle counts</h2>\n<table>\n\
         <tr><th>cell</th><th>static</th><th>auto</th><th>&Delta;</th>\
         <th>decisions</th></tr>\n",
    );
    for c in cells {
        let delta = c.auto_run.cycles as i128 - c.static_run.cycles as i128;
        let class = if delta <= 0 { "win" } else { "loss" };
        let _ = writeln!(
            html,
            "<tr><td>{}@{:.2}</td><td>{}</td><td>{}</td>\
             <td class=\"{class}\">{delta:+}</td><td>{}</td></tr>",
            esc(&c.app),
            c.pressure,
            c.static_run.cycles,
            c.auto_run.cycles,
            c.auto_run.controller.as_ref().map_or(0, |cs| cs.decisions),
        );
    }
    html.push_str("</table>\n");

    for c in cells {
        let _ = writeln!(
            html,
            "<h2>{}@{:.2}</h2>\n<h3>Execution time (shared scale)</h3>",
            esc(&c.app),
            c.pressure
        );
        html.push_str(&exec_pair_svg(&c.static_run.exec, &c.auto_run.exec));
        if let Some(cs) = &c.auto_run.controller {
            let total_windows = cs
                .per_node
                .first()
                .map_or(0, |n| n.dwell.iter().sum::<u64>());
            html.push_str("<h3>Knob trajectory (threshold increment per node)</h3>\n");
            html.push_str(&knob_trajectories_svg(&cs.per_node, total_windows));
            html.push_str("<h3>Phase timeline</h3>\n");
            html.push_str(&phase_timeline_svg(&cs.per_node, total_windows));
        }
    }
    html.push_str("</body></html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_obs::json;

    fn tiny_grid() -> AblateGrid {
        AblateGrid {
            name: "reduced",
            apps: vec![App::Em3d],
            pressures: vec![0.9],
            size: SizeClass::Tiny,
            controller: ControllerParams {
                window: 50_000,
                ..ControllerParams::enabled()
            },
        }
    }

    #[test]
    fn grid_presets_resolve() {
        let r = grid("reduced").expect("reduced preset");
        assert_eq!(r.apps.len() * r.pressures.len(), 9);
        assert!(r.controller.enabled);
        let f = grid("full").expect("full preset");
        assert_eq!(f.apps.len(), 6);
        assert_eq!(f.pressures.len(), 5);
        assert!(grid("nope").is_none());
    }

    #[test]
    fn json_is_parseable_and_deterministic() {
        let g = tiny_grid();
        let cells = run_grid(&g, &SimConfig::default(), 2);
        let a = to_json(&g, &cells, None);
        let cells2 = run_grid(&g, &SimConfig::default(), 1);
        let b = to_json(&g, &cells2, None);
        assert_eq!(a, b, "ablation JSON must not depend on job count");
        let v = json::parse(&a).expect("valid JSON");
        assert_eq!(
            v.get("experiment").and_then(json::Json::as_str),
            Some("ablation")
        );
        assert!(v.get("cells").is_some());
        assert!(v.get("majority_auto_le_static").is_some());
        // No wall clock leaf in the deterministic fixture.
        assert!(!a.contains("wall_secs"));
        let timed = to_json(&g, &cells, Some(1.5));
        assert!(timed.contains("\"wall_secs\":1.500"));
    }

    #[test]
    fn html_is_self_contained_with_all_three_charts() {
        let g = tiny_grid();
        let cells = run_grid(&g, &SimConfig::default(), 2);
        let html = render_html(&g, &cells);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Execution time"));
        assert!(html.contains("Knob trajectory"));
        assert!(html.contains("Phase timeline"));
        assert!(html.contains("ROADMAP item 4"));
        assert!(html.ends_with("</body></html>\n"));
        assert!(!html.contains("<script"));
        assert!(!html.contains("<link"));
    }
}
