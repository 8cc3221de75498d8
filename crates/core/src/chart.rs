//! ASCII stacked-bar rendering of the paper's figures.
//!
//! The paper presents each application as a pair of stacked-bar charts;
//! [`exec_chart`] and [`miss_chart`] render the same stacks as horizontal
//! ASCII bars so `bench figures --chart` output *looks* like Figures 2–3:
//!
//! ```text
//! SCOMA    90% |■■■■■■■■■■■■▒▒▒▒▒░░·| 8.03
//! ```
//!
//! Each glyph class is one stack category; the legend is printed under
//! the chart.  Miss charts support the paper's non-zero-origin trick
//! ("for readability, these graphs are adjusted to focus on the remote
//! data accesses") by dropping a common `HOME` baseline.

use crate::experiments::FigureData;
use std::fmt::Write as _;

/// Glyphs for the six execution-time categories, in
/// `ExecBreakdown::LABELS` order.
const EXEC_GLYPHS: [char; 6] = ['█', '▓', '▒', '·', ':', '~'];

/// Glyphs for the five miss buckets, in `MissBreakdown::LABELS` order.
const MISS_GLYPHS: [char; 5] = ['#', '=', '+', 'o', '-'];

fn bar(shares: &[(f64, char)], width_per_unit: f64, max_chars: usize) -> String {
    let mut s = String::new();
    for &(v, g) in shares {
        let n = (v * width_per_unit).round() as usize;
        for _ in 0..n.min(max_chars.saturating_sub(s.chars().count())) {
            s.push(g);
        }
    }
    s
}

/// Render the left chart (relative execution time) as stacked ASCII bars.
pub fn exec_chart(data: &FigureData) -> String {
    let mut out = String::new();
    let base = data.baseline.exec.total();
    let max_rel = data
        .bars
        .iter()
        .map(|b| b.relative_time)
        .fold(1.0f64, f64::max);
    // Clip very tall bars like the paper does (it annotates the clipped
    // value in the chart title, e.g. "RADIX6.7").
    let clip = max_rel.min(3.0);
    let width = 48usize;
    let per_unit = width as f64 / clip;
    let _ = writeln!(
        out,
        "{} — relative execution time{}",
        data.app.to_uppercase(),
        if max_rel > clip {
            format!(" (bars clipped at {clip:.1}; max {max_rel:.1})")
        } else {
            String::new()
        }
    );
    for b in &data.bars {
        let shares = b.run.exec.normalized(base);
        let stacked: Vec<(f64, char)> = shares
            .iter()
            .zip(EXEC_GLYPHS)
            .map(|(&v, g)| (v, g))
            .collect();
        let press = if b.run.arch.pressure_independent() {
            "  — ".to_string()
        } else {
            format!("{:>3.0}%", b.run.pressure * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<7}{} |{:<width$}| {:.2}",
            b.run.arch.name(),
            press,
            bar(&stacked, per_unit, width),
            b.relative_time,
        );
    }
    let legend: Vec<String> = ascoma_sim::stats::ExecBreakdown::LABELS
        .iter()
        .zip(EXEC_GLYPHS)
        .map(|(l, g)| format!("{g}={l}"))
        .collect();
    let _ = writeln!(out, "legend: {}", legend.join(" "));
    out
}

/// Render the right chart (where misses were satisfied), focused on
/// remote accesses by subtracting the common HOME baseline, as the paper
/// does with its non-zero Y origin.
pub fn miss_chart(data: &FigureData) -> String {
    let mut out = String::new();
    let min_home = data.bars.iter().map(|b| b.run.miss.home).min().unwrap_or(0);
    let max_total: u64 = data
        .bars
        .iter()
        .map(|b| b.run.miss.chart().iter().sum::<u64>() - min_home)
        .max()
        .unwrap_or(1)
        .max(1);
    let width = 48usize;
    let per_unit = width as f64 / max_total as f64;
    let _ = writeln!(
        out,
        "{} — where misses were satisfied (HOME baseline {} dropped)",
        data.app.to_uppercase(),
        min_home
    );
    for b in &data.bars {
        let mut chart = b.run.miss.chart();
        chart[0] -= min_home;
        let stacked: Vec<(f64, char)> = chart
            .iter()
            .zip(MISS_GLYPHS)
            .map(|(&v, g)| (v as f64, g))
            .collect();
        let press = if b.run.arch.pressure_independent() {
            "  — ".to_string()
        } else {
            format!("{:>3.0}%", b.run.pressure * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<7}{} |{:<width$}| {}",
            b.run.arch.name(),
            press,
            bar(&stacked, per_unit, width),
            chart.iter().sum::<u64>() + min_home,
        );
    }
    let legend: Vec<String> = ascoma_sim::stats::MissBreakdown::LABELS
        .iter()
        .zip(MISS_GLYPHS)
        .map(|(l, g)| format!("{g}={l}"))
        .collect();
    let _ = writeln!(out, "legend: {}", legend.join(" "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_figure;
    use ascoma_workloads::App;

    fn data() -> FigureData {
        tiny_figure(App::Ocean, &[0.5])
    }

    #[test]
    fn exec_chart_has_one_bar_per_run() {
        let d = data();
        let chart = exec_chart(&d);
        // Header + bars + legend.
        assert_eq!(chart.lines().count(), 1 + d.bars.len() + 1);
        assert!(chart.contains("legend:"));
    }

    #[test]
    fn miss_chart_drops_common_home_baseline() {
        let d = data();
        let chart = miss_chart(&d);
        assert!(chart.contains("baseline"));
        assert_eq!(chart.lines().count(), 1 + d.bars.len() + 1);
    }

    #[test]
    fn bars_never_exceed_width() {
        let d = data();
        for line in exec_chart(&d).lines().chain(miss_chart(&d).lines()) {
            if let (Some(a), Some(b)) = (line.find('|'), line.rfind('|')) {
                let inner: String = line[a + 1..b].chars().collect();
                assert!(inner.chars().count() <= 48 + 2, "bar too wide: {line}");
            }
        }
    }
}
