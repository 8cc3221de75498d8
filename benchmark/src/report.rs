//! Metric output: the per-line text form, the result line the last line
//! of a run prints, the detail record `all` collects into
//! `results.json`, and `compare` over two such files.

use crate::digest::Reference;
use crate::stats::{median, spread};
use ascoma_obs::json::{self, Json};
use std::fmt::Write as _;

/// `BENCHMARK.json`: the metric names, units, directions and bounds.
pub const SPEC: &str = include_str!("../../BENCHMARK.json");

/// One metric as declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The end-to-end and per-layer metric declarations.
pub fn specs() -> Result<(Vec<Spec>, Vec<Spec>), String> {
    let doc = json::parse(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Spec>, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no '{key}' list"))?
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
                Ok(Spec {
                    name: field("name").ok_or("metric without a name")?,
                    unit: field("unit").ok_or("metric without a unit")?,
                    lower_is_better: field("better").as_deref() == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name (`<crate>.<metric>` for per-layer metrics).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-pass samples behind an end-to-end value (its spread), empty
    /// for per-layer metrics.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric without per-pass samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }
}

/// Everything one `run` or `trace` of a workload reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// `run` (untraced) or `trace`.
    pub mode: &'static str,
    /// Metrics, in output order.
    pub metrics: Vec<Metric>,
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Notes printed as `#` lines (seeding, tail percentile, files).
    pub notes: Vec<String>,
    /// Each cell's digests, for `--bless`.
    pub cells: Vec<(String, Reference)>,
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// print as 0 so the document always parses.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// Whether every cell passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The `<workload> <metric> <value> <unit>` lines, notes and failures.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {} {n}", self.workload);
        }
        let _ = writeln!(
            out,
            "# {} {}: {} of {} cells failed",
            self.workload, self.mode, self.failed, self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "# {} FAILED {f}", self.workload);
        }
        out
    }

    /// The final result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (each `{value, unit}`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record `all` keeps in `results.json`.
    pub fn detail(&self) -> String {
        let list = |xs: &[String]| xs.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
                format!(
                    "{}:{{\"value\":{},\"unit\":{},\"samples\":[{}]}}",
                    json_str(m.name),
                    num(m.value),
                    json_str(m.unit),
                    samples.join(",")
                )
            })
            .collect();
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|(k, r)| {
                let metrics = r
                    .metrics
                    .map_or("null".into(), |m| json_str(&format!("{m:#018x}")));
                format!(
                    "{{\"key\":{},\"result\":{},\"metrics\":{metrics}}}",
                    json_str(k),
                    json_str(&format!("{:#018x}", r.result))
                )
            })
            .collect();
        format!(
            "{{\"workload\":{},\"mode\":{},\"attempted\":{},\"failed\":{},\"failures\":[{}],\
             \"notes\":[{}],\"metrics\":{{{}}},\"cells\":[{}]}}",
            json_str(&self.workload),
            json_str(self.mode),
            self.attempted,
            self.failed,
            list(&self.failures),
            list(&self.notes),
            metrics.join(","),
            cells.join(",")
        )
    }
}

/// How one (workload, metric) pair moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Worse,
    /// Better than the baseline by more than the bound.
    Better,
    /// A side's own pass spread exceeds the bound: no call can be made.
    Unresolved,
}

impl Verdict {
    /// Lowercase tag.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classify `b` against baseline `a` under `bound`, given each side's
/// pass spread (interquartile distance over median).
pub fn classify(
    a: f64,
    b: f64,
    spread_a: f64,
    spread_b: f64,
    bound: f64,
    lower_is_better: bool,
) -> Verdict {
    if spread_a > bound || spread_b > bound {
        return Verdict::Unresolved;
    }
    // Positive `worsening` means b is worse than a.
    let worsening = if lower_is_better { b - a } else { a - b };
    let limit = bound * a.abs();
    if worsening > limit {
        Verdict::Worse
    } else if worsening < -limit {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric (or `failed_cells`).
    pub metric: String,
    /// Baseline value.
    pub a: f64,
    /// New value.
    pub b: f64,
    /// The call.
    pub verdict: Verdict,
}

fn workloads(doc: &Json) -> Vec<(String, &Json)> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?.to_string(), w)))
        .collect()
}

fn failed(w: &Json) -> f64 {
    ["run", "trace"]
        .iter()
        .filter_map(|m| w.get(m)?.get("failed")?.as_f64())
        .sum()
}

/// Compare two `results.json` documents metric by metric, with the
/// end-to-end bounds of `BENCHMARK.json`.  Failed cells are compared as
/// counts with no allowance.
pub fn compare(a: &Json, b: &Json, e2e: &[Spec]) -> Result<Vec<Row>, String> {
    let bs = workloads(b);
    let mut rows = Vec::new();
    for (name, wa) in workloads(a) {
        let wb = bs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| *w)
            .ok_or(format!("workload {name} missing from the second file"))?;
        for spec in e2e {
            let metric = |w: &Json| -> Result<(f64, f64), String> {
                let m = w
                    .get("run")
                    .and_then(|r| r.get("metrics"))
                    .and_then(|m| m.get(&spec.name))
                    .ok_or(format!("{name} has no {}", spec.name))?;
                let samples: Vec<f64> = m
                    .get("samples")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect();
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| median(&samples));
                Ok((value, spread(&samples)))
            };
            let (va, sa) = metric(wa)?;
            let (vb, sb) = metric(wb)?;
            let bound = spec.bound.ok_or(format!("{} has no bound", spec.name))?;
            rows.push(Row {
                workload: name.clone(),
                metric: spec.name.clone(),
                a: va,
                b: vb,
                verdict: classify(va, vb, sa, sb, bound, spec.lower_is_better),
            });
        }
        let (fa, fb) = (failed(wa), failed(wb));
        rows.push(Row {
            workload: name.clone(),
            metric: "failed_cells".into(),
            a: fa,
            b: fb,
            verdict: if fb > fa { Verdict::Worse } else { Verdict::Ok },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_declares_every_metric_once_with_a_valid_bound() {
        let (e2e, layer) = specs().expect("BENCHMARK.json parses");
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        let largest = e2e.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        for m in &e2e {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = e2e
            .iter()
            .find(|m| m.name == "setup_s")
            .and_then(|m| m.bound);
        assert_eq!(
            setup,
            Some(largest),
            "set-up time carries the largest bound"
        );
        let mut names: Vec<&str> = e2e.iter().chain(&layer).map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }

    #[test]
    fn classification_applies_bound_direction_and_spread() {
        use Verdict::*;
        // Lower is better: +5% is within a 10% bound, +15% is worse.
        assert_eq!(classify(100.0, 105.0, 0.01, 0.01, 0.10, true), Ok);
        assert_eq!(classify(100.0, 115.0, 0.01, 0.01, 0.10, true), Worse);
        assert_eq!(classify(100.0, 85.0, 0.01, 0.01, 0.10, true), Better);
        // Higher is better: the same drop is worse.
        assert_eq!(classify(100.0, 85.0, 0.01, 0.01, 0.10, false), Worse);
        assert_eq!(classify(100.0, 115.0, 0.01, 0.01, 0.10, false), Better);
        // Either side's spread wider than the bound: unresolved.
        assert_eq!(classify(100.0, 150.0, 0.2, 0.01, 0.10, true), Unresolved);
        assert_eq!(classify(100.0, 100.0, 0.01, 0.11, 0.10, true), Unresolved);
    }

    fn report(wall: &[f64], failed: u64) -> Report {
        let mut r = Report {
            workload: "w\"x".into(),
            mode: "run",
            attempted: 4,
            failed,
            failures: vec!["cell \"a\" drifted".into()],
            ..Report::default()
        };
        r.metrics.push(Metric {
            name: "wall_s",
            unit: "s",
            value: median(wall),
            samples: wall.to_vec(),
        });
        r.cells.push((
            "k".into(),
            Reference {
                result: 7,
                metrics: Some(9),
            },
        ));
        r
    }

    /// A one-workload `results.json` with `r` as both its run and trace.
    fn results(r: &Report) -> Json {
        let w = format!("{{\"name\":\"w\",\"run\":{0},\"trace\":{0}}}", r.detail());
        json::parse(&format!("{{\"seed\":0,\"workloads\":[{w}]}}")).expect("results.json parses")
    }

    #[test]
    fn output_lines_parse_and_compare_reads_results() {
        let r = report(&[1.0, 1.01, 0.99], 0);
        let line = json::parse(&r.result_line()).expect("result line parses");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        let wall = line
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.as_obj().map(<[_]>::len), Some(2));
        let spec = [Spec {
            name: "wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.1),
        }];
        let a = results(&r);
        let same = compare(&a, &a, &spec).expect("compare");
        assert!(same.iter().all(|row| row.verdict == Verdict::Ok));
        let slow = results(&report(&[1.3, 1.31, 1.29], 0));
        let rows = compare(&a, &slow, &spec).expect("compare");
        assert_eq!(rows[0].verdict, Verdict::Worse);
        let broken = results(&report(&[1.0, 1.01, 0.99], 1));
        let rows = compare(&a, &broken, &spec).expect("compare");
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("failed_cells", Verdict::Worse)
        );
        assert!(r.text().contains("w\"x wall_s 1 s"));
    }
}
