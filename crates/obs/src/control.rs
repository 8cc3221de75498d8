//! The metrics-driven auto-tuner for the adaptive back-off policy.
//!
//! ROADMAP item 4: the paper picks its back-off constants
//! (`threshold_increment` = 32, `daemon_period`) statically; this module
//! closes the control loop by folding the always-tracked windowed
//! signals — refetch rate, reclaim latency, free-pool low-water, network
//! backlog — into a deterministic *phase detector* and per-node `Tune`
//! actions at window boundaries.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.**  All arithmetic is integer-only (fixed-point
//!    EWMAs with [`EWMA_FRAC`] fractional bits), so the same run
//!    produces byte-identical decisions on every host and at every job
//!    count (cell parallelism never splits a cell, so per-cell controller
//!    state is serial by construction).
//! 2. **Observability.**  Every decision is attributable: phase changes
//!    and tunes carry a [`Cause`] naming the signal that crossed its
//!    bound, are emitted as `Event::{PhaseChange, TuneApplied}` through
//!    the normal sink path, and accumulate into a [`ControllerSummary`]
//!    (decision counts, knob trajectories, per-phase dwell) returned in
//!    the `RunResult`.
//! 3. **Replayability.**  [`replay_tunes`] rebuilds the per-node knob
//!    trajectory from an exported JSONL trace; a property test asserts
//!    it matches the live trajectory step for step.
//!
//! The detector itself is EWMA + hysteresis: each signal's EWMA is
//! compared against enter/exit bounds (enter above exit, so a signal
//! must fall well below its trigger to release), and a phase switch
//! requires the candidate phase to win [`ControllerParams::confirm`]
//! consecutive windows.  Knobs then step geometrically (one doubling or
//! halving per window) toward the active phase's target, so a
//! misdetected phase costs at most a couple of gentle steps before the
//! hysteresis recovers.

use crate::json::Json;

/// Fractional bits of the fixed-point EWMAs (value `x` is stored as
/// `x << EWMA_FRAC`).
pub const EWMA_FRAC: u32 = 4;

/// Number of phases (for dwell arrays).
pub const PHASE_COUNT: usize = 4;

/// The workload phase the detector believes a node is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Phase {
    /// Nothing notable: knobs drift back to the paper's constants.
    #[default]
    Baseline,
    /// Refetch storm: remote pages bounce back right after eviction, so
    /// back off harder (bigger increment, slower daemon).
    Hot,
    /// Free-pool distress: the pool sits under its low-water mark or
    /// reclaim is slow/backlogged, so reclaim more eagerly.
    Pressure,
    /// Quiescent: barely any refetches, so relocation can afford a
    /// gentler increment.
    Cold,
}

impl Phase {
    /// All phases, index order (stable; used for dwell arrays).
    pub const ALL: [Phase; PHASE_COUNT] =
        [Phase::Baseline, Phase::Hot, Phase::Pressure, Phase::Cold];

    /// Stable snake_case tag (JSONL / digest key).
    pub fn tag(self) -> &'static str {
        match self {
            Phase::Baseline => "baseline",
            Phase::Hot => "hot",
            Phase::Pressure => "pressure",
            Phase::Cold => "cold",
        }
    }

    /// One-character glyph for dense dashboard rows.
    pub fn glyph(self) -> char {
        match self {
            Phase::Baseline => 'B',
            Phase::Hot => 'H',
            Phase::Pressure => 'P',
            Phase::Cold => 'C',
        }
    }

    /// Stable index (inverse of [`Phase::from_index`]).
    pub fn index(self) -> usize {
        match self {
            Phase::Baseline => 0,
            Phase::Hot => 1,
            Phase::Pressure => 2,
            Phase::Cold => 3,
        }
    }

    /// Phase for a stable index; out-of-range maps to `Baseline`.
    pub fn from_index(i: u64) -> Phase {
        *Phase::ALL.get(i as usize).unwrap_or(&Phase::Baseline)
    }
}

/// Which signal crossing drove a decision (cause attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cause {
    /// Refetch-rate EWMA crossed its upper (enter-hot) bound.
    RefetchHigh,
    /// Refetch-rate EWMA fell to the cold bound.
    RefetchLow,
    /// Free pool at/under its low-water mark.
    FreeLow,
    /// Network-backlog EWMA crossed its bound.
    BacklogHigh,
    /// Mean reclaim latency crossed its bound.
    ReclaimSlow,
    /// Every signal back inside bounds (return to baseline).
    Recovered,
    /// No phase change: knobs stepping toward the phase target.
    Drift,
}

impl Cause {
    /// Stable snake_case tag (JSONL / digest key).
    pub fn tag(self) -> &'static str {
        match self {
            Cause::RefetchHigh => "refetch_high",
            Cause::RefetchLow => "refetch_low",
            Cause::FreeLow => "free_low",
            Cause::BacklogHigh => "backlog_high",
            Cause::ReclaimSlow => "reclaim_slow",
            Cause::Recovered => "recovered",
            Cause::Drift => "drift",
        }
    }

    /// All causes; `cause as usize` is the cause's index here.
    pub const ALL: [Cause; 7] = [
        Cause::RefetchHigh,
        Cause::RefetchLow,
        Cause::FreeLow,
        Cause::BacklogHigh,
        Cause::ReclaimSlow,
        Cause::Recovered,
        Cause::Drift,
    ];
}

/// Controller constants.  `Copy` so `SimConfig` stays `Copy`; all
/// bounds are plain integers compared against fixed-point EWMAs
/// internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerParams {
    /// Master switch; `false` (the default) must be byte-identical to a
    /// build without the controller.
    pub enabled: bool,
    /// Decision window in cycles (also the sampling period of the
    /// controller's own signal accumulators).
    pub window: u64,
    /// EWMA smoothing: alpha = 1 / 2^`ewma_shift`.
    pub ewma_shift: u32,
    /// Refetches-per-window EWMA at/above which a node enters `Hot`.
    pub hot_enter: u64,
    /// Refetches-per-window EWMA below which `Hot` releases
    /// (hysteresis: must be < `hot_enter`).
    pub hot_exit: u64,
    /// Refetches-per-window EWMA at/below which a node enters `Cold`.
    pub cold_enter: u64,
    /// Mean reclaim latency (cycles per daemon reclaim) at/above which
    /// the node is in `Pressure`.
    pub reclaim_enter: u64,
    /// Network-backlog EWMA at/above which the node is in `Pressure`.
    pub backlog_enter: u64,
    /// Consecutive windows a candidate phase must win before the
    /// detector switches (anti-flap).
    pub confirm: u32,
    /// Lowest `threshold_increment` the tuner may set.
    pub inc_min: u32,
    /// Highest `threshold_increment` the tuner may set.
    pub inc_max: u32,
    /// Largest power-of-two divisor of the base daemon period
    /// (`Pressure` hastens down to `base >> period_shift_max`).
    pub period_shift_max: u32,
}

impl Default for ControllerParams {
    fn default() -> Self {
        Self {
            enabled: false,
            window: 100_000,
            ewma_shift: 2,
            hot_enter: 48,
            hot_exit: 16,
            cold_enter: 1,
            reclaim_enter: 20_000,
            backlog_enter: 24,
            confirm: 2,
            inc_min: 8,
            inc_max: 128,
            period_shift_max: 2,
        }
    }
}

impl ControllerParams {
    /// The default constants with the loop switched on.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Sanity-check the bounds relationships.
    pub fn validate(&self) {
        assert!(self.window > 0, "controller window must be positive");
        assert!(
            self.hot_exit < self.hot_enter,
            "hysteresis needs exit < enter"
        );
        assert!(
            self.cold_enter < self.hot_exit,
            "cold bound must sit below hot exit"
        );
        assert!(self.inc_min >= 1 && self.inc_min <= self.inc_max);
        assert!(self.confirm >= 1);
    }
}

/// One node's signal accumulation over a single decision window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Refetch misses served this window.
    pub refetch: u64,
    /// Daemon reclaim runs completed this window.
    pub reclaims: u64,
    /// Total reclaim latency (cycles) across those runs.
    pub reclaim_cycles: u64,
    /// Free frames right now.
    pub free: u64,
    /// The pool's low-water mark (frames).
    pub low: u64,
    /// Network backlog (queued messages) right now.
    pub backlog: u64,
}

/// A phase transition decided at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseChangeInfo {
    /// Phase left behind.
    pub from: Phase,
    /// Phase entered.
    pub to: Phase,
    /// Signal crossing that drove the switch.
    pub cause: Cause,
    /// Windows spent in `from` (dwell, for the digest histogram).
    pub dwell: u64,
}

/// A knob adjustment decided at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneInfo {
    /// `threshold_increment` before.
    pub inc_from: u32,
    /// `threshold_increment` after.
    pub inc_to: u32,
    /// Daemon base period before.
    pub period_from: u64,
    /// Daemon base period after.
    pub period_to: u64,
    /// Why (the phase-entry cause, or [`Cause::Drift`] while converging).
    pub cause: Cause,
}

/// Everything one `on_window` call decided for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decision {
    /// The phase switch, if the detector flipped.
    pub phase_change: Option<PhaseChangeInfo>,
    /// The knob step, if the knobs moved.
    pub tune: Option<TuneInfo>,
}

/// One point of a knob trajectory: the knob values in force from
/// `window` onward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobStep {
    /// Decision-window ordinal at which these values took effect.
    pub window: u64,
    /// `threshold_increment` in force.
    pub inc: u32,
    /// Daemon base period in force.
    pub period: u64,
}

/// One point of a phase trajectory: the phase in force from `window`
/// onward (`bench ablation_controller` prints each node's list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStep {
    /// Decision-window ordinal at which the phase took effect.
    pub window: u64,
    /// The detector's phase from that window on.
    pub phase: Phase,
}

#[derive(Debug, Clone, PartialEq)]
struct NodeCtl {
    phase: Phase,
    candidate: Phase,
    streak: u32,
    dwell_windows: u64,
    ewma_refetch: i64,
    ewma_backlog: i64,
    inc: u32,
    period: u64,
    phase_changes: u64,
    tunes: u64,
    dwell: [u64; PHASE_COUNT],
    trajectory: Vec<KnobStep>,
    phases: Vec<PhaseStep>,
}

/// The per-run controller: one phase detector + knob pair per node.
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    params: ControllerParams,
    default_inc: u32,
    base_period: u64,
    nodes: Vec<NodeCtl>,
    decisions: u64,
}

impl Controller {
    /// A controller for `nodes` nodes whose static constants are
    /// `default_inc` / `base_period` (the knobs start there and
    /// `Baseline` drifts back toward them).
    pub fn new(params: ControllerParams, nodes: usize, default_inc: u32, base_period: u64) -> Self {
        params.validate();
        let default_inc = default_inc.clamp(params.inc_min, params.inc_max);
        let node = NodeCtl {
            phase: Phase::Baseline,
            candidate: Phase::Baseline,
            streak: 0,
            dwell_windows: 0,
            ewma_refetch: 0,
            ewma_backlog: 0,
            inc: default_inc,
            period: base_period,
            phase_changes: 0,
            tunes: 0,
            dwell: [0; PHASE_COUNT],
            trajectory: vec![KnobStep {
                window: 0,
                inc: default_inc,
                period: base_period,
            }],
            phases: vec![PhaseStep {
                window: 0,
                phase: Phase::Baseline,
            }],
        };
        Self {
            params,
            default_inc,
            base_period,
            nodes: vec![node; nodes],
            decisions: 0,
        }
    }

    /// The constants this controller runs with.
    pub fn params(&self) -> ControllerParams {
        self.params
    }

    /// Decision-window length in cycles.
    pub fn window(&self) -> u64 {
        self.params.window
    }

    /// Current phase of `node`.
    pub fn phase(&self, node: usize) -> Phase {
        self.nodes.get(node).map_or(Phase::Baseline, |n| n.phase)
    }

    /// Current knob values `(increment, period)` of `node`.
    pub fn knobs(&self, node: usize) -> (u32, u64) {
        self.nodes
            .get(node)
            .map_or((self.default_inc, self.base_period), |n| (n.inc, n.period))
    }

    /// Fold one node's window sample, advance its detector, and return
    /// what (if anything) changed.  `window` is the decision-window
    /// ordinal, strictly increasing per node.
    pub fn on_window(&mut self, node: usize, window: u64, s: &WindowSample) -> Decision {
        let p = self.params;
        let Some(n) = self.nodes.get_mut(node) else {
            return Decision::default();
        };
        // Integer fixed-point EWMA: ewma += (x - ewma) * alpha, with
        // alpha = 2^-shift and EWMA_FRAC fractional bits.  Arithmetic
        // shift of a non-negative value floors, so this is exact and
        // host-independent.
        let fold = |ewma: &mut i64, x: u64| {
            let xf = (x as i64) << EWMA_FRAC;
            *ewma += (xf - *ewma) >> p.ewma_shift;
        };
        fold(&mut n.ewma_refetch, s.refetch);
        fold(&mut n.ewma_backlog, s.backlog);
        let mean_reclaim = s.reclaim_cycles.checked_div(s.reclaims).unwrap_or(0);

        // Raw signal crossings this window.
        let free_low = s.free <= s.low;
        let backlog_high = n.ewma_backlog >= (p.backlog_enter as i64) << EWMA_FRAC;
        let reclaim_slow = s.reclaims > 0 && mean_reclaim >= p.reclaim_enter;
        let hot_bound = if n.phase == Phase::Hot {
            p.hot_exit
        } else {
            p.hot_enter
        };
        let refetch_hot = n.ewma_refetch >= (hot_bound as i64) << EWMA_FRAC;
        let refetch_cold = n.ewma_refetch <= (p.cold_enter as i64) << EWMA_FRAC;

        // Priority: free-pool distress beats a refetch storm beats
        // quiescence.  Cause = the signal that selected the phase.
        let (want, cause) = if free_low {
            (Phase::Pressure, Cause::FreeLow)
        } else if reclaim_slow {
            (Phase::Pressure, Cause::ReclaimSlow)
        } else if backlog_high {
            (Phase::Pressure, Cause::BacklogHigh)
        } else if refetch_hot {
            (Phase::Hot, Cause::RefetchHigh)
        } else if refetch_cold {
            (Phase::Cold, Cause::RefetchLow)
        } else {
            (Phase::Baseline, Cause::Recovered)
        };

        // Hysteresis part two: a switch needs `confirm` consecutive
        // wins by the same candidate.
        n.dwell_windows += 1;
        n.dwell[n.phase.index()] += 1;
        let mut phase_change = None;
        if want == n.phase {
            n.candidate = n.phase;
            n.streak = 0;
        } else {
            if want == n.candidate {
                n.streak += 1;
            } else {
                n.candidate = want;
                n.streak = 1;
            }
            if n.streak >= p.confirm {
                phase_change = Some(PhaseChangeInfo {
                    from: n.phase,
                    to: want,
                    cause,
                    dwell: n.dwell_windows,
                });
                n.phase = want;
                n.candidate = want;
                n.streak = 0;
                n.dwell_windows = 0;
                n.phase_changes += 1;
                n.phases.push(PhaseStep {
                    window,
                    phase: want,
                });
            }
        }

        // Knob targets per phase; knobs step one doubling/halving per
        // window toward them, so every trajectory is geometric and
        // bounded.
        let (inc_target, period_target) = match n.phase {
            Phase::Baseline => (self.default_inc, self.base_period),
            Phase::Hot => (
                (self.default_inc.saturating_mul(2)).min(p.inc_max),
                self.base_period.saturating_mul(2),
            ),
            Phase::Pressure => (
                self.default_inc,
                (self.base_period >> p.period_shift_max).max(1),
            ),
            Phase::Cold => ((self.default_inc / 2).max(p.inc_min), self.base_period),
        };
        let step_u32 = |cur: u32, target: u32| -> u32 {
            match cur.cmp(&target) {
                std::cmp::Ordering::Less => cur.saturating_mul(2).min(target),
                std::cmp::Ordering::Greater => (cur / 2).max(target).max(1),
                std::cmp::Ordering::Equal => cur,
            }
        };
        let step_u64 = |cur: u64, target: u64| -> u64 {
            match cur.cmp(&target) {
                std::cmp::Ordering::Less => cur.saturating_mul(2).min(target),
                std::cmp::Ordering::Greater => (cur / 2).max(target).max(1),
                std::cmp::Ordering::Equal => cur,
            }
        };
        let inc_to = step_u32(n.inc, inc_target).clamp(p.inc_min, p.inc_max);
        let period_to = step_u64(n.period, period_target);
        let mut tune = None;
        if inc_to != n.inc || period_to != n.period {
            tune = Some(TuneInfo {
                inc_from: n.inc,
                inc_to,
                period_from: n.period,
                period_to,
                cause: phase_change.map_or(Cause::Drift, |pc| pc.cause),
            });
            n.inc = inc_to;
            n.period = period_to;
            n.tunes += 1;
            n.trajectory.push(KnobStep {
                window,
                inc: inc_to,
                period: period_to,
            });
        }
        if phase_change.is_some() || tune.is_some() {
            self.decisions += 1;
        }
        Decision { phase_change, tune }
    }

    /// Snapshot the whole run's controller activity.
    pub fn summary(&self) -> ControllerSummary {
        ControllerSummary {
            decisions: self.decisions,
            window: self.params.window,
            per_node: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| NodeControllerSummary {
                    node: i as u16,
                    phase_changes: n.phase_changes,
                    tunes: n.tunes,
                    final_phase: n.phase,
                    final_inc: n.inc,
                    final_period: n.period,
                    dwell: n.dwell,
                    knob_trajectory: n.trajectory.clone(),
                    phase_trajectory: n.phases.clone(),
                })
                .collect(),
        }
    }
}

/// End-of-run controller digest attached to the `RunResult`.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerSummary {
    /// Total decisions (phase changes + tunes) across all nodes.
    pub decisions: u64,
    /// Decision-window length in cycles.
    pub window: u64,
    /// Per-node detail, node order.
    pub per_node: Vec<NodeControllerSummary>,
}

/// One node's controller activity over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeControllerSummary {
    /// Node id.
    pub node: u16,
    /// Phase switches taken.
    pub phase_changes: u64,
    /// Knob steps applied.
    pub tunes: u64,
    /// Phase at end of run.
    pub final_phase: Phase,
    /// `threshold_increment` at end of run.
    pub final_inc: u32,
    /// Daemon base period at end of run.
    pub final_period: u64,
    /// Windows spent per phase, [`Phase::ALL`] order.
    pub dwell: [u64; PHASE_COUNT],
    /// Knob values over time (first entry is the starting values).
    pub knob_trajectory: Vec<KnobStep>,
    /// Detector phase over time (first entry is `Baseline` at window 0).
    pub phase_trajectory: Vec<PhaseStep>,
}

/// Rebuild per-node knob trajectories from an exported JSONL trace
/// (one event object per line; non-`tune_applied` lines are skipped,
/// malformed lines are ignored).  `starts` seeds each node's first
/// step, exactly as [`Controller::new`] does, so the result is directly
/// comparable to [`NodeControllerSummary::knob_trajectory`].
pub fn replay_tunes(
    jsonl: &str,
    nodes: usize,
    default_inc: u32,
    base_period: u64,
) -> Vec<Vec<KnobStep>> {
    let mut out = vec![
        vec![KnobStep {
            window: 0,
            inc: default_inc,
            period: base_period,
        }];
        nodes
    ];
    for line in jsonl.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = crate::json::parse(line) else {
            continue;
        };
        if v.get("kind").and_then(Json::as_str) != Some("tune_applied") {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let (Some(node), Some(window), Some(inc), Some(period)) = (
            field("node"),
            field("window"),
            field("inc_to"),
            field("period_to"),
        ) else {
            continue;
        };
        if let Some(traj) = out.get_mut(node as usize) {
            traj.push(KnobStep {
                window,
                inc: inc as u32,
                period,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ControllerParams {
        ControllerParams::enabled()
    }

    fn quiet() -> WindowSample {
        WindowSample {
            refetch: 4,
            reclaims: 1,
            reclaim_cycles: 100,
            free: 100,
            low: 10,
            backlog: 0,
        }
    }

    #[test]
    fn defaults_validate_and_start_disabled() {
        ControllerParams::default().validate();
        assert!(!ControllerParams::default().enabled);
        assert!(ControllerParams::enabled().enabled);
    }

    #[test]
    fn phase_and_cause_tags_round_trip() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert!(Phase::ALL[..i].iter().all(|q| q.tag() != p.tag()));
            assert_eq!(Phase::from_index(p.index() as u64), p);
        }
        for (i, c) in Cause::ALL.into_iter().enumerate() {
            assert!(Cause::ALL[..i].iter().all(|d| d.tag() != c.tag()));
        }
        assert_eq!(Phase::from_index(99), Phase::Baseline);
    }

    #[test]
    fn quiet_windows_leave_knobs_alone() {
        let mut c = Controller::new(params(), 2, 32, 50_000);
        for w in 1..=20 {
            let d = c.on_window(0, w, &quiet());
            assert!(
                d.phase_change.is_none() || d.phase_change.map(|p| p.to) == Some(Phase::Baseline)
            );
        }
        assert_eq!(c.knobs(0), (32, 50_000));
        assert_eq!(c.knobs(1), (32, 50_000), "untouched node keeps defaults");
    }

    #[test]
    fn refetch_storm_enters_hot_and_backs_off() {
        let mut c = Controller::new(params(), 1, 32, 50_000);
        let storm = WindowSample {
            refetch: 200,
            ..quiet()
        };
        let mut entered = None;
        for w in 1..=12 {
            let d = c.on_window(0, w, &storm);
            if let Some(pc) = d.phase_change {
                assert_eq!(pc.to, Phase::Hot);
                assert_eq!(pc.cause, Cause::RefetchHigh);
                entered = Some(w);
                break;
            }
        }
        let w0 = entered.expect("storm must enter Hot");
        for w in w0 + 1..w0 + 6 {
            c.on_window(0, w, &storm);
        }
        let (inc, period) = c.knobs(0);
        assert_eq!(inc, 64, "Hot doubles the increment");
        assert_eq!(period, 100_000, "Hot slows the daemon");
    }

    #[test]
    fn free_pool_distress_enters_pressure_and_hastens() {
        let mut c = Controller::new(params(), 1, 32, 50_000);
        let squeeze = WindowSample {
            free: 3,
            low: 10,
            ..quiet()
        };
        for w in 1..=8 {
            c.on_window(0, w, &squeeze);
        }
        assert_eq!(c.phase(0), Phase::Pressure);
        let (_, period) = c.knobs(0);
        assert_eq!(period, 12_500, "Pressure hastens to base >> 2");
        // Recovery drifts back to baseline and the default period.
        for w in 9..=30 {
            c.on_window(0, w, &quiet());
        }
        assert_eq!(c.phase(0), Phase::Baseline);
        assert_eq!(c.knobs(0), (32, 50_000));
    }

    #[test]
    fn hysteresis_needs_confirmation() {
        let p = ControllerParams {
            confirm: 3,
            ..params()
        };
        let mut c = Controller::new(p, 1, 32, 50_000);
        let squeeze = WindowSample {
            free: 0,
            low: 10,
            ..quiet()
        };
        assert!(c.on_window(0, 1, &squeeze).phase_change.is_none());
        assert!(c.on_window(0, 2, &squeeze).phase_change.is_none());
        let d = c.on_window(0, 3, &squeeze);
        assert_eq!(d.phase_change.map(|pc| pc.to), Some(Phase::Pressure));
    }

    #[test]
    fn summary_counts_decisions_and_dwell() {
        let mut c = Controller::new(params(), 1, 32, 50_000);
        let squeeze = WindowSample {
            free: 0,
            low: 10,
            ..quiet()
        };
        for w in 1..=10 {
            c.on_window(0, w, &squeeze);
        }
        let s = c.summary();
        assert!(s.decisions > 0);
        assert_eq!(s.per_node.len(), 1);
        let n = &s.per_node[0];
        assert_eq!(n.final_phase, Phase::Pressure);
        assert_eq!(
            n.dwell.iter().sum::<u64>(),
            10,
            "every window dwells somewhere"
        );
        assert!(n.knob_trajectory.len() >= 2);
        assert_eq!(n.phase_trajectory[0].phase, Phase::Baseline);
        assert_eq!(
            n.phase_trajectory.last().map(|p| p.phase),
            Some(Phase::Pressure)
        );
    }

    #[test]
    fn replay_rebuilds_trajectory_from_jsonl() {
        let jsonl = "\
            {\"t\":100000,\"kind\":\"tune_applied\",\"node\":0,\"window\":1,\"inc_from\":32,\"inc_to\":64,\"period_from\":50000,\"period_to\":100000,\"cause\":\"refetch_high\"}\n\
            not json at all\n\
            {\"t\":200000,\"kind\":\"page_mapped\",\"node\":0,\"page\":1,\"mode\":\"numa\"}\n\
            {\"t\":300000,\"kind\":\"tune_applied\",\"node\":1,\"window\":3,\"inc_from\":32,\"inc_to\":16,\"period_from\":50000,\"period_to\":50000,\"cause\":\"refetch_low\"}\n";
        let t = replay_tunes(jsonl, 2, 32, 50_000);
        assert_eq!(
            t[0],
            vec![
                KnobStep {
                    window: 0,
                    inc: 32,
                    period: 50_000
                },
                KnobStep {
                    window: 1,
                    inc: 64,
                    period: 100_000
                },
            ]
        );
        assert_eq!(t[1].len(), 2);
        assert_eq!(
            t[1][1],
            KnobStep {
                window: 3,
                inc: 16,
                period: 50_000
            }
        );
    }
}
