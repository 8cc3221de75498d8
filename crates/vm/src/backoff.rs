//! The AS-COMA threshold back-off automaton.
//!
//! AS-COMA "dynamically backs off the rate of page remappings" when the
//! pageout daemon fails to refill the free pool: each failed run raises
//! the relocation threshold, latches NUMA-first allocation, and slows
//! the daemon; a successful run at an elevated threshold recovers one
//! step.  The automaton lives here — below the policy layer — so the
//! conformance checker (`ascoma-check`) can drive the *production*
//! transition function without depending on the core crate.  The
//! architecture gate (only AS-COMA consults the daemon) stays in
//! `ascoma::policy`, which delegates to this state machine.

use ascoma_sim::Cycles;

/// Constants of the back-off automaton (a subset of the core crate's
/// `PolicyParams`, restated here so the automaton is self-contained).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffParams {
    /// Starting (and floor) relocation threshold.
    pub initial_threshold: u32,
    /// Step applied per raise/drop.
    pub increment: u32,
    /// Threshold above which relocation is disabled entirely.
    pub cap: u32,
    /// False = ablated: the automaton never moves (`ascoma_backoff`).
    pub enabled: bool,
}

/// One node's back-off state: the current threshold plus the two
/// latches the paper describes (NUMA-first allocation, relocation
/// disabled past the cap).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffState {
    params: BackoffParams,
    threshold: u32,
    numa_first: bool,
    relocation_disabled: bool,
    raises: u64,
    drops: u64,
}

impl BackoffState {
    /// Fresh automaton at the initial threshold, nothing latched.
    pub fn new(params: BackoffParams) -> Self {
        Self {
            params,
            threshold: params.initial_threshold,
            numa_first: false,
            relocation_disabled: false,
            raises: 0,
            drops: 0,
        }
    }

    /// The automaton's constants.
    pub fn params(&self) -> BackoffParams {
        self.params
    }

    /// Current relocation threshold.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Whether relocation is fully disabled (threshold passed the cap).
    pub fn relocation_disabled(&self) -> bool {
        self.relocation_disabled
    }

    /// NUMA-first allocation latch.
    pub fn numa_first(&self) -> bool {
        self.numa_first
    }

    /// (raises, drops) statistics.
    pub fn stats(&self) -> (u64, u64) {
        (self.raises, self.drops)
    }

    /// Retarget the per-step increment at run time (the auto-tuner's
    /// knob).  Only the step size changes: the current threshold, the
    /// latches and the statistics are left untouched, so a tune between
    /// two daemon runs never rewrites history — it only changes how far
    /// the *next* raise or drop moves.  A zero increment is clamped to 1
    /// so the automaton can always make progress.
    pub fn set_increment(&mut self, increment: u32) {
        self.params.increment = increment.max(1);
    }

    /// Notify that a daemon run finished.  `reached_target` false =
    /// thrashing detected -> raise the threshold, latch NUMA-first and
    /// slow the daemon.  Success at an elevated threshold = cold pages
    /// exist again -> recover one step.
    pub fn on_daemon_result(&mut self, reached_target: bool) -> DaemonAdjust {
        if !self.params.enabled {
            return DaemonAdjust::Keep;
        }
        if !reached_target {
            self.raises += 1;
            self.numa_first = true;
            self.threshold = self.threshold.saturating_add(self.params.increment);
            if self.threshold > self.params.cap {
                self.relocation_disabled = true;
            }
            DaemonAdjust::Slow
        } else {
            let mut adj = DaemonAdjust::Keep;
            if self.threshold > self.params.initial_threshold {
                self.drops += 1;
                self.threshold = self
                    .threshold
                    .saturating_sub(self.params.increment)
                    .max(self.params.initial_threshold);
                if self.threshold <= self.params.cap {
                    self.relocation_disabled = false;
                }
                adj = DaemonAdjust::Hasten;
            }
            self.numa_first = false;
            adj
        }
    }

    /// Raise the threshold one step without touching the latches
    /// (VC-NUMA's break-even indicator fired low).
    pub fn raise(&mut self) {
        self.raises += 1;
        self.threshold = self.threshold.saturating_add(self.params.increment);
    }

    /// Lower the threshold one step toward the initial value, without
    /// touching the latches (VC-NUMA recovery).
    pub fn lower(&mut self) {
        self.drops += 1;
        self.threshold = self
            .threshold
            .saturating_sub(self.params.increment)
            .max(self.params.initial_threshold);
    }
}

/// Daemon-period adjustment requested by the automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonAdjust {
    /// Keep the current period.
    Keep,
    /// Double the period (back-off).
    Slow,
    /// Halve the period toward its initial value (recovery).
    Hasten,
}

/// Apply a [`DaemonAdjust`] to a period, clamped to `[initial, 64 * initial]`
/// (saturating, so a period near `Cycles::MAX` stays put rather than
/// wrapping).
pub fn adjust_period(period: Cycles, adj: DaemonAdjust, initial: Cycles) -> Cycles {
    match adj {
        DaemonAdjust::Keep => period,
        DaemonAdjust::Slow => period.saturating_mul(2).min(initial.saturating_mul(64)),
        DaemonAdjust::Hasten => (period / 2).max(initial),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BackoffParams {
        BackoffParams {
            initial_threshold: 64,
            increment: 32,
            cap: 1024,
            enabled: true,
        }
    }

    #[test]
    fn failure_raises_and_latches() {
        let mut b = BackoffState::new(params());
        assert_eq!(b.on_daemon_result(false), DaemonAdjust::Slow);
        assert_eq!(b.threshold(), 96);
        assert!(b.numa_first());
        assert_eq!(b.stats(), (1, 0));
    }

    #[test]
    fn recovery_floors_at_initial() {
        let mut b = BackoffState::new(params());
        b.on_daemon_result(false);
        b.on_daemon_result(false);
        assert_eq!(b.on_daemon_result(true), DaemonAdjust::Hasten);
        assert_eq!(b.threshold(), 96);
        b.on_daemon_result(true);
        assert_eq!(b.on_daemon_result(true), DaemonAdjust::Keep);
        assert_eq!(b.threshold(), 64);
    }

    #[test]
    fn cap_latch_and_unlatch() {
        let small = BackoffParams {
            initial_threshold: 1,
            increment: 1,
            cap: 2,
            enabled: true,
        };
        let mut b = BackoffState::new(small);
        b.on_daemon_result(false);
        assert!(!b.relocation_disabled());
        b.on_daemon_result(false);
        assert!(b.relocation_disabled());
        b.on_daemon_result(true);
        assert!(!b.relocation_disabled());
    }

    #[test]
    fn set_increment_changes_only_future_steps() {
        let mut b = BackoffState::new(params());
        b.on_daemon_result(false);
        assert_eq!(b.threshold(), 96);
        b.set_increment(8);
        assert_eq!(b.threshold(), 96, "tune must not rewrite the threshold");
        b.on_daemon_result(false);
        assert_eq!(b.threshold(), 104);
        b.on_daemon_result(true);
        assert_eq!(b.threshold(), 96);
        b.set_increment(0);
        assert_eq!(b.params().increment, 1, "zero increment clamps to 1");
    }

    #[test]
    fn disabled_automaton_is_inert() {
        let mut b = BackoffState::new(BackoffParams {
            enabled: false,
            ..params()
        });
        assert_eq!(b.on_daemon_result(false), DaemonAdjust::Keep);
        assert_eq!(b.threshold(), 64);
        assert!(!b.numa_first());
    }

    #[test]
    fn period_adjustment_saturates() {
        assert_eq!(adjust_period(1000, DaemonAdjust::Slow, 1000), 2000);
        assert_eq!(adjust_period(64_000, DaemonAdjust::Slow, 1000), 64_000);
        let max = Cycles::MAX;
        assert_eq!(adjust_period(max, DaemonAdjust::Slow, max), max);
        assert_eq!(adjust_period(max / 2 + 1, DaemonAdjust::Slow, max / 4), max);
    }
}
