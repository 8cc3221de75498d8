//! Results of one simulation run: the data behind every chart and table.

use crate::config::Arch;
use ascoma_obs::{ControllerSummary, MetricsDigest, Summary, ThresholdStep};
use ascoma_proto::ProtoStats;
use ascoma_sim::stats::{ExecBreakdown, KernelStats, MissBreakdown, MissLatency};
use ascoma_sim::Cycles;

/// Everything measured in one `(workload, architecture, pressure)` run.
///
/// Derives `PartialEq` so the parallel experiment engine can be asserted
/// field-for-field identical to the serial path
/// (`tests/parallel_equivalence.rs`, `perf_baseline --check`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Architecture simulated.
    pub arch: Arch,
    /// Workload name.
    pub workload: String,
    /// Configured memory pressure.
    pub pressure: f64,
    /// Parallel execution time: the last node's finish time.
    pub cycles: Cycles,
    /// Execution-time breakdown summed over nodes (Figures 2–3, left).
    pub exec: ExecBreakdown,
    /// Per-node execution breakdowns.
    pub exec_per_node: Vec<ExecBreakdown>,
    /// Shared-data miss-location breakdown, machine-wide (Figures 2–3,
    /// right).
    pub miss: MissBreakdown,
    /// Stall-cycle totals per miss-service location (measured average
    /// latencies = `latency.averages(&miss)`).
    pub latency: MissLatency,
    /// Kernel/VM activity counters, machine-wide.
    pub kernel: KernelStats,
    /// Coherence-protocol transaction counters, machine-wide.
    pub proto: ProtoStats,
    /// Distinct `(page, node)` remote pages ever accessed (Table 6, col 1).
    pub remote_page_node_pairs: u64,
    /// Distinct `(page, node)` pairs actually upgraded to S-COMA
    /// (Table 6, col 2, under the run's relocation policy).
    pub relocated_page_node_pairs: u64,
    /// Final refetch thresholds per node (back-off visibility).
    ///
    /// Kept for compatibility; [`RunResult::threshold_trajectories`]
    /// records the full back-off/recovery path each value is the end of.
    pub final_thresholds: Vec<u32>,
    /// Per-node refetch-threshold trajectory: every value the threshold
    /// took, time-stamped, starting with the initial threshold at cycle 0.
    /// The last entry of each trajectory equals the corresponding
    /// `final_thresholds` value.
    pub threshold_trajectories: Vec<Vec<ThresholdStep>>,
    /// Total network messages.
    pub net_messages: u64,
    /// Cycles messages spent queued at network input ports.
    pub net_queued_cycles: Cycles,
    /// Observability digest: present when the run was traced (via
    /// `simulate_measured_streamed`), `None` for untraced runs.
    pub obs: Option<Summary>,
    /// Metrics digest (latency percentiles + event counters): present
    /// when the run was measured (`simulate_measured_streamed`), `None`
    /// otherwise.
    /// Integer-only and deterministic, so it compares exactly across job
    /// counts and is what `bench diff` consumes.
    pub metrics: Option<MetricsDigest>,
    /// Auto-tuner summary (decision counts, per-node phase dwell, knob
    /// trajectories): present iff `SimConfig::controller.enabled`.
    /// Integer-only and deterministic across job counts.
    pub controller: Option<ControllerSummary>,
}

impl RunResult {
    /// Fraction of Table 6's remote pages that were relocated.
    pub fn relocated_fraction(&self) -> f64 {
        if self.remote_page_node_pairs == 0 {
            0.0
        } else {
            self.relocated_page_node_pairs as f64 / self.remote_page_node_pairs as f64
        }
    }

    /// Execution time relative to a baseline run (the paper's left-column
    /// normalization: "execution time ... relative to CC-NUMA").
    pub fn relative_to(&self, baseline: &RunResult) -> f64 {
        self.cycles as f64 / baseline.cycles.max(1) as f64
    }

    /// The `K-OVERHD` share of total executed cycles.
    pub fn kernel_overhead_fraction(&self) -> f64 {
        let t = self.exec.total().max(1);
        self.exec.k_overhd as f64 / t as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(cycles: Cycles) -> RunResult {
        RunResult {
            arch: Arch::CcNuma,
            workload: "x".into(),
            pressure: 0.5,
            cycles,
            exec: ExecBreakdown {
                u_sh_mem: 10,
                k_base: 10,
                k_overhd: 30,
                u_instr: 40,
                u_lc_mem: 5,
                sync: 5,
            },
            exec_per_node: vec![],
            miss: MissBreakdown::default(),
            latency: MissLatency::default(),
            kernel: KernelStats::default(),
            proto: ProtoStats::default(),
            remote_page_node_pairs: 10,
            relocated_page_node_pairs: 4,
            final_thresholds: vec![],
            threshold_trajectories: vec![],
            net_messages: 0,
            net_queued_cycles: 0,
            obs: None,
            metrics: None,
            controller: None,
        }
    }

    #[test]
    fn relative_and_fractions() {
        let a = dummy(200);
        let b = dummy(100);
        assert!((a.relative_to(&b) - 2.0).abs() < 1e-12);
        assert!((a.relocated_fraction() - 0.4).abs() < 1e-12);
        assert!((a.kernel_overhead_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let mut a = dummy(0);
        a.remote_page_node_pairs = 0;
        assert_eq!(a.relocated_fraction(), 0.0);
        let b = dummy(0);
        let _ = a.relative_to(&b);
    }
}
