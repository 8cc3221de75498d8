//! The kernel cost model: cycle charges for VM operations.
//!
//! The paper's central finding is that "the effect of [software overhead]
//! can be dramatic" — the `K-OVERHD` component of the execution-time
//! breakdown is what sinks R-NUMA and VC-NUMA at high memory pressure.
//! These constants are the per-operation charges; DESIGN.md §4 records the
//! calibration of the OCR-degraded values ("our interrupt and relocation
//! operations are highly optimized, requiring only ~#### and ~#### cycles,
//! respectively").
//!
//! Charges fall into two buckets matching the paper's stacks:
//!
//! * `K-BASE` — work every architecture does: first-touch page faults.
//! * `K-OVERHD` — architecture-specific work: relocation interrupts,
//!   flushes, remaps, and pageout-daemon execution (context switches and
//!   per-page scanning).

use ascoma_sim::Cycles;

/// Cycle costs of kernel operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCosts {
    /// First-touch page fault: establish a mapping (any mode). `K-BASE`.
    pub page_fault: Cycles,
    /// Software TLB fill (the modeled PA-RISC fills its TLB in a kernel
    /// handler). `K-BASE`.
    pub tlb_fill: Cycles,
    /// Relocation interrupt delivery + handler entry/exit (`K-OVERHD`).
    pub relocation_interrupt: Cycles,
    /// Page remap: page-table + DSM-engine update, TLB shootdown of one
    /// entry (`K-OVERHD`).
    pub remap: Cycles,
    /// Flushing one valid DSM block from the processor cache(s) during a
    /// remap (`K-OVERHD`); total flush cost scales with residency.
    pub flush_per_block: Cycles,
    /// Context switch to/from the pageout daemon (charged once per daemon
    /// run; `K-OVERHD`).
    pub daemon_context_switch: Cycles,
    /// Pageout daemon work per page examined (`K-OVERHD`).
    pub daemon_per_page: Cycles,
    /// Minimum cycles between pageout-daemon invocations (the daemon's
    /// initial period; AS-COMA's back-off doubles it under thrash).
    pub daemon_period: Cycles,
    /// Barrier entry/exit cost charged to every participant.
    pub barrier_cost: Cycles,
}

impl Default for KernelCosts {
    fn default() -> Self {
        Self {
            page_fault: 500,
            tlb_fill: 36,
            relocation_interrupt: 1500,
            remap: 2500,
            flush_per_block: 48,
            daemon_context_switch: 800,
            daemon_per_page: 120,
            daemon_period: 1_000_000,
            barrier_cost: 100,
        }
    }
}

impl KernelCosts {
    /// Total `K-OVERHD` charge for one daemon run that examined
    /// `examined` pages.
    pub fn daemon_cost(&self, examined: u32) -> Cycles {
        self.daemon_context_switch + self.daemon_per_page * examined as Cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_cost_scales_with_examined() {
        let c = KernelCosts::default();
        assert_eq!(c.daemon_cost(0), 800);
        assert_eq!(c.daemon_cost(10), 800 + 1200);
    }

    #[test]
    fn defaults_match_design_calibration() {
        let c = KernelCosts::default();
        // Interrupt and relocation in the paper are 4-digit cycle counts.
        assert!((1000..10_000).contains(&c.relocation_interrupt));
        assert!((1000..10_000).contains(&c.remap));
    }
}
