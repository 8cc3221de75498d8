//! Named configurations: the paper machine and useful variants.
//!
//! Every preset is a plain [`SimConfig`] value — start from one and
//! override fields for custom studies.
//!
//! ```
//! use ascoma::presets;
//! let cfg = presets::paper(0.5);
//! assert_eq!(cfg.rac_bytes, 512);
//! ```

use crate::config::SimConfig;

/// The paper's machine (DESIGN.md §4 calibration) at the given memory
/// pressure.  Identical to `SimConfig::at_pressure`.
pub fn paper(pressure: f64) -> SimConfig {
    SimConfig::at_pressure(pressure)
}

/// A fast-interconnect variant: roughly the high-end-server ratio the
/// paper's introduction cites ("these efforts can reduce the ratio of
/// remote to local memory latency to as low as ~2, but they require
/// expensive hardware").  Halves the network and directory latencies.
pub fn fast_interconnect(pressure: f64) -> SimConfig {
    let mut cfg = paper(pressure);
    cfg.net.link_propagation = 1;
    cfg.net.fall_through = 2;
    cfg.net.ni_cycles = 4;
    cfg.mem.dir_lookup = 12;
    cfg.mem.dsm_occupancy = 8;
    cfg
}

/// Testing preset: paper machine with machine-wide invariant checking on.
pub fn checked(pressure: f64) -> SimConfig {
    SimConfig {
        check_invariants: true,
        ..paper(pressure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyParams;
    use crate::machine::simulate;
    use crate::Arch;
    use ascoma_vm::KernelCosts;
    use ascoma_workloads::{App, SizeClass};

    #[test]
    fn all_presets_validate() {
        for cfg in [paper(0.5), fast_interconnect(0.5), checked(0.5)] {
            cfg.validate();
        }
    }

    #[test]
    fn fast_interconnect_shrinks_remote_latency() {
        use crate::probe::probe_table4;
        let base = probe_table4(&paper(0.5));
        let fast = probe_table4(&fast_interconnect(0.5));
        assert!(fast.remote_memory < base.remote_memory * 0.85);
        assert!(fast.remote_local_ratio() < base.remote_local_ratio());
    }

    /// Unoptimized remapping paths, roughly a stock kernel at 4x the
    /// paper's "highly optimized" costs, widen every thrashing effect.
    #[test]
    fn slow_kernel_widens_thrashing_penalty() {
        let t = App::Radix.build(SizeClass::Tiny, 4096);
        let base = simulate(&t, Arch::Scoma, &paper(0.9));
        let k = KernelCosts::default();
        let slow_kernel = SimConfig {
            kernel: KernelCosts {
                relocation_interrupt: k.relocation_interrupt * 4,
                remap: k.remap * 4,
                flush_per_block: k.flush_per_block * 4,
                daemon_context_switch: k.daemon_context_switch * 4,
                ..k
            },
            ..paper(0.9)
        };
        let slow = simulate(&t, Arch::Scoma, &slow_kernel);
        assert!(slow.exec.k_overhd > base.exec.k_overhd * 2);
    }

    /// Half the relocation threshold: the "too low → thrashing" end of
    /// the paper's tradeoff.
    #[test]
    fn eager_relocation_relocates_sooner() {
        let t = App::Radix.build(SizeClass::Tiny, 4096);
        let base = simulate(&t, Arch::RNuma, &paper(0.5));
        let eager_relocation = SimConfig {
            policy: PolicyParams {
                initial_threshold: 32,
                ..PolicyParams::default()
            },
            ..paper(0.5)
        };
        let eager = simulate(&t, Arch::RNuma, &eager_relocation);
        assert!(eager.kernel.upgrades >= base.kernel.upgrades);
    }
}
