//! Simulation configuration: the machine of the paper's Section 4.
//!
//! Every hardware latency, kernel cost, and policy constant is a field
//! here so the ablation benches can sweep them.  Defaults reproduce the
//! paper's configuration as calibrated in DESIGN.md §4 (the OCR of the
//! original leaves several digits unreadable; each such value is marked
//! there).

use ascoma_mem::timing::MemTimings;
use ascoma_net::NetTimings;
use ascoma_obs::ControllerParams;
use ascoma_sim::addr::Geometry;
use ascoma_sim::Cycles;
use ascoma_vm::KernelCosts;

/// The five memory architectures under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Plain CC-NUMA with a RAC; never remaps pages.
    CcNuma,
    /// Pure S-COMA: every remote page must be backed by a local frame.
    Scoma,
    /// Wisconsin reactive NUMA: CC-NUMA-first, fixed relocation threshold,
    /// no back-off.
    RNuma,
    /// USC victim-cache NUMA's *relocation strategy*: CC-NUMA-first with a
    /// hardware thrashing detector (break-even evaluation every 2
    /// replacements per cached page).  As in the paper, the victim-cache
    /// hardware itself is not modeled.
    VcNuma,
    /// This paper: adaptive S-COMA — S-COMA-first allocation plus
    /// software back-off driven by pageout-daemon failure.
    AsComa,
}

impl Arch {
    /// All five architectures in the paper's chart order.
    pub const ALL: [Arch; 5] = [
        Arch::CcNuma,
        Arch::Scoma,
        Arch::AsComa,
        Arch::VcNuma,
        Arch::RNuma,
    ];

    /// Display name matching the paper's charts.
    pub fn name(self) -> &'static str {
        match self {
            Arch::CcNuma => "CCNUMA",
            Arch::Scoma => "SCOMA",
            Arch::RNuma => "RNUMA",
            Arch::VcNuma => "VCNUMA",
            Arch::AsComa => "ASCOMA",
        }
    }

    /// Parse a name as printed by [`Arch::name`] (case-insensitive).
    pub fn parse(s: &str) -> Option<Arch> {
        let u = s.to_ascii_uppercase();
        Arch::ALL.iter().copied().find(|a| a.name() == u)
    }

    /// Whether this architecture ever relocates pages CC-NUMA -> S-COMA.
    pub fn relocates(self) -> bool {
        matches!(self, Arch::RNuma | Arch::VcNuma | Arch::AsComa)
    }

    /// Whether execution is independent of memory pressure (CC-NUMA only;
    /// the paper plots a single CC-NUMA bar for this reason).
    pub fn pressure_independent(self) -> bool {
        self == Arch::CcNuma
    }
}

/// Relocation-policy constants shared by the three hybrids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyParams {
    /// Initial refetch threshold that triggers relocation (paper: 64,
    /// "used in all three hybrid architectures").
    pub initial_threshold: u32,
    /// Amount thresholds are raised on thrash detection ("incremented by
    /// 32 whenever thrashing is detected by AS-COMA's software scheme or
    /// by VC-NUMA's hardware scheme").
    pub threshold_increment: u32,
    /// Above this, AS-COMA disables relocation entirely ("under extreme
    /// circumstances, AS-COMA goes so far as to disable CC-NUMA ->
    /// S-COMA remappings entirely").
    pub threshold_cap: u32,
    /// VC-NUMA's break-even number of absorbed refetches per relocation.
    pub vc_break_even: u32,
    /// AS-COMA: if false, disables the back-off scheme (ablation).
    pub ascoma_backoff: bool,
    /// AS-COMA: if false, allocate CC-NUMA-first like R-NUMA (ablation of
    /// the S-COMA-preferred initial allocation).
    pub ascoma_scoma_first: bool,
    /// CC-NUMA extension (paper §2.2): replicate never-written remote
    /// pages into local frames; the first write to such a page collapses
    /// every replica back to a CC-NUMA mapping.  Off by default.
    pub replicate_read_only: bool,
}

impl Default for PolicyParams {
    fn default() -> Self {
        Self {
            initial_threshold: 64,
            threshold_increment: 32,
            threshold_cap: 1024,
            vc_break_even: 32,
            ascoma_backoff: true,
            ascoma_scoma_first: true,
            replicate_read_only: false,
        }
    }
}

/// Full machine + kernel + policy configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Page / DSM-block / cache-line geometry.
    pub geometry: Geometry,
    /// Node-local hardware timings.
    pub mem: MemTimings,
    /// Interconnect timings.
    pub net: NetTimings,
    /// Kernel operation costs.
    pub kernel: KernelCosts,
    /// L1 size in bytes (paper: 8 KB).
    pub l1_bytes: u64,
    /// L1 associativity (paper: 1, direct-mapped).
    pub l1_ways: usize,
    /// RAC size in bytes (paper: 512; 0 disables the RAC).
    pub rac_bytes: u64,
    /// Memory pressure: home pages / total frames per node, in
    /// [[`SimConfig::MIN_PRESSURE`], 1].
    pub pressure: f64,
    /// Pageout low water mark as a fraction of total frames.
    pub free_min_frac: f64,
    /// Pageout high water mark as a fraction of total frames.
    pub free_target_frac: f64,
    /// Relocation-policy constants.
    pub policy: PolicyParams,
    /// Observability sampler period in cycles: every `obs_sample_period`
    /// cycles of global simulated time the machine emits per-node
    /// time-series samples (free-pool level, threshold, miss breakdown,
    /// network backlog) to the attached sink.  `0` disables sampling.
    /// Ignored entirely when the sink is the no-op sink.
    pub obs_sample_period: Cycles,
    /// Check machine-wide coherence/accounting invariants at every
    /// barrier and at end of run (slow; for tests).
    pub check_invariants: bool,
    /// Online auto-tuner for the back-off policy knobs.  Disabled by
    /// default: with `controller.enabled == false` the simulation is
    /// byte-identical to one run without the controller compiled in.
    /// Unlike `obs_sample_period`, the controller is *not* gated on the
    /// sink — it changes behavior, so it runs (deterministically) even
    /// under the no-op sink; only its event emissions are sink-gated.
    pub controller: ControllerParams,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            geometry: Geometry::paper(),
            mem: MemTimings::default(),
            net: NetTimings::default(),
            kernel: KernelCosts::default(),
            l1_bytes: 8 * 1024,
            l1_ways: 1,
            rac_bytes: 512,
            pressure: 0.5,
            free_min_frac: 0.02,
            free_target_frac: 0.07,
            policy: PolicyParams::default(),
            obs_sample_period: 0,
            check_invariants: false,
            controller: ControllerParams::default(),
        }
    }
}

impl SimConfig {
    /// The lowest pressure [`Self::validate`] accepts: at most 1,000
    /// frames per home page.  Each node allocates `home_pages / pressure`
    /// frames up front, so lower pressures cost memory tenfold per decade
    /// without changing what the run shows.
    pub const MIN_PRESSURE: f64 = 0.001;

    /// The paper's configuration at a given memory pressure.
    pub fn at_pressure(pressure: f64) -> Self {
        assert!(pressure > 0.0 && pressure <= 1.0);
        Self {
            pressure,
            ..Self::default()
        }
    }

    /// Sanity-check cross-field invariants.
    pub fn validate(&self) {
        assert!(
            self.pressure >= Self::MIN_PRESSURE,
            "pressure must be at least 0.001 (1,000 frames per home page)"
        );
        assert!(self.pressure <= 1.0, "pressure must be at most 1");
        assert!(self.free_min_frac <= self.free_target_frac);
        assert!(
            self.l1_bytes.is_power_of_two(),
            "l1_bytes must be a power of two"
        );
        assert!(
            self.l1_ways.is_power_of_two(),
            "l1_ways must be a power of two"
        );
        assert!(
            self.l1_ways as u64 * self.geometry.line_bytes() <= self.l1_bytes,
            "l1_ways lines must fit in l1_bytes"
        );
        assert!(
            self.rac_bytes == 0 || self.rac_bytes >= self.geometry.block_bytes(),
            "RAC must fit at least one DSM block"
        );
        assert!(
            self.rac_bytes == 0 || self.rac_bytes.is_power_of_two(),
            "rac_bytes must be 0 or a power of two"
        );
        assert!(self.policy.initial_threshold >= 1);
        // AS-COMA's back-off reads a threshold above the cap as
        // relocation latched off; starting there with relocation still
        // on breaks that latch (the `threshold-legality` invariant).
        assert!(
            self.policy.threshold_cap >= self.policy.initial_threshold,
            "policy.threshold_cap must be at least policy.initial_threshold"
        );
        self.controller.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimConfig::default().validate();
    }

    #[test]
    fn arch_names_roundtrip() {
        for a in Arch::ALL {
            assert_eq!(Arch::parse(a.name()), Some(a));
            assert_eq!(Arch::parse(&a.name().to_lowercase()), Some(a));
        }
        assert_eq!(Arch::parse("bogus"), None);
    }

    #[test]
    fn relocation_capability_by_arch() {
        assert!(!Arch::CcNuma.relocates());
        assert!(!Arch::Scoma.relocates());
        assert!(Arch::RNuma.relocates());
        assert!(Arch::VcNuma.relocates());
        assert!(Arch::AsComa.relocates());
    }

    #[test]
    #[should_panic]
    fn at_pressure_rejects_zero() {
        let _ = SimConfig::at_pressure(0.0);
    }

    #[test]
    #[should_panic(expected = "pressure must be at least 0.001")]
    fn machine_rejects_pressure_below_the_floor_before_sizing_frames() {
        // At 1e-9 the frame pools would ask for u32::MAX frames per node.
        let trace = ascoma_workloads::apps::em3d::Em3dParams::tiny().build(4096);
        let cfg = SimConfig {
            pressure: 1e-9,
            ..SimConfig::default()
        };
        crate::simulate(&trace, Arch::AsComa, &cfg);
    }

    #[test]
    fn pressure_at_the_floor_validates() {
        SimConfig::at_pressure(SimConfig::MIN_PRESSURE).validate();
    }

    #[test]
    #[should_panic(expected = "RAC must fit")]
    fn tiny_rac_rejected() {
        let cfg = SimConfig {
            rac_bytes: 64,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "policy.threshold_cap must be at least policy.initial_threshold")]
    fn threshold_above_cap_rejected() {
        let mut cfg = SimConfig::default();
        cfg.policy.initial_threshold = cfg.policy.threshold_cap + 1;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "rac_bytes must be 0 or a power of two")]
    fn non_power_of_two_rac_rejected() {
        let cfg = SimConfig {
            rac_bytes: 192,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "l1_ways lines must fit in l1_bytes")]
    fn more_l1_ways_than_lines_rejected() {
        let cfg = SimConfig {
            l1_ways: 512,
            ..SimConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn rac_zero_is_allowed_for_ablation() {
        let cfg = SimConfig {
            rac_bytes: 0,
            ..SimConfig::default()
        };
        cfg.validate();
    }
}
