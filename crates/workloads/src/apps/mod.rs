//! The six benchmark generators of the paper's evaluation: barnes, em3d,
//! fft, lu, ocean, and radix (SPLASH-2 + Split-C em3d).

pub mod barnes;
pub mod em3d;
pub mod fft;
pub mod lu;
pub mod micro;
pub mod ocean;
pub mod radix;

use crate::trace::Trace;

/// The six applications of the paper's Table 5, plus a size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Barnes-Hut N-body (SPLASH-2).
    Barnes,
    /// Electromagnetic 3D (Split-C).
    Em3d,
    /// Six-step FFT (SPLASH-2).
    Fft,
    /// Blocked LU factorization (SPLASH-2; 4 nodes).
    Lu,
    /// Ocean current simulation (SPLASH-2).
    Ocean,
    /// Radix sort (SPLASH-2).
    Radix,
}

impl App {
    /// All six applications, in the paper's presentation order.
    pub const ALL: [App; 6] = [
        App::Barnes,
        App::Em3d,
        App::Fft,
        App::Lu,
        App::Ocean,
        App::Radix,
    ];

    /// Benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            App::Barnes => "barnes",
            App::Em3d => "em3d",
            App::Fft => "fft",
            App::Lu => "lu",
            App::Ocean => "ocean",
            App::Radix => "radix",
        }
    }

    /// Parse a name (as printed by [`App::name`]).
    pub fn parse(s: &str) -> Option<App> {
        App::ALL.iter().copied().find(|a| a.name() == s)
    }

    /// Build the workload at the given size class.
    ///
    /// ```
    /// use ascoma_workloads::{App, SizeClass};
    /// let trace = App::Radix.build(SizeClass::Tiny, 4096);
    /// trace.validate(4096);
    /// assert_eq!(trace.name, "radix");
    /// ```
    pub fn build(self, size: SizeClass, page_bytes: u64) -> Trace {
        match (self, size) {
            (App::Barnes, SizeClass::Tiny) => barnes::BarnesParams::tiny().build(page_bytes),
            (App::Barnes, SizeClass::Default) => barnes::BarnesParams::default().build(page_bytes),
            (App::Barnes, SizeClass::Paper) => barnes::BarnesParams::paper().build(page_bytes),
            (App::Em3d, SizeClass::Tiny) => em3d::Em3dParams::tiny().build(page_bytes),
            (App::Em3d, SizeClass::Default) => em3d::Em3dParams::default().build(page_bytes),
            (App::Em3d, SizeClass::Paper) => em3d::Em3dParams::paper().build(page_bytes),
            (App::Fft, SizeClass::Tiny) => fft::FftParams::tiny().build(page_bytes),
            (App::Fft, SizeClass::Default) => fft::FftParams::default().build(page_bytes),
            (App::Fft, SizeClass::Paper) => fft::FftParams::paper().build(page_bytes),
            (App::Lu, SizeClass::Tiny) => lu::LuParams::tiny().build(page_bytes),
            (App::Lu, SizeClass::Default) => lu::LuParams::default().build(page_bytes),
            (App::Lu, SizeClass::Paper) => lu::LuParams::paper().build(page_bytes),
            (App::Ocean, SizeClass::Tiny) => ocean::OceanParams::tiny().build(page_bytes),
            (App::Ocean, SizeClass::Default) => ocean::OceanParams::default().build(page_bytes),
            (App::Ocean, SizeClass::Paper) => ocean::OceanParams::paper().build(page_bytes),
            (App::Radix, SizeClass::Tiny) => radix::RadixParams::tiny().build(page_bytes),
            (App::Radix, SizeClass::Default) => radix::RadixParams::default().build(page_bytes),
            (App::Radix, SizeClass::Paper) => radix::RadixParams::paper().build(page_bytes),
        }
    }
}

/// Problem-size class for a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Minutes-of-CI scale: unit/integration tests.
    Tiny,
    /// Seconds-per-run scale preserving the paper's page-level shape:
    /// the default for tables, figures and examples.
    Default,
    /// Closest to the paper's published input sizes.
    Paper,
}

impl SizeClass {
    /// Every size class, smallest first.
    pub const ALL: [SizeClass; 3] = [SizeClass::Tiny, SizeClass::Default, SizeClass::Paper];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Tiny => "tiny",
            SizeClass::Default => "default",
            SizeClass::Paper => "paper",
        }
    }

    /// Parse a name (as printed by [`SizeClass::name`]).
    pub fn parse(s: &str) -> Option<SizeClass> {
        SizeClass::ALL.iter().copied().find(|c| c.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_build_tiny_valid_traces() {
        for app in App::ALL {
            let t = app.build(SizeClass::Tiny, 4096);
            t.validate(4096);
            assert_eq!(t.name, app.name());
            assert!(t.total_ops() > 0, "{} produced no ops", app.name());
        }
    }

    #[test]
    fn parse_roundtrip() {
        for app in App::ALL {
            assert_eq!(App::parse(app.name()), Some(app));
        }
        assert_eq!(App::parse("nope"), None);
    }

    #[test]
    fn size_class_parse_roundtrip() {
        for size in SizeClass::ALL {
            assert_eq!(SizeClass::parse(size.name()), Some(size));
        }
        assert_eq!(SizeClass::parse("huge"), None);
        assert_eq!(SizeClass::parse("Tiny"), None);
    }

    #[test]
    fn lu_runs_on_four_nodes_others_on_eight() {
        assert_eq!(App::Lu.build(SizeClass::Default, 4096).nodes, 4);
        for app in [App::Barnes, App::Em3d, App::Fft, App::Ocean, App::Radix] {
            assert_eq!(app.build(SizeClass::Default, 4096).nodes, 8);
        }
    }
}
