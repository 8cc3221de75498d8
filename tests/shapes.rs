//! Shape validation: the paper's headline claims, asserted against the
//! simulator (DESIGN.md §10).  These are the load-bearing results of
//! Figures 2–3 — who wins, by roughly what factor, and where the
//! crossovers fall — not absolute cycle counts.

use ascoma::machine::simulate;
use ascoma::{Arch, SimConfig};
use ascoma_workloads::{App, SizeClass};

fn run(app: App, arch: Arch, pressure: f64) -> ascoma::RunResult {
    let cfg = SimConfig::at_pressure(pressure);
    let trace = app.build(SizeClass::Default, cfg.geometry.page_bytes());
    simulate(&trace, arch, &cfg)
}

fn rel(app: App, arch: Arch, pressure: f64) -> f64 {
    let base = run(app, Arch::CcNuma, pressure);
    run(app, arch, pressure).relative_to(&base)
}

/// Claim 1: at low pressure, S-COMA and AS-COMA are the best
/// architectures on the thrash-sensitive applications, beating CC-NUMA
/// clearly.
#[test]
fn scoma_and_ascoma_win_at_low_pressure() {
    for app in [App::Barnes, App::Radix] {
        let s = rel(app, Arch::Scoma, 0.1);
        let a = rel(app, Arch::AsComa, 0.1);
        assert!(s < 0.85, "{}: S-COMA {s} not clearly ahead", app.name());
        assert!(a < 0.85, "{}: AS-COMA {a} not clearly ahead", app.name());
        // AS-COMA matches pure S-COMA at low pressure.
        assert!(
            (a / s - 1.0).abs() < 0.05,
            "{}: AS-COMA {a} != S-COMA {s} at 10%",
            app.name()
        );
    }
}

/// Claim 2: pure S-COMA craters at high memory pressure on the
/// thrash-sensitive applications, with kernel overhead dominating.
#[test]
fn scoma_thrashes_at_high_pressure() {
    for app in [App::Em3d, App::Radix, App::Barnes] {
        let r = run(app, Arch::Scoma, 0.9);
        let base = run(app, Arch::CcNuma, 0.9);
        let relative = r.relative_to(&base);
        assert!(
            relative > 1.5,
            "{}: S-COMA at 90% only {relative}x CC-NUMA",
            app.name()
        );
        assert!(
            r.exec.k_overhd > base.exec.k_overhd * 10,
            "{}: S-COMA thrash must be kernel-overhead-driven",
            app.name()
        );
    }
}

/// Claim 3: R-NUMA falls below CC-NUMA at high pressure on the
/// thrash-sensitive applications — *even though* its remote
/// conflict/capacity misses are no worse — because of kernel overhead
/// and induced cold misses (the paper's key observation).
#[test]
fn rnuma_below_ccnuma_at_high_pressure() {
    for app in [App::Radix, App::Barnes] {
        let r = run(app, Arch::RNuma, 0.9);
        let base = run(app, Arch::CcNuma, 0.9);
        assert!(
            r.relative_to(&base) > 1.02,
            "{}: R-NUMA at 90% should lose to CC-NUMA, got {}",
            app.name(),
            r.relative_to(&base)
        );
        assert!(
            r.exec.k_overhd > base.exec.k_overhd,
            "{}: R-NUMA's loss must come with kernel overhead",
            app.name()
        );
        assert!(
            r.miss.cold_induced > 0,
            "{}: R-NUMA churn must induce cold misses",
            app.name()
        );
    }
}

/// Claim 4: AS-COMA stays within a few percent of CC-NUMA even at 90%
/// pressure on every application, and beats the other hybrids there.
#[test]
fn ascoma_converges_to_ccnuma_at_high_pressure() {
    for app in App::ALL {
        let a = rel(app, Arch::AsComa, 0.9);
        assert!(
            a < 1.06,
            "{}: AS-COMA at 90% is {a}x CC-NUMA (paper bound: ~1.05)",
            app.name()
        );
    }
    for app in [App::Radix, App::Barnes] {
        let a = rel(app, Arch::AsComa, 0.9);
        let r = rel(app, Arch::RNuma, 0.9);
        assert!(
            r > a + 0.03,
            "{}: AS-COMA ({a}) must clearly beat R-NUMA ({r}) at 90%",
            app.name()
        );
    }
}

/// Claim 5: VC-NUMA's hardware back-off lands between R-NUMA and AS-COMA
/// at high pressure.
#[test]
fn vcnuma_sits_between_rnuma_and_ascoma() {
    for app in [App::Radix, App::Barnes] {
        let a = rel(app, Arch::AsComa, 0.9);
        let v = rel(app, Arch::VcNuma, 0.9);
        let r = rel(app, Arch::RNuma, 0.9);
        assert!(
            v <= r + 0.01,
            "{}: VC-NUMA ({v}) should not lose to R-NUMA ({r})",
            app.name()
        );
        assert!(
            v >= a - 0.01,
            "{}: VC-NUMA ({v}) should not beat AS-COMA ({a})",
            app.name()
        );
    }
}

/// Claim 6: fft and ocean are insensitive — every architecture within a
/// few percent of CC-NUMA at every pressure except pure S-COMA at high
/// pressure.
#[test]
fn fft_and_ocean_are_insensitive() {
    for app in [App::Fft, App::Ocean] {
        for arch in [Arch::AsComa, Arch::VcNuma, Arch::RNuma] {
            for p in [0.1, 0.9] {
                let x = rel(app, arch, p);
                assert!(
                    (0.9..1.1).contains(&x),
                    "{} {} at {p}: {x} outside the insensitive band",
                    app.name(),
                    arch.name()
                );
            }
        }
        // S-COMA's high-pressure penalty still shows.
        let s = rel(app, Arch::Scoma, 0.9);
        assert!(
            s > 1.08,
            "{}: S-COMA at 90% should degrade, got {s}",
            app.name()
        );
    }
}

/// Claim 7: lu's moving working set lets every hybrid (and S-COMA) beat
/// CC-NUMA at all pressures.
#[test]
fn lu_hybrids_beat_ccnuma_at_all_pressures() {
    for arch in [Arch::Scoma, Arch::AsComa, Arch::VcNuma, Arch::RNuma] {
        for p in [0.1, 0.5, 0.9] {
            let x = rel(App::Lu, arch, p);
            assert!(
                x < 1.0,
                "lu {} at {p}: {x} should beat CC-NUMA",
                arch.name()
            );
        }
    }
}

/// Claim 8: AS-COMA's initial-allocation advantage over R-NUMA at low
/// pressure is largest on radix (the paper's 37% number).
#[test]
fn ascoma_beats_rnuma_most_on_radix_at_low_pressure() {
    let gains: Vec<(App, f64)> = [App::Radix, App::Fft, App::Ocean]
        .into_iter()
        .map(|app| {
            let a = rel(app, Arch::AsComa, 0.1);
            let r = rel(app, Arch::RNuma, 0.1);
            (app, r / a - 1.0)
        })
        .collect();
    let radix_gain = gains[0].1;
    assert!(
        radix_gain > 0.25,
        "radix gain {radix_gain} should be large (paper: 37%)"
    );
    for (app, g) in &gains[1..] {
        assert!(
            *g < radix_gain,
            "{}: gain {g} should be below radix's {radix_gain}",
            app.name()
        );
    }
}

/// Table 6 shape: radix and barnes relocate (nearly) everything under
/// R-NUMA at 10% pressure; fft and ocean relocate (nearly) nothing.
#[test]
fn table6_relocation_census_shape() {
    use ascoma::experiments::{run_cells, table6_cell};
    let cfg = SimConfig::default();
    let traces =
        [App::Radix, App::Fft].map(|a| a.build(SizeClass::Default, cfg.geometry.page_bytes()));
    let cells: Vec<_> = traces.iter().map(|t| table6_cell(t, &cfg)).collect();
    let runs = run_cells(&cells, 2, None);
    let (hot, cold) = (runs[0].relocated_fraction(), runs[1].relocated_fraction());
    assert!(hot > 0.9, "radix relocated fraction {hot} (paper: ~94%)");
    assert!(cold < 0.05, "fft relocated fraction {cold} (paper: <1%)");
}
