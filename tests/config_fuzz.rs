//! Seeded configuration fuzzer: every `SimConfig` must either be
//! rejected up front by `SimConfig::validate` or run to completion with
//! the invariant catalog checked (`check_invariants`).  A panic anywhere
//! inside `Machine` is a validation gap.
//!
//! Draws come from the vendored `SimRng`, so a failure names a draw
//! index that reproduces exactly.  They lean on the edges: pressure just
//! above the 0.001 floor, far below it and at 1, no RAC, equal pageout
//! watermarks (including 0 and 1), and extreme policy and daemon
//! constants, over every architecture and every Tiny trace.

use ascoma::{simulate, Arch, SimConfig};
use ascoma_sim::rng::SimRng;
use ascoma_workloads::{App, SizeClass};
use std::panic::{catch_unwind, AssertUnwindSafe};

const DRAWS: usize = 600;
const SEED: u64 = 0xC0F1_6F22;

fn pick<T: Copy>(rng: &mut SimRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

fn draw(rng: &mut SimRng) -> SimConfig {
    let mut cfg = SimConfig {
        check_invariants: true,
        ..SimConfig::default()
    };
    cfg.pressure = match rng.below(4) {
        0 => 0.001 + 0.009 * rng.unit(),
        1 => 1.0,
        // A billion frames per home page: must be rejected before the
        // frame pools are sized.
        2 => 1e-9,
        _ => 0.05 + 0.95 * rng.unit(),
    };
    cfg.rac_bytes = pick(rng, &[0, 0, 512, 512, 8192, 192]);
    let (lo, hi) = match rng.below(4) {
        0 => (0.0, 0.0),
        1 => (1.0, 1.0),
        2 => {
            let f = rng.unit();
            (f, f)
        }
        // Either order: a low mark above the high one must be rejected.
        _ => (rng.unit() * 0.2, rng.unit() * 0.2),
    };
    cfg.free_min_frac = lo;
    cfg.free_target_frac = hi;
    let p = &mut cfg.policy;
    p.initial_threshold = pick(rng, &[0, 1, 2, 64, 1024, u32::MAX]);
    p.threshold_increment = pick(rng, &[0, 1, 32, u32::MAX]);
    // Mostly at or above the initial threshold (a cap below it must be
    // rejected), with the cap == initial edge drawn as often as any.
    p.threshold_cap = if rng.chance(0.25) {
        pick(rng, &[0, 1, 32, 1024, u32::MAX])
    } else {
        p.initial_threshold
            .saturating_add(pick(rng, &[0, 1, 32, 1024, u32::MAX]))
    };
    p.vc_break_even = pick(rng, &[0, 1, 32, u32::MAX]);
    cfg.kernel.daemon_period = pick(rng, &[0, 1, 10_000, cfg.kernel.daemon_period, u64::MAX]);
    cfg
}

#[test]
fn every_drawn_config_is_rejected_or_runs_clean() {
    let page_bytes = SimConfig::default().geometry.page_bytes();
    let traces: Vec<_> = App::ALL
        .iter()
        .map(|app| app.build(SizeClass::Tiny, page_bytes))
        .collect();
    let mut rng = SimRng::seed_from(SEED);
    let (mut rejected, mut completed, mut below_floor) = (0usize, 0usize, 0usize);
    let mut failures = Vec::new();
    for i in 0..DRAWS {
        let cfg = draw(&mut rng);
        let arch = Arch::ALL[i % Arch::ALL.len()];
        let app = (i / Arch::ALL.len()) % App::ALL.len();
        let valid = catch_unwind(|| cfg.validate()).is_ok();
        if cfg.pressure < SimConfig::MIN_PRESSURE {
            assert!(
                !valid,
                "draw {i}: pressure {} passed validate",
                cfg.pressure
            );
            below_floor += 1;
        }
        if !valid {
            rejected += 1;
            continue;
        }
        match catch_unwind(AssertUnwindSafe(|| simulate(&traces[app], arch, &cfg))) {
            Ok(_) => completed += 1,
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                failures.push(format!(
                    "draw {i}: {} {}: {msg}\n  {cfg:?}",
                    App::ALL[app].name(),
                    arch.name()
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {DRAWS} configs passed validate but panicked inside Machine:\n{}",
        failures.len(),
        failures.join("\n")
    );
    // Neither outcome may be vacuous.
    assert!(rejected > 0, "no draw exercised validate's rejections");
    assert!(completed > 0, "no draw ran to completion");
    assert!(below_floor > 0, "no draw fell below the pressure floor");
}
