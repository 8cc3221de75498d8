//! The experiment registry end to end: every experiment that honours
//! `--size` runs at Tiny size and renders the same bytes whether its
//! cells run on one worker or three.

use ascoma_bench::experiments::REGISTRY;
use ascoma_bench::{Flag, Options};
use ascoma_workloads::SizeClass;

#[test]
fn sized_experiments_render_identically_at_one_and_three_jobs() {
    let sized: Vec<_> = REGISTRY
        .iter()
        .filter(|e| e.flags.iter().any(|f| matches!(f, Flag::Size(_))))
        .collect();
    assert_eq!(sized.len(), 10, "table1/5/6, figures and six ablations");
    for e in sized {
        let run = |jobs| {
            let o = Options {
                size: SizeClass::Tiny,
                jobs: Some(jobs),
                ..Options::defaults(e.flags)
            };
            (e.run)(&o)
        };
        let (serial, serial_code) = run(1);
        let (parallel, parallel_code) = run(3);
        assert!(!serial.trim().is_empty(), "{}: empty output", e.name);
        assert_eq!(serial, parallel, "{}: output depends on --jobs", e.name);
        assert_eq!(serial_code, parallel_code, "{}", e.name);
    }
}
