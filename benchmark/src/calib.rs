//! Host-speed calibration.
//!
//! This benchmark runs on shared machines whose speed drifts by 20–30%
//! over minutes as neighbours come and go, far more than the regressions
//! the bounds must catch.  A fixed kernel owned by the benchmark (it
//! never changes with the simulator) runs before every cell: random
//! read-modify-writes over a 1 MiB table and then over an 8 MiB table,
//! bound by cache and memory latency like the simulator's own directory,
//! page-table and cache lookups.  Each pass's host times are scaled by
//! [`REFERENCE_S`] over the median kernel time of that pass, giving
//! seconds on a host where the kernel takes exactly [`REFERENCE_S`] (the
//! quiet 2-core reference container).
//!
//! There the 1 MiB walk alone tracked em3d-local best (pass-time spread
//! over eight processes 8% raw, 2.3–2.8% scaled) and the 8 MiB walk alone
//! tracked remote-thrash best (run-level spread 4.9% raw, 3.0% scaled);
//! the two together scaled both to 3.2–4.0% and 3.4%.

use crate::spans::Spans;
use crate::stats::median;
use ascoma_bench::pacing::Clock;
use std::hint::black_box;

/// Kernel time on the reference host, seconds.
pub const REFERENCE_S: f64 = 0.017;
/// Iterations per table per sample.
const ITERS: u64 = 2_500_000;

/// The calibration kernel and its tables.
#[derive(Debug)]
pub struct Calibrator {
    /// 1 MiB and 8 MiB of `u64` words.
    tables: [Vec<u64>; 2],
}

impl Calibrator {
    /// Allocate and touch the tables, then run the kernel once untimed.
    pub fn new() -> Self {
        let mut c = Self {
            tables: [vec![1; 1 << 17], vec![1; 1 << 20]],
        };
        c.run();
        c
    }

    fn run(&mut self) {
        for t in &mut self.tables {
            black_box(kernel(t, ITERS));
        }
    }

    /// Time one kernel run under a `calibrate` span; seconds.
    pub fn sample(&mut self, spans: &mut Spans) -> f64 {
        let id = spans.begin("calibrate");
        let clock = Clock::start();
        self.run();
        let secs = clock.elapsed_secs();
        spans.end(id);
        secs
    }
}

/// The factor that turns host seconds measured alongside `samples`
/// into reference-host seconds.
pub fn factor(samples: &[f64]) -> f64 {
    let m = median(samples);
    if m > 0.0 {
        REFERENCE_S / m
    } else {
        1.0
    }
}

/// Random read-modify-write walk over `table` (length a power of two).
fn kernel(table: &mut [u64], iters: u64) -> u64 {
    let mask = table.len() as u64 - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x & mask) as usize;
        acc = acc.wrapping_add(table[i]);
        table[i] = acc;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference() {
        assert!((factor(&[REFERENCE_S / 2.0; 3]) - 2.0).abs() < 1e-12);
        assert_eq!(factor(&[]), 1.0);
        let mut spans = Spans::new();
        let mut c = Calibrator::new();
        assert!(c.sample(&mut spans) > 0.0);
        assert_eq!(spans.all().len(), 1);
    }
}
