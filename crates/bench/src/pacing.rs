//! Frame pacing for the live dashboard — the **only** module in the
//! workspace allowed to read wall-clock time or sleep.
//!
//! Simulation code must never observe the host clock (determinism), and
//! benchmark measurement has its own audited `Instant` sites
//! (`benches/obs_overhead.rs`, `benches/hotpath.rs`, `perf_baseline`).
//! Everything else that needs wall time — dashboard frame rates, tail
//! polling, elapsed/ETA stamps — goes through here, which is what lets
//! `clippy.toml` disallow `Instant::now` and `thread::sleep` globally
//! and `scripts/check.sh` audit the short list of exceptions.

use std::time::{Duration, Instant};

/// A wall-clock stopwatch for elapsed/ETA stamping.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// Start the stopwatch.
    // Audited wall-clock site: dashboard pacing only, never simulation.
    #[allow(clippy::disallowed_methods)]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Seconds since [`Clock::start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Sleep `ms` milliseconds (tail-polling backoff between render frames).
// Audited wall-clock site: dashboard pacing only, never simulation.
#[allow(clippy::disallowed_methods)]
pub fn sleep_ms(ms: u64) {
    std::thread::sleep(Duration::from_millis(ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_moves_forward() {
        let c = Clock::start();
        sleep_ms(1);
        assert!(c.elapsed_secs() > 0.0);
    }
}
