//! The banked main-memory controller of a node.
//!
//! The paper models "a 4-bank main memory controller that can supply data
//! from local memory" with a fixed access time; banks queue independently
//! (interleaved at DSM-block granularity) so concurrent accesses to
//! different banks overlap while same-bank accesses serialize.

use ascoma_sim::resource::BankedResource;
use ascoma_sim::Cycles;

/// Banked DRAM with a fixed per-access service time.
#[derive(Debug, Clone)]
pub struct Dram {
    banks: BankedResource,
    access_cycles: Cycles,
}

impl Dram {
    /// `banks` banks interleaved at `interleave_bytes`, each access taking
    /// `access_cycles` of bank service time.
    pub fn new(banks: usize, interleave_bytes: u64, access_cycles: Cycles) -> Self {
        Self {
            banks: BankedResource::new(banks, interleave_bytes),
            access_cycles,
        }
    }

    /// Access the bank holding `addr` starting no earlier than `now`;
    /// returns the time data is available.
    #[inline]
    pub fn access(&mut self, now: Cycles, addr: u64) -> Cycles {
        self.banks.acquire(now, addr, self.access_cycles) + self.access_cycles
    }

    /// The fixed bank service time.
    pub fn access_cycles(&self) -> Cycles {
        self.access_cycles
    }

    /// Total cycles accesses spent queued behind busy banks.
    pub fn queued_cycles(&self) -> Cycles {
        self.banks.queued_cycles()
    }

    /// Reset all banks to idle.
    pub fn reset(&mut self) {
        self.banks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_takes_service_time() {
        let mut d = Dram::new(4, 128, 50);
        assert_eq!(d.access(0, 0), 50);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = Dram::new(4, 128, 50);
        assert_eq!(d.access(0, 0), 50);
        assert_eq!(d.access(0, 128), 50);
        assert_eq!(d.access(0, 256), 50);
        assert_eq!(d.queued_cycles(), 0);
    }

    #[test]
    fn same_bank_serializes() {
        let mut d = Dram::new(4, 128, 50);
        assert_eq!(d.access(0, 0), 50);
        // Same bank (4 banks * 128 interleave = 512 stride).
        assert_eq!(d.access(0, 512), 100);
        assert_eq!(d.queued_cycles(), 50);
    }
}
