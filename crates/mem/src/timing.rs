//! Cycle-cost parameters and the local-access composition.
//!
//! [`MemTimings`] collects the hardware latencies that compose into the
//! paper's Table 4 minimum access latencies:
//!
//! | location      | paper (min) | composition here                          |
//! |---------------|-------------|-------------------------------------------|
//! | L1 cache      | 1 cycle     | `l1_hit`                                  |
//! | local memory  | ~58 cycles  | bus request + bank + bus data return      |
//! | RAC           | ~16 cycles  | bus request + `rac_probe` + data return   |
//! | remote memory | ~190 cycles | the full remote path (see `ascoma-proto`) |
//!
//! The OCR of the paper's Table 4 leaves only digit-widths readable
//! (1 / 2 / 2 / 3 digits, remote:local ratio "about 3"); DESIGN.md §4
//! records the calibration.  Every value is a plain field so ablation
//! benches can sweep it.

use crate::bus::Bus;
use crate::dram::Dram;
use ascoma_sim::Cycles;

/// Hardware latency parameters of one node's local hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTimings {
    /// L1 hit latency (paper: 1 cycle).
    pub l1_hit: Cycles,
    /// Bus arbitration cycles per transaction.
    pub bus_arb: Cycles,
    /// Bus data-transfer occupancy per 32 bytes.
    pub bus_xfer_per_32b: Cycles,
    /// DRAM bank service time per access.
    pub bank_cycles: Cycles,
    /// Number of DRAM banks per node.
    pub banks: usize,
    /// RAC probe latency on the DSM controller.
    pub rac_probe: Cycles,
    /// DSM controller occupancy per protocol action (snoop + staging).
    pub dsm_occupancy: Cycles,
    /// Directory SRAM/DRAM lookup latency at the home.
    pub dir_lookup: Cycles,
}

impl Default for MemTimings {
    fn default() -> Self {
        Self {
            l1_hit: 1,
            bus_arb: 4,
            bus_xfer_per_32b: 4,
            bank_cycles: 46,
            banks: 4,
            rac_probe: 7,
            dsm_occupancy: 16,
            dir_lookup: 24,
        }
    }
}

impl MemTimings {
    /// Zero-contention local-memory load latency: bus request (address
    /// only) + bank + bus data return of one cache line.
    pub fn local_min(&self) -> Cycles {
        self.l1_hit + self.bus_arb + self.bank_cycles + self.bus_arb + self.bus_xfer_per_32b
    }

    /// Zero-contention RAC hit latency.
    pub fn rac_min(&self) -> Cycles {
        self.l1_hit + self.bus_arb + self.rac_probe + self.bus_xfer_per_32b
    }
}

/// One node's local memory path: bus + banked DRAM + DSM-controller
/// occupancy, shared by local accesses and incoming remote requests.
#[derive(Debug, Clone)]
pub struct LocalMemory {
    /// The node's coherent memory bus.
    pub bus: Bus,
    /// The node's banked DRAM.
    pub dram: Dram,
    timings: MemTimings,
}

impl LocalMemory {
    /// Build from timing parameters, interleaving DRAM at `interleave_bytes`
    /// (the DSM block size).
    pub fn new(timings: MemTimings, interleave_bytes: u64) -> Self {
        Self {
            bus: Bus::new(timings.bus_arb, timings.bus_xfer_per_32b),
            dram: Dram::new(timings.banks, interleave_bytes, timings.bank_cycles),
            timings,
        }
    }

    /// The timing parameters this hierarchy was built with.
    pub fn timings(&self) -> &MemTimings {
        &self.timings
    }

    /// A processor-side fetch from local DRAM (home page or valid S-COMA
    /// block): address request on the bus, bank access, data return of
    /// `bytes` on the bus.  Returns the completion time.
    pub fn local_fetch(&mut self, now: Cycles, addr: u64, bytes: u64) -> Cycles {
        let req_done = self.bus.transact(now, 0);
        let data_ready = self.dram.access(req_done, addr);
        self.bus.transact(data_ready, bytes)
    }

    /// A RAC probe + hit: bus request, controller probe, line return.
    pub fn rac_fetch(&mut self, now: Cycles, bytes: u64) -> Cycles {
        let req_done = self.bus.transact(now, 0);
        let probe_done = req_done + self.timings.rac_probe;
        self.bus.transact(probe_done, bytes)
    }

    /// Reset bus and DRAM to idle.
    pub fn reset(&mut self) {
        self.bus.reset();
        self.dram.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_local_min_matches_calibration() {
        let t = MemTimings::default();
        // 1 + 4 + 46 + 4 + 4 = 59 ~ paper's ~58-cycle local memory.
        assert_eq!(t.local_min(), 59);
        assert!((55..=62).contains(&t.local_min()));
    }

    #[test]
    fn default_rac_min_matches_calibration() {
        let t = MemTimings::default();
        // 1 + 4 + 7 + 4 = 16 = paper's RAC latency.
        assert_eq!(t.rac_min(), 16);
    }

    #[test]
    fn local_fetch_composes_bus_and_bank() {
        let mut m = LocalMemory::new(MemTimings::default(), 128);
        // request 0..4, bank 4..50, data return 50..58 (arb+1 beat).
        assert_eq!(m.local_fetch(0, 0, 32), 58);
    }

    #[test]
    fn concurrent_fetches_to_same_bank_queue() {
        let mut m = LocalMemory::new(MemTimings::default(), 128);
        let first = m.local_fetch(0, 0, 32);
        let second = m.local_fetch(0, 512, 32); // same bank
        assert!(second > first);
    }

    #[test]
    fn concurrent_fetches_to_different_banks_skip_bank_queueing() {
        let mut m = LocalMemory::new(MemTimings::default(), 128);
        let first = m.local_fetch(0, 0, 32);
        let second_other_bank = m.local_fetch(0, 128, 32);
        // The busy-until bus model is conservative (no backfill into the
        // bank-latency gap), so the second fetch serializes behind the
        // first's bus reservations — but it must not also pay bank
        // queueing on top.
        assert_eq!(second_other_bank, first + first);
    }

    #[test]
    fn rac_fetch_is_fast() {
        let mut m = LocalMemory::new(MemTimings::default(), 128);
        // 4 (req) + 7 (probe) + 8 (arb + beat) = 19 at bus level; the
        // caller adds the L1 probe cycle.
        let done = m.rac_fetch(0, 32);
        assert!(done <= 20, "rac path too slow: {done}");
    }
}
