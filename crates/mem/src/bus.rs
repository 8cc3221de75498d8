//! The coherent split-transaction memory bus of a node.
//!
//! Modeled after HP's Runway bus (the paper clocks it at the processor's
//! 120 MHz).  Each transaction arbitrates for the bus and then occupies it
//! for a number of cycles proportional to the data transferred (one
//! occupancy quantum per 32 bytes).  Because the bus is split-transaction,
//! the *request* and the *data return* are separate occupancies — memory
//! latency between them does not hold the bus, so independent transactions
//! interleave, exactly the property that makes Runway-class busses scale.

use ascoma_sim::resource::Resource;
use ascoma_sim::Cycles;

/// Split-transaction bus with arbitration + per-32-byte transfer occupancy.
#[derive(Debug, Clone)]
pub struct Bus {
    res: Resource,
    arb_cycles: Cycles,
    xfer_per_32b: Cycles,
}

impl Bus {
    /// A bus with the given arbitration latency and per-32-byte data
    /// transfer occupancy.
    pub fn new(arb_cycles: Cycles, xfer_per_32b: Cycles) -> Self {
        Self {
            res: Resource::new(),
            arb_cycles,
            xfer_per_32b,
        }
    }

    /// Occupancy of a transaction moving `bytes` of data (address-only
    /// transactions pass 0).
    #[inline]
    pub fn occupancy(&self, bytes: u64) -> Cycles {
        self.arb_cycles + self.xfer_per_32b * bytes.div_ceil(32)
    }

    /// Issue a transaction at `now` carrying `bytes`; returns completion
    /// time (start-of-service + occupancy).
    #[inline]
    pub fn transact(&mut self, now: Cycles, bytes: u64) -> Cycles {
        let occ = self.occupancy(bytes);
        self.res.acquire(now, occ) + occ
    }

    /// Cycles of queueing suffered so far (bus contention).
    pub fn queued_cycles(&self) -> Cycles {
        self.res.queued_cycles()
    }

    /// Reset to idle, clearing statistics.
    pub fn reset(&mut self) {
        self.res.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_only_transaction_costs_arbitration() {
        let mut b = Bus::new(4, 4);
        assert_eq!(b.transact(0, 0), 4);
    }

    #[test]
    fn transfer_occupancy_scales_with_bytes() {
        let b = Bus::new(4, 4);
        assert_eq!(b.occupancy(32), 8);
        assert_eq!(b.occupancy(128), 20);
        assert_eq!(b.occupancy(1), 8); // partial beat rounds up
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut b = Bus::new(4, 4);
        assert_eq!(b.transact(0, 128), 20);
        // Arrives during the first transfer: queues until 20.
        assert_eq!(b.transact(10, 32), 28);
        assert_eq!(b.queued_cycles(), 10);
    }

    #[test]
    fn idle_bus_does_not_queue() {
        let mut b = Bus::new(4, 4);
        b.transact(0, 32);
        assert_eq!(b.transact(100, 32), 108);
        assert_eq!(b.queued_cycles(), 0);
    }
}
