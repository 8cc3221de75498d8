//! Busy-until resource reservation: the contention model of the simulator.
//!
//! Every shared hardware resource of the modeled machine — the coherent
//! split-transaction bus of a node, each of its four memory banks, the
//! network input ports, and the DSM controller's occupancy — is modeled as a
//! [`Resource`] with a *busy-until* time.  A requester arriving at time `t`
//! starts service at `max(t, free_at)` and holds the resource for its
//! occupancy.  This reproduces queueing delay growth under load, which is
//! what bends the execution-time curves of the paper at high miss rates,
//! while staying deterministic.
//!
//! The paper explicitly models "contention for various resources (bus,
//! memory banks, networks, etc.)" and notes that the average latency is
//! "considerably higher" than the Table 4 minimum because of it.

use crate::Cycles;

/// A single serially-reusable resource with busy-until semantics.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: Cycles,
    /// Total cycles requesters spent queued before starting service.
    queued_cycles: Cycles,
}

impl Resource {
    /// A resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the resource at `now` for `occupancy` cycles.
    ///
    /// Returns the time service *starts* (`>= now`).  The caller's operation
    /// completes at `start + occupancy` (plus whatever downstream latency it
    /// models on top).
    #[inline]
    pub fn acquire(&mut self, now: Cycles, occupancy: Cycles) -> Cycles {
        let start = now.max(self.free_at);
        self.queued_cycles += start - now;
        self.free_at = start + occupancy;
        start
    }

    /// The earliest time a new requester could start service.
    #[inline]
    pub fn free_at(&self) -> Cycles {
        self.free_at
    }

    /// Total cycles requesters spent waiting in queue.
    pub fn queued_cycles(&self) -> Cycles {
        self.queued_cycles
    }

    /// Reset to the free state, clearing statistics.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// A bank-interleaved group of resources (e.g. the 4-bank main memory
/// controller of each node).
///
/// Requests are routed to a bank by address; banks queue independently, so
/// accesses to distinct banks can proceed in parallel exactly as in a real
/// interleaved memory controller.
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<Resource>,
    /// log2 of the interleave granularity in bytes.
    interleave_shift: u32,
}

impl BankedResource {
    /// `banks` banks interleaved at `interleave_bytes` granularity
    /// (must both be powers of two).
    pub fn new(banks: usize, interleave_bytes: u64) -> Self {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        assert!(
            interleave_bytes.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        Self {
            banks: vec![Resource::new(); banks],
            interleave_shift: interleave_bytes.trailing_zeros(),
        }
    }

    /// Which bank serves byte address `addr`.
    #[inline]
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr >> self.interleave_shift) as usize) & (self.banks.len() - 1)
    }

    /// Reserve the bank serving `addr`; returns service start time.
    #[inline]
    pub fn acquire(&mut self, now: Cycles, addr: u64, occupancy: Cycles) -> Cycles {
        let b = self.bank_of(addr);
        self.banks[b].acquire(now, occupancy)
    }

    /// Number of banks.
    pub fn len(&self) -> usize {
        self.banks.len()
    }

    /// True if there are no banks (never constructed that way in practice).
    pub fn is_empty(&self) -> bool {
        self.banks.is_empty()
    }

    /// Aggregate queued cycles across banks.
    pub fn queued_cycles(&self) -> Cycles {
        self.banks.iter().map(Resource::queued_cycles).sum()
    }

    /// Reset all banks.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_starts_immediately() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(100, 10), 100);
        assert_eq!(r.free_at(), 110);
        assert_eq!(r.queued_cycles(), 0);
    }

    #[test]
    fn contended_acquire_queues() {
        let mut r = Resource::new();
        r.acquire(0, 50);
        // Second requester arrives at t=10, must wait until t=50.
        assert_eq!(r.acquire(10, 5), 50);
        assert_eq!(r.queued_cycles(), 40);
        assert_eq!(r.free_at(), 55);
    }

    #[test]
    fn acquire_after_idle_gap_does_not_queue() {
        let mut r = Resource::new();
        r.acquire(0, 10);
        assert_eq!(r.acquire(100, 10), 100);
        assert_eq!(r.queued_cycles(), 0);
    }

    #[test]
    fn banked_routes_by_interleave() {
        let b = BankedResource::new(4, 128);
        assert_eq!(b.bank_of(0), 0);
        assert_eq!(b.bank_of(127), 0);
        assert_eq!(b.bank_of(128), 1);
        assert_eq!(b.bank_of(128 * 5), 1);
        assert_eq!(b.bank_of(128 * 3), 3);
    }

    #[test]
    fn banked_banks_queue_independently() {
        let mut b = BankedResource::new(2, 128);
        // Bank 0 busy 0..100.
        assert_eq!(b.acquire(0, 0, 100), 0);
        // Bank 1 free: starts immediately.
        assert_eq!(b.acquire(10, 128, 100), 10);
        // Bank 0 queued behind the first access.
        assert_eq!(b.acquire(10, 256, 10), 100);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new();
        r.acquire(0, 100);
        r.acquire(0, 10);
        r.reset();
        assert_eq!(r.free_at(), 0);
        assert_eq!(r.queued_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn banked_rejects_non_power_of_two() {
        let _ = BankedResource::new(3, 128);
    }
}
