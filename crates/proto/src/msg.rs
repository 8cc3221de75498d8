//! Protocol transaction statistics.
//!
//! The paper's DSM controller (Figure 1) exchanges messages between
//! requester, home, and (for dirty blocks) owner nodes.  [`ProtoStats`]
//! counts the transaction shapes they compose into (2-hop clean fetches,
//! 3-hop dirty forwards, invalidation fan-outs, writebacks, relocation
//! notices).  The machine layer records into these counters as it
//! charges latencies, giving the protocol-level traffic reports the
//! evaluation section summarizes ("DSM data is moved in 128-byte chunks
//! to amortize the cost of remote communication").

/// Protocol-level transaction and message counters for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// Clean 2-hop fetches (requester → home → requester).
    pub fetch_2hop: u64,
    /// Dirty 3-hop fetches (requester → home → owner → requester).
    pub fetch_3hop: u64,
    /// Fetches satisfied without the network (requester is home).
    pub fetch_local: u64,
    /// Invalidation messages sent.
    pub invalidations: u64,
    /// Permission-only upgrade transactions.
    pub upgrades: u64,
    /// Dirty writebacks received at homes.
    pub writebacks: u64,
    /// Relocation notices piggybacked on data responses.
    pub relocation_notices: u64,
}

impl ProtoStats {
    /// Record a fetch transaction's shape.
    #[inline]
    pub fn record_fetch(&mut self, local: bool, forwarded: bool, invalidations: u32) {
        if local {
            self.fetch_local += 1;
        } else if forwarded {
            self.fetch_3hop += 1;
        } else {
            self.fetch_2hop += 1;
        }
        self.invalidations += invalidations as u64;
    }

    /// Record a permission-only upgrade with its invalidation fan-out.
    #[inline]
    pub fn record_upgrade(&mut self, invalidations: u32) {
        self.upgrades += 1;
        self.invalidations += invalidations as u64;
    }

    /// Record a dirty writeback arriving home.
    #[inline]
    pub fn record_writeback(&mut self) {
        self.writebacks += 1;
    }

    /// Record a piggybacked relocation notice.
    #[inline]
    pub fn record_notice(&mut self) {
        self.relocation_notices += 1;
    }

    /// Total remote fetch transactions.
    pub fn remote_fetches(&self) -> u64 {
        self.fetch_2hop + self.fetch_3hop
    }

    /// Fraction of remote fetches that needed the 3-hop dirty path.
    pub fn dirty_fraction(&self) -> f64 {
        let total = self.remote_fetches();
        if total == 0 {
            0.0
        } else {
            self.fetch_3hop as f64 / total as f64
        }
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &ProtoStats) {
        self.fetch_2hop += other.fetch_2hop;
        self.fetch_3hop += other.fetch_3hop;
        self.fetch_local += other.fetch_local;
        self.invalidations += other.invalidations;
        self.upgrades += other.upgrades;
        self.writebacks += other.writebacks;
        self.relocation_notices += other.relocation_notices;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_shapes_classify() {
        let mut s = ProtoStats::default();
        s.record_fetch(true, false, 0);
        s.record_fetch(false, false, 2);
        s.record_fetch(false, true, 0);
        assert_eq!(s.fetch_local, 1);
        assert_eq!(s.fetch_2hop, 1);
        assert_eq!(s.fetch_3hop, 1);
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.remote_fetches(), 2);
        assert!((s.dirty_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirty_fraction_empty_is_zero() {
        assert_eq!(ProtoStats::default().dirty_fraction(), 0.0);
    }

    #[test]
    fn accumulation() {
        let mut a = ProtoStats::default();
        a.record_upgrade(3);
        a.record_writeback();
        a.record_notice();
        let mut b = ProtoStats::default();
        b.add(&a);
        b.add(&a);
        assert_eq!(b.upgrades, 2);
        assert_eq!(b.invalidations, 6);
        assert_eq!(b.writebacks, 2);
        assert_eq!(b.relocation_notices, 2);
    }
}
