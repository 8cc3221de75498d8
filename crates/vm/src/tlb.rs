//! A software-filled TLB model.
//!
//! The paper's kernel charges include "TLB refill" among the remapping
//! costs, and the modeled PA-RISC fills its TLB in software — so TLB
//! misses are kernel work (`K-BASE` for ordinary fills; remaps
//! additionally shoot down the entry, which is folded into the remap
//! charge).  The model is a set-associative tag store over virtual page
//! numbers with round-robin replacement: accurate enough to charge fills
//! at working-set transitions without simulating PTE walks.

use ascoma_sim::addr::VPage;

/// A set-associative TLB over virtual page numbers.
///
/// Tags are raw `u64` page numbers with a sentinel for invalid entries
/// (page numbers are < 2^62 by the packed-trace encoding, so the
/// sentinel cannot collide): half the footprint of `Option<u64>` slots
/// and a branch-light compare loop on the per-access probe.
#[derive(Debug, Clone)]
pub struct Tlb {
    /// MRU filter: the last page that hit or filled, **provably still
    /// resident** (cleared whenever its entry could have been shot down
    /// or evicted).  Spatial locality makes consecutive accesses to the
    /// same page the overwhelmingly common case, so most probes are one
    /// compare instead of a set sweep.  A pure shortcut: any filter hit
    /// would also hit the set sweep, so hit/miss counts are unchanged.
    mru: u64,
    /// `sets x ways` tags; [`Tlb::INVALID`] = empty slot.
    entries: Vec<u64>,
    ways: usize,
    set_mask: u64,
    /// Round-robin fill pointer per set.
    fill: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Tag value marking an empty slot.
    const INVALID: u64 = u64::MAX;

    /// A TLB of `entries` total entries and `ways` associativity (both
    /// powers of two, `ways <= entries`, at most 256 ways).
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(entries.is_power_of_two() && ways.is_power_of_two());
        assert!(ways <= entries && ways <= 256);
        let sets = entries / ways;
        Self {
            mru: Self::INVALID,
            entries: vec![Self::INVALID; entries],
            ways,
            set_mask: sets as u64 - 1,
            fill: vec![0; sets],
            hits: 0,
            misses: 0,
        }
    }

    /// The paper-era configuration: 64 entries, 8-way.
    pub fn paper() -> Self {
        Self::new(64, 8)
    }

    #[inline]
    fn set_of(&self, page: VPage) -> usize {
        (page.0 & self.set_mask) as usize
    }

    /// Translate `page`; returns `true` on a hit.  On a miss the entry is
    /// filled (round-robin within the set) and the caller charges the
    /// software-fill cost.
    #[inline]
    pub fn access(&mut self, page: VPage) -> bool {
        debug_assert_ne!(page.0, Self::INVALID);
        // MRU filter: guaranteed resident, so this is the same answer
        // the sweep would give, one compare sooner.
        if page.0 == self.mru {
            self.hits += 1;
            return true;
        }
        let set = self.set_of(page);
        let base = set * self.ways;
        let slots = &mut self.entries[base..base + self.ways];
        // Equality fold over every way: no early exit, so the sweep is
        // branch-free whichever way (if any) holds the page.
        if slots.iter().fold(false, |hit, &t| hit | (t == page.0)) {
            self.hits += 1;
            self.mru = page.0;
            return true;
        }
        self.misses += 1;
        // `ways` is a power of two no larger than 256, so the mask is
        // the remainder of the wrapping `u8` pointer, without a divide.
        let way = self.fill[set] as usize & (self.ways - 1);
        self.fill[set] = self.fill[set].wrapping_add(1);
        slots[way] = page.0;
        // The fill makes `page` resident; reassigning the filter also
        // covers the case where the round-robin victim was the old MRU.
        self.mru = page.0;
        false
    }

    /// Shoot down the entry for `page` (page remap), if present.
    pub fn invalidate(&mut self, page: VPage) {
        if self.mru == page.0 {
            self.mru = Self::INVALID;
        }
        let set = self.set_of(page);
        let base = set * self.ways;
        for e in &mut self.entries[base..base + self.ways] {
            if *e == page.0 {
                *e = Self::INVALID;
            }
        }
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut t = Tlb::paper();
        assert!(!t.access(VPage(5)));
        assert!(t.access(VPage(5)));
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn capacity_eviction_round_robins() {
        let mut t = Tlb::new(4, 2); // 2 sets x 2 ways
                                    // Pages 0, 2, 4 all map to set 0; third fill evicts the first.
        assert!(!t.access(VPage(0)));
        assert!(!t.access(VPage(2)));
        assert!(!t.access(VPage(4))); // evicts page 0 (way 0)
        assert!(!t.access(VPage(0))); // refills over page 2 (way 1)
        assert!(t.access(VPage(4))); // still resident in way 0
        assert!(!t.access(VPage(2))); // was evicted by page 0's refill
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut t = Tlb::new(4, 2);
        assert!(!t.access(VPage(0))); // set 0
        assert!(!t.access(VPage(1))); // set 1
        assert!(t.access(VPage(0)));
        assert!(t.access(VPage(1)));
    }

    #[test]
    fn invalidate_forces_refill() {
        let mut t = Tlb::paper();
        t.access(VPage(3));
        assert!(t.access(VPage(3)));
        t.invalidate(VPage(3));
        assert!(!t.access(VPage(3)));
    }

    #[test]
    fn invalidate_absent_page_is_noop() {
        let mut t = Tlb::paper();
        t.access(VPage(1));
        t.invalidate(VPage(99));
        assert!(t.access(VPage(1)));
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut t = Tlb::paper(); // 64 entries
        for p in 0..64u64 {
            t.access(VPage(p));
        }
        let (h0, m0) = t.stats();
        assert_eq!((h0, m0), (0, 64));
        for p in 0..64u64 {
            assert!(t.access(VPage(p)), "page {p} evicted within capacity");
        }
    }

    /// The victim sequence is plain round-robin per set, `fill % ways`
    /// with an unbounded counter, for 1, 2, 8 and 256 ways, well past the
    /// point where the `u8` fill pointer wraps.
    #[test]
    fn victim_order_is_round_robin_for_every_way_count() {
        for ways in [1, 2, 8, 256] {
            let mut t = Tlb::new(ways, ways); // one set
            let mut model = vec![Tlb::INVALID; ways];
            for fill in 0..3 * 256 + 5u64 {
                // A fresh page every time: every access misses and fills.
                assert!(!t.access(VPage(fill)));
                model[fill as usize % ways] = fill;
                assert_eq!(t.entries, model, "ways {ways}, fill {fill}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_non_power_of_two() {
        let _ = Tlb::new(48, 8);
    }
}
