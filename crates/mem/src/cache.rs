//! Direct-mapped, write-back caches: the L1 and the RAC.
//!
//! The paper models "a single 8-kilobyte direct-mapped processor cache"
//! with 32-byte lines (sized to the SPLASH-2 primary working sets, as in
//! the R-NUMA and VC-NUMA studies) and a 512-byte remote access cache with
//! 128-byte lines on the DSM controller.  Both are instances of
//! [`DirectMappedCache`] with different parameters.
//!
//! The cache stores *tags only* — the simulator tracks which lines are
//! present and dirty, not data values.  Lines are identified by their
//! line-aligned virtual shared-space address.  Invalidations are by DSM
//! block or by page, matching the two flush granularities of the protocol
//! (write-invalidations are block-grained; remapping flushes are
//! page-grained).

use ascoma_sim::addr::VAddr;

/// Tag word of an empty slot.  Resident tags are line-aligned addresses
/// with the dirty flag in bit 0, so this all-ones word cannot be one as
/// long as the top line of the address space is never cached or
/// invalidated (asserted in debug builds; shared-space addresses sit far
/// below it).
const EMPTY: u64 = u64::MAX;

/// Dirty flag of a tag word (line addresses are at least 2-aligned).
const DIRTY: u64 = 1;

/// The victim a resident (non-empty) tag word describes.
#[inline]
fn victim(tag: u64) -> Victim {
    Victim {
        addr: VAddr(tag & !DIRTY),
        dirty: tag & DIRTY != 0,
    }
}

/// Clear every tag in `tags` whose line lies in `[start, start + len)`,
/// without branching on the outcome.  Returns `(lines, dirty_lines)`.
///
/// An empty slot reads as line `EMPTY & !DIRTY`, which lies above every
/// range the caller passes, so it never matches.
#[inline]
fn clear_lines(tags: &mut [u64], start: u64, len: u64) -> (u32, u32) {
    let (n, d) = tags.iter_mut().fold((0u64, 0u64), |(n, d), t| {
        let hit = ((*t & !DIRTY).wrapping_sub(start) < len) as u64;
        let dirty = hit & *t;
        // OR-ing an all-ones mask writes EMPTY; a zero mask keeps the tag.
        *t |= hit.wrapping_neg();
        (n + hit, d + dirty)
    });
    (n as u32, d as u32)
}

/// Result of a lookup for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present.
    Hit,
    /// Line absent; the slot it maps to is empty.
    MissEmpty,
    /// Line absent; filling it would evict this victim.
    MissConflict(Victim),
}

/// A line that would be (or was) evicted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub addr: VAddr,
    /// Whether the evicted line was dirty (requires writeback).
    pub dirty: bool,
}

/// A set-associative, write-back cache of address tags with LRU
/// replacement.  The paper's machines use direct-mapped caches
/// (associativity 1, the default constructor); higher associativities
/// support the cache-organization ablation the paper's introduction
/// motivates ("the data access patterns and cache organization cause
/// cached remote data to be purged frequently").
#[derive(Debug, Clone)]
pub struct DirectMappedCache {
    /// `nsets x ways` tag words, way-major within a set: the line address
    /// with [`DIRTY`] in bit 0, or [`EMPTY`].
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (read only when `ways > 1`).
    stamps: Vec<u64>,
    ways: usize,
    tick: u64,
    line_bytes: u64,
    line_shift: u32,
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl DirectMappedCache {
    /// A direct-mapped cache of `size_bytes` total with `line_bytes`
    /// lines, both powers of two with `line_bytes <= size_bytes`.
    pub fn new(size_bytes: u64, line_bytes: u64) -> Self {
        Self::new_assoc(size_bytes, line_bytes, 1)
    }

    /// A `ways`-way set-associative cache (LRU within each set).
    pub fn new_assoc(size_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        assert!(size_bytes.is_power_of_two());
        assert!(line_bytes.is_power_of_two());
        assert!(line_bytes >= 2, "bit 0 of a tag word holds the dirty flag");
        assert!(ways.is_power_of_two());
        assert!(line_bytes * ways as u64 <= size_bytes);
        let slots = (size_bytes / line_bytes) as usize;
        let nsets = slots / ways;
        Self {
            tags: vec![EMPTY; slots],
            stamps: vec![0; slots],
            ways,
            tick: 0,
            line_bytes,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: nsets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// The paper's L1: 8 KB, 32-byte lines.
    pub fn paper_l1() -> Self {
        Self::new(8 * 1024, 32)
    }

    /// The paper's RAC: 512 bytes, 128-byte lines.
    pub fn paper_rac() -> Self {
        Self::new(512, 128)
    }

    /// First slot of the set line address `addr` maps to.
    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        (((addr >> self.line_shift) & self.set_mask) as usize) * self.ways
    }

    /// Slot index of line `a` within the set at `base`, if resident.
    #[inline]
    fn find(&self, base: usize, a: u64) -> Option<usize> {
        (base..base + self.ways).find(|&i| self.tags[i] & !DIRTY == a)
    }

    /// The slot to fill in a set: an empty way, else the LRU way.
    #[inline]
    fn victim_slot(&self, base: usize) -> usize {
        let mut lru = base;
        for i in base..base + self.ways {
            if self.tags[i] == EMPTY {
                return i;
            }
            if self.stamps[i] < self.stamps[lru] {
                lru = i;
            }
        }
        lru
    }

    #[inline]
    fn align(&self, addr: VAddr) -> u64 {
        let a = addr.0 & !(self.line_bytes - 1);
        debug_assert_ne!(a, EMPTY & !DIRTY, "top line is the empty-slot sentinel");
        a
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of line slots (sets x ways).
    pub fn num_sets(&self) -> usize {
        self.tags.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Non-mutating presence check.
    #[inline]
    pub fn contains(&self, addr: VAddr) -> bool {
        let a = self.align(addr);
        self.find(self.set_of(a), a).is_some()
    }

    /// Dirty bit of the resident line covering `addr`, `None` if absent.
    /// Non-mutating (no stats, no LRU movement) — canonical-state and
    /// invariant input for the conformance checker.
    #[inline]
    pub fn line_dirty(&self, addr: VAddr) -> Option<bool> {
        let a = self.align(addr);
        self.find(self.set_of(a), a)
            .map(|i| self.tags[i] & DIRTY != 0)
    }

    /// Look up `addr`, recording hit/miss statistics, without modifying
    /// residency.  On a write hit the line is marked dirty.
    #[inline]
    pub fn access(&mut self, addr: VAddr, write: bool) -> Lookup {
        let a = self.align(addr);
        if self.ways != 1 {
            return self.access_assoc(a, write);
        }
        // Direct-mapped: one tag word decides (LRU stamps are moot).
        let i = self.set_of(a);
        let t = self.tags[i];
        if t & !DIRTY == a {
            self.tags[i] = t | write as u64;
            self.hits += 1;
            Lookup::Hit
        } else {
            self.misses += 1;
            if t == EMPTY {
                Lookup::MissEmpty
            } else {
                Lookup::MissConflict(victim(t))
            }
        }
    }

    /// [`Self::access`] for `ways > 1`: LRU sweep of the set.
    #[inline(never)]
    fn access_assoc(&mut self, a: u64, write: bool) -> Lookup {
        let base = self.set_of(a);
        self.tick += 1;
        if let Some(i) = self.find(base, a) {
            self.tags[i] |= write as u64;
            self.stamps[i] = self.tick;
            self.hits += 1;
            return Lookup::Hit;
        }
        self.misses += 1;
        match self.tags[self.victim_slot(base)] {
            EMPTY => Lookup::MissEmpty,
            t => Lookup::MissConflict(victim(t)),
        }
    }

    /// Install `addr` (evicting any conflicting line), marking it dirty if
    /// this fill is for a write.  Returns the victim, if one was evicted.
    #[inline]
    pub fn fill(&mut self, addr: VAddr, write: bool) -> Option<Victim> {
        let a = self.align(addr);
        if self.ways != 1 {
            return self.fill_assoc(a, write);
        }
        let i = self.set_of(a);
        let t = self.tags[i];
        if t & !DIRTY == a {
            // Refill of a resident line keeps (or raises) dirtiness.
            self.tags[i] = t | write as u64;
            return None;
        }
        self.tags[i] = a | write as u64;
        (t != EMPTY).then(|| victim(t))
    }

    /// [`Self::fill`] for `ways > 1`: refresh or replace the LRU way.
    #[inline(never)]
    fn fill_assoc(&mut self, a: u64, write: bool) -> Option<Victim> {
        let base = self.set_of(a);
        self.tick += 1;
        if let Some(i) = self.find(base, a) {
            self.tags[i] |= write as u64;
            self.stamps[i] = self.tick;
            return None;
        }
        let slot = self.victim_slot(base);
        let old = self.tags[slot];
        self.tags[slot] = a | write as u64;
        self.stamps[slot] = self.tick;
        self.debug_validate_set(base);
        (old != EMPTY).then(|| victim(old))
    }

    /// Mark a resident line dirty (e.g. write hit after an upgrade).
    pub fn mark_dirty(&mut self, addr: VAddr) {
        let a = self.align(addr);
        if let Some(i) = self.find(self.set_of(a), a) {
            self.tags[i] |= DIRTY;
        }
    }

    /// Invalidate every resident line within the aligned byte range
    /// `[base, base + span_bytes)`.  Returns `(lines_invalidated,
    /// dirty_lines)` so the caller can charge writeback costs.
    ///
    /// Used for block-grained coherence invalidations (`span = 128`) and
    /// page-grained remap flushes (`span = 4096`).
    pub fn invalidate_range(&mut self, base: VAddr, span_bytes: u64) -> (u32, u32) {
        let start = self.align(base);
        let end = base.0 + span_bytes;
        debug_assert!(
            end <= EMPTY & !DIRTY,
            "range reaches the empty-slot sentinel"
        );
        let len = end - start;
        // A line in the range can only live in the set its address maps
        // to, and consecutive lines map to consecutive sets: the range
        // covers `min(lines, sets)` sets starting at `start`'s, wrapping
        // at the end of the array.  A page is 128 tag checks in the L1
        // (256 sets) and 4 in the RAC (4 sets).
        let sets = len.div_ceil(self.line_bytes).min(self.set_mask + 1) as usize;
        let first = self.set_of(start);
        let slots = sets * self.ways;
        let head_end = (first + slots).min(self.tags.len());
        let wrapped = slots - (head_end - first);
        let (n0, d0) = clear_lines(&mut self.tags[first..head_end], start, len);
        let (n1, d1) = clear_lines(&mut self.tags[..wrapped], start, len);
        (n0 + n1, d0 + d1)
    }

    /// Drop every line in the cache. Returns `(lines, dirty_lines)`.
    pub fn invalidate_all(&mut self) -> (u32, u32) {
        self.tags.iter_mut().fold((0, 0), |(n, d), t| {
            let live = *t != EMPTY;
            let dirty = live & (*t & DIRTY != 0);
            *t = EMPTY;
            (n + live as u32, d + dirty as u32)
        })
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }

    /// (hits, misses) recorded by [`Self::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Structural rules for one set (O(ways)).
    fn set_error(&self, base: usize) -> Option<String> {
        for i in base..base + self.ways {
            let t = self.tags[i];
            if t == EMPTY {
                continue;
            }
            let a = t & !DIRTY;
            if a & (self.line_bytes - 1) != 0 {
                return Some(format!("slot {i} holds unaligned address {a:#x}"));
            }
            if self.set_of(a) != base {
                return Some(format!(
                    "slot {i} holds address {a:#x} belonging to set base {}",
                    self.set_of(a)
                ));
            }
            if let Some(j) = (base..i).find(|&j| self.tags[j] & !DIRTY == a) {
                return Some(format!("address {a:#x} resident in two ways ({j} and {i})"));
            }
        }
        None
    }

    /// Structural self-check over every set: resident lines are aligned,
    /// live in the set their address maps to, and no address occupies two
    /// ways.  For barrier-time and test probes.
    pub fn validate(&self) -> Result<(), String> {
        let nsets = self.tags.len() / self.ways;
        for s in 0..nsets {
            if let Some(e) = self.set_error(s * self.ways) {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Per-fill set hook: active in debug builds and `check`-feature
    /// builds, compiled out otherwise.
    #[inline]
    #[allow(unused_variables)]
    fn debug_validate_set(&self, base: usize) {
        #[cfg(any(debug_assertions, feature = "check"))]
        if let Some(e) = self.set_error(base) {
            panic!("cache set invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> DirectMappedCache {
        DirectMappedCache::paper_l1()
    }

    #[test]
    fn paper_l1_has_256_sets() {
        assert_eq!(l1().num_sets(), 256);
        assert_eq!(DirectMappedCache::paper_rac().num_sets(), 4);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = l1();
        assert_eq!(c.access(VAddr(100), false), Lookup::MissEmpty);
        assert_eq!(c.fill(VAddr(100), false), None);
        assert_eq!(c.access(VAddr(100), false), Lookup::Hit);
        // Same line, different byte.
        assert_eq!(c.access(VAddr(96), false), Lookup::Hit);
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn conflicting_addresses_evict() {
        let mut c = l1();
        // 8 KB direct-mapped: addresses 8 KB apart conflict.
        c.fill(VAddr(0), false);
        match c.access(VAddr(8192), false) {
            Lookup::MissConflict(v) => {
                assert_eq!(v.addr, VAddr(0));
                assert!(!v.dirty);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        let victim = c.fill(VAddr(8192), false).expect("victim");
        assert_eq!(victim.addr, VAddr(0));
        assert!(!c.contains(VAddr(0)));
        assert!(c.contains(VAddr(8192)));
    }

    #[test]
    fn write_marks_dirty_and_eviction_reports_it() {
        let mut c = l1();
        c.fill(VAddr(0), true);
        let v = c.fill(VAddr(8192), false).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn write_hit_dirties_clean_line() {
        let mut c = l1();
        c.fill(VAddr(0), false);
        assert_eq!(c.access(VAddr(0), true), Lookup::Hit);
        let v = c.fill(VAddr(8192), false).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn refill_preserves_dirtiness() {
        let mut c = l1();
        c.fill(VAddr(0), true);
        // Re-filling the same line for a read must not lose the dirty bit.
        c.fill(VAddr(0), false);
        let v = c.fill(VAddr(8192), false).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn invalidate_range_block_grained() {
        let mut c = l1();
        // Fill the 4 lines of block [128, 256) plus one outside.
        for a in [128u64, 160, 192, 224, 256] {
            c.fill(VAddr(a), a == 160);
        }
        let (n, d) = c.invalidate_range(VAddr(128), 128);
        assert_eq!((n, d), (4, 1));
        assert!(!c.contains(VAddr(128)));
        assert!(c.contains(VAddr(256)));
    }

    #[test]
    fn invalidate_range_page_grained() {
        let mut c = l1();
        // Page 1 = [4096, 8192). 8 KB cache: page 1 maps to sets 128..256.
        for i in 0..10 {
            c.fill(VAddr(4096 + i * 32), false);
        }
        c.fill(VAddr(0), false); // page 0, survives
        let (n, _) = c.invalidate_range(VAddr(4096), 4096);
        assert_eq!(n, 10);
        assert!(c.contains(VAddr(0)));
    }

    #[test]
    fn invalidate_range_skips_aliased_other_lines() {
        let mut c = l1();
        // Address 8192 maps to the same set as 0 but is a different line;
        // invalidating page 0 must not kill it.
        c.fill(VAddr(8192), false);
        let (n, _) = c.invalidate_range(VAddr(0), 4096);
        assert_eq!(n, 0);
        assert!(c.contains(VAddr(8192)));
    }

    #[test]
    fn invalidate_all_counts() {
        let mut c = l1();
        c.fill(VAddr(0), true);
        c.fill(VAddr(32), false);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.invalidate_all(), (2, 1));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn rac_geometry_conflicts() {
        let mut rac = DirectMappedCache::paper_rac();
        rac.fill(VAddr(0), false);
        // 512-byte RAC with 128-byte lines: 512 apart conflicts.
        match rac.access(VAddr(512), false) {
            Lookup::MissConflict(v) => assert_eq!(v.addr, VAddr(0)),
            other => panic!("expected conflict, got {other:?}"),
        }
        // 128 apart does not.
        assert_eq!(rac.access(VAddr(128), false), Lookup::MissEmpty);
    }

    #[test]
    fn two_way_holds_conflicting_pair() {
        let mut c = DirectMappedCache::new_assoc(8 * 1024, 32, 2);
        // 4 KB apart: same set in a 2-way 8 KB cache.
        c.fill(VAddr(0), false);
        c.fill(VAddr(4096), false);
        assert!(c.contains(VAddr(0)));
        assert!(c.contains(VAddr(4096)));
        // A third conflicting line evicts the LRU (address 0).
        c.access(VAddr(4096), false); // touch to make 0 the LRU
        let v = c.fill(VAddr(8192), false).unwrap();
        assert_eq!(v.addr, VAddr(0));
        assert!(c.contains(VAddr(4096)));
        assert!(c.contains(VAddr(8192)));
    }

    #[test]
    fn lru_follows_access_order() {
        let mut c = DirectMappedCache::new_assoc(128, 32, 2); // 2 sets x 2 ways
        c.fill(VAddr(0), false);
        c.fill(VAddr(64), false); // same set (stride nsets*line = 64)
        c.access(VAddr(0), false); // 64 becomes LRU
        let v = c.fill(VAddr(128), false).unwrap();
        assert_eq!(v.addr, VAddr(64));
    }

    #[test]
    fn assoc_invalidate_range_finds_lines_in_any_way() {
        let mut c = DirectMappedCache::new_assoc(8 * 1024, 32, 4);
        for i in 0..4u64 {
            c.fill(VAddr(i * 1024), i == 2); // all map to set 0 region...
        }
        let (n, d) = c.invalidate_range(VAddr(2 * 1024), 32);
        assert_eq!((n, d), (1, 1));
        assert!(c.contains(VAddr(0)));
    }

    #[test]
    #[should_panic]
    fn assoc_rejects_ways_exceeding_capacity() {
        let _ = DirectMappedCache::new_assoc(64, 32, 4);
    }

    #[test]
    fn mark_dirty_only_affects_resident_line() {
        let mut c = l1();
        c.fill(VAddr(0), false);
        c.mark_dirty(VAddr(8192)); // different line, same set: no-op
        let v = c.fill(VAddr(8192), false).unwrap();
        assert!(!v.dirty);
    }
}
