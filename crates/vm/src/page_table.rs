//! Per-node page table: mapping modes, S-COMA block-valid bits, reference
//! bits, and the S-COMA residency list the pageout daemon's clock hand
//! walks.
//!
//! The S-COMA page-cache state ("a few bits per block, ~2 words per page" —
//! the paper's Table 2 storage cost) lives here: a per-page bitmask of
//! which 128-byte blocks hold valid data, the TLB reference bit used by the
//! second-chance replacement algorithm, and the per-page *local* refetch
//! counter VC-NUMA's thrashing detector consults.

use crate::mode::PageMode;
use ascoma_sim::addr::VPage;

/// Per-page, per-node VM state.
///
/// The TLB reference bit lives *outside* this struct (see
/// [`PageTable::touch`]): it is written on every shared access, so it
/// gets a dense byte array of its own and the hot path never pulls a
/// full entry's cache line just to set one bit.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    mode: PageMode,
    /// Per-block valid bits for S-COMA pages (bit i = block i valid).
    valid: u32,
    /// Refetches absorbed by this page since it became S-COMA-mapped
    /// (VC-NUMA's local counter).
    local_refetches: u32,
    /// Position+1 in the S-COMA residency list, 0 if not resident.
    scoma_pos: u32,
}

impl Default for PageEntry {
    fn default() -> Self {
        Self {
            mode: PageMode::Unmapped,
            valid: 0,
            local_refetches: 0,
            scoma_pos: 0,
        }
    }
}

/// One node's page table over the shared address space.
#[derive(Debug, Clone)]
pub struct PageTable {
    entries: Vec<PageEntry>,
    /// TLB reference bits (second-chance input), one byte per page so
    /// the per-access [`PageTable::touch`] is a single unconditional
    /// store into a dense array.
    referenced: Vec<u8>,
    /// S-COMA-resident pages, in residency order (clock-hand domain).
    scoma_pages: Vec<VPage>,
    blocks_per_page: u32,
    /// Seeded fault: `unmap_scoma` leaves its stale residency-list entry
    /// behind.  Checker self-test builds only.
    #[cfg(feature = "check")]
    fault_residency_leak: bool,
}

impl PageTable {
    /// A table covering `num_pages` shared pages of `blocks_per_page`
    /// DSM blocks each (`blocks_per_page <= 32`).
    pub fn new(num_pages: u64, blocks_per_page: u32) -> Self {
        assert!(blocks_per_page <= 32, "valid bitmap is 32 bits wide");
        Self {
            entries: vec![PageEntry::default(); num_pages as usize],
            referenced: vec![0; num_pages as usize],
            scoma_pages: Vec::new(),
            blocks_per_page,
            #[cfg(feature = "check")]
            fault_residency_leak: false,
        }
    }

    /// Arm the residency-leak fault.  Checker self-test builds only.
    #[cfg(feature = "check")]
    pub fn inject_residency_leak(&mut self, armed: bool) {
        self.fault_residency_leak = armed;
    }

    #[inline]
    fn e(&self, p: VPage) -> &PageEntry {
        &self.entries[p.0 as usize]
    }

    #[inline]
    fn e_mut(&mut self, p: VPage) -> &mut PageEntry {
        &mut self.entries[p.0 as usize]
    }

    /// Current mode of `page`.
    #[inline]
    pub fn mode(&self, page: VPage) -> PageMode {
        self.e(page).mode
    }

    /// Number of pages covered.
    pub fn num_pages(&self) -> usize {
        self.entries.len()
    }

    /// Mark `page` as homed at this node.
    pub fn map_home(&mut self, page: VPage) {
        debug_assert_eq!(self.e(page).mode, PageMode::Unmapped);
        self.e_mut(page).mode = PageMode::Home;
    }

    /// Map `page` in CC-NUMA mode.
    pub fn map_numa(&mut self, page: VPage) {
        let e = self.e_mut(page);
        debug_assert!(!e.mode.is_scoma(), "downgrade must go through unmap_scoma");
        e.mode = PageMode::Numa;
        self.referenced[page.0 as usize] = 1;
    }

    /// Map `page` in S-COMA mode backed by `frame`.  All blocks start
    /// invalid ("while the page mapping is valid, no remote data is
    /// actually cached in the local page yet").
    pub fn map_scoma(&mut self, page: VPage, frame: u32) {
        {
            let e = self.e_mut(page);
            debug_assert!(!e.mode.is_scoma());
            e.mode = PageMode::Scoma { frame };
            e.valid = 0;
            e.local_refetches = 0;
        }
        self.referenced[page.0 as usize] = 1;
        self.scoma_pages.push(page);
        let pos = self.scoma_pages.len() as u32;
        self.e_mut(page).scoma_pos = pos;
        self.debug_validate_residency(page);
    }

    /// Remove `page` from S-COMA mode, returning its frame.  The caller
    /// decides the successor mode (`Numa` for a downgrade, or the page may
    /// be immediately re-mapped).  Valid bits and the local refetch
    /// counter are cleared.
    pub fn unmap_scoma(&mut self, page: VPage) -> u32 {
        let (frame, pos) = match self.e(page).mode {
            PageMode::Scoma { frame } => (frame, self.e(page).scoma_pos),
            m => panic!("unmap_scoma on non-S-COMA page {page} ({m:?})"),
        };
        debug_assert!(pos > 0);
        let idx = (pos - 1) as usize;
        // Seeded fault: reset the entry but leave the stale residency-list
        // slot behind — per-page checks still pass; only a full
        // `validate()` (list length vs mapped count) can catch it.
        #[cfg(feature = "check")]
        if self.fault_residency_leak {
            let e = self.e_mut(page);
            e.mode = PageMode::Numa;
            e.valid = 0;
            e.local_refetches = 0;
            e.scoma_pos = 0;
            return frame;
        }
        // swap_remove from the residency list, fixing the moved page's slot.
        let last = self.scoma_pages.len() - 1;
        self.scoma_pages.swap_remove(idx);
        if idx != last {
            let moved = self.scoma_pages[idx];
            self.e_mut(moved).scoma_pos = pos;
            self.debug_validate_residency(moved);
        }
        let e = self.e_mut(page);
        e.mode = PageMode::Numa;
        e.valid = 0;
        e.local_refetches = 0;
        e.scoma_pos = 0;
        self.debug_validate_residency(page);
        frame
    }

    /// The S-COMA residency list (clock-hand domain), in residency order.
    pub fn scoma_pages(&self) -> &[VPage] {
        &self.scoma_pages
    }

    /// Number of S-COMA-resident pages.
    pub fn scoma_count(&self) -> usize {
        self.scoma_pages.len()
    }

    /// Whether S-COMA block `block_in_page` of `page` holds valid data.
    #[inline]
    pub fn block_valid(&self, page: VPage, block_in_page: u32) -> bool {
        debug_assert!(block_in_page < self.blocks_per_page);
        self.e(page).valid & (1 << block_in_page) != 0
    }

    /// Mark S-COMA block `block_in_page` of `page` valid.
    #[inline]
    pub fn set_block_valid(&mut self, page: VPage, block_in_page: u32) {
        debug_assert!(self.e(page).mode.is_scoma());
        self.e_mut(page).valid |= 1 << block_in_page;
    }

    /// Invalidate S-COMA block `block_in_page` of `page` (coherence
    /// invalidation from a remote writer).
    #[inline]
    pub fn clear_block_valid(&mut self, page: VPage, block_in_page: u32) {
        self.e_mut(page).valid &= !(1 << block_in_page);
    }

    /// Number of valid blocks currently cached in `page`'s frame.
    pub fn valid_blocks(&self, page: VPage) -> u32 {
        self.e(page).valid.count_ones()
    }

    /// Set the TLB reference bit (called on every access to the page):
    /// one unconditional byte store into a dense array.
    #[inline]
    pub fn touch(&mut self, page: VPage) {
        self.referenced[page.0 as usize] = 1;
    }

    /// Read and clear the reference bit (the pageout daemon's second-chance
    /// step).
    pub fn test_and_clear_referenced(&mut self, page: VPage) -> bool {
        std::mem::replace(&mut self.referenced[page.0 as usize], 0) != 0
    }

    /// Read the reference bit without clearing.
    pub fn referenced(&self, page: VPage) -> bool {
        self.referenced[page.0 as usize] != 0
    }

    /// Increment the page's local refetch counter (VC-NUMA bookkeeping):
    /// a remote fetch that filled this S-COMA page absorbed a would-be
    /// remote conflict miss.
    pub fn count_local_refetch(&mut self, page: VPage) {
        let e = self.e_mut(page);
        e.local_refetches = e.local_refetches.saturating_add(1);
    }

    /// The page's local refetch counter.
    pub fn local_refetches(&self, page: VPage) -> u32 {
        self.e(page).local_refetches
    }

    /// Residency bookkeeping rules for one page (O(1)).
    fn residency_error(&self, page: VPage) -> Option<String> {
        let e = self.e(page);
        match e.mode {
            PageMode::Scoma { .. } => {
                let pos = e.scoma_pos;
                if pos == 0 || pos as usize > self.scoma_pages.len() {
                    return Some(format!(
                        "S-COMA page {page} has residency position {pos} out of range"
                    ));
                }
                if self.scoma_pages[(pos - 1) as usize] != page {
                    return Some(format!(
                        "S-COMA page {page} residency slot {} holds {}",
                        pos - 1,
                        self.scoma_pages[(pos - 1) as usize]
                    ));
                }
            }
            _ => {
                if e.scoma_pos != 0 {
                    return Some(format!(
                        "non-S-COMA page {page} still on the residency list (pos {})",
                        e.scoma_pos
                    ));
                }
                if e.valid != 0 {
                    return Some(format!(
                        "non-S-COMA page {page} has valid bits {:#x}",
                        e.valid
                    ));
                }
            }
        }
        None
    }

    /// Full-table structural self-check: every residency-list entry is an
    /// S-COMA page whose back-pointer matches its slot, every non-resident
    /// page is off the list with no valid bits, and the list length equals
    /// the number of S-COMA-mapped pages.  `O(pages)` — for barrier-time
    /// and test probes.
    pub fn validate(&self) -> Result<(), String> {
        let mut scoma_modes = 0usize;
        for p in 0..self.entries.len() {
            let page = VPage(p as u64);
            if self.entries[p].mode.is_scoma() {
                scoma_modes += 1;
            }
            if let Some(e) = self.residency_error(page) {
                return Err(e);
            }
        }
        if scoma_modes != self.scoma_pages.len() {
            return Err(format!(
                "{} S-COMA-mapped pages but residency list holds {}",
                scoma_modes,
                self.scoma_pages.len()
            ));
        }
        Ok(())
    }

    /// Per-mutation residency hook: active in debug builds and
    /// `check`-feature builds, compiled out otherwise.
    #[inline]
    #[allow(unused_variables)]
    fn debug_validate_residency(&self, page: VPage) {
        #[cfg(any(debug_assertions, feature = "check"))]
        if let Some(e) = self.residency_error(page) {
            panic!("page-table residency invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt() -> PageTable {
        PageTable::new(64, 32)
    }

    #[test]
    fn pages_start_unmapped() {
        let t = pt();
        assert_eq!(t.mode(VPage(0)), PageMode::Unmapped);
        assert_eq!(t.num_pages(), 64);
        assert_eq!(t.scoma_count(), 0);
    }

    #[test]
    fn map_home_and_numa() {
        let mut t = pt();
        t.map_home(VPage(1));
        t.map_numa(VPage(2));
        assert_eq!(t.mode(VPage(1)), PageMode::Home);
        assert_eq!(t.mode(VPage(2)), PageMode::Numa);
    }

    #[test]
    fn scoma_blocks_start_invalid() {
        let mut t = pt();
        t.map_scoma(VPage(3), 7);
        assert_eq!(t.mode(VPage(3)), PageMode::Scoma { frame: 7 });
        for b in 0..32 {
            assert!(!t.block_valid(VPage(3), b));
        }
        assert_eq!(t.valid_blocks(VPage(3)), 0);
    }

    #[test]
    fn valid_bits_set_and_clear() {
        let mut t = pt();
        t.map_scoma(VPage(0), 0);
        t.set_block_valid(VPage(0), 5);
        t.set_block_valid(VPage(0), 31);
        assert!(t.block_valid(VPage(0), 5));
        assert_eq!(t.valid_blocks(VPage(0)), 2);
        t.clear_block_valid(VPage(0), 5);
        assert!(!t.block_valid(VPage(0), 5));
        assert!(t.block_valid(VPage(0), 31));
    }

    #[test]
    fn unmap_scoma_returns_frame_and_resets() {
        let mut t = pt();
        t.map_scoma(VPage(4), 9);
        t.set_block_valid(VPage(4), 0);
        t.count_local_refetch(VPage(4));
        let frame = t.unmap_scoma(VPage(4));
        assert_eq!(frame, 9);
        assert_eq!(t.mode(VPage(4)), PageMode::Numa);
        assert_eq!(t.valid_blocks(VPage(4)), 0);
        assert_eq!(t.local_refetches(VPage(4)), 0);
        assert_eq!(t.scoma_count(), 0);
    }

    #[test]
    fn residency_list_tracks_membership_through_swap_remove() {
        let mut t = pt();
        for (i, p) in [10u64, 11, 12, 13].iter().enumerate() {
            t.map_scoma(VPage(*p), i as u32);
        }
        assert_eq!(t.scoma_count(), 4);
        // Remove from the middle; the last page is swapped into its slot.
        t.unmap_scoma(VPage(11));
        assert_eq!(t.scoma_count(), 3);
        let pages: Vec<u64> = t.scoma_pages().iter().map(|p| p.0).collect();
        assert!(pages.contains(&10) && pages.contains(&12) && pages.contains(&13));
        // And the moved page can still be removed correctly.
        t.unmap_scoma(VPage(13));
        let pages: Vec<u64> = t.scoma_pages().iter().map(|p| p.0).collect();
        assert_eq!(pages.len(), 2);
        assert!(pages.contains(&10) && pages.contains(&12));
    }

    #[test]
    fn reference_bit_second_chance_cycle() {
        let mut t = pt();
        t.map_scoma(VPage(0), 0);
        // map_scoma sets the bit (the mapping access touched it).
        assert!(t.test_and_clear_referenced(VPage(0)));
        assert!(!t.test_and_clear_referenced(VPage(0)));
        t.touch(VPage(0));
        assert!(t.referenced(VPage(0)));
    }

    #[test]
    fn remap_after_downgrade_works() {
        let mut t = pt();
        t.map_scoma(VPage(0), 1);
        t.unmap_scoma(VPage(0));
        assert_eq!(t.mode(VPage(0)), PageMode::Numa);
        t.map_scoma(VPage(0), 2);
        assert_eq!(t.mode(VPage(0)), PageMode::Scoma { frame: 2 });
        assert_eq!(t.scoma_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unmap_scoma on non-S-COMA")]
    fn unmap_non_scoma_panics() {
        let mut t = pt();
        t.map_numa(VPage(0));
        t.unmap_scoma(VPage(0));
    }

    #[test]
    fn local_refetch_counter_saturates_upward() {
        let mut t = pt();
        t.map_scoma(VPage(0), 0);
        for _ in 0..5 {
            t.count_local_refetch(VPage(0));
        }
        assert_eq!(t.local_refetches(VPage(0)), 5);
    }
}
