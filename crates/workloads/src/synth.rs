//! Building blocks for the synthetic workload generators: page-aligned
//! region allocation with first-touch recording, and access-pattern
//! helpers (sweeps, strided reads, scatters).

use crate::trace::Segment;
use ascoma_sim::NodeId;

/// A page-aligned region of the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Extent in bytes (page-aligned).
    pub bytes: u64,
}

impl Region {
    /// Byte address of `offset` within the region (bounds-checked in debug).
    #[inline]
    pub fn addr(&self, offset: u64) -> u64 {
        debug_assert!(offset < self.bytes, "offset {offset} out of region");
        self.base + offset
    }

    /// The contiguous sub-slab belonging to `node` when the region is
    /// block-partitioned among `nodes` nodes (page-aligned split).
    pub fn slab(&self, node: usize, nodes: usize, page_bytes: u64) -> Region {
        let pages = self.bytes / page_bytes;
        let per = pages / nodes as u64;
        let extra = pages % nodes as u64;
        // First `extra` nodes get one extra page.
        let start_page = node as u64 * per + (node as u64).min(extra);
        let my_pages = per + if (node as u64) < extra { 1 } else { 0 };
        Region {
            base: self.base + start_page * page_bytes,
            bytes: my_pages * page_bytes,
        }
    }

    /// Number of pages spanned.
    pub fn pages(&self, page_bytes: u64) -> u64 {
        self.bytes / page_bytes
    }
}

/// Page-aligned shared-space allocator that records each page's first
/// toucher (the input to the kernel's first-touch home placement).
#[derive(Debug, Clone)]
pub struct Arena {
    page_bytes: u64,
    first_toucher: Vec<NodeId>,
}

impl Arena {
    /// An empty arena with the given page size.
    pub fn new(page_bytes: u64) -> Self {
        assert!(page_bytes.is_power_of_two());
        Self {
            page_bytes,
            first_toucher: Vec::new(),
        }
    }

    /// Allocate `bytes` (rounded up to whole pages); `toucher(i)` names the
    /// node that first touches the `i`-th page of the new region.
    pub fn alloc(&mut self, bytes: u64, toucher: impl Fn(u64) -> NodeId) -> Region {
        let pages = bytes.div_ceil(self.page_bytes).max(1);
        let base = self.first_toucher.len() as u64 * self.page_bytes;
        for i in 0..pages {
            self.first_toucher.push(toucher(i));
        }
        Region {
            base,
            bytes: pages * self.page_bytes,
        }
    }

    /// Allocate a region block-partitioned among `nodes` nodes, each page
    /// first-touched by its owning node (per [`Region::slab`] boundaries).
    pub fn alloc_partitioned(&mut self, bytes: u64, nodes: usize) -> Region {
        let pages = bytes.div_ceil(self.page_bytes).max(1);
        let per = pages / nodes as u64;
        let extra = pages % nodes as u64;
        let owner = move |i: u64| {
            // Invert the slab split: find the node whose page range holds i.
            let mut n = 0u64;
            let mut start = 0u64;
            loop {
                let len = per + if n < extra { 1 } else { 0 };
                if i < start + len || n as usize == nodes - 1 {
                    return NodeId(n as u16);
                }
                start += len;
                n += 1;
            }
        };
        self.alloc(pages * self.page_bytes, owner)
    }

    /// Total pages allocated so far.
    pub fn pages(&self) -> u64 {
        self.first_toucher.len() as u64
    }

    /// Consume the arena, yielding the first-toucher table.
    pub fn into_first_toucher(self) -> Vec<NodeId> {
        self.first_toucher
    }

    /// The page size.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }
}

/// Append a strided sweep of `[base, base + bytes)` to `seg`.
pub fn sweep(seg: &mut Segment, base: u64, bytes: u64, stride: u64, write: bool) {
    debug_assert!(stride > 0);
    let mut a = base;
    while a < base + bytes {
        seg.push(a, write);
        a += stride;
    }
}

/// Append a private-memory sweep (node-local scratch/stack traffic).
pub fn sweep_private(seg: &mut Segment, offset: u64, bytes: u64, stride: u64, write: bool) {
    let mut a = offset;
    while a < offset + bytes {
        seg.push_private(a, write);
        a += stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_sim::NodeId;

    #[test]
    fn arena_allocates_page_aligned_consecutive() {
        let mut a = Arena::new(4096);
        let r1 = a.alloc(100, |_| NodeId(0));
        let r2 = a.alloc(8192, |_| NodeId(1));
        assert_eq!(r1.base, 0);
        assert_eq!(r1.bytes, 4096);
        assert_eq!(r2.base, 4096);
        assert_eq!(r2.bytes, 8192);
        assert_eq!(a.pages(), 3);
        assert_eq!(
            a.into_first_toucher(),
            vec![NodeId(0), NodeId(1), NodeId(1)]
        );
    }

    #[test]
    fn partitioned_alloc_assigns_owners_by_slab() {
        let mut a = Arena::new(4096);
        let r = a.alloc_partitioned(10 * 4096, 4);
        // 10 pages over 4 nodes: 3,3,2,2.
        let ft = a.into_first_toucher();
        assert_eq!(ft.len(), 10);
        assert_eq!(ft[..3], vec![NodeId(0); 3][..]);
        assert_eq!(ft[3..6], vec![NodeId(1); 3][..]);
        assert_eq!(ft[6..8], vec![NodeId(2); 2][..]);
        assert_eq!(ft[8..10], vec![NodeId(3); 2][..]);
        // Slab boundaries must agree with the owner assignment.
        let s0 = r.slab(0, 4, 4096);
        assert_eq!(s0.base, 0);
        assert_eq!(s0.pages(4096), 3);
        let s2 = r.slab(2, 4, 4096);
        assert_eq!(s2.base, 6 * 4096);
        assert_eq!(s2.pages(4096), 2);
    }

    #[test]
    fn slab_partition_covers_region_exactly() {
        let r = Region {
            base: 0,
            bytes: 13 * 4096,
        };
        let mut total = 0;
        let mut next = 0;
        for n in 0..5 {
            let s = r.slab(n, 5, 4096);
            assert_eq!(s.base, next);
            next = s.base + s.bytes;
            total += s.pages(4096);
        }
        assert_eq!(total, 13);
    }

    #[test]
    fn sweep_strides_through_range() {
        let mut s = Segment::new(0);
        sweep(&mut s, 64, 128, 32, false);
        let addrs: Vec<u64> = s.ops.iter().map(|o| o.addr()).collect();
        assert_eq!(addrs, vec![64, 96, 128, 160]);
        assert!(s.ops.iter().all(|o| !o.write() && !o.private()));
    }

    #[test]
    fn sweep_private_marks_ops_private() {
        let mut s = Segment::new(0);
        sweep_private(&mut s, 0, 64, 32, true);
        assert_eq!(s.ops.len(), 2);
        assert!(s.ops.iter().all(|o| o.private() && o.write()));
    }

    #[test]
    fn zero_byte_alloc_still_gets_a_page() {
        let mut a = Arena::new(4096);
        let r = a.alloc(0, |_| NodeId(0));
        assert_eq!(r.bytes, 4096);
    }
}
