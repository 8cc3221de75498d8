//! The home-node directory: per-block coherence state + refetch counters.
//!
//! Every 128-byte DSM block has a directory entry at its page's home node
//! tracking the *copyset* (which nodes hold a copy) and the dirty owner, as
//! in the paper's Figure 1 DSM controller.  The directory also maintains
//! the R-NUMA-style "array of counters that tracks for each page the number
//! of times that each processor has refetched a line from that page":
//! whenever a request arrives from a node that is *already in the copyset*
//! of the requested block, the request is a conflict/capacity refetch and
//! the per-(page, node) counter is incremented.
//!
//! The directory is pure protocol state — cycle costs for lookups and
//! forwards are charged by the machine layer (`ascoma` core), which knows
//! about busses and the network.
//!
//! # Miss classification
//!
//! The paper's right-column charts distinguish where misses landed and why:
//!
//! * `ColdEssential` — the node has never fetched this block.
//! * `ColdInduced` — the node's copy was flushed by a page remapping
//!   (upgrade or downgrade); the re-fetch is an artifact of the hybrid
//!   architecture's page movement ("the contents of both the hot page and
//!   any victim page ... must be flushed from the processor cache(s)").
//! * `Refetch` — the node is still in the copyset: a conflict/capacity
//!   miss (this is what increments the relocation counters).
//! * `Coherence` — the node's copy was invalidated by another writer.

use ascoma_sim::addr::{BlockId, Geometry, VPage};
use ascoma_sim::{NodeId, NodeSet};

/// Why a remote fetch happened, from the directory's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchClass {
    /// First fetch of this block by this node, ever.
    ColdEssential,
    /// Re-fetch forced by a remap/downgrade flush.
    ColdInduced,
    /// Conflict/capacity re-fetch (node still in copyset) — increments the
    /// page's refetch counter.
    Refetch,
    /// Re-fetch after a coherence invalidation.
    Coherence,
}

/// Outcome of a directory fetch transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchOutcome {
    /// Why the fetch happened.
    pub class: FetchClass,
    /// If the block was dirty at another node, that node (a 3-hop
    /// forwarding transaction).
    pub forward_from: Option<NodeId>,
    /// Copies that must be invalidated (write fetches only).
    pub invalidate: NodeSet,
    /// The refetch count for (page, node) after this transaction.
    pub refetch_count: u32,
}

/// A per-entry node bitset: `u16` for the packed (≤16-node) store, `u64`
/// for the wide fallback.  Abstracts just enough for the entry-mutation
/// helpers to be written once and monomorphized per store.
trait Mask:
    Copy
    + Eq
    + Default
    + std::ops::BitAnd<Output = Self>
    + std::ops::BitOrAssign
    + std::ops::BitAndAssign
    + std::ops::Not<Output = Self>
{
    /// Node-count capacity of this mask width.
    const CAP: usize;
    /// The presence bit of `node`.
    fn bit(node: NodeId) -> Self;
    /// Widen to the public [`NodeSet`] type.
    fn widen(self) -> NodeSet;
    /// Whether any bit is set.
    #[inline]
    fn any(self) -> bool {
        self != Self::default()
    }
}

impl Mask for u16 {
    const CAP: usize = 16;
    #[inline]
    fn bit(node: NodeId) -> Self {
        debug_assert!(node.idx() < Self::CAP);
        1 << node.0
    }
    #[inline]
    fn widen(self) -> NodeSet {
        NodeSet(self as u64)
    }
}

impl Mask for u64 {
    const CAP: usize = 64;
    #[inline]
    fn bit(node: NodeId) -> Self {
        debug_assert!(node.idx() < Self::CAP);
        1 << node.0
    }
    #[inline]
    fn widen(self) -> NodeSet {
        NodeSet(self)
    }
}

/// Per-block directory entry: 8 bytes packed (`M = u16`), 32 wide.
#[derive(Debug, Clone, Copy)]
struct BlockEntry<M> {
    /// Bitset of nodes holding a (possibly stale-tracked) copy.
    copyset: M,
    /// Bitset of nodes that have fetched this block at least once, ever.
    ever: M,
    /// Bitset of nodes whose copy was dropped by a remap flush; their
    /// next fetch is an induced cold miss.
    induced: M,
    /// Dirty owner id, [`NO_OWNER`] when the block is clean at home.
    owner: u16,
}

/// Owner sentinel: no node holds the block dirty.  All ones, which
/// `flush_entry` relies on.
const NO_OWNER: u16 = u16::MAX;

/// Node-count ceiling imposed by the wide entry's `u64` bitsets.
pub const MAX_NODES: usize = 64;

impl<M: Mask> Default for BlockEntry<M> {
    fn default() -> Self {
        Self {
            copyset: M::default(),
            ever: M::default(),
            induced: M::default(),
            owner: NO_OWNER,
        }
    }
}

/// The block-entry array, monomorphized by mask width.
///
/// The directory is the largest randomly-indexed structure in the
/// simulator (megabytes for the big sweep cells), so entry size is
/// directly DRAM traffic on the per-miss path: the packed store fits 8
/// entries per cache line versus 2 with `NodeSet`/`Option<NodeId>`
/// fields.  Every modeled sweep configuration uses 8 nodes and takes the
/// packed arm; the wide arm exists for the ≤[`MAX_NODES`] scaling-study
/// machines.  The public API speaks [`NodeSet`] either way, converted at
/// the boundary; the per-call `match` is one perfectly-predicted branch.
#[derive(Debug, Clone)]
enum BlockStore {
    /// ≤16 nodes: 8-byte entries.
    Packed(Vec<BlockEntry<u16>>),
    /// 17–64 nodes: `u64` masks.
    Wide(Vec<BlockEntry<u64>>),
}

/// Read-only widened view of one entry, for accessors and validation.
#[derive(Debug, Clone, Copy)]
struct EntryView {
    copyset: NodeSet,
    ever: NodeSet,
    induced: NodeSet,
    owner: Option<NodeId>,
}

#[inline]
fn view<M: Mask>(e: &BlockEntry<M>) -> EntryView {
    EntryView {
        copyset: e.copyset.widen(),
        ever: e.ever.widen(),
        induced: e.induced.widen(),
        owner: (e.owner != NO_OWNER).then_some(NodeId(e.owner)),
    }
}

/// Entry mutation for [`Directory::fetch`]: classify the miss, then apply
/// copyset/owner/ever/induced updates.  Returns the classification, the
/// forward source, and the raw invalidation set (write fetches).
#[inline]
fn fetch_entry<M: Mask>(
    e: &mut BlockEntry<M>,
    node: NodeId,
    write: bool,
) -> (FetchClass, Option<NodeId>, NodeSet) {
    // Classify before mutating membership: a 3-bit (ever, induced,
    // copyset) membership index into a constant table.  Miss classes
    // are effectively random across blocks, so a branch chain here
    // mispredicts heavily on the hottest protocol path.
    const CLASS: [FetchClass; 8] = [
        FetchClass::ColdEssential, // never fetched (low bits moot:
        FetchClass::ColdEssential, // induced/copyset ⊆ ever)
        FetchClass::ColdEssential,
        FetchClass::ColdEssential,
        FetchClass::Coherence,   // ever, not induced, not in copyset
        FetchClass::Refetch,     // ever, not induced, still a sharer
        FetchClass::ColdInduced, // ever, induced (copyset clear by
        FetchClass::ColdInduced, // the induced ∩ copyset invariant)
    ];
    let b = M::bit(node);
    let idx = (((e.ever & b).any() as usize) << 2)
        | (((e.induced & b).any() as usize) << 1)
        | (e.copyset & b).any() as usize;
    let class = CLASS[idx];

    // A dirty remote owner forces a 3-hop forward (ownership is
    // returned home; the owner keeps a shared copy on reads).
    let forward_from = (e.owner != NO_OWNER && e.owner != node.0).then_some(NodeId(e.owner));

    let mut invalidate = NodeSet::empty();
    if write {
        invalidate = (e.copyset & !b).widen();
        e.copyset = b;
        e.owner = node.0;
    } else {
        if e.owner != NO_OWNER && e.owner != node.0 {
            // Dirty data written back home; owner downgrades to shared.
            e.owner = NO_OWNER;
        }
        e.copyset |= b;
    }
    e.ever |= b;
    e.induced &= !b;
    (class, forward_from, invalidate)
}

/// Entry mutation for [`Directory::flush_page`]: drop `node`'s copy and
/// mark it induced-cold.  Returns `(dropped, was_dirty)`.  Written as
/// masks rather than an early return or selects (which the compiler may
/// turn back into branches): a page flush folds it over 32 entries whose
/// membership is unpredictable.
#[inline]
fn flush_entry<M: Mask>(e: &mut BlockEntry<M>, node: NodeId) -> (bool, bool) {
    // `node`'s bit if it holds a copy, else empty.
    let held = e.copyset & M::bit(node);
    let dropped = held.any();
    let dirty = dropped & (e.owner == node.0);
    e.copyset &= !held;
    e.induced |= held;
    // NO_OWNER is all ones: OR-ing an all-ones mask returns ownership
    // home, a zero mask keeps it.
    e.owner |= (dirty as u16).wrapping_neg();
    (dropped, dirty)
}

/// [`flush_entry`] over a page's contiguous entries.  Returns
/// `(dropped, dirty)` counts.
#[inline]
fn flush_entries<M: Mask>(entries: &mut [BlockEntry<M>], node: NodeId) -> (u32, u32) {
    entries.iter_mut().fold((0, 0), |(n, d), e| {
        let (dropped, dirty) = flush_entry(e, node);
        (n + dropped as u32, d + dirty as u32)
    })
}

/// Entry mutation for [`Directory::writeback`]: ownership returns home.
#[inline]
fn writeback_entry<M: Mask>(e: &mut BlockEntry<M>, node: NodeId) {
    if e.owner == node.0 {
        e.owner = NO_OWNER;
    }
}

/// Entry mutation for [`Directory::upgrade`]: exclusivity to `node`.
/// Returns the copies to invalidate.
#[inline]
fn upgrade_entry<M: Mask>(e: &mut BlockEntry<M>, node: NodeId) -> NodeSet {
    let nb = M::bit(node);
    debug_assert!((e.copyset & nb).any(), "upgrade from non-sharer {node}");
    let invalidate = (e.copyset & !nb).widen();
    e.copyset = nb;
    e.owner = node.0;
    invalidate
}

/// Seeded directory faults for conformance-checker self-tests: each must
/// be caught by the invariant catalog with a replayable counterexample.
/// Only constructible under the `check` feature; release builds carry no
/// fault state.
#[cfg(feature = "check")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirFault {
    /// `fetch(write)` silently omits one sharer from the returned
    /// invalidation set while still resetting the copyset, leaving that
    /// sharer with a stale valid copy.
    SkipInvalidation,
    /// `fetch(read)` of a block with a dirty remote owner returns no
    /// `forward_from`, while the entry still drops the owner: the owner
    /// is never told to write back and downgrade, so its dirty copy
    /// outlives its directory ownership.
    SkipForward,
    /// `reset_refetch` becomes a no-op, so a relocated page's counter
    /// stays hot and the remap/evict cycle never quiesces (livelock).
    SkipRefetchReset,
}

/// The machine-wide directory (conceptually distributed across homes; the
/// home of a page only affects *where* lookups are charged, which the
/// machine layer handles).
#[derive(Debug, Clone)]
pub struct Directory {
    geometry: Geometry,
    nodes: usize,
    blocks: BlockStore,
    /// Refetch counters, `[page * nodes + node]`, saturating.
    refetch: Vec<u32>,
    /// Total refetches observed (Table 6 numerator input).
    total_refetches: u64,
    /// Whether any node has ever written to the page (read-only
    /// replication eligibility — the paper's §2.2: replication "has to
    /// date only been successful for read-only or non-shared pages").
    page_written: Vec<bool>,
    /// Nodes holding a read-only replica of each page.
    replicas: Vec<NodeSet>,
    /// Injected fault, checker self-test builds only.
    #[cfg(feature = "check")]
    fault: Option<DirFault>,
}

impl Directory {
    /// A directory covering `num_pages` shared pages for `nodes` nodes
    /// (at most [`MAX_NODES`] — the wide entry layout's ceiling).
    pub fn new(geometry: Geometry, num_pages: u64, nodes: usize) -> Self {
        assert!(
            nodes <= MAX_NODES,
            "directory entries support at most {MAX_NODES} nodes (got {nodes}); \
             widen BlockEntry's bitsets to grow the machine"
        );
        let nblocks = (num_pages * geometry.blocks_per_page() as u64) as usize;
        let blocks = if nodes <= <u16 as Mask>::CAP {
            BlockStore::Packed(vec![BlockEntry::default(); nblocks])
        } else {
            BlockStore::Wide(vec![BlockEntry::default(); nblocks])
        };
        Self {
            geometry,
            nodes,
            blocks,
            refetch: vec![0; num_pages as usize * nodes],
            total_refetches: 0,
            page_written: vec![false; num_pages as usize],
            replicas: vec![NodeSet::empty(); num_pages as usize],
            #[cfg(feature = "check")]
            fault: None,
        }
    }

    /// Arm (or disarm) a seeded fault.  Checker self-test builds only.
    #[cfg(feature = "check")]
    pub fn inject_fault(&mut self, fault: Option<DirFault>) {
        self.fault = fault;
    }

    #[inline]
    fn entry_view(&self, b: usize) -> EntryView {
        match &self.blocks {
            BlockStore::Packed(v) => view(&v[b]),
            BlockStore::Wide(v) => view(&v[b]),
        }
    }

    #[inline]
    fn num_blocks(&self) -> usize {
        match &self.blocks {
            BlockStore::Packed(v) => v.len(),
            BlockStore::Wide(v) => v.len(),
        }
    }

    #[inline]
    fn refetch_slot(&self, page: VPage, node: NodeId) -> usize {
        page.0 as usize * self.nodes + node.idx()
    }

    /// Process a fetch of `block` by `node` (`write` = needs exclusivity).
    ///
    /// Updates copyset/owner state and the refetch counter, and classifies
    /// the miss.  The caller applies the returned invalidations to the
    /// other nodes' caches and charges latencies.
    #[inline]
    pub fn fetch(&mut self, node: NodeId, block: BlockId, write: bool) -> FetchOutcome {
        let page = self.geometry.page_of_block(block);
        let slot = self.refetch_slot(page, node);
        self.page_written[page.0 as usize] |= write;
        let bi = block.0 as usize;
        let (class, forward_from, invalidate) = match &mut self.blocks {
            BlockStore::Packed(v) => fetch_entry(&mut v[bi], node, write),
            BlockStore::Wide(v) => fetch_entry(&mut v[bi], node, write),
        };

        // Seeded fault: drop one victim from the invalidation set the
        // caller will act on, while the copyset is reset normally —
        // that sharer keeps a stale valid copy.
        #[cfg(feature = "check")]
        let invalidate = {
            let mut invalidate = invalidate;
            if write && self.fault == Some(DirFault::SkipInvalidation) {
                if let Some(skip) = invalidate.iter().next() {
                    invalidate.remove(skip);
                }
            }
            invalidate
        };
        // Seeded fault: a read of a dirty block skips the 3-hop forward.
        #[cfg(feature = "check")]
        let forward_from = if !write && self.fault == Some(DirFault::SkipForward) {
            None
        } else {
            forward_from
        };

        // Conditional on purpose: an unconditional read-modify-write would
        // dirty the counter's cache line on every fetch, doubling the
        // directory's write traffic for the (majority) non-refetch classes.
        let refetch_count = if class == FetchClass::Refetch {
            self.total_refetches += 1;
            let c = &mut self.refetch[slot];
            *c = c.saturating_add(1);
            *c
        } else {
            self.refetch[slot]
        };

        self.debug_validate_entry(block);
        FetchOutcome {
            class,
            forward_from,
            invalidate,
            refetch_count,
        }
    }

    /// `node` flushes all of its copies within `page` (a remap flush:
    /// upgrade of this page, or eviction/downgrade of it).  Dirty blocks
    /// are written back home.  Returns `(blocks_dropped, dirty_blocks)`.
    ///
    /// Dropped blocks are marked so the node's next fetch of each is
    /// classified [`FetchClass::ColdInduced`].
    pub fn flush_page(&mut self, node: NodeId, page: VPage) -> (u32, u32) {
        // A page's blocks are numbered contiguously from its block 0.
        let first = self.geometry.block_id(page, 0).0 as usize;
        let blocks = first..first + self.geometry.blocks_per_page() as usize;
        let counts = match &mut self.blocks {
            BlockStore::Packed(v) => flush_entries(&mut v[blocks.clone()], node),
            BlockStore::Wide(v) => flush_entries(&mut v[blocks.clone()], node),
        };
        for b in blocks {
            self.debug_validate_entry(BlockId(b as u64));
        }
        counts
    }

    /// A permission-only upgrade: `node` already holds valid data for
    /// `block` (an L1/RAC/S-COMA hit) and requests exclusivity to write.
    /// No data moves and no refetch is counted (the counters measure data
    /// re-fetches, i.e. conflict misses, not write upgrades).  Returns the
    /// copies to invalidate.
    pub fn upgrade(&mut self, node: NodeId, block: BlockId) -> NodeSet {
        let page = self.geometry.page_of_block(block);
        self.page_written[page.0 as usize] = true;
        let bi = block.0 as usize;
        let invalidate = match &mut self.blocks {
            BlockStore::Packed(v) => upgrade_entry(&mut v[bi], node),
            BlockStore::Wide(v) => upgrade_entry(&mut v[bi], node),
        };
        self.debug_validate_entry(block);
        invalidate
    }

    /// A dirty line/block eviction writeback from `node` (cache victim).
    /// Ownership returns home; the node is treated as no longer holding
    /// the block (its next miss to it is a conflict refetch — matching the
    /// paper, where cache-capacity victims are precisely the source of
    /// refetches... except the directory cannot see silent clean
    /// evictions, so only *dirty* victims relinquish membership here; see
    /// `fetch`, where re-requests from copyset members classify as
    /// refetches).
    pub fn writeback(&mut self, node: NodeId, block: BlockId) {
        let bi = block.0 as usize;
        match &mut self.blocks {
            BlockStore::Packed(v) => writeback_entry(&mut v[bi], node),
            BlockStore::Wide(v) => writeback_entry(&mut v[bi], node),
        }
        self.debug_validate_entry(block);
    }

    /// Current refetch counter for `(page, node)`.
    pub fn refetch_count(&self, page: VPage, node: NodeId) -> u32 {
        self.refetch[self.refetch_slot(page, node)]
    }

    /// Reset the refetch counter for `(page, node)` (done when the page is
    /// relocated, so the counter measures refetches in the current mode).
    pub fn reset_refetch(&mut self, page: VPage, node: NodeId) {
        // Seeded fault: the relocated page's counter stays hot, so the
        // back-off/relocation cycle never quiesces.
        #[cfg(feature = "check")]
        if self.fault == Some(DirFault::SkipRefetchReset) {
            return;
        }
        let slot = self.refetch_slot(page, node);
        self.refetch[slot] = 0;
    }

    /// Total refetches observed machine-wide.
    pub fn total_refetches(&self) -> u64 {
        self.total_refetches
    }

    /// Whether `node` currently holds a tracked copy of `block`.
    pub fn in_copyset(&self, node: NodeId, block: BlockId) -> bool {
        self.entry_view(block.0 as usize).copyset.contains(node)
    }

    /// The full copyset of `block` (invariant checking / inspection).
    pub fn copyset_of(&self, block: BlockId) -> NodeSet {
        self.entry_view(block.0 as usize).copyset
    }

    /// The dirty owner of `block`, if any.
    pub fn owner_of(&self, block: BlockId) -> Option<NodeId> {
        self.entry_view(block.0 as usize).owner
    }

    /// Nodes that have ever fetched `block` (canonical-state input for
    /// the conformance checker).
    pub fn ever_of(&self, block: BlockId) -> NodeSet {
        self.entry_view(block.0 as usize).ever
    }

    /// Nodes whose next fetch of `block` classifies as induced-cold.
    pub fn induced_of(&self, block: BlockId) -> NodeSet {
        self.entry_view(block.0 as usize).induced
    }

    /// Number of nodes whose refetch count on `page` reached `threshold`.
    pub fn nodes_at_threshold(&self, page: VPage, threshold: u32) -> usize {
        (0..self.nodes)
            .filter(|&n| self.refetch_count(page, NodeId(n as u16)) >= threshold)
            .count()
    }

    /// Whether any node has ever written to `page`.
    pub fn page_written(&self, page: VPage) -> bool {
        self.page_written[page.0 as usize]
    }

    /// Register `node` as a read-only replica holder of `page`.  Returns
    /// `false` (and registers nothing) if the page has already been
    /// written — such pages are not replication-eligible.
    pub fn add_replica(&mut self, node: NodeId, page: VPage) -> bool {
        if self.page_written[page.0 as usize] {
            return false;
        }
        self.replicas[page.0 as usize].insert(node);
        true
    }

    /// Drop `node`'s replica registration for `page` (local eviction).
    pub fn remove_replica(&mut self, node: NodeId, page: VPage) {
        self.replicas[page.0 as usize].remove(node);
    }

    /// The first write to a replicated page: returns the replica holders
    /// (other than the writer) whose copies must be collapsed back to
    /// CC-NUMA mappings, and clears the replica set.  Idempotent.
    pub fn collapse_replicas(&mut self, writer: NodeId, page: VPage) -> NodeSet {
        self.page_written[page.0 as usize] = true;
        let holders = self.replicas[page.0 as usize].without(writer);
        self.replicas[page.0 as usize] = NodeSet::empty();
        holders
    }

    /// Current replica holders of `page`.
    pub fn replicas_of(&self, page: VPage) -> NodeSet {
        self.replicas[page.0 as usize]
    }

    /// The geometry this directory was built with.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Structural self-check of one block entry.  Returns the first
    /// violated rule, if any.
    fn entry_error(&self, b: usize) -> Option<String> {
        let e = self.entry_view(b);
        if let Some(o) = e.owner {
            if e.copyset != NodeSet::single(o) {
                return Some(format!(
                    "block {b}: owner {o} but copyset {:?} (exclusivity broken)",
                    e.copyset
                ));
            }
        }
        for set in [e.copyset, e.induced] {
            for n in set.iter() {
                if n.idx() >= self.nodes {
                    return Some(format!("block {b}: out-of-range node {n} tracked"));
                }
                if !e.ever.contains(n) {
                    return Some(format!(
                        "block {b}: node {n} tracked without ever having fetched"
                    ));
                }
            }
        }
        let both = NodeSet(e.induced.0 & e.copyset.0);
        if !both.is_empty() {
            return Some(format!(
                "block {b}: nodes {both:?} both in copyset and induced-cold"
            ));
        }
        None
    }

    /// Full-directory structural self-check: per-entry rules (owner
    /// exclusivity, membership ⊆ ever-fetched, induced ∩ copyset empty,
    /// node range) plus replica bookkeeping (replicated pages are
    /// unwritten).  `O(blocks × nodes)` — meant for barrier-time and
    /// test probes, not per-access paths.
    pub fn validate(&self) -> Result<(), String> {
        for b in 0..self.num_blocks() {
            if let Some(e) = self.entry_error(b) {
                return Err(e);
            }
        }
        for (p, holders) in self.replicas.iter().enumerate() {
            if !holders.is_empty() && self.page_written[p] {
                return Err(format!("page {p}: written page still holds replicas"));
            }
        }
        Ok(())
    }

    /// Per-mutation entry hook: active in debug builds and `check`-feature
    /// builds, compiled out otherwise.
    #[inline]
    #[allow(unused_variables)]
    fn debug_validate_entry(&self, b: BlockId) {
        #[cfg(any(debug_assertions, feature = "check"))]
        if let Some(e) = self.entry_error(b.0 as usize) {
            panic!("directory entry invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> Directory {
        Directory::new(Geometry::paper(), 16, 8)
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    #[test]
    fn first_fetch_is_essential_cold() {
        let mut d = dir();
        let out = d.fetch(N0, BlockId(0), false);
        assert_eq!(out.class, FetchClass::ColdEssential);
        assert_eq!(out.forward_from, None);
        assert!(out.invalidate.is_empty());
        assert_eq!(out.refetch_count, 0);
        assert!(d.in_copyset(N0, BlockId(0)));
    }

    #[test]
    fn refetch_from_copyset_member_increments_counter() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        let out = d.fetch(N0, BlockId(0), false);
        assert_eq!(out.class, FetchClass::Refetch);
        assert_eq!(out.refetch_count, 1);
        assert_eq!(d.refetch_count(VPage(0), N0), 1);
        assert_eq!(d.total_refetches(), 1);
    }

    #[test]
    fn refetch_counters_are_per_page_per_node() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        d.fetch(N0, BlockId(0), false);
        d.fetch(N1, BlockId(0), false);
        assert_eq!(d.refetch_count(VPage(0), N0), 1);
        assert_eq!(d.refetch_count(VPage(0), N1), 0);
        // Block in a different page.
        let other = d.geometry().block_id(VPage(1), 0);
        d.fetch(N0, other, false);
        d.fetch(N0, other, false);
        assert_eq!(d.refetch_count(VPage(1), N0), 1);
        assert_eq!(d.refetch_count(VPage(0), N0), 1);
    }

    #[test]
    fn refetches_on_same_page_accumulate_across_blocks() {
        let mut d = dir();
        let g = d.geometry();
        for i in 0..4 {
            let b = g.block_id(VPage(0), i);
            d.fetch(N0, b, false);
            d.fetch(N0, b, false);
        }
        assert_eq!(d.refetch_count(VPage(0), N0), 4);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        d.fetch(N1, BlockId(0), false);
        let out = d.fetch(N2, BlockId(0), true);
        assert!(out.invalidate.contains(N0));
        assert!(out.invalidate.contains(N1));
        assert!(!out.invalidate.contains(N2));
        assert_eq!(d.owner_of(BlockId(0)), Some(N2));
        assert!(!d.in_copyset(N0, BlockId(0)));
    }

    #[test]
    fn invalidated_sharer_refetches_as_coherence_miss() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        d.fetch(N1, BlockId(0), true); // invalidates N0
        let out = d.fetch(N0, BlockId(0), false);
        assert_eq!(out.class, FetchClass::Coherence);
        // Coherence misses do not advance the refetch counter.
        assert_eq!(d.refetch_count(VPage(0), N0), 0);
    }

    #[test]
    fn dirty_remote_read_forwards_and_downgrades() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), true);
        let out = d.fetch(N1, BlockId(0), false);
        assert_eq!(out.forward_from, Some(N0));
        assert_eq!(d.owner_of(BlockId(0)), None);
        assert!(d.in_copyset(N0, BlockId(0)));
        assert!(d.in_copyset(N1, BlockId(0)));
    }

    #[test]
    fn dirty_remote_write_forwards_and_transfers_ownership() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), true);
        let out = d.fetch(N1, BlockId(0), true);
        assert_eq!(out.forward_from, Some(N0));
        assert!(out.invalidate.contains(N0));
        assert_eq!(d.owner_of(BlockId(0)), Some(N1));
    }

    #[test]
    fn owner_write_hit_upgrade_keeps_ownership() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), true);
        let out = d.fetch(N0, BlockId(0), true);
        assert_eq!(out.forward_from, None);
        assert_eq!(out.class, FetchClass::Refetch);
        assert_eq!(d.owner_of(BlockId(0)), Some(N0));
    }

    #[test]
    fn flush_page_marks_induced_cold() {
        let mut d = dir();
        let g = d.geometry();
        let b0 = g.block_id(VPage(2), 0);
        let b1 = g.block_id(VPage(2), 1);
        d.fetch(N0, b0, false);
        d.fetch(N0, b1, true);
        let (dropped, dirty) = d.flush_page(N0, VPage(2));
        assert_eq!(dropped, 2);
        assert_eq!(dirty, 1);
        assert!(!d.in_copyset(N0, b0));
        let out = d.fetch(N0, b0, false);
        assert_eq!(out.class, FetchClass::ColdInduced);
        // Once re-fetched, subsequent conflict misses are refetches again.
        let out2 = d.fetch(N0, b0, false);
        assert_eq!(out2.class, FetchClass::Refetch);
    }

    #[test]
    fn flush_page_of_nonresident_node_is_noop() {
        let mut d = dir();
        let (dropped, dirty) = d.flush_page(N1, VPage(3));
        assert_eq!((dropped, dirty), (0, 0));
    }

    #[test]
    fn writeback_clears_ownership_only_for_owner() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), true);
        d.writeback(N1, BlockId(0));
        assert_eq!(d.owner_of(BlockId(0)), Some(N0));
        d.writeback(N0, BlockId(0));
        assert_eq!(d.owner_of(BlockId(0)), None);
    }

    #[test]
    fn upgrade_invalidates_sharers_without_counting_refetch() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        d.fetch(N1, BlockId(0), false);
        let inv = d.upgrade(N0, BlockId(0));
        assert!(inv.contains(N1));
        assert!(!inv.contains(N0));
        assert_eq!(d.owner_of(BlockId(0)), Some(N0));
        assert_eq!(d.refetch_count(VPage(0), N0), 0);
        assert!(!d.in_copyset(N1, BlockId(0)));
    }

    #[test]
    fn upgrade_with_no_sharers_is_cheap() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        let inv = d.upgrade(N0, BlockId(0));
        assert!(inv.is_empty());
        assert_eq!(d.owner_of(BlockId(0)), Some(N0));
    }

    #[test]
    fn reset_refetch_zeroes_counter() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        d.fetch(N0, BlockId(0), false);
        d.reset_refetch(VPage(0), N0);
        assert_eq!(d.refetch_count(VPage(0), N0), 0);
    }

    #[test]
    fn read_only_pages_accept_replicas() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        assert!(!d.page_written(VPage(0)));
        assert!(d.add_replica(N1, VPage(0)));
        assert!(d.replicas_of(VPage(0)).contains(N1));
    }

    #[test]
    fn written_pages_refuse_replicas() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), true);
        assert!(d.page_written(VPage(0)));
        assert!(!d.add_replica(N1, VPage(0)));
        assert!(d.replicas_of(VPage(0)).is_empty());
    }

    #[test]
    fn upgrade_marks_page_written() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        d.upgrade(N0, BlockId(0));
        assert!(d.page_written(VPage(0)));
    }

    #[test]
    fn collapse_returns_other_holders_and_clears() {
        let mut d = dir();
        d.fetch(N0, BlockId(0), false);
        assert!(d.add_replica(N1, VPage(0)));
        assert!(d.add_replica(N2, VPage(0)));
        let shoot = d.collapse_replicas(N1, VPage(0));
        assert!(shoot.contains(N2));
        assert!(!shoot.contains(N1));
        assert!(d.replicas_of(VPage(0)).is_empty());
        assert!(d.page_written(VPage(0)));
        // Idempotent.
        assert!(d.collapse_replicas(N1, VPage(0)).is_empty());
    }

    #[test]
    fn remove_replica_is_local() {
        let mut d = dir();
        assert!(d.add_replica(N1, VPage(1)));
        assert!(d.add_replica(N2, VPage(1)));
        d.remove_replica(N1, VPage(1));
        assert!(!d.replicas_of(VPage(1)).contains(N1));
        assert!(d.replicas_of(VPage(1)).contains(N2));
    }

    #[cfg(feature = "check")]
    #[test]
    fn skip_forward_fault_drops_only_the_read_forward() {
        let mut d = dir();
        d.inject_fault(Some(DirFault::SkipForward));
        d.fetch(N0, BlockId(0), true);
        let out = d.fetch(N1, BlockId(0), false);
        assert_eq!(out.forward_from, None, "read forward skipped");
        assert_eq!(d.owner_of(BlockId(0)), None, "owner still dropped");
        d.fetch(N0, BlockId(1), true);
        let out = d.fetch(N1, BlockId(1), true);
        assert_eq!(out.forward_from, Some(N0), "write forward kept");
    }

    #[test]
    fn nodes_at_threshold_counts_hot_requesters() {
        let mut d = dir();
        for _ in 0..5 {
            d.fetch(N0, BlockId(0), false);
        }
        d.fetch(N1, BlockId(0), false);
        assert_eq!(d.nodes_at_threshold(VPage(0), 2), 1);
        assert_eq!(d.nodes_at_threshold(VPage(0), 100), 0);
    }
}
