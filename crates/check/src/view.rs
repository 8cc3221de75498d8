//! A borrowed, read-only view of one machine's checkable state.
//!
//! The core `Machine` owns the directory, per-node page tables, frame
//! pools, and policy state; invariants need to cross-reference all of
//! them (e.g. directory copysets against S-COMA valid bits).  Rather
//! than have `ascoma-check` depend on the core crate (which depends on
//! this one), the core packs borrows into a [`MachineView`] and hands it
//! to [`crate::check_all`].

use ascoma_obs::ThresholdStep;
use ascoma_proto::Directory;
use ascoma_sim::addr::Geometry;
use ascoma_sim::NodeId;
use ascoma_vm::{FramePool, PageTable};

/// One node's checkable state.
pub struct NodeView<'a> {
    /// The node's id.
    pub id: NodeId,
    /// The node's page table (modes, valid bits, residency list).
    pub pt: &'a PageTable,
    /// The node's frame pool.
    pub pool: &'a FramePool,
    /// The node's current refetch threshold.
    pub threshold: u32,
    /// Whether thrashing back-off has latched relocation off.
    pub relocation_disabled: bool,
    /// The node's threshold *changes* (cycle, new value) so far — the
    /// cycle-0 initial-value sentinel, if the producer records one, must
    /// be stripped; a fixed-threshold architecture presents an empty
    /// slice.
    pub trajectory: &'a [ThresholdStep],
}

/// A read-only snapshot of everything the invariant catalog inspects.
pub struct MachineView<'a> {
    /// Address-space geometry (page/block/line sizes).
    pub geometry: Geometry,
    /// Number of shared pages in the DSM segment.
    pub shared_pages: u64,
    /// The machine-wide directory.
    pub dir: &'a Directory,
    /// Home node of each shared page, indexed by page.
    pub homes: &'a [NodeId],
    /// Per-node state.
    pub nodes: Vec<NodeView<'a>>,
    /// The architecture's starting refetch threshold.
    pub initial_threshold: u32,
    /// Threshold cap beyond which relocation is disabled.
    pub threshold_cap: u32,
    /// Whether this architecture ever moves the threshold (VC-NUMA, or
    /// AS-COMA with back-off enabled).
    pub threshold_adaptive: bool,
    /// Whether the threshold cap latches relocation off (AS-COMA with
    /// back-off; VC-NUMA raises freely and never latches).
    pub threshold_capped: bool,
    /// Whether this architecture ever maps S-COMA pages (everything but
    /// plain CC-NUMA without read-only replication).
    pub uses_page_cache: bool,
}

impl MachineView<'_> {
    /// Total DSM blocks covered by the directory.
    pub fn total_blocks(&self) -> u64 {
        self.shared_pages * u64::from(self.geometry.blocks_per_page())
    }
}
