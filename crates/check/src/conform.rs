//! Conformance harness: the explorers drive the **production** state
//! machines.
//!
//! A hand-written re-statement of the protocol would never show a bug
//! in the real `ascoma_proto::Directory`,
//! `ascoma_vm::{PageTable, FramePool, PageoutDaemon, BackoffState}` or
//! `ascoma_mem::DirectMappedCache` code.  This module implements
//! [`Harness`] directly over those production types:
//! each explored action calls the same `fetch` / `upgrade` /
//! `flush_page` / `map_scoma` / `unmap_scoma` / `run` methods the
//! simulator's machine layer calls, and every explored state is checked
//! against the full PR 3 invariant catalog through a [`MachineView`] —
//! plus two harness-level L1 conformance invariants the catalog cannot
//! see from live runs.
//!
//! Atomicity granularity: one action is one *completed* kernel/protocol
//! operation (the production directory is a synchronous state machine —
//! message-level interleaving lives in the legacy model).  Races arise
//! across nodes: node A can remap, evict, or run its pageout daemon
//! between node B's issue and completion.  A node with an outstanding
//! miss is blocked (the simulator's blocking-processor model), so its
//! only enabled action is the completion itself.
//!
//! Seeded faults ([`ConformMutation`]) arm the `cfg(feature = "check")`
//! fault hooks inside the production crates, so the self-test proves the
//! conformance layer catches real-code bugs, not model bugs.
//!
//! # Fault injection
//!
//! With [`ConformConfig::fault_budget`] `> 0` the explorer additionally
//! injects up to that many *message faults* per run: dropping or
//! duplicating a node's in-flight directory transaction.  A dropped
//! message has a matching *free* recovery action, `Resend`, enabled only
//! by the flag the drop set, so recovery provably terminates (every
//! fault consumes budget; no recovery action can re-enable itself).  A
//! duplicate needs no recovery: its `Complete` applies the transaction
//! twice.  Message *reordering* needs no action of its own: distinct
//! nodes' in-flight transactions are already interleaved in every order
//! by the explorer, and a single node's transactions are serial under
//! the blocking-processor model.
//!
//! Fault runs carry a ghost data-plane (per-block version counters and
//! per-node held-version tags) that powers three invariants the
//! structural catalog cannot express: `stale-copy` (a node serves data
//! older than the latest write), `stale-home` (a block that is clean at
//! home lost a write), and `rejoin-residency` (every node keeps a
//! mapping for every shared page through remap and evict).  Ghost state
//! enters the canonical encoding only when the budget is nonzero, so
//! `fault_budget = 0` explorations are state-for-state identical to the
//! plain conformance gate.

use crate::harness::Harness;
use crate::invariant::check_all;
use crate::view::{MachineView, NodeView};
use ascoma_mem::cache::{DirectMappedCache, Lookup};
use ascoma_obs::ThresholdStep;
use ascoma_proto::directory::DirFault;
use ascoma_proto::Directory;
use ascoma_sim::addr::{BlockId, Geometry, VPage};
use ascoma_sim::NodeId;
use ascoma_vm::backoff::{BackoffParams, BackoffState};
use ascoma_vm::{FramePool, PageMode, PageTable, PageoutDaemon};

/// A seeded bug in the production code (conformance self-test).  Each
/// arms a `cfg(feature = "check")` fault hook in a production crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConformMutation {
    /// [`DirFault::SkipInvalidation`]: the directory drops one victim
    /// from a write fetch's invalidation set — a stale copy survives.
    SkipInval,
    /// [`DirFault::SkipForward`]: a read of a dirty block never forwards
    /// to the owner — the owner keeps a dirty copy it no longer owns.
    SkipForward,
    /// [`FramePool::inject_leak_release`]: released frames vanish —
    /// frame conservation breaks after the first eviction.
    LeakFrame,
    /// [`PageTable::inject_residency_leak`]: `unmap_scoma` forgets the
    /// residency-list removal — the daemon's clock domain corrupts.
    ResidencyLeak,
    /// [`DirFault::SkipRefetchReset`]: relocation stops resetting the
    /// refetch counter — the liveness mutation (remap/evict livelock).
    SkipReset,
}

impl ConformMutation {
    /// The safety mutations (caught by an invariant on some reachable
    /// state).  [`ConformMutation::SkipReset`] is the liveness mutation,
    /// exercised separately via lasso detection.
    pub const SAFETY: [ConformMutation; 4] = [
        ConformMutation::SkipInval,
        ConformMutation::SkipForward,
        ConformMutation::LeakFrame,
        ConformMutation::ResidencyLeak,
    ];

    /// Stable identifier used in configuration labels and gate output.
    pub fn name(self) -> &'static str {
        match self {
            ConformMutation::SkipInval => "skip-inval",
            ConformMutation::SkipForward => "skip-forward",
            ConformMutation::LeakFrame => "leak-frame",
            ConformMutation::ResidencyLeak => "residency-leak",
            ConformMutation::SkipReset => "skip-reset",
        }
    }
}

/// Size and feature parameters for one conformance exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformConfig {
    /// Number of nodes (2–3 is exhaustive-friendly).
    pub nodes: u8,
    /// Shared pages; page `p` is homed at node `p % nodes`.
    pub pages: u8,
    /// Blocks per page (1, 2 or 4 — the page size must stay a power of
    /// two).
    pub blocks_per_page: u8,
    /// Operations (completed reads/writes) each node may issue.
    pub ops_per_node: u8,
    /// Page-cache frames per node (beyond its home frames).
    pub cache_frames: u8,
    /// Enable page relocation (Remap actions; Evict too unless `pageout`).
    pub remap: bool,
    /// Enable the pageout daemon + AS-COMA back-off (DaemonRun actions).
    pub pageout: bool,
    /// Refetch threshold the back-off starts from.
    pub initial_threshold: u32,
    /// Back-off raise step.
    pub threshold_increment: u32,
    /// Threshold cap: raising past it latches relocation off.
    pub threshold_cap: u32,
    /// Maximum message faults (drop, duplicate) the explorer may inject
    /// per run; `0` disables the fault layer entirely and makes the
    /// exploration state-for-state identical to the plain conformance one.
    pub fault_budget: u8,
    /// Production bug to arm, if any.
    pub mutation: Option<ConformMutation>,
}

impl ConformConfig {
    /// A coherence-only configuration (no relocation machinery).
    pub fn coherence(nodes: u8, pages: u8, blocks_per_page: u8, ops_per_node: u8) -> Self {
        ConformConfig {
            nodes,
            pages,
            blocks_per_page,
            ops_per_node,
            cache_frames: 0,
            remap: false,
            pageout: false,
            initial_threshold: 1,
            threshold_increment: 1,
            threshold_cap: 3,
            fault_budget: 0,
            mutation: None,
        }
    }

    /// A relocation configuration: remap + evict, fixed threshold 1.
    pub fn remap(nodes: u8, pages: u8, blocks_per_page: u8, ops_per_node: u8) -> Self {
        ConformConfig {
            cache_frames: 1,
            remap: true,
            ..ConformConfig::coherence(nodes, pages, blocks_per_page, ops_per_node)
        }
    }

    /// An AS-COMA configuration: remap + pageout daemon + adaptive
    /// back-off.  The cap equals the initial threshold so a single
    /// failed daemon run latches relocation off — the max-back-off
    /// regime must be reachable within the small ops budget for the
    /// liveness proof to cover it.
    pub fn ascoma(nodes: u8, pages: u8, blocks_per_page: u8, ops_per_node: u8) -> Self {
        ConformConfig {
            pageout: true,
            threshold_cap: 1,
            ..ConformConfig::remap(nodes, pages, blocks_per_page, ops_per_node)
        }
    }

    /// The same configuration with a fault budget of `k`: the explorer
    /// may drop or duplicate at most `k` messages per run.
    pub fn with_faults(mut self, k: u8) -> Self {
        self.fault_budget = k;
        self
    }

    /// Total shared blocks.
    pub fn blocks(&self) -> u8 {
        self.pages * self.blocks_per_page
    }

    /// A short human label, e.g. `2n-2p-1b-2ops-remap` (+ mutation).
    pub fn label(&self) -> String {
        let mut base = format!(
            "{}n-{}p-{}b-{}ops",
            self.nodes, self.pages, self.blocks_per_page, self.ops_per_node
        );
        if self.pageout {
            base.push_str("-ascoma");
        } else if self.remap {
            base.push_str("-remap");
        }
        if self.fault_budget > 0 {
            base.push_str(&format!("-f{}", self.fault_budget));
        }
        match self.mutation {
            Some(m) => format!("{base}-{}", m.name()),
            None => base,
        }
    }

    /// The conformance gate suite: every configuration explores to
    /// completion (BFS and DPOR) well under the CI state cap.  At least
    /// two configurations exercise remap/pageout actions.
    pub fn smoke_suite() -> Vec<ConformConfig> {
        // A Refetch-class fetch (the remap trigger) takes three ops on
        // one node — fetch, conflict-evict via another block, re-fetch —
        // so relocation configurations need ops_per_node >= 3.
        vec![
            ConformConfig::coherence(2, 1, 1, 3),
            ConformConfig::coherence(2, 1, 2, 2),
            ConformConfig::coherence(2, 2, 1, 2),
            ConformConfig::coherence(3, 1, 1, 2),
            ConformConfig::remap(2, 2, 1, 3),
            ConformConfig::remap(2, 1, 2, 3),
            ConformConfig::ascoma(2, 2, 1, 3),
            ConformConfig::ascoma(2, 1, 2, 3),
        ]
    }

    /// The liveness gate suite: clean configurations that must be
    /// lasso-free, including an AS-COMA one whose explored space reaches
    /// the relocation-disabled (max back-off) latch.
    pub fn liveness_suite() -> Vec<ConformConfig> {
        vec![
            ConformConfig::remap(2, 2, 1, 3),
            ConformConfig::ascoma(2, 2, 1, 3),
        ]
    }

    /// The bounded-fault gate suite: the smoke suite with a fault budget
    /// of `k` per run.  `k = 0` must reproduce the plain conformance
    /// exploration exactly.  At `k = 2` the widest configuration
    /// (`ascoma(2, 2, 1, 3)`) reaches about 2.4M states, inside the
    /// 4M-state CI cap.
    pub fn fault_suite(k: u8) -> Vec<ConformConfig> {
        ConformConfig::smoke_suite()
            .into_iter()
            .map(|c| c.with_faults(k))
            .collect()
    }

    /// The fault liveness gate suite: recovery from every injected fault
    /// must terminate (no drop/resend lasso).
    pub fn fault_liveness_suite() -> Vec<ConformConfig> {
        ConformConfig::liveness_suite()
            .into_iter()
            .map(|c| c.with_faults(1))
            .collect()
    }
}

/// One node's production-state slice.
#[derive(Clone)]
pub struct ConformNode {
    pt: PageTable,
    pool: FramePool,
    daemon: PageoutDaemon,
    backoff: BackoffState,
    l1: DirectMappedCache,
    /// Outstanding miss `(block, write)` — the node is blocked on it.
    pending: Option<(u64, bool)>,
    ops_done: u8,
    trajectory: Vec<ThresholdStep>,
    /// The pending miss's message was dropped; `Complete` is disabled
    /// until `Resend`.
    pending_dropped: bool,
    /// The pending miss's directory transaction will be delivered twice.
    pending_dup: bool,
    /// Ghost data-plane: version of the copy this node last received per
    /// block (`0` = none).  Only consulted while a structural copy
    /// (S-COMA valid bit or L1 line) exists, and only in fault runs.
    held: Vec<u64>,
}

/// One explored machine state: the real directory plus per-node
/// production VM/cache state.
#[derive(Clone)]
pub struct ConformState {
    dir: Directory,
    nodes: Vec<ConformNode>,
    /// Logical clock (trajectory stamps and daemon bookkeeping only;
    /// excluded from the canonical encoding — no transition reads it).
    clock: u64,
    /// Faults the explorer may still inject this run.
    faults_left: u8,
    /// Ghost data-plane: latest version ever written per block (`1`
    /// initially — home memory's cold contents).
    ver: Vec<u64>,
    /// Ghost data-plane: version home memory holds per block.
    home_ver: Vec<u64>,
}

impl ConformState {
    /// True if any node's back-off has latched relocation off — the
    /// liveness gate's coverage predicate for "max back-off reached".
    pub fn any_relocation_disabled(&self) -> bool {
        self.nodes.iter().any(|n| n.backoff.relocation_disabled())
    }

    /// True if any node currently holds an S-COMA-resident page — the
    /// coverage predicate proving remap actions actually fired.
    pub fn any_scoma_resident(&self) -> bool {
        self.nodes.iter().any(|n| n.pt.scoma_count() > 0)
    }

    /// True if any node's outstanding transaction is currently dropped —
    /// the fault gate's coverage predicate for the drop/resend machinery.
    pub fn any_pending_dropped(&self) -> bool {
        self.nodes.iter().any(|n| n.pending_dropped)
    }
}

/// One conformance transition.  `Issue`/`Complete` are application
/// progress; `Remap`/`Evict`/`DaemonRun` are the relocation machinery
/// (non-progress for liveness purposes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConformAction {
    /// Node `node` takes a miss on `block` (`write` = store).
    Issue {
        /// Issuing node.
        node: u8,
        /// Target block.
        block: u64,
        /// Write intent.
        write: bool,
    },
    /// The outstanding miss of `node` completes through the directory.
    Complete {
        /// Completing node.
        node: u8,
        /// The block (mirrors the pending slot, for dependence).
        block: u64,
        /// Write intent (mirrors the pending slot).
        write: bool,
    },
    /// Node `node` relocates `page` from CC-NUMA to S-COMA mode.
    Remap {
        /// Relocating node.
        node: u8,
        /// Page being upgraded.
        page: u64,
    },
    /// Node `node` evicts S-COMA `page` (demand replacement; only when
    /// no pageout daemon manages the pool).
    Evict {
        /// Evicting node.
        node: u8,
        /// Page being evicted.
        page: u64,
    },
    /// Node `node` runs its pageout daemon (pool below `free_min`).
    DaemonRun {
        /// Node whose daemon runs.
        node: u8,
    },
    /// Fault: the in-flight message of `node`'s outstanding miss is
    /// lost; the miss cannot complete until `Resend`.
    DropMsg {
        /// Node whose message is dropped.
        node: u8,
    },
    /// Fault: `node`'s directory transaction is delivered twice — its
    /// `Complete` applies the transaction a second time.
    DupMsg {
        /// Node whose message is duplicated.
        node: u8,
    },
    /// Recovery: `node` retransmits its dropped request.
    Resend {
        /// Node resending.
        node: u8,
    },
}

/// A conformance harness over one configuration.
pub struct ConformHarness {
    cfg: ConformConfig,
    geometry: Geometry,
    homes: Vec<NodeId>,
}

impl ConformHarness {
    /// Build a harness; panics on geometrically invalid configurations
    /// (blocks_per_page must keep the page size a power of two).
    pub fn new(cfg: ConformConfig) -> Self {
        assert!(
            matches!(cfg.blocks_per_page, 1 | 2 | 4),
            "blocks_per_page must be 1, 2 or 4"
        );
        assert!(cfg.nodes >= 2 && cfg.nodes <= 8, "nodes must be 2..=8");
        assert!(
            cfg.initial_threshold <= cfg.threshold_cap,
            "initial threshold above cap"
        );
        // 128-byte blocks of four 32-byte lines, as in the paper; the
        // page is blocks_per_page blocks.
        let geometry = Geometry::new(128 * cfg.blocks_per_page as u64, 128, 32);
        let homes = (0..cfg.pages as u64)
            .map(|p| NodeId((p % cfg.nodes as u64) as u16))
            .collect();
        Self {
            cfg,
            geometry,
            homes,
        }
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &ConformConfig {
        &self.cfg
    }

    fn block_base(&self, block: u64) -> ascoma_sim::addr::VAddr {
        self.geometry.block_base(BlockId(block))
    }

    /// Install `block` into `node`'s L1 (as the production fill after a
    /// completed miss or local hit under write intent), writing back any
    /// dirty conflict victim to the directory.
    fn fill_l1(&self, t: &mut ConformState, node: usize, block: u64, write: bool) {
        let line = self.block_base(block);
        match t.nodes[node].l1.access(line, write) {
            Lookup::Hit => {}
            Lookup::MissEmpty | Lookup::MissConflict(_) => {
                if let Some(v) = t.nodes[node].l1.fill(line, write) {
                    if v.dirty {
                        let vb = self.geometry.block_of(v.addr);
                        t.dir.writeback(NodeId(node as u16), vb);
                        // Ghost: the written-back data reaches home.
                        t.home_ver[vb.0 as usize] = t.nodes[node].held[vb.0 as usize];
                    }
                }
            }
        }
    }

    /// Flush every copy `node` holds of `page`: dirty L1 lines write
    /// back, the page's lines invalidate, and the directory drops the
    /// node's memberships (marking induced re-fetches).  The shared
    /// prefix of remap, evict, and daemon reclamation.
    fn flush_node_page(&self, t: &mut ConformState, node: usize, page: VPage) {
        let id = NodeId(node as u16);
        for i in 0..self.geometry.blocks_per_page() {
            let b = self.geometry.block_id(page, i);
            let line = self.geometry.block_base(b);
            if t.nodes[node].l1.line_dirty(line) == Some(true) {
                t.dir.writeback(id, b);
                t.home_ver[b.0 as usize] = t.nodes[node].held[b.0 as usize];
            }
        }
        let base = self.geometry.page_base(page);
        t.nodes[node]
            .l1
            .invalidate_range(base, self.geometry.page_bytes());
        t.dir.flush_page(id, page);
    }

    /// Apply a write-fetch invalidation set: each victim loses its
    /// S-COMA valid bit and L1 lines for `block` (the production
    /// machine's invalidation fan-out).
    fn apply_invalidations(&self, t: &mut ConformState, block: u64, victims: ascoma_sim::NodeSet) {
        let page = self.geometry.page_of_block(BlockId(block));
        let idx = self.geometry.block_index_in_page(BlockId(block));
        let line = self.block_base(block);
        for v in victims.iter() {
            let vd = &mut t.nodes[v.idx()];
            if vd.pt.mode(page).is_scoma() {
                vd.pt.clear_block_valid(page, idx);
            }
            vd.l1.invalidate_range(line, self.geometry.block_bytes());
        }
    }
}

impl Harness for ConformHarness {
    type State = ConformState;
    type Action = ConformAction;

    fn initial(&self) -> ConformState {
        let cfg = &self.cfg;
        let mut dir = Directory::new(self.geometry, cfg.pages as u64, cfg.nodes as usize);
        match cfg.mutation {
            Some(ConformMutation::SkipInval) => dir.inject_fault(Some(DirFault::SkipInvalidation)),
            Some(ConformMutation::SkipForward) => dir.inject_fault(Some(DirFault::SkipForward)),
            Some(ConformMutation::SkipReset) => dir.inject_fault(Some(DirFault::SkipRefetchReset)),
            _ => {}
        }
        let nodes = (0..cfg.nodes as usize)
            .map(|n| {
                let mut pt = PageTable::new(cfg.pages as u64, self.geometry.blocks_per_page());
                let mut home_pages = 0u32;
                for (p, &home) in self.homes.iter().enumerate() {
                    if home.idx() == n {
                        pt.map_home(VPage(p as u64));
                        home_pages += 1;
                    } else {
                        pt.map_numa(VPage(p as u64));
                    }
                }
                if cfg.mutation == Some(ConformMutation::ResidencyLeak) {
                    pt.inject_residency_leak(true);
                }
                let mut pool = FramePool::new(
                    home_pages + cfg.cache_frames as u32,
                    home_pages,
                    1.min(cfg.cache_frames as u32),
                    1.min(cfg.cache_frames as u32),
                );
                if cfg.mutation == Some(ConformMutation::LeakFrame) {
                    pool.inject_leak_release(true);
                }
                ConformNode {
                    pt,
                    pool,
                    daemon: PageoutDaemon::new(0),
                    backoff: BackoffState::new(BackoffParams {
                        initial_threshold: cfg.initial_threshold,
                        increment: cfg.threshold_increment,
                        cap: cfg.threshold_cap,
                        enabled: cfg.pageout,
                    }),
                    // 64 B / 32 B lines = 2 direct-mapped lines; every
                    // 128-byte block base maps to set 0, so any two
                    // distinct blocks conflict — maximum pressure on the
                    // victim-writeback paths.
                    l1: DirectMappedCache::new(64, 32),
                    pending: None,
                    ops_done: 0,
                    trajectory: Vec::new(),
                    pending_dropped: false,
                    pending_dup: false,
                    held: vec![0; cfg.blocks() as usize],
                }
            })
            .collect();
        ConformState {
            dir,
            nodes,
            clock: 0,
            faults_left: cfg.fault_budget,
            // Home memory's cold contents are "version 1" of every block.
            ver: vec![1; cfg.blocks() as usize],
            home_ver: vec![1; cfg.blocks() as usize],
        }
    }

    fn enabled(&self, s: &ConformState) -> Vec<ConformAction> {
        let cfg = &self.cfg;
        let mut acts = Vec::new();
        for (n, nd) in s.nodes.iter().enumerate() {
            let node = n as u8;
            if let Some((block, write)) = nd.pending {
                // Blocking processor: the only protocol step this node
                // can take is completing its outstanding miss — unless
                // the message was dropped (resend first).
                if nd.pending_dropped {
                    acts.push(ConformAction::Resend { node });
                } else {
                    acts.push(ConformAction::Complete { node, block, write });
                }
                if s.faults_left > 0 && !nd.pending_dropped && !nd.pending_dup {
                    acts.push(ConformAction::DropMsg { node });
                    acts.push(ConformAction::DupMsg { node });
                }
                continue;
            }
            if nd.ops_done < cfg.ops_per_node {
                for b in 0..cfg.blocks() as u64 {
                    let block = BlockId(b);
                    let page = self.geometry.page_of_block(block);
                    let idx = self.geometry.block_index_in_page(block);
                    let line = self.geometry.block_base(block);
                    let scoma_valid = nd.pt.mode(page).is_scoma() && nd.pt.block_valid(page, idx);
                    // Reads reach the protocol only on a local miss
                    // (no valid S-COMA copy and no L1 line).
                    if !scoma_valid && !nd.l1.contains(line) {
                        acts.push(ConformAction::Issue {
                            node,
                            block: b,
                            write: false,
                        });
                    }
                    // Writes reach the protocol unless the line is
                    // already held dirty (a silent local write hit).
                    if nd.l1.line_dirty(line) != Some(true) {
                        acts.push(ConformAction::Issue {
                            node,
                            block: b,
                            write: true,
                        });
                    }
                }
            }
            if cfg.remap {
                for p in 0..cfg.pages as u64 {
                    let page = VPage(p);
                    if nd.pt.mode(page) == PageMode::Numa
                        && !nd.backoff.relocation_disabled()
                        && s.dir.refetch_count(page, NodeId(n as u16)) >= nd.backoff.threshold()
                        && nd.pool.free_count() > 0
                    {
                        acts.push(ConformAction::Remap { node, page: p });
                    }
                    if !cfg.pageout && nd.pt.mode(page).is_scoma() {
                        acts.push(ConformAction::Evict { node, page: p });
                    }
                }
                if cfg.pageout && nd.pool.below_min() {
                    acts.push(ConformAction::DaemonRun { node });
                }
            }
        }
        acts
    }

    fn step(&self, s: &ConformState, a: &ConformAction) -> Result<ConformState, String> {
        let mut t = s.clone();
        t.clock += 1;
        match *a {
            ConformAction::Issue { node, block, write } => {
                let nd = &mut t.nodes[node as usize];
                if nd.pending.is_some() {
                    return Err(format!("node {node} issued while blocked"));
                }
                nd.pending = Some((block, write));
            }
            ConformAction::Complete { node, block, write } => {
                let n = node as usize;
                match t.nodes[n].pending {
                    Some(p) if p == (block, write) => {}
                    other => {
                        return Err(format!(
                            "node {node} completing {block}/{write} but pending is {other:?}"
                        ))
                    }
                }
                if t.nodes[n].pending_dropped {
                    return Err(format!("node {node} completing a dropped message"));
                }
                let id = NodeId(node as u16);
                let bid = BlockId(block);
                let bi = block as usize;
                let page = self.geometry.page_of_block(bid);
                let idx = self.geometry.block_index_in_page(bid);
                let dup = t.nodes[n].pending_dup;
                t.nodes[n].pt.touch(page);
                let scoma_valid =
                    t.nodes[n].pt.mode(page).is_scoma() && t.nodes[n].pt.block_valid(page, idx);
                if write && scoma_valid && t.dir.in_copyset(id, bid) {
                    // Ownership upgrade of a locally valid copy.
                    let victims = t.dir.upgrade(id, bid);
                    self.apply_invalidations(&mut t, block, victims);
                    if dup {
                        // Duplicate delivery: the upgrade arrives twice.
                        // The second finds the writer already exclusive.
                        let victims = t.dir.upgrade(id, bid);
                        self.apply_invalidations(&mut t, block, victims);
                    }
                    t.ver[bi] += 1;
                    t.nodes[n].held[bi] = t.ver[bi];
                } else {
                    let out = t.dir.fetch(id, bid, write);
                    if !write {
                        if let Some(owner) = out.forward_from {
                            // 3-hop read: the dirty owner writes back and
                            // downgrades to a clean shared copy.
                            let line = self.block_base(block);
                            let od = &mut t.nodes[owner.idx()];
                            od.l1.invalidate_range(line, self.geometry.block_bytes());
                            let _ = od.l1.fill(line, false);
                        }
                    }
                    self.apply_invalidations(&mut t, block, out.invalidate);
                    if dup {
                        // Duplicate delivery: the fetch transaction lands
                        // twice at the home.  The second is absorbed as a
                        // refetch of an already-registered sharer — the
                        // protocol must tolerate it without a new forward.
                        let out2 = t.dir.fetch(id, bid, write);
                        self.apply_invalidations(&mut t, block, out2.invalidate);
                    }
                    // Ghost: data came from the forwarding dirty owner
                    // (which also syncs home) or from home memory.
                    let src_ver = match out.forward_from {
                        Some(owner) => {
                            let ov = t.nodes[owner.idx()].held[bi];
                            t.home_ver[bi] = ov;
                            ov
                        }
                        None => t.home_ver[bi],
                    };
                    if write {
                        t.ver[bi] += 1;
                        t.nodes[n].held[bi] = t.ver[bi];
                    } else {
                        t.nodes[n].held[bi] = src_ver;
                    }
                    if t.nodes[n].pt.mode(page).is_scoma() {
                        t.nodes[n].pt.set_block_valid(page, idx);
                    }
                }
                self.fill_l1(&mut t, n, block, write);
                let nd = &mut t.nodes[n];
                nd.pending = None;
                nd.pending_dup = false;
                nd.ops_done += 1;
            }
            ConformAction::Remap { node, page } => {
                let n = node as usize;
                let page = VPage(page);
                if t.nodes[n].pt.mode(page) != PageMode::Numa {
                    return Err(format!("node {node} remapping non-NUMA page {page}"));
                }
                let Some(frame) = t.nodes[n].pool.alloc() else {
                    return Err(format!("node {node} remapping with an empty pool"));
                };
                self.flush_node_page(&mut t, n, page);
                t.nodes[n].pt.map_scoma(page, frame);
                t.dir.reset_refetch(page, NodeId(node as u16));
            }
            ConformAction::Evict { node, page } => {
                let n = node as usize;
                let page = VPage(page);
                if !t.nodes[n].pt.mode(page).is_scoma() {
                    return Err(format!("node {node} evicting non-resident page {page}"));
                }
                self.flush_node_page(&mut t, n, page);
                let frame = t.nodes[n].pt.unmap_scoma(page);
                t.nodes[n].pool.release(frame);
            }
            ConformAction::DaemonRun { node } => {
                let n = node as usize;
                let deficit = t.nodes[n].pool.deficit();
                let clock = t.clock;
                let out = {
                    let nd = &mut t.nodes[n];
                    nd.daemon.run(clock, &mut nd.pt, deficit)
                };
                for &victim in &out.victims {
                    self.flush_node_page(&mut t, n, victim);
                    let frame = t.nodes[n].pt.unmap_scoma(victim);
                    t.nodes[n].pool.release(frame);
                }
                let nd = &mut t.nodes[n];
                let before = nd.backoff.threshold();
                let _ = nd.backoff.on_daemon_result(out.reached_target);
                let after = nd.backoff.threshold();
                if after != before {
                    nd.trajectory.push(ThresholdStep {
                        cycle: clock,
                        threshold: after,
                    });
                }
            }
            ConformAction::DropMsg { node } => {
                let nd = &mut t.nodes[node as usize];
                if nd.pending.is_none() || nd.pending_dropped || nd.pending_dup {
                    return Err(format!("node {node} has no droppable message"));
                }
                if t.faults_left == 0 {
                    return Err("fault budget exhausted".to_string());
                }
                t.faults_left -= 1;
                nd.pending_dropped = true;
            }
            ConformAction::DupMsg { node } => {
                let nd = &mut t.nodes[node as usize];
                if nd.pending.is_none() || nd.pending_dropped || nd.pending_dup {
                    return Err(format!("node {node} has no duplicable message"));
                }
                if t.faults_left == 0 {
                    return Err("fault budget exhausted".to_string());
                }
                t.faults_left -= 1;
                nd.pending_dup = true;
            }
            ConformAction::Resend { node } => {
                let nd = &mut t.nodes[node as usize];
                if !nd.pending_dropped {
                    return Err(format!("node {node} resending with nothing dropped"));
                }
                nd.pending_dropped = false;
            }
        }
        Ok(t)
    }

    fn check(&self, s: &ConformState) -> Result<(), (String, String)> {
        let nodes: Vec<NodeView<'_>> = s
            .nodes
            .iter()
            .enumerate()
            .map(|(i, nd)| NodeView {
                id: NodeId(i as u16),
                pt: &nd.pt,
                pool: &nd.pool,
                threshold: nd.backoff.threshold(),
                relocation_disabled: nd.backoff.relocation_disabled(),
                trajectory: &nd.trajectory,
            })
            .collect();
        let view = MachineView {
            geometry: self.geometry,
            shared_pages: self.cfg.pages as u64,
            dir: &s.dir,
            homes: &self.homes,
            nodes,
            initial_threshold: self.cfg.initial_threshold,
            threshold_cap: self.cfg.threshold_cap,
            threshold_adaptive: self.cfg.pageout,
            threshold_capped: self.cfg.pageout,
            uses_page_cache: self.cfg.remap,
        };
        if let Some(v) = check_all(&view).into_iter().next() {
            let detail = match v.node {
                Some(n) => format!("{n}: {}", v.detail),
                None => v.detail,
            };
            return Err((v.invariant.to_string(), detail));
        }
        // Harness-level L1 conformance: a cached line implies directory
        // membership, and a dirty line implies registered ownership.
        // (The live catalog cannot check these: the simulator's caches
        // belong to the machine layer it only sees through MachineView.)
        for (n, nd) in s.nodes.iter().enumerate() {
            let id = NodeId(n as u16);
            for b in 0..self.cfg.blocks() as u64 {
                let line = self.block_base(b);
                if let Some(dirty) = nd.l1.line_dirty(line) {
                    if !s.dir.in_copyset(id, BlockId(b)) {
                        return Err((
                            "l1-directory-agreement".to_string(),
                            format!("node {n}: L1 holds block {b} but is not in its copyset"),
                        ));
                    }
                    if dirty && s.dir.owner_of(BlockId(b)) != Some(id) {
                        return Err((
                            "l1-ownership".to_string(),
                            format!("node {n}: dirty L1 block {b} without directory ownership"),
                        ));
                    }
                }
            }
        }
        // Data-plane invariants, powered by the ghost data-plane.  Only in
        // fault runs: with budget 0 the ghost is not part of the
        // canonical encoding, so checks must not read it (two canon-equal
        // states must agree on every checked predicate).
        if self.cfg.fault_budget > 0 {
            for b in 0..self.cfg.blocks() as usize {
                let bid = BlockId(b as u64);
                let page = self.geometry.page_of_block(bid);
                // stale-home: a block that is clean at home (no
                // registered owner) must have the latest write at home.
                if s.dir.owner_of(bid).is_none() && s.home_ver[b] != s.ver[b] {
                    return Err((
                        "stale-home".to_string(),
                        format!(
                            "block {b}: home holds v{} but latest is v{} with no registered owner",
                            s.home_ver[b], s.ver[b]
                        ),
                    ));
                }
                // stale-copy: every structural copy a node holds must be
                // the latest version (write-invalidate protocol).
                let idx = self.geometry.block_index_in_page(bid);
                let line = self.block_base(b as u64);
                for (n, nd) in s.nodes.iter().enumerate() {
                    let has_copy = (nd.pt.mode(page).is_scoma() && nd.pt.block_valid(page, idx))
                        || nd.l1.contains(line);
                    if has_copy && nd.held[b] != s.ver[b] {
                        return Err((
                            "stale-copy".to_string(),
                            format!(
                                "node {n}: holds v{} of block {b} but latest is v{}",
                                nd.held[b], s.ver[b]
                            ),
                        ));
                    }
                }
            }
            // rejoin-residency: every node stays registered for every
            // shared page (the initial mapping, which remap and evict
            // must preserve).
            for (n, nd) in s.nodes.iter().enumerate() {
                for p in 0..self.cfg.pages as u64 {
                    if nd.pt.mode(VPage(p)) == PageMode::Unmapped {
                        return Err((
                            "rejoin-residency".to_string(),
                            format!("node {n}: page {p} unmapped"),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn canon(&self, s: &ConformState) -> Vec<u64> {
        // Injective given a fixed config: fixed-width per-block and
        // per-page sections, length-prefixed residency and free lists.
        // Monotone bookkeeping never read by transitions (clock,
        // trajectories, daemon epochs, pool/cache statistics) is
        // deliberately excluded.
        let blocks = self.cfg.blocks() as u64;
        let pages = self.cfg.pages as u64;
        let mut v = Vec::with_capacity(128);
        for b in 0..blocks {
            let bid = BlockId(b);
            v.push(s.dir.copyset_of(bid).0);
            v.push(s.dir.owner_of(bid).map_or(0, |o| o.idx() as u64 + 1));
            v.push(s.dir.ever_of(bid).0);
            v.push(s.dir.induced_of(bid).0);
        }
        for p in 0..pages {
            let page = VPage(p);
            for n in 0..self.cfg.nodes as usize {
                v.push(s.dir.refetch_count(page, NodeId(n as u16)) as u64);
            }
            v.push(s.dir.page_written(page) as u64);
        }
        for nd in &s.nodes {
            for p in 0..pages {
                let page = VPage(p);
                v.push(match nd.pt.mode(page) {
                    PageMode::Unmapped => 0,
                    PageMode::Home => 1,
                    PageMode::Numa => 2,
                    PageMode::Scoma { frame } => 3 + frame as u64,
                });
                let mut valid = 0u64;
                if nd.pt.mode(page).is_scoma() {
                    for i in 0..self.geometry.blocks_per_page() {
                        if nd.pt.block_valid(page, i) {
                            valid |= 1 << i;
                        }
                    }
                }
                v.push(valid);
                v.push(nd.pt.referenced(page) as u64);
            }
            // Residency-list order and the clock hand determine future
            // victim selection.
            v.push(nd.pt.scoma_count() as u64);
            for &page in nd.pt.scoma_pages() {
                v.push(page.0);
            }
            v.push(nd.daemon.hand() as u64);
            v.push(nd.pool.free_frames().len() as u64);
            for &f in nd.pool.free_frames() {
                v.push(f as u64);
            }
            v.push(nd.backoff.threshold() as u64);
            v.push(nd.backoff.numa_first() as u64);
            v.push(nd.backoff.relocation_disabled() as u64);
            match nd.pending {
                None => v.push(0),
                Some((b, w)) => {
                    v.push(1);
                    v.push(b);
                    v.push(w as u64);
                }
            }
            v.push(nd.ops_done as u64);
            for b in 0..blocks {
                let line = self.block_base(b);
                v.push(match nd.l1.line_dirty(line) {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
        }
        // Fault layer: budget, message-fate flags, and the ghost
        // data-plane.  Only encoded in fault runs, so a budget-0
        // exploration is state-for-state identical to the plain one.
        if self.cfg.fault_budget > 0 {
            v.push(s.faults_left as u64);
            for b in 0..blocks as usize {
                v.push(s.ver[b]);
                v.push(s.home_ver[b]);
            }
            for nd in &s.nodes {
                v.push(nd.pending_dropped as u64);
                v.push(nd.pending_dup as u64);
                for b in 0..blocks as usize {
                    v.push(nd.held[b]);
                }
            }
        }
        v
    }

    fn dependent(&self, a: &ConformAction, b: &ConformAction) -> bool {
        // Footprints: (node mask, page mask).  An empty page mask means
        // "no page state touched" (wildcard against any page set);
        // Complete and DaemonRun conservatively touch everything they
        // could reach (directory fan-out / any victim page).
        const ALL: u64 = u64::MAX;
        // Any two budget-consuming faults interfere through the shared
        // budget counter (one can disable the other), whatever their
        // footprints.
        let consumes = |a: &ConformAction| -> bool {
            matches!(
                a,
                ConformAction::DropMsg { .. } | ConformAction::DupMsg { .. }
            )
        };
        if consumes(a) && consumes(b) {
            return true;
        }
        let foot = |a: &ConformAction| -> (u64, u64) {
            match *a {
                ConformAction::Issue { node, .. } => (1 << node, 0),
                ConformAction::Complete { .. } => (ALL, ALL),
                ConformAction::Remap { node, page } | ConformAction::Evict { node, page } => {
                    (1 << node, 1 << page)
                }
                ConformAction::DaemonRun { node } => (1 << node, ALL),
                // Message-fate flips touch only the node's pending slot.
                ConformAction::DropMsg { node }
                | ConformAction::DupMsg { node }
                | ConformAction::Resend { node } => (1 << node, 0),
            }
        };
        let (na, pa) = foot(a);
        let (nb, pb) = foot(b);
        (na & nb) != 0 && ((pa & pb) != 0 || pa == 0 || pb == 0)
    }

    fn is_progress(&self, a: &ConformAction) -> bool {
        matches!(
            a,
            ConformAction::Issue { .. } | ConformAction::Complete { .. }
        )
    }

    fn action_kind(&self, a: &ConformAction) -> &'static str {
        match a {
            ConformAction::Issue { .. } => "issue",
            ConformAction::Complete { .. } => "complete",
            ConformAction::Remap { .. } => "remap",
            ConformAction::Evict { .. } => "evict",
            ConformAction::DaemonRun { .. } => "daemon-run",
            ConformAction::DropMsg { .. } => "fault-drop",
            ConformAction::DupMsg { .. } => "fault-dup",
            ConformAction::Resend { .. } => "recover-resend",
        }
    }

    fn action_json(&self, a: &ConformAction, step: usize) -> String {
        match *a {
            ConformAction::Issue { node, block, write } => format!(
                "{{\"step\":{step},\"action\":\"issue\",\"node\":{node},\"block\":{block},\"write\":{write}}}"
            ),
            ConformAction::Complete { node, block, write } => format!(
                "{{\"step\":{step},\"action\":\"complete\",\"node\":{node},\"block\":{block},\"write\":{write}}}"
            ),
            ConformAction::Remap { node, page } => format!(
                "{{\"step\":{step},\"action\":\"remap\",\"node\":{node},\"page\":{page}}}"
            ),
            ConformAction::Evict { node, page } => format!(
                "{{\"step\":{step},\"action\":\"evict\",\"node\":{node},\"page\":{page}}}"
            ),
            ConformAction::DaemonRun { node } => {
                format!("{{\"step\":{step},\"action\":\"daemon-run\",\"node\":{node}}}")
            }
            ConformAction::DropMsg { node } => {
                format!("{{\"step\":{step},\"action\":\"drop-msg\",\"node\":{node}}}")
            }
            ConformAction::DupMsg { node } => {
                format!("{{\"step\":{step},\"action\":\"dup-msg\",\"node\":{node}}}")
            }
            ConformAction::Resend { node } => {
                format!("{{\"step\":{step},\"action\":\"resend\",\"node\":{node}}}")
            }
        }
    }
}
