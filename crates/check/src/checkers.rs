//! The concrete invariant catalog (DESIGN.md §13 documents each one).
//!
//! Every checker is a unit struct implementing [`Invariant`]; the
//! catalog order in [`crate::invariant::catalog`] is the reporting order.
//! Checkers are written for quiescent machine states — barriers and
//! end-of-run — where no transaction is mid-flight, so strict equalities
//! (e.g. `free + resident == cache_frames`) are expected to hold exactly.

use crate::invariant::{Invariant, Violation};
use crate::view::MachineView;
use ascoma_sim::addr::{BlockId, VPage};
use ascoma_sim::{NodeId, NodeSet};
use ascoma_vm::PageMode;

fn violation(
    invariant: &'static str,
    node: Option<NodeId>,
    detail: String,
    out: &mut Vec<Violation>,
) {
    out.push(Violation {
        invariant,
        node,
        detail,
    });
}

/// **SWMR** (single-writer/multiple-reader): a block with a dirty remote
/// owner has exactly that one node in its copyset — no stale sharers can
/// coexist with exclusivity.
pub struct SwmrOwnership;

impl Invariant for SwmrOwnership {
    fn name(&self) -> &'static str {
        "swmr-ownership"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for b in 0..v.total_blocks() {
            let block = BlockId(b);
            if let Some(o) = v.dir.owner_of(block) {
                let cs = v.dir.copyset_of(block);
                if cs != NodeSet::single(o) {
                    violation(
                        self.name(),
                        Some(o),
                        format!("block {b}: owner {o} but copyset {cs:?}"),
                        out,
                    );
                }
            }
        }
    }
}

/// **Directory–cache agreement**: every *valid* S-COMA block cached at a
/// node is tracked in that block's directory copyset.  (The converse is
/// deliberately weak — copyset membership may outlive the cached copy,
/// because clean evictions are silent; that slack is what makes refetch
/// classification work.)
pub struct DirectoryCacheAgreement;

impl Invariant for DirectoryCacheAgreement {
    fn name(&self) -> &'static str {
        "directory-cache-agreement"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        let bpp = v.geometry.blocks_per_page();
        for n in &v.nodes {
            for &page in n.pt.scoma_pages() {
                for i in 0..bpp {
                    if n.pt.block_valid(page, i) {
                        let block = v.geometry.block_id(page, i);
                        if !v.dir.in_copyset(n.id, block) {
                            violation(
                                self.name(),
                                Some(n.id),
                                format!(
                                    "valid S-COMA block {} of page {page} not in copyset",
                                    block.0
                                ),
                                out,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// **Directory well-formedness**: per-entry structural rules the
/// directory maintains internally (owner ∈ copyset, induced ∩ copyset
/// empty, membership ⊆ ever-fetched, no out-of-range node bits).
/// Delegates to [`ascoma_proto::Directory::validate`].
pub struct DirectoryWellFormed;

impl Invariant for DirectoryWellFormed {
    fn name(&self) -> &'static str {
        "directory-well-formed"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        if let Err(e) = v.dir.validate() {
            violation(self.name(), None, e, out);
        }
    }
}

/// **Frame conservation**: on every node, free frames plus S-COMA-resident
/// pages exactly cover the page-cache partition
/// (`free + resident == total - home`).
pub struct FrameConservation;

impl Invariant for FrameConservation {
    fn name(&self) -> &'static str {
        "frame-conservation"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for n in &v.nodes {
            let free = n.pool.free_count();
            let resident = n.pt.scoma_count() as u32;
            let cache = n.pool.cache_frames();
            if free + resident != cache {
                violation(
                    self.name(),
                    Some(n.id),
                    format!("free {free} + resident {resident} != cache frames {cache}"),
                    out,
                );
            }
        }
    }
}

/// **Frame ownership**: every frame in the page-cache range is owned by
/// exactly one party — either it is on the free list or it backs exactly
/// one S-COMA-mapped page; never both, never two pages.
pub struct FrameOwnership;

impl Invariant for FrameOwnership {
    fn name(&self) -> &'static str {
        "frame-ownership"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for n in &v.nodes {
            if let Err(e) = n.pool.validate() {
                violation(self.name(), Some(n.id), e, out);
            }
            let mut mapped: Vec<(u32, VPage)> = Vec::with_capacity(n.pt.scoma_count());
            for &page in n.pt.scoma_pages() {
                if let PageMode::Scoma { frame } = n.pt.mode(page) {
                    mapped.push((frame, page));
                }
            }
            mapped.sort_unstable();
            for w in mapped.windows(2) {
                if w[0].0 == w[1].0 {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!(
                            "frame {} backs two pages ({} and {})",
                            w[0].0, w[0].1, w[1].1
                        ),
                        out,
                    );
                }
            }
            for &(frame, page) in &mapped {
                if frame < n.pool.home_frames() || frame >= n.pool.total_frames() {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!("page {page} mapped to out-of-range frame {frame}"),
                        out,
                    );
                }
            }
            for &free in n.pool.free_frames() {
                if mapped.binary_search_by_key(&free, |&(f, _)| f).is_ok() {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!("frame {free} is both free and mapped"),
                        out,
                    );
                }
            }
        }
    }
}

/// **Residency consistency**: the S-COMA residency list (the pageout
/// daemon's clock-hand domain) and per-page modes agree — delegates to
/// [`ascoma_vm::PageTable::validate`].
pub struct ResidencyConsistency;

impl Invariant for ResidencyConsistency {
    fn name(&self) -> &'static str {
        "residency-consistency"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for n in &v.nodes {
            if let Err(e) = n.pt.validate() {
                violation(self.name(), Some(n.id), e, out);
            }
        }
    }
}

/// **Home-mode consistency**: a page is `Home`-mapped exactly at its home
/// node (which never maps its own page NUMA or S-COMA).
pub struct HomeModeConsistency;

impl Invariant for HomeModeConsistency {
    fn name(&self) -> &'static str {
        "home-mode-consistency"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for (p, &home) in v.homes.iter().enumerate() {
            let page = VPage(p as u64);
            for n in &v.nodes {
                let mode = n.pt.mode(page);
                if mode == PageMode::Home && n.id != home {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!("page {page} Home-mapped away from its home {home}"),
                        out,
                    );
                }
                if n.id == home && !matches!(mode, PageMode::Home | PageMode::Unmapped) {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!("home node maps its own page {page} as {mode:?}"),
                        out,
                    );
                }
            }
        }
    }
}

/// **Replica legality**: read-only replicas exist only for never-written
/// pages, and every registered holder actually has the page S-COMA-mapped.
pub struct ReplicaLegality;

impl Invariant for ReplicaLegality {
    fn name(&self) -> &'static str {
        "replica-legality"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for p in 0..v.shared_pages {
            let page = VPage(p);
            let holders = v.dir.replicas_of(page);
            if holders.is_empty() {
                continue;
            }
            if v.dir.page_written(page) {
                violation(
                    self.name(),
                    None,
                    format!("written page {page} still has replicas {holders:?}"),
                    out,
                );
            }
            for h in holders.iter() {
                let holder = &v.nodes[h.idx()];
                if !holder.pt.mode(page).is_scoma() {
                    violation(
                        self.name(),
                        Some(h),
                        format!(
                            "registered replica of page {page} but mode is {:?}",
                            holder.pt.mode(page)
                        ),
                        out,
                    );
                }
            }
        }
    }
}

/// **Page-cache usage**: an architecture that never maps S-COMA pages
/// (plain CC-NUMA without read-only replication) has an empty residency
/// list on every node.
pub struct PageCacheUsage;

impl Invariant for PageCacheUsage {
    fn name(&self) -> &'static str {
        "page-cache-usage"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        if v.uses_page_cache {
            return;
        }
        for n in &v.nodes {
            if n.pt.scoma_count() != 0 {
                violation(
                    self.name(),
                    Some(n.id),
                    format!(
                        "{} S-COMA pages on an architecture that never maps them",
                        n.pt.scoma_count()
                    ),
                    out,
                );
            }
        }
    }
}

/// **Threshold legality**: the refetch threshold never drops below its
/// initial value; fixed-threshold architectures never move it; and on
/// capped architectures (AS-COMA back-off) relocation is latched off
/// exactly while the threshold sits above the cap.
pub struct ThresholdLegality;

impl Invariant for ThresholdLegality {
    fn name(&self) -> &'static str {
        "threshold-legality"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for n in &v.nodes {
            if n.threshold < v.initial_threshold {
                violation(
                    self.name(),
                    Some(n.id),
                    format!(
                        "threshold {} below initial {}",
                        n.threshold, v.initial_threshold
                    ),
                    out,
                );
            }
            if !v.threshold_adaptive && n.threshold != v.initial_threshold {
                violation(
                    self.name(),
                    Some(n.id),
                    format!(
                        "fixed-threshold architecture moved threshold to {}",
                        n.threshold
                    ),
                    out,
                );
            }
            if v.threshold_capped && (n.threshold > v.threshold_cap) != n.relocation_disabled {
                violation(
                    self.name(),
                    Some(n.id),
                    format!(
                        "threshold {} vs cap {} disagrees with relocation_disabled={}",
                        n.threshold, v.threshold_cap, n.relocation_disabled
                    ),
                    out,
                );
            }
            if !v.threshold_capped && n.relocation_disabled {
                violation(
                    self.name(),
                    Some(n.id),
                    "relocation latched off on an uncapped architecture".to_string(),
                    out,
                );
            }
        }
    }
}

/// **Trajectory monotonicity**: each node's threshold trajectory is
/// well-formed — cycle stamps nondecreasing, every step an actual change,
/// every recorded value at or above the initial threshold, and no steps
/// at all on fixed-threshold architectures.
pub struct TrajectoryMonotonicity;

impl Invariant for TrajectoryMonotonicity {
    fn name(&self) -> &'static str {
        "trajectory-monotonicity"
    }

    fn check(&self, v: &MachineView<'_>, out: &mut Vec<Violation>) {
        for n in &v.nodes {
            if !v.threshold_adaptive && !n.trajectory.is_empty() {
                violation(
                    self.name(),
                    Some(n.id),
                    format!(
                        "{} threshold steps on a fixed-threshold architecture",
                        n.trajectory.len()
                    ),
                    out,
                );
            }
            for step in n.trajectory {
                if step.threshold < v.initial_threshold {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!(
                            "trajectory step at cycle {} below initial threshold ({})",
                            step.cycle, step.threshold
                        ),
                        out,
                    );
                }
            }
            for w in n.trajectory.windows(2) {
                if w[1].cycle < w[0].cycle {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!(
                            "trajectory cycles regress ({} after {})",
                            w[1].cycle, w[0].cycle
                        ),
                        out,
                    );
                }
                if w[1].threshold == w[0].threshold {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!(
                            "trajectory step at cycle {} changes nothing (still {})",
                            w[1].cycle, w[1].threshold
                        ),
                        out,
                    );
                }
            }
            if n.trajectory.is_empty() && n.threshold != v.initial_threshold {
                violation(
                    self.name(),
                    Some(n.id),
                    format!("threshold moved to {} with no recorded step", n.threshold),
                    out,
                );
            }
            if let Some(last) = n.trajectory.last() {
                if last.threshold != n.threshold {
                    violation(
                        self.name(),
                        Some(n.id),
                        format!(
                            "trajectory ends at {} but live threshold is {}",
                            last.threshold, n.threshold
                        ),
                        out,
                    );
                }
            }
        }
    }
}
