//! Property tests: directory protocol invariants under random operation
//! sequences, checked against first principles rather than a reference
//! implementation:
//!
//! * a block's dirty owner is always in its copyset;
//! * a write leaves exactly the writer in the copyset;
//! * refetch counters are monotone between resets and only advance on
//!   copyset re-requests;
//! * flush_page removes the node from every copyset of the page, clears
//!   its ownership, marks exactly its dropped blocks induced-cold, leaves
//!   every other entry alone, and returns the counts a per-entry
//!   reference loop gives; the node's next fetches classify induced-cold
//!   exactly once per block;
//! * written pages never accept new replicas (the full "written pages
//!   hold no replicas" invariant is maintained by the machine layer and
//!   checked end-to-end in tests/invariants.rs).
//!
//! Random operation sequences come from the vendored deterministic RNG
//! (`ascoma_sim::rng::SimRng`), so a failure reproduces from the printed
//! node count and seed.  Both entry stores run: 4 nodes (packed) and 20
//! (wide).

use ascoma_proto::{Directory, FetchClass};
use ascoma_sim::addr::{BlockId, Geometry, VPage};
use ascoma_sim::rng::SimRng;
use ascoma_sim::{NodeId, NodeSet};

const PAGES: u64 = 4;

#[derive(Debug, Clone, Copy)]
enum DirOp {
    Fetch { node: u16, block: u64, write: bool },
    Upgrade { node: u16, block: u64 },
    FlushPage { node: u16, page: u64 },
    Writeback { node: u16, block: u64 },
    ResetRefetch { node: u16, page: u64 },
    AddReplica { node: u16, page: u64 },
    Collapse { node: u16, page: u64 },
}

fn random_op(rng: &mut SimRng, nodes: usize) -> DirOp {
    let node = rng.below(nodes as u64) as u16;
    let block = rng.below(PAGES * 32);
    let page = rng.below(PAGES);
    let write = rng.chance(0.5);
    match rng.below(7) {
        0 | 1 => DirOp::Fetch { node, block, write },
        2 => DirOp::Upgrade { node, block },
        3 => DirOp::FlushPage { node, page },
        4 => DirOp::Writeback { node, block },
        5 => DirOp::ResetRefetch { node, page },
        _ if write => DirOp::AddReplica { node, page },
        _ => DirOp::Collapse { node, page },
    }
}

/// Every entry's observable state, block by block.
fn snapshot(dir: &Directory, blocks: u64) -> Vec<(NodeSet, Option<NodeId>, NodeSet, NodeSet)> {
    (0..blocks)
        .map(|b| {
            let b = BlockId(b);
            (
                dir.copyset_of(b),
                dir.owner_of(b),
                dir.ever_of(b),
                dir.induced_of(b),
            )
        })
        .collect()
}

/// Check one `flush_page` against a per-entry reference loop over the
/// entries as they were before it.
fn check_flush(dir: &mut Directory, n: NodeId, p: VPage, ctx: &str) {
    let geo = dir.geometry();
    let blocks = PAGES * geo.blocks_per_page() as u64;
    let mut want = snapshot(dir, blocks);
    let (mut dropped, mut dirty) = (0, 0);
    for i in 0..geo.blocks_per_page() {
        let (copyset, owner, _, induced) = &mut want[geo.block_id(p, i).0 as usize];
        if copyset.contains(n) {
            copyset.remove(n);
            induced.insert(n);
            dropped += 1;
            if *owner == Some(n) {
                *owner = None;
                dirty += 1;
            }
        }
    }
    assert_eq!(dir.flush_page(n, p), (dropped, dirty), "{ctx}: counts");
    assert_eq!(snapshot(dir, blocks), want, "{ctx}: entries");
}

/// Apply `ops` to a fresh `nodes`-node directory, checking every
/// property after each; `case` names the sequence in failure messages.
fn protocol_invariants_hold(nodes: usize, ops: impl IntoIterator<Item = DirOp>, case: &str) {
    let geo = Geometry::paper();
    let mut dir = Directory::new(geo, PAGES, nodes);
    let blocks = PAGES * geo.blocks_per_page() as u64;
    // Last observed refetch counts for monotonicity checking.
    let mut last = vec![vec![0u32; nodes]; PAGES as usize];

    for (step, op) in ops.into_iter().enumerate() {
        let ctx = format!("nodes {nodes} {case} step {step}: {op:?}");
        match op {
            DirOp::Fetch { node, block, write } => {
                let n = NodeId(node);
                let b = BlockId(block);
                let was_member = dir.in_copyset(n, b);
                let out = dir.fetch(n, b, write);
                // Classification vs prior membership.
                assert_eq!(out.class == FetchClass::Refetch, was_member, "{ctx}");
                // Requester is always a member afterwards.
                assert!(dir.in_copyset(n, b), "{ctx}");
                if write {
                    assert_eq!(dir.owner_of(b), Some(n), "{ctx}");
                    // Sole member after a write.
                    assert_eq!(dir.copyset_of(b), NodeSet::single(n), "{ctx}");
                    // Invalidation set excluded the writer.
                    assert!(!out.invalidate.contains(n), "{ctx}");
                }
            }
            DirOp::Upgrade { node, block } => {
                let n = NodeId(node);
                let b = BlockId(block);
                // Upgrades are only legal from sharers (machine
                // guarantees this; emulate the precondition).
                if dir.in_copyset(n, b) {
                    let page = geo.page_of_block(b);
                    let before = dir.refetch_count(page, n);
                    let inv = dir.upgrade(n, b);
                    assert!(!inv.contains(n), "{ctx}");
                    assert_eq!(dir.owner_of(b), Some(n), "{ctx}");
                    // Upgrades never count as refetches.
                    assert_eq!(dir.refetch_count(page, n), before, "{ctx}");
                }
            }
            DirOp::FlushPage { node, page } => {
                check_flush(&mut dir, NodeId(node), VPage(page), &ctx);
            }
            DirOp::Writeback { node, block } => {
                let n = NodeId(node);
                let b = BlockId(block);
                dir.writeback(n, b);
                assert_ne!(dir.owner_of(b), Some(n), "{ctx}");
            }
            DirOp::ResetRefetch { node, page } => {
                let n = NodeId(node);
                let p = VPage(page);
                dir.reset_refetch(p, n);
                assert_eq!(dir.refetch_count(p, n), 0, "{ctx}");
                last[page as usize][node as usize] = 0;
            }
            DirOp::AddReplica { node, page } => {
                let p = VPage(page);
                let accepted = dir.add_replica(NodeId(node), p);
                assert_eq!(accepted, !dir.page_written(p), "{ctx}");
            }
            DirOp::Collapse { node, page } => {
                let n = NodeId(node);
                let p = VPage(page);
                let shoot = dir.collapse_replicas(n, p);
                assert!(!shoot.contains(n), "{ctx}");
                assert!(dir.replicas_of(p).is_empty(), "{ctx}");
                assert!(dir.page_written(p), "{ctx}");
            }
        }

        // Global invariants after every operation.
        for blk in 0..blocks {
            let b = BlockId(blk);
            if let Some(o) = dir.owner_of(b) {
                assert!(
                    dir.in_copyset(o, b),
                    "{ctx}: owner {o} of block {blk} not a sharer"
                );
            }
        }
        // Refetch counters monotone between resets.  ("Written page has
        // no replicas" is a machine invariant — the machine collapses
        // replicas before any write reaches the directory — so at this
        // layer only the AddReplica arm's refusal is checked.)
        for (pg, counts) in last.iter_mut().enumerate() {
            for (nd, slot) in counts.iter_mut().enumerate() {
                let c = dir.refetch_count(VPage(pg as u64), NodeId(nd as u16));
                assert!(c >= *slot, "{ctx}: refetch counter fell");
                *slot = c;
            }
        }
    }
}

fn random_ops(nodes: usize, seed: u64, len: usize) -> impl Iterator<Item = DirOp> {
    let mut rng = SimRng::seed_from(seed);
    (0..len).map(move |_| random_op(&mut rng, nodes))
}

#[test]
fn protocol_invariants_hold_packed() {
    for seed in 0..192 {
        protocol_invariants_hold(4, random_ops(4, seed, 300), &format!("seed {seed}"));
    }
}

#[test]
fn protocol_invariants_hold_wide() {
    for seed in 0..64 {
        protocol_invariants_hold(20, random_ops(20, seed, 300), &format!("seed {seed}"));
    }
}

/// The recorded counterexample that moved "written pages hold no
/// replicas" to the machine layer: a write fetch reaches the directory on
/// a page that still registers a replica.  Every directory-level property
/// must still hold on it.
#[test]
fn protocol_invariants_hold_on_recorded_regression() {
    let ops = [
        DirOp::AddReplica { node: 0, page: 3 },
        DirOp::Fetch {
            node: 0,
            block: 0,
            write: false,
        },
        DirOp::Fetch {
            node: 0,
            block: 0,
            write: false,
        },
        DirOp::Fetch {
            node: 0,
            block: 96,
            write: true,
        },
    ];
    protocol_invariants_hold(4, ops, "recorded regression");
}

#[test]
fn induced_cold_fires_exactly_once_per_flushed_block() {
    let geo = Geometry::paper();
    let mut rng = SimRng::seed_from(7);
    for case in 0..128 {
        let nodes = if case % 2 == 0 { 4 } else { 20 };
        let mut dir = Directory::new(geo, PAGES, nodes);
        let n = NodeId(rng.below(nodes as u64) as u16);
        let p = VPage(1);
        let touched: Vec<u32> = (0..32).filter(|_| rng.chance(0.5)).collect();
        for &i in &touched {
            dir.fetch(n, geo.block_id(p, i), rng.chance(0.3));
        }
        let (dropped, _) = dir.flush_page(n, p);
        assert_eq!(dropped as usize, touched.len(), "case {case}");
        for &i in &touched {
            let out1 = dir.fetch(n, geo.block_id(p, i), false);
            assert_eq!(out1.class, FetchClass::ColdInduced, "case {case}");
            let out2 = dir.fetch(n, geo.block_id(p, i), false);
            assert_eq!(out2.class, FetchClass::Refetch, "case {case}");
        }
    }
}
