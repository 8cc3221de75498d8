//! Per-layer hot-path microbenchmarks.
//!
//! Times each layer of the per-access simulation path in isolation —
//! scheduler pop/push (quiescent fast path and contended scan), TLB
//! probe, L1 probe, page-table touch, directory fetch, and network send
//! — plus the two halves of a remap flush (L1 page invalidation and
//! directory page flush), in ns/op.  The full-run benches (`tables`,
//! `perf_baseline`) answer "how fast is a cell"; this suite answers
//! "which layer ate the cycles" when a cell regresses, without needing
//! `perf` on the host.
//!
//! Plain timing harness (no criterion — the build is offline); run with
//! `cargo bench -p ascoma-bench --bench hotpath`.  Numbers are
//! host-dependent and advisory: the CI perf-smoke job runs the suite
//! for liveness (layers must not panic), not for thresholds.

use ascoma_mem::cache::DirectMappedCache;
use ascoma_net::Network;
use ascoma_proto::Directory;
use ascoma_sim::addr::{Geometry, VAddr, VPage};
use ascoma_sim::sched::Scheduler;
use ascoma_sim::NodeId;
use ascoma_vm::page_table::PageTable;
use ascoma_vm::tlb::Tlb;
use std::hint::black_box;
use std::time::Instant;

/// Operations per sample: large enough that per-sample clock reads
/// vanish, small enough that seven samples finish in seconds.
const OPS: usize = 1_000_000;
const SAMPLES: usize = 7;

// Wall-clock reads are this harness's whole purpose.
#[allow(clippy::disallowed_methods)]
fn sample_ns(f: &mut dyn FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / OPS as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Run `f` (one full batch of [`OPS`] operations) [`SAMPLES`] times
/// after a warm-up batch; print and return the median ns/op.
fn bench(name: &str, f: &mut dyn FnMut()) -> f64 {
    f();
    let mut xs = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        xs.push(sample_ns(f));
    }
    let m = median(xs);
    println!("hotpath/{name:<16} {m:>8.2} ns/op");
    m
}

fn main() {
    // Scheduler, quiescent: one node streams below every other clock —
    // each pop must hit the runner-up fast path (a single compare).
    let mut quiet = Scheduler::new();
    quiet.push(NodeId(0), 0);
    for n in 1..8u16 {
        quiet.push(NodeId(n), 1 << 40);
    }
    bench("sched_quiescent", &mut || {
        for _ in 0..OPS {
            let (n, t) = quiet.pop().unwrap();
            quiet.push(black_box(n), t + 10);
        }
    });

    // Scheduler, contended: 8 nodes in lock-step, so every pop rescans.
    let mut busy = Scheduler::with_nodes(8);
    bench("sched_contended", &mut || {
        for _ in 0..OPS {
            let (n, t) = busy.pop().unwrap();
            busy.push(black_box(n), t + 10);
        }
    });

    // TLB probe: 64 resident pages, every access a hit.
    let mut tlb = Tlb::paper();
    for p in 0..64u64 {
        tlb.access(VPage(p));
    }
    let mut i = 0u64;
    bench("tlb_probe_hit", &mut || {
        for _ in 0..OPS {
            black_box(tlb.access(VPage(black_box(i & 63))));
            i = i.wrapping_add(1);
        }
    });

    // L1 probe: 64 resident lines, every access a read hit.
    let geo = Geometry::paper();
    let mut l1 = DirectMappedCache::paper_l1();
    for j in 0..64u64 {
        l1.access(VAddr(j * geo.line_bytes()), false);
        l1.fill(VAddr(j * geo.line_bytes()), false);
    }
    let mut i = 0u64;
    bench("l1_probe_hit", &mut || {
        for _ in 0..OPS {
            black_box(l1.access(VAddr(black_box(i & 63) * geo.line_bytes()), false));
            i = i.wrapping_add(1);
        }
    });

    // L1 page flush: the remap flush of one 4 KB page from a full L1
    // (128 tag checks).  The walk does not branch on hits, so the cost
    // does not depend on how many of the page's lines are resident.
    let page_bytes = geo.page_bytes();
    for j in 0..(8 * 1024 / geo.line_bytes()) {
        l1.fill(VAddr(j * geo.line_bytes()), j & 1 == 0);
    }
    let mut i = 0u64;
    bench("l1_flush_page", &mut || {
        for _ in 0..OPS {
            black_box(l1.invalidate_range(VAddr(black_box(i & 63) * page_bytes), page_bytes));
            i = i.wrapping_add(1);
        }
    });

    // Page-table touch: the referenced-bit store on every shared access.
    let mut pt = PageTable::new(64, geo.blocks_per_page());
    for p in 0..64u64 {
        pt.map_numa(VPage(p));
    }
    let mut i = 0u64;
    bench("pt_touch", &mut || {
        for _ in 0..OPS {
            pt.touch(VPage(black_box(i & 63)));
            i = i.wrapping_add(1);
        }
    });

    // Directory fetch: repeated read fetches by a copyset member (the
    // steady-state home-miss path; no forwards, no invalidations).
    let mut dir = Directory::new(geo, 64, 8);
    let mut i = 0u64;
    bench("dir_fetch", &mut || {
        for _ in 0..OPS {
            let block = geo.block_id(VPage(black_box(i & 63)), 0);
            black_box(dir.fetch(NodeId(0), block, false));
            i = i.wrapping_add(1);
        }
    });

    // Directory page flush: one node drops its copies of a page (the
    // directory half of a remap flush, 32 entries).  After the first
    // sweep no entry holds a copy, so this is the case a per-entry branch
    // predicts perfectly; the branch-free fold costs the same either way.
    let mut i = 0u64;
    bench("dir_flush_page", &mut || {
        for _ in 0..OPS {
            let node = NodeId((black_box(i) & 7) as u16);
            black_box(dir.flush_page(node, VPage(black_box(i >> 3) & 63)));
            i = i.wrapping_add(1);
        }
    });

    // Directory fetch, wide: a full-size directory (16 Ki pages — the
    // scale the big sweep cells run at) probed with a scrambled block
    // sequence, so entries come from DRAM instead of L1.  The spread
    // between this and `dir_fetch` is the directory's memory-residency
    // cost, which the compact entry layout exists to bound.
    let mut wide = Directory::new(geo, 16 * 1024, 8);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let nblocks = 16 * 1024 * geo.blocks_per_page() as u64;
    bench("dir_fetch_wide", &mut || {
        for _ in 0..OPS {
            // Weyl sequence: visits blocks in a cache-hostile order.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let block = ascoma_sim::addr::BlockId((x >> 16) % nblocks);
            black_box(wide.fetch(NodeId(0), block, false));
        }
    });

    // Network send: uncontended (now outruns port occupancy), one
    // cache-block payload — the precomputed-wire-table path.
    let mut net = Network::paper(8);
    let mut now = 0u64;
    let mut i = 0u64;
    bench("net_send", &mut || {
        for _ in 0..OPS {
            let to = NodeId(1 + (i & 3) as u16);
            black_box(net.send(black_box(now), NodeId(0), to, 128));
            now += 100;
            i = i.wrapping_add(1);
        }
    });
}
