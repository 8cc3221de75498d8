//! Remap-flush microbenchmarks.
//!
//! Times the two halves of a remap flush — the L1 page invalidation and
//! the directory page flush — in ns/op.  Every other per-access layer
//! (scheduler, TLB, L1 probe, page-table touch, directory fetch, network
//! send) is timed by `benchmark trace`, which replays it on the
//! workloads' own op streams; a remap flush is the one path no replay
//! expresses, so it is timed here on a synthetic page walk.
//!
//! Plain timing harness (no criterion — the build is offline); run with
//! `cargo bench -p ascoma-bench --bench hotpath`.  Numbers are
//! host-dependent and advisory: the CI perf-smoke job runs the suite
//! for liveness (layers must not panic), not for thresholds.

use ascoma_mem::cache::DirectMappedCache;
use ascoma_proto::Directory;
use ascoma_sim::addr::{Geometry, VAddr, VPage};
use ascoma_sim::NodeId;
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
    // L1 page flush: the remap flush of one 4 KB page from a full L1
    // (128 tag checks).  The walk does not branch on hits, so the cost
    // does not depend on how many of the page's lines are resident.
    let geo = Geometry::paper();
    let page_bytes = geo.page_bytes();
    let mut l1 = DirectMappedCache::paper_l1();
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

    // Directory page flush: one node drops its copies of a page (the
    // directory half of a remap flush, 32 entries).  Node 0 first reads
    // every block of the 64 pages; after the first sweep no entry holds a
    // copy, so this is the case a per-entry branch predicts perfectly;
    // the branch-free fold costs the same either way.
    let mut dir = Directory::new(geo, 64, 8);
    for p in 0..64u64 {
        for b in 0..geo.blocks_per_page() {
            dir.fetch(NodeId(0), geo.block_id(VPage(p), b), false);
        }
    }
    let mut i = 0u64;
    bench("dir_flush_page", &mut || {
        for _ in 0..OPS {
            let node = NodeId((black_box(i) & 7) as u16);
            black_box(dir.flush_page(node, VPage(black_box(i >> 3) & 63)));
            i = i.wrapping_add(1);
        }
    });
}
