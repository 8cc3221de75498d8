//! Microbenchmark family: small parameterized kernels for calibration,
//! ablations and API examples.
//!
//! These are not from the paper's evaluation; they isolate single
//! memory-system behaviors the six applications mix together:
//!
//! * [`uniform`] — uniformly random reads/writes over a shared region
//!   (pure capacity stress, no locality).
//! * [`hotspot`] — a skewed mix: most accesses to a small hot set, the
//!   rest uniform (classic working-set shape).
//! * [`streaming`] — long sequential read streams (the RAC's best case).
//! * [`read_only_table`] — a never-written lookup table homed on node 0,
//!   scanned scatteredly by everyone (the replication extension's best
//!   case, and a hot-home bottleneck for CC-NUMA).
//! * [`ping_pong`] — two nodes alternately writing the same block
//!   (worst-case coherence traffic).

use crate::synth::{sweep, Arena};
use crate::trace::{NodeProgram, ScheduleItem, Segment, Trace};
use ascoma_sim::rng::SimRng;
use ascoma_sim::NodeId;

/// Uniformly random accesses over a block-partitioned shared region.
pub fn uniform(
    nodes: usize,
    pages_per_node: u64,
    accesses_per_node: u64,
    write_frac: f64,
    iters: u32,
    seed: u64,
    page_bytes: u64,
) -> Trace {
    assert!(nodes >= 2);
    let mut arena = Arena::new(page_bytes);
    let region = arena.alloc_partitioned(pages_per_node * nodes as u64 * page_bytes, nodes);
    let root = SimRng::seed_from(seed);
    let programs = (0..nodes)
        .map(|n| {
            let mut rng = root.derive(n as u64);
            let mut p = NodeProgram::default();
            let mut seg = Segment::new(2);
            for _ in 0..accesses_per_node {
                let a = region.base + (rng.below(region.bytes / 32)) * 32;
                seg.push(a, rng.chance(write_frac));
            }
            let i = p.add_segment(seg);
            for _ in 0..iters {
                p.schedule.push(ScheduleItem::Run(i));
                p.schedule.push(ScheduleItem::Barrier);
            }
            p
        })
        .collect();
    Trace {
        name: "uniform".into(),
        nodes,
        shared_pages: arena.pages(),
        first_toucher: arena.into_first_toucher(),
        programs,
    }
}

/// A skewed mix: `hot_frac` of accesses hit a `hot_pages`-page hot set.
#[allow(clippy::too_many_arguments)]
pub fn hotspot(
    nodes: usize,
    pages_per_node: u64,
    hot_pages: u64,
    hot_frac: f64,
    accesses_per_node: u64,
    iters: u32,
    seed: u64,
    page_bytes: u64,
) -> Trace {
    assert!(nodes >= 2);
    let mut arena = Arena::new(page_bytes);
    let cold = arena.alloc_partitioned(pages_per_node * nodes as u64 * page_bytes, nodes);
    let hot = arena.alloc(hot_pages * page_bytes, |p| {
        NodeId((p % nodes as u64) as u16)
    });
    let root = SimRng::seed_from(seed);
    let programs = (0..nodes)
        .map(|n| {
            let mut rng = root.derive(n as u64 + 1000);
            let mut p = NodeProgram::default();
            let mut seg = Segment::new(2);
            for _ in 0..accesses_per_node {
                let (r, base, bytes) = if rng.chance(hot_frac) {
                    (&mut rng, hot.base, hot.bytes)
                } else {
                    (&mut rng, cold.base, cold.bytes)
                };
                let a = base + r.below(bytes / 32) * 32;
                seg.push(a, false);
            }
            let i = p.add_segment(seg);
            for _ in 0..iters {
                p.schedule.push(ScheduleItem::Run(i));
                p.schedule.push(ScheduleItem::Barrier);
            }
            p
        })
        .collect();
    Trace {
        name: "hotspot".into(),
        nodes,
        shared_pages: arena.pages(),
        first_toucher: arena.into_first_toucher(),
        programs,
    }
}

/// Long sequential read streams over every peer's slab.
pub fn streaming(nodes: usize, pages_per_node: u64, iters: u32, page_bytes: u64) -> Trace {
    assert!(nodes >= 2);
    let mut arena = Arena::new(page_bytes);
    let region = arena.alloc_partitioned(pages_per_node * nodes as u64 * page_bytes, nodes);
    let programs = (0..nodes)
        .map(|n| {
            let mut p = NodeProgram::default();
            let mut seg = Segment::new(1);
            for j in 0..nodes {
                let slab = region.slab((n + j) % nodes, nodes, page_bytes);
                sweep(&mut seg, slab.base, slab.bytes, 32, false);
            }
            let i = p.add_segment(seg);
            for _ in 0..iters {
                p.schedule.push(ScheduleItem::Run(i));
                p.schedule.push(ScheduleItem::Barrier);
            }
            p
        })
        .collect();
    Trace {
        name: "streaming".into(),
        nodes,
        shared_pages: arena.pages(),
        first_toucher: arena.into_first_toucher(),
        programs,
    }
}

/// A never-written lookup table homed on node 0, scanned scatteredly
/// (one line per DSM block) by every other node; node 0 does private
/// work.  Ballast pages keep first-touch homes balanced.
pub fn read_only_table(nodes: usize, table_pages: u64, scans: u32, page_bytes: u64) -> Trace {
    assert!(nodes >= 2);
    let table_bytes = table_pages * page_bytes;
    let mut programs = Vec::new();
    for n in 0..nodes {
        let mut p = NodeProgram::default();
        let mut seg = Segment::new(2);
        if n == 0 {
            seg.push_private(0, true);
        } else {
            let mut a = 0;
            while a < table_bytes {
                seg.push(a, false);
                a += 128;
            }
        }
        let i = p.add_segment(seg);
        for _ in 0..scans {
            p.schedule.push(ScheduleItem::Run(i));
        }
        p.schedule.push(ScheduleItem::Barrier);
        programs.push(p);
    }
    let mut first_toucher = vec![NodeId(0); table_pages as usize];
    for n in 0..nodes {
        first_toucher.extend(vec![NodeId(n as u16); table_pages as usize]);
    }
    Trace {
        name: "read-only-table".into(),
        nodes,
        shared_pages: first_toucher.len() as u64,
        first_toucher,
        programs,
    }
}

/// Two nodes alternately writing the same DSM block (false-sharing /
/// migratory worst case); remaining nodes idle on private work.
pub fn ping_pong(nodes: usize, rounds: u32, page_bytes: u64) -> Trace {
    assert!(nodes >= 2);
    let mut arena = Arena::new(page_bytes);
    let _region = arena.alloc(page_bytes * nodes as u64, |p| {
        NodeId((p % nodes as u64) as u16)
    });
    let programs = (0..nodes)
        .map(|n| {
            let mut p = NodeProgram::default();
            let mut seg = Segment::new(2);
            if n < 2 {
                seg.push(0, true); // both hammer block 0 of page 0
            } else {
                seg.push_private(0, true);
            }
            let i = p.add_segment(seg);
            for _ in 0..rounds {
                p.schedule.push(ScheduleItem::Run(i));
            }
            p.schedule.push(ScheduleItem::Barrier);
            p
        })
        .collect();
    Trace {
        name: "ping-pong".into(),
        nodes,
        shared_pages: arena.pages(),
        first_toucher: arena.into_first_toucher(),
        programs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::profile;

    #[test]
    fn all_micros_build_valid_traces() {
        for t in [
            uniform(4, 4, 500, 0.2, 2, 1, 4096),
            hotspot(4, 4, 2, 0.8, 500, 2, 2, 4096),
            streaming(4, 4, 2, 4096),
            read_only_table(4, 8, 3, 4096),
            ping_pong(4, 50, 4096),
        ] {
            t.validate(4096);
            assert!(t.total_ops() > 0, "{}", t.name);
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let t = hotspot(4, 8, 2, 0.9, 2000, 1, 7, 4096);
        // Count accesses landing in the hot region (last 2 pages).
        let hot_base = 4 * 8 * 4096;
        let seg = &t.programs[0].segments[0];
        let hot = seg.ops.iter().filter(|o| o.addr() >= hot_base).count();
        let frac = hot as f64 / seg.ops.len() as f64;
        assert!((0.8..1.0).contains(&frac), "hot fraction {frac}");
    }

    #[test]
    fn streaming_is_sequential() {
        let t = streaming(4, 2, 1, 4096);
        let seg = &t.programs[0].segments[0];
        let seq = seg
            .ops
            .iter()
            .zip(seg.ops.iter().skip(1))
            .filter(|(a, b)| b.addr() == a.addr() + 32)
            .count();
        assert!(seq * 10 >= seg.ops.len() * 9);
    }

    #[test]
    fn read_only_table_has_no_shared_writes() {
        let t = read_only_table(4, 8, 2, 4096);
        for p in &t.programs {
            for s in &p.segments {
                assert!(s.ops.iter().all(|o| o.private() || !o.write()));
            }
        }
    }

    #[test]
    fn ping_pong_is_write_shared() {
        let t = ping_pong(4, 10, 4096);
        let w0: Vec<u64> = t.programs[0].segments[0]
            .ops
            .iter()
            .filter(|o| o.write() && !o.private())
            .map(|o| o.addr())
            .collect();
        let w1: Vec<u64> = t.programs[1].segments[0]
            .ops
            .iter()
            .filter(|o| o.write() && !o.private())
            .map(|o| o.addr())
            .collect();
        assert_eq!(w0, w1, "both contenders write the same address");
    }

    #[test]
    fn uniform_touches_most_pages() {
        let t = uniform(4, 4, 4000, 0.1, 1, 3, 4096);
        let prof = profile(&t, 4096);
        assert!(prof.max_remote_pages >= 10);
    }
}
