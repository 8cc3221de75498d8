//! Layer replays: each layer built standalone from its public
//! constructor and driven with the op stream of one of the workload's
//! traces, giving host nanoseconds per layer operation.
//!
//! The machine interleaves nodes by simulated time; the replays
//! interleave them round-robin, one access per node in turn, which keeps
//! each node's own access order and mixes nodes the way lock-step
//! progress does.  Caches, TLBs and tables start empty, as in every
//! cell.  Each replay is timed [`REPS`] times on fresh state and the
//! median is kept.

use crate::spans::Spans;
use ascoma::SimConfig;
use ascoma_bench::pacing::Clock;
use ascoma_mem::cache::{DirectMappedCache, Lookup};
use ascoma_mem::timing::LocalMemory;
use ascoma_net::{Network, Topology};
use ascoma_proto::Directory;
use ascoma_sim::addr::{VAddr, VPage};
use ascoma_sim::sched::Scheduler;
use ascoma_sim::NodeId;
use ascoma_vm::home_alloc::assign_homes;
use ascoma_vm::{FramePool, PageTable, PageoutDaemon, Tlb};
use ascoma_workloads::trace::{Op, PackedOp, Trace, TraceRunner};
use std::hint::black_box;

/// Timed repetitions per replay.
pub const REPS: usize = 3;
/// Memory pressure whose S-COMA frame count the pageout replay scans:
/// every workload's daemon work concentrates in its high-pressure cells.
const PAGEOUT_PRESSURE: f64 = 0.9;
/// Pages the pageout replay examines per repetition (about).
const PAGEOUT_EXAMINED: u64 = 2_000_000;

/// Host cost of each layer on one trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// `TraceRunner::next`, ns per memory op.
    pub replay_ns: f64,
    /// `Scheduler` pop / requeue test / push, ns per scheduled step.
    pub sched_ns: f64,
    /// `Tlb::access`, ns per probe.
    pub tlb_ns: f64,
    /// TLB replay misses / probes.
    pub tlb_miss_ratio: f64,
    /// `PageTable::touch`, ns per touch.
    pub pt_ns: f64,
    /// `DirectMappedCache::access` plus `fill` on a miss, ns per probe.
    pub l1_ns: f64,
    /// L1 replay misses / probes.
    pub l1_miss_ratio: f64,
    /// `LocalMemory::local_fetch`, ns per fetch.
    pub local_fetch_ns: f64,
    /// `Directory::fetch`, ns per fetch.
    pub dir_ns: f64,
    /// `Network::send`, ns per message.
    pub send_ns: f64,
    /// `PageoutDaemon::run`, ns per page examined.
    pub pageout_ns: f64,
}

/// A packed access: node in bits 56.., then [`PackedOp`]'s layout
/// (address << 2 | private << 1 | write).
#[derive(Clone, Copy)]
struct Access(u64);

impl Access {
    fn new(node: usize, op: PackedOp) -> Self {
        Self((node as u64) << 56 | op.0)
    }
    fn node(self) -> usize {
        (self.0 >> 56) as usize
    }
    fn op(self) -> PackedOp {
        PackedOp(self.0 & ((1 << 56) - 1))
    }
}

/// Time `f` on fresh state [`REPS`] times; return the median seconds and
/// the work count `f` reports (the same on every repetition).
fn timed(mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut secs = Vec::with_capacity(REPS);
    let mut count = 0;
    for _ in 0..REPS {
        let c = Clock::start();
        count = black_box(f());
        secs.push(c.elapsed_secs());
    }
    (crate::stats::median(&secs), count)
}

fn ns_per(secs: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        secs * 1e9 / count as f64
    }
}

/// Replay every layer on `trace` under `cfg`, one span per layer.
pub fn replay(spans: &mut Spans, app: &str, trace: &Trace, cfg: &SimConfig) -> LayerCosts {
    let geo = cfg.geometry;
    let nodes = trace.nodes;
    let mut c = LayerCosts::default();
    let layer = |spans: &mut Spans, name: &str, f: &mut dyn FnMut() -> (f64, u64)| {
        let id = spans.begin(format!("replay {name} {app}"));
        let (secs, count) = f();
        spans.end(id);
        ns_per(secs, count)
    };

    c.replay_ns = layer(spans, "workloads", &mut || {
        timed(|| {
            let mut ops = 0u64;
            for p in &trace.programs {
                let mut r = TraceRunner::new(p);
                while let Some(op) = r.next() {
                    ops += matches!(black_box(op), Op::Access { .. }) as u64;
                }
            }
            ops
        })
    });

    // Per-node step costs in cycles, as the machine would advance each
    // node's clock (user compute plus one cycle per access).
    let steps: Vec<Vec<u32>> = trace
        .programs
        .iter()
        .map(|p| {
            let mut r = TraceRunner::new(p);
            std::iter::from_fn(|| r.next())
                .map(|op| match op {
                    Op::Access { pre_compute, .. } => pre_compute.saturating_add(1),
                    Op::Compute(c) => u32::try_from(c).unwrap_or(u32::MAX),
                    _ => 1,
                })
                .collect()
        })
        .collect();
    c.sched_ns = layer(spans, "sim", &mut || timed(|| sched_replay(&steps)));
    drop(steps);

    let stream = interleave(trace);
    let shared: Vec<Access> = stream
        .iter()
        .copied()
        .filter(|a| !a.op().private())
        .collect();
    let mut tlb_misses = 0;
    c.tlb_ns = layer(spans, "vm.tlb", &mut || {
        timed(|| {
            let mut tlbs: Vec<Tlb> = (0..nodes).map(|_| Tlb::paper()).collect();
            for a in &shared {
                black_box(tlbs[a.node()].access(geo.page_of(VAddr(a.op().addr()))));
            }
            tlb_misses = tlbs.iter().map(|t| t.stats().1).sum();
            shared.len() as u64
        })
    });
    c.tlb_miss_ratio = tlb_misses as f64 / shared.len().max(1) as f64;
    c.pt_ns = layer(spans, "vm.pt", &mut || {
        timed(|| {
            let mut pts: Vec<PageTable> = (0..nodes)
                .map(|_| PageTable::new(trace.shared_pages, geo.blocks_per_page()))
                .collect();
            for a in &shared {
                pts[a.node()].touch(geo.page_of(VAddr(a.op().addr())));
            }
            black_box(&pts);
            shared.len() as u64
        })
    });
    drop(shared);

    c.l1_ns = layer(spans, "mem.l1", &mut || {
        timed(|| l1_replay(trace, cfg, &stream, |_| {}))
    });
    let mut misses = Vec::new();
    l1_replay(trace, cfg, &stream, |a| misses.push(a));
    c.l1_miss_ratio = misses.len() as f64 / stream.len().max(1) as f64;
    drop(stream);

    c.local_fetch_ns = layer(spans, "mem.local", &mut || {
        timed(|| {
            let mut mems: Vec<LocalMemory> = (0..nodes)
                .map(|_| LocalMemory::new(cfg.mem, geo.block_bytes()))
                .collect();
            let mut now = vec![0u64; nodes];
            for a in &misses {
                let n = a.node();
                now[n] += 20;
                black_box(mems[n].local_fetch(now[n], a.op().addr(), geo.line_bytes()));
            }
            misses.len() as u64
        })
    });
    misses.retain(|a| !a.op().private());
    c.dir_ns = layer(spans, "proto", &mut || {
        timed(|| {
            let mut dir = Directory::new(geo, trace.shared_pages, nodes);
            for a in &misses {
                let block = geo.block_of(VAddr(a.op().addr()));
                black_box(dir.fetch(NodeId(a.node() as u16), block, a.op().write()));
            }
            misses.len() as u64
        })
    });
    let homes = assign_homes(&trace.first_toucher, nodes);
    c.send_ns = layer(spans, "net", &mut || {
        timed(|| {
            let mut net = Network::new(Topology::paper(nodes), cfg.net);
            let mut now = 0u64;
            for a in &misses {
                let node = NodeId(a.node() as u16);
                let home = homes[geo.page_of(VAddr(a.op().addr())).0 as usize];
                if home != node {
                    let t = net.send(now, node, home, 0);
                    black_box(net.send(t, home, node, geo.block_bytes()));
                }
                now += 20;
            }
            net.messages()
        })
    });
    drop(misses);

    c.pageout_ns = layer(spans, "vm.pageout", &mut || {
        timed(|| pageout_replay(trace, cfg, &homes))
    });
    c
}

/// Every access through a per-node L1 (fill on a miss), reporting each
/// miss to `on_miss`.  Returns the probes.
fn l1_replay(
    trace: &Trace,
    cfg: &SimConfig,
    stream: &[Access],
    mut on_miss: impl FnMut(Access),
) -> u64 {
    let geo = cfg.geometry;
    let private_base = trace.shared_pages * geo.page_bytes();
    let mut l1s: Vec<DirectMappedCache> = (0..trace.nodes)
        .map(|_| DirectMappedCache::new_assoc(cfg.l1_bytes, geo.line_bytes(), cfg.l1_ways))
        .collect();
    for &a in stream {
        let op = a.op();
        let addr = VAddr(op.addr() + if op.private() { private_base } else { 0 });
        if !matches!(l1s[a.node()].access(addr, op.write()), Lookup::Hit) {
            black_box(l1s[a.node()].fill(addr, op.write()));
            on_miss(a);
        }
    }
    stream.len() as u64
}

/// Round-robin interleaving of every node's accesses.
fn interleave(trace: &Trace) -> Vec<Access> {
    let mut runners: Vec<TraceRunner> = trace.programs.iter().map(TraceRunner::new).collect();
    let mut out = Vec::with_capacity(trace.total_ops() as usize);
    let mut live = true;
    while live {
        live = false;
        for (n, r) in runners.iter_mut().enumerate() {
            while let Some(op) = r.next() {
                if let Op::Access {
                    addr,
                    write,
                    private,
                    ..
                } = op
                {
                    out.push(Access::new(n, PackedOp::new(addr.0, write, private)));
                    live = true;
                    break;
                }
            }
        }
    }
    out
}

/// The machine's scheduling loop (pop, keep stepping while the node
/// stays next, else push) over per-node step costs.  Returns the steps.
fn sched_replay(steps: &[Vec<u32>]) -> u64 {
    let mut sched = Scheduler::with_nodes(steps.len());
    let mut pos = vec![0usize; steps.len()];
    while let Some((node, mut t)) = sched.pop() {
        let n = node.idx();
        while let Some(&d) = steps[n].get(pos[n]) {
            pos[n] += 1;
            t += u64::from(d);
            if !sched.requeue_is_next(node, t) {
                sched.push(node, t);
                break;
            }
        }
    }
    steps.iter().map(|s| s.len() as u64).sum()
}

/// Second-chance epochs over node 0's S-COMA frames at
/// [`PAGEOUT_PRESSURE`], half the resident pages re-referenced between
/// epochs.  Victims stay mapped so every epoch scans the same set.
/// Returns the pages examined.
fn pageout_replay(trace: &Trace, cfg: &SimConfig, homes: &[NodeId]) -> u64 {
    let home_pages = homes.iter().filter(|h| h.0 == 0).count() as u32;
    let pool = FramePool::from_pressure(
        home_pages.max(1),
        PAGEOUT_PRESSURE,
        cfg.free_min_frac,
        cfg.free_target_frac,
    );
    let mut pt = PageTable::new(trace.shared_pages, cfg.geometry.blocks_per_page());
    let remote: Vec<VPage> = (0..trace.shared_pages)
        .map(VPage)
        .filter(|p| homes[p.0 as usize].0 != 0)
        .take(pool.cache_frames().max(1) as usize)
        .collect();
    for (frame, &p) in remote.iter().enumerate() {
        pt.map_scoma(p, frame as u32);
    }
    let mut daemon = PageoutDaemon::new(0);
    let mut examined = 0u64;
    let mut epoch = 0u64;
    while examined < PAGEOUT_EXAMINED && !remote.is_empty() {
        for p in remote.iter().skip((epoch % 2) as usize).step_by(2) {
            pt.touch(*p);
        }
        examined += u64::from(daemon.run(epoch, &mut pt, pool.free_target()).examined);
        epoch += 1;
    }
    examined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{build, Size};
    use ascoma_workloads::App;

    #[test]
    fn every_layer_replays_with_positive_cost() {
        let trace = build(App::Radix, Size::Smoke, 0);
        let cfg = SimConfig::at_pressure(0.5);
        let mut spans = Spans::new();
        let c = replay(&mut spans, "radix", &trace, &cfg);
        for (name, v) in [
            ("replay", c.replay_ns),
            ("sched", c.sched_ns),
            ("tlb", c.tlb_ns),
            ("pt", c.pt_ns),
            ("l1", c.l1_ns),
            ("local", c.local_fetch_ns),
            ("dir", c.dir_ns),
            ("net", c.send_ns),
            ("pageout", c.pageout_ns),
        ] {
            assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
        }
        assert!(c.l1_miss_ratio > 0.0 && c.l1_miss_ratio <= 1.0);
        assert!(c.tlb_miss_ratio > 0.0 && c.tlb_miss_ratio <= 1.0);
        assert_eq!(spans.all().len(), 9, "one span per layer replay");
    }

    #[test]
    fn interleaving_keeps_every_access_in_node_order() {
        let trace = build(App::Em3d, Size::Smoke, 0);
        let s = interleave(&trace);
        assert_eq!(s.len() as u64, trace.total_ops());
        let node1: Vec<u64> = s
            .iter()
            .filter(|a| a.node() == 1)
            .map(|a| a.op().0)
            .collect();
        let mut r = TraceRunner::new(&trace.programs[1]);
        let direct: Vec<u64> = std::iter::from_fn(|| r.next())
            .filter_map(|op| match op {
                Op::Access {
                    addr,
                    write,
                    private,
                    ..
                } => Some(PackedOp::new(addr.0, write, private).0),
                _ => None,
            })
            .collect();
        assert_eq!(node1, direct);
        assert_eq!(
            sched_replay(&[vec![1, 2, 3], vec![5], vec![]]),
            4,
            "every step is scheduled once"
        );
    }
}
