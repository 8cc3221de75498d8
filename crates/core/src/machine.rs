//! The machine: N node actors over the shared substrates.
//!
//! Each node owns an L1, a RAC, a page table, a frame pool, a pageout
//! daemon and a policy; the machine owns the directory, the interconnect
//! and the per-node local-memory paths (bus + banked DRAM), which remote
//! transactions from *other* nodes also traverse — that cross-traffic is
//! how memory-system contention couples the nodes.
//!
//! Because the modeled processors are sequentially consistent with one
//! outstanding miss (the paper's configuration), a node's memory operation
//! resolves completely before its next issues, so the machine interleaves
//! nodes with a global min-heap over per-node clocks and resolves each
//! operation synchronously against busy-until resources.
//!
//! The access path implements the paper's Section 2 walk: L1 → page-mode
//! lookup → local DRAM (home page or valid S-COMA block) / RAC / remote
//! fetch through the home directory, with refetch counting, relocation
//! interrupts, pageout-daemon invocations and all kernel charges landing
//! in the `K-BASE` / `K-OVERHD` buckets the paper's Figures 2–3 stack.

use crate::config::{Arch, SimConfig};
use crate::policy::{adjust_period, FrameSource, MapChoice, PolicyState};
use crate::result::RunResult;
use ascoma_check::{assert_all, MachineView, NodeView};
use ascoma_mem::cache::{DirectMappedCache, Lookup};
use ascoma_mem::timing::LocalMemory;
use ascoma_net::{Network, Topology};
use ascoma_obs::{
    BackoffKind, BatchSink, Controller, Event, EventLog, EvictCause, MapMode, MetricsRegistry,
    MissLoc, NoopSink, Sink, Snapshot, StreamSink, SummaryFold, ThresholdStep, WindowSample,
};
use ascoma_proto::{Directory, FetchClass, ProtoStats};
use ascoma_sim::addr::{VAddr, VPage};
use ascoma_sim::sched::Scheduler;
use ascoma_sim::stats::{ExecBreakdown, KernelStats, MissBreakdown, MissLatency};
use ascoma_sim::{Cycles, NodeId, NodeSet};
use ascoma_vm::home_alloc::assign_homes;
use ascoma_vm::{FramePool, PageMode, PageTable, PageoutDaemon, Tlb};
use ascoma_workloads::trace::{Op, Trace, TraceRunner};

/// Which time bucket a latency charge lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    ShMem,
    LcMem,
    KBase,
    KOverhd,
    Instr,
}

// ----- per-page action codes -----
//
// The shared-access L1-miss path dispatches on a per-node, per-page
// *action byte* instead of re-deriving `(arch, PageMode)` per access:
// one dense-array load indexes straight into the handler.  The table is
// recomputed from the page table (the single source of truth) at the
// few sites that change a page's mode — fault, refault, relocation,
// eviction, replica collapse — and a debug assertion on the hot path
// checks it against the page table on every dispatch.

/// Page unmapped: take a first-touch fault.
const ACT_FAULT: u8 = 0;
/// Page homed here: local directory + memory service.
const ACT_HOME: u8 = 1;
/// S-COMA mapping: probe the page cache's valid bits.
const ACT_SCOMA: u8 = 2;
/// CC-NUMA mapping: RAC probe, then remote fetch.
const ACT_NUMA: u8 = 3;
/// Pure-S-COMA page evicted to NUMA mode: re-fault into a frame (falls
/// through to the CC-NUMA path only if no frame can be had).
const ACT_REFAULT: u8 = 4;

/// The action byte for a page in `mode` under `arch`.
#[inline]
fn action_for(arch: Arch, mode: PageMode) -> u8 {
    match mode {
        PageMode::Unmapped => ACT_FAULT,
        PageMode::Home => ACT_HOME,
        PageMode::Scoma { .. } => ACT_SCOMA,
        PageMode::Numa if arch == Arch::Scoma => ACT_REFAULT,
        PageMode::Numa => ACT_NUMA,
    }
}

/// One node actor.
struct NodeCtx<'t> {
    clock: Cycles,
    runner: TraceRunner<'t>,
    l1: DirectMappedCache,
    rac: Option<DirectMappedCache>,
    pt: PageTable,
    /// Per-page action bytes (see [`action_for`]), the L1-miss dispatch
    /// table.  Kept coherent with `pt` at every mode-changing site.
    act: Vec<u8>,
    tlb: Tlb,
    pool: FramePool,
    daemon: PageoutDaemon,
    pol: PolicyState,
    exec: ExecBreakdown,
    miss: MissBreakdown,
    lat: MissLatency,
    kstats: KernelStats,
    /// Distinct remote pages this node has touched.
    remote_touched: Vec<bool>,
    /// Distinct pages this node has upgraded to S-COMA.
    upgraded: Vec<bool>,
    /// Every value the refetch threshold took, time-stamped (first entry
    /// is the initial threshold at cycle 0).  Tracked unconditionally:
    /// threshold moves are daemon-rate events, so the cost is nil.
    trajectory: Vec<ThresholdStep>,
    /// The daemon base period back-off recovery hastens toward.  Equals
    /// `kernel.daemon_period` unless the controller retargets it, so with
    /// the controller off the daemon behaves byte-identically to before
    /// this field existed.
    period_base: Cycles,
    /// Cumulative cycles spent in daemon reclaim epochs (controller
    /// signal; daemon-rate, so tracking unconditionally costs nil).
    reclaim_cycles_total: Cycles,
    done: bool,
    finish: Cycles,
    at_barrier: bool,
}

impl NodeCtx<'_> {
    /// Advance this node's clock, attributing the cycles to `bucket`.
    #[inline]
    fn charge(&mut self, bucket: Bucket, cycles: Cycles) {
        self.clock += cycles;
        match bucket {
            Bucket::ShMem => self.exec.u_sh_mem += cycles,
            Bucket::LcMem => self.exec.u_lc_mem += cycles,
            Bucket::KBase => self.exec.k_base += cycles,
            Bucket::KOverhd => self.exec.k_overhd += cycles,
            Bucket::Instr => self.exec.u_instr += cycles,
        }
    }
}

/// One mutual-exclusion lock (SPLASH-style `LOCK`/`UNLOCK` pairs).
#[derive(Debug, Default)]
struct LockState {
    held_by: Option<usize>,
    /// FIFO of blocked nodes with their arrival times.
    waiters: std::collections::VecDeque<(usize, Cycles)>,
}

/// Per-node cumulative-counter checkpoints at the last control window,
/// so each window's [`WindowSample`] is a cheap delta of totals the
/// machine tracks anyway.
#[derive(Debug, Clone, Copy, Default)]
struct CtlPrev {
    refetch: u64,
    reclaims: u64,
    reclaim_cycles: Cycles,
}

/// The machine simulator.
///
/// Generic over an observability [`Sink`]; the default [`NoopSink`] has
/// `Sink::ENABLED == false`, so every `if S::ENABLED` emission block is
/// removed at compile time and an uninstrumented run is identical to the
/// pre-instrumentation simulator.
pub struct Machine<'t, S: Sink = NoopSink> {
    cfg: SimConfig,
    arch: Arch,
    trace: &'t Trace,
    homes: Vec<NodeId>,
    dir: Directory,
    net: Network,
    mems: Vec<LocalMemory>,
    nodes: Vec<NodeCtx<'t>>,
    sched: Scheduler,
    locks: Vec<LockState>,
    proto_stats: ProtoStats,
    barrier_arrivals: Vec<Option<Cycles>>,
    active: usize,
    /// Nodes currently waiting at the barrier (mirror of the `at_barrier`
    /// flags, so release checks avoid an O(nodes) scan per arrival).
    waiting: usize,
    private_base: u64,
    sink: S,
    /// Next global time the periodic sampler fires (u64::MAX = off).
    next_sample: Cycles,
    /// The auto-tuner, when `cfg.controller.enabled`.  NOT sink-gated:
    /// it changes behavior, so it runs identically under every sink;
    /// only its event emissions are `S::ENABLED`-gated.
    ctl: Option<Controller>,
    /// Per-node counter checkpoints for window-delta samples (empty when
    /// the controller is off).
    ctl_prev: Vec<CtlPrev>,
    /// Decision windows elapsed.
    ctl_window: u64,
    /// Next global time the controller fires (u64::MAX = off).
    next_control: Cycles,
}

impl<'t> Machine<'t> {
    /// Build an uninstrumented machine for `trace` under `arch` and `cfg`.
    pub fn new(trace: &'t Trace, arch: Arch, cfg: &SimConfig) -> Self {
        Machine::with_sink(trace, arch, cfg, NoopSink)
    }
}

impl<'t, S: Sink> Machine<'t, S> {
    /// Build a machine whose instrumentation hooks emit into `sink`.
    pub fn with_sink(trace: &'t Trace, arch: Arch, cfg: &SimConfig, sink: S) -> Self {
        cfg.validate();
        assert!(
            (1..=64).contains(&trace.nodes),
            "trace '{}' has {} nodes; the machine models 1..=64",
            trace.name,
            trace.nodes
        );
        let geo = cfg.geometry;
        let homes = assign_homes(&trace.first_toucher, trace.nodes);
        let dir = Directory::new(geo, trace.shared_pages, trace.nodes);
        let net = Network::new(Topology::paper(trace.nodes), cfg.net);
        let mems = (0..trace.nodes)
            .map(|_| LocalMemory::new(cfg.mem, geo.block_bytes()))
            .collect();

        let mut home_count = vec![0u32; trace.nodes];
        for h in &homes {
            home_count[h.idx()] += 1;
        }

        let nodes = (0..trace.nodes)
            .map(|n| {
                let pool = FramePool::from_pressure(
                    home_count[n].max(1),
                    cfg.pressure,
                    cfg.free_min_frac,
                    cfg.free_target_frac,
                );
                let trajectory = vec![ThresholdStep {
                    cycle: 0,
                    threshold: cfg.policy.initial_threshold,
                }];
                NodeCtx {
                    clock: 0,
                    runner: TraceRunner::new(&trace.programs[n]),
                    l1: DirectMappedCache::new_assoc(cfg.l1_bytes, geo.line_bytes(), cfg.l1_ways),
                    rac: (cfg.rac_bytes > 0)
                        .then(|| DirectMappedCache::new(cfg.rac_bytes, geo.block_bytes())),
                    pt: PageTable::new(trace.shared_pages, geo.blocks_per_page()),
                    act: vec![ACT_FAULT; trace.shared_pages as usize],
                    tlb: Tlb::paper(),
                    pool,
                    daemon: PageoutDaemon::new(cfg.kernel.daemon_period),
                    pol: PolicyState::new(arch, cfg.policy),
                    exec: ExecBreakdown::default(),
                    miss: MissBreakdown::default(),
                    lat: MissLatency::default(),
                    kstats: KernelStats::default(),
                    remote_touched: vec![false; trace.shared_pages as usize],
                    upgraded: vec![false; trace.shared_pages as usize],
                    trajectory,
                    period_base: cfg.kernel.daemon_period,
                    reclaim_cycles_total: 0,
                    done: false,
                    finish: 0,
                    at_barrier: false,
                }
            })
            .collect();

        let next_sample = if S::ENABLED && cfg.obs_sample_period > 0 {
            cfg.obs_sample_period
        } else {
            Cycles::MAX
        };
        let (ctl, ctl_prev, next_control) = if cfg.controller.enabled {
            (
                Some(Controller::new(
                    cfg.controller,
                    trace.nodes,
                    cfg.policy.threshold_increment,
                    cfg.kernel.daemon_period,
                )),
                vec![CtlPrev::default(); trace.nodes],
                cfg.controller.window,
            )
        } else {
            (None, Vec::new(), Cycles::MAX)
        };
        Self {
            cfg: *cfg,
            arch,
            trace,
            homes,
            dir,
            net,
            mems,
            nodes,
            sched: Scheduler::with_nodes(trace.nodes),
            locks: Vec::new(),
            proto_stats: ProtoStats::default(),
            barrier_arrivals: vec![None; trace.nodes],
            active: trace.nodes,
            waiting: 0,
            private_base: trace.shared_pages * geo.page_bytes(),
            sink,
            next_sample,
            ctl,
            ctl_prev,
            ctl_window: 0,
            next_control,
        }
    }

    /// Run to completion and collect results.
    pub fn run(self) -> RunResult {
        self.run_into().0
    }

    /// Run to completion; return the results and the sink (with whatever
    /// it recorded).  With [`NoopSink`] this is exactly [`Self::run`]
    /// (the emission sites compile away), which
    /// `tests/observability.rs::noop_sink_run_matches_uninstrumented_run`
    /// asserts cycle-for-cycle.
    pub fn run_into(mut self) -> (RunResult, S) {
        while let Some((node, t)) = self.sched.pop() {
            let n = node.idx();
            let mut t = t;
            loop {
                if S::ENABLED && t >= self.next_sample {
                    // The sampler observes node state between scheduler
                    // steps and never touches timing state, so it cannot
                    // perturb the simulation.
                    self.emit_samples();
                    while self.next_sample <= t {
                        self.next_sample += self.cfg.obs_sample_period;
                    }
                }
                if t >= self.next_control {
                    // Deliberately unconditional (no `S::ENABLED`): the
                    // controller changes behavior, so it must fire
                    // identically under every sink.
                    self.control_step();
                    while self.next_control <= t {
                        self.next_control += self.cfg.controller.window;
                    }
                }
                if !self.step(n) {
                    break;
                }
                // Run-to-quiescence: while the node's new clock still
                // beats the scheduler's runner-up, the push/pop pair is
                // a no-op — keep stepping with a single compare.  The
                // interleaving is identical to push-then-pop because the
                // compare is exactly the pop fast-path condition.
                let clock = self.nodes[n].clock;
                if self.sched.requeue_is_next(node, clock) {
                    t = clock;
                    continue;
                }
                self.sched.push(node, clock);
                break;
            }
        }
        assert!(
            self.nodes.iter().all(|n| n.done),
            "deadlock: nodes blocked at a barrier at end of run"
        );
        if self.cfg.check_invariants {
            self.check_invariants();
        }
        self.collect()
    }

    /// Emit one round of per-node time-series samples, each stamped with
    /// the sampled node's own clock (node clocks are monotone, so per-node
    /// event streams stay time-ordered).
    fn emit_samples(&mut self) {
        if !S::ENABLED {
            // Belt and braces with the call-site gate: the constant fold
            // deletes every sample construction below for `NoopSink`
            // builds even if a future call site forgets its own gate.
            return;
        }
        for n in 0..self.nodes.len() {
            let node = NodeId(n as u16);
            let ctx = &self.nodes[n];
            let clock = ctx.clock;
            let free_pool = Event::FreePoolSample {
                node,
                free: ctx.pool.free_count(),
                resident: ctx.pt.scoma_count() as u32,
                deficit: ctx.pool.deficit(),
                low: ctx.pool.low_watermark(),
            };
            let threshold = Event::ThresholdSample {
                node,
                threshold: ctx.pol.threshold(),
            };
            let miss = Event::MissSample {
                node,
                total: ctx.miss.total(),
                remote: ctx.miss.remote(),
            };
            let (l1_hits, l1_misses) = ctx.l1.stats();
            let net = Event::NetSample {
                node,
                backlog: self.net.port_backlog(node, clock),
                messages: self.net.messages(),
                queued: self.net.port_queued_at(node),
            };
            let mem = Event::MemSample {
                node,
                l1_hits,
                l1_misses,
                bus_queued: self.mems[n].bus.queued_cycles(),
                dram_queued: self.mems[n].dram.queued_cycles(),
            };
            self.sink.emit(clock, free_pool);
            self.sink.emit(clock, threshold);
            self.sink.emit(clock, miss);
            self.sink.emit(clock, net);
            self.sink.emit(clock, mem);
        }
    }

    /// One controller decision window: fold each node's signal deltas
    /// into its phase detector and apply any resulting knob tunes.
    /// Like the sampler, this runs between scheduler steps and only
    /// reads timing state; unlike the sampler it *writes policy state*
    /// (increment, daemon period), which is exactly its job — those
    /// writes are deterministic functions of the deterministic event
    /// history, so results stay byte-identical across job counts.
    fn control_step(&mut self) {
        let Some(mut ctl) = self.ctl.take() else {
            return;
        };
        self.ctl_window += 1;
        let window = self.ctl_window;
        for n in 0..self.nodes.len() {
            let node = NodeId(n as u16);
            let ctx = &self.nodes[n];
            let prev = self.ctl_prev[n];
            let sample = WindowSample {
                refetch: ctx.miss.conf_capc - prev.refetch,
                reclaims: ctx.kstats.daemon_runs - prev.reclaims,
                reclaim_cycles: ctx.reclaim_cycles_total - prev.reclaim_cycles,
                free: ctx.pool.free_count() as u64,
                low: ctx.pool.low_watermark() as u64,
                backlog: self.net.port_backlog(node, ctx.clock),
            };
            let clock = ctx.clock;
            self.ctl_prev[n] = CtlPrev {
                refetch: ctx.miss.conf_capc,
                reclaims: ctx.kstats.daemon_runs,
                reclaim_cycles: ctx.reclaim_cycles_total,
            };
            let d = ctl.on_window(n, window, &sample);
            if let Some(pc) = d.phase_change {
                if S::ENABLED {
                    self.sink.emit(
                        clock,
                        Event::PhaseChange {
                            node,
                            window,
                            from: pc.from,
                            to: pc.to,
                            cause: pc.cause,
                            dwell: pc.dwell,
                        },
                    );
                }
            }
            if let Some(tune) = d.tune {
                let ctx = &mut self.nodes[n];
                ctx.pol.set_threshold_increment(tune.inc_to);
                ctx.period_base = tune.period_to;
                // Keep the live period inside the retargeted back-off
                // range [base, base*64] (the same clamp `adjust_period`
                // maintains).
                ctx.daemon.period = ctx
                    .daemon
                    .period
                    .clamp(tune.period_to, tune.period_to.saturating_mul(64));
                if S::ENABLED {
                    self.sink.emit(
                        clock,
                        Event::TuneApplied {
                            node,
                            window,
                            inc_from: tune.inc_from,
                            inc_to: tune.inc_to,
                            period_from: tune.period_from,
                            period_to: tune.period_to,
                            cause: tune.cause,
                        },
                    );
                }
            }
        }
        self.ctl = Some(ctl);
    }

    /// Emit `event` stamped with node `n`'s clock.  Call sites wrap this
    /// in `if S::ENABLED` so event construction also compiles away.
    #[inline]
    fn emit(&mut self, n: usize, event: Event) {
        if S::ENABLED {
            self.sink.emit(self.nodes[n].clock, event);
        }
    }

    /// Machine-wide invariants tying the substrates together: SWMR
    /// ownership, directory–cache agreement, frame conservation and
    /// ownership, mode/residency consistency, replica legality and
    /// threshold-trajectory legality.  Delegates to the full
    /// `ascoma-check` catalog (DESIGN.md §13 documents each invariant);
    /// runs at barriers and end-of-run when
    /// [`SimConfig::check_invariants`] is set, where the machine is
    /// quiescent and strict equalities must hold.
    pub fn check_invariants(&self) {
        assert_all(&self.view());
    }

    /// Pack borrows of the checkable state into the shape the
    /// `ascoma-check` catalog inspects.
    fn view(&self) -> MachineView<'_> {
        MachineView {
            geometry: self.cfg.geometry,
            shared_pages: self.trace.shared_pages,
            dir: &self.dir,
            homes: &self.homes,
            nodes: self
                .nodes
                .iter()
                .enumerate()
                .map(|(n, ctx)| NodeView {
                    id: NodeId(n as u16),
                    pt: &ctx.pt,
                    pool: &ctx.pool,
                    threshold: ctx.pol.threshold(),
                    relocation_disabled: ctx.pol.relocation_disabled(),
                    // The trajectory's first entry is the cycle-0 initial
                    // value, not a change; the view wants changes only.
                    trajectory: &ctx.trajectory[1..],
                })
                .collect(),
            initial_threshold: self.cfg.policy.initial_threshold,
            threshold_cap: self.cfg.policy.threshold_cap,
            threshold_adaptive: self.arch == Arch::VcNuma
                || (self.arch == Arch::AsComa && self.cfg.policy.ascoma_backoff),
            threshold_capped: self.arch == Arch::AsComa && self.cfg.policy.ascoma_backoff,
            uses_page_cache: self.arch != Arch::CcNuma || self.cfg.policy.replicate_read_only,
        }
    }

    /// Per-mutation frame-accounting hook (debug / `check` builds): after
    /// any path that maps, unmaps or relocates a page on node `n`, free
    /// frames plus S-COMA-resident pages must again cover the page-cache
    /// partition exactly.  O(1), so it runs after every fault.
    #[inline]
    #[allow(unused_variables)]
    fn debug_check_frames(&self, n: usize) {
        #[cfg(any(debug_assertions, feature = "check"))]
        {
            let ctx = &self.nodes[n];
            let free = ctx.pool.free_count();
            let resident = ctx.pt.scoma_count() as u32;
            assert!(
                free + resident == ctx.pool.cache_frames(),
                "node {n}: frame leak (free {free} + resident {resident} != capacity {})",
                ctx.pool.cache_frames()
            );
        }
    }

    /// Execute one operation for node `n`.  Returns whether the node is
    /// still runnable and should be requeued at its (advanced) clock —
    /// the caller owns the requeue so the quiescent loop in `run_into`
    /// can skip it.  Nodes that block (barrier, contended lock) or
    /// finish return `false`; their wake-ups are pushed by the release
    /// paths.
    fn step(&mut self, n: usize) -> bool {
        let op = self.nodes[n].runner.next();
        match op {
            None => {
                self.nodes[n].done = true;
                self.nodes[n].finish = self.nodes[n].clock;
                self.active -= 1;
                self.maybe_release_barrier();
                false
            }
            Some(Op::Compute(c)) => {
                self.charge(n, Bucket::Instr, c);
                true
            }
            Some(Op::Barrier) => {
                self.nodes[n].at_barrier = true;
                self.waiting += 1;
                self.barrier_arrivals[n] = Some(self.nodes[n].clock);
                self.maybe_release_barrier();
                false
            }
            Some(Op::Lock(l)) => self.lock(n, l as usize),
            Some(Op::Unlock(l)) => {
                self.unlock(n, l as usize);
                true
            }
            Some(Op::Access {
                addr,
                write,
                private,
                pre_compute,
            }) => {
                if pre_compute > 0 {
                    self.charge(n, Bucket::Instr, pre_compute as Cycles);
                }
                if private {
                    self.private_access(n, VAddr(self.private_base + addr.0), write);
                } else {
                    self.shared_access(n, addr, write);
                }
                true
            }
        }
    }

    #[inline]
    fn push(&mut self, n: usize) {
        self.sched.push(NodeId(n as u16), self.nodes[n].clock);
    }

    #[inline]
    fn charge(&mut self, n: usize, bucket: Bucket, cycles: Cycles) {
        self.nodes[n].charge(bucket, cycles);
    }

    fn maybe_release_barrier(&mut self) {
        if self.active == 0 || self.waiting < self.active {
            return;
        }
        let release = self
            .barrier_arrivals
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0);
        if self.cfg.check_invariants {
            self.check_invariants();
        }
        let cost = self.cfg.kernel.barrier_cost;
        for n in 0..self.nodes.len() {
            if let Some(arrived) = self.barrier_arrivals[n].take() {
                let wait = release - arrived;
                self.nodes[n].exec.sync += wait + cost;
                self.nodes[n].clock = release + cost;
                self.nodes[n].at_barrier = false;
                self.waiting -= 1;
                self.push(n);
            }
        }
    }

    /// Acquire lock `l` for node `n`: an uncontended acquire costs one
    /// synchronization round trip; a contended one blocks the node until
    /// the holder releases (FIFO hand-off), with the wait charged to
    /// `SYNC` exactly like the paper's lock-stall accounting.  Returns
    /// whether the node keeps running (acquired without contention).
    fn lock(&mut self, n: usize, l: usize) -> bool {
        if self.locks.len() <= l {
            self.locks.resize_with(l + 1, LockState::default);
        }
        let cost = self.cfg.kernel.barrier_cost;
        self.charge_sync(n, cost);
        self.nodes[n].kstats.lock_acquires += 1;
        let now = self.nodes[n].clock;
        let lock = &mut self.locks[l];
        match lock.held_by {
            None => {
                lock.held_by = Some(n);
                true
            }
            Some(holder) => {
                debug_assert_ne!(holder, n, "re-acquire of held lock {l}");
                lock.waiters.push_back((n, now));
                self.nodes[n].kstats.lock_contended += 1;
                // Blocked: not rescheduled until the holder releases.
                false
            }
        }
    }

    /// Release lock `l`, handing it to the first waiter (if any) and
    /// charging that waiter's spin time to `SYNC`.
    fn unlock(&mut self, n: usize, l: usize) {
        let cost = self.cfg.kernel.barrier_cost / 2;
        self.charge_sync(n, cost);
        let release_time = self.nodes[n].clock;
        let lock = self
            .locks
            .get_mut(l)
            .unwrap_or_else(|| panic!("unlock of unknown lock {l}"));
        assert_eq!(lock.held_by, Some(n), "unlock by non-holder of lock {l}");
        match lock.waiters.pop_front() {
            None => lock.held_by = None,
            Some((w, arrived)) => {
                lock.held_by = Some(w);
                let wake = release_time.max(arrived);
                let waited = wake - self.nodes[w].clock;
                self.nodes[w].exec.sync += waited;
                self.nodes[w].clock = wake;
                self.push(w);
            }
        }
    }

    #[inline]
    fn charge_sync(&mut self, n: usize, cycles: Cycles) {
        let node = &mut self.nodes[n];
        node.clock += cycles;
        node.exec.sync += cycles;
    }

    // ----- private (non-shared) memory -----

    fn private_access(&mut self, n: usize, addr: VAddr, write: bool) {
        let now = self.nodes[n].clock;
        match self.nodes[n].l1.access(addr, write) {
            Lookup::Hit => self.charge(n, Bucket::LcMem, self.cfg.mem.l1_hit),
            Lookup::MissEmpty | Lookup::MissConflict(_) => {
                let done = self.mems[n].local_fetch(now, addr.0, self.cfg.geometry.line_bytes());
                self.fill_l1(n, addr, write);
                let lat = done - now + self.cfg.mem.l1_hit;
                self.charge(n, Bucket::LcMem, lat);
            }
        }
    }

    /// Fill the L1, handling the victim writeback (dirty victims reserve
    /// the bus and return ownership to the directory; clean victims are
    /// silent, so the directory keeps them in the copyset — exactly the
    /// property that makes later re-requests count as *refetches*).
    fn fill_l1(&mut self, n: usize, addr: VAddr, write: bool) {
        let now = self.nodes[n].clock;
        if let Some(victim) = self.nodes[n].l1.fill(addr, write) {
            if victim.dirty {
                self.mems[n]
                    .bus
                    .transact(now, self.cfg.geometry.line_bytes());
                if victim.addr.0 < self.private_base {
                    let block = self.cfg.geometry.block_of(victim.addr);
                    self.dir.writeback(NodeId(n as u16), block);
                    self.proto_stats.record_writeback();
                } else {
                    // Private victim: bank write (no coherence).
                    self.mems[n].dram.access(now, victim.addr.0);
                }
            }
        }
    }

    // ----- shared memory -----

    fn shared_access(&mut self, n: usize, addr: VAddr, write: bool) {
        let geo = self.cfg.geometry;
        let node = NodeId(n as u16);
        let block = geo.block_of(addr);
        let page = geo.page_of(addr);
        let l1_hit = self.cfg.mem.l1_hit;

        // One node borrow covers the TLB, L1 and page-table front end, so
        // the common path never re-indexes `self.nodes`.
        let ctx = &mut self.nodes[n];

        // TLB lookup (software-filled on the modeled PA-RISC): the fill
        // handler is essential kernel work, charged to K-BASE.
        if !ctx.tlb.access(page) {
            ctx.charge(Bucket::KBase, self.cfg.kernel.tlb_fill);
        }

        // L1 probe.
        if let Lookup::Hit = ctx.l1.access(addr, write) {
            ctx.pt.touch(page);
            if !write {
                // Read hit: no coherence action can follow — the hottest
                // path in every workload ends here.
                ctx.charge(Bucket::ShMem, l1_hit);
                return;
            }
            if self.cfg.policy.replicate_read_only {
                self.collapse_replicas(n, page);
            }
            if self.dir.owner_of(block) != Some(node) {
                // Write hit without exclusivity: permission upgrade.
                self.permission_upgrade(n, page, block);
            }
            self.charge(n, Bucket::ShMem, l1_hit);
            return;
        }
        ctx.charge(Bucket::ShMem, l1_hit);
        ctx.pt.touch(page);
        // One byte load replaces the mode match + arch test: the action
        // table encodes `(arch, mode)` per page, updated at remap sites.
        let pi = page.0 as usize;
        let mut act = ctx.act[pi];
        debug_assert_eq!(
            act,
            action_for(self.arch, ctx.pt.mode(page)),
            "action table out of sync for node {n} page {page:?}"
        );

        // Read-only replication extension: the first write to a
        // replicated page collapses every replica back to CC-NUMA.
        if write && self.cfg.policy.replicate_read_only {
            self.collapse_replicas(n, page);
            act = self.nodes[n].act[pi];
        }

        // Ensure the page is mapped.
        let home = self.homes[pi];
        if act == ACT_FAULT {
            self.handle_fault(n, page, home);
            self.debug_check_frames(n);
            act = self.nodes[n].act[pi];
        }
        // Pure S-COMA: a page evicted to "NUMA" mode is effectively
        // unmapped and must be re-faulted into a frame (this is the
        // thrashing loop that sinks S-COMA at high pressure).
        if act == ACT_REFAULT {
            self.scoma_refault(n, page);
            self.debug_check_frames(n);
            act = self.nodes[n].act[pi];
        }

        match act {
            ACT_HOME => self.home_miss(n, page, block, addr, write),
            ACT_SCOMA => self.scoma_miss(n, page, block, addr, write),
            // A refault that found no frame falls through on the NUMA path.
            ACT_NUMA | ACT_REFAULT => self.numa_miss(n, page, block, addr, write, home),
            _ => unreachable!("fault established a mapping"),
        }
    }

    /// Miss on a page homed at this node.
    fn home_miss(
        &mut self,
        n: usize,
        page: VPage,
        block: ascoma_sim::addr::BlockId,
        addr: VAddr,
        write: bool,
    ) {
        let node = NodeId(n as u16);
        let out = self.dir.fetch(node, block, write);
        self.proto_stats.record_fetch(
            out.forward_from.is_none(),
            out.forward_from.is_some(),
            out.invalidate.len(),
        );
        self.apply_invalidations(out.invalidate, block, page);
        let now = self.nodes[n].clock;
        if let Some(owner) = out.forward_from {
            // Dirty at a remote node: fetch it back (2-hop: we are home).
            let t = self.mems[n].bus.transact(now, 0);
            let t = t + self.cfg.mem.dir_lookup;
            let t = self.net.send(t, node, owner, 0);
            let t = t + self.cfg.mem.dsm_occupancy;
            let t = self.mems[owner.idx()].local_fetch(t, addr.0, self.cfg.geometry.block_bytes());
            let t = self
                .net
                .send(t, owner, node, self.cfg.geometry.block_bytes());
            let t = self.mems[n]
                .bus
                .transact(t, self.cfg.geometry.block_bytes());
            self.count_remote_class(n, out.class);
            self.nodes[n].lat.remote_cycles += t - now;
            self.charge(n, Bucket::ShMem, t - now);
            if S::ENABLED {
                self.emit(
                    n,
                    Event::MissServiced {
                        node,
                        page,
                        loc: MissLoc::Remote2,
                        refetch: out.class == FetchClass::Refetch,
                        cycles: t - now,
                    },
                );
            }
        } else {
            let inval_done = self.invalidation_round(n, out.invalidate, write);
            let done = self.mems[n].local_fetch(now, addr.0, self.cfg.geometry.line_bytes());
            self.nodes[n].miss.home += 1;
            self.nodes[n].lat.home_cycles += done.max(inval_done) - now;
            self.charge(n, Bucket::ShMem, done.max(inval_done) - now);
            if S::ENABLED {
                self.emit(
                    n,
                    Event::MissServiced {
                        node,
                        page,
                        loc: MissLoc::Home,
                        refetch: false,
                        cycles: done.max(inval_done) - now,
                    },
                );
            }
        }
        self.fill_l1(n, addr, write);
    }

    /// Miss on an S-COMA-mapped page.
    fn scoma_miss(
        &mut self,
        n: usize,
        page: VPage,
        block: ascoma_sim::addr::BlockId,
        addr: VAddr,
        write: bool,
    ) {
        let geo = self.cfg.geometry;
        let node = NodeId(n as u16);
        let bin = geo.block_in_page(addr);
        if self.nodes[n].pt.block_valid(page, bin) {
            // Valid data in the page cache.
            let now = self.nodes[n].clock;
            if write && self.dir.owner_of(block) != Some(node) {
                self.permission_upgrade(n, page, block);
            }
            let now2 = self.nodes[n].clock.max(now);
            let done = self.mems[n].local_fetch(now2, addr.0, geo.line_bytes());
            self.nodes[n].miss.scoma += 1;
            self.nodes[n].lat.scoma_cycles += done - now2;
            self.charge(n, Bucket::ShMem, done - now2);
            if S::ENABLED {
                self.emit(
                    n,
                    Event::MissServiced {
                        node,
                        page,
                        loc: MissLoc::Scoma,
                        refetch: false,
                        cycles: done - now2,
                    },
                );
            }
            self.fill_l1(n, addr, write);
        } else {
            // Invalid block: fetch remotely and fill the frame.
            let out = self.dir.fetch(node, block, write);
            self.proto_stats
                .record_fetch(false, out.forward_from.is_some(), out.invalidate.len());
            self.apply_invalidations(out.invalidate, block, page);
            let home = self.homes[page.0 as usize];
            let lat = self.remote_fetch(n, home, out.forward_from, out.invalidate, addr, write);
            self.count_remote_class(n, out.class);
            self.nodes[n].lat.remote_cycles += lat;
            self.charge(n, Bucket::ShMem, lat);
            if S::ENABLED {
                let loc = if out.forward_from.is_some() {
                    MissLoc::Remote3
                } else {
                    MissLoc::Remote2
                };
                self.emit(
                    n,
                    Event::MissServiced {
                        node,
                        page,
                        loc,
                        refetch: out.class == FetchClass::Refetch,
                        cycles: lat,
                    },
                );
            }
            self.nodes[n].pt.set_block_valid(page, bin);
            if out.class == FetchClass::Refetch {
                self.nodes[n].pt.count_local_refetch(page);
            }
            // The DSM engine stores the received block into the frame.
            let now = self.nodes[n].clock;
            self.mems[n].dram.access(now, addr.0);
            self.fill_l1(n, addr, write);
        }
    }

    /// Miss on a CC-NUMA-mapped page: RAC probe, then remote.
    fn numa_miss(
        &mut self,
        n: usize,
        page: VPage,
        block: ascoma_sim::addr::BlockId,
        addr: VAddr,
        write: bool,
        home: NodeId,
    ) {
        let geo = self.cfg.geometry;
        let node = NodeId(n as u16);
        let rac_hit = self.nodes[n]
            .rac
            .as_mut()
            .map(|rac| matches!(rac.access(addr, false), Lookup::Hit))
            .unwrap_or(false);
        if rac_hit {
            let now = self.nodes[n].clock;
            if write && self.dir.owner_of(block) != Some(node) {
                self.permission_upgrade(n, page, block);
            }
            let now2 = self.nodes[n].clock.max(now);
            let done = self.mems[n].rac_fetch(now2, geo.line_bytes());
            self.nodes[n].miss.rac += 1;
            self.nodes[n].lat.rac_cycles += done - now2;
            self.charge(n, Bucket::ShMem, done - now2);
            if S::ENABLED {
                self.emit(
                    n,
                    Event::MissServiced {
                        node,
                        page,
                        loc: MissLoc::Rac,
                        refetch: false,
                        cycles: done - now2,
                    },
                );
            }
            self.fill_l1(n, addr, write);
            return;
        }

        let out = self.dir.fetch(node, block, write);
        self.proto_stats
            .record_fetch(false, out.forward_from.is_some(), out.invalidate.len());
        self.apply_invalidations(out.invalidate, block, page);
        let lat = self.remote_fetch(n, home, out.forward_from, out.invalidate, addr, write);
        self.count_remote_class(n, out.class);
        self.nodes[n].lat.remote_cycles += lat;
        self.charge(n, Bucket::ShMem, lat);
        if S::ENABLED {
            let loc = if out.forward_from.is_some() {
                MissLoc::Remote3
            } else {
                MissLoc::Remote2
            };
            self.emit(
                n,
                Event::MissServiced {
                    node,
                    page,
                    loc,
                    refetch: out.class == FetchClass::Refetch,
                    cycles: lat,
                },
            );
        }
        if let Some(rac) = self.nodes[n].rac.as_mut() {
            rac.fill(addr, false);
        }
        self.fill_l1(n, addr, write);

        // Relocation notice piggybacked on the response?
        if out.class == FetchClass::Refetch && self.nodes[n].pol.should_relocate(out.refetch_count)
        {
            self.proto_stats.record_notice();
            if S::ENABLED {
                self.emit(
                    n,
                    Event::RefetchCrossing {
                        node,
                        page,
                        count: out.refetch_count,
                        threshold: self.nodes[n].pol.threshold(),
                    },
                );
            }
            self.relocate(n, page);
            self.debug_check_frames(n);
        }
    }

    /// The full remote-fetch latency composition (DESIGN.md §4 budget:
    /// ~190 cycles zero-contention for the 2-hop clean case).
    fn remote_fetch(
        &mut self,
        n: usize,
        home: NodeId,
        forward: Option<NodeId>,
        invalidate: NodeSet,
        addr: VAddr,
        write: bool,
    ) -> Cycles {
        let geo = self.cfg.geometry;
        let node = NodeId(n as u16);
        let now = self.nodes[n].clock;
        // Cumulative port-queueing before this transaction's messages, so
        // the delta below isolates the queueing *this* fetch experienced
        // (timing state is only read, never perturbed).
        let queued_before = if S::ENABLED {
            self.net.port_queued_cycles()
        } else {
            0
        };
        // Request: local bus, network to home, home directory.
        let t = self.mems[n].bus.transact(now, 0);
        let t = self.net.send(t, node, home, 0);
        let t = t + self.cfg.mem.dir_lookup + self.cfg.mem.dsm_occupancy;
        // Write fetches must collect invalidation acks before the grant.
        let inval_done = if write {
            self.invalidation_fanout(t, home, invalidate)
        } else {
            0
        };
        // Data supply: home memory, or forward to the dirty owner.
        let (from, data_ready) = match forward {
            None => {
                if home == node {
                    (home, t) // degenerate; home misses use home_miss()
                } else {
                    (
                        home,
                        self.mems[home.idx()].local_fetch(t, addr.0, geo.block_bytes()),
                    )
                }
            }
            Some(o) => {
                let tf = self.net.send(t, home, o, 0);
                let tf = tf + self.cfg.mem.dsm_occupancy;
                let tf = self.mems[o.idx()].local_fetch(tf, addr.0, geo.block_bytes());
                (o, tf)
            }
        };
        let t = data_ready.max(inval_done);
        let t = self.net.send(t, from, node, geo.block_bytes());
        let t = self.mems[n].bus.transact(t, geo.block_bytes());
        if S::ENABLED {
            // Stamped at the pre-charge clock: the requester's clock only
            // advances once the caller charges the returned latency.
            let queued = self.net.port_queued_cycles() - queued_before;
            self.emit(n, Event::NetDelay { node, queued });
        }
        t - now
    }

    /// Invalidation fan-out from `home` at time `t`; returns when the last
    /// ack is home.
    fn invalidation_fanout(&mut self, t: Cycles, home: NodeId, targets: NodeSet) -> Cycles {
        let mut done = 0;
        for o in targets.iter() {
            let ti = self.net.send(t, home, o, 0);
            let ti = self.mems[o.idx()].bus.transact(ti, 0);
            let ti = self.net.send(ti, o, home, 0);
            done = done.max(ti);
        }
        done
    }

    /// Invalidation round trip for a *local* write at the home (no data
    /// movement; acks return to the home, i.e. the writer).
    fn invalidation_round(&mut self, n: usize, targets: NodeSet, write: bool) -> Cycles {
        if !write || targets.is_empty() {
            return 0;
        }
        let node = NodeId(n as u16);
        let t = self.nodes[n].clock + self.cfg.mem.dir_lookup;
        self.invalidation_fanout(t, node, targets)
    }

    /// Permission-only upgrade for a write hit on shared data.
    fn permission_upgrade(&mut self, n: usize, page: VPage, block: ascoma_sim::addr::BlockId) {
        let node = NodeId(n as u16);
        let home = self.homes[page.0 as usize];
        let targets = self.dir.upgrade(node, block);
        self.proto_stats.record_upgrade(targets.len());
        self.apply_invalidations(targets, block, page);
        let now = self.nodes[n].clock;
        let t = if home == node {
            now + self.cfg.mem.dir_lookup
        } else {
            let t = self.mems[n].bus.transact(now, 0);
            let t = self.net.send(t, node, home, 0);
            t + self.cfg.mem.dir_lookup + self.cfg.mem.dsm_occupancy
        };
        let acks = self.invalidation_fanout(t, home, targets);
        let t = acks.max(t);
        let t = if home == node {
            t
        } else {
            self.net.send(t, home, node, 0)
        };
        self.charge(n, Bucket::ShMem, t - now);
    }

    /// Drop invalidated copies from the other nodes' caches and S-COMA
    /// valid bits (their next miss to this block classifies as a
    /// coherence miss at the directory).
    fn apply_invalidations(
        &mut self,
        targets: NodeSet,
        block: ascoma_sim::addr::BlockId,
        page: VPage,
    ) {
        if targets.is_empty() {
            return;
        }
        let geo = self.cfg.geometry;
        let base = geo.block_base(block);
        let bin = geo.block_index_in_page(block);
        for o in targets.iter() {
            let ctx = &mut self.nodes[o.idx()];
            ctx.l1.invalidate_range(base, geo.block_bytes());
            if let Some(rac) = ctx.rac.as_mut() {
                rac.invalidate_range(base, geo.block_bytes());
            }
            if ctx.pt.mode(page).is_scoma() {
                ctx.pt.clear_block_valid(page, bin);
            }
        }
    }

    fn count_remote_class(&mut self, n: usize, class: FetchClass) {
        let m = &mut self.nodes[n].miss;
        match class {
            FetchClass::ColdEssential => m.cold_essential += 1,
            FetchClass::ColdInduced => m.cold_induced += 1,
            FetchClass::Refetch => m.conf_capc += 1,
            FetchClass::Coherence => m.coherence += 1,
        }
    }

    // ----- faults, relocation, replacement -----

    /// Recompute node `n`'s action byte for `page` from the page table
    /// (the single source of truth).  Called at every mode-changing
    /// site: fault, refault, relocation, eviction, replica collapse.
    #[inline]
    fn set_action(&mut self, n: usize, page: VPage) {
        let ctx = &mut self.nodes[n];
        ctx.act[page.0 as usize] = action_for(self.arch, ctx.pt.mode(page));
    }

    /// Collapse every read-only replica of `page` (including the
    /// writer's own) back to a CC-NUMA mapping: the replication
    /// extension's coherence action on the first write.  The writer pays
    /// an invalidation round trip; each holder pays a remap.
    fn collapse_replicas(&mut self, n: usize, page: VPage) {
        let node = NodeId(n as u16);
        let holders = self.dir.collapse_replicas(node, page);
        // The writer's own replica (if any) collapses too: replicas are
        // read-only by construction.
        if self.arch == Arch::CcNuma && self.nodes[n].pt.mode(page).is_scoma() {
            let frame = self.nodes[n].pt.unmap_scoma(page);
            self.set_action(n, page);
            self.nodes[n].pool.release(frame);
            self.nodes[n].tlb.invalidate(page);
            self.charge(n, Bucket::KOverhd, self.cfg.kernel.remap);
            self.nodes[n].kstats.replica_collapses += 1;
            if S::ENABLED {
                self.emit(
                    n,
                    Event::PageEvicted {
                        node,
                        page,
                        cause: EvictCause::ReplicaCollapse,
                    },
                );
            }
            self.debug_check_frames(n);
        }
        if holders.is_empty() {
            return;
        }
        let geo = self.cfg.geometry;
        let base = geo.page_base(page);
        for o in holders.iter() {
            let ctx = &mut self.nodes[o.idx()];
            if !ctx.pt.mode(page).is_scoma() {
                continue;
            }
            ctx.l1.invalidate_range(base, geo.page_bytes());
            if let Some(rac) = ctx.rac.as_mut() {
                rac.invalidate_range(base, geo.page_bytes());
            }
            let frame = ctx.pt.unmap_scoma(page);
            ctx.act[page.0 as usize] = action_for(self.arch, ctx.pt.mode(page));
            ctx.pool.release(frame);
            ctx.tlb.invalidate(page);
            ctx.exec.k_overhd += self.cfg.kernel.remap;
            ctx.clock += self.cfg.kernel.remap;
            ctx.kstats.replica_collapses += 1;
            if S::ENABLED {
                let cycle = ctx.clock;
                self.sink.emit(
                    cycle,
                    Event::PageEvicted {
                        node: o,
                        page,
                        cause: EvictCause::ReplicaCollapse,
                    },
                );
            }
        }
        for o in holders.iter() {
            self.debug_check_frames(o.idx());
        }
        // Shoot-down round trip charged to the writer.
        let now = self.nodes[n].clock;
        let done = self.invalidation_fanout(now + self.cfg.mem.dir_lookup, node, holders);
        if done > now {
            self.charge(n, Bucket::ShMem, done - now);
        }
    }

    /// First-touch page fault: establish the page's mapping.
    fn handle_fault(&mut self, n: usize, page: VPage, home: NodeId) {
        let node = NodeId(n as u16);
        self.charge(n, Bucket::KBase, self.cfg.kernel.page_fault);
        self.nodes[n].kstats.page_faults += 1;
        if home == node {
            self.nodes[n].pt.map_home(page);
            self.set_action(n, page);
            if S::ENABLED {
                self.emit(
                    n,
                    Event::PageMapped {
                        node,
                        page,
                        mode: MapMode::Home,
                    },
                );
            }
            return;
        }
        self.nodes[n].remote_touched[page.0 as usize] = true;
        // Read-only replication extension (CC-NUMA only): back
        // never-written remote pages with a local frame.
        if self.arch == Arch::CcNuma
            && self.cfg.policy.replicate_read_only
            && !self.dir.page_written(page)
        {
            if let Some(frame) = self.nodes[n].pool.alloc() {
                self.nodes[n].pt.map_scoma(page, frame);
                self.set_action(n, page);
                self.dir.add_replica(node, page);
                self.nodes[n].kstats.replications += 1;
                if S::ENABLED {
                    self.emit(
                        n,
                        Event::PageMapped {
                            node,
                            page,
                            mode: MapMode::Replica,
                        },
                    );
                }
                return;
            }
        }
        let free = self.nodes[n].pool.free_count() > 0;
        let mode = match self.nodes[n].pol.initial_map(free) {
            MapChoice::Numa => {
                self.nodes[n].pt.map_numa(page);
                MapMode::Numa
            }
            MapChoice::Scoma => {
                if let Some(frame) = self.acquire_frame(n) {
                    self.nodes[n].pt.map_scoma(page, frame);
                    self.top_up_pool(n);
                    MapMode::Scoma
                } else {
                    self.nodes[n].pt.map_numa(page);
                    MapMode::Numa
                }
            }
        };
        self.set_action(n, page);
        if S::ENABLED {
            self.emit(n, Event::PageMapped { node, page, mode });
        }
    }

    /// Pure S-COMA re-fault of an evicted page (mode "Numa" is S-COMA's
    /// unmapped state): charge remap overhead and grab a frame, evicting
    /// on the spot if needed.
    fn scoma_refault(&mut self, n: usize, page: VPage) {
        self.charge(n, Bucket::KOverhd, self.cfg.kernel.remap);
        if let Some(frame) = self.acquire_frame(n) {
            self.nodes[n].pt.map_scoma(page, frame);
            self.set_action(n, page);
            self.top_up_pool(n);
            if S::ENABLED {
                let node = NodeId(n as u16);
                self.emit(
                    n,
                    Event::PageMapped {
                        node,
                        page,
                        mode: MapMode::ScomaRefault,
                    },
                );
                self.emit(
                    n,
                    Event::RemapCost {
                        node,
                        page,
                        cycles: self.cfg.kernel.remap,
                    },
                );
            }
        }
        // With zero cache frames the access falls through in NUMA mode
        // (documented deviation: the paper never runs S-COMA above 90%
        // pressure, where at least a few frames remain).
    }

    /// Get a frame per the policy's source rules.  May run the daemon or
    /// evict a victim; charges all kernel costs.
    fn acquire_frame(&mut self, n: usize) -> Option<u32> {
        if let Some(f) = self.nodes[n].pool.alloc() {
            return Some(f);
        }
        match self.nodes[n].pol.frame_source() {
            FrameSource::PoolOnly => {
                // AS-COMA: one daemon attempt, then give up.
                self.run_daemon(n);
                self.nodes[n].pool.alloc()
            }
            FrameSource::PoolOrVictim => {
                let victim = {
                    let NodeCtx { daemon, pt, .. } = &mut self.nodes[n];
                    daemon.pick_victim(pt)?
                };
                let absorbed = self.nodes[n].pt.local_refetches(victim);
                let frame = self.evict_page(n, victim, EvictCause::Victim);
                let cache_frames = self.nodes[n].pool.cache_frames();
                let before = self.nodes[n].pol.threshold();
                self.nodes[n].pol.on_vc_replacement(absorbed, cache_frames);
                self.note_threshold_change(n, before);
                Some(frame)
            }
        }
    }

    /// If this policy maintains the pool with the daemon and we've fallen
    /// below `free_min`, run it.
    fn top_up_pool(&mut self, n: usize) {
        if self.nodes[n].pol.uses_daemon()
            && self.nodes[n].pool.below_min()
            && self.nodes[n].daemon.may_run(self.nodes[n].clock)
        {
            self.run_daemon(n);
        }
    }

    /// One pageout-daemon invocation: select cold victims, flush and
    /// release them, and report the outcome to the policy (AS-COMA's
    /// thrashing detector).
    fn run_daemon(&mut self, n: usize) {
        if !self.nodes[n].daemon.may_run(self.nodes[n].clock) {
            return;
        }
        let deficit = self.nodes[n].pool.deficit();
        let now = self.nodes[n].clock;
        let out = {
            let ctx = &mut self.nodes[n];
            // Split borrow: daemon and page table are separate fields.
            let NodeCtx { daemon, pt, .. } = ctx;
            daemon.run(now, pt, deficit)
        };
        self.charge(
            n,
            Bucket::KOverhd,
            self.cfg.kernel.daemon_cost(out.examined),
        );
        self.nodes[n].kstats.daemon_runs += 1;
        if !out.reached_target {
            self.nodes[n].kstats.daemon_failures += 1;
        }
        if S::ENABLED {
            self.emit(
                n,
                Event::DaemonEpoch {
                    node: NodeId(n as u16),
                    epoch: self.nodes[n].daemon.epochs(),
                    examined: out.examined,
                    reclaimed: out.victims.len() as u32,
                    deficit,
                    reached_target: out.reached_target,
                },
            );
        }
        for v in &out.victims {
            let frame = self.evict_page(n, *v, EvictCause::Daemon);
            self.nodes[n].pool.release(frame);
            self.nodes[n].kstats.pages_reclaimed += 1;
        }
        // Everything the epoch charged since `now`: the scan cost plus
        // each victim's flush/remap.
        let cycles = self.nodes[n].clock - now;
        self.nodes[n].reclaim_cycles_total += cycles;
        if S::ENABLED {
            self.emit(
                n,
                Event::ReclaimLatency {
                    node: NodeId(n as u16),
                    reclaimed: out.victims.len() as u32,
                    cycles,
                },
            );
        }
        self.debug_check_frames(n);
        let before = self.nodes[n].pol.threshold();
        let adj = self.nodes[n].pol.on_daemon_result(out.reached_target);
        self.note_threshold_change(n, before);
        let (raises, drops) = self.nodes[n].pol.backoff_stats();
        self.nodes[n].kstats.threshold_raises = raises;
        self.nodes[n].kstats.threshold_drops = drops;
        self.nodes[n].daemon.period = adjust_period(
            self.nodes[n].daemon.period,
            adj,
            // The controller may retarget this base; without it,
            // `period_base` always equals `kernel.daemon_period`.
            self.nodes[n].period_base,
        );
    }

    /// If node `n`'s threshold differs from `before`, append the new value
    /// to its trajectory (always) and emit a back-off event (when traced).
    fn note_threshold_change(&mut self, n: usize, before: u32) {
        let after = self.nodes[n].pol.threshold();
        if after == before {
            return;
        }
        let cycle = self.nodes[n].clock;
        self.nodes[n].trajectory.push(ThresholdStep {
            cycle,
            threshold: after,
        });
        if S::ENABLED {
            let kind = if after > before {
                BackoffKind::Raise
            } else {
                BackoffKind::Drop
            };
            self.emit(
                n,
                Event::ThresholdBackoff {
                    node: NodeId(n as u16),
                    from: before,
                    to: after,
                    kind,
                    relocation_disabled: self.nodes[n].pol.relocation_disabled(),
                },
            );
        }
    }

    /// Evict an S-COMA page: flush caches, write dirty blocks home, drop
    /// the node from the page's copysets (marking induced-cold), unmap.
    /// Returns the freed frame.
    fn evict_page(&mut self, n: usize, page: VPage, cause: EvictCause) -> u32 {
        let geo = self.cfg.geometry;
        let node = NodeId(n as u16);
        let base = geo.page_base(page);
        self.nodes[n].l1.invalidate_range(base, geo.page_bytes());
        if let Some(rac) = self.nodes[n].rac.as_mut() {
            rac.invalidate_range(base, geo.page_bytes());
        }
        let (dropped, _dirty) = self.dir.flush_page(node, page);
        let cost = self.cfg.kernel.remap + self.cfg.kernel.flush_per_block * dropped as Cycles;
        self.charge(n, Bucket::KOverhd, cost);
        self.nodes[n].tlb.invalidate(page);
        self.nodes[n].kstats.blocks_flushed += dropped as u64;
        self.nodes[n].kstats.downgrades += 1;
        if S::ENABLED {
            self.emit(n, Event::PageEvicted { node, page, cause });
            self.emit(
                n,
                Event::RemapCost {
                    node,
                    page,
                    cycles: cost,
                },
            );
        }
        let frame = self.nodes[n].pt.unmap_scoma(page);
        self.set_action(n, page);
        frame
    }

    /// CC-NUMA -> S-COMA relocation (the refetch-threshold interrupt).
    fn relocate(&mut self, n: usize, page: VPage) {
        let node = NodeId(n as u16);
        self.nodes[n].kstats.relocation_interrupts += 1;
        self.charge(n, Bucket::KOverhd, self.cfg.kernel.relocation_interrupt);
        match self.acquire_frame(n) {
            None => {
                // AS-COMA under pressure: leave the page in CC-NUMA mode.
                // Reset the counter so the next notice needs a fresh run
                // of refetches (hysteresis).
                self.dir.reset_refetch(page, node);
                if S::ENABLED {
                    self.emit(n, Event::UpgradeDeclined { node, page });
                }
            }
            Some(frame) => {
                let geo = self.cfg.geometry;
                let base = geo.page_base(page);
                self.nodes[n].l1.invalidate_range(base, geo.page_bytes());
                if let Some(rac) = self.nodes[n].rac.as_mut() {
                    rac.invalidate_range(base, geo.page_bytes());
                }
                let (dropped, _dirty) = self.dir.flush_page(node, page);
                let cost =
                    self.cfg.kernel.remap + self.cfg.kernel.flush_per_block * dropped as Cycles;
                self.charge(n, Bucket::KOverhd, cost);
                self.nodes[n].kstats.blocks_flushed += dropped as u64;
                self.nodes[n].tlb.invalidate(page);
                self.nodes[n].pt.map_scoma(page, frame);
                self.set_action(n, page);
                self.dir.reset_refetch(page, node);
                self.nodes[n].kstats.upgrades += 1;
                self.nodes[n].upgraded[page.0 as usize] = true;
                if S::ENABLED {
                    let threshold = self.nodes[n].pol.threshold();
                    self.emit(
                        n,
                        Event::PageUpgraded {
                            node,
                            page,
                            threshold,
                        },
                    );
                    self.emit(
                        n,
                        Event::RemapCost {
                            node,
                            page,
                            cycles: cost,
                        },
                    );
                }
                self.top_up_pool(n);
            }
        }
    }

    // ----- results -----

    fn collect(self) -> (RunResult, S) {
        let mut exec = ExecBreakdown::default();
        let mut miss = MissBreakdown::default();
        let mut lat = MissLatency::default();
        let mut kernel = KernelStats::default();
        let mut exec_per_node = Vec::with_capacity(self.nodes.len());
        let mut remote_pairs = 0u64;
        let mut relocated_pairs = 0u64;
        let mut thresholds = Vec::with_capacity(self.nodes.len());
        let mut trajectories = Vec::with_capacity(self.nodes.len());
        let mut cycles = 0;
        for ctx in &self.nodes {
            exec.add(&ctx.exec);
            miss.add(&ctx.miss);
            lat.add(&ctx.lat);
            kernel.add(&ctx.kstats);
            exec_per_node.push(ctx.exec);
            remote_pairs += ctx.remote_touched.iter().filter(|&&t| t).count() as u64;
            relocated_pairs += ctx.upgraded.iter().filter(|&&t| t).count() as u64;
            thresholds.push(ctx.pol.threshold());
            trajectories.push(ctx.trajectory.clone());
            cycles = cycles.max(ctx.finish);
        }
        let result = RunResult {
            arch: self.arch,
            workload: self.trace.name.clone(),
            pressure: self.cfg.pressure,
            cycles,
            exec,
            exec_per_node,
            miss,
            latency: lat,
            kernel,
            proto: self.proto_stats,
            remote_page_node_pairs: remote_pairs,
            relocated_page_node_pairs: relocated_pairs,
            final_thresholds: thresholds,
            threshold_trajectories: trajectories,
            net_messages: self.net.messages(),
            net_queued_cycles: self.net.port_queued_cycles(),
            obs: None,
            metrics: None,
            controller: self.ctl.as_ref().map(Controller::summary),
        };
        (result, self.sink)
    }
}

/// Run `trace` on architecture `arch` under `cfg`.
///
/// ```
/// use ascoma::{simulate, Arch, SimConfig};
/// use ascoma_workloads::{App, SizeClass};
///
/// let cfg = SimConfig::at_pressure(0.5);
/// let trace = App::Ocean.build(SizeClass::Tiny, cfg.geometry.page_bytes());
/// let r = simulate(&trace, Arch::AsComa, &cfg);
/// assert!(r.cycles > 0);
/// assert_eq!(r.exec_per_node.len(), trace.nodes);
/// ```
pub fn simulate(trace: &Trace, arch: Arch, cfg: &SimConfig) -> RunResult {
    Machine::new(trace, arch, cfg).run()
}

/// [`Machine::with_sink`] with `sink` run on a second thread: the
/// machine emits into a [`BatchSink`], and one scoped worker owns
/// `sink` and emits every event into it in order, so `sink` ends in
/// the state an in-thread run leaves it in (`tests/observed_offload.rs`
/// asserts it).  A panic in `sink` is re-raised here.
fn simulate_offloaded<S: Sink + Send>(
    trace: &Trace,
    arch: Arch,
    cfg: &SimConfig,
    sink: S,
) -> (RunResult, S) {
    std::thread::scope(|scope| {
        let (result, batches) =
            Machine::with_sink(trace, arch, cfg, BatchSink::spawn(scope, sink)).run_into();
        (result, batches.finish())
    })
}

/// Run `trace` while streaming live [`Snapshot`]s of registry state to
/// `on_snap` every `cadence` *simulated* cycles (plus one final
/// end-of-run frame), folding events into a registry windowed every
/// `window` cycles.  Returns the result and the folded registry.
///
/// Streaming rides the ordinary sink path: emission sites observe but
/// never perturb simulation state, so the returned [`RunResult`] is
/// byte-identical to [`simulate`]'s — `tests/streaming.rs` asserts the
/// A/B.  Periodic free-pool/threshold/net samples only exist if
/// [`SimConfig::obs_sample_period`] is non-zero; set it (e.g. to the
/// cadence) for populated node gauges.
pub fn simulate_streamed<F: FnMut(Snapshot) + Send>(
    trace: &Trace,
    arch: Arch,
    cfg: &SimConfig,
    window: Cycles,
    cadence: Cycles,
    on_snap: F,
) -> (RunResult, MetricsRegistry) {
    let sink = StreamSink::new(NoopSink, trace.nodes, window, cadence, on_snap);
    let (result, mut sink) = simulate_offloaded(trace, arch, cfg, sink);
    sink.snapshot_now(result.cycles);
    let (_noop, registry) = sink.into_parts();
    (result, registry)
}

/// Run `trace` recording the full event stream as a compact
/// [`EventLog`] (iterate it to decode), folding it into a
/// [`MetricsRegistry`] windowed every `window` cycles (0 disables the
/// time series) and emitting [`Snapshot`]s to `on_snap` at `cadence`
/// (0 = only the final frame).  Returns the result, with its
/// [`RunResult::obs`] summary and [`RunResult::metrics`] digest filled
/// in, the log and the registry.  Periodic samples exist only if
/// [`SimConfig::obs_sample_period`] is non-zero.
///
/// The summary and the registry are folded online, once per event; the
/// result equals what the offline folds ([`ascoma_obs::summarize`],
/// [`MetricsRegistry::from_events`]) give over the returned events —
/// `tests/online_fold.rs` asserts it.
///
/// ```
/// use ascoma::machine::simulate_measured_streamed;
/// use ascoma::{Arch, SimConfig};
/// use ascoma_workloads::{App, SizeClass};
///
/// let mut cfg = SimConfig::at_pressure(0.7);
/// cfg.obs_sample_period = 50_000;
/// let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
/// let (r, events, reg) =
///     simulate_measured_streamed(&trace, Arch::AsComa, &cfg, 100_000, 0, |_| {});
/// assert!(!events.is_empty());
/// assert!(r.obs.is_some());
/// let digest = r.metrics.unwrap();
/// assert_eq!(digest, reg.digest());
/// assert!(digest.hist("page_remap").is_some());
/// ```
pub fn simulate_measured_streamed<F: FnMut(Snapshot) + Send>(
    trace: &Trace,
    arch: Arch,
    cfg: &SimConfig,
    window: Cycles,
    cadence: Cycles,
    on_snap: F,
) -> (RunResult, EventLog, MetricsRegistry) {
    let sink = StreamSink::new(
        (EventLog::new(), SummaryFold::new(trace.nodes)),
        trace.nodes,
        window,
        cadence,
        on_snap,
    );
    let (mut result, mut sink) = simulate_offloaded(trace, arch, cfg, sink);
    sink.snapshot_now(result.cycles);
    let ((log, summary), registry) = sink.into_parts();
    result.obs = Some(summary.finish());
    result.metrics = Some(registry.digest());
    (result, log, registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_workloads::apps::{em3d::Em3dParams, ocean::OceanParams, radix::RadixParams};

    fn tiny_em3d() -> Trace {
        Em3dParams::tiny().build(4096)
    }

    #[test]
    fn all_architectures_complete_tiny_runs() {
        let t = tiny_em3d();
        for arch in Arch::ALL {
            let r = simulate(&t, arch, &SimConfig::at_pressure(0.5));
            assert!(r.cycles > 0, "{}", arch.name());
            assert_eq!(r.exec_per_node.len(), t.nodes);
            assert!(r.miss.total() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "trace 'wide' has 65 nodes; the machine models 1..=64")]
    fn more_than_64_nodes_is_rejected_with_the_count() {
        let t = Trace {
            name: "wide".into(),
            nodes: 65,
            shared_pages: 1,
            first_toucher: vec![NodeId(0)],
            programs: vec![Default::default(); 65],
        };
        Machine::new(&t, Arch::CcNuma, &SimConfig::at_pressure(0.5));
    }

    #[test]
    fn simulation_is_deterministic() {
        let t = tiny_em3d();
        let cfg = SimConfig::at_pressure(0.3);
        let a = simulate(&t, Arch::AsComa, &cfg);
        let b = simulate(&t, Arch::AsComa, &cfg);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.miss, b.miss);
        assert_eq!(a.exec, b.exec);
    }

    #[test]
    fn ccnuma_never_relocates_and_uses_rac() {
        let t = tiny_em3d();
        let r = simulate(&t, Arch::CcNuma, &SimConfig::at_pressure(0.5));
        assert_eq!(r.kernel.upgrades, 0);
        assert_eq!(r.kernel.downgrades, 0);
        assert_eq!(r.miss.scoma, 0, "CC-NUMA has no page cache");
    }

    #[test]
    fn scoma_at_low_pressure_fills_page_cache() {
        let t = tiny_em3d();
        let r = simulate(&t, Arch::Scoma, &SimConfig::at_pressure(0.1));
        // With abundant frames every remote page is cached: conflict
        // misses to remote memory should be (almost) eliminated.
        assert!(r.miss.scoma > 0);
        assert_eq!(r.miss.rac, 0, "S-COMA pages bypass the RAC");
        assert!(
            r.miss.conf_capc < r.miss.cold_essential / 4 + 10,
            "S-COMA at 10% pressure should satisfy conflicts locally: {:?}",
            r.miss
        );
    }

    #[test]
    fn ascoma_behaves_like_scoma_at_low_pressure() {
        let t = tiny_em3d();
        let cfg = SimConfig::at_pressure(0.1);
        let s = simulate(&t, Arch::Scoma, &cfg);
        let a = simulate(&t, Arch::AsComa, &cfg);
        let ratio = a.cycles as f64 / s.cycles as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "AS-COMA {} vs S-COMA {} at 10% pressure",
            a.cycles,
            s.cycles
        );
        assert_eq!(a.kernel.daemon_failures, 0);
    }

    /// A tiny but *hot* em3d: a narrow remote window revisited many times
    /// so per-page refetch counters cross the 64 threshold.
    fn hot_em3d() -> Trace {
        Em3dParams {
            iters: 8,
            remote_window_frac: 0.1,
            ..Em3dParams::tiny()
        }
        .build(4096)
    }

    #[test]
    fn rnuma_relocates_hot_pages() {
        let t = hot_em3d();
        let r = simulate(&t, Arch::RNuma, &SimConfig::at_pressure(0.3));
        assert!(
            r.kernel.upgrades > 0,
            "em3d's hot remote pages must cross the refetch threshold"
        );
        assert!(r.relocated_page_node_pairs > 0);
        assert!(r.relocated_fraction() <= 1.0);
    }

    #[test]
    fn high_pressure_triggers_ascoma_backoff() {
        // Radix scatters over every page: at 90% pressure the daemon
        // cannot find cold pages and AS-COMA must raise thresholds.
        let t = RadixParams::tiny().build(4096);
        let r = simulate(&t, Arch::AsComa, &SimConfig::at_pressure(0.9));
        assert!(
            r.kernel.daemon_failures > 0 || r.kernel.upgrades == 0,
            "expected thrash detection: {:?}",
            r.kernel
        );
        let raised = r.final_thresholds.iter().any(|&t| t > 64);
        assert!(
            raised || r.kernel.upgrades == 0,
            "thresholds {:?}",
            r.final_thresholds
        );
    }

    #[test]
    fn exec_time_equals_max_finish_and_buckets_sum() {
        let t = tiny_em3d();
        let r = simulate(&t, Arch::AsComa, &SimConfig::at_pressure(0.5));
        for per in &r.exec_per_node {
            // Each node's bucket total equals its executed cycles (its
            // finish time), so no time is double-counted or lost.
            assert!(per.total() > 0);
        }
        let max_total = r.exec_per_node.iter().map(|e| e.total()).max().unwrap();
        assert_eq!(r.cycles, max_total);
    }

    #[test]
    fn ocean_remote_traffic_is_small() {
        let t = OceanParams::tiny().build(4096);
        let r = simulate(&t, Arch::CcNuma, &SimConfig::at_pressure(0.5));
        let remote = r.miss.remote() as f64;
        let total = r.miss.total() as f64;
        assert!(
            remote / total < 0.15,
            "ocean remote share {} too high",
            remote / total
        );
    }

    #[test]
    fn rac_ablation_runs() {
        let t = tiny_em3d();
        let cfg = SimConfig {
            rac_bytes: 0,
            ..SimConfig::at_pressure(0.5)
        };
        let r = simulate(&t, Arch::CcNuma, &cfg);
        assert_eq!(r.miss.rac, 0);
        let with = simulate(&t, Arch::CcNuma, &SimConfig::at_pressure(0.5));
        assert!(with.miss.rac > 0, "default config must exercise the RAC");
        assert!(with.cycles <= r.cycles, "RAC must not slow things down");
    }

    #[test]
    fn controller_off_runs_carry_no_summary() {
        let t = tiny_em3d();
        let r = simulate(&t, Arch::AsComa, &SimConfig::at_pressure(0.5));
        assert!(r.controller.is_none());
    }

    #[test]
    fn controller_on_is_deterministic_and_summarized() {
        let t = tiny_em3d();
        let mut cfg = SimConfig::at_pressure(0.9);
        cfg.controller = ascoma_obs::ControllerParams::enabled();
        cfg.controller.window = 50_000;
        let a = simulate(&t, Arch::AsComa, &cfg);
        let b = simulate(&t, Arch::AsComa, &cfg);
        assert_eq!(a, b, "controller runs must be deterministic");
        let s = a.controller.expect("enabled controller must summarize");
        assert_eq!(s.per_node.len(), t.nodes);
        assert!(
            s.per_node.iter().all(|n| n.dwell.iter().sum::<u64>() > 0),
            "every node must dwell in some phase"
        );
        assert!(
            s.per_node
                .iter()
                .all(|n| !n.knob_trajectory.is_empty() && n.knob_trajectory[0].window == 0),
            "trajectories start with the seed step"
        );
    }

    #[test]
    fn controller_runs_identically_under_any_sink() {
        // The controller is config-gated, not sink-gated: a NoopSink run
        // and a recording run of the same controller config must produce
        // identical results (only the *events* differ).
        let t = tiny_em3d();
        let mut cfg = SimConfig::at_pressure(0.9);
        cfg.controller = ascoma_obs::ControllerParams::enabled();
        cfg.controller.window = 50_000;
        let plain = simulate(&t, Arch::AsComa, &cfg);
        let (traced, events, _) = simulate_measured_streamed(&t, Arch::AsComa, &cfg, 0, 0, |_| {});
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.exec, traced.exec);
        assert_eq!(plain.controller, traced.controller);
        // And every applied tune appears in the traced stream.
        let tunes: u64 = plain
            .controller
            .as_ref()
            .map(|s| s.per_node.iter().map(|n| n.tunes).sum())
            .unwrap_or(0);
        let emitted = events
            .iter()
            .filter(|e| matches!(e.event, Event::TuneApplied { .. }))
            .count() as u64;
        assert_eq!(tunes, emitted, "each tune must be emitted exactly once");
    }

    #[test]
    fn pressure_sweep_monotonicity_for_scoma() {
        // S-COMA should get (weakly) worse as pressure rises.
        let t = tiny_em3d();
        let lo = simulate(&t, Arch::Scoma, &SimConfig::at_pressure(0.1));
        let hi = simulate(&t, Arch::Scoma, &SimConfig::at_pressure(0.9));
        assert!(
            hi.cycles >= lo.cycles,
            "S-COMA high pressure {} < low pressure {}",
            hi.cycles,
            lo.cycles
        );
    }
}

#[cfg(test)]
mod path_tests {
    //! Focused tests of individual access-path branches.
    use super::*;
    use ascoma_workloads::trace::{NodeProgram, ScheduleItem, Segment};

    /// Two nodes; node 0 homes page 0 (+ ballast on node 1).
    fn two_node_trace(ops0: Vec<(u64, bool)>, ops1: Vec<(u64, bool)>) -> Trace {
        let mk = |ops: Vec<(u64, bool)>| {
            let mut p = NodeProgram::default();
            let mut s = Segment::new(0);
            for (a, w) in ops {
                s.push(a, w);
            }
            let i = p.add_segment(s);
            p.schedule = vec![ScheduleItem::Run(i), ScheduleItem::Barrier];
            p
        };
        Trace {
            name: "path".into(),
            nodes: 2,
            shared_pages: 2,
            first_toucher: vec![NodeId(0), NodeId(1)],
            programs: vec![mk(ops0), mk(ops1)],
        }
    }

    #[test]
    fn write_hit_upgrade_counts_no_refetch_but_invalidates() {
        // Node 1 reads remote line; node 0 (home) reads it too; node 1
        // then writes the same line: a permission upgrade with one
        // invalidation, no data refetch.
        let t = two_node_trace(vec![(0, false)], vec![(64, false), (64, false), (64, true)]);
        let r = simulate(&t, Arch::CcNuma, &SimConfig::default());
        assert!(r.proto.upgrades >= 1, "{:?}", r.proto);
        assert!(r.proto.invalidations >= 1);
    }

    #[test]
    fn tlb_fills_land_in_k_base() {
        let t = two_node_trace(vec![(0, false)], vec![(4096, false)]);
        let r = simulate(&t, Arch::CcNuma, &SimConfig::default());
        // Each node: one page fault + one TLB fill minimum.
        let k = SimConfig::default().kernel;
        assert!(
            r.exec.k_base >= 2 * (k.page_fault + k.tlb_fill),
            "K-BASE {} too small",
            r.exec.k_base
        );
    }

    #[test]
    fn repeated_line_hits_cost_one_cycle() {
        let mut ops = vec![(0u64, false)];
        ops.extend(std::iter::repeat((0u64, false)).take(100));
        let t = two_node_trace(ops, vec![]);
        let r = simulate(&t, Arch::CcNuma, &SimConfig::default());
        // 100 L1 hits at 1 cycle each on top of the single local miss.
        let miss_cost = r.exec_per_node[0].u_sh_mem;
        assert!(miss_cost < 59 + 100 * 2, "hits too expensive: {miss_cost}");
        assert!(miss_cost >= 59 + 100, "hits too cheap: {miss_cost}");
    }

    #[test]
    fn dirty_remote_home_read_fetches_back() {
        // Node 1 writes a remote block (becomes owner); node 0 (home)
        // then reads it: a home miss with a dirty-remote fetch-back.
        let t = two_node_trace(vec![(0, true)], vec![(0, true)]);
        let r = simulate(&t, Arch::CcNuma, &SimConfig::default());
        // One of the writes happened second and saw the other's ownership.
        assert!(
            r.proto.fetch_3hop + r.proto.fetch_local + r.proto.fetch_2hop >= 1,
            "{:?}",
            r.proto
        );
        assert!(r.miss.coherence + r.miss.conf_capc + r.miss.cold_essential > 0);
    }

    #[test]
    fn private_accesses_never_touch_the_directory() {
        let mut p = NodeProgram::default();
        let mut s = Segment::new(0);
        for i in 0..50 {
            s.push_private(i * 32, i % 2 == 0);
        }
        let i = p.add_segment(s);
        p.schedule = vec![ScheduleItem::Run(i)];
        let t = Trace {
            name: "priv".into(),
            nodes: 1,
            shared_pages: 1,
            first_toucher: vec![NodeId(0)],
            programs: vec![p],
        };
        let r = simulate(&t, Arch::CcNuma, &SimConfig::default());
        assert_eq!(r.miss.total(), 0, "private traffic is not shared-miss");
        assert!(r.exec.u_lc_mem > 0);
        assert_eq!(r.exec.u_sh_mem, 0);
        assert_eq!(r.net_messages, 0);
    }

    #[test]
    fn two_way_l1_reduces_local_conflict_stall() {
        // Alternating reads of two lines 8 KB apart: they conflict in a
        // direct-mapped 8 KB L1 but are co-resident in a 2-way one.
        let mut prog = NodeProgram::default();
        let mut seg = Segment::new(0);
        for _ in 0..200 {
            seg.push(0, false);
            seg.push(8192, false);
        }
        let i = prog.add_segment(seg);
        prog.schedule = vec![ScheduleItem::Run(i), ScheduleItem::Barrier];
        let idle = NodeProgram {
            schedule: vec![ScheduleItem::Barrier],
            ..Default::default()
        };
        // Three pages homed at node 0 (ballast keeps the cap at 3).
        let t = Trace {
            name: "conflict".into(),
            nodes: 2,
            shared_pages: 6,
            first_toucher: vec![
                NodeId(0),
                NodeId(0),
                NodeId(0),
                NodeId(1),
                NodeId(1),
                NodeId(1),
            ],
            programs: vec![prog, idle],
        };
        let direct = simulate(&t, Arch::CcNuma, &SimConfig::default());
        let assoc = simulate(
            &t,
            Arch::CcNuma,
            &SimConfig {
                l1_ways: 2,
                ..SimConfig::default()
            },
        );
        assert!(
            assoc.exec_per_node[0].u_sh_mem * 5 < direct.exec_per_node[0].u_sh_mem,
            "2-way {} vs direct {}",
            assoc.exec_per_node[0].u_sh_mem,
            direct.exec_per_node[0].u_sh_mem
        );
    }
}
