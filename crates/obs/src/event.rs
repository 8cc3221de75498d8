//! The event taxonomy: everything the adaptive machinery can do that a
//! chart might want to show.
//!
//! Events fall into two families:
//!
//! * **Transitions** — discrete occurrences at a node (a page changed
//!   mode, a daemon epoch ran, a threshold moved).  These carry enough
//!   payload to reconstruct per-page lifecycle histories.
//! * **Samples** — periodic time-series snapshots (free-pool level,
//!   current threshold, cumulative misses, network-port backlog) emitted
//!   by the machine's cycle-driven sampler, so pressure-vs-time and
//!   phase-change plots are possible.
//!
//! The JSON encoding here is hand-rolled (the workspace is offline and
//! dependency-free); every event serializes to a single flat object, the
//! line format written by [`crate::export::jsonl`].

use crate::control::{Cause, Phase};
use ascoma_sim::addr::VPage;
use ascoma_sim::{Cycles, NodeId};

/// How a page mapping was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapMode {
    /// Home page mapped at its owning node.
    Home,
    /// Remote page mapped in CC-NUMA mode (no local frame).
    Numa,
    /// Remote page backed by a local frame at first touch (S-COMA-first).
    Scoma,
    /// Pure S-COMA re-fault of a previously evicted page.
    ScomaRefault,
    /// Read-only replication of a never-written remote page.
    Replica,
}

impl MapMode {
    /// Stable lowercase name used in serialized streams.
    pub fn name(self) -> &'static str {
        match self {
            MapMode::Home => "home",
            MapMode::Numa => "numa",
            MapMode::Scoma => "scoma",
            MapMode::ScomaRefault => "scoma_refault",
            MapMode::Replica => "replica",
        }
    }

    /// All modes; `mode as usize` is the mode's index here.
    pub const ALL: [MapMode; 5] = [
        MapMode::Home,
        MapMode::Numa,
        MapMode::Scoma,
        MapMode::ScomaRefault,
        MapMode::Replica,
    ];
}

/// Why an S-COMA page lost its frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictCause {
    /// Reclaimed by a pageout-daemon epoch (cold page).
    Daemon,
    /// Evicted at fault time to supply a frame (R-NUMA/VC-NUMA/S-COMA).
    Victim,
    /// Read-only replica collapsed by the first write to the page.
    ReplicaCollapse,
}

impl EvictCause {
    /// Stable lowercase name used in serialized streams.
    pub fn name(self) -> &'static str {
        match self {
            EvictCause::Daemon => "daemon",
            EvictCause::Victim => "victim",
            EvictCause::ReplicaCollapse => "replica_collapse",
        }
    }

    /// All causes; `cause as usize` is the cause's index here.
    pub const ALL: [EvictCause; 3] = [
        EvictCause::Daemon,
        EvictCause::Victim,
        EvictCause::ReplicaCollapse,
    ];
}

/// Direction of a refetch-threshold adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffKind {
    /// Thrashing detected: threshold raised (back-off).
    Raise,
    /// Cold pages found again at an elevated threshold: recovery step.
    Drop,
}

impl BackoffKind {
    /// Stable lowercase name used in serialized streams.
    pub fn name(self) -> &'static str {
        match self {
            BackoffKind::Raise => "raise",
            BackoffKind::Drop => "drop",
        }
    }
}

/// Where a shared-data miss was serviced.
///
/// The split mirrors the paper's latency model: a miss either completes
/// at the local node (home memory, a valid S-COMA block, or the remote
/// access cache) or crosses the network in a two-hop (home supplies
/// data) or three-hop (home forwards to the owner) transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissLoc {
    /// Serviced from the node's own home memory.
    Home,
    /// Serviced from a valid local S-COMA block.
    Scoma,
    /// Serviced from the remote access cache (CC-NUMA block hit).
    Rac,
    /// Two-hop remote transaction (home memory supplied the data).
    Remote2,
    /// Three-hop remote transaction (home forwarded to a dirty owner).
    Remote3,
}

impl MissLoc {
    /// Stable lowercase name used in serialized streams.
    pub fn name(self) -> &'static str {
        match self {
            MissLoc::Home => "home",
            MissLoc::Scoma => "scoma",
            MissLoc::Rac => "rac",
            MissLoc::Remote2 => "remote2",
            MissLoc::Remote3 => "remote3",
        }
    }

    /// All locations, in serialization order; `loc as usize` is the
    /// location's index here.
    pub const ALL: [MissLoc; 5] = [
        MissLoc::Home,
        MissLoc::Scoma,
        MissLoc::Rac,
        MissLoc::Remote2,
        MissLoc::Remote3,
    ];
}

/// One observable occurrence inside a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A page's mapping was established at a node.
    PageMapped {
        /// Node establishing the mapping.
        node: NodeId,
        /// The page.
        page: VPage,
        /// How it was mapped.
        mode: MapMode,
    },
    /// A CC-NUMA page was upgraded (relocated) to S-COMA.
    PageUpgraded {
        /// Node performing the upgrade.
        node: NodeId,
        /// The page.
        page: VPage,
        /// The node's relocation threshold at upgrade time.
        threshold: u32,
    },
    /// A relocation notice fired but no frame was available, so the page
    /// stayed CC-NUMA (AS-COMA's pool-only discipline under pressure).
    UpgradeDeclined {
        /// Node that declined.
        node: NodeId,
        /// The page left in CC-NUMA mode.
        page: VPage,
    },
    /// An S-COMA page lost its local frame.
    PageEvicted {
        /// Node evicting.
        node: NodeId,
        /// The page.
        page: VPage,
        /// Why it was evicted.
        cause: EvictCause,
    },
    /// One pageout-daemon invocation completed.
    DaemonEpoch {
        /// Node whose daemon ran.
        node: NodeId,
        /// Monotone epoch number at that node (1-based).
        epoch: u64,
        /// Pages the clock hand examined.
        examined: u32,
        /// Cold pages reclaimed.
        reclaimed: u32,
        /// Frames the pool was short of `free_target` before the run.
        deficit: u32,
        /// `false` = the thrashing signal AS-COMA's back-off keys on.
        reached_target: bool,
    },
    /// A node's refetch threshold moved (back-off or recovery).
    ThresholdBackoff {
        /// Node whose policy adjusted.
        node: NodeId,
        /// Threshold before.
        from: u32,
        /// Threshold after.
        to: u32,
        /// Raise (thrash) or drop (recovery).
        kind: BackoffKind,
        /// Whether relocation is now disabled entirely (cap exceeded).
        relocation_disabled: bool,
    },
    /// A directory refetch counter crossed the relocation threshold
    /// (the piggybacked relocation notice of the paper).
    RefetchCrossing {
        /// Node whose counter crossed.
        node: NodeId,
        /// The hot page.
        page: VPage,
        /// Counter value at crossing.
        count: u32,
        /// The threshold it crossed.
        threshold: u32,
    },
    /// Periodic sample: free-frame pool state of one node.
    FreePoolSample {
        /// Sampled node.
        node: NodeId,
        /// Frames currently free.
        free: u32,
        /// S-COMA pages currently resident.
        resident: u32,
        /// Frames short of `free_target`.
        deficit: u32,
        /// Lowest free count ever observed at this node (low watermark).
        low: u32,
    },
    /// Periodic sample: a node's current refetch threshold.
    ThresholdSample {
        /// Sampled node.
        node: NodeId,
        /// Current threshold.
        threshold: u32,
    },
    /// Periodic sample: a node's cumulative shared-miss breakdown.
    MissSample {
        /// Sampled node.
        node: NodeId,
        /// All shared-data misses so far.
        total: u64,
        /// Misses that went remote.
        remote: u64,
    },
    /// Periodic sample: backlog queued at a node's network input port.
    NetSample {
        /// Node whose input port is sampled.
        node: NodeId,
        /// Cycles of service still queued at the port at sample time.
        backlog: Cycles,
        /// Machine-wide messages sent so far.
        messages: u64,
        /// Cumulative cycles requests spent queued at this node's port.
        queued: Cycles,
    },
    /// Periodic sample: a node's memory-hierarchy counters (L1 cache and
    /// local bus/DRAM contention).
    MemSample {
        /// Sampled node.
        node: NodeId,
        /// Cumulative L1 hits.
        l1_hits: u64,
        /// Cumulative L1 misses.
        l1_misses: u64,
        /// Cumulative cycles queued behind the local bus.
        bus_queued: Cycles,
        /// Cumulative cycles queued behind local DRAM banks.
        dram_queued: Cycles,
    },
    /// Measurement: one shared-data miss completed, with its full
    /// service time (the per-op latency sample behind the percentile
    /// tables).
    MissServiced {
        /// Node that took the miss.
        node: NodeId,
        /// Page the missing address belongs to.
        page: VPage,
        /// Where the miss was serviced.
        loc: MissLoc,
        /// True when the remote fetch was a capacity refetch of a page
        /// the node had seen before (AS-COMA's relocation signal).
        refetch: bool,
        /// End-to-end service time in cycles.
        cycles: Cycles,
    },
    /// Measurement: network queueing delay accumulated by one remote
    /// transaction (cycles spent waiting behind other messages at input
    /// ports, excluding wire and occupancy time).
    NetDelay {
        /// Node that issued the transaction.
        node: NodeId,
        /// Port-queueing cycles the transaction's messages accrued.
        queued: Cycles,
    },
    /// Measurement: kernel page-remap cost paid at a map, upgrade, or
    /// eviction (TLB/page-table manipulation plus any block flushes).
    RemapCost {
        /// Node paying the cost.
        node: NodeId,
        /// The page remapped.
        page: VPage,
        /// Kernel cycles charged.
        cycles: Cycles,
    },
    /// Measurement: one pageout-daemon invocation's reclaim latency.
    ReclaimLatency {
        /// Node whose daemon ran.
        node: NodeId,
        /// Pages reclaimed by the epoch.
        reclaimed: u32,
        /// Total cycles the epoch consumed (scan plus evictions).
        cycles: Cycles,
    },
    /// The auto-tuner's phase detector switched a node's phase (with
    /// cause attribution: which signal crossed which bound).
    PhaseChange {
        /// Node whose detector flipped.
        node: NodeId,
        /// Decision-window ordinal of the switch.
        window: u64,
        /// Phase left behind.
        from: Phase,
        /// Phase entered.
        to: Phase,
        /// Signal crossing that drove the switch.
        cause: Cause,
        /// Windows spent in `from`.
        dwell: u64,
    },
    /// The auto-tuner adjusted a node's back-off knobs.
    TuneApplied {
        /// Node tuned.
        node: NodeId,
        /// Decision-window ordinal of the tune.
        window: u64,
        /// `threshold_increment` before.
        inc_from: u32,
        /// `threshold_increment` after.
        inc_to: u32,
        /// Daemon base period before.
        period_from: Cycles,
        /// Daemon base period after.
        period_to: Cycles,
        /// Why the knobs moved.
        cause: Cause,
    },
}

/// Number of [`Event`] variants.
pub const KINDS: usize = 18;

/// Kind tags in [`Event::kind_index`] order (variant declaration order):
/// `KIND_NAMES[e.kind_index()] == e.kind()` for every event.
pub const KIND_NAMES: [&str; KINDS] = [
    "page_mapped",
    "page_upgraded",
    "upgrade_declined",
    "page_evicted",
    "daemon_epoch",
    "threshold_backoff",
    "refetch_crossing",
    "free_pool",
    "threshold",
    "miss",
    "net",
    "mem",
    "miss_serviced",
    "net_delay",
    "remap_cost",
    "reclaim_latency",
    "phase_change",
    "tune_applied",
];

impl Event {
    /// Dense variant index in `0..KINDS`, the slot of [`Self::kind`] in
    /// [`KIND_NAMES`] — lets per-kind tallies live in a flat array.
    #[inline]
    pub fn kind_index(&self) -> usize {
        match self {
            Event::PageMapped { .. } => 0,
            Event::PageUpgraded { .. } => 1,
            Event::UpgradeDeclined { .. } => 2,
            Event::PageEvicted { .. } => 3,
            Event::DaemonEpoch { .. } => 4,
            Event::ThresholdBackoff { .. } => 5,
            Event::RefetchCrossing { .. } => 6,
            Event::FreePoolSample { .. } => 7,
            Event::ThresholdSample { .. } => 8,
            Event::MissSample { .. } => 9,
            Event::NetSample { .. } => 10,
            Event::MemSample { .. } => 11,
            Event::MissServiced { .. } => 12,
            Event::NetDelay { .. } => 13,
            Event::RemapCost { .. } => 14,
            Event::ReclaimLatency { .. } => 15,
            Event::PhaseChange { .. } => 16,
            Event::TuneApplied { .. } => 17,
        }
    }

    /// Stable snake_case kind tag used in serialized streams.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::PageMapped { .. } => "page_mapped",
            Event::PageUpgraded { .. } => "page_upgraded",
            Event::UpgradeDeclined { .. } => "upgrade_declined",
            Event::PageEvicted { .. } => "page_evicted",
            Event::DaemonEpoch { .. } => "daemon_epoch",
            Event::ThresholdBackoff { .. } => "threshold_backoff",
            Event::RefetchCrossing { .. } => "refetch_crossing",
            Event::FreePoolSample { .. } => "free_pool",
            Event::ThresholdSample { .. } => "threshold",
            Event::MissSample { .. } => "miss",
            Event::NetSample { .. } => "net",
            Event::MemSample { .. } => "mem",
            Event::MissServiced { .. } => "miss_serviced",
            Event::NetDelay { .. } => "net_delay",
            Event::RemapCost { .. } => "remap_cost",
            Event::ReclaimLatency { .. } => "reclaim_latency",
            Event::PhaseChange { .. } => "phase_change",
            Event::TuneApplied { .. } => "tune_applied",
        }
    }

    /// The node this event concerns.
    pub fn node(&self) -> NodeId {
        match *self {
            Event::PageMapped { node, .. }
            | Event::PageUpgraded { node, .. }
            | Event::UpgradeDeclined { node, .. }
            | Event::PageEvicted { node, .. }
            | Event::DaemonEpoch { node, .. }
            | Event::ThresholdBackoff { node, .. }
            | Event::RefetchCrossing { node, .. }
            | Event::FreePoolSample { node, .. }
            | Event::ThresholdSample { node, .. }
            | Event::MissSample { node, .. }
            | Event::NetSample { node, .. }
            | Event::MemSample { node, .. }
            | Event::MissServiced { node, .. }
            | Event::NetDelay { node, .. }
            | Event::RemapCost { node, .. }
            | Event::ReclaimLatency { node, .. }
            | Event::PhaseChange { node, .. }
            | Event::TuneApplied { node, .. } => node,
        }
    }

    /// True for periodic time-series samples, false for transitions and
    /// measurements.
    pub fn is_sample(&self) -> bool {
        matches!(
            self,
            Event::FreePoolSample { .. }
                | Event::ThresholdSample { .. }
                | Event::MissSample { .. }
                | Event::NetSample { .. }
                | Event::MemSample { .. }
        )
    }

    /// True for per-occurrence latency/cost measurements (the events the
    /// metrics registry folds into histograms).  Disjoint from
    /// [`Self::is_sample`]; everything that is neither is a lifecycle
    /// transition.
    pub fn is_measurement(&self) -> bool {
        matches!(
            self,
            Event::MissServiced { .. }
                | Event::NetDelay { .. }
                | Event::RemapCost { .. }
                | Event::ReclaimLatency { .. }
        )
    }
}

/// An [`Event`] stamped with the emitting node's cycle clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Emitting node's clock at emission.
    pub cycle: Cycles,
    /// The event.
    pub event: Event,
}

impl TimedEvent {
    /// Append this event's single-line JSON object (no trailing newline)
    /// to `out`.  All values are numbers or fixed enum tags, so no string
    /// escaping is needed.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write;
        let t = self.cycle;
        let kind = self.event.kind();
        let node = self.event.node().0;
        let _ = write!(out, "{{\"t\":{t},\"kind\":\"{kind}\",\"node\":{node}");
        match self.event {
            Event::PageMapped { page, mode, .. } => {
                let _ = write!(out, ",\"page\":{},\"mode\":\"{}\"", page.0, mode.name());
            }
            Event::PageUpgraded {
                page, threshold, ..
            } => {
                let _ = write!(out, ",\"page\":{},\"threshold\":{threshold}", page.0);
            }
            Event::UpgradeDeclined { page, .. } => {
                let _ = write!(out, ",\"page\":{}", page.0);
            }
            Event::PageEvicted { page, cause, .. } => {
                let _ = write!(out, ",\"page\":{},\"cause\":\"{}\"", page.0, cause.name());
            }
            Event::DaemonEpoch {
                epoch,
                examined,
                reclaimed,
                deficit,
                reached_target,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"epoch\":{epoch},\"examined\":{examined},\"reclaimed\":{reclaimed},\"deficit\":{deficit},\"reached_target\":{reached_target}"
                );
            }
            Event::ThresholdBackoff {
                from,
                to,
                kind,
                relocation_disabled,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"from\":{from},\"to\":{to},\"dir\":\"{}\",\"relocation_disabled\":{relocation_disabled}",
                    kind.name()
                );
            }
            Event::RefetchCrossing {
                page,
                count,
                threshold,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"page\":{},\"count\":{count},\"threshold\":{threshold}",
                    page.0
                );
            }
            Event::FreePoolSample {
                free,
                resident,
                deficit,
                low,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"free\":{free},\"resident\":{resident},\"deficit\":{deficit},\"low\":{low}"
                );
            }
            Event::ThresholdSample { threshold, .. } => {
                let _ = write!(out, ",\"threshold\":{threshold}");
            }
            Event::MissSample { total, remote, .. } => {
                let _ = write!(out, ",\"total\":{total},\"remote\":{remote}");
            }
            Event::NetSample {
                backlog,
                messages,
                queued,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"backlog\":{backlog},\"messages\":{messages},\"queued\":{queued}"
                );
            }
            Event::MemSample {
                l1_hits,
                l1_misses,
                bus_queued,
                dram_queued,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"l1_hits\":{l1_hits},\"l1_misses\":{l1_misses},\"bus_queued\":{bus_queued},\"dram_queued\":{dram_queued}"
                );
            }
            Event::MissServiced {
                page,
                loc,
                refetch,
                cycles,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"page\":{},\"loc\":\"{}\",\"refetch\":{refetch},\"cycles\":{cycles}",
                    page.0,
                    loc.name()
                );
            }
            Event::NetDelay { queued, .. } => {
                let _ = write!(out, ",\"queued\":{queued}");
            }
            Event::RemapCost { page, cycles, .. } => {
                let _ = write!(out, ",\"page\":{},\"cycles\":{cycles}", page.0);
            }
            Event::ReclaimLatency {
                reclaimed, cycles, ..
            } => {
                let _ = write!(out, ",\"reclaimed\":{reclaimed},\"cycles\":{cycles}");
            }
            Event::PhaseChange {
                window,
                from,
                to,
                cause,
                dwell,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"window\":{window},\"from\":\"{}\",\"to\":\"{}\",\"cause\":\"{}\",\"dwell\":{dwell}",
                    from.tag(),
                    to.tag(),
                    cause.tag()
                );
            }
            Event::TuneApplied {
                window,
                inc_from,
                inc_to,
                period_from,
                period_to,
                cause,
                ..
            } => {
                let _ = write!(
                    out,
                    ",\"window\":{window},\"inc_from\":{inc_from},\"inc_to\":{inc_to},\"period_from\":{period_from},\"period_to\":{period_to},\"cause\":\"{}\"",
                    cause.tag()
                );
            }
        }
        out.push('}');
    }

    /// This event's single-line JSON encoding.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json(&mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of every variant, in declaration order.
    fn one_of_each() -> [Event; KINDS] {
        [
            Event::PageMapped {
                node: NodeId(0),
                page: VPage(1),
                mode: MapMode::Scoma,
            },
            Event::PageUpgraded {
                node: NodeId(0),
                page: VPage(1),
                threshold: 64,
            },
            Event::UpgradeDeclined {
                node: NodeId(0),
                page: VPage(1),
            },
            Event::PageEvicted {
                node: NodeId(0),
                page: VPage(1),
                cause: EvictCause::Daemon,
            },
            Event::DaemonEpoch {
                node: NodeId(0),
                epoch: 1,
                examined: 2,
                reclaimed: 1,
                deficit: 3,
                reached_target: false,
            },
            Event::ThresholdBackoff {
                node: NodeId(0),
                from: 64,
                to: 96,
                kind: BackoffKind::Raise,
                relocation_disabled: false,
            },
            Event::RefetchCrossing {
                node: NodeId(0),
                page: VPage(1),
                count: 64,
                threshold: 64,
            },
            Event::FreePoolSample {
                node: NodeId(0),
                free: 1,
                resident: 2,
                deficit: 0,
                low: 1,
            },
            Event::ThresholdSample {
                node: NodeId(0),
                threshold: 64,
            },
            Event::MissSample {
                node: NodeId(0),
                total: 10,
                remote: 5,
            },
            Event::NetSample {
                node: NodeId(0),
                backlog: 0,
                messages: 9,
                queued: 0,
            },
            Event::MemSample {
                node: NodeId(0),
                l1_hits: 100,
                l1_misses: 4,
                bus_queued: 12,
                dram_queued: 3,
            },
            Event::MissServiced {
                node: NodeId(0),
                page: VPage(1),
                loc: MissLoc::Remote2,
                refetch: true,
                cycles: 180,
            },
            Event::NetDelay {
                node: NodeId(0),
                queued: 14,
            },
            Event::RemapCost {
                node: NodeId(0),
                page: VPage(1),
                cycles: 500,
            },
            Event::ReclaimLatency {
                node: NodeId(0),
                reclaimed: 3,
                cycles: 2100,
            },
            Event::PhaseChange {
                node: NodeId(0),
                window: 4,
                from: Phase::Baseline,
                to: Phase::Hot,
                cause: Cause::RefetchHigh,
                dwell: 4,
            },
            Event::TuneApplied {
                node: NodeId(0),
                window: 4,
                inc_from: 32,
                inc_to: 64,
                period_from: 50_000,
                period_to: 100_000,
                cause: Cause::RefetchHigh,
            },
        ]
    }

    #[test]
    fn kinds_are_stable_and_distinct() {
        let evs = one_of_each();
        let mut kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), evs.len());
    }

    #[test]
    fn kind_index_names_every_variant() {
        for (i, e) in one_of_each().iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(KIND_NAMES[e.kind_index()], e.kind());
        }
    }

    #[test]
    fn miss_loc_discriminant_is_its_all_index() {
        for (i, loc) in MissLoc::ALL.iter().enumerate() {
            assert_eq!(*loc as usize, i);
        }
    }

    #[test]
    fn payload_enum_discriminants_are_their_all_index() {
        for (i, mode) in MapMode::ALL.iter().enumerate() {
            assert_eq!(*mode as usize, i);
        }
        for (i, cause) in EvictCause::ALL.iter().enumerate() {
            assert_eq!(*cause as usize, i);
        }
        for (i, cause) in Cause::ALL.iter().enumerate() {
            assert_eq!(*cause as usize, i);
        }
    }

    #[test]
    fn json_lines_are_flat_objects() {
        let te = TimedEvent {
            cycle: 1234,
            event: Event::PageMapped {
                node: NodeId(3),
                page: VPage(7),
                mode: MapMode::Numa,
            },
        };
        let j = te.to_json();
        assert_eq!(
            j,
            "{\"t\":1234,\"kind\":\"page_mapped\",\"node\":3,\"page\":7,\"mode\":\"numa\"}"
        );
        assert!(!j.contains('\n'));
    }

    #[test]
    fn every_variant_writes_one_flat_object() {
        use crate::json::{parse, Json};
        for (i, event) in one_of_each().into_iter().enumerate() {
            let te = TimedEvent {
                cycle: 100 + i as u64,
                event,
            };
            let j = te.to_json();
            let obj = parse(&j).unwrap_or_else(|e| panic!("{e}: {j}"));
            let fields = obj.as_obj().unwrap_or_else(|| panic!("not an object: {j}"));
            assert!(
                fields
                    .iter()
                    .all(|(_, v)| !matches!(v, Json::Obj(_) | Json::Arr(_))),
                "not flat: {j}"
            );
            assert_eq!(obj.get("kind").and_then(Json::as_str), Some(event.kind()));
            assert_eq!(obj.get("t").and_then(Json::as_u64), Some(te.cycle));
            assert_eq!(obj.get("node").and_then(Json::as_u64), Some(0));
        }
    }

    #[test]
    fn sample_classification() {
        assert!(Event::NetSample {
            node: NodeId(0),
            backlog: 0,
            messages: 0,
            queued: 0
        }
        .is_sample());
        assert!(!Event::UpgradeDeclined {
            node: NodeId(0),
            page: VPage(0)
        }
        .is_sample());
    }

    #[test]
    fn measurement_classification_is_disjoint() {
        let m = Event::MissServiced {
            node: NodeId(0),
            page: VPage(2),
            loc: MissLoc::Home,
            refetch: false,
            cycles: 40,
        };
        assert!(m.is_measurement());
        assert!(!m.is_sample());
        let s = Event::MemSample {
            node: NodeId(0),
            l1_hits: 0,
            l1_misses: 0,
            bus_queued: 0,
            dram_queued: 0,
        };
        assert!(s.is_sample());
        assert!(!s.is_measurement());
        let t = Event::PageMapped {
            node: NodeId(0),
            page: VPage(2),
            mode: MapMode::Home,
        };
        assert!(!t.is_sample());
        assert!(!t.is_measurement());
    }

    #[test]
    fn miss_serviced_json_carries_location() {
        let te = TimedEvent {
            cycle: 77,
            event: Event::MissServiced {
                node: NodeId(2),
                page: VPage(9),
                loc: MissLoc::Remote3,
                refetch: true,
                cycles: 312,
            },
        };
        let j = te.to_json();
        assert!(j.contains("\"kind\":\"miss_serviced\""));
        assert!(j.contains("\"loc\":\"remote3\""));
        assert!(j.contains("\"refetch\":true"));
        assert!(j.contains("\"cycles\":312"));
    }

    #[test]
    fn controller_events_carry_cause_attribution() {
        let pc = TimedEvent {
            cycle: 400_000,
            event: Event::PhaseChange {
                node: NodeId(2),
                window: 4,
                from: Phase::Baseline,
                to: Phase::Pressure,
                cause: Cause::FreeLow,
                dwell: 4,
            },
        };
        let j = pc.to_json();
        assert!(j.contains("\"kind\":\"phase_change\""));
        assert!(j.contains("\"from\":\"baseline\""));
        assert!(j.contains("\"to\":\"pressure\""));
        assert!(j.contains("\"cause\":\"free_low\""));
        assert!(j.contains("\"dwell\":4"));
        assert!(!pc.event.is_sample() && !pc.event.is_measurement());

        let tn = TimedEvent {
            cycle: 400_000,
            event: Event::TuneApplied {
                node: NodeId(2),
                window: 4,
                inc_from: 32,
                inc_to: 64,
                period_from: 50_000,
                period_to: 25_000,
                cause: Cause::FreeLow,
            },
        };
        let j = tn.to_json();
        assert!(j.contains("\"kind\":\"tune_applied\""));
        assert!(j.contains("\"inc_from\":32"));
        assert!(j.contains("\"inc_to\":64"));
        assert!(j.contains("\"period_to\":25000"));
        assert!(!tn.event.is_sample() && !tn.event.is_measurement());
    }

    #[test]
    fn backoff_json_carries_direction() {
        let te = TimedEvent {
            cycle: 9,
            event: Event::ThresholdBackoff {
                node: NodeId(1),
                from: 64,
                to: 96,
                kind: BackoffKind::Raise,
                relocation_disabled: false,
            },
        };
        let j = te.to_json();
        assert!(j.contains("\"dir\":\"raise\""));
        assert!(j.contains("\"from\":64"));
        assert!(j.contains("\"to\":96"));
    }
}
