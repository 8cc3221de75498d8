//! Trace summarization: fold an event stream back into per-page
//! lifecycle histories, per-node threshold trajectories, and daemon
//! epoch records — the analysis behind `inspect trace --summary` and
//! the optional digest attached to `RunResult`.
//!
//! [`SummaryFold`] is the one fold: observed runs feed it as a [`Sink`]
//! while they execute, and [`summarize`] loops it over a recorded trace.

use crate::event::{BackoffKind, Event, MapMode, TimedEvent};
use crate::hash::FxHashMap;
use crate::sink::Sink;
use ascoma_sim::Cycles;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;

/// One point on a node's refetch-threshold trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdStep {
    /// Node clock when the threshold changed.
    pub cycle: Cycles,
    /// The threshold value from this cycle onward.
    pub threshold: u32,
}

/// The relocation history of one (node, page) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PageLifecycle {
    /// Times the page was mapped at this node (any mode).
    pub maps: u32,
    /// CC-NUMA→S-COMA upgrades.
    pub upgrades: u32,
    /// Declined upgrades (no frame available).
    pub declined: u32,
    /// Evictions (any cause).
    pub evictions: u32,
    /// Node clock at the first recorded event for this pair.
    pub first_cycle: Cycles,
    /// Node clock at the last recorded event for this pair.
    pub last_cycle: Cycles,
}

/// One pageout-daemon epoch, as recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonEpochRecord {
    /// Node clock when the epoch completed.
    pub cycle: Cycles,
    /// Node whose daemon ran.
    pub node: u16,
    /// Monotone per-node epoch number.
    pub epoch: u64,
    /// Pages examined by the clock hand.
    pub examined: u32,
    /// Cold pages reclaimed.
    pub reclaimed: u32,
    /// Pool deficit before the run.
    pub deficit: u32,
    /// Whether `free_target` was restored (false = thrash signal).
    pub reached_target: bool,
}

/// A trace folded into per-page, per-node and per-daemon views.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total events in the trace.
    pub events: usize,
    /// Transition events (non-sample).
    pub transitions: usize,
    /// Map events by count.
    pub maps: u64,
    /// Upgrade events.
    pub upgrades: u64,
    /// Declined upgrades.
    pub declined: u64,
    /// Eviction events.
    pub evictions: u64,
    /// Refetch-threshold crossings.
    pub crossings: u64,
    /// Threshold raises (thrash back-off).
    pub raises: u64,
    /// Threshold drops (recovery).
    pub drops: u64,
    /// Per-(node, page) lifecycle histories, keyed `(node, page)`.
    pub pages: BTreeMap<(u16, u64), PageLifecycle>,
    /// Per-node threshold trajectories (indexed by node).
    pub thresholds: Vec<Vec<ThresholdStep>>,
    /// All daemon epochs in trace order.
    pub epochs: Vec<DaemonEpochRecord>,
    /// Node clock of the last event, 0 for an empty trace.
    pub last_cycle: Cycles,
}

impl Summary {
    /// Pages with at least one upgrade or eviction — the "relocated"
    /// set the paper's Table 6 census counts.
    pub fn relocated_pairs(&self) -> usize {
        self.pages
            .values()
            .filter(|l| l.upgrades > 0 || l.evictions > 0)
            .count()
    }

    /// Daemon epochs that failed to restore `free_target`.
    pub fn thrash_epochs(&self) -> usize {
        self.epochs.iter().filter(|e| !e.reached_target).count()
    }
}

/// An illegal page-lifecycle transition found while folding a trace:
/// an eviction of a page that holds no frame (double free / evict before
/// map), a second frame granted to a page already holding one, or an
/// upgrade of a page that was never mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LifecycleViolation {
    /// Node clock of the offending event.
    cycle: Cycles,
    /// Node the event belongs to.
    node: u16,
    /// Page the event belongs to.
    page: u64,
    /// What rule the event broke.
    detail: String,
}

impl fmt::Display for LifecycleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: node {} page {}: {}",
            self.cycle, self.node, self.page, self.detail
        )
    }
}

/// Per-(node, page) legality state while folding a stream.
#[derive(Debug, Default, Clone, Copy)]
struct PageState {
    /// The pair has been mapped at least once (any mode).
    mapped: bool,
    /// The pair currently holds an S-COMA frame.
    frame: bool,
}

/// One (node, page) pair's fold state: its public history and its
/// legality state, kept together so a transition costs one lookup.
#[derive(Debug, Clone, Copy)]
struct PageSlot {
    life: PageLifecycle,
    state: PageState,
}

/// The incremental form of [`summarize`]: feed events one at a time
/// with [`Self::step`] (or use it as a [`Sink`], so the summary is built
/// while a run executes), then take the [`Summary`] with
/// [`Self::finish`].
///
/// A step is O(1): each (node, page) pair's lifecycle and legality state
/// share one slot of a deterministically hashed table, and the sorted
/// [`Summary::pages`] map is built once, at finish.
#[derive(Debug, Clone)]
pub struct SummaryFold {
    /// Everything but `pages`, which is built at finish.
    summary: Summary,
    pages: FxHashMap<(u16, u64), PageSlot>,
    violations: Vec<LifecycleViolation>,
}

impl SummaryFold {
    /// An empty fold.  `nodes` sizes the per-node trajectory table;
    /// events from nodes `>= nodes` grow it as needed.
    pub fn new(nodes: usize) -> Self {
        Self {
            summary: Summary {
                thresholds: vec![Vec::new(); nodes],
                ..Summary::default()
            },
            pages: FxHashMap::default(),
            violations: Vec::new(),
        }
    }

    /// Fold one event.
    #[inline]
    pub fn step(&mut self, te: &TimedEvent) {
        let s = &mut self.summary;
        s.events += 1;
        s.last_cycle = s.last_cycle.max(te.cycle);
        if !te.event.is_sample() && !te.event.is_measurement() {
            s.transitions += 1;
        }
        let cycle = te.cycle;
        let violation = |node: u16, page: u64, detail: String| LifecycleViolation {
            cycle,
            node,
            page,
            detail,
        };
        match te.event {
            Event::PageMapped { node, page, mode } => {
                s.maps += 1;
                let slot = touch(&mut self.pages, node.0, page.0, cycle);
                slot.life.maps += 1;
                let st = &mut slot.state;
                let grants_frame = matches!(
                    mode,
                    MapMode::Scoma | MapMode::ScomaRefault | MapMode::Replica
                );
                if st.frame {
                    self.violations.push(violation(
                        node.0,
                        page.0,
                        format!("mapped {mode:?} while already holding a frame"),
                    ));
                } else if st.mapped && mode != MapMode::ScomaRefault {
                    self.violations.push(violation(
                        node.0,
                        page.0,
                        format!("mapped {mode:?} twice without a refault"),
                    ));
                } else if !st.mapped && mode == MapMode::ScomaRefault {
                    self.violations.push(violation(
                        node.0,
                        page.0,
                        "refault of a never-mapped page".to_string(),
                    ));
                }
                st.mapped = true;
                st.frame = grants_frame;
            }
            Event::PageUpgraded { node, page, .. } => {
                s.upgrades += 1;
                let slot = touch(&mut self.pages, node.0, page.0, cycle);
                slot.life.upgrades += 1;
                let st = &mut slot.state;
                if !st.mapped {
                    self.violations.push(violation(
                        node.0,
                        page.0,
                        "upgraded before any map".to_string(),
                    ));
                } else if st.frame {
                    self.violations.push(violation(
                        node.0,
                        page.0,
                        "upgraded while already holding a frame".to_string(),
                    ));
                }
                st.mapped = true;
                st.frame = true;
            }
            Event::UpgradeDeclined { node, page } => {
                s.declined += 1;
                touch(&mut self.pages, node.0, page.0, cycle).life.declined += 1;
            }
            Event::PageEvicted { node, page, .. } => {
                s.evictions += 1;
                let slot = touch(&mut self.pages, node.0, page.0, cycle);
                slot.life.evictions += 1;
                let st = &mut slot.state;
                if !st.frame {
                    self.violations.push(violation(
                        node.0,
                        page.0,
                        if st.mapped {
                            "evicted with no frame held (double free)".to_string()
                        } else {
                            "evicted before any map".to_string()
                        },
                    ));
                }
                st.frame = false;
            }
            Event::RefetchCrossing { .. } => s.crossings += 1,
            Event::ThresholdBackoff { node, to, kind, .. } => {
                match kind {
                    BackoffKind::Raise => s.raises += 1,
                    BackoffKind::Drop => s.drops += 1,
                }
                let idx = node.0 as usize;
                if idx >= s.thresholds.len() {
                    s.thresholds.resize(idx + 1, Vec::new());
                }
                s.thresholds[idx].push(ThresholdStep {
                    cycle,
                    threshold: to,
                });
            }
            Event::DaemonEpoch {
                node,
                epoch,
                examined,
                reclaimed,
                deficit,
                reached_target,
            } => {
                s.epochs.push(DaemonEpochRecord {
                    cycle,
                    node: node.0,
                    epoch,
                    examined,
                    reclaimed,
                    deficit,
                    reached_target,
                });
            }
            Event::FreePoolSample { .. }
            | Event::ThresholdSample { .. }
            | Event::MissSample { .. }
            | Event::NetSample { .. }
            | Event::MemSample { .. }
            | Event::MissServiced { .. }
            | Event::NetDelay { .. }
            | Event::RemapCost { .. }
            | Event::ReclaimLatency { .. }
            // Controller decisions are summarized by the ControllerSummary
            // on the RunResult (and counted in `transitions` above).
            | Event::PhaseChange { .. }
            | Event::TuneApplied { .. } => {}
        }
    }

    /// The summary so far, with every lifecycle violation found.
    fn finish_lossy(self) -> (Summary, Vec<LifecycleViolation>) {
        let mut s = self.summary;
        s.pages = self
            .pages
            .into_iter()
            .map(|(key, slot)| (key, slot.life))
            .collect();
        (s, self.violations)
    }

    /// The summary of a complete stream.
    ///
    /// # Panics
    ///
    /// On the first illegal page-lifecycle transition folded (see
    /// [`summarize`]).
    pub fn finish(self) -> Summary {
        let (s, violations) = self.finish_lossy();
        if let Some(v) = violations.first() {
            panic!("illegal page lifecycle in event stream: {v}");
        }
        s
    }
}

impl Sink for SummaryFold {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        self.step(&TimedEvent { cycle, event });
    }
}

/// The pair's slot, created on first sight, with `last_cycle` advanced.
#[inline]
fn touch(
    pages: &mut FxHashMap<(u16, u64), PageSlot>,
    node: u16,
    page: u64,
    cycle: Cycles,
) -> &mut PageSlot {
    let slot = pages.entry((node, page)).or_insert_with(|| PageSlot {
        life: PageLifecycle {
            first_cycle: cycle,
            ..PageLifecycle::default()
        },
        state: PageState::default(),
    });
    slot.life.last_cycle = slot.life.last_cycle.max(cycle);
    slot
}

/// Fold `events` into a [`Summary`].  `nodes` sizes the per-node
/// trajectory table; events from nodes `>= nodes` grow it as needed.
///
/// This is the offline form (over a recorded trace) of the
/// [`SummaryFold`] the observed run paths feed online.
///
/// # Panics
///
/// On an illegal page-lifecycle sequence — an `Evicted` before any
/// frame-granting map, a second frame granted without an eviction in
/// between, a refault of a never-mapped page.  A full event stream from
/// one run must be legal.
pub fn summarize<I>(events: I, nodes: usize) -> Summary
where
    I: IntoIterator,
    I::Item: Borrow<TimedEvent>,
{
    fold(events, nodes).finish()
}

fn fold<I>(events: I, nodes: usize) -> SummaryFold
where
    I: IntoIterator,
    I::Item: Borrow<TimedEvent>,
{
    let mut f = SummaryFold::new(nodes);
    for te in events {
        f.step(te.borrow());
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EvictCause, MapMode};
    use ascoma_sim::addr::VPage;
    use ascoma_sim::NodeId;

    fn trace() -> Vec<TimedEvent> {
        vec![
            TimedEvent {
                cycle: 5,
                event: Event::PageMapped {
                    node: NodeId(0),
                    page: VPage(7),
                    mode: MapMode::Numa,
                },
            },
            TimedEvent {
                cycle: 9,
                event: Event::RefetchCrossing {
                    node: NodeId(0),
                    page: VPage(7),
                    count: 64,
                    threshold: 64,
                },
            },
            TimedEvent {
                cycle: 10,
                event: Event::PageUpgraded {
                    node: NodeId(0),
                    page: VPage(7),
                    threshold: 64,
                },
            },
            TimedEvent {
                cycle: 30,
                event: Event::DaemonEpoch {
                    node: NodeId(1),
                    epoch: 1,
                    examined: 8,
                    reclaimed: 0,
                    deficit: 4,
                    reached_target: false,
                },
            },
            TimedEvent {
                cycle: 31,
                event: Event::ThresholdBackoff {
                    node: NodeId(1),
                    from: 64,
                    to: 96,
                    kind: BackoffKind::Raise,
                    relocation_disabled: false,
                },
            },
            TimedEvent {
                cycle: 40,
                event: Event::PageEvicted {
                    node: NodeId(0),
                    page: VPage(7),
                    cause: EvictCause::Daemon,
                },
            },
            TimedEvent {
                cycle: 41,
                event: Event::FreePoolSample {
                    node: NodeId(0),
                    free: 2,
                    resident: 6,
                    deficit: 1,
                    low: 2,
                },
            },
        ]
    }

    #[test]
    fn folds_lifecycles() {
        let s = summarize(trace(), 2);
        assert_eq!(s.events, 7);
        assert_eq!(s.transitions, 6);
        let lc = s.pages[&(0, 7)];
        assert_eq!(lc.maps, 1);
        assert_eq!(lc.upgrades, 1);
        assert_eq!(lc.evictions, 1);
        assert_eq!(lc.first_cycle, 5);
        assert_eq!(lc.last_cycle, 40);
        assert_eq!(s.relocated_pairs(), 1);
    }

    #[test]
    fn folds_thresholds_and_epochs() {
        let s = summarize(trace(), 2);
        assert_eq!(s.raises, 1);
        assert_eq!(s.drops, 0);
        assert_eq!(
            s.thresholds[1],
            vec![ThresholdStep {
                cycle: 31,
                threshold: 96
            }]
        );
        assert_eq!(s.epochs.len(), 1);
        assert_eq!(s.thrash_epochs(), 1);
        assert_eq!(s.last_cycle, 41);
    }

    #[test]
    fn empty_trace_is_empty_summary() {
        let s = summarize(Vec::<TimedEvent>::new(), 4);
        assert_eq!(s.events, 0);
        assert_eq!(s.relocated_pairs(), 0);
        assert_eq!(s.thresholds.len(), 4);
    }

    fn at(cycle: Cycles, event: Event) -> TimedEvent {
        TimedEvent { cycle, event }
    }

    #[test]
    #[should_panic(expected = "evicted before any map")]
    fn strict_summarize_rejects_evict_before_map() {
        let evs = [at(
            3,
            Event::PageEvicted {
                node: NodeId(0),
                page: VPage(1),
                cause: EvictCause::Daemon,
            },
        )];
        let _ = summarize(evs, 1);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn strict_summarize_rejects_double_eviction() {
        let evict = Event::PageEvicted {
            node: NodeId(0),
            page: VPage(1),
            cause: EvictCause::Daemon,
        };
        let evs = [
            at(
                1,
                Event::PageMapped {
                    node: NodeId(0),
                    page: VPage(1),
                    mode: MapMode::Scoma,
                },
            ),
            at(2, evict),
            at(3, evict),
        ];
        let _ = summarize(evs, 1);
    }

    #[test]
    #[should_panic(expected = "already holding a frame")]
    fn strict_summarize_rejects_double_frame_grant() {
        let evs = [
            at(
                1,
                Event::PageMapped {
                    node: NodeId(0),
                    page: VPage(1),
                    mode: MapMode::Scoma,
                },
            ),
            at(
                2,
                Event::PageUpgraded {
                    node: NodeId(0),
                    page: VPage(1),
                    threshold: 64,
                },
            ),
        ];
        let _ = summarize(evs, 1);
    }

    #[test]
    fn refault_cycle_is_legal() {
        // Pure S-COMA churn: map, evict, refault, evict again.
        let evict = Event::PageEvicted {
            node: NodeId(0),
            page: VPage(1),
            cause: EvictCause::Daemon,
        };
        let evs = [
            at(
                1,
                Event::PageMapped {
                    node: NodeId(0),
                    page: VPage(1),
                    mode: MapMode::Scoma,
                },
            ),
            at(2, evict),
            at(
                3,
                Event::PageMapped {
                    node: NodeId(0),
                    page: VPage(1),
                    mode: MapMode::ScomaRefault,
                },
            ),
            at(4, evict),
        ];
        let s = summarize(evs, 1);
        assert_eq!(s.maps, 2);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn lossy_summarize_collects_instead_of_panicking() {
        // A ring-truncated trace that opens mid-lifecycle.
        let evs = [at(
            9,
            Event::PageEvicted {
                node: NodeId(2),
                page: VPage(5),
                cause: EvictCause::Victim,
            },
        )];
        let (s, violations) = fold(evs, 4).finish_lossy();
        assert_eq!(s.evictions, 1);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].node, 2);
        assert_eq!(violations[0].page, 5);
        assert!(violations[0].to_string().contains("evicted before any map"));
    }

    #[test]
    fn grows_threshold_table_for_unknown_nodes() {
        let evs = [TimedEvent {
            cycle: 1,
            event: Event::ThresholdBackoff {
                node: NodeId(5),
                from: 64,
                to: 32,
                kind: BackoffKind::Drop,
                relocation_disabled: false,
            },
        }];
        let s = summarize(evs, 2);
        assert_eq!(s.thresholds.len(), 6);
        assert_eq!(s.drops, 1);
    }
}
