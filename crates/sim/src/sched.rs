//! The node scheduler: a flat argmin structure over per-node ready times.
//!
//! The machine is a set of node actors, each with its own clock.  Because
//! the modeled processors block on their single outstanding miss (the
//! paper's sequentially-consistent, one-outstanding-miss configuration),
//! each node's next operation can be resolved synchronously when the node is
//! popped, and global ordering only has to interleave *nodes*, not
//! individual in-flight transactions.  The scheduler pops the node with the
//! smallest clock, executes one operation, and pushes it back with its new
//! clock — giving a deterministic, globally time-ordered interleaving.
//!
//! Ties are broken by node id so runs are reproducible regardless of
//! internals.
//!
//! # Why not a heap
//!
//! The node count is small (≤ 64) and fixed, while pops number in the
//! billions, so the per-op constant dominates asymptotics.  The scheduler
//! keeps a dense `ready[node] -> time` vector (`Cycles::MAX` = not
//! queued) and scans it for the argmin on pop — a handful of
//! branch-predictable compares over one cache line, cheaper than a
//! `BinaryHeap`'s sift with tuple compares.
//!
//! Each pop scans at most once, and only after the winner is known:
//! the scheduler keeps `last` (the most recently popped node) and
//! `runner`, the exact minimum key over every queued node except `last`.
//! A pop takes `last` again if it was re-pushed below `runner` — the
//! common no-contention case, where one node streams through L1 hits
//! below every other clock, a single compare.  Otherwise `runner` *is*
//! the next winner: its node is popped in O(1), becomes `last`, and one
//! plain minimum over `ready` (the new winner's slot now idle) refreshes
//! `runner`.  A push of any node but `last` folds into `runner`, so it
//! stays exact through every interleaving of pushes and pops, including
//! a popped node that blocks and is never re-pushed.
//!
//! Entries are stored *packed*: `(time << 16) | id` in one `u64`, so the
//! lexicographic `(time, id)` order is plain integer order and the
//! refresh is a branch-free reduction in two interleaved chains
//! (conditional moves, nothing to mispredict when nodes run in
//! lock-step).  Times are cycle counts far below `2^48`
//! (debug-asserted), so packing is lossless.

use crate::{Cycles, NodeId};

/// Sentinel key marking a node as not queued.  Real keys are
/// `(time << 16) | id` with `time < 2^48`, so the sentinel cannot
/// collide (debug-asserted on push).
const IDLE: u64 = u64::MAX;

/// Pack `(time, id)` so integer order equals lexicographic order.
#[inline]
fn key(node: u16, time: Cycles) -> u64 {
    debug_assert!(time < 1 << 48, "clock overflows the packed key");
    (time << 16) | node as u64
}

/// Minimum of `ready` ([`IDLE`] if empty), as two interleaved compare
/// chains over alternate slots, so the serial dependency is half the
/// slot count.  Written with `if`-selects rather than `u64::min`: the
/// compiler vectorizes a plain `min` fold, and on the x86-64 baseline
/// (no 64-bit vector compare) that emulated reduction is slower than
/// this scalar one for the 4–16 slots of a figure cell.  Kept out of
/// line: inlined into the machine's run loop, the same scan made whole
/// cells slower (DESIGN.md §17).
#[inline(never)]
fn min_key(ready: &[u64]) -> u64 {
    let mut pairs = ready.chunks_exact(2);
    let (mut a, mut b) = (IDLE, IDLE);
    for p in &mut pairs {
        a = if p[0] < a { p[0] } else { a };
        b = if p[1] < b { p[1] } else { b };
    }
    let m = if b < a { b } else { a };
    pairs.remainder().iter().fold(m, |m, &k| m.min(k))
}

/// Flat min-scheduler over `(ready_time, node)`.
#[derive(Debug)]
pub struct Scheduler {
    /// Per-node packed `(time << 16) | id` key, [`IDLE`] when not queued.
    ready: Vec<u64>,
    /// Number of queued (non-IDLE) nodes.
    live: usize,
    /// The most recently popped node (node 0 before the first pop).
    last: u16,
    /// Minimum key over queued nodes *other than* `last`; [`IDLE`] when
    /// no other node is queued.  Exact at all times.
    runner: u64,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self {
            ready: Vec::new(),
            live: 0,
            last: 0,
            runner: IDLE,
        }
    }
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scheduler with `nodes` nodes all ready at time zero.
    pub fn with_nodes(nodes: usize) -> Self {
        let ready: Vec<u64> = (0..nodes).map(|i| key(i as u16, 0)).collect();
        Self {
            runner: ready.get(1).copied().unwrap_or(IDLE),
            ready,
            live: nodes,
            last: 0,
        }
    }

    /// Make `node` runnable at `time`.
    #[inline]
    pub fn push(&mut self, node: NodeId, time: Cycles) {
        let i = node.0 as usize;
        if i >= self.ready.len() {
            self.ready.resize(i + 1, IDLE);
        }
        debug_assert_eq!(self.ready[i], IDLE, "node {node} pushed while queued");
        let k = key(node.0, time);
        self.ready[i] = k;
        self.live += 1;
        // `runner` covers every queued node but `last`, whose own key
        // is compared against it in `pop`.
        if node.0 != self.last && k < self.runner {
            self.runner = k;
        }
    }

    /// Pop the earliest-ready node, ties broken by node id.
    #[inline]
    pub fn pop(&mut self) -> Option<(NodeId, Cycles)> {
        if self.live == 0 {
            return None;
        }
        self.live -= 1;
        let k = self.ready[self.last as usize];
        if k < self.runner {
            // `last` was re-pushed below every other queued node.
            self.ready[self.last as usize] = IDLE;
            return Some((NodeId(self.last), k >> 16));
        }
        // Otherwise the runner-up is the winner (a queued node exists,
        // so `runner` is not IDLE): pop it and rescan for the next one.
        let k = self.runner;
        debug_assert!(k != IDLE, "live count positive but no queued node");
        let id = (k & 0xFFFF) as u16;
        self.ready[id as usize] = IDLE;
        self.last = id;
        self.runner = min_key(&self.ready);
        Some((NodeId(id), k >> 16))
    }

    /// After popping `node`, report whether re-pushing it at `time` would
    /// make it the very next pop (the fast-path condition).  When true,
    /// the caller may keep executing the node without the push/pop
    /// round-trip: the node stays logically popped and `runner` — which
    /// tracks every *other* queued node — remains exact.  Pushes of
    /// other nodes between calls stay safe: each folds into `runner`, so
    /// a node waking below `time` flips this to false.
    #[inline]
    pub fn requeue_is_next(&self, node: NodeId, time: Cycles) -> bool {
        node.0 == self.last && key(node.0, time) < self.runner
    }

    /// Peek at the earliest-ready node without removing it.
    pub fn peek(&self) -> Option<(NodeId, Cycles)> {
        let own = self.ready.get(self.last as usize).copied().unwrap_or(IDLE);
        let best = own.min(self.runner);
        (best != IDLE).then_some((NodeId((best & 0xFFFF) as u16), best >> 16))
    }

    /// Number of runnable nodes currently queued.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no node is runnable (all blocked at a barrier or finished).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::new();
        s.push(NodeId(0), 30);
        s.push(NodeId(1), 10);
        s.push(NodeId(2), 20);
        assert_eq!(s.pop(), Some((NodeId(1), 10)));
        assert_eq!(s.pop(), Some((NodeId(2), 20)));
        assert_eq!(s.pop(), Some((NodeId(0), 30)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_broken_by_node_id() {
        let mut s = Scheduler::new();
        s.push(NodeId(5), 10);
        s.push(NodeId(2), 10);
        s.push(NodeId(7), 10);
        assert_eq!(s.pop(), Some((NodeId(2), 10)));
        assert_eq!(s.pop(), Some((NodeId(5), 10)));
        assert_eq!(s.pop(), Some((NodeId(7), 10)));
    }

    #[test]
    fn with_nodes_starts_all_at_zero() {
        let mut s = Scheduler::with_nodes(3);
        assert_eq!(s.len(), 3);
        for expect in 0..3u16 {
            assert_eq!(s.pop(), Some((NodeId(expect), 0)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut s = Scheduler::new();
        s.push(NodeId(1), 5);
        assert_eq!(s.peek(), Some((NodeId(1), 5)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reinsertion_interleaves() {
        let mut s = Scheduler::with_nodes(2);
        let (n, t) = s.pop().unwrap();
        assert_eq!((n, t), (NodeId(0), 0));
        s.push(n, 100);
        assert_eq!(s.pop(), Some((NodeId(1), 0)));
        s.push(NodeId(1), 50);
        assert_eq!(s.pop(), Some((NodeId(1), 50)));
        assert_eq!(s.pop(), Some((NodeId(0), 100)));
    }

    #[test]
    fn quiescence_loop_respects_a_waking_node() {
        // Node 0 runs alone (fast path), then a push of node 1 below its
        // next ready time must win the next pop.
        let mut s = Scheduler::new();
        s.push(NodeId(0), 0);
        s.push(NodeId(1), 1000);
        assert_eq!(s.pop(), Some((NodeId(0), 0)));
        s.push(NodeId(0), 10);
        assert_eq!(s.pop(), Some((NodeId(0), 10))); // fast path
        s.push(NodeId(0), 20);
        s.push(NodeId(2), 15); // wakes below node 0's ready time
        assert_eq!(s.pop(), Some((NodeId(2), 15)));
        assert_eq!(s.pop(), Some((NodeId(0), 20)));
        assert_eq!(s.pop(), Some((NodeId(1), 1000)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn fast_path_tie_goes_to_lower_id() {
        // Node 1 re-pushed at exactly the runner-up's (time, id) must
        // lose to the lower-id node 0.
        let mut s = Scheduler::new();
        s.push(NodeId(0), 50);
        s.push(NodeId(1), 10);
        assert_eq!(s.pop(), Some((NodeId(1), 10)));
        s.push(NodeId(1), 50); // ties node 0's time; node 0 wins by id
        assert_eq!(s.pop(), Some((NodeId(0), 50)));
        assert_eq!(s.pop(), Some((NodeId(1), 50)));
    }

    /// Reference implementation: the original `BinaryHeap` scheduler.
    #[derive(Default)]
    struct HeapSched {
        heap: std::collections::BinaryHeap<std::cmp::Reverse<(Cycles, u16)>>,
    }

    impl HeapSched {
        fn push(&mut self, node: NodeId, time: Cycles) {
            self.heap.push(std::cmp::Reverse((time, node.0)));
        }
        fn pop(&mut self) -> Option<(NodeId, Cycles)> {
            self.heap
                .pop()
                .map(|std::cmp::Reverse((t, n))| (NodeId(n), t))
        }
    }

    /// Property test (vendored `SimRng`): across randomized push/pop
    /// sequences — duplicate times, re-pushes after pops, interleaved
    /// wake-ups, popped nodes that block (not re-pushed until the queue
    /// drains, like a barrier) and pushes into a drained scheduler — the
    /// flat scheduler's pop order is identical to the old `BinaryHeap`
    /// semantics (min clock, ties by node id).
    #[test]
    fn pop_order_matches_binary_heap_reference() {
        use crate::rng::SimRng;
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from(0x5C4E_D000 ^ seed);
            let nodes = rng.range(1, 9) as usize;
            let mut flat = Scheduler::with_nodes(nodes);
            let mut heap = HeapSched::default();
            // Mirror of queue membership so re-pushes stay legal (a node
            // is pushed only while popped, as in the machine).
            let mut queued = vec![true; nodes];
            let mut clock = vec![0u64; nodes];
            for n in 0..nodes {
                heap.push(NodeId(n as u16), 0);
            }
            let mut popped: Vec<usize> = Vec::new();
            let mut blocked: Vec<usize> = Vec::new();
            let push = |flat: &mut Scheduler, heap: &mut HeapSched, n: usize, t: u64| {
                flat.push(NodeId(n as u16), t);
                heap.push(NodeId(n as u16), t);
            };
            for _ in 0..2000 {
                if flat.is_empty() && !blocked.is_empty() && (popped.is_empty() || rng.chance(0.5))
                {
                    // Barrier release: every blocked node is pushed into
                    // the drained scheduler, in random order.
                    while !blocked.is_empty() {
                        let n = blocked.swap_remove(rng.below(blocked.len() as u64) as usize);
                        clock[n] += rng.below(3);
                        push(&mut flat, &mut heap, n, clock[n]);
                        queued[n] = true;
                    }
                } else if !popped.is_empty() && rng.chance(0.6) {
                    // Re-push a previously popped node; duplicate times
                    // arise because advances are often zero.
                    let i = rng.below(popped.len() as u64) as usize;
                    let n = popped.swap_remove(i);
                    let advance = [0, 0, 1, 7][rng.below(4) as usize];
                    clock[n] += advance;
                    push(&mut flat, &mut heap, n, clock[n]);
                    queued[n] = true;
                } else {
                    let f = flat.pop();
                    let h = heap.pop();
                    assert_eq!(f, h, "divergence at seed {seed}");
                    assert_eq!(
                        flat.peek(),
                        heap.heap.peek().map(|r| (NodeId(r.0 .1), r.0 .0))
                    );
                    if let Some((n, t)) = f {
                        assert!(queued[n.idx()]);
                        queued[n.idx()] = false;
                        clock[n.idx()] = t;
                        if rng.chance(0.15) {
                            blocked.push(n.idx());
                        } else {
                            popped.push(n.idx());
                        }
                    }
                }
                assert_eq!(flat.len(), heap.heap.len());
            }
            // Drain: orders must agree to the end.
            loop {
                let f = flat.pop();
                let h = heap.pop();
                assert_eq!(f, h, "drain divergence at seed {seed}");
                if f.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn a_popped_node_that_blocks_is_never_popped_again() {
        // Node 1 wins, blocks (not re-pushed); the queue must serve the
        // rest in order and then report empty.
        let mut s = Scheduler::with_nodes(3);
        assert_eq!(s.pop(), Some((NodeId(0), 0)));
        s.push(NodeId(0), 5);
        assert_eq!(s.pop(), Some((NodeId(1), 0)));
        assert!(!s.requeue_is_next(NodeId(1), 10));
        assert_eq!(s.pop(), Some((NodeId(2), 0)));
        assert_eq!(s.pop(), Some((NodeId(0), 5)));
        assert_eq!(s.pop(), None);
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn push_into_a_drained_scheduler() {
        let mut s = Scheduler::with_nodes(4);
        for n in 0..4u16 {
            assert_eq!(s.pop(), Some((NodeId(n), 0)));
        }
        assert!(s.is_empty());
        // The last-popped node (3) and two others wake, out of id order.
        s.push(NodeId(2), 40);
        s.push(NodeId(3), 30);
        s.push(NodeId(0), 40);
        assert_eq!(s.peek(), Some((NodeId(3), 30)));
        assert_eq!(s.pop(), Some((NodeId(3), 30)));
        assert_eq!(s.pop(), Some((NodeId(0), 40)));
        assert_eq!(s.pop(), Some((NodeId(2), 40)));
        assert_eq!(s.pop(), None);
        // A lone node pushed into the drained queue is next.
        s.push(NodeId(1), 50);
        assert_eq!(s.pop(), Some((NodeId(1), 50)));
        assert!(s.requeue_is_next(NodeId(1), 60));
    }
}
