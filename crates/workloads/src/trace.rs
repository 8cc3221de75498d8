//! The trace representation: per-node programs of memory operations.
//!
//! The paper drives its simulator with real SPLASH-2 binaries through an
//! execution-driven PA-RISC interpreter.  We substitute *synthetic
//! reference generators* that reproduce each application's page-level
//! sharing and locality structure (see DESIGN.md §2); each generator
//! produces a [`Trace`]: one [`NodeProgram`] per node, built from reusable
//! [`Segment`]s of packed memory operations sequenced by a [`ScheduleItem`]
//! list with barriers.
//!
//! Segments are *reused* across iterations (a program loop body is one
//! segment scheduled many times), which keeps memory proportional to the
//! static access pattern, not the dynamic instruction count — the same
//! economy a real program's loop structure provides.

use ascoma_sim::addr::VAddr;
use ascoma_sim::NodeId;

/// One memory operation, packed into a `u64`:
/// bits 2.. = byte address, bit 1 = private, bit 0 = write.
///
/// This is the value type of an operation.  A [`Segment`] stores the
/// same layout in one 32-bit word per operation ([`Ops`]), so a stored
/// address must lie below [`OP_ADDR_LIMIT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp(pub u64);

impl PackedOp {
    /// Pack an operation.
    #[inline]
    pub fn new(addr: u64, write: bool, private: bool) -> Self {
        debug_assert!(addr < (1 << 62));
        PackedOp(addr << 2 | (private as u64) << 1 | write as u64)
    }

    /// Byte address.
    #[inline]
    pub fn addr(self) -> u64 {
        self.0 >> 2
    }

    /// Whether the operation is a store.
    #[inline]
    pub fn write(self) -> bool {
        self.0 & 1 != 0
    }

    /// Whether the operation targets node-private memory.
    #[inline]
    pub fn private(self) -> bool {
        self.0 & 2 != 0
    }
}

/// Exclusive upper bound of a stored operation's byte address: the 30
/// bits a 32-bit op word leaves above the private and write flags.
pub const OP_ADDR_LIMIT: u64 = 1 << 30;

/// A segment's operations in program order, one 32-bit word each in
/// [`PackedOp`]'s layout (`addr << 2 | private << 1 | write`).
///
/// Stored traces are most of a run's memory, and no generator emits an
/// address at or above 2^24, so the upper half of a `u64` op would only
/// ever hold zeros.  [`Ops::push`] asserts the address fits; a word is
/// never truncated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ops(Vec<u32>);

impl Ops {
    /// Append `op`.
    ///
    /// # Panics
    /// If `op`'s address is not below [`OP_ADDR_LIMIT`].
    #[inline]
    pub fn push(&mut self, op: PackedOp) {
        assert!(
            op.addr() < OP_ADDR_LIMIT,
            "trace op address {:#x} does not fit a 32-bit op word (limit 2^30)",
            op.addr()
        );
        self.0.push(op.0 as u32);
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The operations, in program order.
    #[inline]
    pub fn iter(&self) -> OpsIter<'_> {
        OpsIter(self.0.iter())
    }
}

impl<'a> IntoIterator for &'a Ops {
    type Item = PackedOp;
    type IntoIter = OpsIter<'a>;

    fn into_iter(self) -> OpsIter<'a> {
        self.iter()
    }
}

/// Iterator over an [`Ops`], decoding each word into a [`PackedOp`].
#[derive(Debug, Clone)]
pub struct OpsIter<'a>(std::slice::Iter<'a, u32>);

impl Iterator for OpsIter<'_> {
    type Item = PackedOp;

    #[inline]
    fn next(&mut self) -> Option<PackedOp> {
        self.0.next().map(|&w| PackedOp(w.into()))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// A reusable run of operations with uniform interleaved compute.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// User-instruction cycles executed before each operation.
    pub compute_per_op: u32,
    /// The operations, in program order.
    pub ops: Ops,
}

impl Segment {
    /// A segment with `compute_per_op` cycles of work per operation.
    pub fn new(compute_per_op: u32) -> Self {
        Self {
            compute_per_op,
            ops: Ops::default(),
        }
    }

    /// Append a shared-memory operation.
    ///
    /// # Panics
    /// If `addr` is not below [`OP_ADDR_LIMIT`].
    #[inline]
    pub fn push(&mut self, addr: u64, write: bool) {
        self.ops.push(PackedOp::new(addr, write, false));
    }

    /// Append a private-memory operation (`offset` within the node's
    /// private region).
    ///
    /// # Panics
    /// If `offset` is not below [`OP_ADDR_LIMIT`].
    #[inline]
    pub fn push_private(&mut self, offset: u64, write: bool) {
        self.ops.push(PackedOp::new(offset, write, true));
    }
}

/// One step of a node's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleItem {
    /// Execute segment `.0` of the node's segment table.
    Run(u32),
    /// Pure computation of `.0` cycles (no memory operations).
    Compute(u64),
    /// Global barrier: wait for all nodes.
    Barrier,
    /// Acquire mutual-exclusion lock `.0` (blocks while held elsewhere).
    Lock(u32),
    /// Release lock `.0` (must be held by this node).
    Unlock(u32),
}

/// The complete program of one node.
#[derive(Debug, Clone, Default)]
pub struct NodeProgram {
    /// Segment table.
    pub segments: Vec<Segment>,
    /// Execution order over the segment table.
    pub schedule: Vec<ScheduleItem>,
}

impl NodeProgram {
    /// Add a segment, returning its index for scheduling.  The segment
    /// is complete, so its op storage is trimmed to its length.
    pub fn add_segment(&mut self, mut seg: Segment) -> u32 {
        seg.ops.0.shrink_to_fit();
        self.segments.push(seg);
        (self.segments.len() - 1) as u32
    }

    /// Number of barriers in the schedule.
    pub fn barrier_count(&self) -> usize {
        self.schedule
            .iter()
            .filter(|s| matches!(s, ScheduleItem::Barrier))
            .count()
    }

    /// Total dynamic operation count of the schedule.
    pub fn dynamic_ops(&self) -> u64 {
        self.schedule
            .iter()
            .map(|s| match s {
                ScheduleItem::Run(i) => self.segments[*i as usize].ops.len() as u64,
                _ => 0,
            })
            .sum()
    }
}

/// A complete synthetic workload.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Workload name (paper benchmark it models).
    pub name: String,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Shared pages in the global address space.
    pub shared_pages: u64,
    /// First toucher of every shared page (input to home allocation).
    pub first_toucher: Vec<NodeId>,
    /// One program per node.
    pub programs: Vec<NodeProgram>,
}

/// A structural defect in a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// `programs.len() != nodes`.
    ProgramCount {
        /// Declared node count.
        nodes: usize,
        /// Programs supplied.
        programs: usize,
    },
    /// `first_toucher` does not cover every page.
    ToucherCoverage {
        /// Declared shared pages.
        pages: u64,
        /// Touchers supplied.
        touchers: usize,
    },
    /// A first toucher names a node outside `0..nodes`.
    ToucherOutOfRange {
        /// Page with the bad toucher.
        page: u64,
    },
    /// Two nodes disagree on barrier count (deadlock at run time).
    BarrierMismatch {
        /// Offending node.
        node: usize,
        /// Its barrier count.
        got: usize,
        /// Node 0's barrier count.
        expected: usize,
    },
    /// A schedule references a segment index that does not exist.
    BadSegmentIndex {
        /// Offending node.
        node: usize,
        /// The out-of-range index.
        index: u32,
    },
    /// A shared address lies outside the declared page space.
    AddressOutOfSpace {
        /// Offending node.
        node: usize,
        /// The address.
        addr: u64,
    },
    /// A lock is acquired twice, released unheld, or never released.
    LockMisuse {
        /// Offending node.
        node: usize,
        /// The lock id.
        lock: u32,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::ProgramCount { nodes, programs } => {
                write!(f, "{programs} programs for {nodes} nodes")
            }
            TraceError::ToucherCoverage { pages, touchers } => {
                write!(f, "{touchers} first-touchers for {pages} pages")
            }
            TraceError::ToucherOutOfRange { page } => {
                write!(f, "page {page}: first toucher out of range")
            }
            TraceError::BarrierMismatch {
                node,
                got,
                expected,
            } => {
                write!(f, "node {node}: {got} barriers, node 0 has {expected}")
            }
            TraceError::BadSegmentIndex { node, index } => {
                write!(f, "node {node}: schedule references segment {index}")
            }
            TraceError::AddressOutOfSpace { node, addr } => {
                write!(f, "node {node}: shared address {addr:#x} out of space")
            }
            TraceError::LockMisuse { node, lock } => {
                write!(
                    f,
                    "node {node}: lock {lock} misused (double acquire, unheld release, or leak)"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Validate structural invariants, returning the first defect found.
    pub fn try_validate(&self, page_bytes: u64) -> Result<(), TraceError> {
        if self.programs.len() != self.nodes {
            return Err(TraceError::ProgramCount {
                nodes: self.nodes,
                programs: self.programs.len(),
            });
        }
        if self.first_toucher.len() != self.shared_pages as usize {
            return Err(TraceError::ToucherCoverage {
                pages: self.shared_pages,
                touchers: self.first_toucher.len(),
            });
        }
        for (pg, t) in self.first_toucher.iter().enumerate() {
            if t.idx() >= self.nodes {
                return Err(TraceError::ToucherOutOfRange { page: pg as u64 });
            }
        }
        let barriers = self.programs[0].barrier_count();
        let limit = self.shared_pages * page_bytes;
        for (n, p) in self.programs.iter().enumerate() {
            if p.barrier_count() != barriers {
                return Err(TraceError::BarrierMismatch {
                    node: n,
                    got: p.barrier_count(),
                    expected: barriers,
                });
            }
            for item in &p.schedule {
                if let ScheduleItem::Run(i) = item {
                    if *i as usize >= p.segments.len() {
                        return Err(TraceError::BadSegmentIndex { node: n, index: *i });
                    }
                }
            }
            for seg in &p.segments {
                for op in &seg.ops {
                    if !op.private() && op.addr() >= limit {
                        return Err(TraceError::AddressOutOfSpace {
                            node: n,
                            addr: op.addr(),
                        });
                    }
                }
            }
            let mut held: std::collections::BTreeSet<u32> = Default::default();
            for item in &p.schedule {
                let misuse = match item {
                    ScheduleItem::Lock(l) => (!held.insert(*l)).then_some(*l),
                    ScheduleItem::Unlock(l) => (!held.remove(l)).then_some(*l),
                    _ => None,
                };
                if let Some(lock) = misuse {
                    return Err(TraceError::LockMisuse { node: n, lock });
                }
            }
            if let Some(&l) = held.iter().next() {
                return Err(TraceError::LockMisuse { node: n, lock: l });
            }
        }
        Ok(())
    }

    /// Validate structural invariants (see [`Trace::try_validate`]),
    /// panicking with the defect description on violation — the
    /// convenient form for generators and tests.
    pub fn validate(&self, page_bytes: u64) {
        if let Err(e) = self.try_validate(page_bytes) {
            panic!("invalid trace '{}': {e}", self.name);
        }
    }

    /// Total dynamic operations across all nodes.
    pub fn total_ops(&self) -> u64 {
        self.programs.iter().map(NodeProgram::dynamic_ops).sum()
    }
}

/// The operation stream of one node, produced by replaying its program.
///
/// This is the interface the machine consumes: a pull-based iterator of
/// [`Op`]s.
#[derive(Debug, Clone)]
pub struct TraceRunner<'a> {
    program: &'a NodeProgram,
    sched_idx: usize,
    op_idx: usize,
    /// Ops of the segment currently being replayed (empty between
    /// segments).  Caching the slice keeps the per-op path to one bounds
    /// check instead of schedule → segment table → ops re-resolution.
    cur_ops: &'a [u32],
    /// `compute_per_op` of the current segment.
    cur_compute: u32,
}

/// An operation delivered to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A memory access, preceded by `pre_compute` cycles of user work.
    Access {
        /// Shared-space byte address (or private-region offset).
        addr: VAddr,
        /// Store?
        write: bool,
        /// Private (node-local, non-shared) memory?
        private: bool,
        /// User-instruction cycles executed before the access.
        pre_compute: u32,
    },
    /// Pure computation.
    Compute(u64),
    /// Global barrier.
    Barrier,
    /// Acquire lock `.0`.
    Lock(u32),
    /// Release lock `.0`.
    Unlock(u32),
}

impl<'a> TraceRunner<'a> {
    /// Start replaying `program` from the beginning.
    pub fn new(program: &'a NodeProgram) -> Self {
        Self {
            program,
            sched_idx: 0,
            op_idx: 0,
            cur_ops: &[],
            cur_compute: 0,
        }
    }

    #[inline]
    fn access(word: u32, pre_compute: u32) -> Op {
        let op = PackedOp(word.into());
        Op::Access {
            addr: VAddr(op.addr()),
            write: op.write(),
            private: op.private(),
            pre_compute,
        }
    }

    /// The next operation, or `None` when the program is complete.
    #[allow(clippy::should_implement_trait)] // borrowed iterator; keep inherent
    #[inline]
    pub fn next(&mut self) -> Option<Op> {
        // Fast path: still inside the current segment.
        if let Some(&op) = self.cur_ops.get(self.op_idx) {
            self.op_idx += 1;
            return Some(Self::access(op, self.cur_compute));
        }
        self.cur_ops = &[];
        loop {
            let item = self.program.schedule.get(self.sched_idx)?;
            self.sched_idx += 1;
            match *item {
                ScheduleItem::Run(seg_idx) => {
                    let seg = &self.program.segments[seg_idx as usize];
                    if let Some(&op) = seg.ops.0.first() {
                        self.cur_ops = &seg.ops.0;
                        self.cur_compute = seg.compute_per_op;
                        self.op_idx = 1;
                        return Some(Self::access(op, seg.compute_per_op));
                    }
                }
                ScheduleItem::Compute(c) => return Some(Op::Compute(c)),
                ScheduleItem::Barrier => return Some(Op::Barrier),
                ScheduleItem::Lock(l) => return Some(Op::Lock(l)),
                ScheduleItem::Unlock(l) => return Some(Op::Unlock(l)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_op_roundtrip() {
        let op = PackedOp::new(0xDEAD_BEE0, true, false);
        assert_eq!(op.addr(), 0xDEAD_BEE0);
        assert!(op.write());
        assert!(!op.private());
        let op2 = PackedOp::new(12345, false, true);
        assert!(!op2.write());
        assert!(op2.private());
        assert_eq!(op2.addr(), 12345);
    }

    #[test]
    fn op_word_roundtrips_at_the_address_limit() {
        let top = OP_ADDR_LIMIT - 1;
        for write in [false, true] {
            for private in [false, true] {
                let mut ops = Ops::default();
                ops.push(PackedOp::new(top, write, private));
                let mut seg = Segment::new(0);
                if private {
                    seg.push_private(top, write);
                } else {
                    seg.push(top, write);
                }
                for stored in [&ops, &seg.ops] {
                    let op = stored.iter().next().unwrap();
                    assert_eq!(op, PackedOp::new(top, write, private));
                    assert_eq!((op.addr(), op.write(), op.private()), (top, write, private));
                    assert_eq!(u64::from(stored.0[0]), op.0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "0x40000000 does not fit")]
    fn push_at_the_address_limit_panics() {
        Segment::new(0).push(OP_ADDR_LIMIT, false);
    }

    #[test]
    #[should_panic(expected = "0x40000000 does not fit")]
    fn push_private_at_the_address_limit_panics() {
        Segment::new(0).push_private(OP_ADDR_LIMIT, true);
    }

    /// Memory guard: a stored op is one 4-byte word, with no slack
    /// capacity left behind by segment construction.
    #[test]
    fn em3d_default_op_storage_is_four_bytes_per_static_op() {
        let t = crate::App::Em3d.build(crate::SizeClass::Default, 4096);
        let segs = || t.programs.iter().flat_map(|p| &p.segments);
        let static_ops: usize = segs().map(|s| s.ops.len()).sum();
        let bytes: usize = segs().map(|s| s.ops.0.capacity() * 4).sum();
        assert_eq!(static_ops, 1_181_696);
        assert_eq!(bytes, 4 * static_ops);
    }

    /// The runner decodes exactly what was stored: re-packing its access
    /// stream reproduces every segment's words in schedule order.
    #[test]
    fn runner_repacks_into_the_stored_words_for_every_app() {
        for app in crate::App::ALL {
            let t = app.build(crate::SizeClass::Tiny, 4096);
            for p in &t.programs {
                let stored: Vec<u32> = p
                    .schedule
                    .iter()
                    .filter_map(|item| match *item {
                        ScheduleItem::Run(i) => Some(&p.segments[i as usize].ops.0),
                        _ => None,
                    })
                    .flatten()
                    .copied()
                    .collect();
                let mut replayed = Vec::with_capacity(stored.len());
                let mut r = TraceRunner::new(p);
                while let Some(op) = r.next() {
                    if let Op::Access {
                        addr,
                        write,
                        private,
                        ..
                    } = op
                    {
                        replayed.push(PackedOp::new(addr.0, write, private).0 as u32);
                    }
                }
                assert!(!stored.is_empty(), "{}", app.name());
                assert!(replayed == stored, "{}: replay differs", app.name());
            }
        }
    }

    fn tiny_program() -> NodeProgram {
        let mut p = NodeProgram::default();
        let mut s = Segment::new(10);
        s.push(0, false);
        s.push(32, true);
        let i = p.add_segment(s);
        p.schedule = vec![
            ScheduleItem::Run(i),
            ScheduleItem::Barrier,
            ScheduleItem::Run(i),
            ScheduleItem::Compute(500),
        ];
        p
    }

    #[test]
    fn runner_replays_schedule_in_order() {
        let p = tiny_program();
        let mut r = TraceRunner::new(&p);
        let mut got = Vec::new();
        while let Some(op) = r.next() {
            got.push(op);
        }
        assert_eq!(got.len(), 6); // 2 ops + barrier + 2 ops + compute
        assert!(matches!(got[0], Op::Access { write: false, .. }));
        assert!(matches!(got[1], Op::Access { write: true, .. }));
        assert_eq!(got[2], Op::Barrier);
        assert_eq!(got[5], Op::Compute(500));
    }

    #[test]
    fn runner_reuses_segments() {
        let p = tiny_program();
        assert_eq!(p.dynamic_ops(), 4);
        assert_eq!(p.barrier_count(), 1);
    }

    #[test]
    fn empty_program_yields_nothing() {
        let p = NodeProgram::default();
        let mut r = TraceRunner::new(&p);
        assert_eq!(r.next(), None);
        assert_eq!(r.next(), None);
    }

    #[test]
    fn trace_validate_accepts_consistent_trace() {
        let t = Trace {
            name: "t".into(),
            nodes: 2,
            shared_pages: 1,
            first_toucher: vec![NodeId(0)],
            programs: vec![tiny_program(), tiny_program()],
        };
        t.validate(4096);
    }

    #[test]
    #[should_panic(expected = "barriers")]
    fn trace_validate_rejects_mismatched_barriers() {
        let mut p2 = tiny_program();
        p2.schedule.push(ScheduleItem::Barrier);
        let t = Trace {
            name: "t".into(),
            nodes: 2,
            shared_pages: 1,
            first_toucher: vec![NodeId(0)],
            programs: vec![tiny_program(), p2],
        };
        t.validate(4096);
    }

    #[test]
    #[should_panic(expected = "out of space")]
    fn trace_validate_rejects_out_of_space_address() {
        let mut p = NodeProgram::default();
        let mut s = Segment::new(0);
        s.push(4096, false); // page 1, but only 1 page declared
        let i = p.add_segment(s);
        p.schedule = vec![ScheduleItem::Run(i)];
        let t = Trace {
            name: "t".into(),
            nodes: 1,
            shared_pages: 1,
            first_toucher: vec![NodeId(0)],
            programs: vec![p],
        };
        t.validate(4096);
    }

    #[test]
    fn try_validate_reports_each_defect_kind() {
        use super::TraceError;
        let good = Trace {
            name: "t".into(),
            nodes: 1,
            shared_pages: 1,
            first_toucher: vec![NodeId(0)],
            programs: vec![NodeProgram::default()],
        };
        assert_eq!(good.try_validate(4096), Ok(()));

        let mut t = good.clone();
        t.programs.clear();
        assert!(matches!(
            t.try_validate(4096),
            Err(TraceError::ProgramCount { .. })
        ));

        let mut t = good.clone();
        t.first_toucher.clear();
        assert!(matches!(
            t.try_validate(4096),
            Err(TraceError::ToucherCoverage { .. })
        ));

        let mut t = good.clone();
        t.first_toucher = vec![NodeId(9)];
        assert!(matches!(
            t.try_validate(4096),
            Err(TraceError::ToucherOutOfRange { page: 0 })
        ));

        let mut t = good.clone();
        t.programs[0].schedule.push(ScheduleItem::Run(5));
        assert!(matches!(
            t.try_validate(4096),
            Err(TraceError::BadSegmentIndex { node: 0, index: 5 })
        ));

        let mut t = good.clone();
        let mut seg = Segment::new(0);
        seg.push(4096, false);
        let i = t.programs[0].add_segment(seg);
        t.programs[0].schedule.push(ScheduleItem::Run(i));
        assert!(matches!(
            t.try_validate(4096),
            Err(TraceError::AddressOutOfSpace {
                node: 0,
                addr: 4096
            })
        ));

        let mut t = good.clone();
        t.programs[0].schedule.push(ScheduleItem::Lock(2));
        t.programs[0].schedule.push(ScheduleItem::Lock(2));
        assert!(matches!(
            t.try_validate(4096),
            Err(TraceError::LockMisuse { node: 0, lock: 2 })
        ));
    }

    #[test]
    fn trace_errors_display_usefully() {
        use super::TraceError;
        let msgs = [
            TraceError::ProgramCount {
                nodes: 2,
                programs: 1,
            }
            .to_string(),
            TraceError::BarrierMismatch {
                node: 1,
                got: 2,
                expected: 3,
            }
            .to_string(),
            TraceError::LockMisuse { node: 0, lock: 7 }.to_string(),
        ];
        assert!(msgs[0].contains("programs"));
        assert!(msgs[1].contains("barriers"));
        assert!(msgs[2].contains("lock 7"));
    }

    #[test]
    fn compute_only_schedule() {
        let p = NodeProgram {
            schedule: vec![ScheduleItem::Compute(1), ScheduleItem::Compute(2)],
            ..Default::default()
        };
        let mut r = TraceRunner::new(&p);
        assert_eq!(r.next(), Some(Op::Compute(1)));
        assert_eq!(r.next(), Some(Op::Compute(2)));
        assert_eq!(r.next(), None);
    }
}
