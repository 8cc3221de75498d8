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
/// This is the value type of an operation.  A [`Segment`] stores it in
/// a 3-byte word per operation ([`Ops`]), so a stored address must lie
/// below [`OP_WORD_LIMIT`] times its segment's [`Ops::granule`].
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

/// Exclusive upper bound of a stored word's address field: an op in a
/// segment of granule `g` must have `addr / g` below this, so the limit
/// is 4 MiB at granule 1 and 512 MiB at the largest granule.
pub const OP_WORD_LIMIT: u64 = 1 << 22;

/// log2 of the largest [`Ops::granule`] (128 B).
pub const MAX_GRANULE_SHIFT: u32 = 7;

/// A segment's operations in program order, one 3-byte little-endian
/// word each: bits 2..24 hold `addr >> shift`, bit 1 the private flag
/// and bit 0 the write flag.
///
/// `1 << shift` is the segment's *granule*: the largest power of two,
/// at most 2^[`MAX_GRANULE_SHIFT`], that divides every address pushed
/// so far.  A push that lowers it re-packs the earlier words in place,
/// so the words are lossless and canonical (equal op sequences store
/// equal bytes).  Once a word is stored the bytes start with one zero
/// pad byte, so every word can be read with one 4-byte load that ends
/// at its last byte.
///
/// Stored traces are most of a run's memory, and every generator's
/// fields fit 22 bits with room to spare, so a fourth byte per op would
/// only ever hold zeros.  [`Ops::push`] asserts the address fits; a
/// word is never truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ops {
    bytes: Vec<u8>,
    /// log2 of the granule.
    shift: u32,
    /// The address bits a push must find clear, `!((OP_WORD_LIMIT - 1)
    /// << shift)`: kept beside `shift` so the fast path is one test.
    reject: u64,
}

impl Default for Ops {
    fn default() -> Self {
        Self {
            bytes: Vec::new(),
            shift: MAX_GRANULE_SHIFT,
            reject: reject_mask(MAX_GRANULE_SHIFT),
        }
    }
}

/// The address bits that must be clear for an address to fit a word at
/// granule `1 << shift`: its low bits and everything above the field.
const fn reject_mask(shift: u32) -> u64 {
    !((OP_WORD_LIMIT - 1) << shift)
}

/// The op a stored `word` holds at granule `1 << shift`.
#[inline]
fn decode(word: u32, shift: u32) -> PackedOp {
    PackedOp(u64::from(word & !3) << shift | u64::from(word & 3))
}

/// Panic unless `addr` fits a word at granule `1 << shift`.
#[inline]
fn assert_fits(addr: u64, shift: u32) {
    #[cold]
    #[inline(never)]
    fn too_large(addr: u64, shift: u32) -> ! {
        panic!(
            "trace op address {addr:#x} does not fit a 24-bit op word at granule {} B \
             (limit {:#x})",
            1u64 << shift,
            OP_WORD_LIMIT << shift
        )
    }
    if addr >> shift >= OP_WORD_LIMIT {
        too_large(addr, shift)
    }
}

impl Ops {
    /// Append `op`.
    ///
    /// # Panics
    /// If `op`'s address, or an earlier address of this segment, does
    /// not fit [`OP_WORD_LIMIT`] at the granule that includes `op`.
    #[inline]
    pub fn push(&mut self, op: PackedOp) {
        let addr = op.addr();
        // One test covers both slow cases: `addr` is not a multiple of
        // the granule, or its field does not fit a word.
        if addr & self.reject != 0 {
            self.regranule(addr);
        }
        let word = ((addr >> self.shift) << 2) as u32 | (op.0 & 3) as u32;
        if self.bytes.is_empty() {
            self.bytes.push(0);
        }
        self.bytes.extend_from_slice(&word.to_le_bytes()[..3]);
    }

    /// The stored words, after the pad byte.
    #[inline]
    fn words(&self) -> &[u8] {
        self.bytes.get(1..).unwrap_or_default()
    }

    /// Lower the granule to the largest that also divides `addr`, and
    /// re-pack the stored words at it.
    ///
    /// # Panics
    /// If `addr` or a stored address does not fit a word at the new
    /// granule; every check runs before any word is rewritten.
    #[cold]
    #[inline(never)]
    fn regranule(&mut self, addr: u64) {
        let shift = addr.trailing_zeros().min(self.shift);
        assert_fits(addr, shift);
        let up = self.shift - shift;
        // A field grows by `up` bits, so every stored word still fits iff
        // the top `up` bits of its top byte are clear.
        let tops = self.words().chunks_exact(3).fold(0, |acc, w| acc | w[2]);
        if u32::from(tops) >> (8 - up) != 0 {
            assert_fits(self.iter().map(PackedOp::addr).max().unwrap_or(0), shift);
        }
        // Four words per u128: each 24-bit lane keeps its flags and
        // shifts its field, which cannot carry into the next lane.
        const FLAGS: u128 = 3 | 3 << 24 | 3 << 48 | 3 << 72;
        const FIELDS: u128 = ((1 << 96) - 1) ^ FLAGS;
        let repack = |q: &mut [u8]| {
            let mut buf = [0; 16];
            buf[..q.len()].copy_from_slice(q);
            let x = u128::from_le_bytes(buf);
            q.copy_from_slice(&((x & FIELDS) << up | x & FLAGS).to_le_bytes()[..q.len()]);
        };
        let mut quads = self
            .bytes
            .get_mut(1..)
            .unwrap_or_default()
            .chunks_exact_mut(12);
        for q in &mut quads {
            repack(q);
        }
        repack(quads.into_remainder());
        self.shift = shift;
        self.reject = reject_mask(shift);
    }

    /// The segment's granule in bytes: every stored address is a
    /// multiple of it.
    #[inline]
    pub fn granule(&self) -> u64 {
        1 << self.shift
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / 3
    }

    /// Whether there are no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The operations, in program order.
    #[inline]
    pub fn iter(&self) -> OpsIter<'_> {
        OpsIter {
            words: self.words().chunks_exact(3),
            shift: self.shift,
        }
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
pub struct OpsIter<'a> {
    words: std::slice::ChunksExact<'a, u8>,
    shift: u32,
}

impl Iterator for OpsIter<'_> {
    type Item = PackedOp;

    #[inline]
    fn next(&mut self) -> Option<PackedOp> {
        let w = self.words.next()?;
        Some(decode(
            u32::from_le_bytes([w[0], w[1], w[2], 0]),
            self.shift,
        ))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.words.size_hint()
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
    /// If the segment's addresses stop fitting its op words (see
    /// [`Ops::push`]).
    #[inline]
    pub fn push(&mut self, addr: u64, write: bool) {
        self.ops.push(PackedOp::new(addr, write, false));
    }

    /// Append a private-memory operation (`offset` within the node's
    /// private region).
    ///
    /// # Panics
    /// If the segment's addresses stop fitting its op words (see
    /// [`Ops::push`]).
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
        seg.ops.bytes.shrink_to_fit();
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
    /// The current segment's op bytes from the byte before its next word
    /// on (fewer than 4 once it is done).  Caching the slice keeps the
    /// per-op path to one bounds check instead of schedule → segment
    /// table → ops re-resolution.
    cur_ops: &'a [u8],
    /// Granule shift of the current segment.
    cur_shift: u32,
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
            cur_ops: &[],
            cur_shift: 0,
            cur_compute: 0,
        }
    }

    #[inline]
    fn access(bytes: [u8; 4], shift: u32, pre_compute: u32) -> Op {
        // The word is the top three bytes; the first is the pad byte or
        // the previous word's last byte.
        let op = decode(u32::from_le_bytes(bytes) >> 8, shift);
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
        // Fast path: still inside the current segment.  The pad byte
        // keeps the 4-byte load of the first word in bounds.
        if let Some(&w) = self.cur_ops.first_chunk::<4>() {
            self.cur_ops = &self.cur_ops[3..];
            return Some(Self::access(w, self.cur_shift, self.cur_compute));
        }
        loop {
            let item = self.program.schedule.get(self.sched_idx)?;
            self.sched_idx += 1;
            match *item {
                ScheduleItem::Run(seg_idx) => {
                    let seg = &self.program.segments[seg_idx as usize];
                    if let Some(&w) = seg.ops.bytes.first_chunk::<4>() {
                        self.cur_ops = &seg.ops.bytes[3..];
                        self.cur_shift = seg.ops.shift;
                        self.cur_compute = seg.compute_per_op;
                        return Some(Self::access(w, seg.ops.shift, seg.compute_per_op));
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
        // The top address at granules 1, 32 and 128.
        for (granule, top) in [
            (1, OP_WORD_LIMIT - 1),
            (32, (OP_WORD_LIMIT - 1) * 32),
            (128, (OP_WORD_LIMIT - 1) * 128),
        ] {
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
                        assert_eq!(stored.granule(), granule);
                        assert_eq!(stored.bytes.len(), 4, "one word and the pad byte");
                    }
                }
            }
        }
    }

    /// The stored bytes `ops` must hold: one pad byte, then every
    /// address at the largest granule (at most 128 B) that divides them
    /// all.
    fn expected_bytes(ops: &[PackedOp]) -> Vec<u8> {
        let shift = ops
            .iter()
            .map(|op| op.addr().trailing_zeros())
            .fold(MAX_GRANULE_SHIFT, u32::min);
        let words = ops.iter().flat_map(|op| {
            let word = (op.addr() >> shift) << 2 | (op.0 & 3);
            word.to_le_bytes().into_iter().take(3)
        });
        let pad = (!ops.is_empty()).then_some(0);
        pad.into_iter().chain(words).collect()
    }

    /// Random segments against a plain `Vec<u64>` model, stored and
    /// replayed: aligned pushes first, then finer ones that re-pack the
    /// earlier words, address 0, and private offsets mixed with shared
    /// addresses.
    #[test]
    fn ops_round_trip_against_a_u64_model() {
        let mut rng = ascoma_sim::rng::SimRng::seed_from(0x24b1);
        for case in 0..400 {
            // The finest granule this segment reaches bounds every address.
            let finest = rng.below(u64::from(MAX_GRANULE_SHIFT) + 1) as u32;
            let limit = OP_WORD_LIMIT << finest;
            let mut seg = Segment::new(0);
            let mut model: Vec<u64> = Vec::new();
            let n = rng.range(1, 200);
            for i in 0..n {
                // Coarse addresses first; finer ones only past the middle.
                let shift = if i < n / 2 {
                    MAX_GRANULE_SHIFT
                } else {
                    rng.range(u64::from(finest), u64::from(MAX_GRANULE_SHIFT) + 1) as u32
                };
                let addr = match rng.below(8) {
                    0 => 0,
                    1 => limit - (1 << shift),
                    _ => rng.below(limit >> shift) << shift,
                };
                let (write, private) = (rng.chance(0.5), rng.chance(0.3));
                if private {
                    seg.push_private(addr, write);
                } else {
                    seg.push(addr, write);
                }
                model.push(PackedOp::new(addr, write, private).0);
                assert_eq!(seg.ops.len(), model.len());
                let last = seg.ops.iter().last().unwrap();
                assert_eq!(last.0, *model.last().unwrap(), "case {case} push {i}");
            }
            let stored: Vec<u64> = seg.ops.iter().map(|op| op.0).collect();
            assert_eq!(stored, model, "case {case}");
            let model_ops: Vec<PackedOp> = model.iter().map(|&w| PackedOp(w)).collect();
            assert_eq!(seg.ops.bytes, expected_bytes(&model_ops), "case {case}");
            assert!(seg.ops.granule() >= 1 << finest, "case {case}");
            // The runner's 4-byte loads decode the same stream.
            let mut p = NodeProgram::default();
            let i = p.add_segment(seg);
            p.schedule = vec![ScheduleItem::Run(i)];
            let mut r = TraceRunner::new(&p);
            let replayed: Vec<u64> = std::iter::from_fn(|| r.next())
                .map(|op| match op {
                    Op::Access {
                        addr,
                        write,
                        private,
                        ..
                    } => PackedOp::new(addr.0, write, private).0,
                    other => panic!("case {case}: {other:?}"),
                })
                .collect();
            assert_eq!(replayed, model, "case {case}");
        }
    }

    #[test]
    fn address_zero_keeps_the_largest_granule() {
        let mut ops = Ops::default();
        ops.push(PackedOp::new(0, true, true));
        ops.push(PackedOp::new(0, false, false));
        assert_eq!(ops.granule(), 1 << MAX_GRANULE_SHIFT);
        assert_eq!(ops.bytes, [0, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "0x400000 does not fit a 24-bit op word at granule 1 B")]
    fn push_at_the_address_limit_panics() {
        let mut seg = Segment::new(0);
        seg.push(1, false);
        seg.push(OP_WORD_LIMIT - 1, false);
        seg.push(OP_WORD_LIMIT, false);
    }

    #[test]
    #[should_panic(expected = "0x8000000 does not fit a 24-bit op word at granule 32 B")]
    fn push_private_at_the_address_limit_panics() {
        let mut seg = Segment::new(0);
        seg.push_private(32, true);
        seg.push_private((OP_WORD_LIMIT - 1) * 32, true);
        seg.push_private(OP_WORD_LIMIT * 32, true);
    }

    /// A finer granule can push an earlier address out of range: the
    /// re-pack checks every stored word before it rewrites any.
    #[test]
    #[should_panic(expected = "0x400000 does not fit a 24-bit op word at granule 1 B")]
    fn regranule_past_an_earlier_address_panics() {
        let mut seg = Segment::new(0);
        seg.push(OP_WORD_LIMIT, false);
        seg.push(1, false);
    }

    /// Stored bytes of every segment of `t`, and its static op count.
    fn op_storage(t: &Trace) -> (usize, usize, usize) {
        let segs = || t.programs.iter().flat_map(|p| &p.segments);
        let static_ops = segs().map(|s| s.ops.len()).sum();
        let pads = segs().filter(|s| !s.ops.is_empty()).count();
        let bytes = segs().map(|s| s.ops.bytes.capacity()).sum();
        (static_ops, pads, bytes)
    }

    /// Memory guard: a stored op is one 3-byte word plus one pad byte
    /// per segment, with no slack capacity left behind by segment
    /// construction.
    #[test]
    fn em3d_default_op_storage_is_three_bytes_per_static_op() {
        let t = crate::App::Em3d.build(crate::SizeClass::Default, 4096);
        let (static_ops, pads, bytes) = op_storage(&t);
        assert_eq!(static_ops, 1_181_696);
        assert_eq!(bytes, 3 * static_ops + pads);
    }

    /// Memory guard on the `remote-thrash` benchmark's two traces, radix
    /// at Paper size and barnes at Default: 3 bytes per static op plus
    /// the pad bytes, pinned to the byte.
    #[test]
    fn radix_paper_and_barnes_default_op_storage() {
        let radix = crate::App::Radix.build(crate::SizeClass::Paper, 4096);
        let barnes = crate::App::Barnes.build(crate::SizeClass::Default, 4096);
        let mut got = Vec::new();
        for t in [&radix, &barnes] {
            let (static_ops, pads, bytes) = op_storage(t);
            assert_eq!(bytes, 3 * static_ops + pads, "{}", t.name);
            got.push((static_ops, bytes));
        }
        // 10.6 MiB together, where 4-byte words took 14.2 MiB.
        assert_eq!(got, [(3_407_872, 10_223_656), (313_344, 940_112)]);
    }

    /// The runner decodes exactly what was stored: its access stream is
    /// every segment's [`Ops::iter`] in schedule order.
    #[test]
    fn runner_repacks_into_the_stored_words_for_every_app() {
        for app in crate::App::ALL {
            let t = app.build(crate::SizeClass::Tiny, 4096);
            for p in &t.programs {
                let stored: Vec<u64> = p
                    .schedule
                    .iter()
                    .filter_map(|item| match *item {
                        ScheduleItem::Run(i) => Some(&p.segments[i as usize].ops),
                        _ => None,
                    })
                    .flatten()
                    .map(|op| op.0)
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
                        replayed.push(PackedOp::new(addr.0, write, private).0);
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
