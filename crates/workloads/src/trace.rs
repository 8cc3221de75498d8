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
/// This is the value type of an operation.  A [`Segment`] stores it as
/// a 1–4-byte delta code ([`Ops`]), so a stored address must lie below
/// [`OP_WORD_LIMIT`] times its segment's [`Ops::granule`].
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

/// Exclusive upper bound of a stored address in granules: an op in a
/// segment of granule `g` must have `addr / g` below this, so the limit
/// is 128 MiB at granule 1 and 16 GiB at the largest granule.  Two
/// fields below it differ by less than 2^27, so a zigzag delta fits the
/// 28 payload bits of the longest code.
pub const OP_WORD_LIMIT: u64 = 1 << 27;

/// log2 of the largest [`Ops::granule`] (128 B).
pub const MAX_GRANULE_SHIFT: u32 = 7;

/// Zero bytes after the last code, so that every code can be read with
/// one 4-byte load that starts at its first byte.
const TAIL: usize = 3;

/// A segment's operations in program order, each stored as a delta code
/// of 1–4 bytes.
///
/// `1 << shift` is the segment's *granule*: the largest power of two,
/// at most 2^[`MAX_GRANULE_SHIFT`], that divides every address pushed
/// so far, and `addr >> shift` is an op's *field*.  Each op stores the
/// zigzag difference between its field and the field of the previous
/// op of the same class (write, private) in the segment; the four
/// predictors start at 0, so a segment decodes on its own.  The code is
/// a little-endian prefix varint: its first byte holds the length minus
/// one in bits 0–1, the write flag in bit 2, the private flag in bit 3
/// and the low 4 bits of the zigzag delta, and each further byte 8 more
/// bits (4/12/20/28 payload bits).  Three zero bytes follow the last
/// code.
///
/// A push that lowers the granule re-encodes the segment, so the codes
/// are lossless and canonical: equal op sequences store equal bytes.
/// Stored traces are most of a run's memory, and the generators' streams
/// step through memory in small strides, so most ops take one byte.
/// [`Ops::push`] asserts the address fits; a code is never truncated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ops {
    bytes: Vec<u8>,
    /// Number of operations.
    len: usize,
    /// log2 of the granule.
    shift: u32,
    /// Bit width of the largest field stored so far.
    bits: u32,
    /// The address bits a push must find clear, `!((2^bits - 1) <<
    /// shift)`: kept beside `shift` so the fast path is one test.
    reject: u64,
    /// The last field pushed per class (`PackedOp`'s low two bits).
    pred: [u32; 4],
}

impl Default for Ops {
    fn default() -> Self {
        Self::at_shift(MAX_GRANULE_SHIFT)
    }
}

/// Panic unless `addr` fits a code at granule `1 << shift`.
#[inline]
fn assert_fits(addr: u64, shift: u32) {
    #[cold]
    #[inline(never)]
    fn too_large(addr: u64, shift: u32) -> ! {
        panic!(
            "trace op address {addr:#x} does not fit the 27-bit op field at granule {} B \
             (limit {:#x})",
            1u64 << shift,
            OP_WORD_LIMIT << shift
        )
    }
    if addr >> shift >= OP_WORD_LIMIT {
        too_large(addr, shift)
    }
}

/// The code at the front of `bytes`, which must reach at least 4 bytes
/// (the zero tail pads the last codes): its length in bytes, its class
/// and its zigzag value.
#[inline]
fn front(bytes: &[u8]) -> Option<(usize, usize, u32)> {
    /// The bytes of a code of each length.
    const MASK: [u32; 4] = [0xff, 0xffff, 0xff_ffff, !0];
    let w = u32::from_le_bytes(*bytes.first_chunk::<4>()?);
    let extra = (w & 3) as usize;
    Some((extra + 1, (w >> 2 & 3) as usize, (w & MASK[extra]) >> 4))
}

impl Ops {
    fn at_shift(shift: u32) -> Self {
        Self {
            bytes: Vec::new(),
            len: 0,
            shift,
            bits: 0,
            reject: !0,
            pred: [0; 4],
        }
    }

    /// Append `op`.
    ///
    /// # Panics
    /// If `op`'s address, or an earlier address of this segment, does
    /// not fit [`OP_WORD_LIMIT`] at the granule that includes `op`.
    #[inline]
    pub fn push(&mut self, op: PackedOp) {
        let addr = op.addr();
        // One test covers both slow cases: `addr` is not a multiple of
        // the granule, or its field is wider than every stored field.
        if addr & self.reject != 0 {
            self.admit(addr);
        }
        let field = (addr >> self.shift) as u32;
        let class = (op.0 & 3) as usize;
        let delta = field.wrapping_sub(self.pred[class]) as i32;
        self.pred[class] = field;
        self.put(((delta << 1) ^ (delta >> 31)) as u32, class as u32);
    }

    /// Append the code of a zigzag value below 2^28 in `class`.
    #[inline]
    fn put(&mut self, zigzag: u32, class: u32) {
        let body = zigzag << 4 | class << 2;
        // Length minus one, from the highest set bit: no branch.
        let extra = (body | 0xf).ilog2() / 8;
        // Overwrite the zero tail with the code and its zero high bytes,
        // then cut the high bytes the code does not use.
        let at = self.bytes.len().saturating_sub(TAIL);
        self.bytes.truncate(at);
        self.bytes
            .extend_from_slice(&u64::from(body | extra).to_le_bytes()[..4 + TAIL]);
        let end = self.bytes.len() - (3 - extra as usize);
        self.bytes.truncate(end);
        self.len += 1;
    }

    /// The slow path of a push: `addr` is not a multiple of the granule,
    /// or its field is wider than every stored field.  Lower the granule
    /// to the largest that also divides `addr`, re-encoding the stored
    /// codes at it, and widen `bits` to cover `addr`.  A field widens at
    /// most 27 times and the granule drops at most 7 times per segment.
    ///
    /// # Panics
    /// If `addr` or a stored address does not fit at the new granule;
    /// every check runs before the codes are replaced.
    #[cold]
    #[inline(never)]
    fn admit(&mut self, addr: u64) {
        let shift = addr.trailing_zeros().min(self.shift);
        assert_fits(addr, shift);
        let up = self.shift - shift;
        if up > 0 {
            // `bits` is the exact width of the largest stored field, so
            // the fields scaled by 2^up all fit iff `bits + up` <= 27.
            // Only when one does not is the segment decoded, to name the
            // largest address in the panic.
            if self.bits > 0 && self.bits + up > OP_WORD_LIMIT.trailing_zeros() {
                assert_fits(self.iter().map(PackedOp::addr).max().unwrap_or(0), shift);
            }
            self.rescale(up);
        }
        self.bits = self.bits.max(u64::BITS - (addr >> shift).leading_zeros());
        self.reject = !(((1 << self.bits) - 1) << shift);
    }

    /// Re-encode the codes at a granule `2^up` times finer.  Every field,
    /// predictor and delta scales by `2^up`, so a code's zigzag value `z`
    /// becomes `((z + (z & 1)) << up) - (z & 1)`, with no predictor decoded.
    fn rescale(&mut self, up: u32) {
        let end = self.bytes.len().saturating_sub(TAIL);
        let mut out = Self::at_shift(self.shift - up);
        out.bytes.reserve(self.bytes.capacity());
        let mut at = 0;
        while at < end {
            // Eight 1-byte codes with `z` below 8 stay 1-byte codes when
            // the granule halves: `z` becomes `2z + (z & 1)`, a per-byte
            // shift that cannot carry into the next code.  Barnes drops
            // its granule from 128 to 64 B after long runs of them.
            if let Some(&eight) = self.bytes[at..end].first_chunk::<8>() {
                /// Per byte: the length bits and the top bit of `z`.
                const LONG_OR_WIDE: u64 = u64::from_le_bytes([0x83; 8]);
                /// Per byte: the low 3 bits of `z`.
                const Z: u64 = u64::from_le_bytes([0x70; 8]);
                /// Per byte: the flags and the low bit of `z`.
                const KEEP: u64 = u64::from_le_bytes([0x1c; 8]);
                let x = u64::from_le_bytes(eight);
                if up == 1 && x & LONG_OR_WIDE == 0 {
                    let y = (x & Z) << 1 | x & KEEP;
                    out.bytes.truncate(out.bytes.len().saturating_sub(TAIL));
                    out.bytes.extend_from_slice(&y.to_le_bytes());
                    out.bytes.extend_from_slice(&[0; TAIL]);
                    out.len += 8;
                    at += 8;
                    continue;
                }
            }
            let Some((n, class, z)) = front(&self.bytes[at..]) else {
                break;
            };
            out.put(((z + (z & 1)) << up) - (z & 1), class as u32);
            at += n;
        }
        out.bits = if self.bits == 0 { 0 } else { self.bits + up };
        out.pred = self.pred.map(|p| p << up);
        *self = out;
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
        self.len
    }

    /// Whether there are no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The operations, in program order.
    #[inline]
    pub fn iter(&self) -> OpsIter<'_> {
        OpsIter {
            bytes: &self.bytes,
            pred: [0; 4],
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

/// Iterator over an [`Ops`], decoding each code into a [`PackedOp`]:
/// the bytes from the next code on, the four class predictors and the
/// granule shift.
#[derive(Debug, Clone)]
pub struct OpsIter<'a> {
    bytes: &'a [u8],
    pred: [u32; 4],
    shift: u32,
}

impl Iterator for OpsIter<'_> {
    type Item = PackedOp;

    /// Decode the next op; `None` once only the zero tail is left.
    #[inline]
    fn next(&mut self) -> Option<PackedOp> {
        let (n, class, z) = front(self.bytes)?;
        self.bytes = &self.bytes[n..];
        let field = self.pred[class].wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
        self.pred[class] = field;
        Some(PackedOp(
            u64::from(field) << (self.shift + 2) | class as u64,
        ))
    }

    /// Every code takes 1–4 bytes.
    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bytes.len().saturating_sub(TAIL);
        (n.div_ceil(4), Some(n))
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
    /// If the segment's addresses stop fitting its op codes (see
    /// [`Ops::push`]).
    #[inline]
    pub fn push(&mut self, addr: u64, write: bool) {
        self.ops.push(PackedOp::new(addr, write, false));
    }

    /// Append a private-memory operation (`offset` within the node's
    /// private region).
    ///
    /// # Panics
    /// If the segment's addresses stop fitting its op codes (see
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
    /// Decoding position in the current segment.  Caching it keeps the
    /// per-op path to one bounds check instead of schedule → segment
    /// table → ops re-resolution.
    cur: OpsIter<'a>,
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
            cur: OpsIter {
                bytes: &[],
                pred: [0; 4],
                shift: 0,
            },
            cur_compute: 0,
        }
    }

    #[inline]
    fn access(op: PackedOp, pre_compute: u32) -> Op {
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
        if let Some(op) = self.cur.next() {
            return Some(Self::access(op, self.cur_compute));
        }
        loop {
            let item = self.program.schedule.get(self.sched_idx)?;
            self.sched_idx += 1;
            match *item {
                ScheduleItem::Run(seg_idx) => {
                    let seg = &self.program.segments[seg_idx as usize];
                    self.cur = seg.ops.iter();
                    if let Some(op) = self.cur.next() {
                        self.cur_compute = seg.compute_per_op;
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
        // The top address at granules 1, 32 and 128: a 28-bit zigzag
        // delta, the longest code.
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
                        assert_eq!(stored.bytes.len(), 4 + TAIL, "one 4-byte code and the tail");
                    }
                }
            }
        }
    }

    /// The code of every op in `ops`, written the plain way: the zigzag
    /// difference from the previous field of the op's class, at the
    /// largest granule (at most 128 B) dividing every address, in the
    /// fewest bytes that hold it.
    fn model_codes(ops: &[PackedOp]) -> Vec<Vec<u8>> {
        let shift = ops
            .iter()
            .map(|op| op.addr().trailing_zeros())
            .fold(MAX_GRANULE_SHIFT, u32::min);
        let mut pred = [0i64; 4];
        ops.iter()
            .map(|op| {
                let class = (op.0 & 3) as usize;
                let field = (op.addr() >> shift) as i64;
                let delta = field - pred[class];
                pred[class] = field;
                let zigzag = if delta < 0 { -2 * delta - 1 } else { 2 * delta } as u64;
                let len = (1..=4).find(|&n| zigzag < 1 << (8 * n - 4)).unwrap();
                let code = zigzag << 4 | (class as u64) << 2 | (len - 1) as u64;
                code.to_le_bytes()[..len].to_vec()
            })
            .collect()
    }

    /// The stored bytes `ops` must hold: their codes, then the zero tail.
    fn expected_bytes(ops: &[PackedOp]) -> Vec<u8> {
        let mut bytes = model_codes(ops).concat();
        if !ops.is_empty() {
            bytes.extend([0; TAIL]);
        }
        bytes
    }

    /// Random segments against a plain `Vec<u64>` model, stored and
    /// replayed: the four flag classes interleaved, steps from the
    /// class's previous address that need every code length in both
    /// directions, aligned pushes first and finer ones past the middle
    /// that re-encode the segment, address 0, and the top address.
    #[test]
    fn ops_round_trip_against_a_u64_model() {
        let mut rng = ascoma_sim::rng::SimRng::seed_from(0x24b1);
        // Codes seen per length, and negative deltas seen.
        let mut lengths = [0usize; 4];
        let mut negative = 0;
        let mut finer_mid_segment = 0;
        for case in 0..400 {
            // The finest granule this segment reaches bounds every address.
            let finest = rng.below(u64::from(MAX_GRANULE_SHIFT) + 1) as u32;
            let limit = OP_WORD_LIMIT << finest;
            let mut seg = Segment::new(0);
            let mut model: Vec<u64> = Vec::new();
            let mut last = [0u64; 4];
            let n = rng.range(1, 200);
            for i in 0..n {
                // Coarse addresses first; finer ones only past the middle.
                let shift = if i < n / 2 {
                    MAX_GRANULE_SHIFT
                } else {
                    rng.range(u64::from(finest), u64::from(MAX_GRANULE_SHIFT) + 1) as u32
                };
                let (write, private) = (rng.chance(0.5), rng.chance(0.3));
                let class = usize::from(private) << 1 | usize::from(write);
                let g = 1u64 << shift;
                let addr = match rng.below(10) {
                    0 => 0,
                    1 => limit - g,
                    2 => rng.below(limit >> shift) << shift,
                    k => {
                        // A step of up to 2^3, 2^11 or 2^19 granules.
                        let step = rng.below(1 << [3, 11, 19][k as usize % 3]) * g;
                        let base = last[class] >> shift << shift;
                        if rng.chance(0.5) {
                            base.saturating_sub(step)
                        } else {
                            (base + step).min(limit - g)
                        }
                    }
                };
                last[class] = addr;
                let before = seg.ops.granule();
                if private {
                    seg.push_private(addr, write);
                } else {
                    seg.push(addr, write);
                }
                finer_mid_segment += usize::from(i > 0 && seg.ops.granule() < before);
                model.push(PackedOp::new(addr, write, private).0);
                assert_eq!(seg.ops.len(), model.len());
                let last = seg.ops.iter().last().unwrap();
                assert_eq!(last.0, *model.last().unwrap(), "case {case} push {i}");
            }
            let stored: Vec<u64> = seg.ops.iter().map(|op| op.0).collect();
            assert_eq!(stored, model, "case {case}");
            let model_ops: Vec<PackedOp> = model.iter().map(|&w| PackedOp(w)).collect();
            assert_eq!(seg.ops.bytes, expected_bytes(&model_ops), "case {case}");
            for code in model_codes(&model_ops) {
                lengths[code.len() - 1] += 1;
                negative += usize::from(code.len() > 1 && code[0] & 0x10 != 0);
            }
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
        // The draws reach every code length, backward steps and
        // re-encodes after the first push.
        assert!(
            lengths.iter().all(|&n| n >= 100),
            "code lengths {lengths:?}"
        );
        assert!(negative >= 100, "{negative} negative deltas");
        assert!(
            finer_mid_segment >= 100,
            "{finer_mid_segment} granule drops"
        );
    }

    /// A granule drop after long runs of short steps, the barnes shape:
    /// at every drop from 128 B, the rescaled codes equal a fresh encode
    /// of the whole segment, runs of 1-byte codes and longer codes alike.
    #[test]
    fn rescale_after_short_steps_matches_a_fresh_encode() {
        let mut rng = ascoma_sim::rng::SimRng::seed_from(0x5ca1e);
        for up in 1..=MAX_GRANULE_SHIFT {
            for case in 0..20 {
                let mut seg = Segment::new(0);
                let mut model = Vec::new();
                let mut last = [1u64 << 20; 4];
                for i in 0..300 {
                    // Mostly steps of at most 3 granules, some of up to 40.
                    let class = if rng.chance(0.1) {
                        rng.below(4) as usize
                    } else {
                        0
                    };
                    let reach = if rng.chance(0.9) { 4 } else { 41 };
                    let step = rng.below(reach) << MAX_GRANULE_SHIFT;
                    let base = last[class];
                    last[class] = if rng.chance(0.5) {
                        base + step
                    } else {
                        base - step
                    };
                    // Past the middle, one push at the finer granule.
                    let addr = last[class] + if i == 150 { 128 >> up } else { 0 };
                    let op = PackedOp::new(addr, class & 1 != 0, class & 2 != 0);
                    seg.ops.push(op);
                    model.push(op);
                }
                assert_eq!(seg.ops.granule(), 128 >> up);
                assert_eq!(seg.ops.bytes, expected_bytes(&model), "up {up} case {case}");
                assert!(
                    seg.ops.iter().eq(model.iter().copied()),
                    "up {up} case {case}"
                );
            }
        }
    }

    #[test]
    fn address_zero_keeps_the_largest_granule() {
        let mut ops = Ops::default();
        ops.push(PackedOp::new(0, true, true));
        ops.push(PackedOp::new(0, false, false));
        assert_eq!(ops.granule(), 1 << MAX_GRANULE_SHIFT);
        // Two 1-byte codes of delta 0, classes 3 and 0, then the tail.
        assert_eq!(ops.bytes, [0b1100, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "0x8000000 does not fit the 27-bit op field at granule 1 B")]
    fn push_at_the_address_limit_panics() {
        let mut seg = Segment::new(0);
        seg.push(1, false);
        seg.push(OP_WORD_LIMIT - 1, false);
        seg.push(OP_WORD_LIMIT, false);
    }

    #[test]
    #[should_panic(expected = "0x100000000 does not fit the 27-bit op field at granule 32 B")]
    fn push_private_at_the_address_limit_panics() {
        let mut seg = Segment::new(0);
        seg.push_private(32, true);
        seg.push_private((OP_WORD_LIMIT - 1) * 32, true);
        seg.push_private(OP_WORD_LIMIT * 32, true);
    }

    /// A finer granule can push an earlier address out of range: the
    /// re-encode checks every stored address before it replaces a code.
    #[test]
    #[should_panic(expected = "0x8000000 does not fit the 27-bit op field at granule 1 B")]
    fn regranule_past_an_earlier_address_panics() {
        let mut seg = Segment::new(0);
        seg.push(OP_WORD_LIMIT, false);
        seg.push(1, false);
    }

    /// Stored bytes of every segment of `t` (capacity, so slack left by
    /// segment construction counts), and its static op count.
    fn op_storage(t: &Trace) -> (usize, usize) {
        let segs = || t.programs.iter().flat_map(|p| &p.segments);
        let static_ops = segs().map(|s| s.ops.len()).sum();
        let bytes = segs().map(|s| s.ops.bytes.capacity()).sum();
        (static_ops, bytes)
    }

    /// Memory guard on the `remote-thrash` benchmark's two traces, radix
    /// at Paper size and barnes at Default, pinned to the byte.
    #[test]
    fn radix_paper_and_barnes_default_op_storage() {
        let radix = crate::App::Radix.build(crate::SizeClass::Paper, 4096);
        let barnes = crate::App::Barnes.build(crate::SizeClass::Default, 4096);
        let got = [op_storage(&radix), op_storage(&barnes)];
        // 5.7 MB together.
        assert_eq!(got, [(3_407_872, 5_368_529), (313_344, 318_116)]);
    }

    /// Memory guard on every app at Default size, pinned to the byte, so
    /// a codec change that costs a byte anywhere fails here.
    #[test]
    fn every_app_default_op_storage() {
        let got: Vec<(&str, usize, usize)> = crate::App::ALL
            .iter()
            .map(|app| {
                let (ops, bytes) = op_storage(&app.build(crate::SizeClass::Default, 4096));
                (app.name(), ops, bytes)
            })
            .collect();
        assert_eq!(
            got,
            [
                ("barnes", 313_344, 318_116),
                ("em3d", 1_181_696, 1_854_097),
                ("fft", 123_904, 124_110),
                ("lu", 1_455_808, 1_495_947),
                ("ocean", 70_144, 70_396),
                ("radix", 851_968, 1_337_963),
            ]
        );
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
