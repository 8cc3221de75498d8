//! The on-memory event format: [`EventLog`], an append-only, lossless
//! byte log of [`TimedEvent`]s at about 5 bytes per event (a
//! `TimedEvent` is 48).
//!
//! The encoder and the decoder each keep one `NodeState` per node,
//! updated record by record in the same way: the node's last cycle, its
//! last page, and its last `MissServiced` latency at each [`MissLoc`].
//! A record is coded against its node's state, in order:
//!
//! * one tag byte: a kind code in the low 5 bits and a small payload in
//!   the top 3.  The code is [`Event::kind_index`], except that a
//!   `MissServiced` takes the spare code `MISS_CODE + loc` (18–22), so
//!   its [`MissLoc`] costs no byte and code 12 is unused.  The payload
//!   is the [`MapMode`] of `PageMapped`, the [`EvictCause`] of
//!   `PageEvicted`, `reached_target` of `DaemonEpoch`, the
//!   [`BackoffKind`] (bit 0) and `relocation_disabled` (bit 1) of
//!   `ThresholdBackoff`, the [`Cause`] of `PhaseChange`/`TuneApplied`,
//!   `refetch` (bit 0) and "same latency" (bit 1) of `MissServiced`,
//!   and "nothing queued" (bit 0) of `NetDelay`;
//! * the node as a LEB128 varint;
//! * the stamp: a zigzag LEB128 varint of the (wrapping) difference
//!   from the node's last cycle.  Node clocks are monotone, so it is
//!   small; zigzag keeps the format lossless when it is not.  A
//!   `MissServiced` is emitted once its latency is charged, so it
//!   stores the difference less its `cycles`: the gap from the node's
//!   last record to the miss's *start*, which is 0 right after the
//!   miss's own `NetDelay`;
//! * the remaining fields in declaration order, each a LEB128 varint,
//!   except that a page is the zigzag difference from the node's last
//!   page, [`Phase`]s are varints of [`Phase::index`], and two fields
//!   are left out when the tag says what they hold: a `MissServiced`'s
//!   `cycles` when it equals the node's last latency at the same `loc`,
//!   and a `NetDelay`'s `queued` when it is 0.
//!
//! Records are stored in fixed 64 KiB blocks that are allocated once and
//! never reallocated, and no record straddles two blocks: a block is
//! sealed once it could not hold a record of the largest size.  A
//! growing log therefore never copies what it holds, and its footprint
//! is its content plus one block.  Where a record ends never depends on
//! the codec state, only on its tag and varints.
//!
//! Only [`EventLog`]'s own encoder writes the bytes, so decoding cannot
//! meet a malformed record; should it, the iterator ends instead of
//! panicking.

use crate::control::{Cause, Phase};
use crate::event::{BackoffKind, Event, EvictCause, MapMode, MissLoc, TimedEvent, KINDS};
use crate::sink::Sink;
use ascoma_sim::addr::VPage;
use ascoma_sim::{Cycles, NodeId};
use std::fmt;

/// Bits of the tag byte holding the kind code.
const KIND_BITS: u32 = 5;
const KIND_MASK: u8 = (1 << KIND_BITS) - 1;

/// Code of a `MissServiced` at `MissLoc::ALL[0]`; the other locations
/// follow it.
const MISS_CODE: u8 = KINDS as u8;
const _: () = assert!(
    KINDS + MissLoc::ALL.len() <= 1 << KIND_BITS,
    "event kinds overflow the tag"
);

/// `MissServiced` payload bits.
const REFETCH: u8 = 1;
const SAME_LATENCY: u8 = 2;
/// `NetDelay` payload bit: `queued` is 0 and not stored.
const NOTHING_QUEUED: u8 = 1;

/// Capacity of one storage block, in bytes.
const BLOCK_BYTES: usize = 64 << 10;

/// Upper bound on one encoded record: a tag byte, a 3-byte node, a
/// 10-byte stamp and at most 40 bytes of fields (`TuneApplied` and
/// `MemSample`), rounded up.
const MAX_RECORD: usize = 64;

/// What a node's next record is coded against.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Cycle of the node's last record, 0 before its first.
    clock: Cycles,
    /// Page of the node's last record that carried one.
    page: u64,
    /// The node's last `MissServiced` latency at each location.
    lat: [Cycles; MissLoc::ALL.len()],
}

/// `node`'s codec state, created on its first record.
#[inline]
fn state(nodes: &mut Vec<NodeState>, node: NodeId) -> &mut NodeState {
    let slot = usize::from(node.0);
    if slot >= nodes.len() {
        nodes.resize(slot + 1, NodeState::default());
    }
    &mut nodes[slot]
}

/// A recorded event stream, compactly encoded (see the module docs).
/// Records every event it is [`Sink::emit`]ted; decode with
/// [`EventLog::iter`].  Two logs are equal when they hold the same
/// records, however those are split across blocks.
#[derive(Clone, Default)]
pub struct EventLog {
    /// Sealed blocks, in order.
    full: Vec<Vec<u8>>,
    /// The open block records are appended to.
    cur: Vec<u8>,
    len: usize,
    /// The encoder's codec state, by node id.
    nodes: Vec<NodeState>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the encoded records, in bytes.
    pub fn byte_len(&self) -> usize {
        self.blocks().map(<[u8]>::len).sum()
    }

    /// The encoded records, block by block; every block holds whole
    /// records.
    pub fn blocks(&self) -> impl Iterator<Item = &[u8]> {
        self.full
            .iter()
            .chain(std::iter::once(&self.cur))
            .map(Vec::as_slice)
            .filter(|b| !b.is_empty())
    }

    /// Decode the events in emission order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            blocks: self.full.iter(),
            tail: &self.cur,
            rd: Reader::default(),
            nodes: Vec::new(),
        }
    }

    /// Open a fresh block when the current one could not hold a record
    /// of `MAX_RECORD` bytes.
    #[inline]
    fn make_room(&mut self) {
        if self.cur.capacity() - self.cur.len() < MAX_RECORD {
            let sealed = std::mem::replace(&mut self.cur, Vec::with_capacity(BLOCK_BYTES));
            if !sealed.is_empty() {
                self.full.push(sealed);
            }
        }
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.blocks().flatten().eq(other.blocks().flatten())
    }
}

impl Eq for EventLog {}

/// Append `v` as a LEB128 varint.
#[inline]
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Map a two's-complement difference onto small unsigned codes.
#[inline]
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ ((d as i64 >> 63) as u64)
}

#[inline]
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Append a record's tag, node and stamp.
#[inline]
fn put_head(b: &mut Vec<u8>, code: u8, payload: u8, node: NodeId, stamp: u64) {
    b.push(code | payload << KIND_BITS);
    put(b, u64::from(node.0));
    put(b, zigzag(stamp));
}

/// Append `page` as the difference from the node's last page.
#[inline]
fn put_page(b: &mut Vec<u8>, st: &mut NodeState, page: VPage) {
    let z = zigzag(page.0.wrapping_sub(std::mem::replace(&mut st.page, page.0)));
    if z < 1 << 14 {
        // Deltas take one byte or two in no order a branch predictor
        // can follow: write both and keep one or both, branch-free.
        let two = u8::from(z >= 0x80);
        let at = b.len();
        b.extend_from_slice(&[z as u8 & 0x7f | two << 7, (z >> 7) as u8]);
        b.truncate(at + 1 + usize::from(two));
    } else {
        put(b, z);
    }
}

impl Sink for EventLog {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        let node = event.node();
        self.make_room();
        let b = &mut self.cur;
        let st = state(&mut self.nodes, node);
        let gap = cycle.wrapping_sub(std::mem::replace(&mut st.clock, cycle));
        let kind = event.kind_index() as u8;
        let head = |b: &mut Vec<u8>, payload: u8| put_head(b, kind, payload, node, gap);
        match event {
            Event::PageMapped { page, mode, .. } => {
                head(b, mode as u8);
                put_page(b, st, page);
            }
            Event::PageUpgraded {
                page, threshold, ..
            } => {
                head(b, 0);
                put_page(b, st, page);
                put(b, threshold.into());
            }
            Event::UpgradeDeclined { page, .. } => {
                head(b, 0);
                put_page(b, st, page);
            }
            Event::PageEvicted { page, cause, .. } => {
                head(b, cause as u8);
                put_page(b, st, page);
            }
            Event::DaemonEpoch {
                epoch,
                examined,
                reclaimed,
                deficit,
                reached_target,
                ..
            } => {
                head(b, reached_target.into());
                put(b, epoch);
                put(b, examined.into());
                put(b, reclaimed.into());
                put(b, deficit.into());
            }
            Event::ThresholdBackoff {
                from,
                to,
                kind: dir,
                relocation_disabled,
                ..
            } => {
                head(b, dir as u8 | u8::from(relocation_disabled) << 1);
                put(b, from.into());
                put(b, to.into());
            }
            Event::RefetchCrossing {
                page,
                count,
                threshold,
                ..
            } => {
                head(b, 0);
                put_page(b, st, page);
                put(b, count.into());
                put(b, threshold.into());
            }
            Event::FreePoolSample {
                free,
                resident,
                deficit,
                low,
                ..
            } => {
                head(b, 0);
                put(b, free.into());
                put(b, resident.into());
                put(b, deficit.into());
                put(b, low.into());
            }
            Event::ThresholdSample { threshold, .. } => {
                head(b, 0);
                put(b, threshold.into());
            }
            Event::MissSample { total, remote, .. } => {
                head(b, 0);
                put(b, total);
                put(b, remote);
            }
            Event::NetSample {
                backlog,
                messages,
                queued,
                ..
            } => {
                head(b, 0);
                put(b, backlog);
                put(b, messages);
                put(b, queued);
            }
            Event::MemSample {
                l1_hits,
                l1_misses,
                bus_queued,
                dram_queued,
                ..
            } => {
                head(b, 0);
                put(b, l1_hits);
                put(b, l1_misses);
                put(b, bus_queued);
                put(b, dram_queued);
            }
            Event::MissServiced {
                page,
                loc,
                refetch,
                cycles,
                ..
            } => {
                let same = std::mem::replace(&mut st.lat[loc as usize], cycles) == cycles;
                let payload = (u8::from(refetch) * REFETCH) | (u8::from(same) * SAME_LATENCY);
                put_head(
                    b,
                    MISS_CODE + loc as u8,
                    payload,
                    node,
                    gap.wrapping_sub(cycles),
                );
                put_page(b, st, page);
                if !same {
                    put(b, cycles);
                }
            }
            Event::NetDelay { queued, .. } => {
                head(b, u8::from(queued == 0) * NOTHING_QUEUED);
                if queued != 0 {
                    put(b, queued);
                }
            }
            Event::RemapCost { page, cycles, .. } => {
                head(b, 0);
                put_page(b, st, page);
                put(b, cycles);
            }
            Event::ReclaimLatency {
                reclaimed, cycles, ..
            } => {
                head(b, 0);
                put(b, reclaimed.into());
                put(b, cycles);
            }
            Event::PhaseChange {
                window,
                from,
                to,
                cause,
                dwell,
                ..
            } => {
                head(b, cause as u8);
                put(b, window);
                put(b, from.index() as u64);
                put(b, to.index() as u64);
                put(b, dwell);
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
                head(b, cause as u8);
                put(b, window);
                put(b, inc_from.into());
                put(b, inc_to.into());
                put(b, period_from);
                put(b, period_to);
            }
        }
        self.len += 1;
    }
}

/// Decoding iterator over an [`EventLog`]; yields events by value.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// Sealed blocks not yet entered.
    blocks: std::slice::Iter<'a, Vec<u8>>,
    /// The open block, decoded after the sealed ones.
    tail: &'a [u8],
    /// The block being decoded.
    rd: Reader<'a>,
    /// The decoder's codec state, by node id.
    nodes: Vec<NodeState>,
}

/// A cursor over one block's bytes.
#[derive(Debug, Clone, Default)]
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// The `i`-th entry of an enum's `ALL` table.
fn nth<T: Copy>(all: &[T], i: impl Into<u64>) -> Option<T> {
    all.get(usize::try_from(i.into()).ok()?).copied()
}

impl Reader<'_> {
    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    /// A page stored as the difference from `last`, which it replaces.
    #[inline]
    fn page(&mut self, last: &mut u64) -> Option<VPage> {
        let z = match self.bytes.get(self.pos..self.pos + 2) {
            // One or two bytes, read without branching on which.
            Some(&[lo, hi]) if lo < 0x80 || hi < 0x80 => {
                let two = lo >> 7;
                self.pos += 1 + usize::from(two);
                u64::from(lo & 0x7f) | u64::from(hi * two) << 7
            }
            _ => self.varint()?,
        };
        *last = last.wrapping_add(unzigzag(z));
        Some(VPage(*last))
    }

    fn phase(&mut self) -> Option<Phase> {
        nth(&Phase::ALL, self.varint()?)
    }
}

/// Decode one record from `rd`, advancing the codec state in `nodes`.
fn decode(rd: &mut Reader<'_>, nodes: &mut Vec<NodeState>) -> Option<TimedEvent> {
    let tag = rd.byte()?;
    let p = tag >> KIND_BITS;
    let node = NodeId(u16::try_from(rd.varint()?).ok()?);
    let stamp = unzigzag(rd.varint()?);
    let st = state(nodes, node);
    let mut cycle = st.clock.wrapping_add(stamp);
    // Struct-literal fields evaluate in source order, which is the
    // encoder's field order.
    let event = match tag & KIND_MASK {
        0 => Event::PageMapped {
            node,
            page: rd.page(&mut st.page)?,
            mode: nth(&MapMode::ALL, p)?,
        },
        1 => Event::PageUpgraded {
            node,
            page: rd.page(&mut st.page)?,
            threshold: rd.u32()?,
        },
        2 => Event::UpgradeDeclined {
            node,
            page: rd.page(&mut st.page)?,
        },
        3 => Event::PageEvicted {
            node,
            page: rd.page(&mut st.page)?,
            cause: nth(&EvictCause::ALL, p)?,
        },
        4 => Event::DaemonEpoch {
            node,
            epoch: rd.varint()?,
            examined: rd.u32()?,
            reclaimed: rd.u32()?,
            deficit: rd.u32()?,
            reached_target: p & 1 != 0,
        },
        5 => Event::ThresholdBackoff {
            node,
            from: rd.u32()?,
            to: rd.u32()?,
            kind: if p & 1 == 0 {
                BackoffKind::Raise
            } else {
                BackoffKind::Drop
            },
            relocation_disabled: p & 2 != 0,
        },
        6 => Event::RefetchCrossing {
            node,
            page: rd.page(&mut st.page)?,
            count: rd.u32()?,
            threshold: rd.u32()?,
        },
        7 => Event::FreePoolSample {
            node,
            free: rd.u32()?,
            resident: rd.u32()?,
            deficit: rd.u32()?,
            low: rd.u32()?,
        },
        8 => Event::ThresholdSample {
            node,
            threshold: rd.u32()?,
        },
        9 => Event::MissSample {
            node,
            total: rd.varint()?,
            remote: rd.varint()?,
        },
        10 => Event::NetSample {
            node,
            backlog: rd.varint()?,
            messages: rd.varint()?,
            queued: rd.varint()?,
        },
        11 => Event::MemSample {
            node,
            l1_hits: rd.varint()?,
            l1_misses: rd.varint()?,
            bus_queued: rd.varint()?,
            dram_queued: rd.varint()?,
        },
        13 => Event::NetDelay {
            node,
            queued: if p & NOTHING_QUEUED != 0 {
                0
            } else {
                rd.varint()?
            },
        },
        14 => Event::RemapCost {
            node,
            page: rd.page(&mut st.page)?,
            cycles: rd.varint()?,
        },
        15 => Event::ReclaimLatency {
            node,
            reclaimed: rd.u32()?,
            cycles: rd.varint()?,
        },
        16 => Event::PhaseChange {
            node,
            window: rd.varint()?,
            from: rd.phase()?,
            to: rd.phase()?,
            cause: nth(&Cause::ALL, p)?,
            dwell: rd.varint()?,
        },
        17 => Event::TuneApplied {
            node,
            window: rd.varint()?,
            inc_from: rd.u32()?,
            inc_to: rd.u32()?,
            period_from: rd.varint()?,
            period_to: rd.varint()?,
            cause: nth(&Cause::ALL, p)?,
        },
        code => {
            let slot = usize::from(code.checked_sub(MISS_CODE)?);
            let loc = *MissLoc::ALL.get(slot)?;
            let page = rd.page(&mut st.page)?;
            if p & SAME_LATENCY == 0 {
                st.lat[slot] = rd.varint()?;
            }
            let cycles = st.lat[slot];
            cycle = cycle.wrapping_add(cycles);
            Event::MissServiced {
                node,
                page,
                loc,
                refetch: p & REFETCH != 0,
                cycles,
            }
        }
    };
    st.clock = cycle;
    Some(TimedEvent { cycle, event })
}

impl Iterator for Iter<'_> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        // Records never straddle blocks, so each starts in a fresh
        // block or where the previous one ended.
        while self.rd.pos >= self.rd.bytes.len() {
            let bytes = match self.blocks.next() {
                Some(b) => b,
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail),
                None => return None,
            };
            self.rd = Reader { bytes, pos: 0 };
        }
        let te = decode(&mut self.rd, &mut self.nodes);
        if te.is_none() {
            // A malformed record ends the stream rather than desyncing it.
            self.rd.pos = self.rd.bytes.len();
            self.blocks = [].iter();
            self.tail = &[];
        }
        te
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = TimedEvent;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<TimedEvent> for EventLog {
    fn from_iter<I: IntoIterator<Item = TimedEvent>>(events: I) -> Self {
        let mut log = EventLog::new();
        for te in events {
            log.emit(te.cycle, te.event);
        }
        log
    }
}

impl fmt::Debug for EventLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascoma_sim::rng::SimRng;

    /// 0, the type's max, or a random value below it (all maxes here
    /// are `2^k - 1`, so masking draws uniformly).
    fn field(rng: &mut SimRng, max: u64) -> u64 {
        match rng.below(3) {
            0 => 0,
            1 => max,
            _ => rng.next_u64() & max,
        }
    }

    fn any_u32(rng: &mut SimRng) -> u32 {
        field(rng, u32::MAX.into()) as u32
    }

    fn any_u64(rng: &mut SimRng) -> u64 {
        field(rng, u64::MAX)
    }

    fn pick<T: Copy>(rng: &mut SimRng, all: &[T]) -> T {
        all[rng.below(all.len() as u64) as usize]
    }

    /// A random event of kind `kind`, every field drawn independently.
    fn random_event(rng: &mut SimRng, kind: usize, node: NodeId) -> Event {
        let page = |rng: &mut SimRng| VPage(any_u64(rng));
        let backoff = [BackoffKind::Raise, BackoffKind::Drop];
        match kind {
            0 => Event::PageMapped {
                node,
                page: page(rng),
                mode: pick(rng, &MapMode::ALL),
            },
            1 => Event::PageUpgraded {
                node,
                page: page(rng),
                threshold: any_u32(rng),
            },
            2 => Event::UpgradeDeclined {
                node,
                page: page(rng),
            },
            3 => Event::PageEvicted {
                node,
                page: page(rng),
                cause: pick(rng, &EvictCause::ALL),
            },
            4 => Event::DaemonEpoch {
                node,
                epoch: any_u64(rng),
                examined: any_u32(rng),
                reclaimed: any_u32(rng),
                deficit: any_u32(rng),
                reached_target: rng.below(2) == 1,
            },
            5 => Event::ThresholdBackoff {
                node,
                from: any_u32(rng),
                to: any_u32(rng),
                kind: pick(rng, &backoff),
                relocation_disabled: rng.below(2) == 1,
            },
            6 => Event::RefetchCrossing {
                node,
                page: page(rng),
                count: any_u32(rng),
                threshold: any_u32(rng),
            },
            7 => Event::FreePoolSample {
                node,
                free: any_u32(rng),
                resident: any_u32(rng),
                deficit: any_u32(rng),
                low: any_u32(rng),
            },
            8 => Event::ThresholdSample {
                node,
                threshold: any_u32(rng),
            },
            9 => Event::MissSample {
                node,
                total: any_u64(rng),
                remote: any_u64(rng),
            },
            10 => Event::NetSample {
                node,
                backlog: any_u64(rng),
                messages: any_u64(rng),
                queued: any_u64(rng),
            },
            11 => Event::MemSample {
                node,
                l1_hits: any_u64(rng),
                l1_misses: any_u64(rng),
                bus_queued: any_u64(rng),
                dram_queued: any_u64(rng),
            },
            12 => Event::MissServiced {
                node,
                page: page(rng),
                loc: pick(rng, &MissLoc::ALL),
                refetch: rng.below(2) == 1,
                cycles: any_u64(rng),
            },
            13 => Event::NetDelay {
                node,
                queued: any_u64(rng),
            },
            14 => Event::RemapCost {
                node,
                page: page(rng),
                cycles: any_u64(rng),
            },
            15 => Event::ReclaimLatency {
                node,
                reclaimed: any_u32(rng),
                cycles: any_u64(rng),
            },
            16 => Event::PhaseChange {
                node,
                window: any_u64(rng),
                from: pick(rng, &Phase::ALL),
                to: pick(rng, &Phase::ALL),
                cause: pick(rng, &Cause::ALL),
                dwell: any_u64(rng),
            },
            _ => Event::TuneApplied {
                node,
                window: any_u64(rng),
                inc_from: any_u32(rng),
                inc_to: any_u32(rng),
                period_from: any_u64(rng),
                period_to: any_u64(rng),
                cause: pick(rng, &Cause::ALL),
            },
        }
    }

    /// `n` random events over every kind.  Nodes span `0..=u16::MAX`
    /// but half come from a few busy nodes, so per-node deltas chain;
    /// cycles step forwards or backwards from the node's last stamp, or
    /// jump to 0, `u64::MAX` or anywhere.
    fn random_stream(seed: u64, n: usize) -> Vec<TimedEvent> {
        let mut rng = SimRng::seed_from(seed);
        let mut last = vec![0u64; usize::from(u16::MAX) + 1];
        (0..n)
            .map(|_| {
                let node = if rng.below(2) == 0 {
                    NodeId(rng.below(4) as u16)
                } else {
                    NodeId(field(&mut rng, u16::MAX.into()) as u16)
                };
                let prev = last[usize::from(node.0)];
                let cycle = match rng.below(4) {
                    0 => prev.wrapping_add(rng.below(1 << 20)),
                    1 => prev.wrapping_sub(rng.below(1 << 20)),
                    _ => any_u64(&mut rng),
                };
                last[usize::from(node.0)] = cycle;
                let kind = rng.below(KINDS as u64) as usize;
                TimedEvent {
                    cycle,
                    event: random_event(&mut rng, kind, node),
                }
            })
            .collect()
    }

    #[test]
    fn random_streams_decode_to_what_was_encoded() {
        let events = random_stream(0xA5C0_3A00, 120_000);
        for kind in 0..KINDS {
            assert!(
                events.iter().any(|te| te.event.kind_index() == kind),
                "kind {kind} never drawn"
            );
        }
        let log: EventLog = events.iter().copied().collect();
        assert_eq!(log.len(), events.len());
        assert!(log.iter().eq(events.iter().copied()));
        // Re-encoding the decoded stream gives the same bytes.
        assert_eq!(log.iter().collect::<EventLog>(), log);
    }

    /// An iterator over `block` alone, as if it were a whole log.
    fn decode_block(block: &[u8]) -> Iter<'_> {
        Iter {
            blocks: [].iter(),
            tail: block,
            rd: Reader::default(),
            nodes: Vec::new(),
        }
    }

    #[test]
    fn monotone_node_clocks_take_few_bytes() {
        let mut log = EventLog::new();
        for i in 0..1000u64 {
            log.emit(
                10 * i,
                Event::MissServiced {
                    node: NodeId((i % 4) as u16),
                    page: VPage(i % 100),
                    loc: MissLoc::Remote2,
                    refetch: false,
                    cycles: 120,
                },
            );
        }
        assert_eq!(log.len(), 1000);
        // Tag, node, stamp and page a byte each, except that the stamp
        // takes two: each node's clock steps 40 cycles, so its stamp less
        // the 120-cycle latency is -80.  The latency is stored once per
        // node (4 bytes), and the page adds a byte each time it wraps
        // from 96..99 back to 0..3 (9 times per node, 36 bytes).
        assert_eq!(log.byte_len(), 5 * 1000 + 4 + 36);
    }

    #[test]
    fn repeated_local_misses_take_at_most_five_bytes() {
        // A node's clock advances by each miss's latency plus a few hit
        // cycles, over nearby pages, at one latency per local location:
        // tag, node, stamp (the hit cycles) and page delta take a byte
        // each, and the latency none after its first.  The pages sit
        // above 2^20, where each would take three bytes on its own.
        let mut clock = [0u64; 4];
        let locs = [MissLoc::Home, MissLoc::Scoma, MissLoc::Rac];
        let events: Vec<TimedEvent> = (0..10_000u64)
            .map(|i| {
                let node = (i % 4) as usize;
                let loc = locs[(i / 4 % 3) as usize];
                let cycles = 30 + 10 * loc as u64;
                clock[node] += i % 7 + cycles;
                TimedEvent {
                    cycle: clock[node],
                    event: Event::MissServiced {
                        node: NodeId(node as u16),
                        page: VPage((1 << 20) + i * 7919 % 40),
                        loc,
                        refetch: i % 5 == 0,
                        cycles,
                    },
                }
            })
            .collect();
        let log: EventLog = events.iter().copied().collect();
        assert!(log.iter().eq(events.iter().copied()));
        assert!(
            log.byte_len() <= 5 * events.len(),
            "{} bytes for {} records",
            log.byte_len(),
            events.len()
        );
    }

    /// A random log spanning at least three blocks.
    fn multi_block_stream(seed: u64) -> Vec<TimedEvent> {
        random_stream(seed, 20_000)
    }

    #[test]
    fn logs_spanning_many_blocks_round_trip() {
        let events = multi_block_stream(0xB10C);
        let log: EventLog = events.iter().copied().collect();
        assert!(log.blocks().count() >= 3, "{} blocks", log.blocks().count());
        assert_eq!(log.len(), events.len());
        assert!(log.iter().eq(events.iter().copied()));
    }

    #[test]
    fn no_record_straddles_a_block() {
        let log: EventLog = multi_block_stream(0x57AD).into_iter().collect();
        // Every block decodes on its own into whole records (the codec
        // state restarts per block, but record boundaries do not depend
        // on it), and the blocks' records add up to the log.
        let mut records = 0;
        for b in log.blocks() {
            assert!(b.len() <= BLOCK_BYTES);
            let n = decode_block(b).count();
            assert!(n > 0);
            records += n;
        }
        assert_eq!(records, log.len());
        // The largest possible record fits the bound.
        let mut max = EventLog::new();
        max.emit(
            u64::MAX,
            Event::TuneApplied {
                node: NodeId(u16::MAX),
                window: u64::MAX,
                inc_from: u32::MAX,
                inc_to: u32::MAX,
                period_from: u64::MAX,
                period_to: u64::MAX,
                cause: Cause::ALL[Cause::ALL.len() - 1],
            },
        );
        assert!(max.byte_len() <= MAX_RECORD);
    }

    #[test]
    fn equality_ignores_block_layout() {
        let events = multi_block_stream(0xE0);
        let whole: EventLog = events.iter().copied().collect();
        // A clone's open block is sealed at its length, so appending to
        // it seals a block where the original would have kept filling.
        let (head, rest) = events.split_at(events.len() / 3);
        let mut split = head.iter().copied().collect::<EventLog>().clone();
        for te in rest {
            split.emit(te.cycle, te.event);
        }
        let layout = |log: &EventLog| log.blocks().map(<[u8]>::len).collect::<Vec<_>>();
        assert_ne!(layout(&split), layout(&whole));
        assert_eq!(split, whole);
        let mut longer = whole.clone();
        longer.emit(0, events[0].event);
        assert_ne!(longer, whole);
    }

    #[test]
    fn truncated_bytes_end_the_stream_without_panicking() {
        let mut log: EventLog = multi_block_stream(7).into_iter().collect();
        let whole = log.len();
        // Cut the final block's last byte.
        log.cur.pop();
        assert!(log.iter().count() < whole);
    }
}
