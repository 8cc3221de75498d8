//! The on-memory event format: [`EventLog`], an append-only, lossless
//! byte log of [`TimedEvent`]s at about 7 bytes per event (a
//! `TimedEvent` is 48).
//!
//! Each record is, in order:
//!
//! * one tag byte: [`Event::kind_index`] in the low 5 bits and a small
//!   enum payload in the top 3 — the [`MapMode`] of `PageMapped`, the
//!   [`EvictCause`] of `PageEvicted`, `reached_target` of `DaemonEpoch`,
//!   the [`BackoffKind`] (bit 0) and `relocation_disabled` (bit 1) of
//!   `ThresholdBackoff`, the [`Cause`] of `PhaseChange`/`TuneApplied`;
//! * the node as a LEB128 varint;
//! * the cycle as a zigzag LEB128 varint of the (wrapping) difference
//!   from that node's previous record, 0 before its first.  Node clocks
//!   are monotone, so deltas are small; zigzag keeps the format lossless
//!   when they are not;
//! * the remaining fields in declaration order, each a LEB128 varint,
//!   except that `MissServiced` packs `loc` (bits 0–2) and `refetch`
//!   (bit 3) into one byte and [`Phase`]s are varints of
//!   [`Phase::index`].
//!
//! Records are stored in fixed 64 KiB blocks that are allocated once and
//! never reallocated, and no record straddles two blocks: a block is
//! sealed once it could not hold a record of the largest size.  A
//! growing log therefore never copies what it holds, and its footprint
//! is its content plus one block.
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

/// Bits of the tag byte holding [`Event::kind_index`].
const KIND_BITS: u32 = 5;
const KIND_MASK: u8 = (1 << KIND_BITS) - 1;
const _: () = assert!(KINDS <= 1 << KIND_BITS, "event kinds overflow the tag");

/// Capacity of one storage block, in bytes.
const BLOCK_BYTES: usize = 64 << 10;

/// Upper bound on one encoded record: a tag byte, a 3-byte node, a
/// 10-byte cycle delta and at most 40 bytes of fields (`TuneApplied`
/// and `MemSample`), rounded up.
const MAX_RECORD: usize = 64;

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
    /// Each node's last recorded cycle: the base of its next delta.
    last: Vec<Cycles>,
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
            bytes: &[],
            pos: 0,
            last: Vec::new(),
        }
    }

    /// The block the next record goes into, opening a fresh one when the
    /// current block could not hold a record of `MAX_RECORD` bytes.
    #[inline]
    fn room(&mut self) -> &mut Vec<u8> {
        if self.cur.capacity() - self.cur.len() < MAX_RECORD {
            let sealed = std::mem::replace(&mut self.cur, Vec::with_capacity(BLOCK_BYTES));
            if !sealed.is_empty() {
                self.full.push(sealed);
            }
        }
        &mut self.cur
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

/// `node`'s last recorded cycle, 0 before its first record.
#[inline]
fn clock(last: &mut Vec<Cycles>, node: NodeId) -> &mut Cycles {
    let slot = usize::from(node.0);
    if slot >= last.len() {
        last.resize(slot + 1, 0);
    }
    &mut last[slot]
}

impl Sink for EventLog {
    #[inline]
    fn emit(&mut self, cycle: Cycles, event: Event) {
        let node = event.node();
        let prev = std::mem::replace(clock(&mut self.last, node), cycle);
        let delta = zigzag(cycle.wrapping_sub(prev));
        let kind = event.kind_index() as u8;
        let b = self.room();
        let head = |b: &mut Vec<u8>, payload: u8| {
            b.push(kind | payload << KIND_BITS);
            put(b, u64::from(node.0));
            put(b, delta);
        };
        match event {
            Event::PageMapped { page, mode, .. } => {
                head(b, mode as u8);
                put(b, page.0);
            }
            Event::PageUpgraded {
                page, threshold, ..
            } => {
                head(b, 0);
                put(b, page.0);
                put(b, threshold.into());
            }
            Event::UpgradeDeclined { page, .. } => {
                head(b, 0);
                put(b, page.0);
            }
            Event::PageEvicted { page, cause, .. } => {
                head(b, cause as u8);
                put(b, page.0);
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
                put(b, page.0);
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
                head(b, 0);
                put(b, page.0);
                b.push(loc as u8 | u8::from(refetch) << 3);
                put(b, cycles);
            }
            Event::NetDelay { queued, .. } => {
                head(b, 0);
                put(b, queued);
            }
            Event::RemapCost { page, cycles, .. } => {
                head(b, 0);
                put(b, page.0);
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
    bytes: &'a [u8],
    pos: usize,
    last: Vec<Cycles>,
}

/// The `i`-th entry of an enum's `ALL` table.
fn nth<T: Copy>(all: &[T], i: u64) -> Option<T> {
    all.get(usize::try_from(i).ok()?).copied()
}

impl Iter<'_> {
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

    fn page(&mut self) -> Option<VPage> {
        Some(VPage(self.varint()?))
    }

    fn phase(&mut self) -> Option<Phase> {
        nth(&Phase::ALL, self.varint()?)
    }

    fn decode(&mut self) -> Option<TimedEvent> {
        let tag = self.byte()?;
        let p = u64::from(tag >> KIND_BITS);
        let node = NodeId(u16::try_from(self.varint()?).ok()?);
        let delta = unzigzag(self.varint()?);
        let clk = clock(&mut self.last, node);
        *clk = clk.wrapping_add(delta);
        let cycle = *clk;
        // Struct-literal fields evaluate in source order, which is the
        // encoder's field order.
        let event = match tag & KIND_MASK {
            0 => Event::PageMapped {
                node,
                page: self.page()?,
                mode: nth(&MapMode::ALL, p)?,
            },
            1 => Event::PageUpgraded {
                node,
                page: self.page()?,
                threshold: self.u32()?,
            },
            2 => Event::UpgradeDeclined {
                node,
                page: self.page()?,
            },
            3 => Event::PageEvicted {
                node,
                page: self.page()?,
                cause: nth(&EvictCause::ALL, p)?,
            },
            4 => Event::DaemonEpoch {
                node,
                epoch: self.varint()?,
                examined: self.u32()?,
                reclaimed: self.u32()?,
                deficit: self.u32()?,
                reached_target: p & 1 != 0,
            },
            5 => Event::ThresholdBackoff {
                node,
                from: self.u32()?,
                to: self.u32()?,
                kind: if p & 1 == 0 {
                    BackoffKind::Raise
                } else {
                    BackoffKind::Drop
                },
                relocation_disabled: p & 2 != 0,
            },
            6 => Event::RefetchCrossing {
                node,
                page: self.page()?,
                count: self.u32()?,
                threshold: self.u32()?,
            },
            7 => Event::FreePoolSample {
                node,
                free: self.u32()?,
                resident: self.u32()?,
                deficit: self.u32()?,
                low: self.u32()?,
            },
            8 => Event::ThresholdSample {
                node,
                threshold: self.u32()?,
            },
            9 => Event::MissSample {
                node,
                total: self.varint()?,
                remote: self.varint()?,
            },
            10 => Event::NetSample {
                node,
                backlog: self.varint()?,
                messages: self.varint()?,
                queued: self.varint()?,
            },
            11 => Event::MemSample {
                node,
                l1_hits: self.varint()?,
                l1_misses: self.varint()?,
                bus_queued: self.varint()?,
                dram_queued: self.varint()?,
            },
            12 => {
                let page = self.page()?;
                let lr = self.byte()?;
                Event::MissServiced {
                    node,
                    page,
                    loc: nth(&MissLoc::ALL, u64::from(lr & 7))?,
                    refetch: lr & 8 != 0,
                    cycles: self.varint()?,
                }
            }
            13 => Event::NetDelay {
                node,
                queued: self.varint()?,
            },
            14 => Event::RemapCost {
                node,
                page: self.page()?,
                cycles: self.varint()?,
            },
            15 => Event::ReclaimLatency {
                node,
                reclaimed: self.u32()?,
                cycles: self.varint()?,
            },
            16 => Event::PhaseChange {
                node,
                window: self.varint()?,
                from: self.phase()?,
                to: self.phase()?,
                cause: nth(&Cause::ALL, p)?,
                dwell: self.varint()?,
            },
            17 => Event::TuneApplied {
                node,
                window: self.varint()?,
                inc_from: self.u32()?,
                inc_to: self.u32()?,
                period_from: self.varint()?,
                period_to: self.varint()?,
                cause: nth(&Cause::ALL, p)?,
            },
            _ => return None,
        };
        Some(TimedEvent { cycle, event })
    }
}

impl Iterator for Iter<'_> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        // Records never straddle blocks, so each starts in a fresh
        // block or where the previous one ended.
        while self.pos >= self.bytes.len() {
            self.bytes = match self.blocks.next() {
                Some(b) => b,
                None if !self.tail.is_empty() => std::mem::take(&mut self.tail),
                None => return None,
            };
            self.pos = 0;
        }
        let te = self.decode();
        if te.is_none() {
            // A malformed record ends the stream rather than desyncing it.
            self.pos = self.bytes.len();
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
            bytes: &[],
            pos: 0,
            last: Vec::new(),
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
        // Tag, node, cycle delta, page, loc/refetch, cycles: a byte each.
        assert_eq!(log.byte_len(), 6 * 1000);
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
        // Every block decodes on its own into whole records (node clocks
        // restart per block, but record boundaries do not depend on
        // them), and the blocks' records add up to the log.
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
