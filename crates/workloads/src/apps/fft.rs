//! `fft` — the SPLASH-2 six-step FFT (paper input: 256 K points, "tuned
//! for cache sizes").
//!
//! Structure reproduced: a complex data array block-partitioned by rows;
//! local butterfly compute phases sweep the node's own slab, and each
//! transpose phase reads one contiguous *tile* from every other node's
//! slab in long sequential runs.  Each remote page is touched in a single
//! dense streak a handful of times per run, so almost no page accumulates
//! the 64 refetches needed for relocation ("only a tiny fraction of pages
//! in fft are accessed enough to be eligible for relocation, so all of the
//! hybrid architectures effectively become CC-NUMAs") — and the sequential
//! 32-byte strides within 128-byte DSM blocks make the little RAC
//! surprisingly effective, the paper's "minor optimization \[that\] had a
//! larger impact on performance than we had anticipated".

use crate::synth::{sweep, sweep_private, Arena};
use crate::trace::{NodeProgram, ScheduleItem, Segment, Trace};

/// Parameters for the fft generator.
#[derive(Debug, Clone, Copy)]
pub struct FftParams {
    /// Compute nodes.
    pub nodes: usize,
    /// Complex points in the signal.
    pub points: u64,
    /// Bytes per point (complex double = 16).
    pub elem_bytes: u64,
    /// Transpose phases per run (six-step FFT: 3).
    pub transposes: u32,
    /// Outer repetitions of the whole FFT.
    pub iters: u32,
    /// User compute cycles per access in butterfly phases.
    pub compute_per_op: u32,
    /// Access stride within sweeps (bytes).
    pub stride: u64,
    /// Private scratch bytes (twiddle tables etc.) swept per phase.
    pub private_bytes: u64,
}

impl Default for FftParams {
    fn default() -> Self {
        Self {
            nodes: 8,
            points: 65_536,
            elem_bytes: 16,
            transposes: 3,
            iters: 2,
            compute_per_op: 6,
            stride: 32,
            private_bytes: 8 * 1024,
        }
    }
}

impl FftParams {
    /// A tiny configuration for tests.
    pub fn tiny() -> Self {
        Self {
            nodes: 4,
            points: 4096,
            iters: 1,
            ..Self::default()
        }
    }

    /// The paper's input scale (256 K points).
    pub fn paper() -> Self {
        Self {
            points: 262_144,
            ..Self::default()
        }
    }

    /// Build the trace.
    pub fn build(&self, page_bytes: u64) -> Trace {
        assert!(self.nodes >= 2);
        let mut arena = Arena::new(page_bytes);
        let data = arena.alloc_partitioned(self.points * self.elem_bytes, self.nodes);

        let mut programs = Vec::with_capacity(self.nodes);
        for n in 0..self.nodes {
            let mut prog = NodeProgram::default();
            let my = data.slab(n, self.nodes, page_bytes);

            // Butterfly compute phase: read+write sweep of own slab.
            let mut compute = Segment::new(self.compute_per_op);
            sweep(&mut compute, my.base, my.bytes, self.stride, false);
            sweep(&mut compute, my.base, my.bytes, self.stride, true);
            sweep_private(&mut compute, 0, self.private_bytes, 64, false);
            let ci = prog.add_segment(compute);

            // Transpose phase: read tile (n, j) of every other node's slab,
            // write the corresponding local tile.
            let mut transpose = Segment::new(2);
            for j in 0..self.nodes {
                if j == n {
                    continue;
                }
                let theirs = data.slab(j, self.nodes, page_bytes);
                let tile = theirs.bytes / self.nodes as u64;
                let tile = tile.max(self.stride);
                let off = (n as u64 * tile).min(theirs.bytes.saturating_sub(tile));
                sweep(&mut transpose, theirs.base + off, tile, self.stride, false);
                // Scatter into own slab (local writes).
                let mine_off = (j as u64 * tile).min(my.bytes.saturating_sub(tile));
                sweep(&mut transpose, my.base + mine_off, tile, self.stride, true);
            }
            let ti = prog.add_segment(transpose);

            for _ in 0..self.iters {
                prog.schedule.push(ScheduleItem::Run(ci));
                prog.schedule.push(ScheduleItem::Barrier);
                for _ in 0..self.transposes {
                    prog.schedule.push(ScheduleItem::Run(ti));
                    prog.schedule.push(ScheduleItem::Barrier);
                    prog.schedule.push(ScheduleItem::Run(ci));
                    prog.schedule.push(ScheduleItem::Barrier);
                }
            }
            programs.push(prog);
        }

        let shared_pages = arena.pages();
        Trace {
            name: "fft".into(),
            nodes: self.nodes,
            shared_pages,
            first_toucher: arena.into_first_toucher(),
            programs,
        }
    }
}

/// Convenience: build with default parameters.
pub fn fft(page_bytes: u64) -> Trace {
    FftParams::default().build(page_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::profile;

    #[test]
    fn builds_valid_trace() {
        let t = FftParams::tiny().build(4096);
        t.validate(4096);
        assert!(t.total_ops() > 0);
    }

    #[test]
    fn remote_tiles_touch_a_slice_of_every_peer() {
        let p = FftParams::default();
        let prof = profile(&p.build(4096), 4096);
        // Each node reads one tile (1/nodes of a slab) from each peer.
        let slab_pages = (p.points * p.elem_bytes / p.nodes as u64 / 4096) as usize;
        let tile_pages = slab_pages / p.nodes + 2;
        assert!(prof.max_remote_pages <= (p.nodes - 1) * tile_pages);
        assert!(prof.max_remote_pages >= (p.nodes - 1) * (slab_pages / p.nodes) / 2);
    }

    #[test]
    fn remote_accesses_are_a_small_fraction() {
        let prof = profile(&FftParams::default().build(4096), 4096);
        // Compute phases dominate; transposes are the only remote traffic.
        assert!(
            prof.remote_access_fraction < 0.35,
            "remote fraction {}",
            prof.remote_access_fraction
        );
    }

    #[test]
    fn transpose_reads_are_sequential_within_pages() {
        // Sequentiality is what makes the RAC work: consecutive shared
        // reads in the transpose segment must be 32 bytes apart within
        // long runs.
        let t = FftParams::tiny().build(4096);
        let prog = &t.programs[0];
        let transpose = &prog.segments[1];
        let reads: Vec<u64> = transpose
            .ops
            .iter()
            .filter(|o| !o.write() && !o.private())
            .map(|o| o.addr())
            .collect();
        let sequential = reads.windows(2).filter(|w| w[1] == w[0] + 32).count();
        assert!(
            sequential * 10 >= reads.len() * 8,
            "transpose reads not sequential enough: {sequential}/{}",
            reads.len()
        );
    }

    #[test]
    fn barrier_structure_consistent() {
        let t = FftParams::tiny().build(4096);
        let b = t.programs[0].barrier_count();
        assert!(t.programs.iter().all(|p| p.barrier_count() == b));
    }
}
