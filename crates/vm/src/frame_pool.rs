//! The free-frame pool of a node.
//!
//! "The kernel maintains a pool of free local pages that it can use to
//! satisfy allocation or relocation requests.  The pageout daemon attempts
//! to keep the size of this pool between `free_target` and `free_min`
//! pages."  Memory pressure (the paper's central experimental variable) is
//! the fraction of a node's frames consumed by home pages; the remainder —
//! this pool — is what S-COMA and the hybrids use as a page cache.

/// A node's physical frame pool.
#[derive(Debug, Clone)]
pub struct FramePool {
    total_frames: u32,
    home_frames: u32,
    free: Vec<u32>,
    free_min: u32,
    free_target: u32,
    allocs: u64,
    low_watermark: u32,
    /// Seeded fault: `release` drops the frame on the floor.  Checker
    /// self-test builds only.
    #[cfg(feature = "check")]
    fault_leak_release: bool,
}

impl FramePool {
    /// A pool over `total_frames`, of which `home_frames` are permanently
    /// consumed by home pages (and the kernel).  `free_min` and
    /// `free_target` are the daemon's low/high water marks, in frames.
    pub fn new(total_frames: u32, home_frames: u32, free_min: u32, free_target: u32) -> Self {
        assert!(home_frames <= total_frames);
        assert!(free_min <= free_target);
        let free: Vec<u32> = (home_frames..total_frames).rev().collect();
        let low_watermark = free.len() as u32;
        Self {
            total_frames,
            home_frames,
            free,
            free_min,
            free_target,
            allocs: 0,
            low_watermark,
            #[cfg(feature = "check")]
            fault_leak_release: false,
        }
    }

    /// Arm the leak-on-release fault.  Checker self-test builds only.
    #[cfg(feature = "check")]
    pub fn inject_leak_release(&mut self, armed: bool) {
        self.fault_leak_release = armed;
    }

    /// Build from a memory pressure: a node holding `home_pages` home pages
    /// at `pressure` (0 < pressure <= 1) has `home_pages / pressure` total
    /// frames.  Water marks are fractions of total frames.
    pub fn from_pressure(
        home_pages: u32,
        pressure: f64,
        free_min_frac: f64,
        free_target_frac: f64,
    ) -> Self {
        assert!(pressure > 0.0 && pressure <= 1.0, "pressure in (0, 1]");
        let total = ((home_pages as f64 / pressure).round() as u32).max(home_pages);
        let free_min = ((total as f64 * free_min_frac).round() as u32).max(1);
        let free_target = ((total as f64 * free_target_frac).round() as u32).max(free_min);
        Self::new(total, home_pages, free_min, free_target)
    }

    /// Take a frame, if any are free.
    pub fn alloc(&mut self) -> Option<u32> {
        let f = self.free.pop();
        if f.is_some() {
            self.allocs += 1;
            self.low_watermark = self.low_watermark.min(self.free.len() as u32);
        }
        f
    }

    /// Return a frame to the pool.
    ///
    /// Out-of-range and double frees are caught in debug builds and in
    /// `check`-feature builds (the double-free scan is O(free), which is
    /// why it is not unconditional).
    pub fn release(&mut self, frame: u32) {
        // Seeded fault: the frame silently never returns to the pool —
        // no assertion here can see it; only machine-wide frame
        // conservation (free + resident == cache frames) catches it.
        #[cfg(feature = "check")]
        if self.fault_leak_release {
            return;
        }
        #[cfg(any(debug_assertions, feature = "check"))]
        {
            assert!(
                frame >= self.home_frames && frame < self.total_frames,
                "released frame {frame} out of page-cache range"
            );
            assert!(!self.free.contains(&frame), "double free of frame {frame}");
        }
        self.free.push(frame);
    }

    /// Frames currently free.
    pub fn free_count(&self) -> u32 {
        self.free.len() as u32
    }

    /// True if the pool has fallen below `free_min` (daemon trigger).
    pub fn below_min(&self) -> bool {
        self.free_count() < self.free_min
    }

    /// Frames the daemon must reclaim to reach `free_target` (0 if at or
    /// above target).
    pub fn deficit(&self) -> u32 {
        self.free_target.saturating_sub(self.free_count())
    }

    /// Total frames on the node.
    pub fn total_frames(&self) -> u32 {
        self.total_frames
    }

    /// Frames consumed by home pages.
    pub fn home_frames(&self) -> u32 {
        self.home_frames
    }

    /// Frames available to the page cache in total (free + S-COMA resident).
    pub fn cache_frames(&self) -> u32 {
        self.total_frames - self.home_frames
    }

    /// The daemon's low water mark.
    pub fn free_min(&self) -> u32 {
        self.free_min
    }

    /// The daemon's high water mark.
    pub fn free_target(&self) -> u32 {
        self.free_target
    }

    /// Actual memory pressure: home frames / total frames.
    pub fn pressure(&self) -> f64 {
        self.home_frames as f64 / self.total_frames as f64
    }

    /// Successful allocations over the pool's lifetime.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// The lowest free count ever observed (how deep the pool drained).
    pub fn low_watermark(&self) -> u32 {
        self.low_watermark
    }

    /// The free list itself (invariant checking / inspection).
    pub fn free_frames(&self) -> &[u32] {
        &self.free
    }

    /// Structural self-check: every free frame is in the page-cache range
    /// and listed exactly once, and the list never exceeds the page-cache
    /// partition.  `O(free log free)` — for barrier-time and test probes.
    pub fn validate(&self) -> Result<(), String> {
        if self.free.len() as u32 > self.cache_frames() {
            return Err(format!(
                "{} free frames exceed the {}-frame page cache",
                self.free.len(),
                self.cache_frames()
            ));
        }
        let mut sorted = self.free.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(format!("frame {} on the free list twice", w[0]));
            }
        }
        if let (Some(&lo), Some(&hi)) = (sorted.first(), sorted.last()) {
            if lo < self.home_frames || hi >= self.total_frames {
                return Err(format!(
                    "free list spans [{lo}, {hi}] outside the page-cache range [{}, {})",
                    self.home_frames, self.total_frames
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_empty() {
        let mut p = FramePool::new(10, 6, 1, 2);
        assert_eq!(p.free_count(), 4);
        let mut got = Vec::new();
        while let Some(f) = p.alloc() {
            got.push(f);
        }
        assert_eq!(got.len(), 4);
        // All frames are in the page-cache range.
        assert!(got.iter().all(|&f| (6..10).contains(&f)));
        assert_eq!(p.free_count(), 0);
    }

    #[test]
    fn release_returns_frames() {
        let mut p = FramePool::new(10, 6, 1, 2);
        let f = p.alloc().unwrap();
        p.release(f);
        assert_eq!(p.free_count(), 4);
    }

    #[test]
    fn watermarks() {
        let mut p = FramePool::new(20, 10, 3, 6);
        assert!(!p.below_min());
        assert_eq!(p.deficit(), 0);
        for _ in 0..8 {
            p.alloc();
        }
        assert_eq!(p.free_count(), 2);
        assert!(p.below_min());
        assert_eq!(p.deficit(), 4);
    }

    #[test]
    fn alloc_counters_and_low_watermark() {
        let mut p = FramePool::new(10, 6, 1, 2);
        assert_eq!(p.low_watermark(), 4);
        p.alloc();
        p.alloc();
        assert_eq!(p.allocs(), 2);
        assert_eq!(p.low_watermark(), 2);
        let f = p.alloc().unwrap();
        p.release(f);
        // The watermark records the deepest drain, not the current level.
        assert_eq!(p.low_watermark(), 1);
        assert_eq!(p.free_count(), 2);
    }

    #[test]
    fn from_pressure_sizes_total() {
        // 100 home pages at 50% pressure -> 200 frames, 100 free.
        let p = FramePool::from_pressure(100, 0.5, 0.02, 0.07);
        assert_eq!(p.total_frames(), 200);
        assert_eq!(p.free_count(), 100);
        assert_eq!(p.free_min(), 4);
        assert_eq!(p.free_target(), 14);
        assert!((p.pressure() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn from_pressure_high_pressure_leaves_little() {
        let p = FramePool::from_pressure(90, 0.9, 0.02, 0.07);
        assert_eq!(p.total_frames(), 100);
        assert_eq!(p.cache_frames(), 10);
    }

    #[test]
    fn pressure_one_hundred_percent_is_legal() {
        let p = FramePool::from_pressure(50, 1.0, 0.02, 0.07);
        assert_eq!(p.cache_frames(), 0);
        assert!(p.below_min());
    }

    #[test]
    #[should_panic(expected = "pressure in (0, 1]")]
    fn from_pressure_rejects_zero() {
        let _ = FramePool::from_pressure(10, 0.0, 0.02, 0.07);
    }
}
