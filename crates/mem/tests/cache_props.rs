//! Property tests: the tag-word cache against a naive reference model.
//! Any divergence in hit/miss classification, victims, dirtiness,
//! residency or invalidation counts between the optimized tag store and
//! the obviously-correct map-based model is a bug.
//!
//! Random operation sequences come from the vendored deterministic RNG
//! (`ascoma_sim::rng::SimRng`), so a failure reproduces from the printed
//! geometry and seed.

use ascoma_mem::cache::{DirectMappedCache, Lookup, Victim};
use ascoma_sim::addr::VAddr;
use ascoma_sim::rng::SimRng;
use std::collections::HashMap;

/// Reference model: set index -> resident `(line address, dirty)` pairs,
/// least recently used first.
struct RefModel {
    sets: HashMap<u64, Vec<(u64, bool)>>,
    line_bytes: u64,
    nsets: u64,
    ways: usize,
}

impl RefModel {
    fn new(size: u64, line: u64, ways: usize) -> Self {
        Self {
            sets: HashMap::new(),
            line_bytes: line,
            nsets: size / line / ways as u64,
            ways,
        }
    }

    fn align(&self, a: u64) -> u64 {
        a & !(self.line_bytes - 1)
    }

    fn set(&mut self, a: u64) -> &mut Vec<(u64, bool)> {
        let s = (a / self.line_bytes) % self.nsets;
        self.sets.entry(s).or_default()
    }

    fn access(&mut self, a: u64, write: bool) -> Lookup {
        let a = self.align(a);
        let ways = self.ways;
        let set = self.set(a);
        if let Some(i) = set.iter().position(|&(addr, _)| addr == a) {
            let (addr, dirty) = set.remove(i);
            set.push((addr, dirty || write));
            return Lookup::Hit;
        }
        if set.len() < ways {
            Lookup::MissEmpty
        } else {
            let (addr, dirty) = set[0];
            Lookup::MissConflict(Victim {
                addr: VAddr(addr),
                dirty,
            })
        }
    }

    fn fill(&mut self, a: u64, write: bool) -> Option<Victim> {
        let a = self.align(a);
        let ways = self.ways;
        let set = self.set(a);
        if let Some(i) = set.iter().position(|&(addr, _)| addr == a) {
            let (addr, dirty) = set.remove(i);
            set.push((addr, dirty || write));
            return None;
        }
        let victim = (set.len() == ways).then(|| {
            let (addr, dirty) = set.remove(0);
            Victim {
                addr: VAddr(addr),
                dirty,
            }
        });
        set.push((a, write));
        victim
    }

    /// Line by line over the range, as the obvious implementation would.
    fn invalidate_range(&mut self, base: u64, span: u64) -> (u32, u32) {
        let mut n = 0;
        let mut d = 0;
        let mut a = self.align(base);
        while a < base + span {
            let set = self.set(a);
            if let Some(i) = set.iter().position(|&(addr, _)| addr == a) {
                let (_, dirty) = set.remove(i);
                n += 1;
                d += dirty as u32;
            }
            a += self.line_bytes;
        }
        (n, d)
    }

    fn line_dirty(&mut self, a: u64) -> Option<bool> {
        let a = self.align(a);
        let set = self.set(a);
        set.iter().find(|&&(addr, _)| addr == a).map(|&(_, d)| d)
    }

    fn occupancy(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }
}

/// One cache operation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Access(u64, bool),
    Fill(u64, bool),
    /// `invalidate_range(base, span)`.
    Inval(u64, u64),
}

/// A random operation over `[0, 8 * size)` (eight aliases per set).
/// Invalidation spans cover DSM blocks, pages, unaligned ranges, ranges
/// wider than the cache, and ranges whose sets wrap past the last one.
fn random_op(rng: &mut SimRng, size: u64, line: u64) -> CacheOp {
    let space = 8 * size;
    let a = rng.below(space);
    let w = rng.chance(0.5);
    match rng.below(100) {
        0..=44 => CacheOp::Access(a, w),
        45..=74 => CacheOp::Fill(a, w),
        75..=79 => CacheOp::Inval(a & !127, 128),
        80..=84 => CacheOp::Inval(a & !4095, 4096),
        85..=89 => CacheOp::Inval(a, rng.below(4 * line)),
        90..=93 => CacheOp::Inval(a, size + rng.below(3 * size)),
        _ => {
            // Starts in one of the last four sets' lines of some alias.
            let alias = rng.below(8) * size;
            let base = alias + size - line * (1 + rng.below(4)) + rng.below(line);
            CacheOp::Inval(base, line * (2 + rng.below(8)))
        }
    }
}

fn run_case(size: u64, line: u64, ways: usize, seed: u64, ops: usize) {
    let ctx = format!("size {size} line {line} ways {ways} seed {seed}");
    let mut rng = SimRng::seed_from(seed);
    let mut cache = DirectMappedCache::new_assoc(size, line, ways);
    let mut model = RefModel::new(size, line, ways);
    let mut accesses = 0u64;
    for step in 0..ops {
        let op = random_op(&mut rng, size, line);
        match op {
            CacheOp::Access(a, w) => {
                accesses += 1;
                assert_eq!(
                    cache.access(VAddr(a), w),
                    model.access(a, w),
                    "{ctx} step {step}: {op:?}"
                );
            }
            CacheOp::Fill(a, w) => assert_eq!(
                cache.fill(VAddr(a), w),
                model.fill(a, w),
                "{ctx} step {step}: {op:?}"
            ),
            CacheOp::Inval(base, span) => assert_eq!(
                cache.invalidate_range(VAddr(base), span),
                model.invalidate_range(base, span),
                "{ctx} step {step}: {op:?}"
            ),
        }
        assert_eq!(cache.occupancy(), model.occupancy(), "{ctx} step {step}");
        assert!(cache.occupancy() <= cache.num_sets(), "{ctx} step {step}");
    }
    cache.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    for a in (0..8 * size).step_by(line as usize) {
        assert_eq!(
            cache.line_dirty(VAddr(a)),
            model.line_dirty(a),
            "{ctx}: residency of {a:#x}"
        );
        assert_eq!(cache.contains(VAddr(a)), model.line_dirty(a).is_some());
    }
    let (h, m) = cache.stats();
    assert_eq!(h + m, accesses, "{ctx}: every access counted once");
}

#[test]
fn l1_geometry_matches_reference_model() {
    for ways in [1, 2, 4] {
        for seed in 0..48 {
            run_case(8 * 1024, 32, ways, seed, 600);
        }
    }
}

#[test]
fn rac_geometry_matches_reference_model() {
    for ways in [1, 2, 4] {
        for seed in 0..48 {
            run_case(512, 128, ways, seed, 600);
        }
    }
}
