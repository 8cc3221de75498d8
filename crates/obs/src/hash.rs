//! A small deterministic hasher for the per-event folds' hashed tables.
//!
//! `std`'s default `RandomState` seeds SipHash per process: safe against
//! adversarial keys, but slow for the `(node, page)` integer keys the
//! folds look up once per event, and pointlessly random for a
//! deterministic simulator.  This is the multiply-rotate hash used by
//! rustc (FxHash), vendored so the workspace stays dependency-free.  No
//! fold ever exposes a table's iteration order — outputs are sorted or
//! collected into a `BTreeMap` — so the hash only has to be fast.  Keys
//! crafted to collide (an adversarial JSONL trace fed to `inspect`) can
//! only slow that local fold down; they cannot change its output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher (not DoS-resistant).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte-at-a-time fallback; the folds' integer keys take the
    /// word-sized paths below.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hash_is_fixed_and_separates_keys() {
        assert_eq!(hash_of(1u64), SEED, "no per-process seed");
        assert_eq!(hash_of((3u16, 7u64)), hash_of((3u16, 7u64)));
        assert_ne!(hash_of((3u16, 7u64)), hash_of((7u16, 3u64)));
        assert_ne!(hash_of((0u16, 1u64)), hash_of((1u16, 0u64)));
    }
}
