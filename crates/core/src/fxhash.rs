//! A fast, non-cryptographic hasher for the engine's hot paths.
//!
//! The standard library's default `SipHash` is DoS-resistant but costs tens
//! of cycles per write; unique-table and compute-cache keys here are small
//! fixed-size integer tuples produced by the engine itself, so a
//! multiplicative FxHash-style mix (as used by rustc) is both safe and
//! several times faster.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The golden-ratio multiplier (`2^64 / φ`, forced odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiplicative word-at-a-time hasher (FxHash).
///
/// Each written word is xor-ed into the state, which is then rotated and
/// multiplied by a fixed odd seed; short integer keys hash in a handful
/// of cycles.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            // aq-lint: allow(R1): chunks_exact(8) yields exactly 8-byte slices
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` producing [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Hashes a value once with [`FxHasher`] (for tables that store precomputed
/// hashes).
#[inline]
pub fn fx_hash<T: Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_value_sensitive() {
        assert_eq!(fx_hash(&(1u32, 2u32)), fx_hash(&(1u32, 2u32)));
        assert_ne!(fx_hash(&(1u32, 2u32)), fx_hash(&(2u32, 1u32)));
        assert_ne!(fx_hash(&0u64), fx_hash(&1u64));
    }

    #[test]
    fn byte_writes_cover_remainders() {
        // exercise the chunked `write` path with non-multiple-of-8 lengths
        for len in 0..20usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let first = h.finish();
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(first, h2.finish());
        }
    }

    #[test]
    fn fx_map_basic() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * i);
        }
        assert_eq!(m.get(&31), Some(&961));
        assert_eq!(m.len(), 1000);
    }
}
