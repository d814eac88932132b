//! The hasher of the planner's integer-keyed maps.
//!
//! Their keys — leaf IOCs, path ids, ordering ids — are made inside one
//! optimize call, never read from outside the program, so SipHash's guard
//! against crafted collisions buys nothing there and its rounds cost a
//! noticeable share of the keep-all DP's index lookups.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over integer keys made inside one optimize call.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Odd multiplier: ⌊2⁶⁴ / φ⌋.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded multiply: each integer written is XORed into the state, which is
/// multiplied to 128 bits and folded (high half XOR low half), so every key
/// bit reaches both the low bits a table indexes by and its high tag bits.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let product = u128::from(self.0 ^ x) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn distinct(hashes: impl Iterator<Item = u64>) -> usize {
        let mut hashes: Vec<u64> = hashes.collect();
        hashes.sort_unstable();
        hashes.dedup();
        hashes.len()
    }

    #[test]
    fn leaf_iocs_spread_like_random_keys() {
        let hash = |x: u64| BuildHasherDefault::<IntHasher>::default().hash_one(x);
        // Every IOC of six relations with nibbles 0..4 — 4 096 keys — in a
        // 4 096-bucket table: a random function fills 1 - 1/e ≈ 63 %.
        let ioc = |i: u64| (0..6).map(|r| (i >> (2 * r) & 3) << (4 * r)).sum::<u64>();
        let filled = distinct((0..4096).map(|i| hash(ioc(i)) & 0xFFF));
        assert!(filled >= 2_400, "{filled} of 4096 buckets");
        // A change in one relation's nibble alone, the highest included,
        // moves the low bits a table indexes by.
        for rel in 0..16 {
            let buckets = distinct((1..16u64).map(|v| hash(v << (4 * rel)) & 0xFF));
            assert!(buckets >= 10, "relation {rel}: {buckets} buckets");
        }
    }
}
