//! Bitsets over a query's relations, the DP's subset currency.

use pinum_query::RelIdx;
use std::fmt;

/// A set of relations of one query (bit `r` = relation `r` is present).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelSet(pub u32);

impl RelSet {
    pub const EMPTY: RelSet = RelSet(0);

    /// The singleton set `{rel}`.
    pub fn single(rel: RelIdx) -> Self {
        RelSet(1 << rel)
    }

    /// All relations `0..n`.
    pub fn all(n: usize) -> Self {
        debug_assert!(n <= 32);
        if n == 32 {
            RelSet(u32::MAX)
        } else {
            RelSet((1u32 << n) - 1)
        }
    }

    pub fn contains(self, rel: RelIdx) -> bool {
        self.0 & (1 << rel) != 0
    }

    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn union(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    pub fn is_subset_of(self, other: RelSet) -> bool {
        self.0 & !other.0 == 0
    }

    pub fn insert(self, rel: RelIdx) -> RelSet {
        RelSet(self.0 | (1 << rel))
    }

    /// Iterates the members in ascending order.
    pub fn iter(self) -> impl Iterator<Item = RelIdx> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let r = bits.trailing_zeros() as RelIdx;
                bits &= bits - 1;
                Some(r)
            }
        })
    }

    /// Lowest member (panics on empty set).
    pub fn first(self) -> RelIdx {
        debug_assert!(!self.is_empty());
        self.0.trailing_zeros() as RelIdx
    }

    /// Iterates all non-empty **proper** subsets of `self` that contain the
    /// lowest member — the standard trick to enumerate each unordered
    /// partition `{L, R}` exactly once in join DP.
    pub fn proper_submasks_with_first(self) -> impl Iterator<Item = RelSet> {
        let full = self.0;
        let anchor = 1u32 << self.first();
        let free = full & !anchor;
        // Enumerate submasks of `free`, each unioned with the anchor; skip
        // the full set itself.
        let mut sub = free;
        let mut done = false;
        std::iter::from_fn(move || loop {
            if done {
                return None;
            }
            let current = sub | anchor;
            if sub == 0 {
                done = true;
            } else {
                sub = (sub - 1) & free;
            }
            if current != full {
                return Some(RelSet(current));
            }
        })
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let s = RelSet::single(0).union(RelSet::single(2));
        assert!(s.contains(0) && !s.contains(1) && s.contains(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.first(), 0);
        assert!(RelSet::single(0).is_subset_of(s));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(RelSet::all(3), RelSet(0b111));
    }

    #[test]
    fn partition_enumeration_is_exact() {
        // {0,1,2}: partitions with anchor 0 are {0},{0,1},{0,2} — the
        // complements {1,2},{2},{1} complete each split exactly once.
        let s = RelSet::all(3);
        let parts: Vec<RelSet> = s.proper_submasks_with_first().collect();
        assert_eq!(parts.len(), 3);
        for l in &parts {
            assert!(l.contains(0));
            let r = RelSet(s.0 & !l.0);
            assert!(!r.is_empty());
            assert_eq!(l.union(r), s);
        }
        // 4 relations → 2^3 - 1 = 7 splits.
        assert_eq!(RelSet::all(4).proper_submasks_with_first().count(), 7);
    }

    #[test]
    fn singleton_has_no_partitions() {
        assert_eq!(RelSet::single(3).proper_submasks_with_first().count(), 0);
    }

    #[test]
    fn display() {
        assert_eq!(RelSet::all(2).to_string(), "{0,1}");
        assert_eq!(RelSet::EMPTY.to_string(), "{}");
    }
}
