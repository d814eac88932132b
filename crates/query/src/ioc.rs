//! Interesting orders and interesting-order combinations (paper defs 2–4).
//!
//! An [`Ioc`] is nibble-packed into a `u64`: relation `r`'s nibble holds `0`
//! for "no order required" (the paper's Φ) or `1 + k` for the `k`-th entry
//! of that relation's interesting-order list. This makes the subset test at
//! the heart of PINUM's pruning rule (§V-D) a couple of bit operations.

use crate::{RelIdx, MAX_ORDERS_PER_REL, MAX_RELATIONS};

/// The interesting orders of one query: for each relation, the sorted,
/// deduplicated column ordinals that appear in join / GROUP BY / ORDER BY
/// clauses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterestingOrders {
    per_rel: Vec<Vec<u16>>,
}

impl InterestingOrders {
    /// Wraps per-relation order lists (must already be sorted + deduped).
    pub fn new(per_rel: Vec<Vec<u16>>) -> Self {
        assert!(per_rel.len() <= MAX_RELATIONS);
        for cols in &per_rel {
            assert!(cols.len() <= MAX_ORDERS_PER_REL);
            debug_assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "orders must be sorted"
            );
        }
        Self { per_rel }
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.per_rel.len()
    }

    /// Interesting-order columns of relation `rel`.
    pub fn orders_of(&self, rel: RelIdx) -> &[u16] {
        &self.per_rel[rel as usize]
    }

    /// Number of interesting-order combinations:
    /// `Π_r (orders_r + 1)` — the paper's counting (e.g. 648 for TPC-H Q5).
    pub fn combination_count(&self) -> u64 {
        self.per_rel
            .iter()
            .map(|cols| cols.len() as u64 + 1)
            .product()
    }

    /// Iterates every IOC, including the all-Φ combination, in a stable
    /// lexicographic order.
    pub fn combinations(&self) -> IocIter<'_> {
        IocIter {
            orders: self,
            next: Some(Ioc::NONE),
        }
    }

    /// Encodes a choice of order per relation into an [`Ioc`]. `None`
    /// means Φ; `Some(col)` must be one of that relation's orders.
    pub fn encode(&self, choices: &[Option<u16>]) -> Ioc {
        assert_eq!(choices.len(), self.per_rel.len());
        let mut ioc = Ioc::NONE;
        for (rel, choice) in choices.iter().enumerate() {
            if let Some(col) = choice {
                let k = self.per_rel[rel]
                    .iter()
                    .position(|c| c == col)
                    .expect("column is not an interesting order of this relation");
                ioc = ioc.with_order(rel as RelIdx, k as u8);
            }
        }
        ioc
    }

    /// The column required on `rel` by `ioc`, if any.
    pub fn column_of(&self, ioc: Ioc, rel: RelIdx) -> Option<u16> {
        let nib = ioc.nibble(rel);
        if nib == 0 {
            None
        } else {
            Some(self.per_rel[rel as usize][(nib - 1) as usize])
        }
    }

    /// Decodes an [`Ioc`] into per-relation column choices.
    pub fn decode(&self, ioc: Ioc) -> Vec<Option<u16>> {
        (0..self.per_rel.len() as RelIdx)
            .map(|rel| self.column_of(ioc, rel))
            .collect()
    }
}

/// A nibble-packed interesting-order combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ioc(u64);

/// Mask with the low bit of every nibble set.
const NIBBLE_LOW: u64 = 0x1111_1111_1111_1111;

/// Collapses each nibble of `x` to a 1 (in the nibble's low bit) if the
/// nibble is non-zero.
#[inline]
fn nibble_nonzero_mask(x: u64) -> u64 {
    (x | (x >> 1) | (x >> 2) | (x >> 3)) & NIBBLE_LOW
}

impl Ioc {
    /// The all-Φ combination: no relation requires an order.
    pub const NONE: Ioc = Ioc(0);

    /// Raw encoding (for hashing/sorting).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a combination from its [`Self::raw`] encoding — the wire
    /// codec round-trips IOCs through this. The encoding is only
    /// meaningful against the same [`InterestingOrders`] it was packed
    /// for.
    pub fn from_raw(raw: u64) -> Ioc {
        Ioc(raw)
    }

    /// The nibble of relation `rel`: `0` for Φ, else 1-based order index.
    #[inline]
    pub fn nibble(self, rel: RelIdx) -> u8 {
        ((self.0 >> (rel * 4)) & 0xF) as u8
    }

    /// This combination with relation `rel` requiring its `k`-th (0-based)
    /// interesting order.
    #[inline]
    pub fn with_order(self, rel: RelIdx, k: u8) -> Ioc {
        debug_assert!((k as usize) < MAX_ORDERS_PER_REL);
        debug_assert!((rel as usize) < MAX_RELATIONS);
        let shift = rel * 4;
        Ioc((self.0 & !(0xF << shift)) | (((k as u64) + 1) << shift))
    }

    /// This combination with relation `rel` reset to Φ.
    #[inline]
    pub fn without(self, rel: RelIdx) -> Ioc {
        Ioc(self.0 & !(0xF << (rel * 4)))
    }

    /// True if every order required by `self` is also required by `other`
    /// — the `S_A ⊆ S_B` of the paper's pruning condition.
    #[inline]
    pub fn is_subset_of(self, other: Ioc) -> bool {
        // For every non-zero nibble of self, other's nibble must be equal:
        // i.e. no nibble may be (self != 0) && (self ^ other != 0).
        nibble_nonzero_mask(self.0) & nibble_nonzero_mask(self.0 ^ other.0) == 0
    }

    /// Merges two combinations if they do not conflict (no relation with two
    /// different required orders).
    #[inline]
    pub fn union(self, other: Ioc) -> Option<Ioc> {
        let conflict = nibble_nonzero_mask(self.0)
            & nibble_nonzero_mask(other.0)
            & nibble_nonzero_mask(self.0 ^ other.0);
        if conflict != 0 {
            None
        } else {
            Some(Ioc(self.0 | other.0))
        }
    }

    /// Renders the combination like the paper's `(A, Φ, C)` notation, given
    /// the order lists.
    pub fn display(self, orders: &InterestingOrders) -> String {
        let parts: Vec<String> = (0..orders.relation_count() as RelIdx)
            .map(|rel| match orders.column_of(self, rel) {
                Some(col) => format!("c{col}"),
                None => "Φ".to_string(),
            })
            .collect();
        format!("({})", parts.join(","))
    }
}

/// Iterator over all combinations of an [`InterestingOrders`].
pub struct IocIter<'a> {
    orders: &'a InterestingOrders,
    next: Option<Ioc>,
}

impl Iterator for IocIter<'_> {
    type Item = Ioc;

    fn next(&mut self) -> Option<Ioc> {
        let current = self.next?;
        // Odometer increment over nibbles.
        let mut succ = current;
        let mut rel = 0usize;
        loop {
            if rel >= self.orders.relation_count() {
                self.next = None;
                break;
            }
            let nib = succ.nibble(rel as RelIdx);
            if (nib as usize) < self.orders.orders_of(rel as RelIdx).len() {
                succ = succ.with_order(rel as RelIdx, nib); // nib is 0-based next index
                self.next = Some(succ);
                break;
            }
            succ = succ.without(rel as RelIdx);
            rel += 1;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn io(counts: &[usize]) -> InterestingOrders {
        InterestingOrders::new(counts.iter().map(|&n| (0..n as u16).collect()).collect())
    }

    #[test]
    fn combination_count_is_product() {
        assert_eq!(io(&[1, 2, 2]).combination_count(), 18);
        assert_eq!(io(&[3, 2, 2, 2, 2, 1]).combination_count(), 648); // TPC-H Q5
        assert_eq!(io(&[0, 0]).combination_count(), 1);
    }

    #[test]
    fn iterator_yields_exactly_all_combinations() {
        let orders = io(&[1, 2, 2]);
        let all: Vec<Ioc> = orders.combinations().collect();
        assert_eq!(all.len(), 18);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), 18);
        assert!(all.contains(&Ioc::NONE));
    }

    #[test]
    fn subset_semantics() {
        let a = Ioc::NONE.with_order(0, 0); // (A, Φ, Φ)
        let ab = a.with_order(1, 1); // (A, B2, Φ)
        let b = Ioc::NONE.with_order(1, 1);
        let other = Ioc::NONE.with_order(0, 1); // different order on rel 0
        assert!(Ioc::NONE.is_subset_of(a));
        assert!(a.is_subset_of(ab));
        assert!(b.is_subset_of(ab));
        assert!(!ab.is_subset_of(a));
        assert!(!other.is_subset_of(ab));
        assert!(a.is_subset_of(a));
    }

    #[test]
    fn union_detects_conflicts() {
        let a = Ioc::NONE.with_order(0, 0);
        let b = Ioc::NONE.with_order(1, 1);
        let conflict = Ioc::NONE.with_order(0, 1);
        let u = a.union(b).unwrap();
        assert_eq!(u.nibble(0), 1);
        assert_eq!(u.nibble(1), 2);
        assert!(a.union(conflict).is_none());
        assert_eq!(a.union(a), Some(a));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let orders = InterestingOrders::new(vec![vec![3, 7], vec![], vec![1]]);
        let ioc = orders.encode(&[Some(7), None, Some(1)]);
        assert_eq!(orders.decode(ioc), vec![Some(7), None, Some(1)]);
        assert_eq!(orders.column_of(ioc, 0), Some(7));
        assert_eq!(orders.column_of(ioc, 1), None);
    }

    #[test]
    fn display_matches_paper_notation() {
        let orders = InterestingOrders::new(vec![vec![0], vec![2]]);
        let ioc = orders.encode(&[Some(0), None]);
        assert_eq!(ioc.display(&orders), "(c0,Φ)");
    }
}
