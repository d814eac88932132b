//! Candidate index pools and selections over them.
//!
//! The designer works against a fixed pool of candidate (hypothetical)
//! indexes; a [`Selection`] is the subset currently materialized in a
//! what-if configuration. Keeping candidates in one arena lets access-cost
//! entries reference them stably across thousands of evaluations.

use pinum_catalog::{Configuration, Index, TableId};
use std::collections::HashMap;

/// An immutable pool of deduplicated candidate indexes.
#[derive(Debug, Clone, Default)]
pub struct CandidatePool {
    indexes: Vec<Index>,
    by_table: HashMap<TableId, Vec<usize>>,
    /// Hashed structural identity → id, so [`CandidatePool::add`] dedups in
    /// O(1) instead of scanning (and re-cloning key columns of) every
    /// existing candidate on the table.
    dedup: HashMap<CandidateKey, usize>,
}

/// Structural identity of a candidate: same table, same key columns, same
/// uniqueness ⇒ same index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CandidateKey {
    table: TableId,
    key_columns: Box<[u16]>,
    unique: bool,
}

impl CandidateKey {
    fn of(index: &Index) -> Self {
        Self {
            table: index.table(),
            key_columns: index.key_columns().into(),
            unique: index.is_unique(),
        }
    }
}

impl CandidatePool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a pool from candidate indexes, dropping structural duplicates
    /// (same table, same key columns, same uniqueness).
    pub fn from_indexes(indexes: Vec<Index>) -> Self {
        let mut pool = Self::new();
        for ix in indexes {
            pool.add(ix);
        }
        pool
    }

    /// Adds a candidate unless an identical one exists; returns its id.
    pub fn add(&mut self, index: Index) -> usize {
        match self.dedup.entry(CandidateKey::of(&index)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let id = self.indexes.len();
                e.insert(id);
                self.by_table.entry(index.table()).or_default().push(id);
                self.indexes.push(index);
                id
            }
        }
    }

    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    #[allow(clippy::should_implement_trait)] // "index" is the domain noun here
    pub fn index(&self, id: usize) -> &Index {
        &self.indexes[id]
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Candidate ids on one table.
    pub fn on_table(&self, table: TableId) -> &[usize] {
        self.by_table.get(&table).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Builds a what-if [`Configuration`] from a selection; the i-th index
    /// of the configuration corresponds to `selection.ids()[i]`.
    pub fn configuration(&self, selection: &Selection) -> (Configuration, Vec<usize>) {
        let ids: Vec<usize> = selection.ids().collect();
        let cfg = Configuration::new(ids.iter().map(|&i| self.indexes[i].clone()).collect());
        (cfg, ids)
    }

    /// Total size in bytes of a selection.
    pub fn selection_bytes(&self, selection: &Selection) -> u64 {
        selection
            .ids()
            .map(|i| self.indexes[i].size().total_bytes())
            .sum()
    }
}

/// A subset of a [`CandidatePool`], as a growable bitset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Selection {
    words: Vec<u64>,
}

impl Selection {
    /// The empty selection.
    pub fn empty(pool_size: usize) -> Self {
        Self {
            words: vec![0; pool_size.div_ceil(64)],
        }
    }

    /// Every candidate selected.
    pub fn full(pool_size: usize) -> Self {
        let mut s = Self::empty(pool_size);
        for i in 0..pool_size {
            s.insert(i);
        }
        s
    }

    /// A selection from explicit ids.
    pub fn from_ids(pool_size: usize, ids: &[usize]) -> Self {
        let mut s = Self::empty(pool_size);
        for &i in ids {
            s.insert(i);
        }
        s
    }

    pub fn insert(&mut self, id: usize) {
        if id / 64 >= self.words.len() {
            self.words.resize(id / 64 + 1, 0);
        }
        self.words[id / 64] |= 1 << (id % 64);
    }

    pub fn remove(&mut self, id: usize) {
        if id / 64 < self.words.len() {
            self.words[id / 64] &= !(1 << (id % 64));
        }
    }

    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates selected ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let mut b = bits;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let i = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(w * 64 + i)
                }
            })
        })
    }

    /// The raw bitset words (bit `i` of word `i / 64` ⇔ candidate `i`
    /// selected): what the pricing kernel's arm scan reads, with one word
    /// load per arm, and what flat serialization writes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a selection from raw bitset words, validating the shape:
    /// exactly `pool_size.div_ceil(64)` words and no bit at or above
    /// `pool_size`. The inverse of [`Selection::words`] — round-tripping
    /// through it is bit-identical.
    pub fn from_words(pool_size: usize, words: Vec<u64>) -> Result<Self, &'static str> {
        if words.len() != pool_size.div_ceil(64) {
            return Err("selection word count does not match pool size");
        }
        let tail_bits = pool_size % 64;
        if tail_bits != 0 {
            let last = words.last().copied().unwrap_or(0);
            if last >> tail_bits != 0 {
                return Err("selection has bits beyond the pool size");
            }
        }
        Ok(Self { words })
    }

    /// A copy with one more candidate.
    pub fn with(&self, id: usize) -> Self {
        let mut s = self.clone();
        s.insert(id);
        s
    }

    /// A copy with one candidate removed.
    pub fn without(&self, id: usize) -> Self {
        let mut s = self.clone();
        s.remove(id);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, Table};

    fn catalog() -> pinum_catalog::Catalog {
        let mut cat = pinum_catalog::Catalog::new();
        cat.add_table(Table::new(
            "t",
            100_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(100_000),
                Column::new("b", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat
    }

    #[test]
    fn pool_dedupes_structural_twins() {
        let cat = catalog();
        let t = cat.table(cat.table_id("t").unwrap());
        let mut pool = CandidatePool::new();
        let a = pool.add(Index::hypothetical(t, vec![0], false));
        let b = pool.add(Index::hypothetical(t, vec![0], false));
        let c = pool.add(Index::hypothetical(t, vec![0, 1], false));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.on_table(t.id()).len(), 2);
    }

    #[test]
    fn selection_bitset_semantics() {
        let mut s = Selection::empty(100);
        assert!(s.is_empty());
        s.insert(3);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![3, 64, 99]);
        s.remove(64);
        assert_eq!(s.len(), 2);
        let s2 = s.with(64);
        assert_eq!(s2.len(), 3);
        assert_eq!(s.len(), 2, "with() must not mutate");
        let s3 = s2.without(64);
        assert_eq!(s3.len(), 2);
        assert_eq!(s2.len(), 3, "without() must not mutate");
        assert!(!s3.contains(64));
    }

    #[test]
    fn full_and_from_ids() {
        let full = Selection::full(70);
        assert_eq!(full.len(), 70);
        let some = Selection::from_ids(70, &[0, 69]);
        assert_eq!(some.ids().collect::<Vec<_>>(), vec![0, 69]);
    }

    #[test]
    fn configuration_mapping_preserves_ids() {
        let cat = catalog();
        let t = cat.table(cat.table_id("t").unwrap());
        let mut pool = CandidatePool::new();
        pool.add(Index::hypothetical(t, vec![0], false));
        pool.add(Index::hypothetical(t, vec![1], false));
        pool.add(Index::hypothetical(t, vec![0, 1], false));
        let sel = Selection::from_ids(3, &[0, 2]);
        let (cfg, ids) = pool.configuration(&sel);
        assert_eq!(cfg.len(), 2);
        assert_eq!(ids, vec![0, 2]);
        assert!(pool.selection_bytes(&sel) > 0);
    }
}
