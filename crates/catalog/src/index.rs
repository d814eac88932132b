//! B-tree index metadata and the two size models (what-if vs materialized).

use crate::page;
use crate::table::Table;
use crate::types::{aligned_tuple_width, TableId};

/// Identifies a *materialized* index in the catalog. Hypothetical indexes in
/// a [`crate::Configuration`] get ids in a separate space (see
/// [`crate::config`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

/// Whether the index physically exists or is simulated for a what-if call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Real index: size model counts leaf *and* internal pages.
    Materialized,
    /// What-if index (paper §V-A): size model counts leaf pages only —
    /// "We ignore the internal pages of the B-Tree index, since they affect
    /// the relative page sizes only on very small indexes."
    Hypothetical,
}

/// Computed size of an index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexSize {
    pub leaf_pages: u64,
    pub internal_pages: u64,
    /// Tree height (number of descents from root to leaf).
    pub height: u32,
}

impl IndexSize {
    pub fn total_pages(&self) -> u64 {
        self.leaf_pages + self.internal_pages + 1 // +1 for the metapage
    }

    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * page::BLOCK_SIZE as u64
    }
}

/// A B-tree index over a prefix-ordered list of key columns.
///
/// Equality with another index is *structural*: same table, same key
/// columns, same uniqueness — used to deduplicate candidate sets.
#[derive(Debug, Clone)]
pub struct Index {
    id: IndexId,
    table: TableId,
    key_columns: Vec<u16>,
    unique: bool,
    kind: IndexKind,
    size: IndexSize,
    /// Correlation between index order and heap order for the leading key,
    /// copied from the leading column's statistics.
    correlation: f64,
    rows: u64,
    name: String,
}

impl Index {
    /// Builds a materialized index over `table` keyed on `key_columns`
    /// (ordinals, significant order).
    pub fn materialized(table: &Table, key_columns: Vec<u16>, unique: bool) -> Self {
        Self::build(table, key_columns, unique, IndexKind::Materialized)
    }

    /// Builds a hypothetical (what-if) index — leaf pages only.
    pub fn hypothetical(table: &Table, key_columns: Vec<u16>, unique: bool) -> Self {
        Self::build(table, key_columns, unique, IndexKind::Hypothetical)
    }

    fn build(table: &Table, key_columns: Vec<u16>, unique: bool, kind: IndexKind) -> Self {
        assert!(
            !key_columns.is_empty(),
            "index needs at least one key column"
        );
        for &k in &key_columns {
            assert!(
                (k as usize) < table.columns().len(),
                "index key column out of range"
            );
        }
        let size = compute_size(table, &key_columns, kind);
        let correlation = table.column(key_columns[0]).stats().correlation;
        let name = format!(
            "{}_{}_{}",
            table.name(),
            key_columns
                .iter()
                .map(|k| table.column(*k).name().to_string())
                .collect::<Vec<_>>()
                .join("_"),
            match kind {
                IndexKind::Materialized => "idx",
                IndexKind::Hypothetical => "whatif",
            }
        );
        Self {
            id: IndexId(u32::MAX),
            table: table.id(),
            key_columns,
            unique,
            kind,
            size,
            correlation,
            rows: table.rows(),
            name,
        }
    }

    pub(crate) fn assign_id(&mut self, id: IndexId) {
        self.id = id;
    }

    /// Rebuilds an index from a field-exact snapshot — the wire codec
    /// round-trips indexes through this. Unlike
    /// [`Self::materialized`]/[`Self::hypothetical`] nothing is derived:
    /// every field (id included) is taken verbatim, so a decoded index is
    /// bit-identical to the encoded one and sizes/correlations computed
    /// on the sender survive the trip.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        id: IndexId,
        table: TableId,
        key_columns: Vec<u16>,
        unique: bool,
        kind: IndexKind,
        size: IndexSize,
        correlation: f64,
        rows: u64,
        name: String,
    ) -> Self {
        assert!(
            !key_columns.is_empty(),
            "index needs at least one key column"
        );
        Self {
            id,
            table,
            key_columns,
            unique,
            kind,
            size,
            correlation,
            rows,
            name,
        }
    }

    pub fn id(&self) -> IndexId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn table(&self) -> TableId {
        self.table
    }

    /// Key column ordinals in significance order.
    pub fn key_columns(&self) -> &[u16] {
        &self.key_columns
    }

    /// The leading key column — per the paper's definition 4, an index
    /// *covers* an interesting order iff that order is its first column.
    pub fn leading_column(&self) -> u16 {
        self.key_columns[0]
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }

    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    pub fn size(&self) -> IndexSize {
        self.size
    }

    pub fn correlation(&self) -> f64 {
        self.correlation
    }

    /// Number of index tuples (= table rows; we do not model partial
    /// indexes).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// True if every column in `ordinals` is a key column, i.e. an
    /// index-only scan can answer a query touching just those columns.
    pub fn covers_columns(&self, ordinals: &[u16]) -> bool {
        ordinals.iter().all(|o| self.key_columns.contains(o))
    }
}

/// Size model shared by both kinds; the only difference is whether internal
/// pages are counted (see [`IndexKind`]).
fn compute_size(table: &Table, key_columns: &[u16], kind: IndexKind) -> IndexSize {
    let types: Vec<_> = key_columns.iter().map(|k| table.column(*k).ty()).collect();
    let tuple = aligned_tuple_width(page::INDEX_TUPLE_HEADER, types.iter());
    let usable_leaf = (page::btree_usable_bytes() as f64 * page::BTREE_LEAF_FILL) as u32;
    let per_leaf = (usable_leaf / (tuple + page::ITEM_ID)).max(1) as u64;
    let leaf_pages = table.rows().div_ceil(per_leaf).max(1);

    // Internal pages: each downlink stores the same key payload + a block
    // pointer; fan-out from the non-leaf fill factor.
    let usable_internal = (page::btree_usable_bytes() as f64 * page::BTREE_NONLEAF_FILL) as u32;
    let fanout = (usable_internal / (tuple + page::ITEM_ID)).max(2) as u64;
    let mut internal_pages = 0u64;
    let mut height = 0u32;
    let mut level = leaf_pages;
    while level > 1 {
        level = level.div_ceil(fanout);
        internal_pages += level;
        height += 1;
    }
    match kind {
        IndexKind::Materialized => IndexSize {
            leaf_pages,
            internal_pages,
            height,
        },
        // What-if sizing per §V-A: internal pages ignored, but the descent
        // height is still known to the cost model.
        IndexKind::Hypothetical => IndexSize {
            leaf_pages,
            internal_pages: 0,
            height,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::types::ColumnType;

    fn table(rows: u64) -> Table {
        let mut t = Table::new(
            "t",
            rows,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(rows.max(1)),
                Column::new("b", ColumnType::Int4).with_ndv(100),
            ],
        );
        t.assign_id(TableId(0));
        t
    }

    #[test]
    fn whatif_has_no_internal_pages() {
        let t = table(10_000_000);
        let m = Index::materialized(&t, vec![0], false);
        let h = Index::hypothetical(&t, vec![0], false);
        assert_eq!(m.size().leaf_pages, h.size().leaf_pages);
        assert!(m.size().internal_pages > 0);
        assert_eq!(h.size().internal_pages, 0);
        assert_eq!(m.size().height, h.size().height);
    }

    /// The §V-A size gap of the what-if twin, relative to the materialized
    /// index: `(materialized_pages - whatif_pages) / materialized_pages`.
    fn whatif_gap(rows: u64) -> f64 {
        let t = table(rows);
        let m = Index::materialized(&t, vec![0], false).size().total_pages() as f64;
        let h = Index::hypothetical(&t, vec![0], false).size().total_pages() as f64;
        (m - h) / m
    }

    #[test]
    fn whatif_gap_is_small_but_positive_for_large_indexes() {
        let gap = whatif_gap(50_000_000);
        assert!(gap > 0.0, "the what-if twin must have fewer pages");
        assert!(gap < 0.02, "gap {gap} should stay below 2 %");
    }

    #[test]
    fn whatif_gap_larger_for_tiny_indexes() {
        // "they affect the relative page sizes only on very small indexes"
        assert!(whatif_gap(2_000) >= whatif_gap(50_000_000));
    }

    #[test]
    fn internal_pages_are_a_small_fraction() {
        // The paper's what-if error is sub-1 %; the page-count gap between
        // the models must therefore be small for non-tiny indexes.
        let t = table(10_000_000);
        let m = Index::materialized(&t, vec![0], false);
        let frac = m.size().internal_pages as f64 / m.size().leaf_pages as f64;
        assert!(frac < 0.02, "internal fraction {frac} too large");
    }

    #[test]
    fn more_columns_means_more_pages() {
        let t = table(1_000_000);
        let one = Index::hypothetical(&t, vec![0], false);
        let two = Index::hypothetical(&t, vec![0, 1], false);
        assert!(two.size().leaf_pages > one.size().leaf_pages);
    }

    #[test]
    fn height_grows_with_rows() {
        let small = Index::materialized(&table(100), vec![0], false);
        let big = Index::materialized(&table(100_000_000), vec![0], false);
        assert!(big.size().height > small.size().height);
        assert_eq!(small.size().height, 0); // single leaf page, no descent
    }

    #[test]
    fn covering_check() {
        let t = table(1000);
        let ix = Index::materialized(&t, vec![0, 1], false);
        assert!(ix.covers_columns(&[0]));
        assert!(ix.covers_columns(&[1, 0]));
        assert_eq!(ix.leading_column(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_key_column_panics() {
        let t = table(1000);
        Index::materialized(&t, vec![9], false);
    }
}
