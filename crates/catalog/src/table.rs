//! Base tables: column definitions, row counts and heap page estimates.

use crate::page;
use crate::stats::ColumnStats;
use crate::types::{aligned_tuple_width, ColumnRef, ColumnType, TableId};

/// A column definition together with its statistics.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    ty: ColumnType,
    stats: ColumnStats,
}

impl Column {
    /// A new column with default (uniform) statistics.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
            stats: ColumnStats::default(),
        }
    }

    /// Replaces the statistics wholesale.
    pub fn with_stats(mut self, stats: ColumnStats) -> Self {
        self.stats = stats;
        self
    }

    /// Convenience: sets the distinct count, keeping a uniform histogram
    /// over `[0, ndv)` (the paper's columns are uniform positive integers).
    pub fn with_ndv(mut self, ndv: u64) -> Self {
        self.stats = ColumnStats::uniform(0.0, ndv as f64, ndv as f64);
        self
    }

    /// Marks the column as physically correlated with the heap order
    /// (e.g. a serially assigned key).
    pub fn with_correlation(mut self, corr: f64) -> Self {
        self.stats.correlation = corr.clamp(-1.0, 1.0);
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn ty(&self) -> ColumnType {
        self.ty
    }

    pub fn stats(&self) -> &ColumnStats {
        &self.stats
    }

    pub fn stats_mut(&mut self) -> &mut ColumnStats {
        &mut self.stats
    }
}

/// A base table: columns, cardinality, and derived storage footprint.
#[derive(Debug, Clone)]
pub struct Table {
    id: TableId,
    name: String,
    rows: u64,
    columns: Vec<Column>,
}

impl Table {
    /// Creates a table; the id is assigned when it is added to a catalog.
    pub fn new(name: impl Into<String>, rows: u64, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "tables need at least one column");
        Self {
            id: TableId(u32::MAX),
            name: name.into(),
            rows,
            columns,
        }
    }

    pub(crate) fn assign_id(&mut self, id: TableId) {
        self.id = id;
    }

    pub fn id(&self) -> TableId {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Estimated number of rows (`pg_class.reltuples`).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn column(&self, ordinal: u16) -> &Column {
        &self.columns[ordinal as usize]
    }

    pub fn column_mut(&mut self, ordinal: u16) -> &mut Column {
        &mut self.columns[ordinal as usize]
    }

    /// Ordinal of the column with this name.
    pub fn column_ordinal(&self, name: &str) -> Option<u16> {
        self.columns
            .iter()
            .position(|c| c.name() == name)
            .map(|i| i as u16)
    }

    /// A [`ColumnRef`] for one of this table's columns.
    pub fn col(&self, ordinal: u16) -> ColumnRef {
        assert!((ordinal as usize) < self.columns.len());
        ColumnRef::new(self.id, ordinal)
    }

    /// Average heap tuple width, including the aligned tuple header.
    pub fn tuple_width(&self) -> u32 {
        aligned_tuple_width(
            page::HEAP_TUPLE_HEADER,
            self.columns
                .iter()
                .map(Column::ty)
                .collect::<Vec<_>>()
                .iter(),
        )
    }

    /// Average width of just the data payload for a subset of columns
    /// (used for sort/hash width estimates).
    pub fn data_width(&self, ordinals: &[u16]) -> u32 {
        aligned_tuple_width(
            0,
            ordinals
                .iter()
                .map(|o| self.columns[*o as usize].ty())
                .collect::<Vec<_>>()
                .iter(),
        )
    }

    /// Estimated heap pages (`pg_class.relpages`).
    pub fn heap_pages(&self) -> u64 {
        page::heap_pages(self.rows, self.tuple_width())
    }

    /// Total heap bytes.
    pub fn heap_bytes(&self) -> u64 {
        self.heap_pages() * page::BLOCK_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        Table::new(
            "t",
            10_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(10_000),
                Column::new("b", ColumnType::Int4).with_ndv(100),
                Column::new("c", ColumnType::Int4).with_ndv(50),
            ],
        )
    }

    #[test]
    fn tuple_width_includes_header_and_padding() {
        let table = t();
        // header 23→24, int8 at 24→32, two int4 at 32..40, MAXALIGN → 40.
        assert_eq!(table.tuple_width(), 40);
    }

    #[test]
    fn heap_pages_scale_with_rows() {
        let table = t();
        let p = table.heap_pages();
        assert!(p > 0);
        let bigger = Table::new("t", 20_000, t().columns().to_vec());
        assert!(bigger.heap_pages() >= 2 * p - 1);
    }

    #[test]
    fn column_lookup() {
        let table = t();
        assert_eq!(table.column_ordinal("b"), Some(1));
        assert_eq!(table.column_ordinal("zz"), None);
        assert_eq!(table.column(2).name(), "c");
    }

    #[test]
    fn data_width_subset() {
        let table = t();
        // one int4 → 4 bytes, MAXALIGNed to 8.
        assert_eq!(table.data_width(&[1]), 8);
        // int8 + int4 → 12, aligned to 16.
        assert_eq!(table.data_width(&[0, 1]), 16);
    }
}
