//! # pinum-catalog
//!
//! Relational catalog and statistics substrate for the PINUM reproduction
//! ("Caching All Plans with Just One Optimizer Call", ICDE 2010).
//!
//! The paper's optimizer (PostgreSQL 8.3) consumes *statistics only*:
//! row counts, column widths, distinct counts, histograms, and index sizes.
//! This crate provides those, together with the two index size models the
//! paper contrasts in its what-if accuracy experiment (§VI-B):
//!
//! * **what-if (hypothetical) indexes** — sized from average attribute
//!   widths, alignment, and row counts, counting *leaf pages only*
//!   (paper §V-A);
//! * **materialized indexes** — additionally counting the internal B-tree
//!   pages derived from the fan-out, so that the small gap between the two
//!   models reproduces the sub-1 % what-if error of the paper.
//!
//! A [`Configuration`] is a set of (typically hypothetical) indexes layered
//! on top of a base [`Catalog`]; the optimizer sees the union of both.

pub mod config;
pub mod index;
pub mod page;
pub mod stats;
pub mod table;
pub mod types;

pub use config::{Configuration, ConfigurationBuilder};
pub use index::{Index, IndexId, IndexKind, IndexSize};
pub use stats::{ColumnStats, Histogram};
pub use table::{Column, Table};
pub use types::{ColumnRef, ColumnType, TableId};

use std::collections::HashMap;

/// The catalog: all base tables and all *materialized* indexes.
///
/// Hypothetical indexes live in a [`Configuration`], not here, mirroring the
/// paper's design where what-if indexes are injected per optimizer call.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<Table>,
    indexes: Vec<Index>,
    by_name: HashMap<String, TableId>,
    /// Materialized indexes grouped by table, in insertion order.
    by_table: HashMap<TableId, Vec<IndexId>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table and returns its id. Panics if the name is taken.
    pub fn add_table(&mut self, mut table: Table) -> TableId {
        assert!(
            !self.by_name.contains_key(table.name()),
            "duplicate table name {:?}",
            table.name()
        );
        let id = TableId(self.tables.len() as u32);
        table.assign_id(id);
        self.by_name.insert(table.name().to_string(), id);
        self.tables.push(table);
        id
    }

    /// Registers a *materialized* index over an existing table.
    pub fn add_index(&mut self, mut index: Index) -> IndexId {
        let id = IndexId(self.indexes.len() as u32);
        index.assign_id(id);
        let table = index.table();
        assert!(
            (table.0 as usize) < self.tables.len(),
            "index references unknown table"
        );
        self.by_table.entry(table).or_default().push(id);
        self.indexes.push(index);
        id
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Looks a table up by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// Mutable access to a table (statistics refresh, e.g. a workload
    /// generator wiring foreign-key domains). The id and name must not be
    /// changed through this reference; indexes keep their recorded sizes.
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        &mut self.tables[id.0 as usize]
    }

    /// Id of the table with the given name, if any.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// All tables in id order.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Looks a materialized index up by id.
    #[allow(clippy::should_implement_trait)] // "index" is the domain noun here
    pub fn index(&self, id: IndexId) -> &Index {
        &self.indexes[id.0 as usize]
    }

    /// All materialized indexes in id order.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Materialized indexes of one table.
    pub fn table_indexes(&self, table: TableId) -> &[IndexId] {
        self.by_table.get(&table).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::types::ColumnType;

    fn toy_table(name: &str, rows: u64, cols: usize) -> Table {
        let columns = (0..cols)
            .map(|i| Column::new(format!("c{i}"), ColumnType::Int8).with_ndv((rows / 2).max(1)))
            .collect();
        Table::new(name, rows, columns)
    }

    #[test]
    fn add_and_lookup_tables() {
        let mut cat = Catalog::new();
        let t0 = cat.add_table(toy_table("fact", 1_000_000, 8));
        let t1 = cat.add_table(toy_table("dim", 10_000, 4));
        assert_eq!(cat.table_count(), 2);
        assert_eq!(cat.table(t0).name(), "fact");
        assert_eq!(cat.table(t1).name(), "dim");
        assert_eq!(cat.table_id("fact"), Some(t0));
        assert_eq!(cat.table_id("nope"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_table_name_panics() {
        let mut cat = Catalog::new();
        cat.add_table(toy_table("t", 10, 1));
        cat.add_table(toy_table("t", 10, 1));
    }

    #[test]
    fn indexes_are_grouped_by_table() {
        let mut cat = Catalog::new();
        let t0 = cat.add_table(toy_table("fact", 1_000_000, 8));
        let t1 = cat.add_table(toy_table("dim", 10_000, 4));
        let i0 = cat.add_index(Index::materialized(&cat.table(t0).clone(), vec![0], false));
        let i1 = cat.add_index(Index::materialized(
            &cat.table(t0).clone(),
            vec![1, 2],
            false,
        ));
        let i2 = cat.add_index(Index::materialized(&cat.table(t1).clone(), vec![0], true));
        assert_eq!(cat.table_indexes(t0), &[i0, i1]);
        assert_eq!(cat.table_indexes(t1), &[i2]);
    }
}
