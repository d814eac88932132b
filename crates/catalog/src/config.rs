//! Configurations: sets of (hypothetical) indexes layered over a catalog.
//!
//! The paper evaluates *configurations* — "a set of indexes" (definition 1)
//! — by injecting what-if indexes into the optimizer. A configuration is
//! *atomic* with respect to a query if it has at most one index per table of
//! that query.

use crate::index::Index;
use crate::types::TableId;
use crate::Catalog;
use std::collections::HashMap;

/// An immutable set of indexes to be seen by one optimizer call, in addition
/// to the catalog's materialized indexes.
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    indexes: Vec<Index>,
    by_table: HashMap<TableId, Vec<usize>>,
}

impl Configuration {
    /// The empty configuration — the optimizer sees only materialized
    /// indexes.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a configuration from indexes (typically hypothetical ones).
    pub fn new(indexes: Vec<Index>) -> Self {
        let mut by_table: HashMap<TableId, Vec<usize>> = HashMap::new();
        for (i, ix) in indexes.iter().enumerate() {
            by_table.entry(ix.table()).or_default().push(i);
        }
        Self { indexes, by_table }
    }

    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Indexes of this configuration on one table.
    pub fn table_indexes(&self, table: TableId) -> impl Iterator<Item = &Index> + '_ {
        self.by_table
            .get(&table)
            .into_iter()
            .flat_map(move |v| v.iter().map(move |i| &self.indexes[*i]))
    }

    /// Total bytes of all configuration indexes (advisor budget accounting).
    pub fn total_bytes(&self) -> u64 {
        self.indexes.iter().map(|ix| ix.size().total_bytes()).sum()
    }
}

/// Incremental builder for configurations of hypothetical indexes.
#[derive(Debug, Default)]
pub struct ConfigurationBuilder {
    indexes: Vec<Index>,
}

impl ConfigurationBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a hypothetical single- or multi-column index on `table`.
    pub fn whatif_index(
        mut self,
        catalog: &Catalog,
        table: TableId,
        key_columns: Vec<u16>,
    ) -> Self {
        self.indexes.push(Index::hypothetical(
            catalog.table(table),
            key_columns,
            false,
        ));
        self
    }

    /// Adds an already-built index.
    pub fn index(mut self, index: Index) -> Self {
        self.indexes.push(index);
        self
    }

    pub fn build(self) -> Configuration {
        Configuration::new(self.indexes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Table};
    use crate::types::ColumnType;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(1_000_000),
                Column::new("b", ColumnType::Int4).with_ndv(1_000),
            ],
        ));
        cat.add_table(Table::new(
            "dim",
            10_000,
            vec![Column::new("k", ColumnType::Int8).with_ndv(10_000)],
        ));
        cat
    }

    #[test]
    fn builder_and_lookup() {
        let cat = catalog();
        let t0 = cat.table_id("fact").unwrap();
        let t1 = cat.table_id("dim").unwrap();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t0, vec![0])
            .whatif_index(&cat, t0, vec![1, 0])
            .whatif_index(&cat, t1, vec![0])
            .build();
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.table_indexes(t0).count(), 2);
        assert_eq!(cfg.table_indexes(t1).count(), 1);
        assert!(cfg.total_bytes() > 0);
    }

    #[test]
    fn empty_is_atomic() {
        // No table has more than one index: atomic for every query.
        let cfg = Configuration::empty();
        assert!(cfg.is_empty());
        assert_eq!(cfg.table_indexes(TableId(0)).count(), 0);
        assert_eq!(cfg.table_indexes(TableId(5)).count(), 0);
        assert_eq!(cfg.total_bytes(), 0);
    }
}
