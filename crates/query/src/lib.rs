//! # pinum-query
//!
//! Query representation for the PINUM reproduction: select-project-join
//! queries with GROUP BY / ORDER BY, selectivity estimation, and the
//! *interesting order* machinery that the whole paper revolves around:
//!
//! * an **interesting order** is "a tuple ordering specified by the columns
//!   in a join, group-by or order-by clause" (definition 2);
//! * an **interesting order combination** (IOC) picks at most one
//!   interesting order per table of the query (definition 3);
//! * an index **covers** an interesting order if the order is its first
//!   column; an atomic configuration covers an IOC (definition 4).
//!
//! The scope matches the paper's implementation: no complex sub-queries, no
//! inheritance, no outer joins (§VI-A).

pub mod builder;
pub mod ioc;
pub mod selectivity;
pub mod template;

pub use builder::QueryBuilder;
pub use ioc::{InterestingOrders, Ioc, IocIter};
pub use template::{FilterKey, RelTemplate, TemplateKey};

use pinum_catalog::{Catalog, TableId};

/// Index of a relation *within one query* (queries join at most
/// [`MAX_RELATIONS`] tables).
pub type RelIdx = u16;

/// Maximum relations per query, bounded by the nibble-packed [`Ioc`]
/// encoding (16 nibbles in a `u64`).
pub const MAX_RELATIONS: usize = 16;

/// Maximum interesting orders per relation, bounded by the nibble encoding
/// (value 0 is reserved for "no order").
pub const MAX_ORDERS_PER_REL: usize = 15;

/// Comparison operator of a filter predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterOp {
    /// `col = value`
    Eq { value: f64 },
    /// `lo <= col < hi`
    Range { lo: f64, hi: f64 },
}

/// A single-table filter predicate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterPredicate {
    pub rel: RelIdx,
    pub column: u16,
    pub op: FilterOp,
}

/// An equi-join predicate between two relations of the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPredicate {
    pub left: (RelIdx, u16),
    pub right: (RelIdx, u16),
}

impl JoinPredicate {
    /// True if the predicate connects `a` and `b` (in either direction).
    pub fn connects(&self, a: RelIdx, b: RelIdx) -> bool {
        (self.left.0 == a && self.right.0 == b) || (self.left.0 == b && self.right.0 == a)
    }
}

/// A column of the query's output or grouping/ordering clauses.
pub type QualifiedColumn = (RelIdx, u16);

/// A select-project-join query with optional grouping and ordering.
#[derive(Debug, Clone)]
pub struct Query {
    /// Human-readable name (e.g. `"Q5"`).
    pub name: String,
    /// The tables in the FROM clause; `RelIdx` indexes into this.
    pub relations: Vec<TableId>,
    /// Conjunctive single-table predicates.
    pub filters: Vec<FilterPredicate>,
    /// Conjunctive equi-join predicates.
    pub joins: Vec<JoinPredicate>,
    /// Output columns.
    pub select: Vec<QualifiedColumn>,
    /// GROUP BY columns (empty = no grouping).
    pub group_by: Vec<QualifiedColumn>,
    /// ORDER BY columns (empty = no required order).
    pub order_by: Vec<QualifiedColumn>,
}

impl Query {
    /// Validates internal consistency against a catalog; panics on misuse.
    /// Called by [`QueryBuilder::build`].
    pub fn validate(&self, catalog: &Catalog) {
        assert!(!self.relations.is_empty(), "query needs at least one table");
        assert!(
            self.relations.len() <= MAX_RELATIONS,
            "at most {MAX_RELATIONS} relations per query"
        );
        let col_ok = |(rel, col): &QualifiedColumn| {
            (*rel as usize) < self.relations.len()
                && (*col as usize) < catalog.table(self.relations[*rel as usize]).columns().len()
        };
        for f in &self.filters {
            assert!(col_ok(&(f.rel, f.column)), "filter column out of range");
        }
        for j in &self.joins {
            assert!(
                col_ok(&j.left) && col_ok(&j.right),
                "join column out of range"
            );
            assert_ne!(j.left.0, j.right.0, "self-joins are out of scope (§VI-A)");
        }
        for c in self
            .select
            .iter()
            .chain(self.group_by.iter())
            .chain(self.order_by.iter())
        {
            assert!(col_ok(c), "projection/grouping column out of range");
        }
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// The catalog table backing relation `rel`.
    pub fn table_of(&self, rel: RelIdx) -> TableId {
        self.relations[rel as usize]
    }

    /// All columns of relation `rel` referenced anywhere in the query,
    /// deduplicated and sorted — determines which indexes can answer the
    /// query index-only.
    pub fn referenced_columns(&self, rel: RelIdx) -> Vec<u16> {
        let mut cols: Vec<u16> = Vec::new();
        let mut push = |r: RelIdx, c: u16| {
            if r == rel {
                cols.push(c);
            }
        };
        for f in &self.filters {
            push(f.rel, f.column);
        }
        for j in &self.joins {
            push(j.left.0, j.left.1);
            push(j.right.0, j.right.1);
        }
        for &(r, c) in self
            .select
            .iter()
            .chain(self.group_by.iter())
            .chain(self.order_by.iter())
        {
            push(r, c);
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Filter predicates on relation `rel`.
    pub fn filters_on(&self, rel: RelIdx) -> impl Iterator<Item = &FilterPredicate> + '_ {
        self.filters.iter().filter(move |f| f.rel == rel)
    }

    /// The query's *interesting orders* per relation (definition 2): the
    /// columns of each relation that appear in a join, GROUP BY, or
    /// ORDER BY clause.
    pub fn interesting_orders(&self) -> InterestingOrders {
        let mut per_rel: Vec<Vec<u16>> = vec![Vec::new(); self.relations.len()];
        for j in &self.joins {
            per_rel[j.left.0 as usize].push(j.left.1);
            per_rel[j.right.0 as usize].push(j.right.1);
        }
        for &(rel, col) in self.group_by.iter().chain(self.order_by.iter()) {
            per_rel[rel as usize].push(col);
        }
        for cols in &mut per_rel {
            cols.sort_unstable();
            cols.dedup();
            assert!(
                cols.len() <= MAX_ORDERS_PER_REL,
                "more than {MAX_ORDERS_PER_REL} interesting orders on one relation"
            );
        }
        InterestingOrders::new(per_rel)
    }

    /// True when the join graph is connected (no Cartesian products), which
    /// is the class of queries the workloads generate.
    pub fn join_graph_connected(&self) -> bool {
        let n = self.relations.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u16];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for j in &self.joins {
                for other in [j.left.0, j.right.0] {
                    if j.connects(r, other) && !seen[other as usize] {
                        seen[other as usize] = true;
                        stack.push(other);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, Table};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 1000u64), ("b", 500), ("c", 200)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![
                    Column::new("k", ColumnType::Int8).with_ndv(rows),
                    Column::new("v", ColumnType::Int4).with_ndv(rows / 2),
                    Column::new("w", ColumnType::Int4).with_ndv(10),
                ],
            ));
        }
        cat
    }

    fn three_way(cat: &Catalog) -> Query {
        QueryBuilder::new("q", cat)
            .table("a")
            .table("b")
            .table("c")
            .join(("a", "k"), ("b", "k"))
            .join(("b", "v"), ("c", "k"))
            .filter_range(("a", "v"), 0.0, 5.0)
            .select(("a", "w"))
            .order_by(("c", "v"))
            .build()
    }

    #[test]
    fn interesting_orders_from_clauses() {
        let cat = catalog();
        let q = three_way(&cat);
        let io = q.interesting_orders();
        // a: join col k → 1 order. b: k and v → 2. c: k (join) + v (order by) → 2.
        assert_eq!(io.orders_of(0), &[0]);
        assert_eq!(io.orders_of(1), &[0, 1]);
        assert_eq!(io.orders_of(2), &[0, 1]);
        // (1+1)*(2+1)*(2+1) = 18 combinations, matching the paper's
        // product-of-(orders+1) counting.
        assert_eq!(io.combination_count(), 18);
    }

    #[test]
    fn referenced_columns_dedup() {
        let cat = catalog();
        let q = three_way(&cat);
        assert_eq!(q.referenced_columns(0), vec![0, 1, 2]);
        assert_eq!(q.referenced_columns(1), vec![0, 1]);
        assert_eq!(q.referenced_columns(2), vec![0, 1]);
    }

    #[test]
    fn join_graph_connectivity() {
        let cat = catalog();
        let q = three_way(&cat);
        assert!(q.join_graph_connected());
        let disconnected = QueryBuilder::new("q2", &cat)
            .table("a")
            .table("b")
            .select(("a", "k"))
            .build_unchecked();
        assert!(!disconnected.join_graph_connected());
    }

    #[test]
    #[should_panic(expected = "self-joins")]
    fn self_join_rejected() {
        let cat = catalog();
        let mut q = three_way(&cat);
        q.joins.push(JoinPredicate {
            left: (0, 0),
            right: (0, 1),
        });
        q.validate(&cat);
    }
}
