//! The paper's synthetic star-schema benchmark (§VI-A).
//!
//! "The synthetic workload consists of a 10GB star-schema database, with
//! one large fact table, and 28 smaller dimension tables. The dimension
//! tables themselves have other dimension tables and so on. The columns in
//! the tables are numeric and uniformly distributed across all positive
//! integers. We use 10 queries, each joining a subset of tables using
//! foreign keys. Other than the join clauses, they contain randomly
//! generated select columns, where clauses with 1% selectivity, and
//! order-by clauses."

use pinum_catalog::{Catalog, Column, ColumnStats, ColumnType, Table, TableId};
use pinum_query::{Query, QueryBuilder};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A foreign-key edge: `child.column → parent` (parent key is column 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FkEdge {
    pub child: TableId,
    pub child_column: u16,
    pub parent: TableId,
}

/// The generated snowflake schema.
#[derive(Debug, Clone)]
pub struct StarSchema {
    pub catalog: Catalog,
    pub fact: TableId,
    /// All dimension tables, level by level.
    pub dimensions: Vec<TableId>,
    /// Every foreign-key edge (fact→level-1, level-1→level-2, …).
    pub edges: Vec<FkEdge>,
    /// The scale used (1.0 ≈ the paper's 10 GB).
    pub scale: f64,
}

/// Number of level-1 / level-2 / level-3 dimensions (total 28, as in the
/// paper).
const LEVELS: [usize; 3] = [12, 10, 6];

/// Fact-table measure columns (non-FK).
const FACT_MEASURES: usize = 8;

/// Attribute columns per dimension (non-key, non-FK).
const DIM_ATTRS: usize = 5;

impl StarSchema {
    /// Generates the snowflake schema. `scale = 1.0` targets the paper's
    /// 10 GB database; tests use `0.01` or less.
    pub fn generate(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut catalog = Catalog::new();
        let mut dimensions = Vec::new();
        let mut edges = Vec::new();

        // Row counts at scale 1.0; uniform positive-integer columns. The
        // proportions keep the fact table at roughly half the 10 GB total,
        // as in the paper, so a 5 GB budget fits a handful of fact-table
        // covering indexes (§VI-E).
        let fact_rows = (25_000_000.0 * scale).max(1000.0) as u64;
        let l1_rows =
            |rng: &mut StdRng| (rng.gen_range(800_000..4_000_000) as f64 * scale).max(50.0) as u64;
        let l2_rows =
            |rng: &mut StdRng| (rng.gen_range(80_000..600_000) as f64 * scale).max(20.0) as u64;
        let l3_rows =
            |rng: &mut StdRng| (rng.gen_range(10_000..80_000) as f64 * scale).max(10.0) as u64;

        // --- Level 3 first (leaves of the snowflake). ---
        let mut level3 = Vec::new();
        for i in 0..LEVELS[2] {
            let rows = l3_rows(&mut rng);
            let t = catalog.add_table(dimension_table(&format!("dim3_{i}"), rows, 0, &mut rng));
            level3.push(t);
            dimensions.push(t);
        }

        // --- Level 2: some have a level-3 child. ---
        let mut level2 = Vec::new();
        for i in 0..LEVELS[1] {
            let rows = l2_rows(&mut rng);
            let child = level3.get(i).copied();
            let t = catalog.add_table(dimension_table(
                &format!("dim2_{i}"),
                rows,
                usize::from(child.is_some()),
                &mut rng,
            ));
            if let Some(c) = child {
                // FK column sits right after the key (ordinal 1).
                set_fk_stats(&mut catalog, t, 1, c);
                edges.push(FkEdge {
                    child: t,
                    child_column: 1,
                    parent: c,
                });
            }
            level2.push(t);
            dimensions.push(t);
        }

        // --- Level 1: some have a level-2 child. ---
        let mut level1 = Vec::new();
        for i in 0..LEVELS[0] {
            let rows = l1_rows(&mut rng);
            let child = level2.get(i).copied();
            let t = catalog.add_table(dimension_table(
                &format!("dim1_{i}"),
                rows,
                usize::from(child.is_some()),
                &mut rng,
            ));
            if let Some(c) = child {
                set_fk_stats(&mut catalog, t, 1, c);
                edges.push(FkEdge {
                    child: t,
                    child_column: 1,
                    parent: c,
                });
            }
            level1.push(t);
            dimensions.push(t);
        }

        // --- Fact table: one FK per level-1 dimension plus measures. ---
        let mut cols = Vec::new();
        for i in 0..LEVELS[0] {
            cols.push(Column::new(format!("fk{i}"), ColumnType::Int8).with_ndv(1));
        }
        for i in 0..FACT_MEASURES {
            let ndv = rng.gen_range(10_000..1_000_000) as u64;
            cols.push(
                Column::new(format!("m{i}"), ColumnType::Int8)
                    .with_stats(ColumnStats::uniform(0.0, ndv as f64, ndv as f64)),
            );
        }
        let fact = catalog.add_table(Table::new("fact", fact_rows, cols));
        for (i, &dim) in level1.iter().enumerate() {
            set_fk_stats(&mut catalog, fact, i as u16, dim);
            edges.push(FkEdge {
                child: fact,
                child_column: i as u16,
                parent: dim,
            });
        }

        Self {
            catalog,
            fact,
            dimensions,
            edges,
            scale,
        }
    }

    /// Total database size (heap bytes), for checking the 10 GB target.
    pub fn total_bytes(&self) -> u64 {
        self.catalog.tables().iter().map(Table::heap_bytes).sum()
    }

    /// Children of `table` in the snowflake (via FK edges).
    pub fn children_of(&self, table: TableId) -> Vec<FkEdge> {
        self.edges
            .iter()
            .filter(|e| e.child == table)
            .copied()
            .collect()
    }
}

/// A dimension with a key, `fks` foreign-key slots, and attribute columns.
fn dimension_table(name: &str, rows: u64, fks: usize, rng: &mut StdRng) -> Table {
    let mut cols = vec![Column::new("k", ColumnType::Int8)
        .with_ndv(rows)
        .with_correlation(1.0)]; // serially loaded keys are heap-ordered
    for i in 0..fks {
        cols.push(Column::new(format!("fk{i}"), ColumnType::Int8).with_ndv(1));
    }
    for i in 0..DIM_ATTRS {
        let ndv = (rows / rng.gen_range(2..50u64)).max(2);
        cols.push(
            Column::new(format!("a{i}"), ColumnType::Int8)
                .with_stats(ColumnStats::uniform(0.0, ndv as f64, ndv as f64)),
        );
    }
    Table::new(name, rows, cols)
}

/// Gives FK column `col` of `child` the parent's key domain.
fn set_fk_stats(catalog: &mut Catalog, child: TableId, col: u16, parent: TableId) {
    let parent_rows = catalog.table(parent).rows() as f64;
    *catalog.table_mut(child).column_mut(col).stats_mut() =
        ColumnStats::uniform(0.0, parent_rows, parent_rows);
}

/// The generated ten-query workload.
#[derive(Debug, Clone)]
pub struct StarWorkload {
    pub queries: Vec<Query>,
}

impl StarWorkload {
    /// Generates `count` queries (the paper uses 10), ordered by join
    /// width: Q1 joins 2 tables, later queries up to 6 — matching the
    /// paper's observation that PINUM's advantage grows with join width.
    pub fn generate(schema: &StarSchema, seed: u64, count: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5741_5243);
        let widths: Vec<usize> = (0..count)
            .map(|i| 2 + (i * 5 / count.max(1)).min(4))
            .collect();
        let queries = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| generate_query(schema, &mut rng, &format!("Q{}", i + 1), w))
            .collect();
        Self { queries }
    }
}

/// Builds one query joining `width` tables: the fact table plus a random
/// connected sub-tree of dimensions.
fn generate_query(schema: &StarSchema, rng: &mut StdRng, name: &str, width: usize) -> Query {
    let catalog = &schema.catalog;
    // Grow a connected table set from the fact table along FK edges. Like
    // real dashboards, the workload concentrates on a subset of the
    // dimensions (the first six FK edges); deeper snowflake levels stay
    // reachable through them.
    let mut tables = vec![schema.fact];
    let mut frontier: Vec<FkEdge> = schema
        .children_of(schema.fact)
        .into_iter()
        .filter(|e| e.child_column < 6)
        .collect();
    let mut joins: Vec<(TableId, u16, TableId)> = Vec::new();
    while tables.len() < width && !frontier.is_empty() {
        let pick = rng.gen_range(0..frontier.len());
        let edge = frontier.swap_remove(pick);
        if tables.contains(&edge.parent) {
            continue;
        }
        tables.push(edge.parent);
        joins.push((edge.child, edge.child_column, edge.parent));
        frontier.extend(schema.children_of(edge.parent));
    }

    let mut qb = QueryBuilder::new(name, catalog);
    let names: Vec<String> = tables
        .iter()
        .map(|t| catalog.table(*t).name().to_string())
        .collect();
    for n in &names {
        qb = qb.table(n);
    }
    for (child, col, parent) in &joins {
        let child_name = catalog.table(*child).name().to_string();
        let col_name = catalog.table(*child).column(*col).name().to_string();
        let parent_name = catalog.table(*parent).name().to_string();
        qb = qb.join((&child_name, &col_name), (&parent_name, "k"));
    }

    // 1 %-selectivity range predicate on a fact measure. Queries draw
    // their predicates from a small shared set of measures, as analytical
    // dashboards do — this is also what lets a 5 GB budget cover the whole
    // workload with a handful of covering indexes (paper §VI-E finds 4
    // fact-table covering indexes suffice).
    let fact = catalog.table(schema.fact);
    let measure = LEVELS[0] + rng.gen_range(0..3usize);
    let mcol = fact.column(measure as u16);
    let hi = mcol.stats().max * 0.01;
    qb = qb.filter_range(("fact", mcol.name()), 0.0, hi);

    // Occasionally a second 1 % predicate on a dimension attribute.
    if width >= 4 && rng.gen_bool(0.5) && tables.len() > 1 {
        let dim = tables[rng.gen_range(1..tables.len())];
        let dt = catalog.table(dim);
        let attr_ord = (dt.columns().len() - 1) as u16;
        let acol = dt.column(attr_ord);
        let hi = (acol.stats().max * 0.01).max(1.0);
        let dt_name = dt.name().to_string();
        let acol_name = acol.name().to_string();
        qb = qb.filter_range((&dt_name, &acol_name), 0.0, hi);
    }

    // Random select columns: one from the fact, one from each dimension.
    let fmeasure = LEVELS[0] + rng.gen_range(0..4usize);
    qb = qb.select(("fact", fact.column(fmeasure as u16).name()));
    for &t in tables.iter().skip(1) {
        let dt = catalog.table(t);
        let attrs: Vec<u16> = (0..dt.columns().len() as u16)
            .filter(|&c| dt.column(c).name().starts_with('a'))
            .collect();
        if let Some(&c) = attrs.choose(rng) {
            let dt_name = dt.name().to_string();
            let c_name = dt.column(c).name().to_string();
            qb = qb.select((&dt_name, &c_name));
        }
    }

    // ORDER BY a random attribute of a joined dimension (or a fact
    // measure for 2-table queries).
    if tables.len() > 1 && rng.gen_bool(0.8) {
        let t = tables[rng.gen_range(1..tables.len())];
        let dt = catalog.table(t);
        let attr = (dt.columns().len() - DIM_ATTRS) as u16 + rng.gen_range(0..DIM_ATTRS as u16);
        let dt_name = dt.name().to_string();
        let a_name = dt.column(attr).name().to_string();
        qb = qb.order_by((&dt_name, &a_name));
    } else {
        let m = LEVELS[0] + rng.gen_range(0..4usize);
        qb = qb.order_by(("fact", fact.column(m as u16).name()));
    }

    qb.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_29_tables_and_is_connected() {
        let s = StarSchema::generate(7, 0.001);
        assert_eq!(s.catalog.table_count(), 29); // fact + 28 dims
        assert_eq!(s.dimensions.len(), 28);
        // Every level-1 dim reachable from the fact.
        assert_eq!(s.children_of(s.fact).len(), LEVELS[0]);
    }

    #[test]
    fn full_scale_is_about_10gb() {
        let s = StarSchema::generate(42, 1.0);
        let gb = s.total_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        assert!(
            (6.5..14.0).contains(&gb),
            "total size {gb:.1} GB should be near the paper's 10 GB"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = StarSchema::generate(42, 0.001);
        let b = StarSchema::generate(42, 0.001);
        assert_eq!(a.total_bytes(), b.total_bytes());
        let wa = StarWorkload::generate(&a, 1, 10);
        let wb = StarWorkload::generate(&b, 1, 10);
        for (qa, qb) in wa.queries.iter().zip(&wb.queries) {
            assert_eq!(qa.relations, qb.relations);
            assert_eq!(qa.joins, qb.joins);
        }
    }

    #[test]
    fn workload_queries_are_valid_and_connected() {
        let s = StarSchema::generate(42, 0.001);
        let w = StarWorkload::generate(&s, 1, 10);
        assert_eq!(w.queries.len(), 10);
        for q in &w.queries {
            q.validate(&s.catalog);
            assert!(q.join_graph_connected(), "{} disconnected", q.name);
            assert!(!q.filters.is_empty(), "{} lacks the 1% predicate", q.name);
            assert!(!q.order_by.is_empty(), "{} lacks ORDER BY", q.name);
        }
        // Widths grow from 2 to 6.
        assert_eq!(w.queries[0].relation_count(), 2);
        assert!(w.queries[9].relation_count() >= 5);
    }

    #[test]
    fn one_percent_filters() {
        let s = StarSchema::generate(42, 0.001);
        let w = StarWorkload::generate(&s, 1, 10);
        for q in &w.queries {
            let f = q.filters[0];
            let sel = pinum_query::selectivity::filter_selectivity(&s.catalog, q, &f);
            assert!(
                (0.005..0.02).contains(&sel),
                "{}: selectivity {sel} not ≈1%",
                q.name
            );
        }
    }

    #[test]
    fn fk_stats_match_parent_domain() {
        let s = StarSchema::generate(3, 0.001);
        for e in &s.edges {
            let child_col = s.catalog.table(e.child).column(e.child_column);
            let parent_rows = s.catalog.table(e.parent).rows() as f64;
            assert_eq!(child_col.stats().n_distinct, parent_rows);
        }
    }
}
