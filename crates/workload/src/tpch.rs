//! TPC-H schema statistics and query skeletons.
//!
//! Used for the paper's §IV motivation: "consider, for instance, the 5th
//! query in the TPC-H benchmark. The query joins 6 tables … the query has
//! 648 interesting order combinations. INUM needs to query the optimizer
//! 648 times to fully build the cache; if we carefully parse the plans,
//! however, we find only 64 unique plans in the cache; 90 % of the
//! optimizer calls and the cached plans are therefore redundant!"
//!
//! Cardinalities follow the TPC-H specification at scale factor `sf`
//! (lineitem ≈ 6 M rows/SF etc.). Only the columns the skeleton queries
//! touch are modeled, plus representative extras for realistic widths.

use pinum_catalog::{Catalog, Column, ColumnStats, ColumnType, Table};
use pinum_query::{Query, QueryBuilder};

fn uniform(ndv: u64) -> ColumnStats {
    ColumnStats::uniform(0.0, ndv as f64, ndv.max(1) as f64)
}

/// dbgen emits rows in primary-key order, so key columns are physically
/// correlated with the heap — which is what makes ordered index access
/// competitive and the per-IOC plans genuinely diverse (§IV).
fn correlated(ndv: u64) -> ColumnStats {
    let mut s = uniform(ndv);
    s.correlation = 1.0;
    s
}

/// Builds the eight TPC-H tables at scale factor `sf`.
pub fn tpch_catalog(sf: f64) -> Catalog {
    assert!(sf > 0.0);
    let n = |base: f64| (base * sf).max(1.0) as u64;
    let mut cat = Catalog::new();

    cat.add_table(Table::new(
        "region",
        5,
        vec![
            Column::new("r_regionkey", ColumnType::Int4).with_stats(correlated(5)),
            Column::new("r_name", ColumnType::Text { avg_len: 12 }).with_stats(uniform(5)),
        ],
    ));
    cat.add_table(Table::new(
        "nation",
        25,
        vec![
            Column::new("n_nationkey", ColumnType::Int4).with_stats(correlated(25)),
            Column::new("n_name", ColumnType::Text { avg_len: 12 }).with_stats(uniform(25)),
            Column::new("n_regionkey", ColumnType::Int4).with_stats(uniform(5)),
        ],
    ));
    cat.add_table(Table::new(
        "supplier",
        n(10_000.0),
        vec![
            Column::new("s_suppkey", ColumnType::Int4).with_stats(correlated(n(10_000.0))),
            Column::new("s_name", ColumnType::Text { avg_len: 18 })
                .with_stats(uniform(n(10_000.0))),
            Column::new("s_nationkey", ColumnType::Int4).with_stats(uniform(25)),
            Column::new("s_acctbal", ColumnType::Float8).with_stats(uniform(n(10_000.0))),
        ],
    ));
    cat.add_table(Table::new(
        "customer",
        n(150_000.0),
        vec![
            Column::new("c_custkey", ColumnType::Int4).with_stats(correlated(n(150_000.0))),
            Column::new("c_name", ColumnType::Text { avg_len: 18 })
                .with_stats(uniform(n(150_000.0))),
            Column::new("c_nationkey", ColumnType::Int4).with_stats(uniform(25)),
            Column::new("c_mktsegment", ColumnType::Text { avg_len: 10 }).with_stats(uniform(5)),
            Column::new("c_acctbal", ColumnType::Float8).with_stats(uniform(n(140_000.0))),
        ],
    ));
    cat.add_table(Table::new(
        "part",
        n(200_000.0),
        vec![
            Column::new("p_partkey", ColumnType::Int4).with_stats(correlated(n(200_000.0))),
            Column::new("p_name", ColumnType::Text { avg_len: 32 })
                .with_stats(uniform(n(200_000.0))),
            Column::new("p_type", ColumnType::Text { avg_len: 20 }).with_stats(uniform(150)),
            Column::new("p_size", ColumnType::Int4).with_stats(uniform(50)),
        ],
    ));
    cat.add_table(Table::new(
        "partsupp",
        n(800_000.0),
        vec![
            Column::new("ps_partkey", ColumnType::Int4).with_stats(uniform(n(200_000.0))),
            Column::new("ps_suppkey", ColumnType::Int4).with_stats(uniform(n(10_000.0))),
            Column::new("ps_supplycost", ColumnType::Float8).with_stats(uniform(100_000)),
        ],
    ));
    cat.add_table(Table::new(
        "orders",
        n(1_500_000.0),
        vec![
            Column::new("o_orderkey", ColumnType::Int4).with_stats(correlated(n(1_500_000.0))),
            Column::new("o_custkey", ColumnType::Int4).with_stats(uniform(n(100_000.0))),
            Column::new("o_orderdate", ColumnType::Date).with_stats({
                let mut s = ColumnStats::uniform(0.0, 2406.0, 2406.0);
                s.correlation = 1.0;
                s
            }), // days 1992-01-01..1998-08-02
            Column::new("o_shippriority", ColumnType::Int4).with_stats(uniform(1)),
            Column::new("o_totalprice", ColumnType::Float8).with_stats(uniform(n(1_500_000.0))),
        ],
    ));
    cat.add_table(Table::new(
        "lineitem",
        n(6_000_000.0),
        vec![
            Column::new("l_orderkey", ColumnType::Int4).with_stats(correlated(n(1_500_000.0))),
            Column::new("l_suppkey", ColumnType::Int4).with_stats(uniform(n(10_000.0))),
            Column::new("l_extendedprice", ColumnType::Float8).with_stats(uniform(n(1_000_000.0))),
            Column::new("l_discount", ColumnType::Float8).with_stats(uniform(11)),
            Column::new("l_shipdate", ColumnType::Date)
                .with_stats(ColumnStats::uniform(0.0, 2526.0, 2526.0)),
            Column::new("l_quantity", ColumnType::Float8).with_stats(uniform(50)),
        ],
    ));
    cat
}

/// TPC-H Q5 skeleton (local supplier volume): 6-way join, region filter,
/// one-year date range, GROUP BY `n_name`.
///
/// Interesting orders: customer {c_custkey, c_nationkey}, orders
/// {o_orderkey, o_custkey}, lineitem {l_orderkey, l_suppkey}, supplier
/// {s_suppkey, s_nationkey}, nation {n_nationkey, n_regionkey, n_name},
/// region {r_regionkey} ⇒ 3·3·3·3·4·2 = **648 combinations** (§IV).
pub fn tpch_q5(cat: &Catalog) -> Query {
    QueryBuilder::new("Q5", cat)
        .table("customer")
        .table("orders")
        .table("lineitem")
        .table("supplier")
        .table("nation")
        .table("region")
        .join(("customer", "c_custkey"), ("orders", "o_custkey"))
        .join(("lineitem", "l_orderkey"), ("orders", "o_orderkey"))
        .join(("lineitem", "l_suppkey"), ("supplier", "s_suppkey"))
        .join(("customer", "c_nationkey"), ("supplier", "s_nationkey"))
        .join(("supplier", "s_nationkey"), ("nation", "n_nationkey"))
        .join(("nation", "n_regionkey"), ("region", "r_regionkey"))
        .filter_eq(("region", "r_name"), 2.0)
        .filter_range(("orders", "o_orderdate"), 730.0, 1095.0) // one year
        .select(("nation", "n_name"))
        .select(("lineitem", "l_extendedprice"))
        .select(("lineitem", "l_discount"))
        .group_by(("nation", "n_name"))
        .build()
}

/// TPC-H Q3 skeleton (shipping priority): 3-way join with segment filter
/// and two date predicates.
pub fn tpch_q3(cat: &Catalog) -> Query {
    QueryBuilder::new("Q3", cat)
        .table("customer")
        .table("orders")
        .table("lineitem")
        .join(("customer", "c_custkey"), ("orders", "o_custkey"))
        .join(("lineitem", "l_orderkey"), ("orders", "o_orderkey"))
        .filter_eq(("customer", "c_mktsegment"), 1.0)
        .filter_range(("orders", "o_orderdate"), 0.0, 1155.0)
        .filter_range(("lineitem", "l_shipdate"), 1155.0, 2526.0)
        .select(("lineitem", "l_orderkey"))
        .select(("lineitem", "l_extendedprice"))
        .select(("lineitem", "l_discount"))
        .select(("orders", "o_orderdate"))
        .select(("orders", "o_shippriority"))
        .group_by(("lineitem", "l_orderkey"))
        .group_by(("orders", "o_orderdate"))
        .group_by(("orders", "o_shippriority"))
        .order_by(("orders", "o_orderdate"))
        .build()
}

/// TPC-H Q10 skeleton (returned items): 4-way join with a quarter date
/// range, grouped by customer attributes.
pub fn tpch_q10(cat: &Catalog) -> Query {
    QueryBuilder::new("Q10", cat)
        .table("customer")
        .table("orders")
        .table("lineitem")
        .table("nation")
        .join(("customer", "c_custkey"), ("orders", "o_custkey"))
        .join(("lineitem", "l_orderkey"), ("orders", "o_orderkey"))
        .join(("customer", "c_nationkey"), ("nation", "n_nationkey"))
        .filter_range(("orders", "o_orderdate"), 800.0, 890.0)
        .select(("customer", "c_custkey"))
        .select(("customer", "c_name"))
        .select(("lineitem", "l_extendedprice"))
        .select(("nation", "n_name"))
        .group_by(("customer", "c_custkey"))
        .group_by(("customer", "c_name"))
        .group_by(("nation", "n_name"))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q5_has_648_interesting_order_combinations() {
        // The paper's headline §IV number.
        let cat = tpch_catalog(1.0);
        let q5 = tpch_q5(&cat);
        assert_eq!(q5.interesting_orders().combination_count(), 648);
    }

    #[test]
    fn q5_per_table_orders() {
        let cat = tpch_catalog(1.0);
        let q5 = tpch_q5(&cat);
        let io = q5.interesting_orders();
        // (customer, orders, lineitem, supplier, nation, region)
        let counts: Vec<usize> = (0..6).map(|r| io.orders_of(r).len()).collect();
        assert_eq!(counts, vec![2, 2, 2, 2, 3, 1]);
    }

    #[test]
    fn cardinalities_scale() {
        let sf1 = tpch_catalog(1.0);
        let sf10 = tpch_catalog(10.0);
        let rows = |cat: &Catalog, name: &str| cat.table(cat.table_id(name).unwrap()).rows();
        assert_eq!(rows(&sf1, "lineitem"), 6_000_000);
        assert_eq!(rows(&sf10, "lineitem"), 60_000_000);
        assert_eq!(rows(&sf10, "nation"), 25);
    }

    #[test]
    fn q3_and_q10_validate() {
        let cat = tpch_catalog(0.1);
        let q3 = tpch_q3(&cat);
        let q10 = tpch_q10(&cat);
        assert!(q3.join_graph_connected());
        assert!(q10.join_graph_connected());
        assert!(q3.interesting_orders().combination_count() > 10);
        assert!(q10.interesting_orders().combination_count() > 10);
    }
}
