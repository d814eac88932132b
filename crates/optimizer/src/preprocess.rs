//! The query preprocessor (paper Fig. 2, first component): static analysis
//! shared by all later planning stages.
//!
//! Produces the [`PlannerInfo`]: per-relation cardinalities and widths,
//! equivalence classes over join columns (PostgreSQL's pathkey machinery),
//! join edges with selectivities, interesting orders, and required output
//! orderings.

use crate::relset::RelSet;
use pinum_catalog::{Catalog, Configuration, TableId};
use pinum_cost::agg::estimate_num_groups;
use pinum_query::selectivity::{join_selectivity, relation_rows, relation_selectivity};
use pinum_query::{InterestingOrders, Query, RelIdx};
use std::collections::HashMap;

/// Equivalence-class id: columns made equal by equi-join predicates share
/// one id; other ordering-relevant columns get singleton classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EcId(pub u16);

/// Per-base-relation planning info.
#[derive(Debug, Clone)]
pub struct BaseRelInfo {
    pub table: TableId,
    /// Rows before filtering.
    pub raw_rows: f64,
    /// Rows surviving the relation's filters.
    pub rows: f64,
    /// Combined filter selectivity.
    pub selectivity: f64,
    /// Number of filter predicates (operator charges).
    pub filter_ops: u32,
    /// Columns referenced anywhere in the query.
    pub referenced_columns: Vec<u16>,
    /// Average output tuple width (referenced columns only).
    pub width: u32,
}

/// An equi-join edge of the join graph.
#[derive(Debug, Clone)]
pub struct JoinEdge {
    pub left: (RelIdx, u16),
    pub right: (RelIdx, u16),
    pub selectivity: f64,
    /// Equivalence class of the joined columns (merge-join sort key).
    pub ec: EcId,
}

/// Everything the later planning stages need, computed once per optimize
/// call.
pub struct PlannerInfo<'a> {
    pub catalog: &'a Catalog,
    pub query: &'a Query,
    pub config: &'a Configuration,
    pub orders: InterestingOrders,
    pub base: Vec<BaseRelInfo>,
    pub edges: Vec<JoinEdge>,
    /// Equivalence class of every ordering-relevant column.
    ec_of: HashMap<(RelIdx, u16), EcId>,
    ec_count: u16,
    /// ORDER BY as equivalence classes (prefix semantics).
    pub required_order: Vec<EcId>,
    /// GROUP BY as equivalence classes (set semantics).
    pub group_order: Vec<EcId>,
    /// Estimated number of groups (1.0 when no GROUP BY).
    pub num_groups: f64,
}

impl<'a> PlannerInfo<'a> {
    pub fn new(catalog: &'a Catalog, query: &'a Query, config: &'a Configuration) -> Self {
        let n = query.relation_count();
        // Checked in release too: the join search never pairs unconnected
        // sets, so a disconnected graph would run the whole DP and then
        // find no plan for the full set.
        assert!(
            query.join_graph_connected(),
            "query {}: the join graph is disconnected; Cartesian products are not planned",
            query.name
        );

        // --- Equivalence classes via union-find over join columns. ---
        let mut uf = UnionFind::default();
        for j in &query.joins {
            uf.union(j.left, j.right);
        }
        // Register every ordering-relevant column so it has a class.
        let orders = query.interesting_orders();
        for rel in 0..n as RelIdx {
            for &col in orders.orders_of(rel) {
                uf.find_or_insert((rel, col));
            }
        }
        for &(rel, col) in query.order_by.iter().chain(query.group_by.iter()) {
            uf.find_or_insert((rel, col));
        }
        let (ec_of, ec_count) = uf.into_classes();

        // --- Per-relation info. ---
        let base: Vec<BaseRelInfo> = (0..n as RelIdx)
            .map(|rel| {
                let table = query.table_of(rel);
                let referenced = query.referenced_columns(rel);
                let width = catalog.table(table).data_width(&referenced).max(8);
                BaseRelInfo {
                    table,
                    raw_rows: catalog.table(table).rows() as f64,
                    rows: relation_rows(catalog, query, rel),
                    selectivity: relation_selectivity(catalog, query, rel),
                    filter_ops: query.filters_on(rel).count() as u32,
                    referenced_columns: referenced,
                    width,
                }
            })
            .collect();

        // --- Join edges. ---
        let edges: Vec<JoinEdge> = query
            .joins
            .iter()
            .map(|j| JoinEdge {
                left: j.left,
                right: j.right,
                selectivity: join_selectivity(catalog, query, j),
                ec: ec_of[&j.left],
            })
            .collect();

        let required_order: Vec<EcId> = query.order_by.iter().map(|c| ec_of[c]).collect();
        let group_order: Vec<EcId> = query.group_by.iter().map(|c| ec_of[c]).collect();

        let num_groups = if query.group_by.is_empty() {
            1.0
        } else {
            let ndvs: Vec<f64> = query
                .group_by
                .iter()
                .map(|&(rel, col)| pinum_query::selectivity::filtered_ndv(catalog, query, rel, col))
                .collect();
            let top_rows: f64 = base.iter().map(|b| b.rows).product::<f64>()
                * edges.iter().map(|e| e.selectivity).product::<f64>();
            estimate_num_groups(top_rows.max(1.0), &ndvs)
        };

        Self {
            catalog,
            query,
            config,
            orders,
            base,
            edges,
            ec_of,
            ec_count,
            required_order,
            group_order,
            num_groups,
        }
    }

    pub fn relation_count(&self) -> usize {
        self.base.len()
    }

    /// Equivalence class of a column, if it participates in any ordering.
    pub fn ec(&self, rel: RelIdx, col: u16) -> Option<EcId> {
        self.ec_of.get(&(rel, col)).copied()
    }

    /// Number of equivalence classes.
    pub fn ec_count(&self) -> u16 {
        self.ec_count
    }

    /// A member column of equivalence class `ec` belonging to a relation in
    /// `rels`, if any — used to resolve pathkeys to concrete sort columns.
    pub fn ec_member_in(&self, ec: EcId, rels: RelSet) -> Option<(RelIdx, u16)> {
        self.ec_of
            .iter()
            .filter(|(&(rel, _), &e)| e == ec && rels.contains(rel))
            .map(|(&col, _)| col)
            .min() // deterministic representative
    }

    /// Join edges connecting `left` and `right` (disjoint rel sets).
    pub fn edges_between(
        &self,
        left: RelSet,
        right: RelSet,
    ) -> impl Iterator<Item = &JoinEdge> + '_ {
        self.edges.iter().filter(move |e| {
            (left.contains(e.left.0) && right.contains(e.right.0))
                || (left.contains(e.right.0) && right.contains(e.left.0))
        })
    }

    /// True if some join edge connects the two sets (avoids Cartesian
    /// products, like PostgreSQL's standard join search).
    pub fn connected(&self, left: RelSet, right: RelSet) -> bool {
        self.edges_between(left, right).next().is_some()
    }

    /// Estimated output cardinality of a joinrel: the product of filtered
    /// base rows and the selectivities of all join edges internal to the
    /// set (PostgreSQL `calc_joinrel_size_estimate` lineage). Cheap enough
    /// to recompute: the join planner asks once per partition of a set.
    pub fn joinrel_rows(&self, set: RelSet) -> f64 {
        let mut rows: f64 = set.iter().map(|r| self.base[r as usize].rows).product();
        for e in &self.edges {
            if set.contains(e.left.0) && set.contains(e.right.0) {
                rows *= e.selectivity;
            }
        }
        pinum_cost::clamp_row_est(rows)
    }

    /// Output width of a joinrel (sum of member widths).
    pub fn joinrel_width(&self, set: RelSet) -> u32 {
        set.iter().map(|r| self.base[r as usize].width).sum()
    }

    /// The columns of `rel` usable as parameterized inner index lookups
    /// when joining against `outer`: columns of `rel` equi-joined to some
    /// column of a relation in `outer`.
    pub fn inner_join_columns(&self, rel: RelIdx, outer: RelSet) -> Vec<(u16, EcId, f64)> {
        let mut out = Vec::new();
        for e in &self.edges {
            let (this, that) = if e.left.0 == rel {
                (e.left, e.right)
            } else if e.right.0 == rel {
                (e.right, e.left)
            } else {
                continue;
            };
            if outer.contains(that.0) {
                out.push((this.1, e.ec, e.selectivity));
            }
        }
        out
    }
}

/// Minimal union-find over qualified columns.
#[derive(Default)]
struct UnionFind {
    ids: HashMap<(RelIdx, u16), usize>,
    parent: Vec<usize>,
}

impl UnionFind {
    fn find_or_insert(&mut self, col: (RelIdx, u16)) -> usize {
        if let Some(&i) = self.ids.get(&col) {
            return self.find(i);
        }
        let i = self.parent.len();
        self.ids.insert(col, i);
        self.parent.push(i);
        i
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: (RelIdx, u16), b: (RelIdx, u16)) {
        let ra = self.find_or_insert(a);
        let rb = self.find_or_insert(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }

    /// Collapses to dense [`EcId`]s.
    fn into_classes(mut self) -> (HashMap<(RelIdx, u16), EcId>, u16) {
        let mut dense: HashMap<usize, u16> = HashMap::new();
        let mut out = HashMap::new();
        let keys: Vec<_> = self.ids.keys().copied().collect();
        for col in keys {
            let root = {
                let i = self.ids[&col];
                self.find(i)
            };
            let next = dense.len() as u16;
            let id = *dense.entry(root).or_insert(next);
            out.insert(col, EcId(id));
        }
        let n = dense.len() as u16;
        (out, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, Table};
    use pinum_query::QueryBuilder;

    fn setup() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        for (name, rows) in [("f", 100_000u64), ("d1", 1_000), ("d2", 100)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![
                    Column::new("k", ColumnType::Int8).with_ndv(rows),
                    Column::new("fk", ColumnType::Int8).with_ndv((rows / 100).max(1)),
                    Column::new("v", ColumnType::Int4).with_ndv(100),
                ],
            ));
        }
        let q = QueryBuilder::new("q", &cat)
            .table("f")
            .table("d1")
            .table("d2")
            .join(("f", "fk"), ("d1", "k"))
            .join(("d1", "fk"), ("d2", "k"))
            .filter_range(("f", "v"), 0.0, 1.0) // 1% of 100 values
            .select(("f", "v"))
            .group_by(("d2", "v"))
            .build();
        (cat, q)
    }

    #[test]
    #[should_panic(expected = "query split: the join graph is disconnected")]
    fn disconnected_join_graph_is_refused_up_front() {
        let (cat, _) = setup();
        let q = QueryBuilder::new("split", &cat)
            .table("f")
            .table("d1")
            .table("d2")
            .join(("f", "fk"), ("d1", "k"))
            .select(("d2", "v"))
            .build();
        PlannerInfo::new(&cat, &q, &Configuration::empty());
    }

    #[test]
    fn equivalence_classes_merge_join_columns() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        // f.fk and d1.k are equal; d1.fk and d2.k are equal; d2.v separate.
        assert_eq!(info.ec(0, 1), info.ec(1, 0));
        assert_eq!(info.ec(1, 1), info.ec(2, 0));
        assert_ne!(info.ec(0, 1), info.ec(1, 1));
        assert!(info.ec(2, 2).is_some()); // group-by column
        assert!(info.ec(0, 0).is_none()); // unreferenced-for-order column
    }

    #[test]
    fn base_rows_apply_filters() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        assert!((info.base[0].rows - 1000.0).abs() < 2.0, "1% of 100k");
        assert_eq!(info.base[1].rows, 1000.0);
    }

    #[test]
    fn joinrel_rows_use_edge_selectivity() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let two = info.joinrel_rows(RelSet(0b011));
        // 1000 (filtered f) × 1000 (d1) × 1/1000 = 1000.
        assert!((two - 1000.0).abs() < 5.0, "got {two}");
        let all = info.joinrel_rows(RelSet(0b111));
        assert!(all >= 1.0);
    }

    #[test]
    fn connectivity_respects_edges() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        assert!(info.connected(RelSet(0b001), RelSet(0b010)));
        assert!(!info.connected(RelSet(0b001), RelSet(0b100)));
        assert!(info.connected(RelSet(0b011), RelSet(0b100)));
    }

    #[test]
    fn inner_join_columns_for_param_scans() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        // Joining d1 as inner against {f}: usable lookup column is d1.k.
        let cols = info.inner_join_columns(1, RelSet(0b001));
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].0, 0);
        // d2 has no edge to f directly.
        assert!(info.inner_join_columns(2, RelSet(0b001)).is_empty());
    }

    #[test]
    fn group_estimate() {
        let (cat, q) = setup();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        assert!(info.num_groups >= 1.0);
        assert!(info.num_groups <= 100.0);
    }
}
