//! Executable plan trees: the owned, self-describing form of a winning
//! path, used by `EXPLAIN` output, the INUM cache diagnostics, and the
//! mini execution engine.

use crate::path::{AggKind, IndexRef, PathArena, PathId, PathKind};
use crate::preprocess::PlannerInfo;
use pinum_catalog::TableId;
use pinum_cost::Cost;
use pinum_query::{QualifiedColumn, RelIdx};
use std::fmt::Write as _;

/// An equi-join qual `(outer column, inner column)` attached to a join node.
pub type JoinQual = (QualifiedColumn, QualifiedColumn);

/// A fully resolved plan operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    SeqScan {
        rel: RelIdx,
        table: TableId,
        rows: f64,
        cost: Cost,
    },
    IndexScan {
        rel: RelIdx,
        table: TableId,
        /// Resolved index name (catalog or what-if).
        index_name: String,
        key_columns: Vec<u16>,
        index_only: bool,
        /// True when this is a parameterized nested-loop inner probe.
        parameterized: bool,
        rows: f64,
        cost: Cost,
    },
    BitmapScan {
        rel: RelIdx,
        table: TableId,
        index_name: String,
        key_columns: Vec<u16>,
        rows: f64,
        cost: Cost,
    },
    Sort {
        input: Box<PlanNode>,
        /// Sort keys resolved to concrete columns of the input.
        keys: Vec<QualifiedColumn>,
        rows: f64,
        cost: Cost,
    },
    Material {
        input: Box<PlanNode>,
        rows: f64,
        cost: Cost,
    },
    NestLoop {
        outer: Box<PlanNode>,
        inner: Box<PlanNode>,
        quals: Vec<JoinQual>,
        rows: f64,
        cost: Cost,
    },
    MergeJoin {
        outer: Box<PlanNode>,
        inner: Box<PlanNode>,
        quals: Vec<JoinQual>,
        rows: f64,
        cost: Cost,
    },
    HashJoin {
        outer: Box<PlanNode>,
        inner: Box<PlanNode>,
        quals: Vec<JoinQual>,
        rows: f64,
        cost: Cost,
    },
    Agg {
        input: Box<PlanNode>,
        kind: AggKind,
        rows: f64,
        cost: Cost,
    },
}

impl PlanNode {
    pub fn total_cost(&self) -> f64 {
        self.cost().total
    }

    pub fn cost(&self) -> Cost {
        match self {
            PlanNode::SeqScan { cost, .. }
            | PlanNode::IndexScan { cost, .. }
            | PlanNode::BitmapScan { cost, .. }
            | PlanNode::Sort { cost, .. }
            | PlanNode::Material { cost, .. }
            | PlanNode::NestLoop { cost, .. }
            | PlanNode::MergeJoin { cost, .. }
            | PlanNode::HashJoin { cost, .. }
            | PlanNode::Agg { cost, .. } => *cost,
        }
    }

    pub fn rows(&self) -> f64 {
        match self {
            PlanNode::SeqScan { rows, .. }
            | PlanNode::IndexScan { rows, .. }
            | PlanNode::BitmapScan { rows, .. }
            | PlanNode::Sort { rows, .. }
            | PlanNode::Material { rows, .. }
            | PlanNode::NestLoop { rows, .. }
            | PlanNode::MergeJoin { rows, .. }
            | PlanNode::HashJoin { rows, .. }
            | PlanNode::Agg { rows, .. } => *rows,
        }
    }

    /// Number of operator nodes.
    pub fn node_count(&self) -> usize {
        1 + match self {
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } | PlanNode::BitmapScan { .. } => {
                0
            }
            PlanNode::Sort { input, .. }
            | PlanNode::Material { input, .. }
            | PlanNode::Agg { input, .. } => input.node_count(),
            PlanNode::NestLoop { outer, inner, .. }
            | PlanNode::MergeJoin { outer, inner, .. }
            | PlanNode::HashJoin { outer, inner, .. } => outer.node_count() + inner.node_count(),
        }
    }

    /// True if any node is a nested-loop join.
    pub fn uses_nestloop(&self) -> bool {
        match self {
            PlanNode::NestLoop { .. } => true,
            PlanNode::SeqScan { .. } | PlanNode::IndexScan { .. } | PlanNode::BitmapScan { .. } => {
                false
            }
            PlanNode::Sort { input, .. }
            | PlanNode::Material { input, .. }
            | PlanNode::Agg { input, .. } => input.uses_nestloop(),
            PlanNode::MergeJoin { outer, inner, .. } | PlanNode::HashJoin { outer, inner, .. } => {
                outer.uses_nestloop() || inner.uses_nestloop()
            }
        }
    }

    /// PostgreSQL-flavoured `EXPLAIN` rendering.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let line = |out: &mut String, name: &str, detail: &str, rows: f64, cost: Cost| {
            let _ = writeln!(
                out,
                "{pad}{name}{detail}  (cost={:.2}..{:.2} rows={rows:.0})",
                cost.startup, cost.total
            );
        };
        match self {
            PlanNode::SeqScan {
                table, rows, cost, ..
            } => {
                line(out, "Seq Scan", &format!(" on {table}"), *rows, *cost);
            }
            PlanNode::IndexScan {
                table,
                index_name,
                index_only,
                parameterized,
                rows,
                cost,
                ..
            } => {
                let kind = if *index_only {
                    "Index Only Scan"
                } else {
                    "Index Scan"
                };
                let par = if *parameterized {
                    " (parameterized)"
                } else {
                    ""
                };
                line(
                    out,
                    kind,
                    &format!(" using {index_name} on {table}{par}"),
                    *rows,
                    *cost,
                );
            }
            PlanNode::BitmapScan {
                table,
                index_name,
                rows,
                cost,
                ..
            } => {
                line(
                    out,
                    "Bitmap Heap Scan",
                    &format!(" using {index_name} on {table}"),
                    *rows,
                    *cost,
                );
            }
            PlanNode::Sort {
                input,
                keys,
                rows,
                cost,
            } => {
                let detail = format!(
                    " key: {}",
                    keys.iter()
                        .map(|(r, c)| format!("r{r}.c{c}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                line(out, "Sort", &detail, *rows, *cost);
                input.explain_into(out, depth + 1);
            }
            PlanNode::Material { input, rows, cost } => {
                line(out, "Materialize", "", *rows, *cost);
                input.explain_into(out, depth + 1);
            }
            PlanNode::NestLoop {
                outer,
                inner,
                rows,
                cost,
                ..
            } => {
                line(out, "Nested Loop", "", *rows, *cost);
                outer.explain_into(out, depth + 1);
                inner.explain_into(out, depth + 1);
            }
            PlanNode::MergeJoin {
                outer,
                inner,
                rows,
                cost,
                ..
            } => {
                line(out, "Merge Join", "", *rows, *cost);
                outer.explain_into(out, depth + 1);
                inner.explain_into(out, depth + 1);
            }
            PlanNode::HashJoin {
                outer,
                inner,
                rows,
                cost,
                ..
            } => {
                line(out, "Hash Join", "", *rows, *cost);
                outer.explain_into(out, depth + 1);
                inner.explain_into(out, depth + 1);
            }
            PlanNode::Agg {
                input,
                kind,
                rows,
                cost,
            } => {
                let name = match kind {
                    AggKind::Sorted => "GroupAggregate",
                    AggKind::Hashed => "HashAggregate",
                    AggKind::Plain => "Aggregate",
                };
                line(out, name, "", *rows, *cost);
                input.explain_into(out, depth + 1);
            }
        }
    }
}

/// Materializes the owned plan tree for a path.
pub fn build_plan(arena: &PathArena, info: &PlannerInfo<'_>, id: PathId) -> PlanNode {
    let p = arena.get(id);
    let cost = p.cost;
    let rows = p.rows;
    match &p.kind {
        PathKind::SeqScan { rel } => PlanNode::SeqScan {
            rel: *rel,
            table: info.base[*rel as usize].table,
            rows,
            cost,
        },
        PathKind::IndexScan {
            rel,
            index,
            index_only,
            param,
        } => {
            let (name, keys) = resolve_index(info, *index);
            PlanNode::IndexScan {
                rel: *rel,
                table: info.base[*rel as usize].table,
                index_name: name,
                key_columns: keys,
                index_only: *index_only,
                parameterized: param.is_some(),
                rows,
                cost,
            }
        }
        PathKind::BitmapScan { rel, index } => {
            let (name, keys) = resolve_index(info, *index);
            PlanNode::BitmapScan {
                rel: *rel,
                table: info.base[*rel as usize].table,
                index_name: name,
                key_columns: keys,
                rows,
                cost,
            }
        }
        PathKind::Sort { input } => {
            let rels = p.rels;
            let keys = (arena.keys(p.pathkeys).iter())
                .filter_map(|&ec| info.ec_member_in(ec, rels))
                .collect();
            PlanNode::Sort {
                input: Box::new(build_plan(arena, info, *input)),
                keys,
                rows,
                cost,
            }
        }
        PathKind::Material { input } => PlanNode::Material {
            input: Box::new(build_plan(arena, info, *input)),
            rows,
            cost,
        },
        PathKind::NestLoop { outer, inner }
        | PathKind::MergeJoin { outer, inner }
        | PathKind::HashJoin { outer, inner } => {
            let quals = join_quals(arena, info, *outer, *inner);
            let o = Box::new(build_plan(arena, info, *outer));
            let i = Box::new(build_plan(arena, info, *inner));
            match &p.kind {
                PathKind::NestLoop { .. } => PlanNode::NestLoop {
                    outer: o,
                    inner: i,
                    quals,
                    rows,
                    cost,
                },
                PathKind::MergeJoin { .. } => PlanNode::MergeJoin {
                    outer: o,
                    inner: i,
                    quals,
                    rows,
                    cost,
                },
                _ => PlanNode::HashJoin {
                    outer: o,
                    inner: i,
                    quals,
                    rows,
                    cost,
                },
            }
        }
        PathKind::Agg { input, kind } => PlanNode::Agg {
            input: Box::new(build_plan(arena, info, *input)),
            kind: *kind,
            rows,
            cost,
        },
    }
}

fn resolve_index(info: &PlannerInfo<'_>, ixref: IndexRef) -> (String, Vec<u16>) {
    match ixref {
        IndexRef::Catalog(id) => {
            let ix = info.catalog.index(id);
            (ix.name().to_string(), ix.key_columns().to_vec())
        }
        IndexRef::Config(i) => {
            let ix = &info.config.indexes()[i];
            (ix.name().to_string(), ix.key_columns().to_vec())
        }
    }
}

fn join_quals(
    arena: &PathArena,
    info: &PlannerInfo<'_>,
    outer: PathId,
    inner: PathId,
) -> Vec<JoinQual> {
    let outer_set = arena.get(outer).rels;
    let inner_set = arena.get(inner).rels;
    info.edges_between(outer_set, inner_set)
        .map(|e| {
            if outer_set.contains(e.left.0) {
                (e.left, e.right)
            } else {
                (e.right, e.left)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::collect_access_paths;
    use crate::addpath::{AddPathStats, PathList, PruneMode};
    use crate::joinsearch::{JoinSearch, JoinSearchOptions};
    use pinum_catalog::{Catalog, Column, ColumnType, Configuration, Table};
    use pinum_cost::CostParams;
    use pinum_query::QueryBuilder;

    #[test]
    fn build_and_explain_join_plan() {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "a",
            10_000,
            vec![Column::new("k", ColumnType::Int8).with_ndv(10_000)],
        ));
        cat.add_table(Table::new(
            "b",
            1_000,
            vec![Column::new("k", ColumnType::Int8).with_ndv(1_000)],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("a")
            .table("b")
            .join(("a", "k"), ("b", "k"))
            .select(("a", "k"))
            .build();
        let cfg = Configuration::empty();
        let info = PlannerInfo::new(&cat, &q, &cfg);
        let params = CostParams::default();
        let mut arena = PathArena::new();
        let mut stats = AddPathStats::default();
        let mut base = Vec::new();
        for r in 0..2u16 {
            let mut list = PathList::new();
            for p in collect_access_paths(&info, &params, &mut arena, r, false, None).paths {
                list.add_path(&mut arena, p, PruneMode::Standard, &mut stats);
            }
            base.push(list);
        }
        let opts = JoinSearchOptions {
            enable_nestloop: true,
            prune_mode: PruneMode::Standard,
            subset_pruning: true,
        };
        let (top, _, _) = JoinSearch::new(&info, &params, opts).run(&mut arena, base);
        let best = top.cheapest_total(&arena).unwrap();
        let plan = build_plan(&arena, &info, best);
        assert!(plan.node_count() >= 3);
        let text = plan.explain();
        assert!(
            text.contains("Join") || text.contains("Nested Loop"),
            "{text}"
        );
        assert!(text.contains("Seq Scan"), "{text}");
        // The join must carry the equi-join qual.
        match &plan {
            PlanNode::HashJoin { quals, .. }
            | PlanNode::MergeJoin { quals, .. }
            | PlanNode::NestLoop { quals, .. } => {
                assert_eq!(quals.len(), 1);
            }
            other => panic!("unexpected root {other:?}"),
        }
    }
}
