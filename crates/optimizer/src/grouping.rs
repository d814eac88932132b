//! The grouping planner (paper Fig. 2): adds grouping constructs and final
//! ordering to the join planner's output.
//!
//! "On the return path, the grouping planner adds the grouping constructs
//! such as group-by, order-by, distinct etc. to the plans. If the grouping
//! can be done using one of the interesting orders covered by the plan then
//! the plan is forwarded as such, otherwise sort steps are added."

use crate::addpath::{AddPathStats, PathList, PruneMode};
use crate::joinsearch::make_sort_path;
use crate::path::{AggKind, KeysId, Path, PathArena, PathId, PathKind};
use crate::preprocess::{EcId, PlannerInfo};
use pinum_cost::agg::{cost_agg, AggStrategy};
use pinum_cost::{Cost, CostParams};

/// Applies grouping and ordering to every surviving join path, returning
/// the finished path list. A finished path is the join path itself or the
/// agg/sort node built above it — the list takes that node, no copy.
pub fn finish_paths(
    arena: &mut PathArena,
    info: &PlannerInfo<'_>,
    params: &CostParams,
    top: PathList,
    mode: PruneMode,
    stats: &mut AddPathStats,
) -> PathList {
    let mut group_ecs: Vec<EcId> = info.group_order.clone();
    group_ecs.dedup();
    let mut sorted_group_ecs = group_ecs.clone();
    sorted_group_ecs.sort_by_key(|e| e.0);
    sorted_group_ecs.dedup();
    let group_keys = arena.intern(&group_ecs);
    let required_keys = arena.intern(&info.required_order);

    let mut finished = PathList::new();
    for id in top.ids() {
        let pathkeys = arena.keys(arena.get(id).pathkeys);
        let grouped = if sorted_group_ecs.is_empty() {
            [Some(id), None]
        } else if prefix_covers_set(pathkeys, &sorted_group_ecs) {
            // Streaming (sorted) aggregation reuses the delivered order.
            [
                Some(agg_path(arena, info, params, id, AggKind::Sorted)),
                None,
            ]
        } else {
            let hashed = agg_path(arena, info, params, id, AggKind::Hashed);
            let sorted = make_sort_path(arena, info, params, id, group_keys);
            let sorted = agg_path(arena, info, params, sorted, AggKind::Sorted);
            [Some(hashed), Some(sorted)]
        };

        for gid in grouped.into_iter().flatten() {
            let final_id = if arena.get(gid).provides_order(arena, &info.required_order) {
                gid
            } else {
                make_sort_path(arena, info, params, gid, required_keys)
            };
            finished.add_existing(arena, final_id, mode, stats);
        }
    }
    finished
}

/// True if the first `set.len()` pathkeys are a permutation of `set`
/// (sorted agg only needs the input *grouped*, any key order works).
fn prefix_covers_set(pathkeys: &[EcId], set: &[EcId]) -> bool {
    if pathkeys.len() < set.len() {
        return false;
    }
    let mut prefix: Vec<u16> = pathkeys[..set.len()].iter().map(|e| e.0).collect();
    prefix.sort_unstable();
    prefix.dedup();
    let expect: Vec<u16> = set.iter().map(|e| e.0).collect();
    prefix == expect
}

/// Wraps `input` in an aggregation node.
fn agg_path(
    arena: &mut PathArena,
    info: &PlannerInfo<'_>,
    params: &CostParams,
    input: PathId,
    kind: AggKind,
) -> PathId {
    let inp = *arena.get(input);
    let group_cols = info.group_order.len() as u32;
    let strategy = match kind {
        AggKind::Sorted => AggStrategy::Sorted,
        AggKind::Hashed => AggStrategy::Hashed,
        AggKind::Plain => AggStrategy::Plain,
    };
    let agg = cost_agg(params, strategy, inp.rows, info.num_groups, group_cols, 1);
    let cost = match kind {
        // Streaming: startup stays the input's.
        AggKind::Sorted => Cost::new(inp.cost.startup + agg.startup, inp.cost.total + agg.total),
        // Blocking: everything must be consumed first.
        AggKind::Hashed | AggKind::Plain => {
            Cost::new(inp.cost.total + agg.startup, inp.cost.total + agg.total)
        }
    };
    let pathkeys = match kind {
        AggKind::Sorted => {
            let keys = arena.keys(inp.pathkeys);
            let prefix = keys[..info.group_order.len().min(keys.len())].to_vec();
            arena.intern(&prefix)
        }
        _ => KeysId::NONE,
    };
    arena.add(Path {
        kind: PathKind::Agg { input, kind },
        rows: info.num_groups,
        cost,
        rescan: cost,
        pathkeys,
        c0: inp.c0 + agg.total,
        ..inp
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::collect_access_paths;
    use pinum_catalog::{Catalog, Column, ColumnType, Configuration, ConfigurationBuilder, Table};
    use pinum_query::QueryBuilder;

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "t",
            100_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(100_000),
                Column::new("g", ColumnType::Int4).with_ndv(50),
            ],
        ));
        cat
    }

    fn finish_single_table(
        cat: &Catalog,
        q: &pinum_query::Query,
        cfg: &Configuration,
    ) -> (PathArena, PathList) {
        let info = PlannerInfo::new(cat, q, cfg);
        let params = CostParams::default();
        let mut arena = PathArena::new();
        let mut stats = AddPathStats::default();
        let mut list = PathList::new();
        for p in collect_access_paths(&info, &params, &mut arena, 0, false, None).paths {
            list.add_path(&mut arena, p, PruneMode::Standard, &mut stats);
        }
        let out = finish_paths(
            &mut arena,
            &info,
            &params,
            list,
            PruneMode::Standard,
            &mut stats,
        );
        (arena, out)
    }

    #[test]
    fn order_by_adds_sort_when_unordered() {
        let cat = setup();
        let q = QueryBuilder::new("q", &cat)
            .table("t")
            .select(("t", "g"))
            .order_by(("t", "a"))
            .build();
        let cfg = Configuration::empty();
        let (arena, out) = finish_single_table(&cat, &q, &cfg);
        let best = out.cheapest_total(&arena).unwrap();
        assert!(matches!(arena.get(best).kind, PathKind::Sort { .. }));
    }

    #[test]
    fn order_by_reuses_index_order() {
        let cat = setup();
        let t = cat.table_id("t").unwrap();
        let q = QueryBuilder::new("q", &cat)
            .table("t")
            .select(("t", "a"))
            .order_by(("t", "a"))
            .build();
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, t, vec![0])
            .build();
        let (arena, out) = finish_single_table(&cat, &q, &cfg);
        // Among finished paths there must be one with no sort (index
        // delivers the order); it should win since sorting 100k rows is
        // expensive.
        let best = out.cheapest_total(&arena).unwrap();
        assert!(
            matches!(arena.get(best).kind, PathKind::IndexScan { .. }),
            "expected bare index scan, got {}",
            arena.describe(best)
        );
    }

    #[test]
    fn group_by_generates_hash_and_sorted_variants() {
        let cat = setup();
        let q = QueryBuilder::new("q", &cat)
            .table("t")
            .select(("t", "g"))
            .group_by(("t", "g"))
            .build();
        let cfg = Configuration::empty();
        let (arena, out) = finish_single_table(&cat, &q, &cfg);
        assert!(!out.is_empty());
        for id in out.ids() {
            assert!(matches!(arena.get(id).kind, PathKind::Agg { .. }));
            // Group output cardinality applies.
            assert!(arena.get(id).rows <= 51.0);
        }
    }

    #[test]
    fn prefix_cover_checks_permutations() {
        assert!(prefix_covers_set(&[EcId(2), EcId(1)], &[EcId(1), EcId(2)]));
        assert!(prefix_covers_set(&[EcId(1)], &[EcId(1)]));
        assert!(!prefix_covers_set(&[EcId(1)], &[EcId(2)]));
        assert!(!prefix_covers_set(&[], &[EcId(1)]));
        assert!(prefix_covers_set(
            &[EcId(3), EcId(0), EcId(9)],
            &[EcId(0), EcId(3)]
        ));
    }
}
