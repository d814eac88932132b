//! Syntactic candidate-index generation (paper §V-E): "The tool first
//! statically analyses the queries to find a large set of candidate
//! indexes."
//!
//! Per query and relation we emit:
//!
//! 1. a single-column index per interesting-order column (join / GROUP BY
//!    / ORDER BY columns — definition 2);
//! 2. a single-column index per filter column;
//! 3. two-column indexes pairing each filter column with each
//!    interesting-order column (filter-leading: selective lookups that
//!    also narrow the fetch; order-leading: ordered scans that cover the
//!    filter);
//! 4. covering indexes over *all* referenced columns, one variant per
//!    possible leading column among the filter and interesting-order
//!    columns — these enable index-only plans, which is how the paper's
//!    tool "reduces the cost of the most expensive queries by building
//!    covering indexes".
//!
//! On top of per-query generation, [`merge_prefix_subsumed`] performs
//! *workload-level* merging: candidates whose key columns are a strict
//! prefix of a wider candidate on the same table are dropped, shrinking
//! the pool before any optimizer call prices it.

use pinum_catalog::{Catalog, Index, TableId};
use pinum_core::CandidatePool;
use pinum_query::{Query, RelIdx};
use std::collections::HashMap;

/// Generates the deduplicated candidate pool for a workload.
pub fn generate_candidates(catalog: &Catalog, queries: &[Query]) -> CandidatePool {
    let mut pool = CandidatePool::new();
    for q in queries {
        for rel in 0..q.relation_count() as RelIdx {
            generate_for_relation(catalog, q, rel, &mut pool);
        }
    }
    pool
}

/// Scan-cost penalty a subsuming wide index charges over the narrow one
/// it replaces, above which [`merge_prefix_subsumed`] keeps the narrow
/// candidate. The penalty is relative leaf-page growth — the dominant
/// term of every scan shape the narrow index served (range scans,
/// index-only scans, and the per-probe descent all price proportionally
/// to the leaf size at equal selectivity). This default is calibrated so
/// that the ordinary prefix pairs candidate generation emits (one or two
/// extra join/filter key columns) merge exactly as the unconditional
/// merge did, while a pathological pair — a skinny key subsumed by a
/// fat covering index many times its size — survives, because replacing
/// it would distort pricing far beyond the model's noise, not trim it.
pub const MERGE_PENALTY_NOISE_FLOOR: f64 = 8.0;

/// Workload-level candidate merging: drops every candidate whose key
/// columns are a strict **prefix** of a wider candidate on the same table
/// (same uniqueness), provided the wider index's scan-cost penalty stays
/// under [`MERGE_PENALTY_NOISE_FLOOR`]. The wider index serves every plan
/// shape the narrow one could — the same interesting orders (order
/// prefixes), the same lookups, plus covering variants — at a somewhat
/// higher per-scan cost, so this trades a little pricing fidelity for a
/// smaller pool *before* any optimizer call or model construction
/// happens. Returns the merged pool (survivors in original pool order, so
/// runs are deterministic) and the number of candidates dropped.
pub fn merge_prefix_subsumed(pool: &CandidatePool) -> (CandidatePool, usize) {
    merge_prefix_subsumed_with(pool, MERGE_PENALTY_NOISE_FLOOR)
}

/// [`merge_prefix_subsumed`] with an explicit penalty ceiling:
/// `f64::INFINITY` reproduces the unconditional (pre-cost-aware) merge;
/// `0.0` merges only extensions that are literally free (padding can
/// make an extra narrow column cost zero leaf pages); a negative ceiling
/// disables merging entirely.
pub fn merge_prefix_subsumed_with(
    pool: &CandidatePool,
    max_penalty: f64,
) -> (CandidatePool, usize) {
    // Group candidate ids by (table, uniqueness); prefix subsumption never
    // crosses either boundary.
    let mut groups: HashMap<(TableId, bool), Vec<usize>> = HashMap::new();
    for (id, ix) in pool.indexes().iter().enumerate() {
        groups
            .entry((ix.table(), ix.is_unique()))
            .or_default()
            .push(id);
    }
    let mut dropped = vec![false; pool.len()];
    for ids in groups.values() {
        // Lexicographic order on key columns makes every strict prefix's
        // extensions a contiguous run right behind it: for A < B < C with
        // A a prefix of C, B also starts with A. So each candidate scans
        // forward over its own run and stops at the first non-extension.
        let mut sorted = ids.clone();
        sorted.sort_by(|&a, &b| pool.index(a).key_columns().cmp(pool.index(b).key_columns()));
        for (i, &a) in sorted.iter().enumerate() {
            let narrow = pool.index(a);
            let ka = narrow.key_columns();
            let mut cheapest = f64::INFINITY;
            for &b in &sorted[i + 1..] {
                let wide = pool.index(b);
                if !wide.key_columns().starts_with(ka) {
                    break;
                }
                cheapest = cheapest.min(scan_penalty(narrow, wide));
            }
            // `cheapest` stays infinite when no extension exists at all —
            // finite-check first so an `INFINITY` ceiling means "any
            // extension subsumes", not "drop everything".
            if cheapest.is_finite() && cheapest <= max_penalty {
                dropped[a] = true;
            }
        }
    }
    let survivors: Vec<Index> = pool
        .indexes()
        .iter()
        .enumerate()
        .filter(|(id, _)| !dropped[*id])
        .map(|(_, ix)| ix.clone())
        .collect();
    let n_dropped = pool.len() - survivors.len();
    (CandidatePool::from_indexes(survivors), n_dropped)
}

/// Relative extra leaf pages a scan pays for using `wide` where `narrow`
/// sufficed.
fn scan_penalty(narrow: &Index, wide: &Index) -> f64 {
    let n = narrow.size().leaf_pages.max(1) as f64;
    let w = wide.size().leaf_pages as f64;
    ((w - n) / n).max(0.0)
}

fn generate_for_relation(catalog: &Catalog, q: &Query, rel: RelIdx, pool: &mut CandidatePool) {
    let table = catalog.table(q.table_of(rel));
    let orders = q.interesting_orders();
    let order_cols: Vec<u16> = orders.orders_of(rel).to_vec();
    let filter_cols: Vec<u16> = {
        let mut v: Vec<u16> = q.filters_on(rel).map(|f| f.column).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let referenced = q.referenced_columns(rel);

    // 1. Single-column order indexes.
    for &c in &order_cols {
        pool.add(Index::hypothetical(table, vec![c], false));
    }
    // 2. Single-column filter indexes.
    for &c in &filter_cols {
        pool.add(Index::hypothetical(table, vec![c], false));
    }
    // 3. Two-column combinations.
    for &f in &filter_cols {
        for &o in &order_cols {
            if f != o {
                pool.add(Index::hypothetical(table, vec![f, o], false));
                pool.add(Index::hypothetical(table, vec![o, f], false));
            }
        }
    }
    // 4. Covering indexes (only when they add columns beyond the leader).
    if referenced.len() > 1 {
        let mut leaders: Vec<u16> = filter_cols
            .iter()
            .chain(order_cols.iter())
            .copied()
            .collect();
        leaders.sort_unstable();
        leaders.dedup();
        for &lead in &leaders {
            let mut keys = vec![lead];
            keys.extend(referenced.iter().copied().filter(|&c| c != lead));
            pool.add(Index::hypothetical(table, keys, false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, Table};
    use pinum_query::QueryBuilder;

    fn setup() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            100_000,
            vec![
                Column::new("fk", ColumnType::Int8).with_ndv(1_000),
                Column::new("v", ColumnType::Int4).with_ndv(1_000),
                Column::new("s", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "d",
            1_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(1_000),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        (cat, q)
    }

    #[test]
    fn generates_order_filter_and_covering_candidates() {
        let (cat, q) = setup();
        let pool = generate_candidates(&cat, std::slice::from_ref(&q));
        assert!(!pool.is_empty());
        let f = cat.table_id("f").unwrap();
        let d = cat.table_id("d").unwrap();
        // f: order index on fk, filter index on v, two 2-col combos,
        // covering variants led by fk and v.
        let f_cands = pool.on_table(f);
        assert!(f_cands.len() >= 5, "got {}", f_cands.len());
        // Among them: a covering index containing all referenced f columns.
        let referenced = q.referenced_columns(0);
        assert!(f_cands
            .iter()
            .any(|&i| pool.index(i).covers_columns(&referenced)));
        // d: order indexes on k and w + covering variants.
        assert!(pool.on_table(d).len() >= 3);
    }

    #[test]
    fn candidates_are_deduplicated_across_queries() {
        let (cat, q) = setup();
        let once = generate_candidates(&cat, std::slice::from_ref(&q));
        let twice = generate_candidates(&cat, &[q.clone(), q]);
        assert_eq!(once.len(), twice.len());
    }

    #[test]
    fn merge_drops_strict_prefixes_only() {
        let (cat, _) = setup();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false), // prefix of [0,1] → dropped
            Index::hypothetical(&f, vec![0, 1], false), // prefix of [0,1,2] → dropped
            Index::hypothetical(&f, vec![0, 1, 2], false), // widest: kept
            Index::hypothetical(&f, vec![1], false), // no extension: kept
            Index::hypothetical(&f, vec![2, 0], false), // kept
            Index::hypothetical(&d, vec![0], false), // other table: kept
        ]);
        let (merged, dropped) = merge_prefix_subsumed(&pool);
        assert_eq!(dropped, 2);
        assert_eq!(merged.len(), 4);
        let keys: Vec<&[u16]> = merged
            .indexes()
            .iter()
            .filter(|i| i.table() == f.id())
            .map(|i| i.key_columns())
            .collect();
        assert!(keys.contains(&&[0u16, 1, 2][..]));
        assert!(keys.contains(&&[1u16][..]));
        assert!(keys.contains(&&[2u16, 0][..]));
        assert!(!keys.contains(&&[0u16][..]));
        assert!(!keys.contains(&&[0u16, 1][..]));
        // d's single index survives (prefix relations never cross tables).
        assert_eq!(merged.on_table(cat.table_id("d").unwrap()).len(), 1);
    }

    #[test]
    fn merge_non_adjacent_prefix_is_still_found() {
        // [0] < [0,1] < [0,2] lexicographically: [0] is adjacent only to
        // [0,1], but it must still be dropped as a prefix of both.
        let (cat, _) = setup();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0, 2], false),
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![0, 1], false),
        ]);
        let (merged, dropped) = merge_prefix_subsumed(&pool);
        assert_eq!(dropped, 1);
        assert!(merged.indexes().iter().all(|i| i.key_columns().len() == 2));
    }

    #[test]
    fn cost_aware_merge_is_bit_identical_where_the_guard_does_not_fire() {
        // On pools that candidate generation actually emits, every
        // subsuming extension stays well under the noise floor: the
        // cost-aware default must pick the exact survivor list (same
        // indexes, same order) as the unconditional merge.
        let (cat, q) = setup();
        let pool = generate_candidates(&cat, std::slice::from_ref(&q));
        let (merged, dropped) = merge_prefix_subsumed(&pool);
        let (unconditional, dropped_unconditional) =
            merge_prefix_subsumed_with(&pool, f64::INFINITY);
        assert_eq!(dropped, dropped_unconditional);
        let keys = |p: &CandidatePool| {
            p.indexes()
                .iter()
                .map(|i| (i.table(), i.key_columns().to_vec(), i.is_unique()))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(&merged), keys(&unconditional));
    }

    #[test]
    fn cost_aware_merge_keeps_a_prefix_its_wide_twin_would_overprice() {
        // A skinny single-column key vs a fat covering extension dozens
        // of times its leaf size: the old merge dropped the skinny index
        // unconditionally; the cost guard must keep it.
        let mut cat = Catalog::new();
        let mut cols = vec![Column::new("k", ColumnType::Int4).with_ndv(100_000)];
        for i in 0..30 {
            cols.push(Column::new(format!("p{i}"), ColumnType::Int8).with_ndv(1_000));
        }
        let wide_table = cat.add_table(Table::new("fat", 1_000_000, cols));
        let t = cat.table(wide_table).clone();
        let narrow = Index::hypothetical(&t, vec![0], false);
        let fat = Index::hypothetical(&t, (0..31u16).collect(), false);
        let penalty = (fat.size().leaf_pages as f64 - narrow.size().leaf_pages as f64)
            / narrow.size().leaf_pages as f64;
        assert!(
            penalty > MERGE_PENALTY_NOISE_FLOOR,
            "fixture not fat enough: penalty {penalty:.2}"
        );
        let pool = CandidatePool::from_indexes(vec![narrow, fat]);
        let (merged, dropped) = merge_prefix_subsumed(&pool);
        assert_eq!(dropped, 0, "cost guard should keep the skinny index");
        assert_eq!(merged.len(), 2);
        // The unconditional merge (penalty ceiling lifted) still drops it.
        let (_, dropped_unconditional) = merge_prefix_subsumed_with(&pool, f64::INFINITY);
        assert_eq!(dropped_unconditional, 1);
        // A negative ceiling disables merging outright; a zero ceiling
        // admits only literally-free extensions (alignment padding can
        // make one extra narrow column cost zero leaf pages).
        let (cat2, q) = setup();
        let generated = generate_candidates(&cat2, std::slice::from_ref(&q));
        let (_, dropped_negative) = merge_prefix_subsumed_with(&generated, -1.0);
        assert_eq!(dropped_negative, 0);
        let (_, dropped_zero) = merge_prefix_subsumed_with(&generated, 0.0);
        let (_, dropped_default) = merge_prefix_subsumed(&generated);
        assert!(dropped_zero <= dropped_default);
    }

    #[test]
    fn merge_shrinks_generated_pools_and_is_idempotent() {
        let (cat, q) = setup();
        let pool = generate_candidates(&cat, std::slice::from_ref(&q));
        let (merged, dropped) = merge_prefix_subsumed(&pool);
        assert!(dropped > 0, "generated pool should contain prefixes");
        assert_eq!(merged.len() + dropped, pool.len());
        let (again, dropped_again) = merge_prefix_subsumed(&merged);
        assert_eq!(dropped_again, 0, "merging must be idempotent");
        assert_eq!(again.len(), merged.len());
    }

    #[test]
    fn all_candidates_are_hypothetical() {
        let (cat, q) = setup();
        let pool = generate_candidates(&cat, &[q]);
        for ix in pool.indexes() {
            assert_eq!(ix.kind(), pinum_catalog::IndexKind::Hypothetical);
        }
    }
}
