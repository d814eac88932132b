//! Plan-cache construction: classic INUM (one optimizer call per
//! interesting-order combination) vs PINUM (one call, §V-D).

use crate::cache::{CachedPlan, PlanCache};
use pinum_catalog::{Catalog, Configuration, Index};
use pinum_optimizer::{Optimizer, OptimizerOptions, PricingRequest, TemplateArm};
use pinum_query::{InterestingOrders, Ioc, Query, RelIdx};
use std::time::{Duration, Instant};

/// Options for both builders.
#[derive(Debug, Clone, Copy)]
pub struct BuilderOptions {
    /// Cache nested-loop plans too (INUM treats them separately; disabling
    /// models the pure merge/hash cache of INUM observation 2).
    pub include_nlj: bool,
    /// For classic INUM: also make the two extreme-access-cost calls with
    /// nested loops enabled ("Typically, only two calls to the optimizer at
    /// the extreme access costs are sufficient", §V-D).
    pub nlj_extreme_calls: bool,
}

impl Default for BuilderOptions {
    fn default() -> Self {
        Self {
            include_nlj: true,
            nlj_extreme_calls: true,
        }
    }
}

/// Construction statistics — the quantities Figure 4/5 plots.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    pub optimizer_calls: usize,
    pub wall: Duration,
    /// Combinations enumerated (`Π (orders_r + 1)`).
    pub ioc_count: u64,
    pub plans_cached: usize,
    pub unique_plan_structures: usize,
    /// `PlannerStats::paths_added` summed over the calls made.
    pub paths_added: usize,
    /// `PlannerStats::arena_size` (path-arena nodes) summed over the calls
    /// made.
    pub arena_nodes: usize,
}

/// A built cache plus its statistics.
#[derive(Debug)]
pub struct BuiltCache {
    pub cache: PlanCache,
    pub stats: BuildStats,
}

/// Builds the what-if configuration covering **all** interesting orders of
/// the query: one single-column hypothetical index per interesting order —
/// what the PINUM call is "invoked with" (§V-D).
pub fn covering_configuration(catalog: &Catalog, query: &Query) -> Configuration {
    let orders = query.interesting_orders();
    let mut indexes = Vec::new();
    for rel in 0..query.relation_count() as RelIdx {
        let table = catalog.table(query.table_of(rel));
        for &col in orders.orders_of(rel) {
            indexes.push(Index::hypothetical(table, vec![col], false));
        }
    }
    Configuration::new(indexes)
}

/// Builds the atomic what-if configuration covering exactly one
/// interesting-order combination — what each classic INUM call uses.
pub fn covering_configuration_for_ioc(
    catalog: &Catalog,
    query: &Query,
    orders: &InterestingOrders,
    ioc: Ioc,
) -> Configuration {
    let mut indexes = Vec::new();
    for rel in 0..query.relation_count() as RelIdx {
        if let Some(col) = orders.column_of(ioc, rel) {
            let table = catalog.table(query.table_of(rel));
            indexes.push(Index::hypothetical(table, vec![col], false));
        }
    }
    Configuration::new(indexes)
}

/// PINUM cache construction (§V-D): one exporting call however many IOCs
/// the query has. With NLJ plans wanted, it plans the merge/hash family and
/// then the nested-loop one (at the low-access-cost extreme: every covering
/// index present) over one set of access paths.
pub fn build_cache_pinum(
    optimizer: &Optimizer<'_>,
    query: &Query,
    opts: &BuilderOptions,
) -> BuiltCache {
    build_cache_pinum_with_requests(optimizer, query, opts, &[]).0
}

/// [`build_cache_pinum`] whose one exporting call also answers §V-C
/// pricing `requests` (see `Optimizer::optimize_with_requests`): returns
/// the same cache plus one arm list per request, in request order.
pub(crate) fn build_cache_pinum_with_requests(
    optimizer: &Optimizer<'_>,
    query: &Query,
    opts: &BuilderOptions,
    requests: &[PricingRequest],
) -> (BuiltCache, Vec<Vec<TemplateArm>>) {
    let start = Instant::now();
    let orders = query.interesting_orders();
    let mut cache = PlanCache::new(&query.name, query.relation_count(), orders.clone());
    let covering = covering_configuration(optimizer.catalog(), query);
    let mut options = OptimizerOptions::pinum_export();
    options.enable_nestloop = opts.include_nlj;
    let planned = optimizer.optimize_with_requests(query, &covering, &options, requests);

    #[cfg(debug_assertions)]
    if opts.include_nlj && crate::sampling::should_assert() {
        // Plan for plan what a standalone NLJ-free call exports (sampled).
        options.enable_nestloop = false;
        let reference = optimizer.optimize(query, &covering, &options).exported;
        debug_assert!(planned.exported_nlj_free == reference, "{}", query.name);
    }

    // Merge/hash plans for every IOC first, then the nested-loop family.
    for e in [planned.exported_nlj_free, planned.exported]
        .into_iter()
        .flatten()
    {
        cache.insert(CachedPlan::from(e));
    }

    let stats = BuildStats {
        optimizer_calls: 1,
        wall: start.elapsed(),
        ioc_count: orders.combination_count(),
        plans_cached: cache.len(),
        unique_plan_structures: cache.unique_plan_structures(),
        paths_added: planned.stats.paths_added,
        arena_nodes: planned.stats.arena_size,
    };
    (BuiltCache { cache, stats }, planned.template_arms)
}

/// Classic INUM cache construction: enumerate every interesting-order
/// combination, create the covering atomic configuration, and invoke the
/// (unmodified) optimizer once per combination with nested loops disabled;
/// then two extreme-access-cost calls with nested loops enabled.
pub fn build_cache_inum(
    optimizer: &Optimizer<'_>,
    query: &Query,
    opts: &BuilderOptions,
) -> BuiltCache {
    let start = Instant::now();
    let orders = query.interesting_orders();
    let mut cache = PlanCache::new(&query.name, query.relation_count(), orders.clone());
    let (mut calls, mut paths_added, mut arena_nodes) = (0usize, 0usize, 0usize);
    let mut call = |config: &Configuration, options: &OptimizerOptions| {
        let planned = optimizer.optimize(query, config, options);
        calls += 1;
        paths_added += planned.stats.paths_added;
        arena_nodes += planned.stats.arena_size;
        cache.insert(CachedPlan::from(planned.best_export));
    };

    let no_nlj = OptimizerOptions {
        enable_nestloop: false,
        ..OptimizerOptions::standard()
    };
    for ioc in orders.combinations() {
        call(
            &covering_configuration_for_ioc(optimizer.catalog(), query, &orders, ioc),
            &no_nlj,
        );
    }

    if opts.include_nlj && opts.nlj_extreme_calls {
        // Low extreme: all covering indexes present (cheap access).
        let covering = covering_configuration(optimizer.catalog(), query);
        call(&covering, &OptimizerOptions::standard());
        // High extreme: no indexes at all (expensive access).
        call(&Configuration::empty(), &OptimizerOptions::standard());
    }

    let stats = BuildStats {
        optimizer_calls: calls,
        wall: start.elapsed(),
        ioc_count: orders.combination_count(),
        plans_cached: cache.len(),
        unique_plan_structures: cache.unique_plan_structures(),
        paths_added,
        arena_nodes,
    };
    BuiltCache { cache, stats }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, Table, TableId};
    use pinum_query::QueryBuilder;

    /// Number of distinct IOCs with at least one plan.
    pub(crate) fn covered_iocs(cache: &PlanCache) -> usize {
        let mut iocs: Vec<Ioc> = cache.plans().iter().map(|p| p.ioc).collect();
        iocs.sort_unstable();
        iocs.dedup();
        iocs.len()
    }

    /// At most one index per table of `tables`: the paper's *atomic*
    /// property (definition 1).
    fn is_atomic_for(cfg: &Configuration, tables: &[TableId]) -> bool {
        tables.iter().all(|&t| cfg.table_indexes(t).count() <= 1)
    }

    /// Number of relations with a required order.
    fn required_count(ioc: Ioc, relations: usize) -> usize {
        (0..relations as RelIdx)
            .filter(|&r| ioc.nibble(r) != 0)
            .count()
    }

    fn setup() -> (Catalog, Query) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            200_000,
            vec![
                Column::new("fk1", ColumnType::Int8).with_ndv(2_000),
                Column::new("fk2", ColumnType::Int8).with_ndv(500),
                Column::new("v", ColumnType::Int4).with_ndv(1_000),
            ],
        ));
        cat.add_table(Table::new(
            "d1",
            2_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(2_000),
                Column::new("a", ColumnType::Int4).with_ndv(50),
            ],
        ));
        cat.add_table(Table::new(
            "d2",
            500,
            vec![Column::new("k", ColumnType::Int8).with_ndv(500)],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("f")
            .table("d1")
            .table("d2")
            .join(("f", "fk1"), ("d1", "k"))
            .join(("f", "fk2"), ("d2", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("d1", "a"))
            .order_by(("d1", "a"))
            .build();
        (cat, q)
    }

    #[test]
    fn pinum_uses_one_call_inum_one_per_ioc() {
        let (cat, q) = setup();
        let opt = Optimizer::new(&cat);
        let opts = BuilderOptions::default();
        let pinum = build_cache_pinum(&opt, &q, &opts);
        let inum = build_cache_inum(&opt, &q, &opts);
        // f: fk1, fk2 → 2; d1: k, a → 2; d2: k → 1 ⇒ 3·3·2 = 18 IOCs.
        assert_eq!(pinum.stats.ioc_count, 18);
        assert_eq!(pinum.stats.optimizer_calls, 1);
        assert_eq!(inum.stats.optimizer_calls, 18 + 2);
        assert!(!pinum.cache.is_empty());
        assert!(!inum.cache.is_empty());
    }

    #[test]
    fn covering_configuration_covers_every_order() {
        let (cat, q) = setup();
        let cfg = covering_configuration(&cat, &q);
        assert_eq!(cfg.len(), 5); // 2 + 2 + 1 interesting orders
        let orders = q.interesting_orders();
        for rel in 0..3u16 {
            for &col in orders.orders_of(rel) {
                assert!(
                    cfg.table_indexes(q.table_of(rel))
                        .any(|ix| ix.leading_column() == col),
                    "order {col} of rel {rel} uncovered"
                );
            }
        }
    }

    #[test]
    fn per_ioc_configuration_is_atomic() {
        let (cat, q) = setup();
        let orders = q.interesting_orders();
        for ioc in orders.combinations() {
            let cfg = covering_configuration_for_ioc(&cat, &q, &orders, ioc);
            assert!(is_atomic_for(&cfg, &q.relations));
            assert_eq!(cfg.len(), required_count(ioc, q.relation_count()));
        }
    }

    #[test]
    fn cached_plans_far_fewer_than_iocs() {
        // The paper's §IV point: most per-IOC calls return redundant plans.
        let (cat, q) = setup();
        let opt = Optimizer::new(&cat);
        let inum = build_cache_inum(&opt, &q, &BuilderOptions::default());
        assert!(
            (inum.stats.unique_plan_structures as u64) < inum.stats.ioc_count,
            "unique {} vs iocs {}",
            inum.stats.unique_plan_structures,
            inum.stats.ioc_count
        );
    }

    #[test]
    fn nlj_free_build_has_no_nlj_plans() {
        let (cat, q) = setup();
        let opt = Optimizer::new(&cat);
        let opts = BuilderOptions {
            include_nlj: false,
            nlj_extreme_calls: false,
        };
        let built = build_cache_pinum(&opt, &q, &opts);
        assert_eq!(built.stats.optimizer_calls, 1);
        let (_, nlj) = built.cache.partition_by_nlj();
        assert_eq!(nlj, 0);
    }
}

#[cfg(test)]
mod single_table_tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, Table};
    use pinum_query::QueryBuilder;

    /// Single-table queries have no joins; interesting orders come from
    /// ORDER BY alone and both builders still work.
    #[test]
    fn single_table_cache() {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "t",
            50_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(50_000),
                Column::new("b", ColumnType::Int4).with_ndv(500),
            ],
        ));
        let q = QueryBuilder::new("q1", &cat)
            .table("t")
            .filter_range(("t", "b"), 0.0, 5.0)
            .select(("t", "a"))
            .order_by(("t", "a"))
            .build();
        let opt = Optimizer::new(&cat);
        let opts = BuilderOptions::default();
        let pinum = build_cache_pinum(&opt, &q, &opts);
        let inum = build_cache_inum(&opt, &q, &opts);
        assert_eq!(pinum.stats.ioc_count, 2); // (a) and (Φ)
        assert!(!pinum.cache.is_empty());
        assert!(!inum.cache.is_empty());
        assert_eq!(pinum.stats.optimizer_calls, 1);
        assert_eq!(inum.stats.optimizer_calls, 2 + 2);
    }

    /// Queries without any interesting order still cache the single Φ plan.
    #[test]
    fn no_interesting_orders_yields_one_ioc() {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "t",
            10_000,
            vec![Column::new("a", ColumnType::Int8).with_ndv(10_000)],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("t")
            .select(("t", "a"))
            .build();
        let opt = Optimizer::new(&cat);
        let built = build_cache_pinum(&opt, &q, &BuilderOptions::default());
        assert_eq!(built.stats.ioc_count, 1);
        assert_eq!(super::tests::covered_iocs(&built.cache), 1);
    }
}
