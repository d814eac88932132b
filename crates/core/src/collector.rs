//! # Workload-level batched PINUM collection
//!
//! [`collect_pinum`](crate::access_costs::collect_pinum) prices a query's
//! entire candidate pool with one keep-all optimizer call — but building a
//! workload model that way spends that call *beside* the query's
//! exporting call, re-deriving access paths for the same tables hundreds
//! of times. On the 200-query scale workload, the 200 collections
//! collapse onto a few dozen distinct **templates**: a relation's
//! access-arm costs are a function of its `(table, filter shape)`
//! signature alone ([`pinum_query::RelTemplate`]), not of the query
//! around it.
//!
//! [`WorkloadCollector`] exploits that. Relations are grouped by
//! template, and each template's arms are priced **once**, against the
//! pool's candidates on its table, in both covering variants and keyed by
//! leading column. [`WorkloadCollector::build_query`] prices the
//! templates a query is first to present inside that query's own
//! exporting call (a `PricingRequest` to the optimizer, answered by its
//! access-path collector), so a query costs exactly **one** optimizer
//! call: its plan cache and its access costs come from the same call.
//! Every later member relation reuses the cached group. Fan-out applies
//! the member's own interpretation —
//!
//! * covering test: `index.covers_columns(member referenced columns)`
//!   selects the heap or index-only variant of each arm;
//! * ordering: an arm covers an interesting order iff its leading column
//!   is one of the member relation's interesting orders;
//! * probes stay *inputs* ([`pinum_cost::scan::IndexScanInput`] at loop
//!   count 1), so per-plan loop counts are re-priced exactly as on the
//!   per-query path —
//!
//! and pushes entries in the per-query collector's order (sequential
//! scan, then catalog indexes, then candidates ascending by pool id;
//! plain before bitmap), so after the same stable sort the reconstructed
//! [`AccessCostCatalog`] is **bit-identical** to what `collect_pinum`
//! returns. Debug builds assert exactly that on every fan-out (sampled to
//! every k-th query via `PINUM_ASSERT_SAMPLE` — see [`crate::sampling`] —
//! so debug acceptance runs stay bounded); `pinum-bench`'s
//! `batched_collection` acceptance test re-checks it in release mode and
//! gates the call counts on the 200q×400c workload: 200 exporting calls
//! and no other, against 200 + 33 with standalone template calls.
//!
//! [`WorkloadCollector::collect`] and [`WorkloadCollector::prime_templates`]
//! (over [`workload_templates`]) price missing templates with a
//! standalone `Optimizer::price_template` call each instead: the path for
//! a query whose plan cache is built elsewhere, and the reference the
//! fused path is checked against.

use crate::access_costs::{AccessCostCatalog, CandidateAccess, CollectStats};
use crate::builder::{build_cache_pinum_with_requests, BuilderOptions, BuiltCache};
use crate::cache::PlanCache;
use crate::candidates::CandidatePool;
use pinum_catalog::{Configuration, IndexKind, TableId};
use pinum_cost::CostParams;
use pinum_optimizer::{AccessSource, IndexRef, Optimizer, PricingRequest, TemplateArm};
use pinum_query::{Query, RelIdx, RelTemplate, TemplateKey};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One cached template group: the shared arms plus the resolution of
/// configuration positions back to pool candidate ids.
#[derive(Debug, Clone)]
struct TemplateGroup {
    arms: Vec<TemplateArm>,
    /// Config position → pool id (the candidates on the template's table,
    /// ascending by pool id — the order `Selection::full` would hand the
    /// per-query collector).
    pool_ids: Vec<usize>,
}

/// The workload-level batched collector. See the module docs.
#[derive(Debug, Default)]
pub struct WorkloadCollector {
    groups: HashMap<TemplateKey, TemplateGroup>,
    /// What the groups were priced against: the candidate pool's
    /// structural fingerprint and the optimizer's cost parameters. A
    /// collector is valid for exactly one of each (guarded loudly — arms
    /// priced for one pool, or under one set of parameters, must not
    /// price another).
    priced_against: Option<(u64, CostParams)>,
    optimizer_calls: usize,
    templates_priced: usize,
    template_hits: usize,
}

/// Structural identity of a pool: every index's table, key columns,
/// uniqueness, kind and size, in pool order. Two pools with the same
/// fingerprint price identically, so cached template arms transfer.
fn pool_fingerprint(pool: &CandidatePool) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pool.len().hash(&mut h);
    for index in pool.indexes() {
        index.table().hash(&mut h);
        index.key_columns().hash(&mut h);
        index.is_unique().hash(&mut h);
        // A materialized index and its hypothetical twin differ in
        // internal pages, so in price.
        (index.kind() == IndexKind::Hypothetical).hash(&mut h);
        let size = index.size();
        (size.leaf_pages, size.internal_pages, size.height).hash(&mut h);
    }
    h.finish()
}

/// The pool's candidates on `table` as a configuration, plus the
/// position → pool id map its arms' `IndexRef::Config`s resolve through.
fn pool_config(pool: &CandidatePool, table: TableId) -> (Configuration, Vec<usize>) {
    let pool_ids = pool.on_table(table).to_vec();
    let config = Configuration::new(pool_ids.iter().map(|&i| pool.index(i).clone()).collect());
    (config, pool_ids)
}

impl WorkloadCollector {
    /// An empty collector; the template cache fills on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative standalone `price_template` calls, spent by `collect`
    /// and `prime_templates` — one per template they priced. Templates
    /// [`Self::build_query`] prices ride on the query's exporting call
    /// and cost none.
    pub fn optimizer_calls(&self) -> usize {
        self.optimizer_calls
    }

    /// Cumulative distinct templates priced, by either route.
    pub fn templates_priced(&self) -> usize {
        self.templates_priced
    }

    /// Cumulative relation collections served from the template cache
    /// without pricing.
    pub fn template_hits(&self) -> usize {
        self.template_hits
    }

    fn guard(&mut self, optimizer: &Optimizer<'_>, pool: &CandidatePool) {
        let fingerprint = pool_fingerprint(pool);
        let params = *optimizer.params();
        match self.priced_against {
            None => self.priced_against = Some((fingerprint, params)),
            Some((f, p)) => {
                assert_eq!(
                    f, fingerprint,
                    "WorkloadCollector reused across candidate pools — cached template arms \
                     reference candidates of the pool they were collected against"
                );
                assert!(
                    p == params,
                    "WorkloadCollector reused across cost parameters — cached template arms \
                     carry the prices of the optimizer that first saw them"
                );
            }
        }
    }

    /// Prices one template group with a standalone optimizer call.
    fn price_group(
        optimizer: &Optimizer<'_>,
        pool: &CandidatePool,
        template: &RelTemplate,
    ) -> TemplateGroup {
        let (config, pool_ids) = pool_config(pool, template.table);
        TemplateGroup {
            arms: optimizer.price_template(template, &config),
            pool_ids,
        }
    }

    /// Builds one query's PINUM plan cache and collects its access costs
    /// with **one** optimizer call: the exporting call also prices every
    /// template the query is first to present, and every other relation
    /// reuses a cached group.
    ///
    /// The cache equals [`crate::build_cache_pinum`]'s and the catalog
    /// equals [`collect_pinum`](crate::access_costs::collect_pinum)'s,
    /// bit for bit — the catalog debug-asserted as in [`Self::collect`].
    pub fn build_query(
        &mut self,
        optimizer: &Optimizer<'_>,
        query: &Query,
        pool: &CandidatePool,
        opts: &BuilderOptions,
    ) -> (BuiltCache, AccessCostCatalog) {
        self.guard(optimizer, pool);
        let rels = query.relation_count();
        let mut keys: Vec<TemplateKey> = Vec::with_capacity(rels);
        let mut requests = Vec::new();
        let mut pool_ids = Vec::new();
        for rel in 0..rels as RelIdx {
            let template = RelTemplate::of(query, rel);
            let key = template.key();
            // A template seen earlier in this query is already requested.
            if !self.groups.contains_key(&key) && !keys.contains(&key) {
                let (config, ids) = pool_config(pool, template.table);
                requests.push(PricingRequest { rel, config });
                pool_ids.push(ids);
            }
            keys.push(key);
        }
        let (built, arms) = build_cache_pinum_with_requests(optimizer, query, opts, &requests);
        for ((request, pool_ids), arms) in requests.iter().zip(pool_ids).zip(arms) {
            let key = keys[request.rel as usize].clone();
            self.groups.insert(key, TemplateGroup { arms, pool_ids });
        }
        self.templates_priced += requests.len();
        self.template_hits += rels - requests.len();
        let catalog = self.fan_out_query(optimizer, query, pool, &keys);
        (built, catalog)
    }

    /// Collects one query's access costs, sharing template groups with
    /// every query collected before (and after) it. Returns the catalog
    /// plus the stats of *this* call — `optimizer_calls` is the number of
    /// templates this query was first to present (0 on a full cache hit),
    /// each priced by a standalone `price_template` call.
    ///
    /// The result is bit-identical to
    /// [`collect_pinum`](crate::access_costs::collect_pinum) over the
    /// same `(optimizer, query, pool)` — debug-asserted here (sampled),
    /// and re-checked in release mode by the `batched_collection`
    /// acceptance test.
    pub fn collect(
        &mut self,
        optimizer: &Optimizer<'_>,
        query: &Query,
        pool: &CandidatePool,
    ) -> (AccessCostCatalog, CollectStats) {
        let start = Instant::now();
        self.guard(optimizer, pool);
        let mut calls = 0usize;
        let mut keys: Vec<TemplateKey> = Vec::with_capacity(query.relation_count());
        for rel in 0..query.relation_count() as RelIdx {
            let template = RelTemplate::of(query, rel);
            let key = template.key();
            if self.groups.contains_key(&key) {
                self.template_hits += 1;
            } else {
                let group = Self::price_group(optimizer, pool, &template);
                self.groups.insert(key.clone(), group);
                calls += 1;
            }
            keys.push(key);
        }
        self.optimizer_calls += calls;
        self.templates_priced += calls;
        let catalog = self.fan_out_query(optimizer, query, pool, &keys);
        let entries = catalog.per_rel().iter().map(Vec::len).sum();
        (
            catalog,
            CollectStats {
                optimizer_calls: calls,
                wall: start.elapsed(),
                entries,
            },
        )
    }

    /// Fans the cached groups of `keys` (one per relation of `query`) out
    /// into the query's catalog.
    fn fan_out_query(
        &self,
        optimizer: &Optimizer<'_>,
        query: &Query,
        pool: &CandidatePool,
        keys: &[TemplateKey],
    ) -> AccessCostCatalog {
        let mut catalog = AccessCostCatalog::new(query.relation_count());
        catalog.set_params(*optimizer.params());
        let orders = query.interesting_orders();
        for (rel, key) in (0..).zip(keys) {
            fan_out(
                &mut catalog,
                rel,
                &self.groups[key],
                optimizer,
                pool,
                &query.referenced_columns(rel),
                orders.orders_of(rel),
            );
        }
        catalog.sort();

        #[cfg(debug_assertions)]
        if crate::sampling::should_assert() {
            // The whole point: batched collection must reproduce the
            // per-query reference path bit for bit (sampled — every k-th
            // collected query — via `PINUM_ASSERT_SAMPLE`).
            let (reference, _) = crate::access_costs::collect_pinum(optimizer, query, pool);
            debug_assert!(
                catalog == reference,
                "batched collection diverged from per-query collect_pinum for {}",
                query.name
            );
        }
        catalog
    }

    /// Prices every template of `templates` (a deduplicated list, see
    /// [`workload_templates`]) not yet in the cache, returning the number
    /// of optimizer calls spent, one per missing template in list order.
    pub fn prime_templates(
        &mut self,
        optimizer: &Optimizer<'_>,
        templates: &[(TemplateKey, RelTemplate)],
        pool: &CandidatePool,
    ) -> usize {
        self.guard(optimizer, pool);
        let mut calls = 0usize;
        for (key, template) in templates {
            if !self.groups.contains_key(key) {
                let group = Self::price_group(optimizer, pool, template);
                self.groups.insert(key.clone(), group);
                calls += 1;
            }
        }
        self.optimizer_calls += calls;
        self.templates_priced += calls;
        calls
    }
}

/// The distinct templates of a workload, deduplicated in first-encounter
/// order. Pure bookkeeping — no optimizer calls.
pub fn workload_templates(queries: &[Query]) -> Vec<(TemplateKey, RelTemplate)> {
    let mut seen: std::collections::HashSet<TemplateKey> = std::collections::HashSet::new();
    let mut templates = Vec::new();
    for query in queries {
        for rel in 0..query.relation_count() as RelIdx {
            let template = RelTemplate::of(query, rel);
            let key = template.key();
            if seen.insert(key.clone()) {
                templates.push((key, template));
            }
        }
    }
    templates
}

/// Fans one cached template group out to a member relation, pushing
/// entries in the per-query collector's order.
fn fan_out(
    catalog: &mut AccessCostCatalog,
    rel: RelIdx,
    group: &TemplateGroup,
    optimizer: &Optimizer<'_>,
    pool: &CandidatePool,
    referenced: &[u16],
    rel_orders: &[u16],
) {
    for arm in &group.arms {
        let (candidate, index) = match &arm.source {
            AccessSource::SeqScan => {
                catalog.push(
                    rel,
                    CandidateAccess {
                        candidate: None,
                        order: None,
                        cost: arm.cost_heap.total,
                        probe: None,
                    },
                );
                continue;
            }
            AccessSource::Index(IndexRef::Catalog(id)) => (None, optimizer.catalog().index(*id)),
            AccessSource::Index(IndexRef::Config(i)) => {
                let pool_id = group.pool_ids[*i];
                (Some(pool_id), pool.index(pool_id))
            }
        };
        // The member's interpretation of the shared arm: covering decides
        // the variant, the leading column maps onto interesting orders.
        let index_only = index.covers_columns(referenced);
        let leading = arm.leading.expect("index arm has a leading column");
        let order = rel_orders.contains(&leading).then_some(leading);
        catalog.push(
            rel,
            CandidateAccess {
                candidate,
                order,
                cost: if index_only {
                    arm.cost_cover.total
                } else {
                    arm.cost_heap.total
                },
                probe: order.and(if index_only {
                    arm.probe_cover
                } else {
                    arm.probe_heap
                }),
            },
        );
        if let Some(bitmap) = arm.bitmap.filter(|_| !index_only) {
            catalog.push(
                rel,
                CandidateAccess {
                    candidate,
                    order: None,
                    cost: bitmap.total,
                    probe: None,
                },
            );
        }
    }
}

/// Per-query `(plan cache, access catalog)` models for a whole workload,
/// with access collection shared through a [`WorkloadCollector`].
#[derive(Debug)]
pub struct WorkloadModels {
    pub models: Vec<(PlanCache, AccessCostCatalog)>,
    /// Optimizer calls spent building plan caches — one per query, each
    /// also pricing the templates its query was first to present.
    pub cache_calls: usize,
    /// Optimizer calls spent on access collection alone: always 0, since
    /// every template is priced inside an exporting call. Kept so that
    /// `cache_calls + collect_calls` counts every call a build spends.
    pub collect_calls: usize,
    /// Distinct templates the workload collapsed onto.
    pub template_groups: usize,
    pub wall: Duration,
}

/// Builds the per-query models the [`crate::WorkloadModel`] flattens:
/// the construction path behind `pinum_advisor::advise` and the scale
/// experiments.
///
/// One [`WorkloadCollector::build_query`] per query: `queries.len()`
/// optimizer calls in all, however many templates the workload presents.
/// Every catalog is bit-identical to the per-query `collect_pinum`
/// reference, every cache to `build_cache_pinum`'s.
pub fn build_workload_models(
    optimizer: &Optimizer<'_>,
    queries: &[Query],
    pool: &CandidatePool,
    opts: &BuilderOptions,
) -> WorkloadModels {
    let start = Instant::now();
    let mut collector = WorkloadCollector::new();
    let mut cache_calls = 0usize;
    let models = queries
        .iter()
        .map(|q| {
            let (built, access) = collector.build_query(optimizer, q, pool, opts);
            cache_calls += built.stats.optimizer_calls;
            (built.cache, access)
        })
        .collect();
    WorkloadModels {
        models,
        cache_calls,
        collect_calls: collector.optimizer_calls(),
        template_groups: collector.templates_priced(),
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_costs::collect_pinum;
    use pinum_catalog::{Catalog, Column, ColumnType, Index, Table};
    use pinum_query::QueryBuilder;

    /// Two tables, three queries — q1 and q3 share both templates (same
    /// tables, same filters) despite different joins/projections/orders;
    /// q2 brings a fresh fact template (different filter bound).
    fn setup() -> (Catalog, Vec<Query>, CandidatePool) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            500_000,
            vec![
                Column::new("fk", ColumnType::Int8).with_ndv(5_000),
                Column::new("v", ColumnType::Int4).with_ndv(1_000),
                Column::new("s", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "d",
            5_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(5_000),
                Column::new("w", ColumnType::Int4).with_ndv(100),
            ],
        ));
        let q1 = QueryBuilder::new("q1", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("d", "w"))
            .build();
        let q2 = QueryBuilder::new("q2", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 25.0)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let q3 = QueryBuilder::new("q3", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("f", "s"))
            .order_by(("f", "s"))
            .build();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1], false),
            Index::hypothetical(&f, vec![1, 0, 2], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![0, 1], false),
        ]);
        (cat, vec![q1, q2, q3], pool)
    }

    #[test]
    fn batched_equals_per_query_bit_identically() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        for q in &queries {
            let (batched, _) = collector.collect(&opt, q, &pool);
            let (reference, _) = collect_pinum(&opt, q, &pool);
            assert_eq!(batched, reference, "{} diverged", q.name);
        }
    }

    #[test]
    fn shared_templates_need_no_further_calls() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let (_, s1) = collector.collect(&opt, &queries[0], &pool);
        assert_eq!(s1.optimizer_calls, 2, "q1 presents both templates");
        let (_, s2) = collector.collect(&opt, &queries[1], &pool);
        assert_eq!(s2.optimizer_calls, 1, "q2 shares d, brings a new f filter");
        let (_, s3) = collector.collect(&opt, &queries[2], &pool);
        assert_eq!(s3.optimizer_calls, 0, "q3 is a full template hit");
        assert_eq!(collector.optimizer_calls(), 3);
        assert_eq!(collector.template_hits(), 3); // q2's d + q3's f and d
    }

    #[test]
    fn prime_templates_then_collect_fans_out() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let templates = workload_templates(&queries);
        let calls = collector.prime_templates(&opt, &templates, &pool);
        assert_eq!(calls, 3, "one call per distinct template");
        for q in &queries {
            let (batched, stats) = collector.collect(&opt, q, &pool);
            assert_eq!(stats.optimizer_calls, 0, "primed: {} is a full hit", q.name);
            let (reference, _) = collect_pinum(&opt, q, &pool);
            assert_eq!(batched, reference, "{} diverged", q.name);
        }
        // A second pass over the same workload is free.
        assert_eq!(collector.prime_templates(&opt, &templates, &pool), 0);
    }

    /// Every model of `built` against the per-query references: the
    /// `collect_pinum` catalog and the `build_cache_pinum` cache.
    fn assert_per_query_models(
        opt: &Optimizer<'_>,
        queries: &[Query],
        pool: &CandidatePool,
        built: &WorkloadModels,
    ) {
        assert_eq!(built.models.len(), queries.len());
        for (q, (cache, access)) in queries.iter().zip(&built.models) {
            let (reference, _) = collect_pinum(opt, q, pool);
            assert_eq!(access, &reference, "{} diverged", q.name);
            let cached = crate::build_cache_pinum(opt, q, &BuilderOptions::default()).cache;
            assert!(cache == &cached, "{}: plan cache diverged", q.name);
        }
    }

    #[test]
    fn build_workload_models_matches_per_query_construction() {
        let (cat, mut queries, pool) = setup();
        // A fourth query repeating q3's shape (3 templates < 4 queries).
        queries.push(queries[2].clone());
        let opt = Optimizer::new(&cat);
        let built = build_workload_models(&opt, &queries, &pool, &BuilderOptions::default());
        assert_eq!(
            built.collect_calls, 0,
            "templates priced inside exporting calls"
        );
        assert_eq!(built.template_groups, 3);
        assert_eq!(built.cache_calls, queries.len());
        assert_per_query_models(&opt, &queries, &pool, &built);
    }

    #[test]
    fn build_workload_models_spends_one_call_per_diverse_query() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        // q1 + q2 present 3 distinct templates over 2 queries: still one
        // exporting call per query and no other.
        let subset = &queries[..2];
        let built = build_workload_models(&opt, subset, &pool, &BuilderOptions::default());
        assert_eq!((built.cache_calls, built.collect_calls), (2, 0));
        assert_eq!(built.template_groups, 3);
        assert_per_query_models(&opt, subset, &pool, &built);
    }

    #[test]
    fn build_query_prices_each_template_once_inside_the_export() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let opts = BuilderOptions::default();
        let priced: Vec<usize> = (queries.iter())
            .map(|q| {
                let before = collector.templates_priced();
                let (built, _) = collector.build_query(&opt, q, &pool, &opts);
                assert_eq!(built.stats.optimizer_calls, 1);
                collector.templates_priced() - before
            })
            .collect();
        // As in `shared_templates_need_no_further_calls`, but no call of
        // its own: q1 brings both templates, q2 a new f filter, q3 none.
        assert_eq!(priced, [2, 1, 0]);
        assert_eq!(collector.optimizer_calls(), 0);
        assert_eq!(collector.template_hits(), 3);
        // The groups it cached serve a later standalone collection free.
        let (_, stats) = collector.collect(&opt, &queries[2], &pool);
        assert_eq!(stats.optimizer_calls, 0);
    }

    #[test]
    #[should_panic(expected = "reused across candidate pools")]
    fn cross_pool_reuse_fails_loudly() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let _ = collector.collect(&opt, &queries[0], &pool);
        let smaller = CandidatePool::from_indexes(pool.indexes()[..2].to_vec());
        let _ = collector.collect(&opt, &queries[1], &smaller);
    }

    #[test]
    #[should_panic(expected = "reused across candidate pools")]
    fn same_length_different_pool_also_fails_loudly() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let _ = collector.collect(&opt, &queries[0], &pool);
        // Same cardinality, different last index: cached arms must not
        // transfer (they price the old pool's candidates).
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let mut indexes = pool.indexes().to_vec();
        indexes[4] = Index::hypothetical(&f, vec![2], false);
        let twin = CandidatePool::from_indexes(indexes);
        assert_eq!(twin.len(), pool.len());
        let _ = collector.collect(&opt, &queries[1], &twin);
    }

    #[test]
    #[should_panic(expected = "reused across candidate pools")]
    fn materialized_twin_pool_also_fails_loudly() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let _ = collector.collect(&opt, &queries[0], &pool);
        // Same table, keys and uniqueness, but materialized: its internal
        // pages change the arms' prices.
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let mut indexes = pool.indexes().to_vec();
        indexes[4] = Index::materialized(&d, vec![0, 1], false);
        let twin = CandidatePool::from_indexes(indexes);
        let _ = collector.collect(&opt, &queries[1], &twin);
    }

    #[test]
    #[should_panic(expected = "reused across cost parameters")]
    fn different_cost_parameters_fail_loudly() {
        let (cat, queries, pool) = setup();
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let _ = collector.build_query(&opt, &queries[0], &pool, &BuilderOptions::default());
        // Arms priced under the default parameters must not be labelled
        // with another optimizer's.
        let params = pinum_cost::CostParams {
            random_page_cost: 2.0,
            ..*opt.params()
        };
        let other = Optimizer::with_params(&cat, params);
        let _ = collector.collect(&other, &queries[2], &pool);
    }
}
