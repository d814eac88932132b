//! The top-level planner: orchestrates preprocessing, access-path
//! collection, join search and grouping, and exports the PINUM payloads.

use crate::access::{collect_access_paths, AccessCostEntry, TemplateArm};
use crate::addpath::{AddPathStats, PathList, PruneMode, SweepScratch};
use crate::grouping::finish_paths;
use crate::intmap::IntMap;
use crate::joinsearch::{JoinSearch, JoinSearchOptions};
use crate::path::{PathArena, PathId};
use crate::plan::{build_plan, PlanNode};
use crate::preprocess::PlannerInfo;
use pinum_catalog::{Catalog, Configuration};
use pinum_cost::{Cost, CostParams};
use pinum_query::{InterestingOrders, Ioc, Query, RelIdx};
use std::time::{Duration, Instant};

/// Optimizer switches, including the three PINUM hooks (§V).
#[derive(Debug, Clone, Copy)]
pub struct OptimizerOptions {
    /// PostgreSQL `enable_nestloop`; PINUM needs NL joins *completely
    /// absent* when off (§V-B).
    pub enable_nestloop: bool,
    /// §V-C hook: report the access cost of **every** index, not just the
    /// cheapest per interesting order.
    pub keep_all_access_paths: bool,
    /// §V-D hook: retain and export one optimal plan per interesting-order
    /// combination (switches the join planner to subset-cost pruning).
    pub export_ioc_plans: bool,
    /// Apply the §V-D subset-cost pruning sweeps in export mode (on by
    /// default; the ablation experiment turns it off to measure what the
    /// pruning buys).
    pub pinum_subset_pruning: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        Self {
            enable_nestloop: true,
            keep_all_access_paths: false,
            export_ioc_plans: false,
            pinum_subset_pruning: true,
        }
    }
}

impl OptimizerOptions {
    /// The configuration of a classic (unmodified-optimizer) call.
    pub fn standard() -> Self {
        Self::default()
    }

    /// The configuration of a PINUM cache-filling call (§V-D).
    pub fn pinum_export() -> Self {
        Self {
            export_ioc_plans: true,
            keep_all_access_paths: true,
            ..Self::default()
        }
    }
}

/// Counters and timing of one optimize call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerStats {
    pub elapsed: Duration,
    pub paths_added: usize,
    pub paths_rejected: usize,
    pub paths_displaced: usize,
    pub joinrels_planned: usize,
    /// Paths in the finished list (after the final §V-D sweep, if any).
    pub final_paths: usize,
    /// Nodes in the call's path arena: every path a list accepted (whether
    /// or not it was displaced or swept later), every sort, materialize and
    /// aggregation wrapper (memoized, built whether or not a candidate above
    /// it survived), and one parameterized index scan per (outer relation
    /// set, inner index). Rejected candidates are never nodes. An export
    /// with nested loops on counts both plan families: they share one arena.
    pub arena_size: usize,
}

/// One cached-plan payload exported by the §V-D hook: a plan's interesting
/// order requirements plus its cost as a linear function of per-table
/// access costs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportedPlan {
    /// Leaf interesting-order combination the plan requires.
    pub ioc: Ioc,
    /// Constant ("internal") cost — join/sort/aggregation work.
    pub internal: f64,
    /// Per-relation coefficients on the standalone access costs (1 for
    /// hash/merge inputs, the outer cardinality for re-scanned nested-loop
    /// inners).
    pub coefs: Vec<f64>,
    /// Per-relation coefficients on the *per-probe* access costs — the
    /// outer cardinality for parameterized nested-loop inner index scans.
    pub probe_coefs: Vec<f64>,
    /// True if the plan contains a nested-loop join (INUM caches these
    /// separately, §V-D).
    pub uses_nlj: bool,
    /// Estimated output rows.
    pub rows: f64,
    /// The plan's total cost at build time (= `internal + Σ coef·access`
    /// under the build configuration) — kept for validation.
    pub total_at_build: f64,
    /// Compact operator summary, e.g. `HJ(ix(0),seq(1))`.
    pub description: String,
}

/// A §V-C pricing request riding on one optimize call: price the access
/// arms of relation `rel`'s template against `config` — a caller's
/// candidate indexes on that relation's table — as
/// [`Optimizer::price_template`] would. The indexes are priced only:
/// they never become paths, so the call plans and exports exactly what it
/// would without the request.
#[derive(Debug, Clone)]
pub struct PricingRequest {
    pub rel: RelIdx,
    pub config: Configuration,
}

/// The result of one optimize call.
#[derive(Debug)]
pub struct PlannedQuery {
    /// The winning plan.
    pub plan: PlanNode,
    /// Its cost.
    pub best_cost: Cost,
    /// Its estimated output rows.
    pub best_rows: f64,
    /// The winning plan in exported (cache-ready) form — what classic INUM
    /// obtains by "parsing the generated plan" of each per-IOC call.
    pub best_export: ExportedPlan,
    /// §V-D payload: one optimal plan per retained IOC (empty unless
    /// `export_ioc_plans`).
    pub exported: Vec<ExportedPlan>,
    /// The §V-D payload of the same call with nested loops disabled: what
    /// `exported` would be under `enable_nestloop: false`, planned in this
    /// call over its access paths. Empty unless `export_ioc_plans` and
    /// `enable_nestloop` (with nested loops off, `exported` is that family).
    /// Every other field describes the nested-loop family only.
    pub exported_nlj_free: Vec<ExportedPlan>,
    /// §V-C payload: all access costs (empty unless
    /// `keep_all_access_paths`).
    pub access_costs: Vec<AccessCostEntry>,
    /// Answers to the call's [`PricingRequest`]s, in request order: each
    /// relation's template arms against its request's configuration.
    pub template_arms: Vec<Vec<TemplateArm>>,
    /// The query's interesting orders (needed to interpret [`Ioc`]s).
    pub orders: InterestingOrders,
    pub stats: PlannerStats,
}

/// The bottom-up query optimizer.
///
/// One instance per catalog; every [`Optimizer::optimize`] call is
/// independent and takes the what-if [`Configuration`] to overlay.
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    params: CostParams,
}

impl<'a> Optimizer<'a> {
    pub fn new(catalog: &'a Catalog) -> Self {
        Self {
            catalog,
            params: CostParams::default(),
        }
    }

    pub fn with_params(catalog: &'a Catalog, params: CostParams) -> Self {
        Self { catalog, params }
    }

    pub fn catalog(&self) -> &'a Catalog {
        self.catalog
    }

    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Workload-level batch hook (§V-C taken one level up): prices every
    /// access arm of one relation *template* — a `(table, filter shape)`
    /// signature shared by all queries whose relations match it — against
    /// `config`, in a single optimizer call.
    ///
    /// Each arm carries both covering variants and its leading key column,
    /// so the caller can fan the shared arms out to every member query
    /// (applying that member's covering test and interesting-order
    /// mapping) without further calls. A template met inside an exporting
    /// call is priced there instead, by a [`PricingRequest`] to
    /// [`Self::optimize_with_requests`]; this standalone call prices only
    /// templates met outside an export.
    pub fn price_template(
        &self,
        template: &pinum_query::RelTemplate,
        config: &Configuration,
    ) -> Vec<crate::access::TemplateArm> {
        crate::access::collect_template_arms(self.catalog, &self.params, template, config)
    }

    /// Optimizes `query` under `config`.
    pub fn optimize(
        &self,
        query: &Query,
        config: &Configuration,
        options: &OptimizerOptions,
    ) -> PlannedQuery {
        self.optimize_with_requests(query, config, options, &[])
    }

    /// [`Self::optimize`], also answering `requests` in the same call: the
    /// access-path collector prices each requested relation's template
    /// arms ([`PlannedQuery::template_arms`]). Everything else the call
    /// returns is what it returns without requests. Each request must
    /// name a distinct relation of `query`.
    pub fn optimize_with_requests(
        &self,
        query: &Query,
        config: &Configuration,
        options: &OptimizerOptions,
        requests: &[PricingRequest],
    ) -> PlannedQuery {
        let start = Instant::now();
        let info = PlannerInfo::new(self.catalog, query, config);
        assert!(
            (requests.iter().enumerate()).all(|(i, r)| (r.rel as usize) < info.relation_count()
                && requests[..i].iter().all(|o| o.rel != r.rel)),
            "pricing requests must name distinct relations of {}",
            query.name
        );
        let prune_mode = if options.export_ioc_plans {
            PruneMode::KeepIoc
        } else {
            PruneMode::Standard
        };

        // --- Access Path Collector. ---
        let mut arena = PathArena::new();
        let mut add_stats = AddPathStats::default();
        let mut access_costs = Vec::new();
        let mut template_arms = vec![Vec::new(); requests.len()];
        let mut base_lists = Vec::with_capacity(info.relation_count());
        let mut sweep = SweepScratch::default();
        for rel in 0..info.relation_count() as u16 {
            let request = requests.iter().position(|r| r.rel == rel);
            let acc = collect_access_paths(
                &info,
                &self.params,
                &mut arena,
                rel,
                options.keep_all_access_paths,
                request.map(|i| &requests[i].config),
            );
            access_costs.extend(acc.entries);
            if let Some(i) = request {
                template_arms[i] = acc.arms;
            }
            let mut list = PathList::new();
            for p in acc.paths {
                list.add_path(&mut arena, p, prune_mode, &mut add_stats);
            }
            if prune_mode == PruneMode::KeepIoc && options.pinum_subset_pruning {
                list.subset_cost_sweep(&arena, &mut sweep, &mut add_stats);
            }
            base_lists.push(list);
        }

        // --- Join Planner + Grouping Planner, once per plan family. ---
        let plan_family = |arena: &mut PathArena,
                           base_lists: Vec<PathList>,
                           enable_nestloop: bool,
                           add_stats: &mut AddPathStats,
                           sweep: &mut SweepScratch| {
            let search_opts = JoinSearchOptions {
                enable_nestloop,
                prune_mode,
                subset_pruning: options.pinum_subset_pruning,
            };
            let search = JoinSearch::new(&info, &self.params, search_opts);
            let (top, join_stats, joinrels) = search.run(arena, base_lists, sweep);
            add_stats.added += join_stats.added;
            add_stats.rejected += join_stats.rejected;
            add_stats.displaced += join_stats.displaced;
            let mut finished = finish_paths(arena, &info, &self.params, top, prune_mode, add_stats);
            if prune_mode == PruneMode::KeepIoc && options.pinum_subset_pruning {
                finished.subset_cost_sweep(arena, sweep, add_stats);
            }
            assert!(!finished.is_empty(), "no plan produced for {}", query.name);
            (finished, joinrels)
        };
        // An export with nested loops on also plans the NLJ-free family
        // over the same access paths. It runs first, so it sees exactly the
        // arena — and the `PathId` tie-breaks — of a standalone
        // `enable_nestloop: false` call; its counters are not reported.
        let nlj_free = (options.export_ioc_plans && options.enable_nestloop).then(|| {
            let scratch = &mut AddPathStats::default();
            plan_family(&mut arena, base_lists.clone(), false, scratch, &mut sweep).0
        });
        let (finished, joinrels) = plan_family(
            &mut arena,
            base_lists,
            options.enable_nestloop,
            &mut add_stats,
            &mut sweep,
        );

        // --- Winner + exports. ---
        let export = |id: PathId| {
            let p = arena.get(id);
            let linear = arena.linear(id, info.relation_count());
            ExportedPlan {
                ioc: p.leaf_ioc,
                internal: linear.c0,
                coefs: linear.coefs,
                probe_coefs: linear.probe_coefs,
                uses_nlj: p.uses_nestloop(&arena),
                rows: p.rows,
                total_at_build: p.cost.total,
                description: arena.describe(id),
            }
        };
        let best_id = finished.cheapest_total(&arena).expect("non-empty");
        let best = arena.get(best_id);
        let best_cost = best.cost;
        let best_rows = best.rows;
        let best_export = export(best_id);
        let plan = build_plan(&arena, &info, best_id);

        // One cheapest plan per retained leaf IOC.
        let export_family = |finished: &PathList| {
            let mut per_ioc: IntMap<Ioc, PathId> = IntMap::default();
            for id in finished.ids() {
                let p = arena.get(id);
                per_ioc
                    .entry(p.leaf_ioc)
                    .and_modify(|cur| {
                        if arena.get(*cur).cost.total > p.cost.total {
                            *cur = id;
                        }
                    })
                    .or_insert(id);
            }
            let mut plans: Vec<ExportedPlan> = per_ioc.into_values().map(export).collect();
            plans.sort_by_key(|p| p.ioc);
            plans
        };
        let exported = if options.export_ioc_plans {
            export_family(&finished)
        } else {
            Vec::new()
        };
        let exported_nlj_free = nlj_free.as_ref().map_or_else(Vec::new, export_family);

        let stats = PlannerStats {
            elapsed: start.elapsed(),
            paths_added: add_stats.added,
            paths_rejected: add_stats.rejected,
            paths_displaced: add_stats.displaced,
            joinrels_planned: joinrels,
            final_paths: finished.len(),
            arena_size: arena.len(),
        };

        PlannedQuery {
            plan,
            best_cost,
            best_rows,
            best_export,
            exported,
            exported_nlj_free,
            access_costs,
            template_arms,
            orders: info.orders.clone(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Column, ColumnType, ConfigurationBuilder, Table};
    use pinum_query::QueryBuilder;

    fn star_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("d1", ColumnType::Int8).with_ndv(10_000),
                Column::new("d2", ColumnType::Int8).with_ndv(1_000),
                Column::new("m", ColumnType::Int4).with_ndv(10_000),
            ],
        ));
        cat.add_table(Table::new(
            "dim1",
            10_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(10_000),
                Column::new("a", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "dim2",
            1_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(1_000),
                Column::new("b", ColumnType::Int4).with_ndv(20),
            ],
        ));
        cat
    }

    fn star_query(cat: &Catalog) -> Query {
        QueryBuilder::new("q", cat)
            .table("fact")
            .table("dim1")
            .table("dim2")
            .join(("fact", "d1"), ("dim1", "k"))
            .join(("fact", "d2"), ("dim2", "k"))
            .filter_range(("fact", "m"), 0.0, 100.0) // 1 %
            .select(("dim1", "a"))
            .order_by(("dim2", "b"))
            .build()
    }

    #[test]
    fn standard_call_returns_single_best_plan() {
        let cat = star_catalog();
        let q = star_query(&cat);
        let opt = Optimizer::new(&cat);
        let planned = opt.optimize(&q, &Configuration::empty(), &OptimizerOptions::standard());
        assert!(planned.exported.is_empty() && planned.exported_nlj_free.is_empty());
        assert!(planned.access_costs.is_empty());
        assert!(planned.best_cost.total > 0.0);
        assert!(planned.plan.node_count() >= 5);
    }

    #[test]
    fn pinum_call_exports_ioc_plans_and_access_costs() {
        let cat = star_catalog();
        let q = star_query(&cat);
        // Cover every interesting order, as the PINUM builder does.
        let cfg = ConfigurationBuilder::new()
            .whatif_index(&cat, cat.table_id("fact").unwrap(), vec![0])
            .whatif_index(&cat, cat.table_id("fact").unwrap(), vec![1])
            .whatif_index(&cat, cat.table_id("dim1").unwrap(), vec![0])
            .whatif_index(&cat, cat.table_id("dim2").unwrap(), vec![0])
            .whatif_index(&cat, cat.table_id("dim2").unwrap(), vec![1])
            .build();
        let opt = Optimizer::new(&cat);
        let planned = opt.optimize(&q, &cfg, &OptimizerOptions::pinum_export());
        assert!(!planned.exported.is_empty());
        assert!(planned.exported.len() > 1, "should retain multiple IOCs");
        // All access costs reported: 1 seq + indexes per relation.
        assert_eq!(
            planned.access_costs.len(),
            3 /* seq scans */ + 5 /* config indexes */
        );
        // Exported plans are consistent: internal + coef·access == total.
        for e in &planned.exported {
            // `internal` may go slightly negative for NLJ plans: probe
            // slots are normalized to the reference loop count, and the
            // residual lands in the constant. It must stay a bounded
            // fraction of the build-time total.
            assert!(
                e.internal > -0.5 * e.total_at_build,
                "internal cost implausibly negative: {e:?}"
            );
            assert!(e.total_at_build > 0.0);
        }
        // The best plan cost matches a standard call on the same config.
        let std = opt.optimize(&q, &cfg, &OptimizerOptions::standard());
        assert!(
            (std.best_cost.total - planned.best_cost.total).abs() / std.best_cost.total < 1e-9,
            "PINUM pruning changed the winner: {} vs {}",
            std.best_cost.total,
            planned.best_cost.total
        );
    }

    #[test]
    fn nestloop_disabled_yields_nlj_free_plan() {
        let cat = star_catalog();
        let q = star_query(&cat);
        let opt = Optimizer::new(&cat);
        let mut opts = OptimizerOptions::pinum_export();
        opts.enable_nestloop = false;
        let planned = opt.optimize(&q, &Configuration::empty(), &opts);
        assert!(!planned.plan.uses_nestloop());
        for e in &planned.exported {
            assert!(!e.uses_nlj, "exported NLJ plan with NL disabled: {e:?}");
        }
    }

    #[test]
    fn single_table_query_plans() {
        let cat = star_catalog();
        let q = QueryBuilder::new("q1", &cat)
            .table("dim1")
            .filter_range(("dim1", "a"), 0.0, 10.0)
            .select(("dim1", "k"))
            .order_by(("dim1", "k"))
            .build();
        let opt = Optimizer::new(&cat);
        let planned = opt.optimize(&q, &Configuration::empty(), &OptimizerOptions::standard());
        assert!(planned.best_cost.total > 0.0);
        let text = planned.plan.explain();
        assert!(text.contains("Sort"), "{text}");
    }
}
