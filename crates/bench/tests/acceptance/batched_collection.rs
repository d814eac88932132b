//! Workload-level batched PINUM collection: one optimizer call per
//! template shape instead of one per query.
//!
//! Building the workload model used to spend one keep-all `collect_pinum`
//! call per query, re-deriving access paths for the same tables over and
//! over. The [`WorkloadCollector`] groups relations by `(table, filter
//! shape)` template and prices each template's access arms once, fanning
//! the shared arms out to every member query. Gates, on the 200-query ×
//! 400-candidate workload:
//!
//! * **exactness** — every batched [`AccessCostCatalog`] is bit-identical
//!   to the per-query `collect_pinum` reference (checked here in release
//!   builds too, where the collector's own `debug_assert` is compiled out);
//! * **call reduction** — 200 calls become 33, one per template (≥ 3×);
//! * **advisor equivalence** — the greedy advisor run on the batched
//!   models produces a bit-identical pick sequence, cost trajectory and
//!   byte total.

use crate::fixture::{star_fixture, BUDGET};
use pinum_advisor::greedy::GreedyOptions;
use pinum_advisor::search::{EagerGreedy, SearchStrategy};
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog, CollectStats};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::collector::workload_templates;
use pinum_core::{WorkloadCollector, WorkloadModel};
use pinum_optimizer::Optimizer;
use pinum_workload::templates::summarize_templates;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let fx = star_fixture();
    let optimizer = Optimizer::new(&fx.schema.catalog);

    // Per-query reference path: one keep-all call per query.
    let mut reference: Vec<AccessCostCatalog> = Vec::with_capacity(fx.queries.len());
    let mut per_query_calls = 0;
    for q in &fx.queries {
        let (access, stats) = collect_pinum(&optimizer, q, &fx.pool);
        per_query_calls += stats.optimizer_calls;
        reference.push(access);
    }

    // Batched path: one call per template shape, all spent priming; the
    // per-query fan-out that follows is all template hits.
    let mut collector = WorkloadCollector::new();
    let templates = workload_templates(&fx.queries);
    let bstats = CollectStats {
        optimizer_calls: collector.prime_templates(&optimizer, &templates, &fx.pool),
        ..CollectStats::default()
    };
    let batched: Vec<AccessCostCatalog> = (fx.queries.iter())
        .map(|q| collector.collect(&optimizer, q, &fx.pool).0)
        .collect();

    assert!(
        reference == batched,
        "batched collection diverged from per-query collect_pinum"
    );
    assert_eq!(
        bstats.optimizer_calls,
        summarize_templates(&fx.queries).distinct_templates,
        "collector spent calls off the template structure"
    );
    assert_eq!((per_query_calls, bstats.optimizer_calls), (200, 33));
    assert!(per_query_calls >= 3 * bstats.optimizer_calls);

    // Advisor equivalence end to end: same plan caches, both access
    // collections, bit-identical pick sequences.
    let caches: Vec<_> = fx
        .queries
        .iter()
        .map(|q| build_cache_pinum(&optimizer, q, &BuilderOptions::default()).cache)
        .collect();
    let gopts = GreedyOptions {
        budget_bytes: BUDGET,
        benefit_per_byte: false,
    };
    let pick = |access: &[AccessCostCatalog]| {
        let model = WorkloadModel::build(fx.pool.len(), caches.iter().zip(access));
        let r = EagerGreedy.search(&fx.pool, &model, &gopts);
        (r.picked, r.cost_trajectory, r.total_bytes)
    };
    assert!(
        pick(&reference) == pick(&batched),
        "advisor picks diverged between collection paths"
    );
}
