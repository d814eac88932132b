//! A7 — workload-level batched PINUM collection: one optimizer call per
//! template-shape instead of one per query.
//!
//! Building the workload model used to spend one keep-all `collect_pinum`
//! call per query — 200 calls on the scale workload, re-deriving access
//! paths for the same tables over and over. The [`WorkloadCollector`]
//! groups relations by `(table, filter shape)` template and prices each
//! template's access arms once, fanning the shared arms out to every
//! member query.
//!
//! Acceptance gates (asserted here and re-checked from the JSON in CI):
//!
//! * **exactness** — every batched [`AccessCostCatalog`] is bit-identical
//!   to the per-query `collect_pinum` reference (hard-asserted here even
//!   in release builds, where the collector's own `debug_assert` is
//!   compiled out);
//! * **call reduction** — ≥3× fewer optimizer calls than the per-query
//!   path on the 200-query × 400-candidate workload;
//! * **advisor equivalence** — the greedy advisor run on the batched
//!   models produces a bit-identical pick sequence, cost trajectory and
//!   byte total.

use crate::fixtures::{CANDIDATE_CAP, QUERIES, SCHEMA_SEED, WORKLOAD_SEED};
use crate::json::{emit, JsonObject};
use crate::table::TextTable;
use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::greedy::GreedyOptions;
use pinum_advisor::search::{EagerGreedy, SearchStrategy};
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache, WorkloadCollector, WorkloadModel};
use pinum_optimizer::Optimizer;
use pinum_workload::star::{StarSchema, StarWorkload};
use pinum_workload::templates::summarize_templates;

pub struct BatchedOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub per_query_calls: usize,
    pub batched_calls: usize,
    pub call_reduction: f64,
    pub catalogs_identical: bool,
    pub picks_identical: bool,
}

pub fn run(scale: f64) -> BatchedOutcome {
    println!(
        "A7: batched collection — {QUERIES} queries, candidate cap {CANDIDATE_CAP}, \
         schema seed {SCHEMA_SEED:#x}, workload seed {WORKLOAD_SEED:#x}\n"
    );
    let schema = StarSchema::generate(SCHEMA_SEED, scale);
    let workload = StarWorkload::generate(&schema, WORKLOAD_SEED, QUERIES);
    let full_pool = generate_candidates(&schema.catalog, &workload.queries);
    let pool = if full_pool.len() > CANDIDATE_CAP {
        CandidatePool::from_indexes(full_pool.indexes()[..CANDIDATE_CAP].to_vec())
    } else {
        full_pool
    };
    let optimizer = Optimizer::new(&schema.catalog);

    let summary = summarize_templates(&workload.queries);
    println!(
        "template structure: {} relation instances over {} distinct templates \
         (largest group {}, {} singletons, sharing factor {:.1}x)",
        summary.rel_instances,
        summary.distinct_templates,
        summary.largest_group,
        summary.singleton_templates,
        summary.sharing_factor()
    );

    // --- Per-query reference path: one keep-all call per query. ---
    let mut reference: Vec<AccessCostCatalog> = Vec::with_capacity(QUERIES);
    let mut per_query_calls = 0usize;
    for q in &workload.queries {
        let (access, stats) = collect_pinum(&optimizer, q, &pool);
        per_query_calls += stats.optimizer_calls;
        reference.push(access);
    }

    // --- Batched path: one call per template-shape. ---
    let mut collector = WorkloadCollector::new();
    let (batched, bstats) = collector.collect_workload(&optimizer, &workload.queries, &pool);
    let batched_calls = bstats.optimizer_calls;

    // --- Exactness: bit-identical catalogs, release mode included. ---
    let catalogs_identical = reference == batched;
    assert!(
        catalogs_identical,
        "batched collection diverged from per-query collect_pinum"
    );
    assert_eq!(
        batched_calls, summary.distinct_templates,
        "collector spent calls off the template structure"
    );

    // --- Advisor equivalence end to end: same plan caches, both access
    // collections, bit-identical pick sequences. ---
    let caches: Vec<PlanCache> = workload
        .queries
        .iter()
        .map(|q| build_cache_pinum(&optimizer, q, &BuilderOptions::default()).cache)
        .collect();
    let budget = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64;
    let gopts = GreedyOptions {
        budget_bytes: budget,
        benefit_per_byte: false,
    };
    let model_ref = WorkloadModel::build(pool.len(), caches.iter().zip(reference.iter()));
    let model_batched = WorkloadModel::build(pool.len(), caches.iter().zip(batched.iter()));
    let greedy_ref = EagerGreedy.search(&pool, &model_ref, &gopts);
    let greedy_batched = EagerGreedy.search(&pool, &model_batched, &gopts);
    let picks_identical = greedy_ref.picked == greedy_batched.picked
        && greedy_ref.cost_trajectory == greedy_batched.cost_trajectory
        && greedy_ref.total_bytes == greedy_batched.total_bytes;
    assert!(
        picks_identical,
        "advisor picks diverged between collection paths"
    );

    let call_reduction = per_query_calls as f64 / batched_calls.max(1) as f64;
    let mut table = TextTable::new(vec!["collection path", "optimizer calls", "entries"]);
    table.row(vec![
        "per-query collect_pinum".to_string(),
        per_query_calls.to_string(),
        reference
            .iter()
            .map(catalog_entries)
            .sum::<usize>()
            .to_string(),
    ]);
    table.row(vec![
        "batched WorkloadCollector".to_string(),
        batched_calls.to_string(),
        bstats.entries.to_string(),
    ]);
    println!("{}", table.render());
    println!(
        "call reduction: {call_reduction:.1}x (acceptance: >=3x); catalogs identical: \
         {catalogs_identical}; advisor picks identical: {picks_identical}\n"
    );

    emit(
        "batched_collection",
        &JsonObject::new()
            .int("queries", workload.queries.len() as u64)
            .int("candidates", pool.len() as u64)
            .num("scale", scale)
            .int("rel_instances", summary.rel_instances as u64)
            .int("templates", summary.distinct_templates as u64)
            .int("largest_group", summary.largest_group as u64)
            .num("sharing_factor", summary.sharing_factor())
            .int("per_query_calls", per_query_calls as u64)
            .int("batched_calls", batched_calls as u64)
            .num("call_reduction", call_reduction)
            .bool("catalogs_identical", catalogs_identical)
            .bool("picks_identical", picks_identical)
            .int("picks", greedy_batched.picked.len() as u64),
    );
    assert!(
        call_reduction >= 3.0,
        "batched collection saved only {call_reduction:.2}x optimizer calls (need >=3x)"
    );

    BatchedOutcome {
        queries: workload.queries.len(),
        candidates: pool.len(),
        per_query_calls,
        batched_calls,
        call_reduction,
        catalogs_identical,
        picks_identical,
    }
}

fn catalog_entries(c: &AccessCostCatalog) -> usize {
    (0..c.relation_count() as u16)
        .map(|rel| c.entries(rel).len())
        .sum()
}
