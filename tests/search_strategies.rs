//! Cross-strategy equivalence and quality guarantees on realistic
//! workloads:
//!
//! * **lazy greedy ≡ plain greedy** — identical `GreedyResult` (picks,
//!   cost trajectory, byte total) across seeded star workloads and the
//!   TPC-H trio, at strictly fewer probes;
//! * **swap / anneal never worse than greedy** — both are greedy-seeded,
//!   so their final workload cost is bounded by the seed's.

use pinum::advisor::candidates::generate_candidates;
use pinum::advisor::greedy::GreedyOptions;
use pinum::advisor::search::StrategyKind;
use pinum::core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum::core::builder::{build_cache_pinum, BuilderOptions};
use pinum::core::{CandidatePool, PlanCache, Selection, WorkloadModel};
use pinum::optimizer::Optimizer;
use pinum::query::Query;
use pinum::workload::star::{StarSchema, StarWorkload};
use pinum::workload::{tpch_catalog, tpch_q10, tpch_q3, tpch_q5};

fn build_models(
    catalog: &pinum::catalog::Catalog,
    queries: &[Query],
    pool: &CandidatePool,
) -> Vec<(PlanCache, AccessCostCatalog)> {
    let optimizer = Optimizer::new(catalog);
    queries
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&optimizer, q, pool);
            (built.cache, access)
        })
        .collect()
}

fn star_fixture(
    schema_seed: u64,
    workload_seed: u64,
    queries: usize,
    candidate_cap: usize,
) -> (CandidatePool, WorkloadModel) {
    let schema = StarSchema::generate(schema_seed, 0.01);
    let workload = StarWorkload::generate(&schema, workload_seed, queries);
    let full_pool = generate_candidates(&schema.catalog, &workload.queries);
    let pool = if full_pool.len() > candidate_cap {
        CandidatePool::from_indexes(full_pool.indexes()[..candidate_cap].to_vec())
    } else {
        full_pool
    };
    let models = build_models(&schema.catalog, &workload.queries, &pool);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    (pool, model)
}

fn tpch_fixture() -> (CandidatePool, WorkloadModel) {
    let catalog = tpch_catalog(0.1);
    let queries = vec![tpch_q3(&catalog), tpch_q5(&catalog), tpch_q10(&catalog)];
    let pool = generate_candidates(&catalog, &queries);
    let models = build_models(&catalog, &queries, &pool);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    (pool, model)
}

fn assert_lazy_matches_plain(pool: &CandidatePool, model: &WorkloadModel, budget: u64, tag: &str) {
    let gopts = GreedyOptions {
        budget_bytes: budget,
        benefit_per_byte: false,
    };
    let plain = StrategyKind::EagerGreedy.search(pool, model, &gopts);
    let lazy = StrategyKind::LazyGreedy.search(pool, model, &gopts);
    assert_eq!(plain.picked, lazy.picked, "{tag}: pick sequences diverged");
    assert_eq!(
        plain.cost_trajectory, lazy.cost_trajectory,
        "{tag}: cost trajectories diverged"
    );
    assert_eq!(plain.total_bytes, lazy.total_bytes, "{tag}: byte totals");
    assert!(
        lazy.evaluations <= plain.evaluations,
        "{tag}: lazy probed more ({} vs {})",
        lazy.evaluations,
        plain.evaluations
    );
    if plain.picked.len() >= 2 {
        assert!(
            lazy.evaluations < plain.evaluations,
            "{tag}: lazy saved nothing over {} picks",
            plain.picked.len()
        );
    }
}

#[test]
fn lazy_greedy_matches_plain_greedy_on_seeded_star_workloads() {
    for (schema_seed, workload_seed) in [(42, 7), (11, 3), (1234, 99)] {
        let (pool, model) = star_fixture(schema_seed, workload_seed, 10, 120);
        let full_bytes = pool.selection_bytes(&Selection::full(pool.len()));
        for budget in [full_bytes / 4, full_bytes / 2, u64::MAX] {
            assert_lazy_matches_plain(
                &pool,
                &model,
                budget,
                &format!("star seeds ({schema_seed},{workload_seed}) budget {budget}"),
            );
        }
    }
}

#[test]
fn lazy_greedy_matches_plain_greedy_on_tpch() {
    let (pool, model) = tpch_fixture();
    assert!(pool.len() >= 20, "TPC-H pool too small: {}", pool.len());
    let full_bytes = pool.selection_bytes(&Selection::full(pool.len()));
    for budget in [full_bytes / 4, u64::MAX] {
        assert_lazy_matches_plain(&pool, &model, budget, &format!("tpch budget {budget}"));
    }
}

#[test]
fn swap_and_anneal_never_worse_than_greedy_on_star_and_tpch() {
    let star = star_fixture(42, 7, 8, 100);
    let tpch = tpch_fixture();
    for (tag, (pool, model)) in [("star", &star), ("tpch", &tpch)] {
        let budget = pool.selection_bytes(&Selection::full(pool.len())) / 3;
        let gopts = GreedyOptions {
            budget_bytes: budget,
            benefit_per_byte: false,
        };
        let greedy = StrategyKind::LazyGreedy.search(pool, model, &gopts);
        let greedy_final = *greedy.cost_trajectory.last().unwrap();
        for strategy in [
            StrategyKind::SwapHillClimb,
            StrategyKind::Anneal { seed: 0xC0FFEE },
        ] {
            let r = strategy.search(pool, model, &gopts);
            let fin = *r.cost_trajectory.last().unwrap();
            assert!(
                fin <= greedy_final * (1.0 + 1e-12),
                "{tag}/{strategy:?}: {fin} worse than greedy {greedy_final}"
            );
            assert!(r.total_bytes <= budget, "{tag}/{strategy:?}: over budget");
            // The reported selection must really price to the reported
            // final cost.
            assert_eq!(
                model.price_full(&r.selection).total(),
                fin,
                "{tag}/{strategy:?}: final cost does not match selection"
            );
        }
    }
}
