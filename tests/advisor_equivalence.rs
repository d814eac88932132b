//! End-to-end equivalence of the two greedy engines on the paper's star
//! workload: the incremental `WorkloadModel` advisor must reproduce the
//! naive full-repricing advisor's pick sequence and cost trajectory
//! exactly — same indexes, same order, same costs, same byte total.

use pinum::advisor::candidates::generate_candidates;
use pinum::advisor::greedy::{greedy_select, GreedyOptions};
use pinum::advisor::search::StrategyKind;
use pinum::advisor::tool::{advise, AdvisorOptions};
use pinum::core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum::core::builder::{build_cache_pinum, BuilderOptions};
use pinum::core::{CacheCostModel, CandidatePool, PlanCache, Selection, WorkloadModel};
use pinum::optimizer::Optimizer;
use pinum::workload::star::{StarSchema, StarWorkload};

fn star_models(
    queries: usize,
    candidate_cap: usize,
) -> (
    StarSchema,
    CandidatePool,
    Vec<(PlanCache, AccessCostCatalog)>,
) {
    let schema = StarSchema::generate(42, 0.01);
    let workload = StarWorkload::generate(&schema, 7, queries);
    let full_pool = generate_candidates(&schema.catalog, &workload.queries);
    let pool = if full_pool.len() > candidate_cap {
        CandidatePool::from_indexes(full_pool.indexes()[..candidate_cap].to_vec())
    } else {
        full_pool
    };
    let optimizer = Optimizer::new(&schema.catalog);
    let models = workload
        .queries
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&optimizer, q, &pool);
            (built.cache, access)
        })
        .collect();
    (schema, pool, models)
}

/// The pre-WorkloadModel advisor baseline: every probe re-prices the whole
/// workload through per-query `CacheCostModel`s — the single reference
/// oracle every equivalence test compares against. Totals go through the
/// canonical `pairwise_total` shape, the same shape the model engine's
/// sum tree produces, so trajectories compare bit for bit.
fn naive_reference(
    pool: &CandidatePool,
    models: &[(PlanCache, AccessCostCatalog)],
    gopts: &GreedyOptions,
) -> pinum::advisor::GreedyResult {
    greedy_select(pool, gopts, |sel: &Selection| {
        let costs: Vec<f64> = models
            .iter()
            .map(|(cache, access)| {
                CacheCostModel::new(cache, access)
                    .estimate(sel)
                    .map(|e| e.cost)
                    .unwrap_or(f64::INFINITY)
            })
            .collect();
        pinum::core::pairwise_total(&costs)
    })
}

#[test]
fn incremental_advisor_reproduces_naive_on_star_workload() {
    let (_schema, pool, models) = star_models(12, 120);
    assert!(pool.len() >= 40, "pool too small to be interesting");
    let budget = pool.selection_bytes(&Selection::full(pool.len())) / 3;
    let gopts = GreedyOptions {
        budget_bytes: budget,
        benefit_per_byte: false,
    };
    let naive = naive_reference(&pool, &models, &gopts);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    let incremental = StrategyKind::EagerGreedy.search(&pool, &model, &gopts);

    assert!(!naive.picked.is_empty(), "budget should admit picks");
    assert_eq!(naive.picked, incremental.picked, "pick sequences diverged");
    assert_eq!(
        naive.cost_trajectory, incremental.cost_trajectory,
        "cost trajectories diverged"
    );
    assert_eq!(naive.total_bytes, incremental.total_bytes);
    // The incremental engine re-probes each accepted winner once to
    // splice it into the priced state instead of fully re-pricing: one
    // extra delta evaluation per pick, decisions unchanged.
    assert_eq!(
        naive.evaluations + naive.picked.len(),
        incremental.evaluations
    );
    assert_eq!(
        incremental.full_repricings, 1,
        "only the seed pricing may be full"
    );
    // The delta engine must do strictly less per-query work than naive
    // full repricing would have.
    assert!(
        incremental.queries_repriced < naive.evaluations * models.len(),
        "delta engine re-priced as much as naive ({} vs {})",
        incremental.queries_repriced,
        naive.evaluations * models.len()
    );
}

#[test]
fn per_byte_ranking_also_matches() {
    let (_schema, pool, models) = star_models(8, 80);
    let budget = pool.selection_bytes(&Selection::full(pool.len())) / 4;
    let gopts = GreedyOptions {
        budget_bytes: budget,
        benefit_per_byte: true,
    };
    let naive = naive_reference(&pool, &models, &gopts);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    let incremental = StrategyKind::EagerGreedy.search(&pool, &model, &gopts);
    assert_eq!(naive.picked, incremental.picked);
    assert_eq!(naive.cost_trajectory, incremental.cost_trajectory);
}

#[test]
fn model_engine_skips_nan_benefits_from_unpriceable_queries() {
    // Replace one query's cache with an empty one: that query prices to
    // infinity under every selection, so every probe's benefit is
    // inf - inf = NaN. Both engines must pick nothing instead of filling
    // the budget with junk.
    let (_schema, pool, mut models) = star_models(4, 40);
    let orders = models[0].0.orders.clone();
    let n_rels = models[0].0.n_rels;
    models[0].0 = PlanCache::new("emptied", n_rels, orders);
    let gopts = GreedyOptions {
        budget_bytes: u64::MAX,
        benefit_per_byte: false,
    };
    let naive = naive_reference(&pool, &models, &gopts);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    let incremental = StrategyKind::EagerGreedy.search(&pool, &model, &gopts);
    assert!(naive.picked.is_empty(), "naive picked {:?}", naive.picked);
    assert!(
        incremental.picked.is_empty(),
        "incremental picked {:?}",
        incremental.picked
    );
    assert_eq!(naive.cost_trajectory, vec![f64::INFINITY]);
    assert_eq!(incremental.cost_trajectory, vec![f64::INFINITY]);
    // Lazy greedy parks NaN probes at score 0 and must likewise terminate
    // with no picks (all parked entries drained, none picked).
    let lazy = StrategyKind::LazyGreedy.search(&pool, &model, &gopts);
    assert!(lazy.picked.is_empty(), "lazy picked {:?}", lazy.picked);
    assert_eq!(lazy.cost_trajectory, vec![f64::INFINITY]);
}

#[test]
fn advise_still_improves_star_workload_through_the_model_engine() {
    let schema = StarSchema::generate(42, 0.01);
    let workload = StarWorkload::generate(&schema, 7, 6);
    let opts = AdvisorOptions {
        budget_bytes: 256 * 1024 * 1024,
        ..AdvisorOptions::paper_defaults()
    };
    let advice = advise(&schema.catalog, &workload.queries, &opts);
    assert!(!advice.greedy.picked.is_empty());
    assert!(advice.greedy.total_bytes <= opts.budget_bytes);
    assert!(advice.average_improvement() > 0.1);
    assert!(advice.greedy.queries_repriced > 0, "model engine not used");
    for o in &advice.per_query {
        assert!(
            o.final_cost <= o.original_cost * (1.0 + 1e-9),
            "{} got worse",
            o.name
        );
    }
}
