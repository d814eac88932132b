//! A3 — greedy vs exhaustive selection quality (§V-E).
//!
//! "Although this algorithm is very simple, it has been shown to perform
//! better in terms of accuracy than more complex algorithms used in the
//! commercial designers, mainly because of its significantly larger
//! candidate index set." We verify the greedy heuristic lands near the
//! exhaustive optimum on instances small enough to enumerate.

use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::greedy::{exhaustive_select, greedy_select, GreedyOptions};
use pinum_core::builder::BuilderOptions;
use pinum_core::{CacheCostModel, CandidatePool, Selection, WorkloadCollector};
use pinum_optimizer::Optimizer;
use pinum_workload::star::{StarSchema, StarWorkload};

/// One small instance: its size, budget and the two searches' final
/// workload costs.
pub struct GreedyQualityRow {
    pub queries: usize,
    pub candidates: usize,
    pub budget_mb: u64,
    pub greedy_cost: f64,
    pub optimal_cost: f64,
}

pub fn run() -> Vec<GreedyQualityRow> {
    [(2usize, 64u64), (3, 128), (3, 512)]
        .into_iter()
        .map(|(nq, budget_mb)| {
            let schema = StarSchema::generate(11, 0.002);
            let workload = StarWorkload::generate(&schema, 3, nq);
            let opt = Optimizer::new(&schema.catalog);
            let full_pool = generate_candidates(&schema.catalog, &workload.queries);
            // Shrink to ≤14 candidates for tractable exhaustion: keep the
            // first candidates per table in pool order.
            let keep = full_pool.len().min(14);
            let pool = CandidatePool::from_indexes(full_pool.indexes()[..keep].to_vec());

            let mut collector = WorkloadCollector::new();
            let models: Vec<_> = workload
                .queries
                .iter()
                .map(|q| {
                    let (built, access) =
                        collector.build_query(&opt, q, &pool, &BuilderOptions::default());
                    (built.cache, access)
                })
                .collect();
            let cost = |sel: &Selection| -> f64 {
                models
                    .iter()
                    .map(|(c, a)| {
                        CacheCostModel::new(c, a)
                            .estimate(sel)
                            .expect("non-empty cache")
                            .cost
                    })
                    .sum()
            };
            let budget = budget_mb * 1024 * 1024;
            let g = greedy_select(
                &pool,
                &GreedyOptions {
                    budget_bytes: budget,
                    benefit_per_byte: false,
                },
                cost,
            );
            let (_, optimal_cost) = exhaustive_select(&pool, budget, cost);
            GreedyQualityRow {
                queries: nq,
                candidates: pool.len(),
                budget_mb,
                greedy_cost: *g.cost_trajectory.last().expect("starts at no indexes"),
                optimal_cost,
            }
        })
        .collect()
}
