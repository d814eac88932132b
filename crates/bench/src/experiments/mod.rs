//! The paper's nine experiments, one module per artefact. Each `run()`
//! computes at scale 1.0 and returns typed rows; none prints. `exp_all`
//! renders all nine, and the `acceptance` test target's `paper` module
//! asserts their values exactly: a change that moves one edits that
//! assert in the same change.

pub mod cache_construction;
pub mod cost_accuracy;
pub mod engine_validation;
pub mod greedy_quality;
pub mod index_selection;
pub mod nlj;
pub mod pruning;
pub mod redundancy;
pub mod whatif;

use crate::paper_workload;
use pinum_advisor::candidates::generate_candidates;
use pinum_core::builder::BuilderOptions;
use pinum_core::{CacheCostModel, CandidatePool, PlanCache, Selection, WorkloadCollector};
use pinum_optimizer::{Optimizer, OptimizerOptions};
use pinum_query::Query;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// E3's and A2's sample of random atomic configurations. Per query of the
/// paper workload, in order: its one-call cache model, then `configs`
/// configurations drawn from one stream seeded with `seed`, each with the
/// optimizer's direct cost. A configuration leaves each relation
/// unindexed with p = 0.35 and otherwise gives it one of its table's
/// candidates, drawn uniformly (a relation without candidates draws
/// nothing).
fn sample_atomic_configurations<T>(
    configs: usize,
    seed: u64,
    mut per_query: impl FnMut(&Query, &PlanCache, &CacheCostModel<'_>, &[(Selection, f64)]) -> T,
) -> Vec<T> {
    let pw = paper_workload();
    let opt = Optimizer::new(&pw.schema.catalog);
    let pool = generate_candidates(&pw.schema.catalog, &pw.workload.queries);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut collector = WorkloadCollector::new();
    let mut out = Vec::new();
    for q in &pw.workload.queries {
        let (built, access) = collector.build_query(&opt, q, &pool, &BuilderOptions::default());
        let per_rel: Vec<&[usize]> = (0..q.relation_count() as u16)
            .map(|rel| pool.on_table(q.table_of(rel)))
            .collect();
        let mut samples = Vec::with_capacity(configs);
        for _ in 0..configs {
            let mut ids = Vec::new();
            for cands in &per_rel {
                if cands.is_empty() || rng.gen_bool(0.35) {
                    continue;
                }
                ids.push(*cands.choose(&mut rng).expect("cands is non-empty"));
            }
            let sel = Selection::from_ids(pool.len(), &ids);
            let direct = direct_cost(&opt, q, &pool, &sel);
            samples.push((sel, direct));
        }
        let model = CacheCostModel::new(&built.cache, &access);
        out.push(per_query(q, &built.cache, &model, &samples));
    }
    out
}

/// What the optimizer itself says `query` costs under `selection`: the
/// reference every cache estimate is checked against.
fn direct_cost(
    optimizer: &Optimizer<'_>,
    query: &Query,
    pool: &CandidatePool,
    selection: &Selection,
) -> f64 {
    let (config, _) = pool.configuration(selection);
    optimizer
        .optimize(query, &config, &OptimizerOptions::standard())
        .best_cost
        .total
}
