//! E3 — §VI-C cost-estimation accuracy of the PINUM cache.
//!
//! "To study the accuracy of PINUM's cost model, we generate 1000 random
//! atomic configurations for each query in the workload. We then compare
//! the cost of the queries using PINUM's cost model and using what-if
//! indexes on the optimizer. Out of ten queries, six had less than 1%
//! error in cost estimation. Further three queries had about 4% error, and
//! only one query had 9% error."

use super::sample_atomic_configurations;

/// Random atomic configurations per query, as in the paper.
pub const CONFIGS_PER_QUERY: usize = 1000;

/// Seed of the configuration draws (one stream across all queries).
pub const SEED: u64 = 0xC0575;

/// One query's relative estimation error over its configurations.
pub struct QueryAccuracy {
    pub name: String,
    pub tables: usize,
    pub mean_error: f64,
    pub p95_error: f64,
    pub max_error: f64,
}

pub fn run() -> Vec<QueryAccuracy> {
    sample_atomic_configurations(CONFIGS_PER_QUERY, SEED, |q, _, model, samples| {
        let mut errors: Vec<f64> = samples
            .iter()
            .map(|(sel, direct)| {
                let est = model.estimate(sel).expect("non-empty cache").cost;
                (est - direct).abs() / direct
            })
            .collect();
        errors.sort_by(f64::total_cmp);
        QueryAccuracy {
            name: q.name.clone(),
            tables: q.relation_count(),
            mean_error: errors.iter().sum::<f64>() / errors.len() as f64,
            p95_error: errors[(errors.len() * 95 / 100).min(errors.len() - 1)],
            max_error: errors[errors.len() - 1],
        }
    })
}
