//! A2 — ablation of the nested-loop-join handling (§V-D).
//!
//! "The nested-loop joins are attractive at low access costs, but become
//! expensive as the access cost of the table grows. … Typically, only two
//! calls to the optimizer at the extreme access costs are sufficient to
//! achieve reasonable accuracy."
//!
//! We measure the cache's cost error with (a) NLJ plans cached from the
//! extreme calls (the paper's design) and (b) no NLJ plans at all
//! (merge/hash only), over random atomic configurations.

use super::sample_atomic_configurations;
use pinum_core::{Estimate, Selection};

/// Random atomic configurations per query.
pub const CONFIGS: usize = 200;

/// Seed of the configuration draws (one stream across all queries).
const SEED: u64 = 0x1417;

/// One query's NLJ plan count and mean relative errors.
pub struct NljRow {
    pub name: String,
    pub nlj_plans: usize,
    pub error_with_nlj: f64,
    pub error_without_nlj: f64,
}

pub fn run() -> Vec<NljRow> {
    sample_atomic_configurations(CONFIGS, SEED, |q, cache, model, samples| {
        let mean_error = |estimate: &dyn Fn(&Selection) -> Option<Estimate>| {
            samples
                .iter()
                .map(|(sel, direct)| {
                    let est = estimate(sel).expect("non-empty cache").cost;
                    (est - direct).abs() / direct
                })
                .sum::<f64>()
                / CONFIGS as f64
        };
        NljRow {
            name: q.name.clone(),
            nlj_plans: cache.partition_by_nlj().1,
            error_with_nlj: mean_error(&|sel| model.estimate(sel)),
            error_without_nlj: mean_error(&|sel| model.estimate_without_nlj(sel)),
        }
    })
}
