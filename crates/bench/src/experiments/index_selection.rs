//! E5 — Figure 6/7: the index-selection tool under a 5 GB budget.
//!
//! "We run the tool using the 10 queries in the workload, and restrict the
//! tool to suggest indexes taking 5GBs of space on disk. … Using PINUM's
//! suggested indexes speeds up the workload by 95% on average. PINUM
//! reduces the cost of the most expensive queries by building covering
//! indexes for them."
//!
//! Substitution note: the paper reports wall-clock execution
//! times on PostgreSQL; we report optimizer-estimated costs, which
//! preserve the figure's message — the per-query relative improvement.
//!
//! The tool runs twice: with its optimized defaults and with the paper's.
//! Each run is audited: every query is re-optimized under the picks, so
//! the improvement is also a direct optimizer number, not only the
//! cache's estimate.

use super::direct_cost;
use crate::paper_workload;
use pinum_advisor::tool::{advise, Advice, AdvisorOptions};
use pinum_optimizer::Optimizer;

/// One run of the tool.
pub struct SelectionRun {
    /// `"optimized"` or `"paper"`.
    pub defaults: &'static str,
    pub advice: Advice,
    /// The advice audit: each query's cost from a direct optimizer call
    /// under the picks, beside the cache's `advice.per_query[i].final_cost`.
    pub direct_costs: Vec<f64>,
}

/// [`AdvisorOptions::default`] (optimized), then
/// [`AdvisorOptions::paper_defaults`]; both budget the paper's 5 GB.
pub fn run() -> [SelectionRun; 2] {
    let pw = paper_workload();
    let catalog = &pw.schema.catalog;
    let queries = &pw.workload.queries;
    let opt = Optimizer::new(catalog);
    [
        ("optimized", AdvisorOptions::default()),
        ("paper", AdvisorOptions::paper_defaults()),
    ]
    .map(|(defaults, options)| {
        let advice = advise(catalog, queries, &options);
        let direct_costs = queries
            .iter()
            .map(|q| direct_cost(&opt, q, &advice.pool, &advice.greedy.selection))
            .collect();
        SelectionRun {
            defaults,
            advice,
            direct_costs,
        }
    })
}
