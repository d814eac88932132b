//! A1 — ablation of the §V-D subset-cost pruning.
//!
//! "This pruning process reduces the search space of the join planner,
//! while preserving all useful plans." We run the PINUM exporting call
//! with the sweep enabled and disabled and compare planning time, arena
//! nodes built (`PlannerStats::arena_size`: accepted paths plus wrappers),
//! finished paths, exported plans and (must be identical) the winning
//! plan cost.

use crate::paper_workload;
use pinum_core::builder::covering_configuration;
use pinum_optimizer::{Optimizer, OptimizerOptions, PlannerStats};

/// One exporting call's outcome.
pub struct ExportCall {
    pub stats: PlannerStats,
    pub exported: usize,
    pub winner_cost: f64,
}

/// One query, with the sweep on and off.
pub struct PruningRow {
    pub name: String,
    pub pruned: ExportCall,
    pub unpruned: ExportCall,
}

pub fn run() -> Vec<PruningRow> {
    let pw = paper_workload();
    let opt = Optimizer::new(&pw.schema.catalog);
    let unpruned = OptimizerOptions {
        pinum_subset_pruning: false,
        ..OptimizerOptions::pinum_export()
    };
    pw.workload
        .queries
        .iter()
        .map(|q| {
            let covering = covering_configuration(&pw.schema.catalog, q);
            let call = |options: &OptimizerOptions| {
                let planned = opt.optimize(q, &covering, options);
                ExportCall {
                    stats: planned.stats,
                    exported: planned.exported.len(),
                    winner_cost: planned.best_cost.total,
                }
            };
            PruningRow {
                name: q.name.clone(),
                pruned: call(&OptimizerOptions::pinum_export()),
                unpruned: call(&unpruned),
            }
        })
        .collect()
}
