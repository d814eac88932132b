//! A1 — ablation of the §V-D subset-cost pruning.
//!
//! "This pruning process reduces the search space of the join planner,
//! while preserving all useful plans." We run the PINUM exporting call
//! with the sweep enabled and disabled and compare planning time, arena
//! nodes built (`PlannerStats::arena_size`: accepted paths plus wrappers),
//! finished paths, and (must be identical) the winning plan cost.

use crate::paper_workload;
use crate::table::{fmt_duration, TextTable};
use pinum_core::builder::covering_configuration;
use pinum_optimizer::{Optimizer, OptimizerOptions};

pub fn run(scale: f64) {
    println!("A1: §V-D subset-cost pruning ablation\n");
    let pw = paper_workload(scale);
    let opt = Optimizer::new(&pw.schema.catalog);
    let mut table = TextTable::new(vec![
        "query",
        "pruned time",
        "unpruned time",
        "pruned arena nodes",
        "unpruned arena nodes",
        "pruned final paths",
        "unpruned final paths",
        "exported (pruned)",
        "exported (unpruned)",
    ]);
    for q in &pw.workload.queries {
        let covering = covering_configuration(&pw.schema.catalog, q);
        let with = OptimizerOptions::pinum_export();
        let without = OptimizerOptions {
            pinum_subset_pruning: false,
            ..OptimizerOptions::pinum_export()
        };
        let a = opt.optimize(q, &covering, &with);
        let b = opt.optimize(q, &covering, &without);
        assert!(
            (a.best_cost.total - b.best_cost.total).abs() / a.best_cost.total < 1e-9,
            "{}: pruning changed the winner",
            q.name
        );
        table.row(vec![
            q.name.clone(),
            fmt_duration(a.stats.elapsed),
            fmt_duration(b.stats.elapsed),
            a.stats.arena_size.to_string(),
            b.stats.arena_size.to_string(),
            a.stats.final_paths.to_string(),
            b.stats.final_paths.to_string(),
            a.exported.len().to_string(),
            b.exported.len().to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(identical winning plans in both modes — the pruning only removes unhelpful IOC plans)\n"
    );
}
