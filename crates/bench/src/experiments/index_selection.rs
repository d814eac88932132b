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

use crate::paper_workload;
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::tool::{advise, AdvisorOptions};

pub struct SelectionOutcome {
    pub average_improvement: f64,
    pub picked: usize,
    pub bytes: u64,
}

/// `legacy_defaults` reruns the paper's exact configuration (plain lazy
/// greedy, no candidate merging) instead of the tool's optimized defaults
/// — the `--legacy-defaults` escape hatch on `exp_index_selection`.
pub fn run(scale: f64, legacy_defaults: bool) -> SelectionOutcome {
    let budget = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64; // 5 GB at full scale
    println!(
        "E5: index selection (paper Fig. 6/7) — budget {:.2} GB, {} defaults\n",
        budget as f64 / (1024.0 * 1024.0 * 1024.0),
        if legacy_defaults {
            "paper"
        } else {
            "optimized"
        }
    );
    let pw = paper_workload(scale);
    let opts = AdvisorOptions {
        budget_bytes: budget,
        ..if legacy_defaults {
            AdvisorOptions::paper_defaults()
        } else {
            AdvisorOptions::default()
        }
    };
    let advice = advise(&pw.schema.catalog, &pw.workload.queries, &opts);
    if advice.candidates_merged > 0 {
        println!(
            "candidate merging dropped {} prefix-subsumed candidates",
            advice.candidates_merged
        );
    }

    let mut table = TextTable::new(vec![
        "query",
        "original cost",
        "with indexes",
        "improvement",
    ]);
    for o in &advice.per_query {
        table.row(vec![
            o.name.clone(),
            format!("{:.0}", o.original_cost),
            format!("{:.0}", o.final_cost),
            format!("{:.0}%", o.improvement() * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "suggested {} indexes, {:.2} GB of {:.2} GB budget, {} cost-model evaluations",
        advice.greedy.picked.len(),
        advice.greedy.total_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
        budget as f64 / (1024.0 * 1024.0 * 1024.0),
        advice.greedy.evaluations,
    );
    println!(
        "cost model built with {} optimizer calls in {}",
        advice.model_build_calls,
        fmt_duration(advice.model_build_time)
    );
    println!("suggested indexes:");
    for ix in advice.selected_indexes() {
        println!(
            "  {} ({} key columns, {:.1} MB)",
            ix.name(),
            ix.key_columns().len(),
            ix.size().total_bytes() as f64 / (1024.0 * 1024.0)
        );
    }
    println!(
        "\naverage improvement: {:.0}% (paper: 95% average, via covering indexes on the fact table)\n",
        advice.average_improvement() * 100.0
    );
    SelectionOutcome {
        average_improvement: advice.average_improvement(),
        picked: advice.greedy.picked.len(),
        bytes: advice.greedy.total_bytes,
    }
}
