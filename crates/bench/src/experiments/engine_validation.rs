//! V1 — cost-model validation against the mini execution engine.
//!
//! The paper's execution times come from a live PostgreSQL; our stand-in
//! executes the planned queries over synthetic data at a small scale and
//! checks (a) plan result-equivalence across configurations and (b) that
//! cardinality estimates track actual row counts on uniform data.

use pinum_catalog::Configuration;
use pinum_core::builder::covering_configuration;
use pinum_engine::{execute, Database};
use pinum_optimizer::{Optimizer, OptimizerOptions};
use pinum_workload::star::{StarSchema, StarWorkload};

/// ≈ 18k fact rows: execution stays fast.
pub const ENGINE_SCALE: f64 = 0.0004;

/// One query executed under no indexes and under its covering
/// configuration.
pub struct ValidationRow {
    pub name: String,
    /// The optimizer's row estimate for the unindexed plan.
    pub estimated_rows: f64,
    pub actual_rows: usize,
    /// Both plans return the same rows.
    pub plans_agree: bool,
}

pub fn run() -> Vec<ValidationRow> {
    let schema = StarSchema::generate(42, ENGINE_SCALE);
    let workload = StarWorkload::generate(&schema, 7, 10);
    let opt = Optimizer::new(&schema.catalog);
    let db = Database::generate(&schema.catalog, 99);

    workload
        .queries
        .iter()
        .take(6)
        .map(|q| {
            // The optimizer's row estimate and the plan's sorted results.
            let results = |config: &Configuration| {
                let planned = opt.optimize(q, config, &OptimizerOptions::standard());
                let out = execute(&schema.catalog, q, &db, &planned.plan);
                let mut rows = out.project(&schema.catalog, q);
                rows.sort_unstable();
                (planned.best_rows, rows)
            };
            let (estimated_rows, plain) = results(&Configuration::empty());
            let (_, covered) = results(&covering_configuration(&schema.catalog, q));
            ValidationRow {
                name: q.name.clone(),
                estimated_rows,
                actual_rows: plain.len(),
                plans_agree: plain == covered,
            }
        })
        .collect()
}
