//! E2 — §VI-B what-if index accuracy.
//!
//! "Initially, we use the query optimizer to compute the cost of a query
//! when the indexes are explicitly implemented in the database. Then, we
//! evaluate the cost of the same query by simulating the presence of the
//! same indexes using what-if indexes … We repeat the same experiment 50
//! times for different sets of indexes. … the error in the cost estimation
//! was on average 0.33% and the highest observed error was 1.05%."
//!
//! The error source is structural: what-if sizing counts leaf pages only,
//! materialized sizing also counts the internal B-tree pages (§V-A).

use crate::paper_workload;
use pinum_catalog::{Configuration, Index};
use pinum_optimizer::{Optimizer, OptimizerOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Index sets measured, as in the paper.
pub const INDEX_SETS: usize = 50;

/// Seed of the index-set draws.
pub const SEED: u64 = 0xACC0;

/// Relative what-if error over the index sets.
pub struct WhatIfAccuracy {
    pub index_sets: usize,
    pub average: f64,
    pub maximum: f64,
}

/// Draws until [`INDEX_SETS`] non-empty sets exist: a draw that leaves
/// every table of its query unindexed is skipped, and the next draw takes
/// the next query in turn.
pub fn run() -> WhatIfAccuracy {
    let pw = paper_workload();
    let catalog = &pw.schema.catalog;
    let opt = Optimizer::new(catalog);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut errors = Vec::with_capacity(INDEX_SETS);

    let queries = &pw.workload.queries;
    for q in queries.iter().cycle() {
        if errors.len() == INDEX_SETS {
            break;
        }
        // A random atomic index set over the query's tables.
        let mut whatif = Vec::new();
        let mut materialized = Vec::new();
        for rel in 0..q.relation_count() as u16 {
            if rng.gen_bool(0.3) {
                continue; // leave some tables unindexed
            }
            let table = catalog.table(q.table_of(rel));
            let referenced = q.referenced_columns(rel);
            let ncols = rng.gen_range(1..=referenced.len().min(3));
            let mut cols = referenced.clone();
            cols.shuffle(&mut rng);
            cols.truncate(ncols);
            whatif.push(Index::hypothetical(table, cols.clone(), false));
            materialized.push(Index::materialized(table, cols, false));
        }
        if whatif.is_empty() {
            continue;
        }
        let cost = |indexes| {
            let config = Configuration::new(indexes);
            opt.optimize(q, &config, &OptimizerOptions::standard())
                .best_cost
                .total
        };
        let (c_whatif, c_real) = (cost(whatif), cost(materialized));
        errors.push((c_whatif - c_real).abs() / c_real);
    }
    WhatIfAccuracy {
        index_sets: errors.len(),
        average: errors.iter().sum::<f64>() / errors.len() as f64,
        maximum: errors.iter().cloned().fold(0.0, f64::max),
    }
}
