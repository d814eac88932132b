//! What-if exploration: compare the optimizer's plan and cost across
//! hand-picked hypothetical configurations for one query, and check the
//! INUM cache tracks the optimizer (paper §VI-B/C in miniature).
//!
//! Run with: `cargo run --release --example whatif_explorer`

use pinum::catalog::{Configuration, Index};
use pinum::core::builder::BuilderOptions;
use pinum::core::{CacheCostModel, CandidatePool, Selection, WorkloadCollector};
use pinum::optimizer::{Optimizer, OptimizerOptions};
use pinum::workload::star::{StarSchema, StarWorkload};

fn main() {
    let schema = StarSchema::generate(42, 0.02);
    let workload = StarWorkload::generate(&schema, 7, 10);
    let optimizer = Optimizer::new(&schema.catalog);
    let query = &workload.queries[2];
    let fact = schema.catalog.table(schema.fact);

    // Three configurations of increasing ambition on the fact table.
    let filter_col = query.filters[0].column;
    let referenced = query.referenced_columns(0);
    let mut covering_keys = vec![filter_col];
    covering_keys.extend(referenced.iter().copied().filter(|&c| c != filter_col));
    let configs: Vec<(&str, Vec<Index>)> = vec![
        ("no indexes", vec![]),
        (
            "single-column filter index",
            vec![Index::hypothetical(fact, vec![filter_col], false)],
        ),
        (
            "covering index",
            vec![Index::hypothetical(fact, covering_keys.clone(), false)],
        ),
    ];

    // Build the cache and price the candidates with one call; price each
    // configuration against it too.
    let pool = CandidatePool::from_indexes(vec![
        Index::hypothetical(fact, vec![filter_col], false),
        Index::hypothetical(fact, covering_keys, false),
    ]);
    let (built, access) =
        WorkloadCollector::new().build_query(&optimizer, query, &pool, &BuilderOptions::default());
    let model = CacheCostModel::new(&built.cache, &access);

    for (i, (name, indexes)) in configs.into_iter().enumerate() {
        let config = Configuration::new(indexes);
        let planned = optimizer.optimize(query, &config, &OptimizerOptions::standard());
        let sel = match i {
            0 => Selection::empty(pool.len()),
            1 => Selection::from_ids(pool.len(), &[0]),
            _ => Selection::from_ids(pool.len(), &[1]),
        };
        let est = model.estimate(&sel).unwrap();
        println!("=== {name}");
        println!(
            "optimizer cost {:>12.0} | cache estimate {:>12.0} | error {:.2}%",
            planned.best_cost.total,
            est.cost,
            (est.cost - planned.best_cost.total).abs() / planned.best_cost.total * 100.0
        );
        println!("{}", planned.plan.explain());
    }
}
