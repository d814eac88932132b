//! Quickstart: build a small star schema, optimize a query, fill the INUM
//! plan cache and price every candidate index with one optimizer call (the
//! paper's titular trick), and price a few configurations without calling
//! the optimizer again.
//!
//! Run with: `cargo run --release --example quickstart`

use pinum::advisor::candidates::generate_candidates;
use pinum::catalog::Configuration;
use pinum::core::builder::BuilderOptions;
use pinum::core::{CacheCostModel, Selection, WorkloadCollector};
use pinum::optimizer::{Optimizer, OptimizerOptions};
use pinum::workload::star::{StarSchema, StarWorkload};

fn main() {
    // The paper's synthetic workload (§VI-A), scaled to ~1% of 10 GB.
    let schema = StarSchema::generate(42, 0.01);
    let workload = StarWorkload::generate(&schema, 7, 10);
    let optimizer = Optimizer::new(&schema.catalog);
    let query = &workload.queries[4];
    println!(
        "query {} joins {} tables, {} interesting-order combinations\n",
        query.name,
        query.relation_count(),
        query.interesting_orders().combination_count()
    );

    // Plain optimizer call: the plan without any indexes.
    let planned = optimizer.optimize(
        query,
        &Configuration::empty(),
        &OptimizerOptions::standard(),
    );
    println!(
        "plan without indexes (cost {:.0}):",
        planned.best_cost.total
    );
    println!("{}", planned.plan.explain());

    // Fill the whole INUM plan cache (paper §V-D) and price every
    // candidate index (§V-C) with the same call.
    let pool = generate_candidates(&schema.catalog, std::slice::from_ref(query));
    let (built, access) =
        WorkloadCollector::new().build_query(&optimizer, query, &pool, &BuilderOptions::default());
    println!(
        "PINUM cache: {} plans for {} IOCs, access costs for {} candidates, \
         from {} optimizer call(s) in {:?}\n",
        built.stats.plans_cached,
        built.stats.ioc_count,
        pool.len(),
        built.stats.optimizer_calls,
        built.stats.wall
    );

    // Now any configuration is priced in microseconds.
    let model = CacheCostModel::new(&built.cache, &access);
    let empty = Selection::empty(pool.len());
    let full = Selection::full(pool.len());
    println!(
        "estimated cost with no indexes:  {:.0}",
        model.estimate(&empty).unwrap().cost
    );
    println!(
        "estimated cost with all {} candidates: {:.0}",
        pool.len(),
        model.estimate(&full).unwrap().cost
    );
}
