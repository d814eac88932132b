//! Quickstart: build a small star schema, optimize a query, fill the INUM
//! plan cache with one optimizer call (the paper's titular trick), and
//! price a few configurations without calling the optimizer again.
//!
//! Run with: `cargo run --release --example quickstart`

use pinum::advisor::candidates::generate_candidates;
use pinum::catalog::Configuration;
use pinum::core::access_costs::collect_pinum;
use pinum::core::builder::{build_cache_pinum, BuilderOptions};
use pinum::core::{CacheCostModel, Selection};
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

    // Fill the whole INUM plan cache with one call (paper §V-D).
    let built = build_cache_pinum(&optimizer, query, &BuilderOptions::default());
    println!(
        "PINUM cache: {} plans for {} IOCs from {} optimizer calls in {:?}",
        built.stats.plans_cached,
        built.stats.ioc_count,
        built.stats.optimizer_calls,
        built.stats.wall
    );

    // Price every candidate index with one more call (paper §V-C).
    let pool = generate_candidates(&schema.catalog, std::slice::from_ref(query));
    let (access, astats) = collect_pinum(&optimizer, query, &pool);
    println!(
        "access costs for {} candidates from {} call(s)\n",
        pool.len(),
        astats.optimizer_calls
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
