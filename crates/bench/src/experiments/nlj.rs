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

use crate::paper_workload;
use crate::table::TextTable;
use pinum_advisor::candidates::generate_candidates;
use pinum_core::builder::BuilderOptions;
use pinum_core::{CacheCostModel, Selection, WorkloadCollector};
use pinum_optimizer::{Optimizer, OptimizerOptions};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub fn run(scale: f64) {
    const CONFIGS: usize = 200;
    println!("A2: nested-loop plan caching ablation — {CONFIGS} random configurations per query\n");
    let pw = paper_workload(scale);
    let opt = Optimizer::new(&pw.schema.catalog);
    let pool = generate_candidates(&pw.schema.catalog, &pw.workload.queries);
    let mut rng = StdRng::seed_from_u64(0x1417);

    let mut table = TextTable::new(vec![
        "query",
        "NLJ plans cached",
        "err with NLJ",
        "err without NLJ",
    ]);
    let mut collector = WorkloadCollector::new();
    for q in &pw.workload.queries {
        let (built, access) = collector.build_query(&opt, q, &pool, &BuilderOptions::default());
        let model = CacheCostModel::new(&built.cache, &access);
        let (_, nlj_count) = built.cache.partition_by_nlj();

        let per_rel: Vec<Vec<usize>> = (0..q.relation_count() as u16)
            .map(|rel| pool.on_table(q.table_of(rel)).to_vec())
            .collect();
        let mut err_with = 0.0;
        let mut err_without = 0.0;
        for _ in 0..CONFIGS {
            let mut ids = Vec::new();
            for cands in &per_rel {
                if cands.is_empty() || rng.gen_bool(0.35) {
                    continue;
                }
                ids.push(*cands.choose(&mut rng).unwrap());
            }
            let sel = Selection::from_ids(pool.len(), &ids);
            let (config, _) = pool.configuration(&sel);
            let direct = opt
                .optimize(q, &config, &OptimizerOptions::standard())
                .best_cost
                .total;
            let with = model.estimate(&sel).unwrap().cost;
            let without = model.estimate_without_nlj(&sel).unwrap().cost;
            err_with += (with - direct).abs() / direct;
            err_without += (without - direct).abs() / direct;
        }
        table.row(vec![
            q.name.clone(),
            nlj_count.to_string(),
            format!("{:.2}%", err_with / CONFIGS as f64 * 100.0),
            format!("{:.2}%", err_without / CONFIGS as f64 * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("(the paper's star schema favours nested loops; dropping the NLJ plans degrades accuracy)\n");
}
