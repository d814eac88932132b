//! # pinum-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! the crate README for the JSON output and the trend gate), plus shared
//! fixtures and a plain-text table renderer.
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `exp_redundancy` | §IV in-text numbers (TPC-H Q5: 648 IOCs, ~64 unique plans; star workload totals) |
//! | `exp_whatif_accuracy` | §VI-B what-if index accuracy (50 random index sets) |
//! | `exp_cost_accuracy` | §VI-C cost-model accuracy (1000 random atomic configurations per query) |
//! | `exp_cache_construction` | Figure 4/5: INUM vs PINUM cache construction and access-cost collection times |
//! | `exp_index_selection` | Figure 6/7: index selection under a 5 GB budget |
//! | `exp_pruning_ablation` | §V-D pruning on/off ablation |
//! | `exp_nlj_ablation` | §V-D nested-loop handling ablation |
//! | `exp_greedy_quality` | §V-E greedy vs exhaustive ablation |
//! | `exp_engine_validation` | cost-model validation against the mini engine |
//! | `exp_batched_collection` | workload-level batched access-cost collection: one optimizer call per template shape, bit-identical to per-query collection (200 queries) |
//! | `exp_search_strategies` | pluggable search strategies (eager/lazy greedy, swap hill climb, anneal) over one shared 200×400 model, plus the work one add probe does |
//! | `exp_online_drift` | online tuning under workload drift: the `pinum_online` daemon vs periodic full rebuild-and-reselect |
//! | `exp_scoped_readvise` | persistent pricing sessions and template-scoped re-advising on a reweight-heavy drift stream |
//! | `exp_multi_tenant` | multi-tenant `pinum-server` over loopback TCP: per-tenant wire determinism, budget aging bounds |
//! | `exp_warm_restart` | journaled advisor killed and restored from snapshot + log tail, bit-identical to an uninterrupted run |
//! | `exp_durable_throughput` | group-commit batched admissions: bit-identical to the serial journaled path at ≤ 1/8 fsyncs per admission |
//! | `exp_trend` | cross-commit trend gate: diffs `PINUM_JSON_DIR` output against the committed baseline (`baselines/trend.json`) |
//! | `exp_all` | runs everything in sequence |
//!
//! Experiments that participate in CI acceptance also print a machine-
//! readable `JSON <name>: {...}` line (see [`json`]) and mirror it to
//! `$PINUM_JSON_DIR/<name>.json` when that variable is set.

pub mod experiments;
pub mod fixtures;
pub mod json;
pub mod table;
pub mod trend;

pub use fixtures::{paper_workload, PaperWorkload};
pub use table::TextTable;

#[cfg(test)]
mod tests {
    use std::path::Path;

    /// Every binary under `src/bin/` has a row in the table above.
    #[test]
    fn every_binary_is_in_the_crate_table() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let docs = std::fs::read_to_string(src.join("lib.rs")).unwrap();
        let mut missing = Vec::new();
        for entry in std::fs::read_dir(src.join("bin")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rs") {
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                if !docs.contains(&format!("//! | `{name}` |")) {
                    missing.push(name);
                }
            }
        }
        missing.sort();
        assert!(
            missing.is_empty(),
            "binaries missing from the lib.rs table: {missing:?}"
        );
    }
}
