//! # pinum-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! the crate README for the acceptance tests), plus shared fixtures, a
//! plain-text table renderer and the JSON parser perfbench's `--compare`
//! reads its result lines with.
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
//! | `exp_all` | runs the nine above in sequence |
//!
//! The seven extension experiments (batched collection, search
//! strategies, online drift, scoped re-advise, multi-tenant daemon, warm
//! restart, durable throughput) are not binaries: they are the
//! `acceptance` integration tests under `tests/acceptance/`, each
//! asserting its exact values at full scale in the release profile.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fixtures;
pub mod json;
pub mod table;

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
