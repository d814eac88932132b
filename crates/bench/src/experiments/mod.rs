//! Experiment implementations, one module per paper artefact. Thin
//! binaries under `src/bin/` call these, and `exp_all` chains them.

pub mod cache_construction;
pub mod cost_accuracy;
pub mod engine_validation;
pub mod greedy_quality;
pub mod index_selection;
pub mod nlj;
pub mod pruning;
pub mod redundancy;
pub mod whatif;
