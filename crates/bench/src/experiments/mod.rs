//! Experiment implementations, one module per paper artefact. Thin
//! binaries under `src/bin/` call these, and `exp_all` chains them.

pub mod batched_collection;
pub mod cache_construction;
pub mod cost_accuracy;
pub mod durable_throughput;
pub mod engine_validation;
pub mod greedy_quality;
pub mod index_selection;
pub mod multi_tenant;
pub mod nlj;
pub mod online_drift;
pub mod pruning;
pub mod redundancy;
pub mod scoped_readvise;
pub mod search_strategies;
pub mod warm_restart;
pub mod whatif;
