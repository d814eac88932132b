//! # pinum-advisor
//!
//! The index-selection tool of paper §V-E: "The tool expects a workload
//! and a space budget as input. It determines a set of indexes which
//! occupies less than the budgeted space and attempts to provide the
//! maximum speed up to the workload."
//!
//! * [`candidates`] statically analyses the queries into a large candidate
//!   set (the paper generates 1093 candidates for its ten-query workload),
//!   with optional workload-level prefix-subsumption merging to shrink the
//!   pool before pricing;
//! * [`greedy`] implements the iterative benefit-greedy selection — simple,
//!   but "it has been shown to perform better in terms of accuracy than
//!   more complex algorithms used in the commercial designers, mainly
//!   because of its significantly larger candidate index set". Its naive
//!   full-repricing engine is the search oracle the model-driven search is
//!   tested against, and its exhaustive search is the A3 ablation;
//! * [`search`] runs the selection over the workload model. One enum,
//!   [`StrategyKind`], names the policy — eager greedy, **lazy greedy**
//!   (max-heap of stale benefit upper bounds, identical picks at a
//!   fraction of the probes), drop-one/add-one **swap hill climbing**, or
//!   deterministic **simulated annealing**, the latter two built on the
//!   workload model's removal deltas — and its `search` / `search_scoped`
//!   match on the kind and drive one shared run's bookkeeping;
//! * [`tool`] wires candidates, PINUM caches, the workload model and the
//!   selected [`StrategyKind`] into the end-to-end advisor.
//!
//! Every search runs on the caller's thread: batched probes are priced
//! one after another by the workload model's serial kernel.

pub mod candidates;
pub mod greedy;
pub mod search;
pub mod tool;

pub use candidates::{
    generate_candidates, merge_prefix_subsumed, merge_prefix_subsumed_with,
    MERGE_PENALTY_NOISE_FLOOR,
};
pub use greedy::{greedy_select, GreedyOptions, GreedyResult};
pub use search::StrategyKind;
pub use tool::{advise, Advice, AdvisorOptions, QueryOutcome};
