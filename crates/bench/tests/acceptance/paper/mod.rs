//! The paper's nine experiments (E1–E5, A1–A3 and V1), one `#[test]`
//! each, over the rows `pinum_bench::experiments::*::run()` returns.
//! Every counted and cost value is asserted exactly, floats as bits;
//! wall clocks appear only in `exp_all`'s printout. A change that moves a
//! value edits its assert in the same change, so the diff shows the old
//! and the new number.
//!
//! ```sh
//! cargo test --release -p pinum-bench --test acceptance paper::
//! # debug, with the builder's and collector's self-checks sampled
//! PINUM_ASSERT_SAMPLE=4 cargo test -p pinum-bench --test acceptance -- --ignored paper::
//! ```

mod cache_construction;
mod cost_accuracy;
mod engine_validation;
mod greedy_quality;
mod index_selection;
mod nlj;
mod pruning;
mod redundancy;
mod whatif;
