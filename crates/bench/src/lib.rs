//! # pinum-bench
//!
//! The paper's reproduction: nine experiments under [`experiments`], one
//! per table or figure, plus shared fixtures, a plain-text table renderer
//! and the JSON parser perfbench's `--compare` reads its result lines
//! with. Each experiment's `run()` computes at scale 1.0 and returns
//! typed rows. `exp_all`, the crate's one binary, prints them (wall clocks
//! included); the `acceptance` test target's `paper` module asserts every
//! counted and cost value exactly, in the release profile. The seven
//! extension experiments are tests only, in the same target. A change
//! that moves a value edits its assert in the same change (see the crate
//! README).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fixtures;
pub mod json;
pub mod table;

pub use fixtures::{paper_workload, PaperWorkload};
