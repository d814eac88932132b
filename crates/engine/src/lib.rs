//! # pinum-engine
//!
//! A mini row-level execution engine over synthetic in-memory data.
//!
//! The paper runs its workload on a 10 GB PostgreSQL database; this crate
//! is the scaled-down stand-in: it
//! materializes data matching the catalog's statistics ([`data`]) and
//! executes the optimizer's [`pinum_optimizer::PlanNode`] trees against it
//! ([`exec`]). It serves two purposes:
//!
//! 1. **validation** — actual row counts and join results check the cost
//!    model's cardinality estimates and the optimizer's plan correctness
//!    (every plan of the same query must produce the same rows);
//! 2. **examples** — runnable end-to-end demos that *execute* the queries
//!    the advisor tunes.

pub mod data;
pub mod exec;

pub use data::{Database, TableData};
pub use exec::{execute, ExecOutput, ExecStats};
