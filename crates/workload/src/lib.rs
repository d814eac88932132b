//! # pinum-workload
//!
//! Workload substrates for the PINUM reproduction:
//!
//! * [`star`] — the paper's synthetic benchmark (§VI-A): a 10 GB
//!   star/snowflake schema with one fact table and 28 dimension tables
//!   ("The dimension tables themselves have other dimension tables and so
//!   on"), uniformly distributed numeric columns, and ten foreign-key-join
//!   queries with 1 %-selectivity predicates and ORDER BY clauses;
//! * [`tpch`] — TPC-H schema *statistics* (published cardinalities) and
//!   query skeletons, used for the §IV motivation numbers (TPC-H Q5 has
//!   648 interesting-order combinations);
//! * [`drift`] — deterministic *drifting* query streams over the star
//!   schema (phased template-mix shifts, table-growth reweighting, query
//!   churn) for exercising the online tuning subsystem;
//! * [`templates`] — collection-template statistics: how many distinct
//!   `(table, filter shape)` signatures a workload's relations collapse
//!   onto, i.e. the template pricings of workload-level batched
//!   collection (`pinum_core::WorkloadCollector`).
//!
//! Only statistics are generated — the optimizer, the INUM cache and the
//! index advisor all work off statistics, exactly like what-if calls
//! against a real DBMS. The small-scale executable data for the mini
//! engine lives in `pinum-engine`.

pub mod drift;
pub mod star;
pub mod templates;
pub mod tpch;

pub use drift::{DriftProfile, DriftStream, DriftedQuery};
pub use star::{StarSchema, StarWorkload};
pub use templates::{summarize_templates, TemplateSummary};
pub use tpch::{tpch_catalog, tpch_q10, tpch_q3, tpch_q5};
