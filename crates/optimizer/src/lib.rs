//! # pinum-optimizer
//!
//! A bottom-up, System-R-style dynamic-programming query optimizer modeled
//! on PostgreSQL 8.3's planner — the substrate the paper instruments — with
//! the three PINUM hooks:
//!
//! 1. **what-if indexes** (§V-A) arrive via
//!    [`pinum_catalog::Configuration`];
//! 2. **keep-all access paths** (§V-C,
//!    [`OptimizerOptions::keep_all_access_paths`]) reports the access cost
//!    of *every* candidate index from a single call;
//! 3. **per-IOC plan retention and export** (§V-D,
//!    [`OptimizerOptions::export_ioc_plans`]) switches the join planner to
//!    the subset-cost pruning rule and piggy-backs one optimal plan per
//!    interesting-order combination on the result — the titular "caching
//!    all plans with just one optimizer call". With nested loops enabled,
//!    the same call also plans the NLJ-free family over its access paths
//!    and returns it in [`PlannedQuery::exported_nlj_free`], so both
//!    families INUM caches (§V-D) cost one call.
//!
//! A fourth, workload-level hook extends §V-C across queries: a
//! [`PricingRequest`] to [`Optimizer::optimize_with_requests`] prices
//! every access arm of one relation *template* (`pinum_query::RelTemplate`:
//! table + filter shape) in both covering variants inside the query's own
//! exporting call, so a workload collector prices each distinct template
//! once and still spends exactly one call per query.
//! [`Optimizer::price_template`] prices a template met outside an export
//! with a call of its own.
//!
//! The component layout follows the paper's Figure 2: query preprocessor
//! ([`preprocess`]), grouping planner ([`grouping`]), access path collector
//! ([`access`]) and join planner ([`joinsearch`]). Figure 2's sub-query
//! planner has no counterpart: like the paper's implementation, which
//! "does not address queries containing complex sub-queries" (§VI-A), the
//! reproduction plans no sub-queries.

pub mod access;
pub mod addpath;
pub mod grouping;
mod intmap;
pub mod joinsearch;
pub mod path;
pub mod plan;
pub mod planner;
pub mod preprocess;
pub mod relset;

pub use access::{collect_template_arms, AccessCostEntry, AccessSource, TemplateArm};
pub use addpath::PruneMode;
pub use path::{AggKind, IndexRef, LinearCost};
pub use plan::PlanNode;
pub use planner::{
    ExportedPlan, Optimizer, OptimizerOptions, PlannedQuery, PlannerStats, PricingRequest,
};
pub use preprocess::{EcId, PlannerInfo};
pub use relset::RelSet;
