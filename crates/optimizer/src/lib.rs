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
//! A fourth, workload-level hook extends §V-C across queries:
//! [`Optimizer::price_template`] prices every access arm of one relation
//! *template* (`pinum_query::RelTemplate`: table + filter shape) in both
//! covering variants with a single call, so a workload collector spends
//! one call per distinct template instead of one keep-all call per query.
//!
//! The component layout follows the paper's Figure 2: query preprocessor
//! ([`preprocess`]), sub-query planner ([`subquery`]), grouping planner
//! ([`grouping`]), access path collector ([`access`]) and join planner
//! ([`joinsearch`]).

pub mod access;
pub mod addpath;
pub mod grouping;
pub mod joinsearch;
pub mod path;
pub mod plan;
pub mod planner;
pub mod preprocess;
pub mod relset;
pub mod subquery;

pub use access::{collect_template_arms, AccessCostEntry, AccessSource, TemplateArm};
pub use addpath::PruneMode;
pub use path::{AggKind, IndexRef, LinearCost};
pub use plan::PlanNode;
pub use planner::{ExportedPlan, Optimizer, OptimizerOptions, PlannedQuery, PlannerStats};
pub use preprocess::{EcId, PlannerInfo};
pub use relset::RelSet;
pub use subquery::{plan_statement, PlannedStatement, Statement};
