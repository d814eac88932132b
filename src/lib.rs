//! # pinum — Caching All Plans with Just One Optimizer Call
//!
//! Facade crate for the reproduction of Dash et al., *Caching All Plans with
//! Just One Optimizer Call* (ICDE Workshops 2010). It re-exports the public
//! API of every subsystem:
//!
//! * [`catalog`] — tables, statistics, B-tree size models, what-if indexes,
//!   configurations;
//! * [`cost`] — PostgreSQL-style cost model;
//! * [`query`] — SPJ+aggregation queries, selectivity, interesting orders;
//! * [`optimizer`] — bottom-up System-R dynamic-programming optimizer with
//!   the PINUM instrumentation hooks;
//! * [`core`] — the INUM plan cache, its cost model, the classic
//!   (per-IOC) and PINUM (one-call) cache builders, and the workload-scale
//!   incremental pricing engine (`WorkloadModel`);
//! * [`advisor`] — greedy index-selection tool with a space budget, driven
//!   by incremental delta pricing (probe a candidate → re-price only the
//!   queries it can affect);
//! * [`online`] — the online tuning subsystem: a sliding-window
//!   `OnlineAdvisor` daemon that admits/evicts queries into the streaming
//!   `WorkloadModel` and re-advises on epochs and detected drift,
//!   warm-starting the search from the previous selection;
//! * [`workload`] — the paper's synthetic star-schema workload and TPC-H
//!   statistics;
//! * [`engine`] — a mini in-memory executor for small-scale validation.
//!
//! ## Quickstart
//!
//! ```
//! use pinum::workload::star::{StarSchema, StarWorkload};
//! use pinum::optimizer::{Optimizer, OptimizerOptions};
//! use pinum::core::builder::{build_cache_pinum, BuilderOptions};
//! use pinum::core::build_workload_models;
//! use pinum::advisor::candidates::generate_candidates;
//!
//! // The paper's synthetic star-schema workload, scaled down.
//! let schema = StarSchema::generate(42, 0.01);
//! let workload = StarWorkload::generate(&schema, 42, 10);
//! let optimizer = Optimizer::new(&schema.catalog);
//!
//! // Fill an INUM plan cache with one optimizer call instead of one per
//! // interesting-order combination.
//! let query = &workload.queries[0];
//! let built = build_cache_pinum(&optimizer, query, &BuilderOptions::default());
//! assert_eq!(built.stats.optimizer_calls, 1);
//!
//! // A whole workload's caches *and* access costs over a candidate pool:
//! // still one call per query, since each exporting call also prices the
//! // access arms of the templates its query is first to present.
//! let pool = generate_candidates(&schema.catalog, &workload.queries);
//! let queries = &workload.queries;
//! let models = build_workload_models(&optimizer, queries, &pool, &BuilderOptions::default());
//! assert_eq!(models.cache_calls + models.collect_calls, queries.len());
//! ```

pub use pinum_advisor as advisor;
pub use pinum_catalog as catalog;
pub use pinum_core as core;
pub use pinum_cost as cost;
pub use pinum_engine as engine;
pub use pinum_online as online;
pub use pinum_optimizer as optimizer;
pub use pinum_query as query;
pub use pinum_workload as workload;
