//! # pinum-core
//!
//! The paper's primary contribution: the **INUM plan cache** and its two
//! construction strategies.
//!
//! INUM (Papadomanolakis, Dash, Ailamaki, VLDB'07) observes that, for a
//! fixed query, the optimizer's output varies over a small set of *internal
//! plans*, one per **interesting-order combination (IOC)**; the cost of the
//! query under any *atomic configuration* is then
//!
//! ```text
//! cost(C) = min over cached plans p applicable under C of
//!           internal(p) + Σ_r coef_p(r) · access_cost(r, order_p(r), C)
//! ```
//!
//! Filling that cache is the expensive part:
//!
//! * [`builder::build_cache_inum`] is the classic strategy — **one
//!   optimizer call per IOC** (648 for TPC-H Q5), each with a what-if
//!   configuration covering that combination;
//! * [`builder::build_cache_pinum`] is the paper's contribution — **one
//!   call** against a configuration covering *every* interesting order,
//!   with the optimizer's §V-D hook exporting one optimal plan per IOC;
//!   the same call plans both plan families INUM caches (nested-loop
//!   joins disabled and enabled).
//!
//! Access costs are collected analogously: [`access_costs::collect_pinum`]
//! prices the entire candidate pool with **one** keep-all call (§V-C),
//! [`access_costs::collect_inum`] needs one call per atomic batch of
//! candidates. At workload scale, [`collector::WorkloadCollector`] folds
//! that call into the query's exporting one: relations are grouped by
//! `(table, filter shape)` template, and each template's arms are priced
//! **once** for the whole workload, inside the exporting call of the
//! first query to present it. A query's plan cache and access costs then
//! cost **one** optimizer call together, bit-identical to the per-query
//! references ([`collector::build_workload_models`]).
//!
//! On top of the per-query caches, [`workload_model::WorkloadModel`]
//! packs a whole workload's plans and access costs into a CSR-style
//! **struct-of-arrays** pricing kernel: one contiguous cost array, a
//! parallel candidate-id array, and extent tables per slot/plan/query, so
//! pricing a slot is a branchless min-scan against a bitset snapshot of
//! the selection. `price_full` prices a selection; a **delta** prices a
//! [`workload_model::Probe`] — add, drop, or drop-one/add-one swap —
//! through one kernel body (`price_batch_on` to rank probes, where a run
//! of swaps sharing a drop prices the drop's queries once and splices
//! them into one copy of the sum tree that each swap overlays;
//! `commit_probe_on` to commit one) that re-prices only the queries the
//! touched candidates can affect. One index serves both: the
//! candidate→arm index, whose arms fall into one run per query, names
//! those queries and proves the rest untouched. The kernel reads each of
//! them off a [`workload_model::SlotFloor`] — every slot's cheapest live
//! arm under the search's selection, with the arm attaining it and its
//! runner-up, filled lazily — through only the probed candidates' arms
//! (an add is one `min`, a drop of the winner one read of the
//! runner-up), and re-totals in O(changed·log n) through the fixed-shape
//! pairwise sum tree every [`workload_model::PricedWorkload`] carries,
//! in one bottom-up pass. The tree shape — exposed
//! as [`workload_model::pairwise_total`] — defines the bit pattern of
//! every total, so spliced and from-scratch pricing agree bit for bit.
//! This is the substrate the advisor's pluggable search strategies run
//! on; one serial kernel prices every probe, in the caller's order.
//! [`costing::CacheCostModel::estimate`], which reads the plan cache and
//! access catalog directly, is the one per-query oracle the kernel is
//! tested against bit for bit.
//!
//! The model is also **streaming**: `admit_batch` / `evict_query` /
//! `reweight_query` splice queries in and out of the dense arrays and
//! the candidate→arm index in O(that query's access arms),
//! with the same debug-assert "equals a from-scratch rebuild"
//! equivalence discipline as the deltas (plus `compact` for tombstone
//! hygiene). [`session::PricingSession`] bundles the streaming model
//! with a [`Selection`] and a *live* [`PricedWorkload`] that is spliced
//! — never rebuilt — across mutations, so long-lived consumers carry
//! exact priced state from one re-selection to the next. The
//! `pinum-online` crate's epoch/drift `OnlineAdvisor` daemon is built
//! on exactly this surface — the workload becomes a sliding window over
//! a query stream instead of a frozen batch.
//!
//! All of the incremental paths `debug_assert` equality with their
//! from-scratch references; [`sampling`] bounds the cost of those
//! checks on large workloads via `PINUM_ASSERT_SAMPLE`.

#![forbid(unsafe_code)]

pub mod access_costs;
pub mod builder;
pub mod cache;
pub mod candidates;
pub mod collector;
pub mod costing;
pub mod sampling;
pub mod session;
pub mod workload_model;

pub use access_costs::{
    collect_inum, collect_pinum, AccessCostCatalog, CandidateAccess, CollectStats,
};
pub use builder::{
    build_cache_inum, build_cache_pinum, covering_configuration, BuildStats, BuilderOptions,
    BuiltCache,
};
pub use cache::{CachedPlan, PlanCache};
pub use candidates::{CandidatePool, Selection};
pub use collector::{build_workload_models, WorkloadCollector, WorkloadModels};
pub use costing::{CacheCostModel, Estimate};
pub use session::PricingSession;
pub use workload_model::{
    pairwise_total, PricedWorkload, Probe, ProbeDelta, SlotFloor, WorkloadModel, WorkloadModelParts,
};
