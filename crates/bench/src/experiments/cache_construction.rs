//! E4 — Figure 4/5: cache construction and access-cost collection.
//!
//! "PINUM is typically at least one order of magnitude faster than INUM
//! for cache construction, and 5 times faster for finding the index access
//! costs. PINUM takes a few tens of milliseconds to build the cache for
//! each query, compared to a few seconds required by INUM."
//!
//! The rows carry each builder's and collector's statistics: counted work
//! (optimizer calls, paths added, arena nodes) and wall clocks. Only the
//! counts are exact; the wall clocks are for the printout.

use crate::paper_workload;
use pinum_advisor::candidates::generate_candidates;
use pinum_core::access_costs::{collect_inum, collect_pinum, CollectStats};
use pinum_core::builder::{build_cache_inum, build_cache_pinum, BuildStats, BuilderOptions};
use pinum_optimizer::Optimizer;

/// One query's INUM and PINUM cache builds and access-cost collections.
pub struct ConstructionRow {
    pub name: String,
    pub tables: usize,
    pub inum_cache: BuildStats,
    pub pinum_cache: BuildStats,
    pub inum_access: CollectStats,
    pub pinum_access: CollectStats,
}

pub struct CacheConstruction {
    /// Size of the candidate pool the access costs are collected for.
    pub candidates: usize,
    pub rows: Vec<ConstructionRow>,
}

pub fn run() -> CacheConstruction {
    let pw = paper_workload();
    let opt = Optimizer::new(&pw.schema.catalog);
    let pool = generate_candidates(&pw.schema.catalog, &pw.workload.queries);
    let opts = BuilderOptions::default();
    let rows = pw
        .workload
        .queries
        .iter()
        .map(|q| ConstructionRow {
            name: q.name.clone(),
            tables: q.relation_count(),
            inum_cache: build_cache_inum(&opt, q, &opts).stats,
            pinum_cache: build_cache_pinum(&opt, q, &opts).stats,
            inum_access: collect_inum(&opt, q, &pool).1,
            pinum_access: collect_pinum(&opt, q, &pool).1,
        })
        .collect();
    CacheConstruction {
        candidates: pool.len(),
        rows,
    }
}
