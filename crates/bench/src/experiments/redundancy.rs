//! E1 — §IV motivation numbers.
//!
//! "The query has 648 interesting order combinations. INUM needs to query
//! the optimizer 648 times to fully build the cache; if we carefully parse
//! the plans, however, we find only 64 unique plans in the cache; 90% of
//! the optimizer calls and the cached plans are therefore redundant!"
//!
//! Two redundancy measures: the distinct plans among classic INUM's
//! per-IOC winners (the paper's §IV counting), and the plans the PINUM
//! skyline retains per §V-D — the set a configuration with expensive
//! unordered access will actually need.
//!
//! **Gap:** INUM's unique winners read 1 on every row, against the paper's
//! 64 of 648 for TPC-H Q5: every per-IOC call here picks the same plan
//! structure. The per-IOC indexes are single-column, but that is not the
//! cause: giving them every referenced column moves only star Q1 (1 → 2).

use crate::paper_workload;
use pinum_core::builder::{build_cache_inum, build_cache_pinum, BuilderOptions};
use pinum_optimizer::Optimizer;
use pinum_query::Query;
use pinum_workload::{tpch_catalog, tpch_q5};

/// One query's counts.
pub struct RedundancyRow {
    pub query: String,
    pub tables: usize,
    /// Interesting-order combinations, = classic INUM's per-IOC calls.
    pub iocs: u64,
    pub inum_unique_winners: usize,
    pub pinum_useful_plans: usize,
}

/// TPC-H Q5 (the paper's motivating example) and the star workload.
pub struct Redundancy {
    pub tpch_q5: RedundancyRow,
    pub star: Vec<RedundancyRow>,
}

pub fn run() -> Redundancy {
    let row = |opt: &Optimizer<'_>, q: &Query, label: String| {
        let inum = build_cache_inum(
            opt,
            q,
            &BuilderOptions {
                include_nlj: false,
                nlj_extreme_calls: false,
            },
        );
        let pinum = build_cache_pinum(opt, q, &BuilderOptions::default());
        RedundancyRow {
            query: label,
            tables: q.relation_count(),
            iocs: inum.stats.ioc_count,
            inum_unique_winners: inum.stats.unique_plan_structures,
            pinum_useful_plans: pinum.stats.plans_cached,
        }
    };

    let tpch = tpch_catalog(1.0);
    let q5 = tpch_q5(&tpch);
    let tpch_q5 = row(&Optimizer::new(&tpch), &q5, format!("TPC-H {}", q5.name));

    let pw = paper_workload();
    let opt = Optimizer::new(&pw.schema.catalog);
    let star = pw
        .workload
        .queries
        .iter()
        .map(|q| row(&opt, q, q.name.clone()))
        .collect();
    Redundancy { tpch_q5, star }
}
