//! E4 — Figure 4/5: cache construction and access-cost collection times.
//!
//! "PINUM is typically at least one order of magnitude faster than INUM
//! for cache construction, and 5 times faster for finding the index access
//! costs. PINUM takes a few tens of milliseconds to build the cache for
//! each query, compared to a few seconds required by INUM."

use crate::paper_workload;
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::generate_candidates;
use pinum_core::access_costs::{collect_inum, collect_pinum};
use pinum_core::builder::{build_cache_inum, build_cache_pinum, BuilderOptions};
use pinum_optimizer::Optimizer;

/// Per-query measurements, returned for tests and callers.
pub struct ConstructionRow {
    pub name: String,
    pub tables: usize,
    pub iocs: u64,
    pub cache_speedup: f64,
    pub access_speedup: f64,
}

pub fn run(scale: f64) -> Vec<ConstructionRow> {
    let pw = paper_workload(scale);
    let opt = Optimizer::new(&pw.schema.catalog);
    let pool = generate_candidates(&pw.schema.catalog, &pw.workload.queries);
    println!(
        "E4: cache construction times (paper Fig. 4/5) — {} candidate indexes\n",
        pool.len()
    );

    let mut table = TextTable::new(vec![
        "query",
        "tables",
        "IOCs",
        "INUM calls",
        "INUM cache",
        "PINUM cache",
        "speedup",
        "INUM access",
        "PINUM access",
        "speedup ",
    ]);
    let opts = BuilderOptions::default();
    let mut rows = Vec::new();
    for q in &pw.workload.queries {
        let inum = build_cache_inum(&opt, q, &opts);
        let pinum = build_cache_pinum(&opt, q, &opts);
        let (_, acc_inum) = collect_inum(&opt, q, &pool);
        let (_, acc_pinum) = collect_pinum(&opt, q, &pool);
        let cache_speedup = inum.stats.wall.as_secs_f64() / pinum.stats.wall.as_secs_f64();
        let access_speedup = acc_inum.wall.as_secs_f64() / acc_pinum.wall.as_secs_f64();
        table.row(vec![
            q.name.clone(),
            q.relation_count().to_string(),
            inum.stats.ioc_count.to_string(),
            inum.stats.optimizer_calls.to_string(),
            fmt_duration(inum.stats.wall),
            fmt_duration(pinum.stats.wall),
            format!("{cache_speedup:.1}x"),
            fmt_duration(acc_inum.wall),
            fmt_duration(acc_pinum.wall),
            format!("{access_speedup:.1}x"),
        ]);
        rows.push(ConstructionRow {
            name: q.name.clone(),
            tables: q.relation_count(),
            iocs: inum.stats.ioc_count,
            cache_speedup,
            access_speedup,
        });
    }
    println!("{}", table.render());
    let geo = |v: Vec<f64>| (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp();
    println!(
        "geometric-mean speedup: cache {:.1}x, access-cost collection {:.1}x",
        geo(rows.iter().map(|r| r.cache_speedup).collect()),
        geo(rows.iter().map(|r| r.access_speedup).collect())
    );
    println!("paper: cache ≥10x (up to 100x for >3-way joins), access-cost collection ≈5x\n");
    rows
}
