//! Lossless wire ↔ domain conversions.
//!
//! `pinum-protocol` is dependency-free, so its wire structs are flat
//! primitive mirrors; this module is where they meet the real types.
//! Encoding is infallible and field-exact. Decoding **validates before
//! constructing**: the domain constructors assert their invariants
//! (`PlanCache::insert` checks coefficient arity, `InterestingOrders::new`
//! checks bounds, `OnlineAdvisor::new` checks option ranges), and a
//! malformed frame must produce a typed error reply — never a daemon
//! panic — so every invariant is re-checked here and surfaced as
//! [`ConvertError`].

use pinum_advisor::search::StrategyKind;
use pinum_catalog::{Index, IndexId, IndexKind, IndexSize, TableId};
use pinum_core::access_costs::{AccessCostCatalog, CandidateAccess};
use pinum_core::cache::{CachedPlan, PlanCache};
use pinum_core::CandidatePool;
use pinum_cost::scan::IndexScanInput;
use pinum_cost::CostParams;
use pinum_online::{OnlineAdvisorOptions, OnlineStats, ReadviseReport, ReadviseTrigger};
use pinum_protocol::{
    WireAccess, WireAccessCatalog, WireCostParams, WireIndex, WireOptions, WirePlan, WirePlanCache,
    WireProbe, WireReadviseReport, WireStats, WireTemplate,
};
use pinum_query::{InterestingOrders, Ioc, RelIdx, TemplateKey, MAX_ORDERS_PER_REL, MAX_RELATIONS};

/// A structurally valid frame whose payload violates a domain invariant
/// (the wire layer cannot know them). Reported to the client as a
/// `Malformed` error reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvertError(pub &'static str);

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid payload: {}", self.0)
    }
}

impl std::error::Error for ConvertError {}

type Result<T> = std::result::Result<T, ConvertError>;

// --- Indexes / candidate pools. ---

pub fn index_to_wire(ix: &Index) -> WireIndex {
    WireIndex {
        id: ix.id().0,
        table: ix.table().0,
        key_columns: ix.key_columns().to_vec(),
        unique: ix.is_unique(),
        kind: match ix.kind() {
            IndexKind::Materialized => 0,
            IndexKind::Hypothetical => 1,
        },
        leaf_pages: ix.size().leaf_pages,
        internal_pages: ix.size().internal_pages,
        height: ix.size().height,
        correlation: ix.correlation(),
        rows: ix.rows(),
        name: ix.name().to_string(),
    }
}

pub fn index_from_wire(w: &WireIndex) -> Result<Index> {
    if w.key_columns.is_empty() {
        return Err(ConvertError("index without key columns"));
    }
    let kind = match w.kind {
        0 => IndexKind::Materialized,
        1 => IndexKind::Hypothetical,
        _ => return Err(ConvertError("unknown index kind")),
    };
    Ok(Index::from_parts(
        IndexId(w.id),
        TableId(w.table),
        w.key_columns.clone(),
        w.unique,
        kind,
        IndexSize {
            leaf_pages: w.leaf_pages,
            internal_pages: w.internal_pages,
            height: w.height,
        },
        w.correlation,
        w.rows,
        w.name.clone(),
    ))
}

pub fn pool_to_wire(pool: &CandidatePool) -> Vec<WireIndex> {
    pool.indexes().iter().map(index_to_wire).collect()
}

pub fn pool_from_wire(wire: &[WireIndex]) -> Result<CandidatePool> {
    let indexes = wire.iter().map(index_from_wire).collect::<Result<_>>()?;
    Ok(CandidatePool::from_indexes(indexes))
}

// --- Cost params / probe specs. ---

pub fn params_to_wire(p: &CostParams) -> WireCostParams {
    WireCostParams {
        seq_page_cost: p.seq_page_cost,
        random_page_cost: p.random_page_cost,
        cpu_tuple_cost: p.cpu_tuple_cost,
        cpu_index_tuple_cost: p.cpu_index_tuple_cost,
        cpu_operator_cost: p.cpu_operator_cost,
        effective_cache_pages: p.effective_cache_pages,
        work_mem_kb: p.work_mem_kb,
    }
}

pub fn params_from_wire(w: &WireCostParams) -> CostParams {
    CostParams {
        seq_page_cost: w.seq_page_cost,
        random_page_cost: w.random_page_cost,
        cpu_tuple_cost: w.cpu_tuple_cost,
        cpu_index_tuple_cost: w.cpu_index_tuple_cost,
        cpu_operator_cost: w.cpu_operator_cost,
        effective_cache_pages: w.effective_cache_pages,
        work_mem_kb: w.work_mem_kb,
    }
}

pub fn probe_to_wire(p: &IndexScanInput) -> WireProbe {
    WireProbe {
        index_leaf_pages: p.index_leaf_pages,
        index_height: p.index_height,
        index_rows: p.index_rows,
        heap_pages: p.heap_pages,
        heap_rows: p.heap_rows,
        index_selectivity: p.index_selectivity,
        correlation: p.correlation,
        filter_ops: p.filter_ops,
        index_only: p.index_only,
        loop_count: p.loop_count,
    }
}

pub fn probe_from_wire(w: &WireProbe) -> IndexScanInput {
    IndexScanInput {
        index_leaf_pages: w.index_leaf_pages,
        index_height: w.index_height,
        index_rows: w.index_rows,
        heap_pages: w.heap_pages,
        heap_rows: w.heap_rows,
        index_selectivity: w.index_selectivity,
        correlation: w.correlation,
        filter_ops: w.filter_ops,
        index_only: w.index_only,
        loop_count: w.loop_count,
    }
}

// --- Access catalogs. ---

pub fn access_to_wire(catalog: &AccessCostCatalog) -> WireAccessCatalog {
    WireAccessCatalog {
        per_rel: catalog
            .per_rel()
            .iter()
            .map(|rel| {
                rel.iter()
                    .map(|e| WireAccess {
                        candidate: e.candidate.map(|c| c as u32),
                        order: e.order,
                        cost: e.cost,
                        probe: e.probe.as_ref().map(probe_to_wire),
                    })
                    .collect()
            })
            .collect(),
        params: params_to_wire(catalog.params()),
    }
}

/// `pool_len` bounds the candidate ids a catalog may reference — an
/// out-of-pool id would index out of bounds deep inside pricing. The
/// catalog must also be what a collector produces: finite cost
/// parameters and probe inputs, and per relation at least one
/// always-available entry (the sequential scan) with finite,
/// non-negative costs in ascending order — flattening a catalog into a
/// workload model relies on all of it.
pub fn access_from_wire(w: &WireAccessCatalog, pool_len: usize) -> Result<AccessCostCatalog> {
    let p = &w.params;
    if !all_finite(&[
        p.seq_page_cost,
        p.random_page_cost,
        p.cpu_tuple_cost,
        p.cpu_index_tuple_cost,
        p.cpu_operator_cost,
        p.effective_cache_pages,
    ]) {
        return Err(ConvertError("cost parameter is not finite"));
    }
    let per_rel = w
        .per_rel
        .iter()
        .map(|rel| {
            if !rel.iter().any(|e| e.candidate.is_none()) {
                return Err(ConvertError(
                    "relation has no always-available access entry",
                ));
            }
            if rel.windows(2).any(|pair| pair[0].cost > pair[1].cost) {
                return Err(ConvertError("access costs are not ascending"));
            }
            rel.iter()
                .map(|e| {
                    if let Some(c) = e.candidate {
                        if c as usize >= pool_len {
                            return Err(ConvertError(
                                "access entry references candidate outside the pool",
                            ));
                        }
                    }
                    if !(e.cost.is_finite() && e.cost >= 0.0) {
                        return Err(ConvertError("access cost is not finite and non-negative"));
                    }
                    if let Some(probe) = &e.probe {
                        if !all_finite(&[
                            probe.index_rows,
                            probe.heap_rows,
                            probe.index_selectivity,
                            probe.correlation,
                            probe.loop_count,
                        ]) {
                            return Err(ConvertError("probe input is not finite"));
                        }
                    }
                    Ok(CandidateAccess {
                        candidate: e.candidate.map(|c| c as usize),
                        order: e.order,
                        cost: e.cost,
                        probe: e.probe.as_ref().map(probe_from_wire),
                    })
                })
                .collect::<Result<Vec<_>>>()
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(AccessCostCatalog::from_parts(
        per_rel,
        params_from_wire(&w.params),
    ))
}

// --- Plan caches. ---

pub fn cache_to_wire(cache: &PlanCache) -> WirePlanCache {
    WirePlanCache {
        query_name: cache.query_name.clone(),
        n_rels: cache.n_rels as u32,
        orders: (0..cache.orders.relation_count())
            .map(|rel| cache.orders.orders_of(rel as u16).to_vec())
            .collect(),
        plans: cache
            .plans()
            .iter()
            .map(|p| WirePlan {
                ioc: p.ioc.raw(),
                internal: p.internal,
                coefs: p.coefs.clone(),
                probe_coefs: p.probe_coefs.clone(),
                uses_nlj: p.uses_nlj,
                rows: p.rows,
                description: p.description.clone(),
            })
            .collect(),
    }
}

pub fn cache_from_wire(w: &WirePlanCache) -> Result<PlanCache> {
    let n_rels = w.n_rels as usize;
    if w.orders.len() != n_rels || n_rels > MAX_RELATIONS {
        return Err(ConvertError(
            "interesting orders do not match relation count",
        ));
    }
    for cols in &w.orders {
        if cols.len() > MAX_ORDERS_PER_REL || cols.windows(2).any(|p| p[0] >= p[1]) {
            return Err(ConvertError("interesting orders not sorted and bounded"));
        }
    }
    let orders = InterestingOrders::new(w.orders.clone());
    let mut cache = PlanCache::new(w.query_name.clone(), n_rels, orders);
    for p in &w.plans {
        if p.coefs.len() != n_rels || p.probe_coefs.len() != n_rels {
            return Err(ConvertError("plan coefficient arity mismatch"));
        }
        // Each relation's nibble names one of its orders (or none), and
        // relations past `n_rels` have none.
        let ioc = Ioc::from_raw(p.ioc);
        let unused_clear = n_rels == MAX_RELATIONS || p.ioc >> (4 * n_rels) == 0;
        if !unused_clear
            || (0..n_rels).any(|rel| ioc.nibble(rel as RelIdx) as usize > w.orders[rel].len())
        {
            return Err(ConvertError("plan order combination out of range"));
        }
        cache.insert(CachedPlan {
            ioc,
            internal: p.internal,
            coefs: p.coefs.clone(),
            probe_coefs: p.probe_coefs.clone(),
            uses_nlj: p.uses_nlj,
            rows: p.rows,
            description: p.description.clone(),
        });
    }
    Ok(cache)
}

fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

// --- Templates. ---

pub fn template_to_wire(t: &TemplateKey) -> WireTemplate {
    WireTemplate {
        table: t.table().0,
        filters: t.filters().to_vec(),
    }
}

pub fn template_from_wire(w: &WireTemplate) -> TemplateKey {
    TemplateKey::from_parts(TableId(w.table), w.filters.clone())
}

// --- Advisor options. ---

pub fn options_to_wire(o: &OnlineAdvisorOptions) -> Result<WireOptions> {
    let strategy = match o.strategy {
        StrategyKind::LazyGreedy => 0,
        StrategyKind::EagerGreedy => 1,
        StrategyKind::SwapHillClimb => 2,
        _ => return Err(ConvertError("strategy not exposed over the wire")),
    };
    Ok(WireOptions {
        window_capacity: o.window_capacity as u64,
        epoch_length: o.epoch_length as u64,
        drift_threshold: o.drift_threshold,
        strategy,
        budget_bytes: o.budget_bytes,
        scoped_readvise: o.scoped_readvise,
    })
}

pub fn options_from_wire(w: &WireOptions) -> Result<OnlineAdvisorOptions> {
    let strategy = match w.strategy {
        0 => StrategyKind::LazyGreedy,
        1 => StrategyKind::EagerGreedy,
        2 => StrategyKind::SwapHillClimb,
        _ => return Err(ConvertError("unknown strategy tag")),
    };
    let opts = OnlineAdvisorOptions {
        window_capacity: w.window_capacity as usize,
        epoch_length: w.epoch_length as usize,
        drift_threshold: w.drift_threshold,
        strategy,
        budget_bytes: w.budget_bytes,
        scoped_readvise: w.scoped_readvise,
    };
    opts.validate().map_err(ConvertError)?;
    Ok(opts)
}

// --- Reports / stats (daemon → client only). ---

pub fn report_to_wire(r: &ReadviseReport) -> WireReadviseReport {
    WireReadviseReport {
        trigger: match r.trigger {
            ReadviseTrigger::Epoch => 0,
            ReadviseTrigger::Drift => 1,
            ReadviseTrigger::Forced => 2,
        },
        wall_seconds: r.wall.as_secs_f64(),
        cost_before: r.cost_before,
        cost_after: r.cost_after,
        picks: r.picks as u64,
        evaluations: r.evaluations as u64,
        queries_repriced: r.queries_repriced as u64,
        full_repricings: r.full_repricings as u64,
        scoped: r.scoped,
        scope_candidates: r.scope_candidates as u64,
    }
}

pub fn stats_to_wire(s: &OnlineStats) -> WireStats {
    WireStats {
        admits: s.admits as u64,
        evictions: s.evictions as u64,
        reweights: s.reweights as u64,
        reweight_misses: s.reweight_misses as u64,
        readvises: s.readvises as u64,
        epoch_readvises: s.epoch_readvises as u64,
        drift_readvises: s.drift_readvises as u64,
        forced_readvises: s.forced_readvises as u64,
        scoped_readvises: s.scoped_readvises as u64,
        full_repricings: s.full_repricings as u64,
        compactions: s.compactions as u64,
        admit_arms_total: s.admit_arms_total as u64,
        admit_arms_max: s.admit_arms_max as u64,
        model_admit_wall_seconds: s.model_admit_wall.as_secs_f64(),
        readvise_wall_seconds: s.readvise_wall.as_secs_f64(),
        last_readvise_wall_seconds: s.last_readvise_wall.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Catalog, Column, ColumnType, Table};

    fn sample_index() -> Index {
        let mut schema = Catalog::new();
        let tid = schema.add_table(Table::new(
            "t",
            100_000,
            vec![
                Column::new("a", ColumnType::Int8).with_ndv(100_000),
                Column::new("b", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let t = schema.table(tid);
        let mut ix = Index::hypothetical(t, vec![0, 1], true);
        ix = Index::from_parts(
            IndexId(7),
            ix.table(),
            ix.key_columns().to_vec(),
            ix.is_unique(),
            ix.kind(),
            ix.size(),
            ix.correlation(),
            ix.rows(),
            ix.name().to_string(),
        );
        ix
    }

    #[test]
    fn index_roundtrip_is_field_exact() {
        let ix = sample_index();
        let back = index_from_wire(&index_to_wire(&ix)).unwrap();
        assert_eq!(back.id(), ix.id());
        assert_eq!(back.table(), ix.table());
        assert_eq!(back.key_columns(), ix.key_columns());
        assert_eq!(back.is_unique(), ix.is_unique());
        assert_eq!(back.kind(), ix.kind());
        assert_eq!(back.size(), ix.size());
        assert_eq!(back.correlation().to_bits(), ix.correlation().to_bits());
        assert_eq!(back.rows(), ix.rows());
        assert_eq!(back.name(), ix.name());
    }

    #[test]
    fn invalid_payloads_become_errors_not_panics() {
        let mut w = index_to_wire(&sample_index());
        w.kind = 9;
        assert!(index_from_wire(&w).is_err());
        w.kind = 0;
        w.key_columns.clear();
        assert!(index_from_wire(&w).is_err());

        let mut o = options_to_wire(&OnlineAdvisorOptions::defaults(1 << 30)).unwrap();
        o.drift_threshold = f64::NAN;
        assert!(options_from_wire(&o).is_err());
        o.drift_threshold = 0.2;
        o.strategy = 200;
        assert!(options_from_wire(&o).is_err());

        let bad_cache = WirePlanCache {
            query_name: "q".into(),
            n_rels: 2,
            orders: vec![vec![0]], // arity mismatch
            plans: Vec::new(),
        };
        assert!(cache_from_wire(&bad_cache).is_err());

        let bad_access = WireAccessCatalog {
            per_rel: vec![vec![WireAccess {
                candidate: Some(10),
                order: None,
                cost: 1.0,
                probe: None,
            }]],
            params: params_to_wire(&CostParams::default()),
        };
        assert!(access_from_wire(&bad_access, 5).is_err());

        // Payloads that decode but would panic a shard while flattening.
        let plan = |ioc: u64| WirePlan {
            ioc,
            internal: 1.0,
            coefs: vec![1.0],
            probe_coefs: vec![0.0],
            uses_nlj: false,
            rows: 1.0,
            description: String::new(),
        };
        let cache = |ioc: u64| WirePlanCache {
            query_name: "q".into(),
            n_rels: 1,
            orders: vec![vec![3]],
            plans: vec![plan(ioc)],
        };
        assert!(cache_from_wire(&cache(0x1)).is_ok());
        assert!(
            cache_from_wire(&cache(0xF)).is_err(),
            "nibble past the orders"
        );
        assert!(cache_from_wire(&cache(0x10)).is_err(), "nibble past n_rels");

        let entry = |candidate: Option<u32>, cost: f64| WireAccess {
            candidate,
            order: None,
            cost,
            probe: None,
        };
        let access = |rel: Vec<WireAccess>| WireAccessCatalog {
            per_rel: vec![rel],
            params: params_to_wire(&CostParams::default()),
        };
        let good = access(vec![entry(Some(0), 1.0), entry(None, 2.0)]);
        assert!(access_from_wire(&good, 5).is_ok());
        for (bad, why) in [
            (access(Vec::new()), "no entries"),
            (
                access(vec![entry(Some(0), 1.0)]),
                "no always-available entry",
            ),
            (
                access(vec![entry(None, 2.0), entry(Some(0), 1.0)]),
                "descending",
            ),
            (access(vec![entry(None, f64::NAN)]), "NaN cost"),
            (access(vec![entry(None, -1.0)]), "negative cost"),
            (access(vec![entry(None, f64::INFINITY)]), "infinite cost"),
        ] {
            assert!(access_from_wire(&bad, 5).is_err(), "{why}");
        }
        let mut nan_params = good.clone();
        nan_params.params.random_page_cost = f64::NAN;
        assert!(access_from_wire(&nan_params, 5).is_err());
        let mut nan_probe = good.clone();
        nan_probe.per_rel[0][0].probe = Some(WireProbe {
            loop_count: f64::NAN,
            ..probe_to_wire(&IndexScanInput::default())
        });
        assert!(access_from_wire(&nan_probe, 5).is_err());
    }

    #[test]
    fn options_roundtrip() {
        let opts = OnlineAdvisorOptions {
            strategy: StrategyKind::SwapHillClimb,
            drift_threshold: 0.9,
            ..OnlineAdvisorOptions::defaults(123456)
        };
        let back = options_from_wire(&options_to_wire(&opts).unwrap()).unwrap();
        assert_eq!(back.window_capacity, opts.window_capacity);
        assert_eq!(back.epoch_length, opts.epoch_length);
        assert_eq!(back.strategy, StrategyKind::SwapHillClimb);
        assert_eq!(
            back.drift_threshold.to_bits(),
            opts.drift_threshold.to_bits()
        );
        assert_eq!(back.budget_bytes, opts.budget_bytes);
    }
}
