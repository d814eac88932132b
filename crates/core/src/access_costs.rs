//! Access-cost collection: pricing every candidate index for a query.
//!
//! Three collection strategies fill an [`AccessCostCatalog`]:
//!
//! * **PINUM, per query** (§V-C): the access-path collector keeps *all*
//!   index access paths, so one optimizer call against the full candidate
//!   pool prices everything — [`collect_pinum`]. This is the reference
//!   path: every other strategy is held to its output.
//! * **PINUM, batched across the workload**:
//!   [`crate::WorkloadCollector`] groups relations by
//!   `(table, filter shape)` template and spends one optimizer call per
//!   *distinct template* instead of per query, fanning the shared arms
//!   out to each member query's covering/ordering interpretation. The
//!   result is bit-identical to [`collect_pinum`] (debug-asserted on
//!   every collection, release-checked by the `batched_collection`
//!   acceptance test) at a fraction of the calls — 200 → 33 (6.1×) on
//!   the 200-query scale workload.
//! * **Classic INUM**: "the optimizer can be queried with a single index
//!   per each table in the query and the access cost can be determined by
//!   parsing the generated plan" — [`collect_inum`] makes one call per
//!   atomic batch.

use crate::candidates::{CandidatePool, Selection};
use pinum_cost::scan::{cost_index_scan, IndexScanInput};
use pinum_cost::CostParams;
use pinum_optimizer::{AccessSource, IndexRef, Optimizer, OptimizerOptions};
use pinum_query::{Query, RelIdx};
use std::time::{Duration, Instant};

/// One priced access path of a candidate (or always-available) source.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateAccess {
    /// `Some(pool id)` for a candidate index; `None` for sources that are
    /// always available (sequential scan, materialized catalog indexes).
    pub candidate: Option<usize>,
    /// Interesting order covered (`None` = unordered access).
    pub order: Option<u16>,
    /// Standalone access cost (total).
    pub cost: f64,
    /// Probe pricing inputs for parameterized nested-loop lookups
    /// (`None` for unordered sources); re-priced per plan at its actual
    /// loop count.
    pub probe: Option<IndexScanInput>,
}

/// All access costs of one query over a candidate pool.
///
/// `PartialEq` compares entry-for-entry bit-identically — the equivalence
/// relation the batched [`crate::WorkloadCollector`] is held to against
/// this module's per-query reference collection.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessCostCatalog {
    /// Per relation: the priced access paths, ascending by cost.
    per_rel: Vec<Vec<CandidateAccess>>,
    /// Cost parameters used for probe re-pricing (copied from the
    /// optimizer at collection time).
    params: CostParams,
}

impl AccessCostCatalog {
    pub fn new(n_rels: usize) -> Self {
        Self {
            per_rel: vec![Vec::new(); n_rels],
            params: CostParams::default(),
        }
    }

    pub fn relation_count(&self) -> usize {
        self.per_rel.len()
    }

    /// Rebuilds a catalog from snapshot parts — the wire codec
    /// round-trips catalogs through this. `per_rel` must be exactly as a
    /// collector produced it (entries ascending by cost per relation); no
    /// re-sort is applied, so a decoded catalog is bit-identical to the
    /// encoded one.
    pub fn from_parts(per_rel: Vec<Vec<CandidateAccess>>, params: CostParams) -> Self {
        Self { per_rel, params }
    }

    /// Snapshot view of every relation's priced entries (encode side of
    /// [`Self::from_parts`]).
    pub fn per_rel(&self) -> &[Vec<CandidateAccess>] {
        &self.per_rel
    }

    pub fn entries(&self, rel: RelIdx) -> &[CandidateAccess] {
        &self.per_rel[rel as usize]
    }

    /// Cost parameters the probe specs were collected under (needed to
    /// re-price probes at a plan's loop count, e.g. by the workload model).
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    pub(crate) fn set_params(&mut self, params: CostParams) {
        self.params = params;
    }

    pub(crate) fn push(&mut self, rel: RelIdx, entry: CandidateAccess) {
        self.per_rel[rel as usize].push(entry);
    }

    pub(crate) fn sort(&mut self) {
        for v in &mut self.per_rel {
            v.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
            // Same source can be priced by several calls (INUM batching);
            // keep the cheapest observation.
            v.dedup_by(|b, a| a.candidate == b.candidate && a.order == b.order);
        }
    }

    /// Cheapest access cost on `rel` under `selection`:
    /// `order = None` allows *any* access path (every path delivers the
    /// rows, ordered or not); `order = Some(o)` requires a selected (or
    /// always-available) path covering interesting order `o`.
    pub fn best(&self, rel: RelIdx, order: Option<u16>, selection: &Selection) -> Option<f64> {
        self.per_rel[rel as usize]
            .iter()
            .filter(|e| match order {
                None => true,
                Some(o) => e.order == Some(o),
            })
            .filter(|e| e.candidate.is_none_or(|c| selection.contains(c)))
            .map(|e| e.cost)
            .next() // entries are sorted ascending
    }

    /// Cheapest *per-probe* cost on `rel` for interesting order `order`
    /// under `selection`, priced at `loops` probes (parameterized
    /// nested-loop inner lookups).
    pub fn best_probe(
        &self,
        rel: RelIdx,
        order: u16,
        selection: &Selection,
        loops: f64,
    ) -> Option<f64> {
        self.per_rel[rel as usize]
            .iter()
            .filter(|e| e.order == Some(order))
            .filter(|e| e.candidate.is_none_or(|c| selection.contains(c)))
            .filter_map(|e| e.probe)
            .map(|mut spec| {
                spec.loop_count = loops.max(1.0);
                cost_index_scan(&self.params, &spec).total
            })
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.min(p)))
            })
    }
}

/// Statistics of one collection run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectStats {
    pub optimizer_calls: usize,
    pub wall: Duration,
    pub entries: usize,
}

/// PINUM collection: **one** optimizer call with the keep-all hook against
/// the entire candidate pool.
pub fn collect_pinum(
    optimizer: &Optimizer<'_>,
    query: &Query,
    pool: &CandidatePool,
) -> (AccessCostCatalog, CollectStats) {
    let start = Instant::now();
    let selection = Selection::full(pool.len());
    let (config, ids) = pool.configuration(&selection);
    let options = OptimizerOptions {
        keep_all_access_paths: true,
        ..OptimizerOptions::standard()
    };
    let planned = optimizer.optimize(query, &config, &options);
    let mut catalog = AccessCostCatalog::new(query.relation_count());
    catalog.params = *optimizer.params();
    for e in &planned.access_costs {
        let candidate = match e.source {
            AccessSource::SeqScan => None,
            AccessSource::Index(IndexRef::Catalog(_)) => None,
            AccessSource::Index(IndexRef::Config(i)) => Some(ids[i]),
        };
        catalog.push(
            e.rel,
            CandidateAccess {
                candidate,
                order: e.order,
                cost: e.cost.total,
                probe: e.probe_spec,
            },
        );
    }
    catalog.sort();
    let entries = catalog.per_rel.iter().map(Vec::len).sum();
    (
        catalog,
        CollectStats {
            optimizer_calls: 1,
            wall: start.elapsed(),
            entries,
        },
    )
}

/// Classic INUM collection: batches with at most one candidate per table
/// per call ("a single index per each table in the query"), so the number
/// of calls is the maximum candidate count over the query's tables.
pub fn collect_inum(
    optimizer: &Optimizer<'_>,
    query: &Query,
    pool: &CandidatePool,
) -> (AccessCostCatalog, CollectStats) {
    let start = Instant::now();
    let mut catalog = AccessCostCatalog::new(query.relation_count());
    catalog.params = *optimizer.params();

    // Queue of candidate ids per relation of this query.
    let mut queues: Vec<Vec<usize>> = (0..query.relation_count())
        .map(|rel| pool.on_table(query.table_of(rel as RelIdx)).to_vec())
        .collect();
    let mut calls = 0usize;
    let options = OptimizerOptions {
        keep_all_access_paths: true,
        ..OptimizerOptions::standard()
    };

    loop {
        // Draw one candidate per relation.
        let batch: Vec<usize> = queues.iter_mut().filter_map(|q| q.pop()).collect();
        if batch.is_empty() {
            if calls == 0 {
                // No candidates at all: one call to price the base paths.
                let planned =
                    optimizer.optimize(query, &pinum_catalog::Configuration::empty(), &options);
                calls = 1;
                for e in &planned.access_costs {
                    catalog.push(
                        e.rel,
                        CandidateAccess {
                            candidate: None,
                            order: e.order,
                            cost: e.cost.total,
                            probe: e.probe_spec,
                        },
                    );
                }
            }
            break;
        }
        let selection = Selection::from_ids(pool.len(), &batch);
        let (config, ids) = pool.configuration(&selection);
        let planned = optimizer.optimize(query, &config, &options);
        calls += 1;
        for e in &planned.access_costs {
            let candidate = match e.source {
                AccessSource::SeqScan => None,
                AccessSource::Index(IndexRef::Catalog(_)) => None,
                AccessSource::Index(IndexRef::Config(i)) => Some(ids[i]),
            };
            catalog.push(
                e.rel,
                CandidateAccess {
                    candidate,
                    order: e.order,
                    cost: e.cost.total,
                    probe: e.probe_spec,
                },
            );
        }
    }
    catalog.sort();
    let entries = catalog.per_rel.iter().map(Vec::len).sum();
    (
        catalog,
        CollectStats {
            optimizer_calls: calls,
            wall: start.elapsed(),
            entries,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Catalog, Column, ColumnType, Index, Table};
    use pinum_query::QueryBuilder;

    fn setup() -> (Catalog, Query, CandidatePool) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            500_000,
            vec![
                Column::new("fk", ColumnType::Int8).with_ndv(5_000),
                Column::new("v", ColumnType::Int4).with_ndv(1_000),
            ],
        ));
        cat.add_table(Table::new(
            "d",
            5_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(5_000),
                Column::new("w", ColumnType::Int4).with_ndv(100),
            ],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("d", "w"))
            .build();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1], false),
            Index::hypothetical(&f, vec![1, 0], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![0, 1], false),
        ]);
        (cat, q, pool)
    }

    #[test]
    fn pinum_prices_everything_in_one_call() {
        let (cat, q, pool) = setup();
        let opt = Optimizer::new(&cat);
        let (catalog, stats) = collect_pinum(&opt, &q, &pool);
        assert_eq!(stats.optimizer_calls, 1);
        // Every candidate appears in some entry.
        for cand in 0..pool.len() {
            assert!(
                (0..2u16).any(|rel| catalog
                    .entries(rel)
                    .iter()
                    .any(|e| e.candidate == Some(cand))),
                "candidate {cand} unpriced"
            );
        }
        // Sequential scans are always available.
        let sel = Selection::empty(pool.len());
        assert!(catalog.best(0, None, &sel).is_some());
        assert!(catalog.best(1, None, &sel).is_some());
        // Ordered access requires a covering candidate.
        assert!(catalog.best(0, Some(0), &sel).is_none());
        let with_fk = Selection::from_ids(pool.len(), &[0]);
        assert!(catalog.best(0, Some(0), &with_fk).is_some());
    }

    #[test]
    fn inum_needs_one_call_per_batch() {
        let (cat, q, pool) = setup();
        let opt = Optimizer::new(&cat);
        let (catalog_inum, stats) = collect_inum(&opt, &q, &pool);
        // f has 3 candidates, d has 2 → 3 calls.
        assert_eq!(stats.optimizer_calls, 3);
        // Collected costs agree with the one-call PINUM catalog.
        let (catalog_pinum, _) = collect_pinum(&opt, &q, &pool);
        let sel = Selection::full(pool.len());
        for rel in 0..2u16 {
            for order in [None, Some(0u16), Some(1)] {
                let a = catalog_inum.best(rel, order, &sel);
                let b = catalog_pinum.best(rel, order, &sel);
                match (a, b) {
                    (Some(x), Some(y)) => assert!(
                        (x - y).abs() / x.max(1.0) < 1e-9,
                        "rel {rel} order {order:?}: {x} vs {y}"
                    ),
                    (None, None) => {}
                    other => panic!("rel {rel} order {order:?}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn best_respects_selection() {
        let (cat, q, pool) = setup();
        let opt = Optimizer::new(&cat);
        let (catalog, _) = collect_pinum(&opt, &q, &pool);
        let none = Selection::empty(pool.len());
        let all = Selection::full(pool.len());
        let unordered_none = catalog.best(0, None, &none).unwrap();
        let unordered_all = catalog.best(0, None, &all).unwrap();
        assert!(
            unordered_all <= unordered_none,
            "more indexes can only help"
        );
    }

    #[test]
    fn empty_pool_still_prices_base_paths() {
        let (cat, q, _) = setup();
        let pool = CandidatePool::new();
        let opt = Optimizer::new(&cat);
        let (catalog, stats) = collect_inum(&opt, &q, &pool);
        assert_eq!(stats.optimizer_calls, 1);
        let sel = Selection::empty(0);
        assert!(catalog.best(0, None, &sel).is_some());
    }
}
