//! # Frozen nested-layout pricing engine
//!
//! The pre-SoA [`WorkloadModel`](crate::WorkloadModel) kernel, preserved
//! verbatim: nested `QueryModel → FlatPlan → Slot → Vec<AccessArm>`
//! vectors walked with `first_applicable`, plus the O(workload)
//! sequential overlay re-sum. It exists for two jobs:
//!
//! * **equivalence oracle** — the SoA kernel must price every query
//!   bit-identically to this engine under every selection (unit tests
//!   here; property tests in `tests/soa_kernel.rs`);
//! * **microbenchmark baseline** — `exp_price_kernel` measures
//!   `price_delta` throughput of the packed kernel against this one.
//!
//! Totals are the one deliberate difference: this engine sums
//! sequentially (a left fold in query order), while the live kernel
//! totals through the fixed-shape pairwise tree. Compare per-query
//! prices bit-for-bit; compare totals via
//! [`pairwise_total`](crate::pairwise_total) over this engine's
//! per-query vector.
//!
//! Weights and streaming mutation are out of scope: the reference prices
//! every query at weight 1.0 and is immutable once built.

use crate::access_costs::AccessCostCatalog;
use crate::cache::PlanCache;
use crate::candidates::Selection;
use crate::workload_model::{
    flatten_models, touched_candidates, validate_candidate, AccessArm, QueryModel, ALWAYS,
};

/// The nested-layout engine. See the module docs.
#[derive(Debug, Clone)]
pub struct ReferenceModel {
    queries: Vec<QueryModel>,
    /// Inverted index: candidate id → sorted query ids whose price can
    /// change when the candidate joins (or leaves) the selection.
    affected: Vec<Vec<u32>>,
    pool_size: usize,
}

impl ReferenceModel {
    /// Flattens per-query `(plan cache, access-cost catalog)` models into
    /// the nested structure — the same flattening pass the live kernel
    /// packs from, so both engines price the same arithmetic.
    pub fn build<'a, I>(pool_size: usize, models: I) -> Self
    where
        I: IntoIterator<Item = (&'a PlanCache, &'a AccessCostCatalog)>,
    {
        let queries = flatten_models(models);
        let mut affected: Vec<Vec<u32>> = vec![Vec::new(); pool_size];
        for (qid, qm) in queries.iter().enumerate() {
            for c in touched_candidates(qm) {
                validate_candidate(c, pool_size);
                affected[c as usize].push(qid as u32);
            }
        }
        Self {
            queries,
            affected,
            pool_size,
        }
    }

    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Query ids whose price can change when `candidate` is added
    /// (ascending).
    pub fn affected(&self, candidate: usize) -> &[u32] {
        &self.affected[candidate]
    }

    /// Prices one query under a virtual selection view (`extra` overlaid
    /// as a member, `without` masked out). `f64::INFINITY` when no cached
    /// plan is applicable.
    pub fn price_query(
        &self,
        query: usize,
        selection: &Selection,
        extra: Option<usize>,
        without: Option<usize>,
    ) -> f64 {
        let mut best = f64::INFINITY;
        for plan in &self.queries[query].plans {
            if let Some(cost) = price_plan(plan, selection, extra, without) {
                if cost < best {
                    best = cost;
                }
            }
        }
        best
    }

    /// Prices the whole workload: per-query costs plus the sequential
    /// (left-fold) total this engine historically produced.
    pub fn price_full(&self, selection: &Selection) -> (Vec<f64>, f64) {
        let per_query: Vec<f64> = (0..self.queries.len())
            .map(|q| self.price_query(q, selection, None, None))
            .collect();
        let total = per_query.iter().sum();
        (per_query, total)
    }

    /// The workload total if `added` joined `selection`, re-pricing only
    /// the affected queries and re-summing **the whole workload** in query
    /// order — the O(n)-per-delta behaviour the sum tree replaced. On
    /// return `changed` holds every re-priced `(query, cost)` pair.
    pub fn price_delta_into(
        &self,
        per_query: &[f64],
        selection: &Selection,
        added: usize,
        changed: &mut Vec<(u32, f64)>,
    ) -> f64 {
        debug_assert_eq!(per_query.len(), self.queries.len(), "stale state");
        changed.clear();
        for &q in &self.affected[added] {
            changed.push((
                q,
                self.price_query(q as usize, selection, Some(added), None),
            ));
        }
        let mut total = 0.0;
        let mut next = changed.iter().copied().peekable();
        for (q, &cost) in per_query.iter().enumerate() {
            total += match next.peek() {
                Some(&(cq, new_cost)) if cq as usize == q => {
                    next.next();
                    new_cost
                }
                _ => cost,
            };
        }
        total
    }
}

/// Prices one flattened plan; `None` when inapplicable under the
/// selection view. The frozen original of the SoA kernel's
/// `price_plan_in`.
fn price_plan(
    plan: &crate::workload_model::FlatPlan,
    selection: &Selection,
    extra: Option<usize>,
    without: Option<usize>,
) -> Option<f64> {
    let mut cost = plan.internal;
    for slot in &plan.slots {
        if slot.coef != 0.0 {
            let access = first_applicable(&slot.standalone, selection, extra, without)?;
            cost += slot.coef * access;
        } else if slot.required
            && first_applicable(&slot.standalone, selection, extra, without).is_none()
        {
            return None;
        }
        if slot.pcoef != 0.0 {
            let probe = first_applicable(&slot.probes, selection, extra, without)?;
            cost += slot.pcoef * probe;
        }
    }
    Some(cost)
}

/// Cheapest live arm: arms are ascending by cost, so the first applicable
/// one wins (same tie-breaking as the sorted `AccessCostCatalog` walk).
/// `extra` is a virtual member, `without` a virtual removal.
fn first_applicable(
    arms: &[AccessArm],
    selection: &Selection,
    extra: Option<usize>,
    without: Option<usize>,
) -> Option<f64> {
    arms.iter()
        .find(|a| {
            if a.candidate == ALWAYS {
                return true;
            }
            let c = a.candidate as usize;
            if without == Some(c) {
                return false;
            }
            extra == Some(c) || selection.contains(c)
        })
        .map(|a| a.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_costs::collect_pinum;
    use crate::builder::{build_cache_pinum, BuilderOptions};
    use crate::candidates::CandidatePool;
    use crate::{pairwise_total, WorkloadModel};
    use pinum_catalog::{Catalog, Column, ColumnType, Index, Table};
    use pinum_optimizer::Optimizer;
    use pinum_query::QueryBuilder;

    /// Small two-query fixture (mirrors the workload_model tests).
    fn fixture() -> (Vec<(PlanCache, AccessCostCatalog)>, CandidatePool) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            300_000,
            vec![
                Column::new("fk", ColumnType::Int8).with_ndv(3_000),
                Column::new("v", ColumnType::Int4).with_ndv(1_000),
                Column::new("s", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "d",
            3_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(3_000),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let q1 = QueryBuilder::new("q1", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let q2 = QueryBuilder::new("q2", &cat)
            .table("f")
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("f", "s"))
            .order_by(("f", "s"))
            .build();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1, 0, 2], false),
            Index::hypothetical(&f, vec![2], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![1], false),
        ]);
        let opt = Optimizer::new(&cat);
        let models = [q1, q2]
            .iter()
            .map(|q| {
                let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
                let (access, _) = collect_pinum(&opt, q, &pool);
                (built.cache, access)
            })
            .collect();
        (models, pool)
    }

    #[test]
    fn soa_kernel_prices_bit_identically_to_reference() {
        let (models, pool) = fixture();
        let soa = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
        let reference = ReferenceModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
        assert_eq!(soa.query_count(), reference.query_count());
        // Exhaustive over all 32 selections, all queries, all three view
        // shapes (plain, +extra, -without).
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            for q in 0..soa.query_count() {
                let a = soa.price_query(q, &sel, None);
                let b = reference.price_query(q, &sel, None, None);
                assert_eq!(a.to_bits(), b.to_bits(), "query {q} selection {ids:?}");
                for cand in 0..pool.len() {
                    let a = soa.price_query(q, &sel.with(cand), None);
                    let b = reference.price_query(q, &sel, Some(cand), None);
                    assert_eq!(a.to_bits(), b.to_bits(), "+{cand} query {q} sel {ids:?}");
                    let a = soa.price_query(q, &sel.without(cand), None);
                    let b = reference.price_query(q, &sel, None, Some(cand));
                    assert_eq!(a.to_bits(), b.to_bits(), "-{cand} query {q} sel {ids:?}");
                }
            }
            // Totals compare through the canonical pairwise shape.
            let full = soa.price_full(&sel);
            let (ref_costs, _) = reference.price_full(&sel);
            assert_eq!(full.per_query(), ref_costs.as_slice());
            assert_eq!(full.total().to_bits(), pairwise_total(&ref_costs).to_bits());
        }
    }

    #[test]
    fn reference_delta_matches_its_own_full_repricing() {
        let (models, pool) = fixture();
        let reference = ReferenceModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
        let mut scratch = Vec::new();
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            let (per_query, _) = reference.price_full(&sel);
            for cand in 0..pool.len() {
                if sel.contains(cand) {
                    continue;
                }
                let delta = reference.price_delta_into(&per_query, &sel, cand, &mut scratch);
                let (_, full) = reference.price_full(&sel.with(cand));
                assert_eq!(delta, full, "selection {ids:?} + {cand}");
            }
        }
    }
}
