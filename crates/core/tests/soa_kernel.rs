//! Property tests for the SoA pricing kernel: randomized workloads put
//! through randomized mutation sequences (admit / evict / reweight /
//! compact / add-delta / drop-delta), asserting after **every** step that
//! the incrementally-spliced [`PricedWorkload`] is bit-identical to a
//! from-scratch `price_full`, that the bloom/footprint prefilter never
//! lets a delta change a query it cannot touch, and that the per-query
//! [`CacheCostModel`] oracle prices every query to the same bits.

use pinum_catalog::{Catalog, Column, ColumnType, Index, Table};
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{
    pairwise_total, CacheCostModel, CandidatePool, PlanCache, PricedWorkload, Probe, Selection,
    WorkloadModel,
};
use pinum_optimizer::Optimizer;
use pinum_query::QueryBuilder;
use proptest::prelude::*;

/// A randomized two-table star: the fact/dimension sizes and each query's
/// filter width vary per case, so arm costs, plan shapes, and min-scan
/// winners all differ across samples.
fn random_workload(
    fact_rows: u64,
    dim_rows: u64,
    widths: &[u32],
) -> (CandidatePool, Vec<(PlanCache, AccessCostCatalog)>) {
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "f",
        fact_rows,
        vec![
            Column::new("fk", ColumnType::Int8).with_ndv(dim_rows),
            Column::new("v", ColumnType::Int4).with_ndv(1_000),
            Column::new("s", ColumnType::Int4).with_ndv(100),
        ],
    ));
    cat.add_table(Table::new(
        "d",
        dim_rows,
        vec![
            Column::new("k", ColumnType::Int8)
                .with_ndv(dim_rows)
                .with_correlation(1.0),
            Column::new("w", ColumnType::Int4).with_ndv(50),
        ],
    ));
    let queries: Vec<_> = widths
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let lo = (i as f64) * 3.0;
            let builder = QueryBuilder::new(format!("q{i}"), &cat)
                .table("f")
                .filter_range(("f", "v"), lo, lo + 10.0 * w as f64)
                .select(("f", "s"));
            // Alternate join/no-join and ordering so the per-query plan
            // caches have genuinely different shapes and arm counts.
            if i % 2 == 0 {
                builder
                    .table("d")
                    .join(("f", "fk"), ("d", "k"))
                    .order_by(("d", "w"))
                    .build()
            } else {
                builder.order_by(("f", "s")).build()
            }
        })
        .collect();
    let f = cat.table(cat.table_id("f").unwrap()).clone();
    let d = cat.table(cat.table_id("d").unwrap()).clone();
    let pool = CandidatePool::from_indexes(vec![
        Index::hypothetical(&f, vec![0], false),
        Index::hypothetical(&f, vec![1, 0, 2], false),
        Index::hypothetical(&f, vec![2], false),
        Index::hypothetical(&f, vec![1], false),
        Index::hypothetical(&d, vec![0], false),
        Index::hypothetical(&d, vec![1], false),
        Index::hypothetical(&d, vec![1, 0], false),
    ]);
    let opt = Optimizer::new(&cat);
    let models = queries
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&opt, q, &pool);
            (built.cache, access)
        })
        .collect();
    (pool, models)
}

/// Bit-identity of the spliced state against a from-scratch repricing of
/// the *current* model — the invariant every mutation must preserve.
fn assert_state_is_fresh(
    model: &WorkloadModel,
    selection: &Selection,
    state: &PricedWorkload,
    step: usize,
) {
    let fresh = model.price_full(selection);
    assert_eq!(
        state.total().to_bits(),
        fresh.total().to_bits(),
        "step {}: spliced total diverged from price_full ({} vs {})",
        step,
        state.total(),
        fresh.total()
    );
    for (q, (a, b)) in state.per_query().iter().zip(fresh.per_query()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "step {}: query {} spliced cost diverged ({} vs {})",
            step,
            q,
            a,
            b
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Admit / evict / reweight / compact / add / drop sequences keep the
    /// incrementally-maintained state bit-identical to from-scratch
    /// pricing at every step.
    #[test]
    fn mutation_sequences_stay_bit_identical_to_fresh_pricing(
        fact_rows in 60_000u64..400_000,
        dim_rows in 600u64..20_000,
        widths in prop::collection::vec(1u32..20, 6),
        ops in prop::collection::vec(0u32..6, 24),
        picks in prop::collection::vec(0u32..64, 24),
    ) {
        let (pool, models) = random_workload(fact_rows, dim_rows, &widths);
        // Start with half the workload admitted; the rest arrives via the
        // admit op below.
        let seed_count = models.len() / 2;
        let mut model = WorkloadModel::build(
            pool.len(),
            models.iter().take(seed_count).map(|(c, a)| (c, a)),
        );
        let mut pending = models.iter().skip(seed_count);
        let mut selection = Selection::empty(pool.len());
        let mut state = model.price_full(&selection);

        for (step, (&op, &pick)) in ops.iter().zip(&picks).enumerate() {
            match op {
                // Admit the next pending query and splice its price in.
                0 => {
                    if let Some((cache, access)) = pending.next() {
                        let w = 1.0 + (pick % 4) as f64;
                        let qid = model.admit_batch(&[(cache, access, w)]);
                        state.extend_query_costs(&[w * model.price_query(qid, &selection, None)]);
                    }
                }
                // Evict a live query; its slot prices to exactly 0.
                1 => {
                    let live: Vec<usize> =
                        (0..model.query_count()).filter(|&q| model.is_live(q)).collect();
                    if live.len() > 1 {
                        let qid = live[pick as usize % live.len()];
                        model.evict_query(qid);
                        state.set_query_cost(qid, 0.0);
                    }
                }
                // Reweight a live query and re-splice its scaled price.
                2 => {
                    let live: Vec<usize> =
                        (0..model.query_count()).filter(|&q| model.is_live(q)).collect();
                    if !live.is_empty() {
                        let qid = live[pick as usize % live.len()];
                        let w = 0.5 + (pick % 8) as f64;
                        model.reweight_query(qid, w);
                        state.set_query_cost(qid, w * model.price_query(qid, &selection, None));
                    }
                }
                // Compact: rebuild the dense state from the survivors'
                // unchanged costs via the remap — no repricing allowed.
                3 => {
                    let remap = model.compact();
                    let mut survivors = vec![0.0; model.query_count()];
                    for (old, &new) in remap.iter().enumerate() {
                        if new != u32::MAX {
                            survivors[new as usize] = state.per_query()[old];
                        }
                    }
                    state = PricedWorkload::from_costs(survivors);
                }
                // Grow the selection through an add delta.
                4 => {
                    let outside: Vec<usize> =
                        (0..pool.len()).filter(|&c| !selection.contains(c)).collect();
                    if !outside.is_empty() {
                        let cand = outside[pick as usize % outside.len()];
                        let mut scratch = Vec::new();
                        let delta = model.price_probe_into(
                            &state, &selection, Probe::Add { cand }, &mut scratch,
                        );
                        state.apply_changed(&scratch);
                        prop_assert_eq!(state.total().to_bits(), delta.total.to_bits());
                        selection.insert(cand);
                    }
                }
                // Shrink it through a removal delta.
                _ => {
                    let inside: Vec<usize> = selection.ids().collect();
                    if !inside.is_empty() {
                        let cand = inside[pick as usize % inside.len()];
                        let mut scratch = Vec::new();
                        let delta = model.price_probe_into(
                            &state, &selection, Probe::Drop { cand }, &mut scratch,
                        );
                        state.apply_changed(&scratch);
                        prop_assert_eq!(state.total().to_bits(), delta.total.to_bits());
                        selection = selection.without(cand);
                    }
                }
            }
            assert_state_is_fresh(&model, &selection, &state, step);
        }
    }

    /// The bloom/footprint prefilter is sound: a delta's changed list only
    /// ever names queries whose arms mention the candidate, and every
    /// query the prefilter skips prices to exactly the same bits with the
    /// candidate present.
    #[test]
    fn prefilter_skipped_queries_never_change_cost(
        fact_rows in 60_000u64..400_000,
        dim_rows in 600u64..20_000,
        widths in prop::collection::vec(1u32..20, 5),
        masks in prop::collection::vec(0u64..128, 4),
    ) {
        let (pool, models) = random_workload(fact_rows, dim_rows, &widths);
        let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
        let mut scratch = Vec::new();
        for mask in masks {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let selection = Selection::from_ids(pool.len(), &ids);
            let state = model.price_full(&selection);
            for cand in 0..pool.len() {
                if selection.contains(cand) {
                    continue;
                }
                model.price_probe_into(&state, &selection, Probe::Add { cand }, &mut scratch);
                for &(q, _) in &scratch {
                    prop_assert!(
                        model.query_touches(q as usize, cand),
                        "delta for candidate {} changed untouched query {}",
                        cand,
                        q
                    );
                }
                let extended = selection.with(cand);
                for q in 0..model.query_count() {
                    if model.query_touches(q, cand) {
                        continue;
                    }
                    let before = model.price_query(q, &selection, None);
                    let after = model.price_query(q, &extended, None);
                    prop_assert_eq!(
                        before.to_bits(),
                        after.to_bits(),
                        "prefilter-skipped query {} moved under candidate {}",
                        q,
                        cand
                    );
                }
            }
        }
    }

    /// `CacheCostModel::estimate`, reading each plan cache and access
    /// catalog directly, prices every query to the same bits as the SoA
    /// kernel, and the kernel's tree total is exactly the canonical
    /// pairwise shape over its per-query costs.
    #[test]
    fn reference_model_agrees_on_random_workloads(
        fact_rows in 60_000u64..400_000,
        dim_rows in 600u64..20_000,
        widths in prop::collection::vec(1u32..20, 4),
        masks in prop::collection::vec(0u64..128, 6),
    ) {
        let (pool, models) = random_workload(fact_rows, dim_rows, &widths);
        let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
        for mask in masks {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let selection = Selection::from_ids(pool.len(), &ids);
            let state = model.price_full(&selection);
            let ref_costs = models.iter().map(|(cache, access)| {
                CacheCostModel::new(cache, access)
                    .estimate(&selection)
                    .map_or(f64::INFINITY, |e| e.cost)
            });
            for (q, (a, b)) in state.per_query().iter().zip(ref_costs).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "query {} diverged between kernels ({} vs {})",
                    q,
                    a,
                    b
                );
            }
            prop_assert_eq!(
                state.total().to_bits(),
                pairwise_total(state.per_query()).to_bits()
            );
        }
    }
}
