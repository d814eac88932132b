//! Property-based tests over the core invariants (proptest).

use pinum::catalog::{Catalog, Column, ColumnStats, ColumnType, Index, Table};
use pinum::core::access_costs::collect_pinum;
use pinum::core::builder::{build_cache_pinum, BuilderOptions};
use pinum::core::collector::workload_templates;
use pinum::core::{
    CacheCostModel, CandidatePool, Probe, Selection, WorkloadCollector, WorkloadModel,
};
use pinum::optimizer::{Optimizer, OptimizerOptions};
use pinum::query::{InterestingOrders, Ioc, QueryBuilder};
use proptest::prelude::*;

/// Random interesting-order shapes: per-relation order counts.
fn order_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..4, 1..6)
}

proptest! {
    /// IOC enumeration yields exactly Π(orders+1) distinct combinations.
    #[test]
    fn ioc_enumeration_is_exact(shape in order_shape()) {
        let orders = InterestingOrders::new(
            shape.iter().map(|&n| (0..n as u16).collect()).collect(),
        );
        let all: Vec<Ioc> = orders.combinations().collect();
        let expected: u64 = shape.iter().map(|&n| n as u64 + 1).product();
        prop_assert_eq!(all.len() as u64, expected);
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), all.len());
    }

    /// Subset/union laws of the nibble-packed IOC encoding.
    #[test]
    fn ioc_subset_union_laws(
        a in prop::collection::vec(0u8..4, 4),
        b in prop::collection::vec(0u8..4, 4),
    ) {
        let enc = |v: &[u8]| {
            let mut ioc = Ioc::NONE;
            for (rel, &k) in v.iter().enumerate() {
                if k > 0 {
                    ioc = ioc.with_order(rel as u16, k - 1);
                }
            }
            ioc
        };
        let (x, y) = (enc(&a), enc(&b));
        // Reflexive; NONE is bottom.
        prop_assert!(x.is_subset_of(x));
        prop_assert!(Ioc::NONE.is_subset_of(x));
        // Definition check against the per-relation semantics.
        let subset_naive = a.iter().zip(&b).all(|(&p, &q)| p == 0 || p == q);
        prop_assert_eq!(x.is_subset_of(y), subset_naive);
        // Union agrees with compatibility.
        let compatible = a.iter().zip(&b).all(|(&p, &q)| p == 0 || q == 0 || p == q);
        prop_assert_eq!(x.union(y).is_some(), compatible);
        if let Some(u) = x.union(y) {
            prop_assert!(x.is_subset_of(u));
            prop_assert!(y.is_subset_of(u));
        }
    }

    /// What-if index sizes are monotone in both rows and key width, and
    /// never exceed their materialized twins.
    #[test]
    fn whatif_size_monotonicity(rows in 1_000u64..5_000_000, extra_col in 0usize..2) {
        let table = {
            let mut t = Table::new(
                "t",
                rows,
                vec![
                    Column::new("a", ColumnType::Int8).with_ndv(rows),
                    Column::new("b", ColumnType::Int4).with_ndv(100),
                    Column::new("c", ColumnType::Int4).with_ndv(10),
                ],
            );
            let mut cat = Catalog::new();
            let id = cat.add_table(t.clone());
            t = cat.table(id).clone();
            t
        };
        let narrow = Index::hypothetical(&table, vec![0], false);
        let mut cols = vec![0u16, 1];
        if extra_col > 0 { cols.push(2); }
        let wide = Index::hypothetical(&table, cols.clone(), false);
        prop_assert!(wide.size().leaf_pages >= narrow.size().leaf_pages);
        let mat = Index::materialized(&table, cols, false);
        prop_assert!(mat.size().total_pages() >= wide.size().total_pages());
    }

    /// Selectivity estimates always land in [0, 1] and compose.
    #[test]
    fn selectivity_bounds(lo in 0.0f64..1000.0, width in 0.0f64..2000.0, ndv in 1.0f64..100000.0) {
        let stats = ColumnStats::uniform(0.0, 1000.0, ndv);
        let sel = stats.range_selectivity(lo, lo + width);
        prop_assert!((0.0..=1.0).contains(&sel));
        let eq = stats.eq_selectivity();
        prop_assert!((0.0..=1.0).contains(&eq));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end cache invariant on random two-table schemas: adding
    /// candidates never increases the estimated cost, and the empty-config
    /// estimate approximates a direct optimizer call.
    #[test]
    fn cache_estimates_are_monotone_and_calibrated(
        fact_rows in 50_000u64..400_000,
        dim_rows in 500u64..20_000,
        sel_pct in 1u32..20,
    ) {
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
                Column::new("k", ColumnType::Int8).with_ndv(dim_rows).with_correlation(1.0),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let q = QueryBuilder::new("q", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1, 0, 2], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![1], false),
        ]);
        let opt = Optimizer::new(&cat);
        let built = build_cache_pinum(&opt, &q, &BuilderOptions::default());
        let (access, _) = collect_pinum(&opt, &q, &pool);
        let model = CacheCostModel::new(&built.cache, &access);

        // Monotone in the selection.
        let mut prev = model.estimate(&Selection::empty(pool.len())).unwrap().cost;
        let mut sel = Selection::empty(pool.len());
        for i in 0..pool.len() {
            sel.insert(i);
            let est = model.estimate(&sel).unwrap().cost;
            prop_assert!(est <= prev * (1.0 + 1e-9));
            prev = est;
        }

        // Calibrated at the empty configuration.
        let est = model.estimate(&Selection::empty(pool.len())).unwrap().cost;
        let direct = opt
            .optimize(&q, &pinum::catalog::Configuration::empty(), &OptimizerOptions::standard())
            .best_cost
            .total;
        prop_assert!((est - direct).abs() / direct < 0.10,
            "est {} vs direct {}", est, direct);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The workload model's incremental pricing is exact: on random
    /// two-table workloads, for every base selection and every candidate,
    /// `price_delta` equals a full re-pricing under the extended
    /// selection, and both agree with the per-query `CacheCostModel`;
    /// every drop and swap probe, and random mixed batches of all three,
    /// price to the full re-pricing of the moved selection bit for bit,
    /// with exactly the queries whose cost moved in the changed list.
    #[test]
    fn workload_model_delta_pricing_is_exact(
        fact_rows in 50_000u64..400_000,
        dim_rows in 500u64..20_000,
        sel_pct in 1u32..20,
        sel_masks in prop::collection::vec(0u64..64, 6),
        batch_kinds in prop::collection::vec(0u32..3, 12),
        batch_picks in prop::collection::vec(0u32..64, 24),
    ) {
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
                Column::new("k", ColumnType::Int8).with_ndv(dim_rows).with_correlation(1.0),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let q1 = QueryBuilder::new("q1", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let q2 = QueryBuilder::new("q2", &cat)
            .table("f")
            .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
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
            Index::hypothetical(&d, vec![1, 0], false),
        ]);
        let opt = Optimizer::new(&cat);
        let models: Vec<_> = [&q1, &q2]
            .iter()
            .map(|q| {
                let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
                let (access, _) = collect_pinum(&opt, q, &pool);
                (built.cache, access)
            })
            .collect();
        let wm = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));

        for mask in sel_masks {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);

            // Flattened pricing agrees with the reference model per query.
            let state = wm.price_full(&sel);
            for (q, (cache, access)) in models.iter().enumerate() {
                let reference = CacheCostModel::new(cache, access)
                    .estimate(&sel)
                    .map(|e| e.cost)
                    .unwrap_or(f64::INFINITY);
                prop_assert_eq!(state.per_query()[q], reference,
                    "query {} selection {:?}", q, &ids);
            }

            // Delta pricing equals full re-pricing for every candidate.
            for cand in 0..pool.len() {
                if sel.contains(cand) {
                    continue;
                }
                let delta = wm.price_delta(&state, &sel, cand);
                let full = wm.price_full(&sel.with(cand));
                prop_assert_eq!(delta, full.total(),
                    "selection {:?} + candidate {}", &ids, cand);
            }

            // Removal deltas are exact too: for every selected candidate,
            // a drop probe equals a full re-pricing of the shrunken
            // selection.
            let mut scratch = Vec::new();
            for &cand in &ids {
                let delta = wm.price_probe_into(&state, &sel, Probe::Drop { cand }, &mut scratch);
                let full = wm.price_full(&sel.without(cand));
                prop_assert_eq!(delta.total, full.total(),
                    "selection {:?} - candidate {}", &ids, cand);
            }

            // And swaps (drop one member, add one non-member) match the
            // two-step full re-pricing in a single delta.
            for &drop in &ids {
                for add in 0..pool.len() {
                    if sel.contains(add) {
                        continue;
                    }
                    let delta = wm.price_probe_into(&state, &sel, Probe::Swap { add, drop }, &mut scratch);
                    let full = wm.price_full(&sel.without(drop).with(add));
                    prop_assert_eq!(delta.total, full.total(),
                        "selection {:?} + {} - {}", &ids, add, drop);
                }
            }

            // A random mixed batch over one shared view: every result is
            // the full re-pricing of its moved selection, and the exact
            // changed list is the per-query diff of the two pricings.
            let outside: Vec<usize> = (0..pool.len()).filter(|&c| !sel.contains(c)).collect();
            let probes: Vec<Probe> = batch_kinds
                .iter()
                .zip(batch_picks.chunks(2))
                .filter_map(|(&kind, pick)| {
                    let add = (!outside.is_empty())
                        .then(|| outside[pick[0] as usize % outside.len()]);
                    let drop = (!ids.is_empty()).then(|| ids[pick[1] as usize % ids.len()]);
                    match kind {
                        0 => add.map(|cand| Probe::Add { cand }),
                        1 => drop.map(|cand| Probe::Drop { cand }),
                        _ => add.zip(drop).map(|(add, drop)| Probe::Swap { add, drop }),
                    }
                })
                .collect();
            let batch = wm.price_delta_batch(&state, &sel, &probes, None);
            for (&probe, got) in probes.iter().zip(&batch) {
                let moved = match probe {
                    Probe::Add { cand } => sel.with(cand),
                    Probe::Drop { cand } => sel.without(cand),
                    Probe::Swap { add, drop } => sel.without(drop).with(add),
                };
                let full = wm.price_full(&moved);
                prop_assert_eq!(got.total.to_bits(), full.total().to_bits(),
                    "selection {:?} {:?}", &ids, probe);
                wm.price_probe_into(&state, &sel, probe, &mut scratch);
                let changed: Vec<(u32, u64)> =
                    scratch.iter().map(|&(q, c)| (q, c.to_bits())).collect();
                let diff: Vec<(u32, u64)> = state
                    .per_query()
                    .iter()
                    .zip(full.per_query())
                    .enumerate()
                    .filter(|(_, (b, a))| b.to_bits() != a.to_bits())
                    .map(|(q, (_, a))| (q as u32, a.to_bits()))
                    .collect();
                prop_assert_eq!(changed, diff, "selection {:?} {:?}", &ids, probe);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Workload-level batched collection is exact: on random two-table
    /// workloads whose queries overlap on some templates and diverge on
    /// others, every catalog the grouped `WorkloadCollector` produces is
    /// **bit-identical** to a dedicated per-query `collect_pinum` call,
    /// and the collector spends exactly one optimizer call per distinct
    /// template.
    #[test]
    fn batched_collection_equals_per_query_collection(
        fact_rows in 50_000u64..400_000,
        dim_rows in 500u64..20_000,
        sel_a in 1u32..20,
        sel_b in 1u32..20,
        dim_filter in 0u32..2,
    ) {
        let dim_filtered = dim_filter == 1;
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
                Column::new("k", ColumnType::Int8).with_ndv(dim_rows).with_correlation(1.0),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        // q1/q2 share the `f` template iff sel_a == sel_b; q3 reuses q1's
        // filter under a different join/projection/order shape; q4 brings
        // an optionally-filtered `d` template.
        let q1 = QueryBuilder::new("q1", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0 * sel_a as f64)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let q2 = QueryBuilder::new("q2", &cat)
            .table("f")
            .filter_range(("f", "v"), 0.0, 10.0 * sel_b as f64)
            .select(("f", "s"))
            .order_by(("f", "s"))
            .build();
        let q3 = QueryBuilder::new("q3", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0 * sel_a as f64)
            .select(("d", "w"))
            .order_by(("f", "v"))
            .build();
        let mut q4b = QueryBuilder::new("q4", &cat)
            .table("d")
            .select(("d", "w"))
            .order_by(("d", "k"));
        if dim_filtered {
            q4b = q4b.filter_range(("d", "w"), 0.0, 5.0);
        }
        let q4 = q4b.build();
        let queries = [q1, q2, q3, q4];

        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1, 0, 2], false),
            Index::hypothetical(&f, vec![2], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![1], false),
            Index::hypothetical(&d, vec![1, 0], false),
        ]);
        let opt = Optimizer::new(&cat);
        let mut collector = WorkloadCollector::new();
        let mut batched_calls = 0usize;
        for q in &queries {
            let (batched, stats) = collector.collect(&opt, q, &pool);
            batched_calls += stats.optimizer_calls;
            let (reference, _) = collect_pinum(&opt, q, &pool);
            prop_assert_eq!(&batched, &reference, "{} diverged", &q.name);
        }
        // Exactly one call per distinct template: q3 always hits q1's two
        // templates; q2 shares f iff the filter bounds agree; q4's d
        // template is fresh iff it is filtered.
        let mut expected = 2; // q1: f-filtered + d-bare
        if sel_a != sel_b {
            expected += 1; // q2's distinct f filter
        }
        if dim_filtered {
            expected += 1; // q4's filtered d
        }
        prop_assert_eq!(batched_calls, expected);
        prop_assert_eq!(collector.optimizer_calls(), expected);

        // A primed re-collection of the whole workload is free and still
        // exact.
        let primed = collector.prime_templates(&opt, &workload_templates(&queries), &pool);
        prop_assert_eq!(primed, 0);
        for q in &queries {
            let (again, again_stats) = collector.collect(&opt, q, &pool);
            prop_assert_eq!(again_stats.optimizer_calls, 0);
            let (reference, _) = collect_pinum(&opt, q, &pool);
            prop_assert_eq!(&again, &reference, "{} diverged on re-collection", &q.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming mutations are exact: admitting a query and then evicting
    /// that same query leaves `price_full` **bit-identical** (total and
    /// every live per-query entry) to the model that never saw it, on
    /// random selections — and admitting the whole workload query by
    /// query reproduces the batch `build` exactly.
    #[test]
    fn admit_then_evict_is_bit_identical_to_never_admitted(
        fact_rows in 50_000u64..400_000,
        dim_rows in 500u64..20_000,
        sel_pct in 1u32..20,
        sel_masks in prop::collection::vec(0u64..64, 8),
    ) {
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
                Column::new("k", ColumnType::Int8).with_ndv(dim_rows).with_correlation(1.0),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let q1 = QueryBuilder::new("q1", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let q2 = QueryBuilder::new("q2", &cat)
            .table("f")
            .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
            .select(("f", "s"))
            .order_by(("f", "s"))
            .build();
        // The query that will be admitted and then evicted again.
        let q3 = QueryBuilder::new("q3", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("d", "w"), 0.0, 5.0)
            .select(("d", "w"))
            .order_by(("f", "v"))
            .build();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1, 0, 2], false),
            Index::hypothetical(&f, vec![2], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![1], false),
            Index::hypothetical(&d, vec![1, 0], false),
        ]);
        let opt = Optimizer::new(&cat);
        let build_inputs = |q: &pinum::query::Query| {
            let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&opt, q, &pool);
            (built.cache, access)
        };
        let base_models: Vec<_> = [&q1, &q2].iter().map(|q| build_inputs(q)).collect();
        let (extra_cache, extra_access) = build_inputs(&q3);

        // Incremental admission reproduces the batch build bit for bit.
        let batch = WorkloadModel::build(pool.len(), base_models.iter().map(|(c, a)| (c, a)));
        let mut streamed = WorkloadModel::build(pool.len(), std::iter::empty());
        for (c, a) in &base_models {
            streamed.admit_batch(&[(c, a, 1.0)]);
        }
        prop_assert_eq!(&streamed, &batch, "admit-by-admit diverged from batch build");

        // Admit q3, then evict it again.
        let mut mutated = batch.clone();
        let qid = mutated.admit_batch(&[(&extra_cache, &extra_access, 1.0)]);
        mutated.evict_query(qid);

        for mask in sel_masks {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            let b = batch.price_full(&sel);
            let m = mutated.price_full(&sel);
            prop_assert!(
                b.total() == m.total() || (b.total().is_infinite() && m.total().is_infinite()),
                "selection {:?}: totals diverged {} vs {}", &ids, b.total(), m.total()
            );
            // Live entries bit-identical; the tombstone contributes 0.0.
            prop_assert_eq!(&m.per_query()[..b.per_query().len()], b.per_query());
            prop_assert_eq!(m.per_query()[qid], 0.0);

            // Deltas stay exact on the mutated model too.
            let state = mutated.price_full(&sel);
            for cand in 0..pool.len() {
                if sel.contains(cand) {
                    continue;
                }
                let delta = mutated.price_delta(&state, &sel, cand);
                let full = mutated.price_full(&sel.with(cand));
                prop_assert_eq!(delta, full.total(),
                    "mutated model: selection {:?} + {}", &ids, cand);
            }
        }
    }
}

/// Shared two-query star fixture of the session / scoped-search
/// proptests: random-sized f/d catalog, five hypothetical candidates,
/// per-query PINUM `(plan cache, access catalog)` models.
fn session_fixture(
    fact_rows: u64,
    dim_rows: u64,
    sel_pct: u32,
) -> (
    CandidatePool,
    Vec<(pinum::core::PlanCache, pinum::core::AccessCostCatalog)>,
) {
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
    let q1 = QueryBuilder::new("q1", &cat)
        .table("f")
        .table("d")
        .join(("f", "fk"), ("d", "k"))
        .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
        .select(("f", "s"))
        .order_by(("d", "w"))
        .build();
    let q2 = QueryBuilder::new("q2", &cat)
        .table("f")
        .filter_range(("f", "v"), 0.0, 10.0 * sel_pct as f64)
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
    let models = [&q1, &q2]
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&opt, q, &pool);
            (built.cache, access)
        })
        .collect();
    (pool, models)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A `PricingSession` surviving a randomized admit / evict / reweight /
    /// re-advise / compact sequence stays **bit-identical** to a fresh
    /// `WorkloadModel::build` + `price_full` over the surviving queries at
    /// every step — and, because re-advises carry the session state into
    /// the search and picks are applied as delta splices, the whole
    /// sequence performs **zero** full re-pricings.
    #[test]
    fn pricing_session_survives_randomized_mutation_sequences(
        fact_rows in 50_000u64..400_000,
        dim_rows in 500u64..20_000,
        sel_pct in 1u32..20,
        ops in prop::collection::vec(0u64..1000, 4..28),
    ) {
        use pinum::advisor::search::{LazyGreedy, SearchScope, SearchStrategy};
        use pinum::advisor::greedy::GreedyOptions;
        use pinum::core::PricingSession;

        let (pool, models) = session_fixture(fact_rows, dim_rows, sel_pct);
        let mut session = PricingSession::new(pool.len());
        // Shadow bookkeeping: (model index, weight) of every *live*
        // session slot, in slot order (tombstones = None).
        let mut live: Vec<Option<(usize, f64)>> = Vec::new();
        let gopts = GreedyOptions { budget_bytes: u64::MAX, benefit_per_byte: false };

        for op in ops {
            match op % 5 {
                // Admit one of the two models at a derived weight.
                0 | 1 => {
                    let idx = (op as usize / 5) % models.len();
                    let weight = 1.0 + (op % 7) as f64 * 0.5;
                    let (c, a) = &models[idx];
                    let qid = session.admit_batch(&[(c, a, weight)]);
                    prop_assert_eq!(qid, live.len());
                    live.push(Some((idx, weight)));
                }
                // Evict a live slot, if any.
                2 => {
                    let live_slots: Vec<usize> =
                        (0..live.len()).filter(|&i| live[i].is_some()).collect();
                    if let Some(&qid) = live_slots.get(op as usize % live_slots.len().max(1)) {
                        session.evict_query(qid);
                        live[qid] = None;
                    }
                }
                // Reweight a live slot, if any.
                3 => {
                    let live_slots: Vec<usize> =
                        (0..live.len()).filter(|&i| live[i].is_some()).collect();
                    if let Some(&qid) = live_slots.get(op as usize % live_slots.len().max(1)) {
                        let weight = 0.25 + (op % 11) as f64;
                        session.reweight_query(qid, weight);
                        live[qid].as_mut().unwrap().1 = weight;
                    }
                }
                // Re-advise through the session: warm-started search with
                // the carried state, result installed without re-pricing.
                _ => {
                    let scope = SearchScope::all().with_warm_state(session.state());
                    let result = LazyGreedy.search_scoped(
                        &pool,
                        session.model(),
                        &gopts,
                        session.selection(),
                        &scope,
                    );
                    prop_assert_eq!(result.full_repricings, 0,
                        "warm-stated search fully re-priced");
                    session.install(result.selection, result.final_state, result.full_repricings);
                    // Occasionally compact after a re-advise, remapping
                    // the shadow books the way online consumers do.
                    if op % 2 == 0 {
                        let remap = session.compact();
                        let mut next = vec![None; remap.iter().filter(|&&n| n != u32::MAX).count()];
                        for (old, &new) in remap.iter().enumerate() {
                            if new != u32::MAX {
                                next[new as usize] = live[old];
                            }
                        }
                        live = next;
                    }
                }
            }

            // The invariant, every step: session state ≡ fresh build +
            // price_full over the surviving queries at their weights.
            let survivors: Vec<(usize, f64)> = live.iter().flatten().copied().collect();
            let mut fresh = WorkloadModel::build(
                pool.len(),
                survivors.iter().map(|&(i, _)| (&models[i].0, &models[i].1)),
            );
            // Fresh slots are dense; session slots may hold tombstones in
            // between, contributing exactly 0.0 to the in-order sum.
            for (fresh_slot, (_, w)) in live.iter().flatten().enumerate() {
                if *w != 1.0 {
                    fresh.reweight_query(fresh_slot, *w);
                }
            }
            let full = fresh.price_full(session.selection());
            // The bit-level invariant: the spliced session total equals a
            // from-scratch `price_full` over the session's own model —
            // same leaves (tombstones included), same tree shape, same
            // bits.
            let own = session.model().price_full(session.selection());
            prop_assert_eq!(
                session.total().to_bits(), own.total().to_bits(),
                "spliced session total diverged from its own price_full");
            // Against the *dense* rebuild the tree shape differs (the
            // session's tombstones occupy leaves the fresh build never
            // had), so totals agree only up to summation grouping; the
            // per-query costs below are still bit-identical.
            let close = full.total() == session.total()
                || (full.total().is_infinite() && session.total().is_infinite())
                || (full.total() - session.total()).abs()
                    <= 1e-9 * full.total().abs().max(1.0);
            prop_assert!(
                close,
                "session total diverged from fresh build + price_full: {} vs {}",
                session.total(), full.total());
            let live_costs: Vec<u64> = session
                .state()
                .per_query()
                .iter()
                .zip(&live)
                .filter(|(_, l)| l.is_some())
                .map(|(c, _)| c.to_bits())
                .collect();
            let fresh_costs: Vec<u64> =
                full.per_query().iter().map(|c| c.to_bits()).collect();
            prop_assert_eq!(live_costs, fresh_costs, "per-query states diverged");
        }
        prop_assert_eq!(session.full_repricings(), 0,
            "the whole randomized session should never fully re-price");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `search_scoped` with a full mask is **bit-identical** to
    /// `search_warm` on all four strategies, across random warm seeds and
    /// budgets — scoping is pure restriction, a full scope restricts
    /// nothing.
    #[test]
    fn full_mask_scoped_search_equals_warm_search(
        fact_rows in 50_000u64..400_000,
        dim_rows in 500u64..20_000,
        warm_mask in 0u64..32,
        budget_shift in 0u32..3,
    ) {
        use pinum::advisor::search::{SearchScope, StrategyKind};
        use pinum::advisor::greedy::GreedyOptions;

        let (pool, models) = session_fixture(fact_rows, dim_rows, 1);
        let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));

        let warm_ids: Vec<usize> =
            (0..pool.len()).filter(|i| warm_mask & (1 << i) != 0).collect();
        let warm = Selection::from_ids(pool.len(), &warm_ids);
        let full_mask = Selection::full(pool.len());
        let gopts = GreedyOptions {
            budget_bytes: u64::MAX >> (budget_shift * 20),
            benefit_per_byte: false,
        };

        for kind in [
            StrategyKind::LazyGreedy,
            StrategyKind::EagerGreedy,
            StrategyKind::SwapHillClimb,
            StrategyKind::Anneal { seed: 7 },
        ] {
            let strategy = kind.build();
            let plain = strategy.search_warm(&pool, &model, &gopts, &warm);
            let scoped = strategy.search_scoped(
                &pool,
                &model,
                &gopts,
                &warm,
                &SearchScope {
                    mask: Some(&full_mask),
                    ..SearchScope::all()
                },
            );
            prop_assert_eq!(&plain.picked, &scoped.picked, "{} picks", strategy.name());
            prop_assert_eq!(&plain.selection, &scoped.selection, "{}", strategy.name());
            prop_assert_eq!(
                &plain.cost_trajectory, &scoped.cost_trajectory,
                "{} trajectory", strategy.name()
            );
            prop_assert_eq!(plain.evaluations, scoped.evaluations, "{}", strategy.name());
            prop_assert_eq!(plain.total_bytes, scoped.total_bytes, "{}", strategy.name());
        }
    }
}
