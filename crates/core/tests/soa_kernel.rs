//! Property tests for the SoA pricing kernel: randomized workloads put
//! through randomized mutation sequences (admit / evict / reweight /
//! compact / add-delta / drop-delta), asserting after **every** step that
//! the incrementally-spliced [`PricedWorkload`] is bit-identical to a
//! from-scratch `price_full`, that the arm-index prefilter never
//! lets a delta change a query it cannot touch, and that the per-query
//! [`CacheCostModel`] oracle prices every query to the same bits. The
//! slot-floor kernel is checked against the `price_full` diff on
//! hand-built workloads whose arms tie on purpose, with one floor carried
//! through every probe and commit, and a fresh one after every refused
//! commit and every mutation. One-slot workloads walk the floor's winner
//! and runner-up through each case its one tie rule meets: a winner tied
//! with its runner-up, the always arm running up, `±0.0` arms, committed
//! drops of the winner and of the runner-up, a swap that drops the winner
//! and adds an arm equal to the runner-up, and a swap whose drop moves no
//! value while its added zero sits between the winner and the runner-up.

use pinum_catalog::{Catalog, Column, ColumnType, Index, Table};
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{
    pairwise_total, CacheCostModel, CachedPlan, CandidateAccess, CandidatePool, PlanCache,
    PricedWorkload, Probe, Selection, SlotFloor, WorkloadModel,
};
use pinum_cost::scan::IndexScanInput;
use pinum_cost::CostParams;
use pinum_optimizer::Optimizer;
use pinum_query::{InterestingOrders, Ioc, QueryBuilder, RelIdx};
use proptest::prelude::*;
use proptest::TestRng;

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

/// Standalone arm costs: `20.0` twice, so two candidates often gate
/// arms of equal cost; `50.0` also ties a materialized ordered arm.
const TIED_COSTS: [f64; 5] = [10.0, 20.0, 20.0, 30.0, 50.0];

/// One of two probe specs: candidates sharing a spec gate probe arms of
/// equal cost at every loop count.
fn probe_spec(k: usize) -> IndexScanInput {
    IndexScanInput {
        index_leaf_pages: 10 + 90 * k as u64,
        index_height: 1,
        index_rows: 10_000.0,
        heap_pages: 100,
        heap_rows: 10_000.0,
        index_selectivity: 0.01,
        correlation: 0.5,
        ..IndexScanInput::default()
    }
}

/// Hand-built `(plan cache, access catalog)` pairs over a pool of
/// `pool` candidates, drawn from `seed`. Every cost comes from a small
/// set, so arms of different candidates often tie: on a standalone run,
/// on a probe run (shared specs) and against the always-available arms.
fn tied_workload(seed: u64, queries: usize, pool: usize) -> Vec<(PlanCache, AccessCostCatalog)> {
    let mut rng = TestRng::new(seed);
    let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
    (0..queries)
        .map(|i| {
            let n_rels = 1 + pick(3);
            let orders: Vec<Vec<u16>> = (0..n_rels as u16)
                .map(|r| vec![10 * r + 1, 10 * r + 2])
                .collect();
            let per_rel = (0..n_rels)
                .map(|r| {
                    let scan = CandidateAccess {
                        candidate: None,
                        order: None,
                        cost: [40.0, 60.0][pick(2)],
                        probe: None,
                    };
                    let mut entries = vec![scan];
                    if pick(3) == 0 {
                        entries.push(CandidateAccess {
                            candidate: None,
                            order: Some(orders[r][0]),
                            cost: 50.0,
                            probe: Some(probe_spec(pick(2))),
                        });
                    }
                    for _ in 0..2 + pick(4) {
                        let order = [None, Some(orders[r][0]), Some(orders[r][1])][pick(3)];
                        entries.push(CandidateAccess {
                            candidate: Some(pick(pool)),
                            order,
                            cost: TIED_COSTS[pick(TIED_COSTS.len())],
                            probe: order.map(|_| probe_spec(pick(2))),
                        });
                    }
                    // As a collector leaves them: ascending by cost.
                    entries.sort_by(|a, b| a.cost.total_cmp(&b.cost));
                    entries
                })
                .collect();
            let mut cache = PlanCache::new(format!("q{i}"), n_rels, InterestingOrders::new(orders));
            for p in 0..1 + pick(4) {
                let mut ioc = Ioc::NONE;
                let mut coefs = vec![0.0; n_rels];
                let mut probe_coefs = vec![0.0; n_rels];
                for r in 0..n_rels {
                    let order = pick(3);
                    if order > 0 {
                        ioc = ioc.with_order(r as RelIdx, order as u8 - 1);
                        if pick(3) == 0 {
                            probe_coefs[r] = [3.0, 40.0][pick(2)];
                        }
                    }
                    coefs[r] = [0.0, 1.0, 1.0, 2.0][pick(4)];
                }
                cache.insert(CachedPlan {
                    ioc,
                    internal: [0.0, 5.0, 5.0, 10.0][pick(4)],
                    coefs,
                    uses_nlj: probe_coefs.iter().any(|&c| c != 0.0),
                    probe_coefs,
                    rows: 1.0,
                    description: format!("p{p}"),
                });
            }
            (
                cache,
                AccessCostCatalog::from_parts(per_rel, CostParams::default()),
            )
        })
        .collect()
}

/// Every probe a search can send from `selection`: adds, drops, then
/// the drop-major swap neighbourhood (one run of swaps per member).
fn every_probe(selection: &Selection, pool: usize) -> Vec<Probe> {
    let (inside, outside): (Vec<usize>, Vec<usize>) =
        (0..pool).partition(|&c| selection.contains(c));
    let mut probes: Vec<Probe> = outside.iter().map(|&cand| Probe::Add { cand }).collect();
    probes.extend(inside.iter().map(|&cand| Probe::Drop { cand }));
    for &drop in &inside {
        probes.extend(outside.iter().map(|&add| Probe::Swap { add, drop }));
    }
    probes
}

/// The selection `probe` moves `selection` to.
fn probed(selection: &Selection, probe: Probe) -> Selection {
    let (add, drop) = probe.moved();
    let mut out = selection.clone();
    if let Some(drop) = drop {
        out.remove(drop);
    }
    if let Some(add) = add {
        out.insert(add);
    }
    out
}

/// What an exact delta of `probe` must report, from a full re-pricing:
/// the total's bits, the changed list (as bits) and the queries the
/// probe re-prices (its candidates' affected lists, merged).
fn full_diff(
    model: &WorkloadModel,
    state: &PricedWorkload,
    selection: &Selection,
    probe: Probe,
) -> (u64, Vec<(u32, u64)>, Vec<u32>) {
    let full = model.price_full(&probed(selection, probe));
    let changed = (full.per_query().iter().zip(state.per_query()).enumerate())
        .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
        .map(|(q, (a, _))| (q as u32, a.to_bits()))
        .collect();
    let (add, drop) = probe.moved();
    let mut union: Vec<u32> = [add, drop]
        .into_iter()
        .flatten()
        .flat_map(|c| model.affected(c))
        .collect();
    union.sort_unstable();
    union.dedup();
    (full.total().to_bits(), changed, union)
}

fn bits(changed: &[(u32, f64)]) -> Vec<(u32, u64)> {
    changed.iter().map(|&(q, c)| (q, c.to_bits())).collect()
}

/// The live query ids, ascending.
fn live(model: &WorkloadModel) -> Vec<usize> {
    (0..model.query_count())
        .filter(|&q| model.is_live(q))
        .collect()
}

/// One relation under one plan (`internal`, access coefficient 1) whose
/// standalone run holds `arms` — `(candidate, cost)` in scan order —
/// above an always-available scan costing `always`.
fn one_slot(internal: f64, arms: &[(usize, f64)], always: f64) -> (PlanCache, AccessCostCatalog) {
    let mut cache = PlanCache::new("slot", 1, InterestingOrders::new(vec![vec![1]]));
    cache.insert(CachedPlan {
        ioc: Ioc::NONE,
        internal,
        coefs: vec![1.0],
        probe_coefs: vec![0.0],
        uses_nlj: false,
        rows: 1.0,
        description: "scan".into(),
    });
    let arm = |candidate, cost| CandidateAccess {
        candidate,
        order: None,
        cost,
        probe: None,
    };
    let mut entries: Vec<_> = arms.iter().map(|&(c, cost)| arm(Some(c), cost)).collect();
    entries.push(arm(None, always));
    let access = AccessCostCatalog::from_parts(vec![entries], CostParams::default());
    (cache, access)
}

/// Every probe from `selection` prices like its `price_full` diff: all of
/// them in one batch on the carried `floor` (total and `repriced`), each
/// committed on a copy of it and then refused, the copy dropped (total and
/// changed list), and each on a fresh floor.
fn check_every_probe(
    model: &WorkloadModel,
    state: &PricedWorkload,
    selection: &Selection,
    floor: &mut SlotFloor,
) {
    let probes = every_probe(selection, model.pool_size());
    let batch = model.price_batch_on(state, selection, &probes, None, floor);
    let mut changed = Vec::new();
    for (&probe, delta) in probes.iter().zip(&batch) {
        let (total, want, union) = full_diff(model, state, selection, probe);
        let what = format!("{:?} {probe:?}", selection.ids().collect::<Vec<_>>());
        assert_eq!(
            (delta.total.to_bits(), delta.repriced),
            (total, union.len()),
            "batch {what}"
        );
        let refused = &mut floor.clone();
        let carried = model.commit_probe_on(state, selection, probe, refused, &mut changed);
        assert_eq!(
            (carried.total.to_bits(), bits(&changed)),
            (total, want.clone()),
            "refused {what}"
        );
        let mut fresh = SlotFloor::new(model, selection);
        let own = model.commit_probe_on(state, selection, probe, &mut fresh, &mut changed);
        assert_eq!(
            (own.total.to_bits(), bits(&changed)),
            (total, want),
            "fresh {what}"
        );
    }
}

/// Walks `moves` from `selection`, committing each on the carried
/// `floor` (checked against the `price_full` diff) after checking every
/// probe from the selection it leaves, and every probe from the last.
fn walk(
    model: &WorkloadModel,
    state: &mut PricedWorkload,
    selection: &mut Selection,
    floor: &mut SlotFloor,
    moves: &[Probe],
) {
    let mut changed = Vec::new();
    for &probe in moves {
        check_every_probe(model, state, selection, floor);
        let (total, want, _) = full_diff(model, state, selection, probe);
        let delta = model.commit_probe_on(state, selection, probe, floor, &mut changed);
        assert_eq!(
            (delta.total.to_bits(), bits(&changed)),
            (total, want),
            "commit {probe:?}"
        );
        state.apply_changed(&changed);
        *selection = probed(selection, probe);
        assert_state_is_fresh(model, selection, state, 0);
    }
    check_every_probe(model, state, selection, floor);
}

/// Two candidates gate arms of equal cost (10) on one slot above an
/// always-available scan (50). Dropping the selected one that wins must
/// hand the slot to the other, its runner-up, when both are selected, and
/// to the scan when only it is: a drop rule that kept the floor because
/// the dropped arm merely *equals* it would keep pricing the dropped
/// index. Every probe from every selection, one floor per selection
/// carried through all of them, prices like a full re-pricing, and so does
/// each probe on a throwaway floor.
#[test]
fn a_dropped_winner_hands_its_slot_to_its_runner_up() {
    let (cache, access) = one_slot(1.0, &[(0, 10.0), (1, 10.0)], 50.0);
    let model = WorkloadModel::build(2, [(&cache, &access)]);
    for ids in [&[][..], &[0], &[1], &[0, 1]] {
        let selection = Selection::from_ids(2, ids);
        let mut floor = SlotFloor::new(&model, &selection);
        check_every_probe(
            &model,
            &model.price_full(&selection),
            &selection,
            &mut floor,
        );
    }
    let only_zero = Selection::from_ids(2, &[0]);
    let state = model.price_full(&only_zero);
    let drop = [Probe::Drop { cand: 0 }];
    let mut floor = SlotFloor::new(&model, &only_zero);
    let dropped = model.price_batch_on(&state, &only_zero, &drop, None, &mut floor);
    assert_eq!(
        dropped[0].total, 51.0,
        "the dropped index still priced the slot"
    );
}

/// The run 10 (c0), 20 (c1), 20 (c3), 30 (c2), 50 (c4) above a scan of
/// 50: c1 and c3 tie as winner and runner-up, c4 ties the scan (which
/// is scanned first, so it keeps the slot and runs up ahead of c4), and
/// moves commit the winner's drop, the runner-up's drop and adds
/// behind and ahead of both. One floor is carried throughout; a settle
/// that kept a dropped runner-up would hand the slot to it on the next
/// winner drop.
#[test]
fn winner_and_runner_up_follow_every_committed_move() {
    let arms = [(0, 10.0), (1, 20.0), (3, 20.0), (2, 30.0), (4, 50.0)];
    let (cache, access) = one_slot(1.0, &arms, 50.0);
    let model = WorkloadModel::build(5, [(&cache, &access)]);
    let mut selection = Selection::empty(5);
    let mut state = model.price_full(&selection);
    let mut floor = SlotFloor::new(&model, &selection);
    let add = |cand| Probe::Add { cand };
    let drop = |cand| Probe::Drop { cand };
    let moves = [
        add(4),                          // ties the scan: the scan keeps the slot
        add(2),                          // wins; the scan runs up
        add(1),                          // wins; c2 runs up
        add(3),                          // ties the winner, behind it: runs up
        add(0),                          // wins; c1 runs up
        drop(1),                         // the runner-up: c3 runs up
        drop(0),                         // the winner: c3 wins, c2 runs up
        Probe::Swap { add: 1, drop: 3 }, // drops the winner, adds its equal
        drop(2),                         // the runner-up again: the scan runs up
        drop(1),                         // the winner: the scan keeps the slot
    ];
    walk(&model, &mut state, &mut selection, &mut floor, &moves);
    assert_eq!(selection.ids().collect::<Vec<_>>(), [4]);
    assert_eq!(state.total(), 51.0);
}

/// Arms of cost `+0.0` and `−0.0` on one slot under a plan of internal
/// cost `−0.0`, so the sign the scan keeps reaches the query's price: the
/// first zero in scan order wins, however the zeros were selected. An
/// added zero ahead of the winner takes the slot (a placement by cost
/// alone would keep the old sign), and a swap that drops the winner adds
/// a zero equal to its runner-up, ahead of it or behind it.
#[test]
fn signed_zero_arms_keep_the_sign_the_scan_keeps() {
    let arms = [(0, -0.0), (1, 0.0), (2, -0.0), (3, 0.0)];
    let (cache, access) = one_slot(-0.0, &arms, 50.0);
    let model = WorkloadModel::build(4, [(&cache, &access)]);
    let mut selection = Selection::empty(4);
    let mut state = model.price_full(&selection);
    let mut floor = SlotFloor::new(&model, &selection);
    let add = |cand| Probe::Add { cand };
    let swap = |add, drop| Probe::Swap { add, drop };
    let moves = [
        add(3),
        add(1),                  // +0.0 ahead of +0.0: wins
        add(2),                  // −0.0 equal to the winner, behind it: runs up
        add(0),                  // −0.0 ahead of the winner: wins, the sign flips
        Probe::Drop { cand: 1 }, // the runner-up
        Probe::Drop { cand: 0 }, // the winner: c2 wins, c3 runs up
        swap(1, 2), // drops the winner, adds a zero equal to its runner-up, ahead of it
        swap(0, 3), // drops the runner-up, adds a zero ahead of the winner
    ];
    walk(&model, &mut state, &mut selection, &mut floor, &moves);
    assert_eq!(selection.ids().collect::<Vec<_>>(), [0, 1]);
    assert_eq!(state.total().to_bits(), (-0.0f64).to_bits());
}

/// The tie rule's hard case, one swap on one slot: the run `+0.0` (c0),
/// `−0.0` (c1), `+0.0` (c2) with c0 and c2 selected. Swapping c1 in for c0
/// drops the winner, whose runner-up c2 has its bits, so the drop moves no
/// value; the added c1 sits between the two in run order at the
/// opposite-signed zero. The scan keeps c1, so the slot must flip its
/// sign: an added arm is placed against the runner-up the drop promoted,
/// not against the stored winner, behind which c1 falls.
#[test]
fn a_swap_places_its_added_arm_against_the_promoted_runner_up() {
    let arms = [(0, 0.0), (1, -0.0), (2, 0.0)];
    let (cache, access) = one_slot(-0.0, &arms, 50.0);
    let model = WorkloadModel::build(3, [(&cache, &access)]);
    let selection = Selection::from_ids(3, &[0, 2]);
    let state = model.price_full(&selection);
    let probe = Probe::Swap { add: 1, drop: 0 };
    let (total, want, union) = full_diff(&model, &state, &selection, probe);
    assert_eq!(want, [(0, (-0.0f64).to_bits())], "the swap flips the sign");
    let mut floor = SlotFloor::new(&model, &selection);
    let batch = model.price_batch_on(&state, &selection, &[probe], None, &mut floor);
    assert_eq!(
        (batch[0].total.to_bits(), batch[0].repriced),
        (total, union.len())
    );
    let mut changed = Vec::new();
    let delta = model.commit_probe_on(&state, &selection, probe, &mut floor, &mut changed);
    assert_eq!(
        (delta.total.to_bits(), bits(&changed), delta.repriced),
        (total, want, union.len())
    );
    check_every_probe(
        &model,
        &state,
        &selection,
        &mut SlotFloor::new(&model, &selection),
    );
}

/// Restore refuses a slot run that names one candidate twice: the floor
/// kernel's drop rule hands a dropped winner's slot to its runner-up,
/// which such a run could drop along with it.
#[test]
fn a_run_naming_one_candidate_twice_is_refused() {
    let (cache, access) = one_slot(1.0, &[(0, 10.0), (1, 20.0)], 50.0);
    let model = WorkloadModel::build(2, [(&cache, &access)]);
    let good = model.to_parts();
    assert!(WorkloadModel::from_parts(2, good.clone()).is_ok());
    let mut twice = good;
    twice.arm_cands[1] = twice.arm_cands[0];
    assert!(WorkloadModel::from_parts(2, twice).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The floor kernel prices every probe like a full re-pricing —
    /// total, changed list and `repriced` — on tied workloads, with one
    /// floor carried through probes, masked batches (drop-major swap runs
    /// included) and committed moves, and a fresh floor after each
    /// refused commit, admission, eviction, reweight and compaction.
    #[test]
    fn floor_kernel_matches_full_repricing_on_tied_arms(
        seed in 0u64..u64::MAX,
        ops in prop::collection::vec(0u32..8, 20),
        picks in prop::collection::vec(0u32..1024, 20),
    ) {
        const POOL: usize = 8;
        let models = tied_workload(seed, 10, POOL);
        let mut model = WorkloadModel::build(POOL, models.iter().take(6).map(|(c, a)| (c, a)));
        let mut pending = models.iter().skip(6);
        let mut selection = Selection::empty(POOL);
        let mut state = model.price_full(&selection);
        let mut floor = SlotFloor::new(&model, &selection);
        let mut changed = Vec::new();
        for (step, (&op, &pick)) in ops.iter().zip(&picks).enumerate() {
            match op {
                0 => {
                    if let Some((cache, access)) = pending.next() {
                        let w = 1.0 + (pick % 3) as f64;
                        let qid = model.admit_batch(&[(cache, access, w)]);
                        state.extend_query_costs(&[w * model.price_query(qid, &selection, None)]);
                    }
                }
                1 => {
                    let live = live(&model);
                    if live.len() > 1 {
                        let qid = live[pick as usize % live.len()];
                        model.evict_query(qid);
                        state.set_query_cost(qid, 0.0);
                    }
                }
                2 => {
                    let live = live(&model);
                    let qid = live[pick as usize % live.len()];
                    let w = 0.5 + (pick % 5) as f64;
                    model.reweight_query(qid, w);
                    state.set_query_cost(qid, w * model.price_query(qid, &selection, None));
                }
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
                // Every probe: one batch on the floor, unmasked or under
                // a mask drawn from `pick`, then each on a throwaway floor.
                4 | 5 => {
                    let probes = every_probe(&selection, POOL);
                    let mask: Option<Vec<u32>> = (op == 5).then(|| {
                        (0..model.query_count() as u32).filter(|q| (pick >> (q % 10)) & 1 != 0).collect()
                    });
                    let mask = mask.as_deref();
                    let admitted = |q: &u32| mask.is_none_or(|m| m.binary_search(q).is_ok());
                    let got = model.price_batch_on(&state, &selection, &probes, mask, &mut floor);
                    for (&probe, delta) in probes.iter().zip(&got) {
                        let (total, want, union) = full_diff(&model, &state, &selection, probe);
                        let kept: Vec<(u32, f64)> = want
                            .iter()
                            .filter(|(q, _)| admitted(q))
                            .map(|&(q, c)| (q, f64::from_bits(c)))
                            .collect();
                        let total = if mask.is_some() { state.overlaid_total(&kept).to_bits() } else { total };
                        let repriced = union.iter().filter(|q| admitted(q)).count();
                        prop_assert_eq!(
                            (delta.total.to_bits(), delta.repriced),
                            (total, repriced),
                            "step {} batch {:?} mask {:?}", step, probe, mask
                        );
                        let mut fresh = SlotFloor::new(&model, &selection);
                        let one = model.commit_probe_on(&state, &selection, probe, &mut fresh, &mut changed);
                        let (total, want, union) = full_diff(&model, &state, &selection, probe);
                        prop_assert_eq!(
                            (one.total.to_bits(), bits(&changed), one.repriced),
                            (total, want, union.len()),
                            "step {} single {:?}", step, probe
                        );
                    }
                }
                // Commit one move: settled on the carried floor while it is
                // priced, or priced on a throwaway floor with a fresh one
                // carried on from the new selection; or settled on the
                // carried floor and refused, a fresh one carried on from
                // the unchanged selection.
                _ => {
                    let probes = every_probe(&selection, POOL);
                    let probe = probes[pick as usize % probes.len()];
                    let (total, want, _) = full_diff(&model, &state, &selection, probe);
                    let mut fresh = SlotFloor::new(&model, &selection);
                    let on = if pick % 3 == 0 { &mut fresh } else { &mut floor };
                    let delta = model.commit_probe_on(&state, &selection, probe, on, &mut changed);
                    prop_assert_eq!((delta.total.to_bits(), bits(&changed)), (total, want));
                    if pick % 3 != 2 {
                        state.apply_changed(&changed);
                        selection = probed(&selection, probe);
                    }
                    if pick % 3 != 1 {
                        floor = SlotFloor::new(&model, &selection);
                    }
                }
            }
            // A mutation leaves the floor built for the model it changed.
            if op < 4 {
                floor = SlotFloor::new(&model, &selection);
            }
            assert_state_is_fresh(&model, &selection, &state, step);
        }
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
                        let delta = model.commit_probe_on(
                            &state, &selection, Probe::Add { cand }, &mut SlotFloor::new(&model, &selection), &mut scratch,
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
                        let delta = model.commit_probe_on(
                            &state, &selection, Probe::Drop { cand }, &mut SlotFloor::new(&model, &selection), &mut scratch,
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

    /// The arm-index prefilter is sound: a delta's changed list only
    /// ever names queries in `affected(cand)`, and every query the
    /// prefilter skips prices to exactly the same bits with the candidate
    /// present.
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
                let probe = Probe::Add { cand };
                model.commit_probe_on(&state, &selection, probe, &mut SlotFloor::new(&model, &selection), &mut scratch);
                for &(q, _) in &scratch {
                    prop_assert!(
                        model.affected(cand).any(|a| a == q),
                        "delta for candidate {} changed untouched query {}",
                        cand,
                        q
                    );
                }
                let extended = selection.with(cand);
                for q in 0..model.query_count() {
                    if model.affected(cand).any(|a| a == q as u32) {
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
