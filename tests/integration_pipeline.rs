//! Cross-crate integration tests: optimizer ↔ INUM cache ↔ advisor on the
//! paper's workload (scaled-down statistics, full pipeline).

use pinum::advisor::candidates::generate_candidates;
use pinum::advisor::tool::{advise, AdvisorOptions};
use pinum::catalog::Configuration;
use pinum::core::access_costs::{collect_inum, collect_pinum};
use pinum::core::builder::{build_cache_inum, build_cache_pinum, BuilderOptions};
use pinum::core::{CacheCostModel, Selection};
use pinum::optimizer::{Optimizer, OptimizerOptions};
use pinum::workload::star::{StarSchema, StarWorkload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn fixture() -> (StarSchema, StarWorkload) {
    let schema = StarSchema::generate(42, 0.05);
    let workload = StarWorkload::generate(&schema, 7, 10);
    (schema, workload)
}

/// The headline invariant: a PINUM cache built from one optimizer call
/// prices configurations like a fresh optimizer call would, across random
/// atomic configurations.
#[test]
fn pinum_cache_tracks_the_optimizer() {
    let (schema, workload) = fixture();
    let opt = Optimizer::new(&schema.catalog);
    let pool = generate_candidates(&schema.catalog, &workload.queries);
    let mut rng = StdRng::seed_from_u64(1);
    for q in workload.queries.iter().step_by(3) {
        let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
        assert_eq!(built.stats.optimizer_calls, 1);
        let (access, astats) = collect_pinum(&opt, q, &pool);
        assert_eq!(astats.optimizer_calls, 1);
        let model = CacheCostModel::new(&built.cache, &access);
        let per_rel: Vec<Vec<usize>> = (0..q.relation_count() as u16)
            .map(|rel| pool.on_table(q.table_of(rel)).to_vec())
            .collect();
        for _ in 0..40 {
            let mut ids = Vec::new();
            for c in per_rel.iter().filter(|c| !c.is_empty()) {
                if rng.gen_bool(0.7) {
                    ids.push(*c.choose(&mut rng).unwrap());
                }
            }
            let sel = Selection::from_ids(pool.len(), &ids);
            let est = model.estimate(&sel).expect("cache non-empty").cost;
            let (config, _) = pool.configuration(&sel);
            let direct = opt
                .optimize(q, &config, &OptimizerOptions::standard())
                .best_cost
                .total;
            let err = (est - direct).abs() / direct;
            assert!(
                err < 0.15,
                "{}: cache err {:.1}% (est {est:.0} vs direct {direct:.0})",
                q.name,
                err * 100.0
            );
        }
    }
}

/// Classic INUM (per-IOC calls) and PINUM (one call) must agree on
/// configuration costs — the paper's "without compromising accuracy".
#[test]
fn inum_and_pinum_caches_agree() {
    let (schema, workload) = fixture();
    let opt = Optimizer::new(&schema.catalog);
    let pool = generate_candidates(&schema.catalog, &workload.queries);
    let mut rng = StdRng::seed_from_u64(2);
    for q in workload.queries.iter().take(4) {
        let inum = build_cache_inum(&opt, q, &BuilderOptions::default());
        let pinum = build_cache_pinum(&opt, q, &BuilderOptions::default());
        assert!(pinum.stats.optimizer_calls < inum.stats.optimizer_calls);
        let (access, _) = collect_pinum(&opt, q, &pool);
        let m_inum = CacheCostModel::new(&inum.cache, &access);
        let m_pinum = CacheCostModel::new(&pinum.cache, &access);
        let per_rel: Vec<Vec<usize>> = (0..q.relation_count() as u16)
            .map(|rel| pool.on_table(q.table_of(rel)).to_vec())
            .collect();
        for _ in 0..30 {
            let mut ids = Vec::new();
            for c in per_rel.iter().filter(|c| !c.is_empty()) {
                if rng.gen_bool(0.7) {
                    ids.push(*c.choose(&mut rng).unwrap());
                }
            }
            let sel = Selection::from_ids(pool.len(), &ids);
            let a = m_inum.estimate(&sel).unwrap().cost;
            let b = m_pinum.estimate(&sel).unwrap().cost;
            // The PINUM cache retains at least as many plans, so it can
            // only be equal or cheaper (closer to the optimizer).
            assert!(
                b <= a * 1.0001,
                "{}: PINUM estimate {b:.0} worse than INUM {a:.0}",
                q.name
            );
            assert!(
                (a - b).abs() / a < 0.25,
                "{}: caches diverge: {a:.0} vs {b:.0}",
                q.name
            );
        }
    }
}

/// Access-cost collection parity: the single keep-all call prices every
/// candidate identically to the per-batch INUM procedure.
#[test]
fn access_cost_collection_is_equivalent() {
    let (schema, workload) = fixture();
    let opt = Optimizer::new(&schema.catalog);
    let pool = generate_candidates(&schema.catalog, &workload.queries);
    let q = &workload.queries[6];
    let (a, sa) = collect_pinum(&opt, q, &pool);
    let (b, sb) = collect_inum(&opt, q, &pool);
    assert_eq!(sa.optimizer_calls, 1);
    assert!(sb.optimizer_calls > 1);
    let orders = q.interesting_orders();
    let full = Selection::full(pool.len());
    for rel in 0..q.relation_count() as u16 {
        let mut slots: Vec<Option<u16>> = vec![None];
        slots.extend(orders.orders_of(rel).iter().map(|&c| Some(c)));
        for slot in slots {
            let x = a.best(rel, slot, &full);
            let y = b.best(rel, slot, &full);
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert!((x - y).abs() / x.max(1.0) < 1e-9, "rel {rel} slot {slot:?}")
                }
                (None, None) => {}
                other => panic!("rel {rel} slot {slot:?}: {other:?}"),
            }
        }
    }
}

/// The advisor never exceeds its budget and never worsens a query.
#[test]
fn advisor_budget_and_improvement() {
    let (schema, workload) = fixture();
    let queries = &workload.queries[..6];
    let budget = 64 * 1024 * 1024;
    let pinum = advise(
        &schema.catalog,
        queries,
        &AdvisorOptions {
            budget_bytes: budget,
            ..AdvisorOptions::paper_defaults()
        },
    );
    assert!(pinum.greedy.total_bytes <= budget);
    for o in &pinum.per_query {
        assert!(
            o.final_cost <= o.original_cost * (1.0 + 1e-9),
            "{} worsened",
            o.name
        );
    }
    assert!(pinum.average_improvement() > 0.0);
}

/// With nested loops disabled the optimizer must produce NLJ-free plans,
/// and the exported cache partitions accordingly (paper §V-B) — as must
/// the NLJ-free family an export with nested loops on plans beside them.
#[test]
fn enable_nestloop_contract() {
    let (schema, workload) = fixture();
    let opt = Optimizer::new(&schema.catalog);
    for q in workload.queries.iter().take(5) {
        let opts = OptimizerOptions {
            enable_nestloop: false,
            ..OptimizerOptions::pinum_export()
        };
        let planned = opt.optimize(q, &Configuration::empty(), &opts);
        assert!(!planned.plan.uses_nestloop());
        let covering = pinum::core::builder::covering_configuration(&schema.catalog, q);
        let fused = opt.optimize(q, &covering, &OptimizerOptions::pinum_export());
        assert!(!fused.exported_nlj_free.is_empty());
        for e in planned.exported.iter().chain(&fused.exported_nlj_free) {
            assert!(!e.uses_nlj);
        }
    }
}

/// Disabling the §V-D pruning must not change the winning plan, only the
/// amount of retained work.
#[test]
fn subset_pruning_preserves_winner() {
    let (schema, workload) = fixture();
    let opt = Optimizer::new(&schema.catalog);
    for q in workload.queries.iter().take(5) {
        let covering = pinum::core::builder::covering_configuration(&schema.catalog, q);
        let with = opt.optimize(q, &covering, &OptimizerOptions::pinum_export());
        let without = opt.optimize(
            q,
            &covering,
            &OptimizerOptions {
                pinum_subset_pruning: false,
                ..OptimizerOptions::pinum_export()
            },
        );
        assert!(
            (with.best_cost.total - without.best_cost.total).abs() / with.best_cost.total < 1e-9
        );
        assert!(with.exported.len() <= without.exported.len());
    }
}
