//! Golden fingerprints of `Optimizer::optimize`: the exported plan set, the
//! winner, the access costs and the deterministic work counters, folded
//! into one FNV-64 per (workload, option set).
//!
//! The constants in [`GOLDEN`] were generated at the commit *before* the
//! join enumeration was rewritten cost-first and pin that rewrite to
//! byte-identical behaviour: same retained plans, same tie-breaks, same
//! `paths_added` / `paths_rejected` / `paths_displaced`. Only the public
//! API is used, so the file compiles on either side of the change.
//! `PlannerStats::arena_size` and `elapsed` are deliberately not folded:
//! the first counts arena nodes (wrappers included) and legitimately
//! shrinks when less is materialised, the second is a clock.
//!
//! A second test pins `build_cache_pinum`'s one exporting call to the two
//! calls (nested loops off, then on) it replaced, on the same queries. A
//! third pins pricing requests to change nothing else the call returns.

use pinum::advisor::candidates::generate_candidates;
use pinum::catalog::{Catalog, Configuration};
use pinum::core::builder::{build_cache_pinum, covering_configuration, BuilderOptions};
use pinum::core::{CachedPlan, PlanCache};
use pinum::optimizer::{
    AccessSource, ExportedPlan, IndexRef, Optimizer, OptimizerOptions, PlannedQuery, PlannerStats,
    PricingRequest, TemplateArm,
};
use pinum::query::{Query, RelIdx, RelTemplate};
use pinum::workload::star::{StarSchema, StarWorkload};
use pinum::workload::tpch::{tpch_catalog, tpch_q10, tpch_q3, tpch_q5};

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.f64(x);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fold_exports(h: &mut Fnv, exported: &[ExportedPlan]) {
    h.u64(exported.len() as u64);
    for e in exported {
        h.u64(e.ioc.raw());
        h.f64(e.internal);
        h.f64s(&e.coefs);
        h.f64s(&e.probe_coefs);
        h.u64(u64::from(e.uses_nlj));
        h.f64(e.rows);
        h.f64(e.total_at_build);
        h.str(&e.description);
    }
}

fn fold_source(h: &mut Fnv, source: &AccessSource) {
    match source {
        AccessSource::SeqScan => h.u64(0),
        AccessSource::Index(IndexRef::Catalog(id)) => {
            h.u64(1);
            h.str(&format!("{id:?}"));
        }
        AccessSource::Index(IndexRef::Config(i)) => {
            h.u64(2);
            h.u64(*i as u64);
        }
    }
}

fn fold_planned(h: &mut Fnv, p: &PlannedQuery) {
    fold_exports(h, &p.exported);
    h.f64(p.best_cost.startup);
    h.f64(p.best_cost.total);
    h.str(&p.best_export.description);
    h.u64(p.access_costs.len() as u64);
    for a in &p.access_costs {
        h.u64(u64::from(a.rel));
        fold_source(h, &a.source);
        h.u64(a.order.map_or(u64::MAX, u64::from));
        h.f64(a.cost.startup);
        h.f64(a.cost.total);
        h.u64(u64::from(a.index_only));
        h.f64(a.rows);
        h.str(&format!("{:?}", a.probe_spec));
    }
    let PlannerStats {
        paths_added,
        paths_rejected,
        paths_displaced,
        joinrels_planned,
        final_paths,
        ..
    } = p.stats;
    for c in [
        paths_added,
        paths_rejected,
        paths_displaced,
        joinrels_planned,
        final_paths,
    ] {
        h.u64(c as u64);
    }
}

fn fold_arms(arms: &[TemplateArm]) -> u64 {
    let mut h = Fnv::new();
    h.u64(arms.len() as u64);
    for arm in arms {
        fold_source(&mut h, &arm.source);
        h.u64(arm.leading.map_or(u64::MAX, u64::from));
        for cost in [Some(arm.cost_heap), Some(arm.cost_cover), arm.bitmap] {
            match cost {
                Some(c) => h.f64s(&[c.startup, c.total]),
                None => h.u64(u64::MAX),
            }
        }
        h.str(&format!("{:?} {:?}", arm.probe_heap, arm.probe_cover));
    }
    h.0
}

const OPTION_SETS: [&str; 5] = [
    "export",
    "export_no_nlj",
    "export_unpruned_le4",
    "standard_covering",
    "standard_empty",
];

/// One fingerprint per option set over `queries`, in [`OPTION_SETS`] order.
fn fingerprints(catalog: &Catalog, queries: &[Query]) -> [u64; 5] {
    let opt = Optimizer::new(catalog);
    let empty = Configuration::empty();
    let export = OptimizerOptions::pinum_export();
    let option_sets: [(OptimizerOptions, bool, usize); 5] = [
        (export, true, usize::MAX),
        (
            OptimizerOptions {
                enable_nestloop: false,
                ..export
            },
            true,
            usize::MAX,
        ),
        // Without the §V-D sweeps the retained lists explode with width.
        (
            OptimizerOptions {
                pinum_subset_pruning: false,
                ..export
            },
            true,
            4,
        ),
        (OptimizerOptions::standard(), true, usize::MAX),
        (OptimizerOptions::standard(), false, usize::MAX),
    ];
    let mut hashes = [(); 5].map(|_| Fnv::new());
    for q in queries {
        let covering = covering_configuration(catalog, q);
        for (h, (options, on_covering, max_rels)) in hashes.iter_mut().zip(&option_sets) {
            if q.relation_count() > *max_rels {
                continue;
            }
            let config = if *on_covering { &covering } else { &empty };
            h.str(&q.name);
            fold_planned(h, &opt.optimize(q, config, options));
        }
    }
    hashes.map(|h| h.0)
}

/// (workload, fingerprints in [`OPTION_SETS`] order) at the parent commit.
const GOLDEN: [(&str, [u64; 5]); 4] = [
    (
        "star/seed1",
        [
            0x60a30e62db30634f,
            0xd655aaf5df865c8c,
            0x0543a838a5a61b0f,
            0xb21cc13c88d13d85,
            0x222e873f0e43f015,
        ],
    ),
    (
        "star/seed2",
        [
            0xf99ab776f23694ee,
            0x353222b9c5731b2a,
            0x7e7e447fef78a2a4,
            0xbad649022586b845,
            0xad1005d99fb97d4e,
        ],
    ),
    (
        "star/seed3",
        [
            0xf67c1d92bb69a9a3,
            0xea3a84e7d81e066e,
            0xaa00e2133e559e34,
            0xd5e9f20c43e89beb,
            0x520858d782782233,
        ],
    ),
    (
        "tpch/q3_q5_q10",
        [
            0x59eaf8e0fc601007,
            0xa2faf48781e495ce,
            0x9d681fb93936ccbf,
            0xfc152e01e6723f1b,
            0x5e99b71b198cfd88,
        ],
    ),
];

/// The golden's workloads: (name, catalog, queries) in [`GOLDEN`] order.
fn golden_workloads() -> Vec<(&'static str, Catalog, Vec<Query>)> {
    let schema = StarSchema::generate(42, 1.0);
    let mut workloads = Vec::new();
    for (seed, name) in [(1, "star/seed1"), (2, "star/seed2"), (3, "star/seed3")] {
        let queries = StarWorkload::generate(&schema, seed, 24).queries;
        assert_eq!(queries.first().map(Query::relation_count), Some(2));
        assert_eq!(queries.last().map(Query::relation_count), Some(6));
        workloads.push((name, schema.catalog.clone(), queries));
    }
    let tpch = tpch_catalog(1.0);
    let queries = vec![tpch_q3(&tpch), tpch_q5(&tpch), tpch_q10(&tpch)];
    workloads.push(("tpch/q3_q5_q10", tpch, queries));
    workloads
}

#[test]
fn exports_winner_access_costs_and_work_counters_are_bit_identical_to_the_golden() {
    let actual: Vec<(&str, [u64; 5])> = (golden_workloads().iter())
        .map(|(name, catalog, queries)| (*name, fingerprints(catalog, queries)))
        .collect();

    let mut diverged = Vec::new();
    for ((name, got), (gname, want)) in actual.iter().zip(&GOLDEN) {
        assert_eq!(name, gname);
        for (i, set) in OPTION_SETS.iter().enumerate() {
            if got[i] != want[i] {
                diverged.push(format!("{name} × {set}"));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "optimizer output diverged from the golden on {diverged:?}; computed table:\n{}",
        actual
            .iter()
            .map(|(n, f)| format!(
                "    ({n:?}, [{}]),\n",
                f.map(|x| format!("{x:#018x}")).join(", ")
            ))
            .collect::<String>()
    );
}

/// One exporting call with nested loops on yields both plan families: its
/// `exported_nlj_free` is, bit for bit, what a standalone
/// `enable_nestloop: false` call exports, and `build_cache_pinum`'s one
/// call fills the cache the two separate calls filled, in the same order.
#[test]
fn one_exporting_call_reproduces_the_two_calls_it_replaces() {
    for (name, catalog, queries) in golden_workloads() {
        let opt = Optimizer::new(&catalog);
        let export = OptimizerOptions::pinum_export();
        let no_nlj = OptimizerOptions {
            enable_nestloop: false,
            ..export
        };
        for q in &queries {
            let covering = covering_configuration(&catalog, q);
            let fused = opt.optimize(q, &covering, &export);
            let standalone = opt.optimize(q, &covering, &no_nlj);
            assert!(standalone.exported_nlj_free.is_empty());
            let fold = |exported: &[ExportedPlan]| {
                let mut h = Fnv::new();
                fold_exports(&mut h, exported);
                h.0
            };
            assert_eq!(
                fold(&fused.exported_nlj_free),
                fold(&standalone.exported),
                "{name} {}: NLJ-free family",
                q.name
            );

            let mut two_calls = PlanCache::new(&q.name, q.relation_count(), fused.orders.clone());
            for e in standalone.exported.into_iter().chain(fused.exported) {
                two_calls.insert(CachedPlan::from(e));
            }
            let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
            assert_eq!(built.stats.optimizer_calls, 1);
            assert!(built.cache == two_calls, "{name} {}: plan cache", q.name);
        }
    }
}

/// Pricing requests ride on an exporting call without perturbing it. With
/// a request for every relation, carrying the candidate pool's indexes on
/// its table, the call exports the same plans, access costs and work
/// counters as the request-free call, and each answer equals a standalone
/// `price_template` call bit for bit.
#[test]
fn pricing_requests_never_perturb_the_export() {
    for (name, catalog, queries) in golden_workloads() {
        let opt = Optimizer::new(&catalog);
        let pool = generate_candidates(&catalog, &queries);
        let export = OptimizerOptions::pinum_export();
        let no_nlj = OptimizerOptions {
            enable_nestloop: false,
            ..export
        };
        let fold = |p: &PlannedQuery| {
            let mut h = Fnv::new();
            fold_planned(&mut h, p);
            fold_exports(&mut h, &p.exported_nlj_free);
            h.0
        };
        let counters = |s: &PlannerStats| {
            (
                s.paths_added,
                s.paths_rejected,
                s.paths_displaced,
                s.joinrels_planned,
                s.arena_size,
            )
        };
        for q in &queries {
            let covering = covering_configuration(&catalog, q);
            let requests: Vec<PricingRequest> = (0..q.relation_count() as RelIdx)
                .map(|rel| {
                    let on_table = pool.on_table(q.table_of(rel));
                    let indexes = on_table.iter().map(|&i| pool.index(i).clone()).collect();
                    PricingRequest {
                        rel,
                        config: Configuration::new(indexes),
                    }
                })
                .collect();
            for options in [export, no_nlj] {
                let plain = opt.optimize(q, &covering, &options);
                let priced = opt.optimize_with_requests(q, &covering, &options, &requests);
                let what = format!(
                    "{name} {} (nested loops {})",
                    q.name, options.enable_nestloop
                );
                assert_eq!(fold(&plain), fold(&priced), "{what}: export");
                assert_eq!(
                    counters(&plain.stats),
                    counters(&priced.stats),
                    "{what}: work counters"
                );
                assert!(plain.template_arms.is_empty());
                assert_eq!(priced.template_arms.len(), requests.len());
                for (request, arms) in requests.iter().zip(&priced.template_arms) {
                    let template = RelTemplate::of(q, request.rel);
                    let standalone = opt.price_template(&template, &request.config);
                    assert!(arms.len() > 1 || request.config.is_empty());
                    assert_eq!(
                        fold_arms(arms),
                        fold_arms(&standalone),
                        "{what}: arms of relation {}",
                        request.rel
                    );
                }
            }
        }
    }
}
