//! `offline_advise`: the paper's path. One op is a whole `advise()` call on
//! a small fresh star workload; the optimizer and plan-cache building do
//! nearly all of the work.

use crate::fixtures::{self, Rng};
use crate::registry::Values;
use crate::round::{Failures, Fingerprint, RoundCtx, RoundOutcome, Stopwatch};
use crate::stats;
use crate::trace::{time_if, SpanId, Trace, NO_PARENT};
use crate::workloads::{check_priced_cost, fingerprint_search};
use pinum_advisor::candidates::{generate_candidates, merge_prefix_subsumed};
use pinum_advisor::greedy::{GreedyOptions, GreedyResult};
use pinum_advisor::tool::{advise, Advice, AdvisorOptions};
use pinum_catalog::Catalog;
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, covering_configuration, BuilderOptions};
use pinum_core::collector::workload_templates;
use pinum_core::{PlanCache, Selection, WorkloadCollector, WorkloadModel};
use pinum_optimizer::{Optimizer, OptimizerOptions};
use pinum_query::Query;
use std::hint::black_box;
use std::time::Instant;

fn fingerprint(greedy: &GreedyResult) -> u64 {
    let mut fp = Fingerprint::new();
    fingerprint_search(&mut fp, greedy);
    fp.0
}

pub fn round(ctx: &mut RoundCtx<'_>) -> RoundOutcome {
    let mut watch = Stopwatch::start();
    let size = *ctx.size;
    let schema = fixtures::schema();
    let catalog = &schema.catalog;
    let mut sets = fixtures::advise_sets(&schema, &size);
    let warm_sets = sets.split_off(size.advise_sets);
    let order = fixtures::shuffled(ctx.seed, "advise-order", sets.len());
    let options = AdvisorOptions::default();
    for set in &warm_sets {
        black_box(advise(catalog, set, &options));
    }

    let mut failures = Failures::default();
    let mut advices: Vec<Option<Advice>> = sets.iter().map(|_| None).collect();
    let mut op_spans: Vec<SpanId> = vec![NO_PARENT; sets.len()];
    let (mut calls, mut queries) = (0usize, 0usize);
    watch.begin_timed();
    for rep in 0..size.advise_reps {
        for (i, &k) in order.iter().enumerate() {
            let set = &sets[k];
            let start = Instant::now();
            let advice = advise(catalog, set, &options);
            let end = Instant::now();
            watch.op(start, end, true);
            calls += advice.model_build_calls;
            queries += set.len();
            if let Some(trace) = ctx.trace.as_deref_mut() {
                let op_id = (rep * sets.len() + i) as u32;
                let id = trace.record("op", op_id, NO_PARENT, start, end);
                if rep == 0 {
                    op_spans[k] = id;
                }
            }
            match &advices[k] {
                None => advices[k] = Some(advice),
                Some(first) => failures.check(
                    fingerprint(&advice.greedy) == fingerprint(&first.greedy),
                    || format!("set {k}: repeat {rep} advised differently"),
                ),
            }
        }
    }
    let setup_s = watch.setup_s();
    let timed = watch.finish();
    let advices: Vec<Advice> = advices.into_iter().flatten().collect();

    // --- Verification, outside the timed phase. ---
    let optimizer = Optimizer::new(catalog);
    let mut pick = Rng::new(fixtures::derive_seed(ctx.seed, "advise-check", 0));
    let mut ratio_sum = 0.0;
    let mut fp = Fingerprint::new();
    for (k, (set, advice)) in sets.iter().zip(&advices).enumerate() {
        fingerprint_search(&mut fp, &advice.greedy);
        let greedy = &advice.greedy;
        let (empty_cost, final_cost) = (
            greedy.cost_trajectory[0],
            *greedy
                .cost_trajectory
                .last()
                .expect("trajectory starts at the empty cost"),
        );
        ratio_sum += final_cost / empty_cost;
        failures.check(
            greedy.total_bytes <= options.budget_bytes
                && advice.pool.selection_bytes(&greedy.selection) == greedy.total_bytes,
            || {
                format!(
                    "set {k}: selection of {} bytes breaks the budget",
                    greedy.total_bytes
                )
            },
        );
        failures.check(final_cost <= empty_cost, || {
            format!("set {k}: final cost {final_cost} above the empty cost {empty_cost}")
        });
        let (config, _) = advice.pool.configuration(&greedy.selection);
        for _ in 0..size.advise_checked {
            let i = pick.below(set.len() as u64) as usize;
            let query = &set[i];
            let direct = time_if(&mut ctx.trace, "optimizer.optimize", || {
                optimizer
                    .optimize(query, &config, &OptimizerOptions::standard())
                    .best_cost
                    .total
            });
            let what = format!("set {k} {}", query.name);
            check_priced_cost(&mut failures, &what, advice.per_query[i].final_cost, direct);
            if let Some(trace) = ctx.trace.as_deref_mut() {
                // The exporting call `build_cache_pinum` makes twice per
                // query, timed on its own.
                let covering = covering_configuration(catalog, query);
                let planned = trace.time("optimizer.export", 0, NO_PARENT, || {
                    optimizer.optimize(query, &covering, &OptimizerOptions::pinum_export())
                });
                trace.add("optimizer.exported_plans", planned.exported.len() as f64);
            }
        }
    }

    // --- Traced: replay each distinct op's chain of public calls. ---
    if let Some(trace) = ctx.trace.as_deref_mut() {
        for (k, (set, advice)) in sets.iter().zip(&advices).enumerate() {
            let replayed = replay_advise(trace, k as u32, op_spans[k], catalog, set, &options);
            failures.check(replayed == fingerprint(&advice.greedy), || {
                format!("set {k}: the replayed chain advised differently from advise()")
            });
        }
    }

    RoundOutcome {
        setup_s,
        timed,
        attempted: sets.len() * size.advise_reps + warm_sets.len(),
        failures,
        optimizer_calls: calls,
        queries_modelled: queries,
        advice_cost_ratio: ratio_sum / sets.len() as f64,
        fingerprint: fp.0,
    }
}

/// `advise()` again, call by public call, each under its own span. Mirrors
/// `pinum_advisor::tool::advise` with the PINUM oracle and
/// `pinum_core::collector::build_workload_models`; the fingerprint of what
/// it computes must equal the real op's.
fn replay_advise(
    trace: &mut Trace,
    op: u32,
    parent: SpanId,
    catalog: &Catalog,
    queries: &[Query],
    options: &AdvisorOptions,
) -> u64 {
    let chain = trace.begin("advise.chain", op, parent);
    let optimizer = Optimizer::new(catalog);
    let generated = trace.time("advisor.generate_candidates", op, chain, || {
        generate_candidates(catalog, queries)
    });
    let (pool, merged) = trace.time("advisor.merge_prefix_subsumed", op, chain, || {
        merge_prefix_subsumed(&generated)
    });
    trace.add("advisor.candidates", pool.len() as f64);
    trace.add("advisor.candidates_merged", merged as f64);

    let templates = workload_templates(queries);
    let accesses: Vec<AccessCostCatalog> = if templates.len() < queries.len() {
        let mut collector = WorkloadCollector::new();
        trace.time("core.prime_templates", op, chain, || {
            collector.prime_templates(&optimizer, &templates, &pool)
        });
        let accesses = queries
            .iter()
            .map(|q| {
                trace.time("core.collect", op, chain, || {
                    collector.collect(&optimizer, q, &pool).0
                })
            })
            .collect();
        trace.add("core.template_calls", collector.optimizer_calls() as f64);
        trace.add("core.template_hits", collector.template_hits() as f64);
        accesses
    } else {
        queries
            .iter()
            .map(|q| {
                trace.time("core.collect", op, chain, || {
                    collect_pinum(&optimizer, q, &pool).0
                })
            })
            .collect()
    };
    let caches: Vec<PlanCache> = queries
        .iter()
        .map(|q| {
            let built = trace.time("core.build_cache_pinum", op, chain, || {
                build_cache_pinum(&optimizer, q, &BuilderOptions::default())
            });
            trace.add("core.plans_per_cache", built.cache.len() as f64);
            built.cache
        })
        .collect();
    let model = trace.time("core.model_build", op, chain, || {
        WorkloadModel::build(pool.len(), caches.iter().zip(&accesses))
    });
    let greedy = trace.time("advisor.search", op, chain, || {
        options.strategy.build().search(
            &pool,
            &model,
            &GreedyOptions {
                budget_bytes: options.budget_bytes,
                benefit_per_byte: options.benefit_per_byte,
            },
        )
    });
    trace.time("advise.outcomes", op, chain, || {
        let empty = Selection::empty(pool.len());
        for i in 0..queries.len() {
            black_box(model.price_query(i, &empty, None));
            black_box(model.price_query(i, &greedy.selection, None));
        }
    });
    trace.end(chain);

    fingerprint(&greedy)
}

/// The per-layer metrics this workload's spans give.
pub fn layer_metrics(trace: &Trace, out: &mut Values) {
    let median_ms = |name: &str| stats::median(&trace.durations_ms(name));
    out.insert("optimizer.call_ms", median_ms("optimizer.optimize"));
    out.insert("optimizer.export_call_ms", median_ms("optimizer.export"));
    out.insert(
        "optimizer.exported_plans_per_call",
        trace.mean("optimizer.exported_plans"),
    );
    out.insert(
        "core.cache_build_ms_per_query",
        stats::mean(&trace.durations_ms("core.build_cache_pinum")),
    );
    let collected = trace.span_count("core.collect").max(1) as f64;
    out.insert(
        "core.collect_ms_per_query",
        (trace.total_ms("core.prime_templates") + trace.total_ms("core.collect")) / collected,
    );
    let (hits, calls) = (
        trace.sum("core.template_hits"),
        trace.sum("core.template_calls"),
    );
    out.insert(
        "core.template_hit_rate",
        if hits + calls > 0.0 {
            hits / (hits + calls)
        } else {
            0.0
        },
    );
    out.insert("core.plans_per_cache", trace.mean("core.plans_per_cache"));
    let chains = trace.span_count("advise.chain").max(1) as f64;
    out.insert(
        "advisor.candidate_gen_ms",
        (trace.total_ms("advisor.generate_candidates")
            + trace.total_ms("advisor.merge_prefix_subsumed"))
            / chains,
    );
    out.insert("advisor.candidates", trace.mean("advisor.candidates"));
    out.insert(
        "advisor.candidates_merged",
        trace.mean("advisor.candidates_merged"),
    );
    let chain_ms = trace.total_ms("advise.chain");
    out.insert(
        "advisor.search_share_of_advise",
        if chain_ms > 0.0 {
            trace.total_ms("advisor.search") / chain_ms
        } else {
            0.0
        },
    );
}
