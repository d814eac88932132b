//! `search_sweep`: the four search strategies run cold on prebuilt
//! workload models. The pricing kernel and the search do all timed work;
//! the optimizer's cost shows only in `setup_s`.

use crate::fixtures::{self, Rng, BUDGET_BYTES};
use crate::registry::Values;
use crate::round::{Failures, Fingerprint, RoundCtx, RoundOutcome, Stopwatch};
use crate::stats;
use crate::trace::{time_if, SpanId, Trace, NO_PARENT};
use crate::workloads::{check_priced_cost, fingerprint_search};
use pinum_advisor::greedy::{GreedyOptions, GreedyResult};
use pinum_advisor::search::StrategyKind;
use pinum_core::builder::BuilderOptions;
use pinum_core::collector::build_workload_models;
use pinum_core::{CandidatePool, Selection, WorkloadModel};
use pinum_optimizer::{Optimizer, OptimizerOptions};
use pinum_query::Query;
use std::hint::black_box;
use std::time::Instant;

/// One prebuilt search problem.
struct SweepModel {
    pool: CandidatePool,
    model: WorkloadModel,
    queries: usize,
    /// Optimizer calls spent building it.
    optimizer_calls: usize,
}

/// The budgets every model is searched at: half, once and twice the
/// advisor's default.
const BUDGETS: [u64; 3] = [BUDGET_BYTES / 2, BUDGET_BYTES, BUDGET_BYTES * 2];

/// Span names of the four searches, in the order an op runs them.
const SEARCH_SPANS: [&str; 4] = [
    "advisor.search.lazy",
    "advisor.search.eager",
    "advisor.search.swap",
    "advisor.search.anneal",
];

/// The annealing seed belongs to the population, like the queries: one
/// walk per seed would be a different op per seed.
fn strategies() -> [StrategyKind; 4] {
    [
        StrategyKind::LazyGreedy,
        StrategyKind::EagerGreedy,
        StrategyKind::SwapHillClimb,
        StrategyKind::Anneal {
            seed: fixtures::derive_seed(fixtures::POPULATION_SEED, "anneal", 0),
        },
    ]
}

fn options(budget_bytes: u64) -> GreedyOptions {
    GreedyOptions {
        budget_bytes,
        benefit_per_byte: false,
    }
}

fn fingerprint(results: &[GreedyResult]) -> u64 {
    let mut fp = Fingerprint::new();
    for r in results {
        fingerprint_search(&mut fp, r);
    }
    fp.0
}

/// One op: every strategy, cold, on one model at one budget.
fn sweep(kinds: &[StrategyKind; 4], m: &SweepModel, budget: u64) -> Vec<GreedyResult> {
    kinds
        .iter()
        .map(|kind| kind.build().search(&m.pool, &m.model, &options(budget)))
        .collect()
}

pub fn round(ctx: &mut RoundCtx<'_>) -> RoundOutcome {
    let mut watch = Stopwatch::start();
    let size = *ctx.size;
    let schema = fixtures::schema();
    let optimizer = Optimizer::new(&schema.catalog);
    let kinds = strategies();

    // --- Set-up: build the models through the optimizer. ---
    let mut models: Vec<(SweepModel, Vec<Query>)> = Vec::new();
    for m in 0..size.sweep_models as u64 {
        let (queries, pool) = fixtures::sweep_inputs(&schema, m, &size);
        let built = build_workload_models(&optimizer, &queries, &pool, &BuilderOptions::default());
        let model = time_if(&mut ctx.trace, "core.model_build", || {
            WorkloadModel::build(pool.len(), built.models.iter().map(|(c, a)| (c, a)))
        });
        models.push((
            SweepModel {
                model,
                queries: queries.len(),
                optimizer_calls: built.cache_calls + built.collect_calls,
                pool,
            },
            queries,
        ));
    }
    let distinct: Vec<(usize, u64)> = (0..models.len())
        .flat_map(|m| BUDGETS.iter().map(move |&b| (m, b)))
        .collect();
    let ops: Vec<(usize, u64)> = fixtures::shuffled(ctx.seed, "sweep-order", distinct.len())
        .into_iter()
        .map(|i| distinct[i])
        .collect();
    for (m, _) in &models {
        black_box(sweep(&kinds, m, BUDGET_BYTES));
    }

    // --- Timed phase. ---
    let mut failures = Failures::default();
    let mut results: Vec<Vec<GreedyResult>> = Vec::with_capacity(ops.len());
    let mut op_spans: Vec<SpanId> = Vec::new();
    watch.begin_timed();
    for rep in 0..size.sweep_reps {
        for (k, &(m, budget)) in ops.iter().enumerate() {
            let start = Instant::now();
            let found = sweep(&kinds, &models[m].0, budget);
            let end = Instant::now();
            watch.op(start, end, true);
            if let Some(trace) = ctx.trace.as_deref_mut() {
                let id = trace.record("op", (rep * ops.len() + k) as u32, NO_PARENT, start, end);
                if rep == 0 {
                    op_spans.push(id);
                }
            }
            if rep == 0 {
                results.push(found);
            } else {
                failures.check(fingerprint(&found) == fingerprint(&results[k]), || {
                    format!("op {k}: repeat {rep} searched differently")
                });
            }
        }
    }
    let setup_s = watch.setup_s();
    let timed = watch.finish();

    // --- Verification, outside the timed phase. ---
    let mut pick = Rng::new(fixtures::derive_seed(ctx.seed, "sweep-check", 0));
    let mut fp = Fingerprint::new();
    let (mut ratio_sum, mut searches) = (0.0, 0usize);
    for (k, (&(m, budget), found)) in ops.iter().zip(&results).enumerate() {
        fp.word(fingerprint(found));
        let (fixture, queries) = &models[m];
        for (kind, r) in kinds.iter().zip(found) {
            let (empty_cost, final_cost) = (
                r.cost_trajectory[0],
                *r.cost_trajectory
                    .last()
                    .expect("trajectory starts at the empty cost"),
            );
            ratio_sum += final_cost / empty_cost;
            searches += 1;
            failures.check(
                r.total_bytes <= budget
                    && fixture.pool.selection_bytes(&r.selection) == r.total_bytes,
                || {
                    format!(
                        "op {k} {kind:?}: selection of {} bytes breaks the budget",
                        r.total_bytes
                    )
                },
            );
            failures.check(final_cost <= empty_cost, || {
                format!(
                    "op {k} {kind:?}: final cost {final_cost} above the empty cost {empty_cost}"
                )
            });
        }
        failures.check(found[0].picked == found[1].picked, || {
            format!("op {k}: lazy and eager greedy picked differently")
        });
        // The swap search's selection, priced by the model and by the
        // optimizer itself, on one query of the model.
        let selection = &found[2].selection;
        let (config, _) = fixture.pool.configuration(selection);
        let i = pick.below(queries.len() as u64) as usize;
        let direct = optimizer
            .optimize(&queries[i], &config, &OptimizerOptions::standard())
            .best_cost
            .total;
        let priced = fixture.model.price_query(i, selection, None);
        let what = format!("op {k} {}", queries[i].name);
        check_priced_cost(&mut failures, &what, priced, direct);
    }

    // --- Traced: replay each distinct op, then probe the pricing kernel. ---
    if let Some(trace) = ctx.trace.as_deref_mut() {
        for (k, (&(m, budget), found)) in ops.iter().zip(&results).enumerate() {
            let fixture = &models[m].0;
            let chain = trace.begin("sweep.chain", k as u32, op_spans[k]);
            let replayed: Vec<GreedyResult> = kinds
                .iter()
                .zip(SEARCH_SPANS)
                .map(|(kind, span)| {
                    trace.time(span, k as u32, chain, || {
                        kind.build()
                            .search(&fixture.pool, &fixture.model, &options(budget))
                    })
                })
                .collect();
            trace.end(chain);
            failures.check(fingerprint(&replayed) == fingerprint(found), || {
                format!("op {k}: the replayed searches differ from the timed ones")
            });
            for r in found {
                trace.add("advisor.evaluations", r.evaluations as f64);
            }
            trace.add("advisor.lazy_evaluations", found[0].evaluations as f64);
            trace.add("advisor.eager_evaluations", found[1].evaluations as f64);
        }
        for (fixture, _) in &models {
            probe_kernel(trace, fixture);
        }
    }

    RoundOutcome {
        setup_s,
        timed,
        attempted: ops.len() * size.sweep_reps + models.len(),
        failures,
        optimizer_calls: models.iter().map(|(m, _)| m.optimizer_calls).sum(),
        queries_modelled: models.iter().map(|(m, _)| m.queries).sum(),
        advice_cost_ratio: ratio_sum / searches as f64,
        fingerprint: fp.0,
    }
}

/// Times the two pricing calls every search is made of.
fn probe_kernel(trace: &mut Trace, fixture: &SweepModel) {
    let model = &fixture.model;
    let empty = Selection::empty(fixture.pool.len());
    for _ in 0..20 {
        trace.time("core.price_full", 0, NO_PARENT, || {
            black_box(model.price_full(&empty))
        });
    }
    let state = model.price_full(&empty);
    trace.time("core.price_delta_sweep", 0, NO_PARENT, || {
        for candidate in 0..fixture.pool.len() {
            black_box(model.price_delta(&state, &empty, candidate));
        }
    });
    trace.add("core.price_delta_probes", fixture.pool.len() as f64);
    let arms: usize = (0..model.query_count())
        .map(|q| model.query_arm_count(q))
        .sum();
    trace.add(
        "core.arms_per_query",
        arms as f64 / model.query_count() as f64,
    );
}

/// The per-layer metrics this workload's spans give.
pub fn layer_metrics(trace: &Trace, out: &mut Values) {
    let median_ms = |name: &str| stats::median(&trace.durations_ms(name));
    out.insert("core.model_build_ms", median_ms("core.model_build"));
    out.insert("core.arms_per_query", trace.mean("core.arms_per_query"));
    out.insert("core.price_full_us", median_ms("core.price_full") * 1e3);
    let probes = trace.sum("core.price_delta_probes");
    out.insert(
        "core.price_delta_ns",
        if probes > 0.0 {
            trace.total_ms("core.price_delta_sweep") * 1e6 / probes
        } else {
            0.0
        },
    );
    out.insert("advisor.search.lazy_ms", median_ms(SEARCH_SPANS[0]));
    out.insert("advisor.search.eager_ms", median_ms(SEARCH_SPANS[1]));
    out.insert("advisor.search.swap_ms", median_ms(SEARCH_SPANS[2]));
    out.insert("advisor.search.anneal_ms", median_ms(SEARCH_SPANS[3]));
    out.insert(
        "advisor.evaluations_per_search",
        trace.mean("advisor.evaluations"),
    );
    let eager = trace.sum("advisor.eager_evaluations");
    out.insert(
        "advisor.lazy_probe_fraction",
        if eager > 0.0 {
            trace.sum("advisor.lazy_evaluations") / eager
        } else {
            0.0
        },
    );
}
