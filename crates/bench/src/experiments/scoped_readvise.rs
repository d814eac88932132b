//! A7 — persistent pricing sessions + template-scoped re-advising on a
//! reweight-heavy drift stream.
//!
//! The tentpole claims of the session refactor, gated in release mode:
//!
//! * **zero full re-pricings in steady state** — the online daemon's
//!   re-advises are warm-started from the session's spliced
//!   [`PricedWorkload`](pinum_core::PricedWorkload) and apply picks as
//!   delta splices, so once past the first phase no re-advise performs a
//!   single `price_full` ([`ReadviseReport::full_repricings`] sums to 0);
//! * **scoped quality within 1 %** — when drift fires and per-template
//!   attribution localizes it, the search probes only candidates that can
//!   affect the regressed templates; the final selection's priced cost
//!   stays within 1 % of a full-scope twin replaying the identical event
//!   stream;
//! * **measured probe reduction** — the scoped pass spends measurably
//!   fewer search evaluations than the full-scope pass (tracked in the
//!   trend baseline as `scoped_probe_fraction`).
//!
//! The stream interleaves in-place [`DriftEvent::Reweight`] events (the
//! same query getting hotter — `pinum_workload::drift::DriftEventStream`)
//! with the phased admissions, closing the ROADMAP item on feeding
//! reweight drift through the online advisor. Both passes replay the
//! *identical* event sequence; the only difference is
//! `OnlineAdvisorOptions::scoped_readvise`.

use crate::fixtures::SCHEMA_SEED;
use crate::json::{emit, json_array, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::search::StrategyKind;
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::{
    query_templates, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions, ReadviseReport,
    ReadviseTrigger,
};
use pinum_optimizer::Optimizer;
use pinum_query::TemplateKey;
use pinum_workload::drift::{DriftEvent, DriftEventStream, DriftProfile, ReweightProfile};
use pinum_workload::star::StarSchema;
use std::time::Instant;

/// Stream shape: 4 phases × 60 admissions, plus ~25 % reweight events.
pub const PHASES: usize = 4;
pub const PHASE_LENGTH: usize = 60;

/// Sliding-window capacity of the online advisor.
pub const WINDOW: usize = 60;

/// Admissions per epoch.
pub const EPOCH: usize = 30;

/// Early re-advise when the window mean regresses 15 % over baseline.
pub const DRIFT_THRESHOLD: f64 = 0.15;

/// Per-template regression that marks a template regressed for scoping.
pub const ATTRIBUTION_THRESHOLD: f64 = 0.1;

/// Candidate pool cap (pool generated over the whole stream).
pub const CANDIDATE_CAP: usize = 300;

/// Drift stream seed.
pub const DRIFT_SEED: u64 = 0x5C0D;

/// Reweight drift riding on the stream.
pub const REWEIGHTS: ReweightProfile = ReweightProfile {
    rate: 0.25,
    factor: 1.4,
    lookback: 30,
};

/// One pass's aggregate outcome.
pub struct Pass {
    /// (admissions at trigger time, report) per re-advise, stream order.
    pub reports: Vec<(usize, ReadviseReport)>,
    /// Forced final re-advise (full scope in both passes).
    pub final_report: ReadviseReport,
    /// Exact priced cost of the final selection over the final window.
    pub final_cost: f64,
    pub stats: pinum_online::OnlineStats,
}

impl Pass {
    /// Search evaluations across every re-advise (incl. the final one).
    pub fn total_evaluations(&self) -> usize {
        self.reports
            .iter()
            .map(|(_, r)| r.evaluations)
            .sum::<usize>()
            + self.final_report.evaluations
    }

    /// Full re-pricings across steady-state re-advises (past phase 0).
    pub fn steady_full_repricings(&self) -> usize {
        self.reports
            .iter()
            .filter(|(admitted, _)| *admitted >= PHASE_LENGTH)
            .map(|(_, r)| r.full_repricings)
            .sum()
    }
}

pub struct ScopedReadviseOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub events: usize,
    pub scoped: Pass,
    pub full: Pass,
    pub quality_ratio: f64,
    pub scoped_probe_fraction: f64,
}

fn trigger_name(t: ReadviseTrigger) -> &'static str {
    match t {
        ReadviseTrigger::Epoch => "epoch",
        ReadviseTrigger::Drift => "drift",
        ReadviseTrigger::Forced => "forced",
    }
}

#[allow(clippy::type_complexity)]
fn run_pass(
    pool: &CandidatePool,
    models: &[(PlanCache, AccessCostCatalog)],
    weights: &[f64],
    templates: &[Vec<TemplateKey>],
    events: &[DriftEvent],
    budget: u64,
    scoped: bool,
) -> Pass {
    let mut advisor = OnlineAdvisor::new(
        pool.clone(),
        OnlineAdvisorOptions {
            window_capacity: WINDOW,
            epoch_length: EPOCH,
            drift_threshold: DRIFT_THRESHOLD,
            strategy: StrategyKind::SwapHillClimb,
            budget_bytes: budget,
            scoped_readvise: scoped,
            attribution_threshold: ATTRIBUTION_THRESHOLD,
        },
    );
    let mut reports = Vec::new();
    let mut admitted = 0usize;
    for event in events {
        let readvise = match event {
            DriftEvent::Admit(_) => {
                let (cache, access) = &models[admitted];
                let adm = advisor.apply(
                    AdmissionSpec::new(cache, access)
                        .weight(weights[admitted])
                        .templates(&templates[admitted]),
                );
                admitted += 1;
                adm.readvise
            }
            DriftEvent::Reweight { admission, weight } => {
                advisor.reweight(*admission, *weight, false).readvise
            }
        };
        if let Some(report) = readvise {
            reports.push((admitted, report));
        }
    }
    // Flush with a forced (full-scope in both passes) final round so the
    // quality comparison sees each pass's settled selection.
    let final_report = advisor.readvise();
    Pass {
        reports,
        final_report,
        final_cost: advisor.current_cost(),
        stats: advisor.stats().clone(),
    }
}

pub fn run(scale: f64) -> ScopedReadviseOutcome {
    println!(
        "A7: persistent sessions + scoped re-advising — {PHASES} phases × {PHASE_LENGTH} \
         admissions, reweight rate {:.2} ×{:.2}, window {WINDOW}, epoch {EPOCH}, drift \
         threshold {DRIFT_THRESHOLD}, attribution threshold {ATTRIBUTION_THRESHOLD}, schema \
         seed {SCHEMA_SEED:#x}, drift seed {DRIFT_SEED:#x}\n",
        REWEIGHTS.rate, REWEIGHTS.factor
    );
    let build_start = Instant::now();
    let schema = StarSchema::generate(SCHEMA_SEED, scale);
    let profile = DriftProfile {
        phases: PHASES,
        phase_length: PHASE_LENGTH,
        edge_window: 4,
        churn: 0.05,
        growth_per_phase: 1.3,
    };
    let events: Vec<DriftEvent> =
        DriftEventStream::new(&schema, DRIFT_SEED, profile, REWEIGHTS).collect();
    let queries: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            DriftEvent::Admit(dq) => Some(dq.query.clone()),
            DriftEvent::Reweight { .. } => None,
        })
        .collect();
    let weights: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            DriftEvent::Admit(dq) => Some(dq.weight),
            DriftEvent::Reweight { .. } => None,
        })
        .collect();
    let reweight_events = events.len() - queries.len();
    let full_pool = generate_candidates(&schema.catalog, &queries);
    let pool = if full_pool.len() > CANDIDATE_CAP {
        CandidatePool::from_indexes(full_pool.indexes()[..CANDIDATE_CAP].to_vec())
    } else {
        full_pool
    };
    let optimizer = Optimizer::new(&schema.catalog);
    let models: Vec<(PlanCache, AccessCostCatalog)> = queries
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&optimizer, q, &pool);
            (built.cache, access)
        })
        .collect();
    let templates: Vec<Vec<TemplateKey>> = queries.iter().map(query_templates).collect();
    println!(
        "built {} per-query PINUM models over {} candidates in {} \
         ({reweight_events} reweight events ride the stream)",
        models.len(),
        pool.len(),
        fmt_duration(build_start.elapsed())
    );

    let budget = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64;
    let scoped = run_pass(&pool, &models, &weights, &templates, &events, budget, true);
    let full = run_pass(&pool, &models, &weights, &templates, &events, budget, false);

    // --- Report. ---
    let mut table = TextTable::new(vec![
        "pass",
        "re-advises",
        "drift",
        "scoped",
        "probes",
        "steady full reprices",
        "final cost",
        "last re-advise",
        "re-advise wall",
    ]);
    for (name, pass) in [("scoped", &scoped), ("full-scope", &full)] {
        table.row(vec![
            name.to_string(),
            (pass.reports.len() + 1).to_string(),
            pass.stats.drift_readvises.to_string(),
            pass.stats.scoped_readvises.to_string(),
            pass.total_evaluations().to_string(),
            pass.steady_full_repricings().to_string(),
            format!("{:.0}", pass.final_cost),
            fmt_duration(pass.stats.last_readvise_wall),
            fmt_duration(pass.stats.readvise_wall),
        ]);
    }
    println!("{}", table.render());

    let mut detail = TextTable::new(vec![
        "admitted",
        "trigger",
        "scope",
        "probes",
        "full reprices",
        "cost after",
    ]);
    for (admitted, r) in scoped
        .reports
        .iter()
        .map(|(a, r)| (*a, r))
        .chain(std::iter::once((queries.len(), &scoped.final_report)))
    {
        detail.row(vec![
            admitted.to_string(),
            trigger_name(r.trigger).to_string(),
            if r.scoped {
                format!("{}/{}", r.scope_candidates, pool.len())
            } else {
                "all".to_string()
            },
            r.evaluations.to_string(),
            r.full_repricings.to_string(),
            format!("{:.0}", r.cost_after),
        ]);
    }
    println!("scoped pass re-advises:\n{}", detail.render());

    let quality_ratio = scoped.final_cost / full.final_cost;
    let scoped_probe_fraction =
        scoped.total_evaluations() as f64 / full.total_evaluations().max(1) as f64;
    println!(
        "quality ratio scoped/full {quality_ratio:.4} (acceptance: ≤ 1.01); probe fraction \
         {scoped_probe_fraction:.4} (acceptance: < 1); steady-state full re-pricings: {} \
         (acceptance: 0); reweights applied {} (missed {})\n",
        scoped.steady_full_repricings(),
        scoped.stats.reweights,
        scoped.stats.reweight_misses,
    );

    emit(
        "scoped_readvise",
        &JsonObject::new()
            .int("queries", models.len() as u64)
            .int("candidates", pool.len() as u64)
            .int("events", events.len() as u64)
            .int("reweight_events", reweight_events as u64)
            .num("scale", scale)
            .int("budget_bytes", budget)
            .int("window", WINDOW as u64)
            .int("epoch", EPOCH as u64)
            .num("drift_threshold", DRIFT_THRESHOLD)
            .num("attribution_threshold", ATTRIBUTION_THRESHOLD)
            .int("readvises", (scoped.reports.len() + 1) as u64)
            .int("drift_readvises", scoped.stats.drift_readvises as u64)
            .int("scoped_readvises", scoped.stats.scoped_readvises as u64)
            .int("reweights", scoped.stats.reweights as u64)
            .int("reweight_misses", scoped.stats.reweight_misses as u64)
            .int(
                "full_repricings_steady_state",
                scoped.steady_full_repricings() as u64,
            )
            .int("full_repricings_total", scoped.stats.full_repricings as u64)
            .int("scoped_probes", scoped.total_evaluations() as u64)
            .int("full_scope_probes", full.total_evaluations() as u64)
            .num("scoped_probe_fraction", scoped_probe_fraction)
            .num("quality_ratio", quality_ratio)
            .num("scoped_final_cost", scoped.final_cost)
            .num("full_final_cost", full.final_cost)
            .num(
                "last_readvise_wall_seconds",
                scoped.stats.last_readvise_wall.as_secs_f64(),
            )
            .num(
                "readvise_wall_seconds",
                scoped.stats.readvise_wall.as_secs_f64(),
            )
            .raw(
                "points",
                json_array(scoped.reports.iter().map(|(admitted, r)| {
                    JsonObject::new()
                        .int("admitted", *admitted as u64)
                        .str("trigger", trigger_name(r.trigger))
                        .bool("scoped", r.scoped)
                        .int("scope_candidates", r.scope_candidates as u64)
                        .int("evaluations", r.evaluations as u64)
                        .int("full_repricings", r.full_repricings as u64)
                        .num("cost_after", r.cost_after)
                        .num("wall_seconds", r.wall.as_secs_f64())
                        .render()
                })),
            ),
    );

    // --- Acceptance gates. ---
    assert_eq!(
        scoped.steady_full_repricings(),
        0,
        "steady-state re-advises performed full re-pricings — the session state \
         was not carried"
    );
    assert!(
        scoped.stats.reweights > 0,
        "the reweight-heavy stream applied no reweight events"
    );
    assert!(
        scoped.stats.scoped_readvises > 0,
        "attribution never scoped a drift re-advise"
    );
    assert!(
        quality_ratio <= 1.01,
        "scoped re-advising lost more than 1% quality: ratio {quality_ratio:.4}"
    );
    assert!(
        scoped_probe_fraction < 1.0,
        "scoping saved no probes: fraction {scoped_probe_fraction:.4}"
    );

    ScopedReadviseOutcome {
        queries: models.len(),
        candidates: pool.len(),
        events: events.len(),
        scoped,
        full,
        quality_ratio,
        scoped_probe_fraction,
    }
}
