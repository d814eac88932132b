//! A6 — online tuning under workload drift: the `pinum_online` daemon vs
//! periodic full rebuild-and-reselect.
//!
//! A drifting query stream (template-mix shifts, table growth, churn —
//! `pinum_workload::drift`) is replayed through [`OnlineAdvisor`]: every
//! arriving query is spliced into the streaming `WorkloadModel`, the
//! window slides, and re-advising fires on epochs and detected drift,
//! warm-starting the search from the previous selection. At the *same*
//! re-advise points a baseline rebuilds the model from scratch over the
//! identical window and searches cold — the offline practice the online
//! subsystem replaces.
//!
//! Acceptance gates (asserted here and re-checked from the JSON in CI):
//!
//! * **quality** — steady-state (past the first phase) priced cost of the
//!   online selection within 1 % of the periodic full-rebuild baseline;
//! * **O(query) admission** — the splice work per admitted query is a
//!   property of the query, not the window: total splice arms are
//!   bit-identical across two window sizes. Admission *time* is
//!   perfbench's to measure, not this experiment's.

use crate::fixtures::SCHEMA_SEED;
use crate::json::{emit, json_array, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::greedy::GreedyOptions;
use pinum_advisor::search::StrategyKind;
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache, WorkloadModel};
use pinum_online::{AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions, ReadviseTrigger};
use pinum_optimizer::Optimizer;
use pinum_workload::drift::{DriftProfile, DriftStream, DriftedQuery};
use pinum_workload::star::StarSchema;
use std::time::Instant;

/// Stream shape: 4 phases × 60 queries.
pub const PHASES: usize = 4;
pub const PHASE_LENGTH: usize = 60;

/// Sliding-window capacity of the online advisor (and the baseline's
/// rebuild scope), plus the alternate size for the O(query) witness.
pub const WINDOW: usize = 60;
pub const ALT_WINDOW: usize = 120;

/// Admissions per epoch.
pub const EPOCH: usize = 30;

/// Early re-advise when the window mean regresses 15 % over baseline.
pub const DRIFT_THRESHOLD: f64 = 0.15;

/// Candidate pool cap (pool generated over the whole stream).
pub const CANDIDATE_CAP: usize = 300;

/// Drift stream seed.
pub const DRIFT_SEED: u64 = 0xD81F;

/// One compared re-advise point.
pub struct DriftPoint {
    /// Stream index (0-based admission count at the trigger).
    pub index: usize,
    pub trigger: ReadviseTrigger,
    /// Exact priced cost of the online selection over its live window.
    pub online_cost: f64,
    /// Cold full-rebuild-and-reselect cost over the identical window.
    pub rebuild_cost: f64,
    pub online_evaluations: usize,
    pub rebuild_evaluations: usize,
}

pub struct OnlineDriftOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub points: Vec<DriftPoint>,
    pub steady_max_ratio: f64,
    pub admit_arms_identical: bool,
}

fn trigger_name(t: ReadviseTrigger) -> &'static str {
    match t {
        ReadviseTrigger::Epoch => "epoch",
        ReadviseTrigger::Drift => "drift",
        ReadviseTrigger::Forced => "forced",
    }
}

/// Replays the stream through one online advisor; returns the advisor's
/// final state plus the re-advises that fired.
struct OnlinePass {
    advisor: OnlineAdvisor,
    /// (stream index, report) for every re-advise that fired.
    readvises: Vec<(usize, pinum_online::ReadviseReport)>,
}

fn run_online(
    pool: &CandidatePool,
    models: &[(PlanCache, AccessCostCatalog)],
    stream: &[DriftedQuery],
    window: usize,
    budget: u64,
) -> OnlinePass {
    let mut advisor = OnlineAdvisor::new(
        pool.clone(),
        OnlineAdvisorOptions {
            window_capacity: window,
            epoch_length: EPOCH,
            drift_threshold: DRIFT_THRESHOLD,
            strategy: StrategyKind::SwapHillClimb,
            budget_bytes: budget,
            // This experiment's admissions carry no templates, so scoping
            // could never kick in anyway; keep it off explicitly so the
            // baseline comparison stays the unscoped reference.
            scoped_readvise: false,
            attribution_threshold: 0.1,
        },
    );
    let mut readvises = Vec::new();
    for (i, ((cache, access), dq)) in models.iter().zip(stream).enumerate() {
        let admission = advisor.apply(AdmissionSpec::new(cache, access).weight(dq.weight));
        if let Some(report) = admission.readvise {
            readvises.push((i, report));
        }
    }
    OnlinePass { advisor, readvises }
}

pub fn run(scale: f64) -> OnlineDriftOutcome {
    println!(
        "A6: online tuning under drift — {PHASES} phases × {PHASE_LENGTH} queries, \
         window {WINDOW} (alt {ALT_WINDOW}), epoch {EPOCH}, drift threshold {DRIFT_THRESHOLD}, \
         schema seed {SCHEMA_SEED:#x}, drift seed {DRIFT_SEED:#x}\n"
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
    let stream: Vec<DriftedQuery> = DriftStream::new(&schema, DRIFT_SEED, profile).collect();
    let queries: Vec<_> = stream.iter().map(|d| d.query.clone()).collect();
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
    println!(
        "built {} per-query PINUM models over {} candidates in {}",
        models.len(),
        pool.len(),
        fmt_duration(build_start.elapsed())
    );

    let budget = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64;

    // --- Online pass at the reference window. ---
    let pass = run_online(&pool, &models, &stream, WINDOW, budget);

    // --- Periodic full-rebuild baseline at the same re-advise points. ---
    let gopts = GreedyOptions {
        budget_bytes: budget,
        benefit_per_byte: false,
    };
    let mut points = Vec::new();
    for (index, report) in &pass.readvises {
        let lo = (index + 1).saturating_sub(WINDOW);
        let mut model =
            WorkloadModel::build(pool.len(), models[lo..=*index].iter().map(|(c, a)| (c, a)));
        for (offset, dq) in stream[lo..=*index].iter().enumerate() {
            if dq.weight != 1.0 {
                model.reweight_query(offset, dq.weight);
            }
        }
        let cold = StrategyKind::SwapHillClimb
            .build()
            .search(&pool, &model, &gopts);
        let rebuild_cost = model.price_full(&cold.selection).total();
        points.push(DriftPoint {
            index: *index,
            trigger: report.trigger,
            online_cost: report.cost_after,
            rebuild_cost,
            online_evaluations: report.evaluations,
            rebuild_evaluations: cold.evaluations,
        });
    }

    // --- O(query) admission witness: replay at a doubled window. ---
    let alt = run_online(&pool, &models, &stream, ALT_WINDOW, budget);
    let arms_ref = pass.advisor.stats().admit_arms_total;
    let arms_alt = alt.advisor.stats().admit_arms_total;
    let admit_arms_identical = arms_ref == arms_alt;

    // --- Report. ---
    let mut table = TextTable::new(vec![
        "stream idx",
        "trigger",
        "online cost",
        "rebuild cost",
        "ratio",
        "probes on/cold",
    ]);
    for p in &points {
        table.row(vec![
            p.index.to_string(),
            trigger_name(p.trigger).to_string(),
            format!("{:.0}", p.online_cost),
            format!("{:.0}", p.rebuild_cost),
            format!("{:.4}", p.online_cost / p.rebuild_cost),
            format!("{}/{}", p.online_evaluations, p.rebuild_evaluations),
        ]);
    }
    println!("{}", table.render());
    let stats = pass.advisor.stats();
    println!(
        "re-advises: {} ({} epoch, {} drift); splice arms identical across windows: \
         {admit_arms_identical}\n",
        stats.readvises, stats.epoch_readvises, stats.drift_readvises,
    );

    let steady_max_ratio = points
        .iter()
        .filter(|p| p.index >= PHASE_LENGTH)
        .map(|p| p.online_cost / p.rebuild_cost)
        .fold(0.0f64, f64::max);
    let steady_points = points.iter().filter(|p| p.index >= PHASE_LENGTH).count();
    println!(
        "steady-state (past phase 0) worst online/rebuild cost ratio: {steady_max_ratio:.4} \
         over {steady_points} points (acceptance: ≤ 1.01)\n"
    );

    emit(
        "online_drift",
        &JsonObject::new()
            .int("queries", models.len() as u64)
            .int("candidates", pool.len() as u64)
            .num("scale", scale)
            .int("budget_bytes", budget)
            .int("window", WINDOW as u64)
            .int("alt_window", ALT_WINDOW as u64)
            .int("epoch", EPOCH as u64)
            .num("drift_threshold", DRIFT_THRESHOLD)
            .int("readvises", stats.readvises as u64)
            .int("epoch_readvises", stats.epoch_readvises as u64)
            .int("drift_readvises", stats.drift_readvises as u64)
            .int("admit_arms_total", arms_ref as u64)
            .int("admit_arms_alt_window", arms_alt as u64)
            .bool("admit_arms_identical", admit_arms_identical)
            .int("admit_arms_max", stats.admit_arms_max as u64)
            .num("steady_max_ratio", steady_max_ratio)
            .int("steady_points", steady_points as u64)
            .raw(
                "points",
                json_array(points.iter().map(|p| {
                    JsonObject::new()
                        .int("index", p.index as u64)
                        .str("trigger", trigger_name(p.trigger))
                        .num("online_cost", p.online_cost)
                        .num("rebuild_cost", p.rebuild_cost)
                        .num("ratio", p.online_cost / p.rebuild_cost)
                        .int("online_evaluations", p.online_evaluations as u64)
                        .int("rebuild_evaluations", p.rebuild_evaluations as u64)
                        .render()
                })),
            ),
    );

    // --- Acceptance gates. ---
    assert!(
        steady_points >= 3,
        "too few steady-state re-advise points ({steady_points}) to gate on"
    );
    assert!(
        steady_max_ratio <= 1.01,
        "online advisor steady-state cost drifted {steady_max_ratio:.4}× from the \
         full-rebuild baseline (acceptance: ≤ 1.01)"
    );
    assert!(
        admit_arms_identical,
        "admission splice work changed with the window size — it must be O(query)"
    );

    OnlineDriftOutcome {
        queries: models.len(),
        candidates: pool.len(),
        points,
        steady_max_ratio,
        admit_arms_identical,
    }
}
