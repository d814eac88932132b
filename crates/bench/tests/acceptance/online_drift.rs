//! Online tuning under workload drift: the `pinum_online` daemon vs
//! periodic full rebuild-and-reselect.
//!
//! A drifting query stream (template-mix shifts, table growth, churn —
//! `pinum_workload::drift`) is replayed through [`OnlineAdvisor`]: every
//! arriving query is spliced into the streaming `WorkloadModel`, the
//! window slides, and re-advising fires on epochs and detected drift,
//! warm-starting the search from the previous selection. At the *same*
//! re-advise points a baseline rebuilds the model from scratch over the
//! identical window and searches cold — the offline practice the online
//! subsystem replaces. Gates:
//!
//! * **quality** — steady-state (past the first phase) priced cost of the
//!   online selection within 1 % of the periodic full-rebuild baseline;
//! * **O(query) admission** — the splice work per admitted query is a
//!   property of the query, not the window: total splice arms are
//!   identical across two window sizes. Admission *time* is perfbench's
//!   to measure.

use crate::fixture::{drift_profile, schema, swap_options, Drift, BUDGET};
use pinum_advisor::greedy::GreedyOptions;
use pinum_advisor::search::StrategyKind;
use pinum_core::WorkloadModel;
use pinum_online::{AdmissionSpec, OnlineAdvisor, ReadviseReport};
use pinum_workload::drift::DriftStream;

/// Stream shape: 4 phases × 60 queries.
const PHASES: usize = 4;
const PHASE_LENGTH: usize = 60;

/// Sliding-window capacity of the online advisor (and the baseline's
/// rebuild scope), plus the alternate size for the O(query) witness.
const WINDOW: usize = 60;
const ALT_WINDOW: usize = 120;

/// Admissions per epoch.
const EPOCH: usize = 30;

/// Candidate pool cap (pool generated over the whole stream).
const CANDIDATE_CAP: usize = 300;

/// Drift stream seed.
const DRIFT_SEED: u64 = 0xD81F;

/// Replays the stream through one online advisor; returns its final
/// state plus `(stream index, report)` for every re-advise that fired.
fn run_online(fx: &Drift, window: usize) -> (OnlineAdvisor, Vec<(usize, ReadviseReport)>) {
    // The admissions carry no templates and scoping is off, so the
    // baseline comparison stays the unscoped reference.
    let mut advisor = OnlineAdvisor::new(fx.pool.clone(), swap_options(window, EPOCH, false));
    let mut readvises = Vec::new();
    for (i, (cache, access)) in fx.models.iter().enumerate() {
        let admission = advisor.apply(AdmissionSpec::new(cache, access).weight(fx.weights[i]));
        if let Some(report) = admission.readvise {
            readvises.push((i, report));
        }
    }
    (advisor, readvises)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let schema = schema();
    let stream = DriftStream::new(
        &schema,
        DRIFT_SEED,
        drift_profile(PHASES, PHASE_LENGTH, 1.3),
    );
    let fx = Drift::new(&schema, stream, CANDIDATE_CAP);
    let (advisor, readvises) = run_online(&fx, WINDOW);

    // Periodic full-rebuild baseline at the same steady-state points.
    let gopts = GreedyOptions {
        budget_bytes: BUDGET,
        benefit_per_byte: false,
    };
    let mut steady_points = 0;
    let mut steady_max_ratio = 0.0f64;
    for (index, report) in readvises.iter().filter(|(i, _)| *i >= PHASE_LENGTH) {
        let lo = (index + 1).saturating_sub(WINDOW);
        let mut model = WorkloadModel::build(
            fx.pool.len(),
            fx.models[lo..=*index].iter().map(|(c, a)| (c, a)),
        );
        for (offset, &weight) in fx.weights[lo..=*index].iter().enumerate() {
            if weight != 1.0 {
                model.reweight_query(offset, weight);
            }
        }
        let cold = StrategyKind::SwapHillClimb
            .build()
            .search(&fx.pool, &model, &gopts);
        let rebuild_cost = model.price_full(&cold.selection).total();
        steady_max_ratio = steady_max_ratio.max(report.cost_after / rebuild_cost);
        steady_points += 1;
    }
    assert!(
        steady_points >= 3,
        "too few steady-state re-advise points ({steady_points}) to gate on"
    );
    assert!(
        steady_max_ratio <= 1.01,
        "online advisor steady-state cost drifted {steady_max_ratio:.4}× from the \
         full-rebuild baseline"
    );
    // 1.001 892 729 945 609 7: the worst point, at stream index 116.
    assert_eq!(steady_max_ratio.to_bits(), 0x3ff0_07c0_abd3_7701);
    assert_eq!(advisor.stats().readvises, 12);

    // O(query) admission witness: replay at a doubled window.
    let (alt, _) = run_online(&fx, ALT_WINDOW);
    assert_eq!(
        (
            advisor.stats().admit_arms_total,
            alt.stats().admit_arms_total
        ),
        (35_671, 35_671),
        "admission splice work must be O(query), the same at both window sizes"
    );
}
