//! Persistent pricing sessions and template-scoped re-advising on a
//! reweight-heavy drift stream. Gates:
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
//! * **probe reduction** — the scoped pass spends fewer search
//!   evaluations than the full-scope pass.
//!
//! The stream interleaves in-place [`DriftEvent::Reweight`] events (the
//! same query getting hotter — `pinum_workload::drift::DriftEventStream`)
//! with the phased admissions. Both passes replay the *identical* event
//! sequence; the only difference is `OnlineAdvisorOptions::scoped_readvise`.

use crate::fixture::{drift_profile, schema, swap_options, Drift};
use pinum_online::{OnlineAdvisor, OnlineStats, ReadviseReport};
use pinum_workload::drift::{DriftEvent, DriftEventStream, ReweightProfile};

/// Stream shape: 4 phases × 60 admissions, plus ~25 % reweight events.
const PHASES: usize = 4;
const PHASE_LENGTH: usize = 60;

/// Sliding-window capacity and admissions per epoch.
const WINDOW: usize = 60;
const EPOCH: usize = 30;

/// Candidate pool cap (pool generated over the whole stream).
const CANDIDATE_CAP: usize = 300;

/// Drift stream seed.
const DRIFT_SEED: u64 = 0x5C0D;

/// Reweight drift riding on the stream.
const REWEIGHTS: ReweightProfile = ReweightProfile {
    rate: 0.25,
    factor: 1.4,
    lookback: 30,
};

/// One pass's aggregate outcome.
struct Pass {
    /// Search evaluations across every re-advise, the final forced one
    /// included.
    evaluations: usize,
    /// Full re-pricings across re-advises past phase 0.
    steady_full_repricings: usize,
    /// Exact priced cost of the final selection over the final window.
    final_cost: f64,
    stats: OnlineStats,
}

fn run_pass(fx: &Drift, events: &[DriftEvent], scoped: bool) -> Pass {
    let mut advisor = OnlineAdvisor::new(fx.pool.clone(), swap_options(WINDOW, EPOCH, scoped));
    let mut reports: Vec<(usize, ReadviseReport)> = Vec::new();
    let mut admitted = 0usize;
    for event in events {
        let readvise = match event {
            DriftEvent::Admit(_) => {
                admitted += 1;
                advisor.apply(fx.spec(admitted - 1)).readvise
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
        evaluations: reports.iter().map(|(_, r)| r.evaluations).sum::<usize>()
            + final_report.evaluations,
        steady_full_repricings: reports
            .iter()
            .filter(|(admitted, _)| *admitted >= PHASE_LENGTH)
            .map(|(_, r)| r.full_repricings)
            .sum(),
        final_cost: advisor.current_cost(),
        stats: advisor.stats().clone(),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let schema = schema();
    let events: Vec<DriftEvent> = DriftEventStream::new(
        &schema,
        DRIFT_SEED,
        drift_profile(PHASES, PHASE_LENGTH, 1.3),
        REWEIGHTS,
    )
    .collect();
    let admissions = events.iter().filter_map(|e| match e {
        DriftEvent::Admit(dq) => Some(dq.clone()),
        DriftEvent::Reweight { .. } => None,
    });
    let fx = Drift::new(&schema, admissions, CANDIDATE_CAP);

    let scoped = run_pass(&fx, &events, true);
    let full = run_pass(&fx, &events, false);

    assert_eq!(
        scoped.steady_full_repricings, 0,
        "steady-state re-advises performed full re-pricings — the session state \
         was not carried"
    );
    assert_eq!(scoped.stats.full_repricings, 0);
    // Reweights applied, drift re-advises scoped by attribution.
    assert_eq!(
        (scoped.stats.reweights, scoped.stats.scoped_readvises),
        (86, 7)
    );
    assert!(
        scoped.final_cost <= 1.01 * full.final_cost,
        "scoped re-advising lost more than 1% quality"
    );
    // Quality ratio exactly 1: both passes settle at 131 911 905.103 969 45.
    assert_eq!(
        (scoped.final_cost.to_bits(), full.final_cost.to_bits()),
        (0x419f_7343_846a_76f8, 0x419f_7343_846a_76f8)
    );
    // Probe fraction 10 933 / 23 446 ≈ 0.466.
    assert!(
        scoped.evaluations < full.evaluations,
        "scoping saved no probes"
    );
    assert_eq!((scoped.evaluations, full.evaluations), (10_933, 23_446));
}
