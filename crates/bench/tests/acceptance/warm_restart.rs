//! Warm restart: a drifting admission stream is journaled through
//! [`PersistentAdvisor`], the process is "killed" at several points (hard
//! kills mid-epoch with no snapshot in hand, plus one clean shutdown that
//! cuts a snapshot first), the advisor is restored from the latest valid
//! snapshot plus the replayed log tail, and the stream is finished. Gates:
//!
//! * **restart identity** — every kill/restore/finish run lands bit for
//!   bit on an uninterrupted in-memory session: same selection, same
//!   priced-cost bits (total and per query), same counters;
//! * **replay actually happens** — the hard kills land between snapshot
//!   cuts, so a non-empty log tail must replay;
//! * **no re-optimization on restore** — steady-state (past phase 0)
//!   full re-pricings stay 0 (restoring adopts serialized per-query costs
//!   instead of re-pricing).

use crate::fixture::{drift_profile, fingerprint, schema, swap_options, Drift, ScratchDir};
use pinum_online::{OnlineAdvisor, ReadviseReport};
use pinum_persist::PersistentAdvisor;
use pinum_workload::drift::DriftStream;
use std::ops::Range;

/// Stream shape: 3 phases × 40 admissions.
const PHASES: usize = 3;
const PHASE_LENGTH: usize = 40;

/// Online advisor window / epoch (the `durable_throughput` regime too).
const WINDOW: usize = 40;
const EPOCH: usize = 20;

/// Every 4th admission is immediately reweighted, so the journal carries
/// reweight records too.
const REWEIGHT_EVERY: usize = 4;
const REWEIGHT_FACTOR: f64 = 1.25;

/// Background snapshot cadence (admissions between cuts). The hard-kill
/// points below are deliberately NOT multiples of this, so a log tail
/// always has to replay.
const SNAPSHOT_EVERY: usize = 16;

/// Candidate pool cap and drift seed.
const CANDIDATE_CAP: usize = 300;
const DRIFT_SEED: u64 = 0x9E57;

fn is_reweighted(i: usize) -> bool {
    i % REWEIGHT_EVERY == REWEIGHT_EVERY - 1
}

/// Drives stream positions `range` through the in-memory advisor; returns
/// the full re-pricings of re-advises past phase 0.
fn drive_volatile(advisor: &mut OnlineAdvisor, fx: &Drift, range: Range<usize>) -> usize {
    let mut steady_full = 0;
    let mut tally = |i: usize, report: Option<ReadviseReport>| {
        if let Some(r) = report.filter(|_| i >= PHASE_LENGTH) {
            steady_full += r.full_repricings;
        }
    };
    for i in range {
        tally(i, advisor.apply(fx.spec(i)).readvise);
        if is_reweighted(i) {
            let weight = fx.weights[i] * REWEIGHT_FACTOR;
            tally(i, advisor.reweight(i, weight, false).readvise);
        }
    }
    steady_full
}

/// The identical stream positions through the journaled advisor.
fn drive_durable(advisor: &mut PersistentAdvisor, fx: &Drift, range: Range<usize>) {
    for i in range {
        advisor.apply(fx.spec(i)).expect("journaled apply");
        if is_reweighted(i) {
            advisor
                .reweight(i, fx.weights[i] * REWEIGHT_FACTOR, false)
                .expect("journaled reweight");
        }
    }
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
    let n = fx.len();
    let opts = swap_options(WINDOW, EPOCH, false);

    // Uninterrupted in-memory baseline.
    let mut baseline = OnlineAdvisor::new(fx.pool.clone(), opts);
    assert_eq!(
        drive_volatile(&mut baseline, &fx, 0..n),
        0,
        "steady-state re-advises performed full re-pricings"
    );
    let want = fingerprint(&baseline);

    // Kill/restore/finish runs. Hard kills land mid-phase, off the
    // snapshot cadence; the last run shuts down cleanly (explicit cut).
    let kills = [
        (PHASE_LENGTH / 2, false),
        (PHASE_LENGTH + PHASE_LENGTH / 2, false),
        (2 * PHASE_LENGTH + PHASE_LENGTH / 2, true),
    ];
    let mut replayed = Vec::new();
    for (run, &(kill_after, clean)) in kills.iter().enumerate() {
        let scratch = ScratchDir::new(&format!("warm-restart-run{run}"));
        let mut durable =
            PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts, SNAPSHOT_EVERY)
                .expect("create durable advisor");
        drive_durable(&mut durable, &fx, 0..kill_after);
        if clean {
            durable.snapshot_now().expect("snapshot before shutdown");
        }
        drop(durable); // the kill: nothing beyond the fsynced journal survives

        let (mut restored, report) =
            PersistentAdvisor::open(&scratch.0, SNAPSHOT_EVERY).expect("restore");
        drive_durable(&mut restored, &fx, kill_after..n);
        assert!(
            fingerprint(restored.advisor()) == want,
            "the run killed after {kill_after} admissions diverged from the \
             uninterrupted baseline"
        );
        assert!(
            clean || report.replayed > 0,
            "hard kill after {kill_after} admissions replayed no log tail — the kill \
             point must land between snapshot cuts"
        );
        replayed.push(report.replayed);
    }
    // Records replayed after each kill; the clean shutdown replays none.
    assert_eq!(replayed, [6, 16, 0]);
    assert_eq!(replayed.iter().sum::<usize>(), 22);
}
