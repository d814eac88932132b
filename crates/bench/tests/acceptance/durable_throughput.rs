//! Durable throughput: the group-commit WAL and batched admission
//! pipeline against the serial journaled hot path. One drifting admission
//! stream is driven twice through a durable advisor: once one admission
//! at a time (one fsync per record — the pre-batching daemon path), once
//! through [`PersistentAdvisor::apply_batch`] with a group-commit policy
//! (one fsync per chunk). Gates:
//!
//! * **batch identity** — the batched run lands bit for bit on the serial
//!   run: same selection, same priced-cost bits, same counters;
//! * **amortized durability** — fsyncs per admission in the batched run
//!   stay ≤ 1/8 (count-based, so it holds on any disk);
//! * **crash-restore identity** — a batched run killed mid-stream,
//!   restored (snapshot + group-committed log tail), and finished batched
//!   lands bit for bit on the uninterrupted run.
//!
//! Only fsync *counts* are checked: the wall-clock effect of an fsync
//! depends on the storage. Durable write throughput is measured by
//! perfbench's `serve_durable` workload.

use crate::fixture::{drift_profile, fingerprint, schema, swap_options, Drift, ScratchDir};
use pinum_online::AdmissionSpec;
use pinum_persist::{GroupCommitPolicy, PersistentAdvisor};
use pinum_workload::drift::DriftStream;
use std::ops::Range;

/// Stream shape: 3 phases × 40 admissions, admissions only — the batch
/// pipeline coalesces admissions.
const PHASES: usize = 3;
const PHASE_LENGTH: usize = 40;

/// Online advisor window / epoch (the `warm_restart` regime).
const WINDOW: usize = 40;
const EPOCH: usize = 20;

/// Admissions per client batch, and the group-commit chunk cap — one
/// fsync per 16 admissions, 2× under the 1/8 gate.
const BATCH: usize = 16;

/// Snapshot cadence for the crash leg only (off the batch boundary, so
/// the kill always leaves a log tail to replay); the other legs run
/// without automatic snapshots so the fsync counters are purely the
/// journal's.
const CRASH_SNAPSHOT_EVERY: usize = 24;
/// Admissions applied before the crash leg's kill (a batch multiple that
/// is NOT a snapshot-cut multiple).
const CRASH_KILL_AFTER: usize = 48;

/// Candidate pool cap and drift seed.
const CANDIDATE_CAP: usize = 300;
const DRIFT_SEED: u64 = 0xD0_B17;

/// The pre-batching daemon hot path: one journaled admission at a time
/// (deferred spec, pending trigger executed immediately), one fsync per
/// record.
fn drive_serial(advisor: &mut PersistentAdvisor, fx: &Drift, range: Range<usize>) {
    for i in range {
        let adm = advisor
            .apply(fx.spec(i).deferred(true))
            .expect("journaled apply");
        if let Some(t) = adm.pending {
            advisor.readvise_triggered(t).expect("journaled readvise");
        }
    }
}

/// The batched pipeline: `BATCH` admissions per `apply_batch`, each
/// group-committed with one fsync per policy chunk.
fn drive_batched(advisor: &mut PersistentAdvisor, fx: &Drift, range: Range<usize>) {
    let policy = GroupCommitPolicy {
        max_records: BATCH,
        ..GroupCommitPolicy::default()
    };
    for base in range.clone().step_by(BATCH) {
        let specs: Vec<AdmissionSpec<'_>> = (base..(base + BATCH).min(range.end))
            .map(|i| fx.spec(i))
            .collect();
        advisor
            .apply_batch(&specs, policy, |_| ())
            .expect("batched journaled apply");
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

    // Serial durable leg: the baseline hot path.
    let scratch = ScratchDir::new("durable-serial");
    let mut serial = PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts, 0)
        .expect("create serial advisor");
    let at_start = serial.persist_stats().fsyncs;
    drive_serial(&mut serial, &fx, 0..n);
    let serial_fsyncs = serial.persist_stats().fsyncs - at_start;
    let want = fingerprint(serial.advisor());
    drop(serial);

    // Batched durable leg: same stream, group-committed.
    let scratch = ScratchDir::new("durable-batched");
    let mut batched = PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts, 0)
        .expect("create batched advisor");
    let at_start = batched.persist_stats().fsyncs;
    drive_batched(&mut batched, &fx, 0..n);
    let batched_fsyncs = batched.persist_stats().fsyncs - at_start;
    assert!(
        fingerprint(batched.advisor()) == want,
        "the batched durable run diverged from the serial durable run"
    );
    drop(batched);

    // 8 fsyncs for 120 admissions ≈ 0.067 per admission; the serial path
    // spends one per record.
    assert!(
        8 * batched_fsyncs <= n as u64,
        "group commit must amortize to ≤ 1/8 fsyncs per admission"
    );
    assert_eq!((n, serial_fsyncs, batched_fsyncs), (120, 131, 8));

    // Crash leg: kill a batched run mid-stream, restore from the snapshot
    // plus the group-committed log tail, finish batched.
    let scratch = ScratchDir::new("durable-crash");
    let mut crashing =
        PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts, CRASH_SNAPSHOT_EVERY)
            .expect("create crash advisor");
    drive_batched(&mut crashing, &fx, 0..CRASH_KILL_AFTER);
    drop(crashing); // the kill: only the fsynced journal + snapshots survive

    let (mut restored, report) =
        PersistentAdvisor::open(&scratch.0, CRASH_SNAPSHOT_EVERY).expect("restore");
    assert!(
        report.replayed > 0,
        "the crash leg's kill point must leave a log tail to replay"
    );
    assert_eq!(report.replayed, 16);
    drive_batched(&mut restored, &fx, CRASH_KILL_AFTER..n);
    assert!(
        fingerprint(restored.advisor()) == want,
        "the restored-and-finished batched run diverged from the uninterrupted one"
    );
}
