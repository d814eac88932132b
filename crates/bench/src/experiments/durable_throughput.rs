//! A10 — durable throughput: the group-commit WAL + batched admission
//! pipeline against the serial journaled hot path. One drifting
//! admission stream is driven twice through a durable advisor: once one
//! admission at a time (one fsync per record — the pre-batching daemon
//! path), once through [`PersistentAdvisor::apply_batch`] with a
//! group-commit policy (one fsync per chunk). The batched run must be
//! **bit-identical** — same selection, same priced-cost bits, same
//! counters — while spending a small fraction of the fsyncs.
//!
//! Acceptance gates (asserted here and re-checked from the JSON in CI):
//!
//! * **batch identity** — the batched run fingerprints equal to the
//!   serial run;
//! * **amortized durability** — steady-state fsyncs per admission in
//!   the batched run stay ≤ 1/8 (count-based, so it holds on any disk);
//! * **crash-restore identity** — a batched run killed mid-stream,
//!   restored (snapshot + group-committed log tail), and finished
//!   batched lands bit-identically on the uninterrupted run.
//!
//! Only fsync *counts* are gated here: they hold on any disk, while the
//! wall-clock effect of an fsync depends on the storage. Durable write
//! throughput is measured by perfbench's `serve_durable` workload.

use crate::fixtures::SCHEMA_SEED;
use crate::json::{emit, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::search::StrategyKind;
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::{query_templates, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_optimizer::Optimizer;
use pinum_persist::{GroupCommitPolicy, PersistentAdvisor};
use pinum_query::TemplateKey;
use pinum_workload::drift::{DriftProfile, DriftStream, DriftedQuery};
use pinum_workload::star::StarSchema;
use std::path::PathBuf;
use std::time::Instant;

/// Stream shape: 3 phases × 40 admissions, admissions only — the batch
/// pipeline coalesces admissions, so the stream is pure admissions.
pub const PHASES: usize = 3;
pub const PHASE_LENGTH: usize = 40;

/// Online advisor window / epoch (same regime as `exp_warm_restart`).
pub const WINDOW: usize = 40;
pub const EPOCH: usize = 20;
pub const DRIFT_THRESHOLD: f64 = 0.15;

/// Admissions per client batch, and the group-commit chunk cap — one
/// fsync per 16 admissions, an 8× margin under the 1-per-admission
/// serial path and 2× under the 1/8 gate.
pub const BATCH: usize = 16;

/// Snapshot cadence for the crash leg only (off the batch boundary, so
/// the kill always leaves a log tail to replay); the throughput legs
/// run without automatic snapshots so the fsync counters are purely the
/// journal's.
pub const CRASH_SNAPSHOT_EVERY: usize = 24;
/// Admissions applied before the crash leg's kill (a batch multiple
/// that is NOT a snapshot-cut multiple).
pub const CRASH_KILL_AFTER: usize = 48;

/// Candidate pool cap and drift seed.
pub const CANDIDATE_CAP: usize = 300;
pub const DRIFT_SEED: u64 = 0xD0_B17;

pub struct DurableThroughputOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub batch_identity: bool,
    pub serial_fsyncs: u64,
    pub batched_fsyncs: u64,
    pub fsyncs_per_admission: f64,
    pub crash_identity: bool,
    pub crash_replayed: u64,
}

struct Fixture {
    pool: CandidatePool,
    weights: Vec<f64>,
    templates: Vec<Vec<TemplateKey>>,
    models: Vec<(PlanCache, AccessCostCatalog)>,
}

fn build_fixture(scale: f64) -> Fixture {
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
    let models = queries
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&optimizer, q, &pool);
            (built.cache, access)
        })
        .collect();
    Fixture {
        pool,
        weights: stream.iter().map(|d| d.weight).collect(),
        templates: queries.iter().map(query_templates).collect(),
        models,
    }
}

fn options(budget: u64) -> OnlineAdvisorOptions {
    OnlineAdvisorOptions {
        window_capacity: WINDOW,
        epoch_length: EPOCH,
        drift_threshold: DRIFT_THRESHOLD,
        strategy: StrategyKind::SwapHillClimb,
        budget_bytes: budget,
        scoped_readvise: false,
        attribution_threshold: 0.1,
    }
}

/// Every bit the identity gates cover.
fn fingerprint(advisor: &OnlineAdvisor) -> (Vec<usize>, u64, Vec<u64>, Vec<u64>) {
    let stats = advisor.stats();
    (
        advisor.selection().ids().collect(),
        advisor.current_cost().to_bits(),
        advisor
            .to_parts()
            .per_query
            .iter()
            .map(|c| c.to_bits())
            .collect(),
        vec![
            stats.admits as u64,
            stats.reweights as u64,
            stats.readvises as u64,
            stats.epoch_readvises as u64,
            stats.drift_readvises as u64,
            stats.full_repricings as u64,
        ],
    )
}

fn spec_at(fx: &Fixture, i: usize) -> AdmissionSpec<'_> {
    let (cache, access) = &fx.models[i];
    AdmissionSpec::new(cache, access)
        .weight(fx.weights[i])
        .templates(&fx.templates[i])
}

/// The pre-batching daemon hot path: one journaled admission at a time
/// (deferred spec, pending trigger executed immediately), one fsync per
/// record.
fn drive_serial(advisor: &mut PersistentAdvisor, fx: &Fixture, range: std::ops::Range<usize>) {
    for i in range {
        let adm = advisor
            .apply(spec_at(fx, i).deferred(true))
            .expect("journaled apply");
        if let Some(t) = adm.pending {
            advisor.readvise_triggered(t).expect("journaled readvise");
        }
    }
}

/// The batched pipeline: `BATCH` admissions per `apply_batch`, each
/// group-committed with one fsync per policy chunk.
fn drive_batched(advisor: &mut PersistentAdvisor, fx: &Fixture, range: std::ops::Range<usize>) {
    let policy = GroupCommitPolicy {
        max_records: BATCH,
        ..GroupCommitPolicy::default()
    };
    let mut base = range.start;
    while base < range.end {
        let end = (base + BATCH).min(range.end);
        let specs: Vec<AdmissionSpec<'_>> = (base..end).map(|i| spec_at(fx, i)).collect();
        advisor
            .apply_batch(&specs, policy, |_| ())
            .expect("batched journaled apply");
        base = end;
    }
}

/// Self-cleaning scratch directory (no external tempfile dependency).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "pinum-durable-throughput-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(scale: f64) -> DurableThroughputOutcome {
    println!(
        "A10: durable throughput — {PHASES} phases × {PHASE_LENGTH} admissions, window \
         {WINDOW}, epoch {EPOCH}, batch {BATCH}, schema seed {SCHEMA_SEED:#x}, drift seed \
         {DRIFT_SEED:#x}\n"
    );
    let build_start = Instant::now();
    let fx = build_fixture(scale);
    let n = fx.models.len();
    println!(
        "built {} per-query PINUM models over {} candidates in {}",
        n,
        fx.pool.len(),
        fmt_duration(build_start.elapsed())
    );
    let budget = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64;
    let opts = options(budget);

    // --- Serial durable leg: the baseline hot path. ---
    let scratch_serial = ScratchDir::new("serial");
    let mut serial = PersistentAdvisor::create(&scratch_serial.0, fx.pool.clone(), opts, 0)
        .expect("create serial advisor");
    let serial_at_start = serial.persist_stats();
    drive_serial(&mut serial, &fx, 0..n);
    let serial_stats = serial.persist_stats();
    let serial_fsyncs = serial_stats.fsyncs - serial_at_start.fsyncs;
    let want = fingerprint(serial.advisor());
    drop(serial);

    // --- Batched durable leg: same stream, group-committed. ---
    let scratch_batched = ScratchDir::new("batched");
    let mut batched = PersistentAdvisor::create(&scratch_batched.0, fx.pool.clone(), opts, 0)
        .expect("create batched advisor");
    let batched_at_start = batched.persist_stats();
    drive_batched(&mut batched, &fx, 0..n);
    let batched_stats = batched.persist_stats();
    let batched_fsyncs = batched_stats.fsyncs - batched_at_start.fsyncs;
    let batch_identity = fingerprint(batched.advisor()) == want;
    let fsyncs_per_admission = batched_fsyncs as f64 / n as f64;
    drop(batched);

    // --- Crash leg: kill a batched run mid-stream, restore from the
    // snapshot plus the group-committed log tail, finish batched. ---
    let scratch_crash = ScratchDir::new("crash");
    let mut crashing = PersistentAdvisor::create(
        &scratch_crash.0,
        fx.pool.clone(),
        opts,
        CRASH_SNAPSHOT_EVERY,
    )
    .expect("create crash advisor");
    drive_batched(&mut crashing, &fx, 0..CRASH_KILL_AFTER);
    drop(crashing); // the kill: only the fsynced journal + snapshots survive

    let (mut restored, report) =
        PersistentAdvisor::open(&scratch_crash.0, CRASH_SNAPSHOT_EVERY).expect("restore");
    let crash_replayed = report.replayed as u64;
    drive_batched(&mut restored, &fx, CRASH_KILL_AFTER..n);
    let crash_identity = fingerprint(restored.advisor()) == want;
    drop(restored);

    // --- Report. ---
    let mut table = TextTable::new(vec!["leg", "appends", "fsyncs", "fsyncs/admit"]);
    table.row(vec![
        "serial durable".into(),
        (serial_stats.appends - serial_at_start.appends).to_string(),
        serial_fsyncs.to_string(),
        format!("{:.4}", serial_fsyncs as f64 / n as f64),
    ]);
    table.row(vec![
        format!("batched (chunk {BATCH})"),
        (batched_stats.appends - batched_at_start.appends).to_string(),
        batched_fsyncs.to_string(),
        format!("{fsyncs_per_admission:.4}"),
    ]);
    println!("{}", table.render());
    println!(
        "batch identity: {batch_identity}; crash leg: {crash_replayed} records replayed, identical: {crash_identity}\n"
    );

    emit(
        "durable_throughput",
        &JsonObject::new()
            .int("queries", n as u64)
            .int("candidates", fx.pool.len() as u64)
            .num("scale", scale)
            .int("budget_bytes", budget)
            .int("window", WINDOW as u64)
            .int("epoch", EPOCH as u64)
            .int("batch", BATCH as u64)
            .bool("batch_identity", batch_identity)
            .int("serial_fsyncs", serial_fsyncs)
            .int("batched_fsyncs", batched_fsyncs)
            .int("batched_max_batch_records", batched_stats.max_batch_records)
            .num("fsyncs_per_admission", fsyncs_per_admission)
            .bool("crash_identity", crash_identity)
            .int("crash_replayed", crash_replayed),
    );

    // --- Acceptance gates. ---
    assert!(
        batch_identity,
        "the batched durable run diverged from the serial durable run"
    );
    assert!(
        fsyncs_per_admission <= 1.0 / 8.0,
        "group commit must amortize to ≤ 1/8 fsyncs per admission, got {fsyncs_per_admission}"
    );
    assert!(
        crash_replayed > 0,
        "the crash leg's kill point must leave a log tail to replay"
    );
    assert!(
        crash_identity,
        "the restored-and-finished batched run diverged from the uninterrupted one"
    );

    DurableThroughputOutcome {
        queries: n,
        candidates: fx.pool.len(),
        batch_identity,
        serial_fsyncs,
        batched_fsyncs,
        fsyncs_per_admission,
        crash_identity,
        crash_replayed,
    }
}
