//! A9 — warm restart: a drifting admission stream is journaled through
//! [`pinum_persist::PersistentAdvisor`], the process is "killed" at
//! several points (hard kills mid-epoch with no snapshot in hand, plus
//! one clean shutdown that cuts a snapshot first), the advisor is
//! restored from the latest valid snapshot plus the replayed log tail,
//! and the stream is finished. Every restarted run must land
//! **bit-identically** on an uninterrupted in-memory session: same
//! selection, same priced-cost bits (total and per query), same
//! counters.
//!
//! Acceptance gates (asserted here and re-checked from the JSON in CI):
//!
//! * **restart identity** — every kill/restore/finish run fingerprints
//!   equal to the uninterrupted baseline;
//! * **replay actually happens** — the hard kills land between snapshot
//!   cuts, so a non-empty log tail must replay;
//! * **no re-optimization on restore** — steady-state (past phase 0)
//!   full re-pricings stay 0, and total full re-pricings match the
//!   baseline exactly (restoring adopts serialized per-query costs
//!   instead of re-pricing).

use crate::fixtures::SCHEMA_SEED;
use crate::json::{emit, json_array, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::generate_candidates;
use pinum_advisor::search::StrategyKind;
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::{query_templates, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_optimizer::Optimizer;
use pinum_persist::PersistentAdvisor;
use pinum_query::TemplateKey;
use pinum_workload::drift::{DriftProfile, DriftStream, DriftedQuery};
use pinum_workload::star::StarSchema;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Stream shape: 3 phases × 40 admissions.
pub const PHASES: usize = 3;
pub const PHASE_LENGTH: usize = 40;

/// Online advisor window / epoch (same regime as `exp_online_drift`).
pub const WINDOW: usize = 40;
pub const EPOCH: usize = 20;
pub const DRIFT_THRESHOLD: f64 = 0.15;

/// Every 4th admission is immediately reweighted, so the journal carries
/// reweight records too.
pub const REWEIGHT_EVERY: usize = 4;
pub const REWEIGHT_FACTOR: f64 = 1.25;

/// Background snapshot cadence (admissions between cuts). The hard-kill
/// points below are deliberately NOT multiples of this, so a log tail
/// always has to replay.
pub const SNAPSHOT_EVERY: usize = 16;

/// Candidate pool cap and drift seed.
pub const CANDIDATE_CAP: usize = 300;
pub const DRIFT_SEED: u64 = 0x9E57;

/// One kill/restore/finish run.
pub struct RestartPoint {
    /// Admissions applied before the kill.
    pub kill_after: usize,
    /// Whether a snapshot was cut explicitly before the kill (clean
    /// shutdown) or the run died between background cuts (hard kill).
    pub clean: bool,
    /// Log records replayed on top of the restored snapshot.
    pub replayed: u64,
    pub restore_wall: Duration,
    /// Fingerprint equality with the uninterrupted baseline.
    pub identical: bool,
}

pub struct WarmRestartOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub points: Vec<RestartPoint>,
    pub restart_identity: bool,
    pub replayed_tail_total: u64,
    pub snapshot_wall: Duration,
    pub steady_full_repricings: u64,
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

/// Every bit the identity gate covers.
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

/// Drives stream positions `range` through the in-memory advisor,
/// tallying steady-state full re-pricings from the re-advise reports.
fn drive_volatile(
    advisor: &mut OnlineAdvisor,
    fx: &Fixture,
    range: std::ops::Range<usize>,
    steady_full: &mut u64,
) {
    for i in range {
        let adm = advisor.apply(spec_at(fx, i));
        if let Some(r) = adm.readvise {
            if i >= PHASE_LENGTH {
                *steady_full += r.full_repricings as u64;
            }
        }
        if i % REWEIGHT_EVERY == REWEIGHT_EVERY - 1 {
            let out = advisor.reweight(i, fx.weights[i] * REWEIGHT_FACTOR, false);
            if let Some(r) = out.readvise {
                if i >= PHASE_LENGTH {
                    *steady_full += r.full_repricings as u64;
                }
            }
        }
    }
}

/// The identical stream positions through the journaled advisor.
fn drive_durable(advisor: &mut PersistentAdvisor, fx: &Fixture, range: std::ops::Range<usize>) {
    for i in range {
        advisor.apply(spec_at(fx, i)).expect("journaled apply");
        if i % REWEIGHT_EVERY == REWEIGHT_EVERY - 1 {
            advisor
                .reweight(i, fx.weights[i] * REWEIGHT_FACTOR, false)
                .expect("journaled reweight");
        }
    }
}

/// Self-cleaning scratch directory (no external tempfile dependency).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("pinum-warm-restart-{tag}-{}", std::process::id()));
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

pub fn run(scale: f64) -> WarmRestartOutcome {
    println!(
        "A9: warm restart — {PHASES} phases × {PHASE_LENGTH} admissions, window {WINDOW}, \
         epoch {EPOCH}, reweight every {REWEIGHT_EVERY}, snapshot every {SNAPSHOT_EVERY}, \
         schema seed {SCHEMA_SEED:#x}, drift seed {DRIFT_SEED:#x}\n"
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

    // --- Uninterrupted in-memory baseline. ---
    let mut baseline = OnlineAdvisor::new(fx.pool.clone(), opts);
    let mut steady_full = 0u64;
    drive_volatile(&mut baseline, &fx, 0..n, &mut steady_full);
    let want = fingerprint(&baseline);

    // --- Kill/restore/finish runs. Hard kills land mid-phase, off the
    // snapshot cadence; the last run shuts down cleanly (explicit cut),
    // which is also where the snapshot wall is measured. ---
    let kills = [
        (PHASE_LENGTH / 2, false),
        (PHASE_LENGTH + PHASE_LENGTH / 2, false),
        (2 * PHASE_LENGTH + PHASE_LENGTH / 2, true),
    ];
    let mut points = Vec::new();
    let mut snapshot_wall = Duration::ZERO;
    for (run_idx, &(kill_after, clean)) in kills.iter().enumerate() {
        let scratch = ScratchDir::new(&format!("run{run_idx}"));
        let mut durable =
            PersistentAdvisor::create(&scratch.0, fx.pool.clone(), opts, SNAPSHOT_EVERY)
                .expect("create durable advisor");
        drive_durable(&mut durable, &fx, 0..kill_after);
        if clean {
            let snap_start = Instant::now();
            durable.snapshot_now().expect("snapshot before shutdown");
            snapshot_wall = snap_start.elapsed();
        }
        drop(durable); // the kill: nothing beyond the fsynced journal survives

        let restore_start = Instant::now();
        let (mut restored, report) =
            PersistentAdvisor::open(&scratch.0, SNAPSHOT_EVERY).expect("restore");
        let restore_wall = restore_start.elapsed();
        drive_durable(&mut restored, &fx, kill_after..n);
        let identical = fingerprint(restored.advisor()) == want;
        points.push(RestartPoint {
            kill_after,
            clean,
            replayed: report.replayed as u64,
            restore_wall,
            identical,
        });
    }

    // --- Report. ---
    let mut table = TextTable::new(vec![
        "kill after",
        "shutdown",
        "replayed tail",
        "restore wall",
        "bit-identical",
    ]);
    for p in &points {
        table.row(vec![
            p.kill_after.to_string(),
            if p.clean { "clean" } else { "hard kill" }.to_string(),
            p.replayed.to_string(),
            fmt_duration(p.restore_wall),
            p.identical.to_string(),
        ]);
    }
    println!("{}", table.render());
    let restart_identity = points.iter().all(|p| p.identical);
    let replayed_tail_total: u64 = points.iter().map(|p| p.replayed).sum();
    let restore_wall_max = points
        .iter()
        .map(|p| p.restore_wall)
        .max()
        .unwrap_or_default();
    println!(
        "restart identity: {restart_identity}; replayed tail total: {replayed_tail_total} \
         records; snapshot wall: {}; worst restore wall: {}; steady-state full re-pricings: \
         {steady_full}\n",
        fmt_duration(snapshot_wall),
        fmt_duration(restore_wall_max),
    );

    emit(
        "warm_restart",
        &JsonObject::new()
            .int("queries", n as u64)
            .int("candidates", fx.pool.len() as u64)
            .num("scale", scale)
            .int("budget_bytes", budget)
            .int("window", WINDOW as u64)
            .int("epoch", EPOCH as u64)
            .int("snapshot_every", SNAPSHOT_EVERY as u64)
            .bool("restart_identity", restart_identity)
            .int("replayed_tail_total", replayed_tail_total)
            .num("snapshot_wall_seconds", snapshot_wall.as_secs_f64())
            .num("restore_wall_seconds", restore_wall_max.as_secs_f64())
            .int("steady_full_repricings", steady_full)
            .int(
                "baseline_full_repricings",
                baseline.stats().full_repricings as u64,
            )
            .raw(
                "points",
                json_array(points.iter().map(|p| {
                    JsonObject::new()
                        .int("kill_after", p.kill_after as u64)
                        .bool("clean", p.clean)
                        .int("replayed", p.replayed)
                        .num("restore_wall_seconds", p.restore_wall.as_secs_f64())
                        .bool("identical", p.identical)
                        .render()
                })),
            ),
    );

    // --- Acceptance gates. ---
    assert!(
        restart_identity,
        "a restarted advisor diverged from the uninterrupted baseline"
    );
    for p in &points {
        if !p.clean {
            assert!(
                p.replayed > 0,
                "hard kill after {} admissions replayed no log tail — the kill point \
                 must land between snapshot cuts",
                p.kill_after
            );
        }
    }
    assert_eq!(
        steady_full, 0,
        "steady-state re-advises performed full re-pricings"
    );

    WarmRestartOutcome {
        queries: n,
        candidates: fx.pool.len(),
        points,
        restart_identity,
        replayed_tail_total,
        snapshot_wall,
        steady_full_repricings: steady_full,
    }
}
