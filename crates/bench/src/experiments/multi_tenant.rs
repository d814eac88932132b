//! A8 — the multi-tenant daemon over loopback TCP: N tenants stream
//! deterministic drift workloads concurrently through `pinum-server`
//! and every tenant's outcome must be **bit-identical** to a
//! single-tenant in-process [`OnlineAdvisor`] replaying the same events.
//!
//! Gated claims:
//!
//! * **wire determinism** — per tenant, the daemon's final selection ids
//!   and priced cost bits equal the in-process baseline's exactly, for a
//!   1-shard and a fully-sharded server alike (the shard workers are
//!   each tenant's only mutator, so deferred budget-gated re-advises
//!   compute exactly what inline ones would);
//! * **zero steady-state full re-pricings per tenant** — past the first
//!   drift phase, no tenant's re-advise performs a `price_full`, over
//!   the wire just as in-process;
//! * **bounded re-advise wait** — the global budget's aging queue keeps
//!   every tenant's longest wait under [`WAIT_BOUND`] grant events, no
//!   matter the interleaving.
//!
//! Daemon throughput is measured by perfbench's `serve_*` workloads, not
//! here.

use crate::fixtures::SCHEMA_SEED;
use crate::json::{emit, json_array, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::generate_candidates;
use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::{query_templates, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_optimizer::Optimizer;
use pinum_protocol::{Client, Request, Response, WireAdmission, WireBudgetStats};
use pinum_query::Query;
use pinum_server::{convert, Server, ServerConfig};
use pinum_workload::drift::{DriftProfile, DriftStream};
use pinum_workload::star::StarSchema;
use std::time::Instant;

/// Concurrent tenants (= shards of the sharded pass).
pub const TENANTS: usize = 4;

/// Per-tenant stream shape: phases × admissions per phase.
pub const PHASES: usize = 3;
pub const PHASE_LENGTH: usize = 16;

/// Advisor window/epoch for every tenant.
pub const WINDOW: usize = 32;
pub const EPOCH: usize = 16;

/// Global re-advise budget: permits shared by all tenants.
pub const BUDGET_PERMITS: usize = 2;

/// Per-tenant candidate pool cap.
pub const CANDIDATE_CAP: usize = 200;

/// Base drift seed; tenant `t` streams from `BASE + 131·t`.
pub const DRIFT_SEED_BASE: u64 = 0xA11A;

/// Every 5th admission is reweighted ×1.3 (exercises the deferred
/// reweight-triggered re-advise path over the wire).
pub const REWEIGHT_EVERY: usize = 5;
pub const REWEIGHT_FACTOR: f64 = 1.3;

/// Acceptance bound on any tenant's longest re-advise wait, in grant
/// events (see `pinum_server::budget` — aging keeps waits at queue-length
/// scale; 2×TENANTS is generous for equal-rate tenants).
pub const WAIT_BOUND: u64 = 2 * TENANTS as u64;

/// One tenant's precomputed stream: wire-ready admissions plus the
/// domain-side models the in-process baseline replays.
pub struct TenantFixture {
    pub pool: CandidatePool,
    pub queries: Vec<(Query, f64)>,
    pub models: Vec<(PlanCache, AccessCostCatalog)>,
    pub wire_admissions: Vec<WireAdmission>,
}

/// One tenant's end state, comparable across daemon and baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRun {
    pub ids: Vec<u64>,
    pub cost_bits: u64,
    /// Re-advises observed (admission- and reweight-triggered + forced).
    pub readvises: u64,
    /// Full re-pricings in re-advises triggered past phase 0.
    pub steady_full: u64,
    /// Lifetime full re-pricings (includes warmup).
    pub total_full: u64,
}

pub struct MultiTenantOutcome {
    pub tenants: usize,
    pub queries_per_tenant: usize,
    pub identical: bool,
    pub max_quality_ratio: f64,
    pub steady_full_repricings: u64,
    pub max_wait_events: u64,
}

fn options(budget_bytes: u64) -> OnlineAdvisorOptions {
    OnlineAdvisorOptions {
        window_capacity: WINDOW,
        epoch_length: EPOCH,
        ..OnlineAdvisorOptions::defaults(budget_bytes)
    }
}

fn fixture(schema: &StarSchema, optimizer: &Optimizer, drift_seed: u64) -> TenantFixture {
    let profile = DriftProfile {
        phases: PHASES,
        phase_length: PHASE_LENGTH,
        edge_window: 4,
        churn: 0.05,
        growth_per_phase: 1.2,
    };
    let stream: Vec<_> = DriftStream::new(schema, drift_seed, profile).collect();
    let queries: Vec<(Query, f64)> = stream.into_iter().map(|d| (d.query, d.weight)).collect();
    let only: Vec<Query> = queries.iter().map(|(q, _)| q.clone()).collect();
    let full_pool = generate_candidates(&schema.catalog, &only);
    let pool = if full_pool.len() > CANDIDATE_CAP {
        CandidatePool::from_indexes(full_pool.indexes()[..CANDIDATE_CAP].to_vec())
    } else {
        full_pool
    };
    let models: Vec<(PlanCache, AccessCostCatalog)> = only
        .iter()
        .map(|q| {
            let built = build_cache_pinum(optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(optimizer, q, &pool);
            (built.cache, access)
        })
        .collect();
    // Encode once, outside any timed region; both server passes replay
    // the identical bytes.
    let wire_admissions = models
        .iter()
        .zip(&queries)
        .map(|((cache, access), (query, weight))| WireAdmission {
            cache: convert::cache_to_wire(cache),
            access: convert::access_to_wire(access),
            weight: *weight,
            templates: query_templates(query)
                .iter()
                .map(convert::template_to_wire)
                .collect(),
        })
        .collect();
    TenantFixture {
        pool,
        queries,
        models,
        wire_admissions,
    }
}

/// The in-process baseline: the exact event sequence `drive_tenant`
/// sends over the wire, applied to a single-tenant advisor.
fn baseline(fx: &TenantFixture, opts: &OnlineAdvisorOptions) -> TenantRun {
    let mut advisor = OnlineAdvisor::new(fx.pool.clone(), *opts);
    let mut readvises = 0u64;
    let mut steady_full = 0u64;
    let mut tally = |i: usize, report: Option<pinum_online::ReadviseReport>| {
        if let Some(r) = report {
            readvises += 1;
            if i >= PHASE_LENGTH {
                steady_full += r.full_repricings as u64;
            }
        }
    };
    for (i, (cache, access)) in fx.models.iter().enumerate() {
        let (query, weight) = &fx.queries[i];
        let templates = query_templates(query);
        let adm = advisor.apply(
            AdmissionSpec::new(cache, access)
                .weight(*weight)
                .templates(&templates),
        );
        tally(i, adm.readvise);
        if i % REWEIGHT_EVERY == REWEIGHT_EVERY - 1 {
            tally(
                i,
                advisor
                    .reweight(i, *weight * REWEIGHT_FACTOR, false)
                    .readvise,
            );
        }
    }
    TenantRun {
        ids: advisor.selection().ids().map(|i| i as u64).collect(),
        cost_bits: advisor.current_cost().to_bits(),
        readvises,
        steady_full,
        total_full: advisor.stats().full_repricings as u64,
    }
}

/// Drives one tenant's stream through a wire client against a running
/// daemon; returns its end state plus the budget accounting.
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: u64,
    fx: &TenantFixture,
    opts: &OnlineAdvisorOptions,
) -> (TenantRun, WireBudgetStats) {
    let mut client = Client::connect(addr).expect("connect tenant client");
    let resp = client
        .call(&Request::CreateTenant {
            tenant,
            pool: convert::pool_to_wire(&fx.pool),
            options: convert::options_to_wire(opts).expect("options are wire-expressible"),
        })
        .expect("create tenant");
    assert!(
        matches!(resp, Response::TenantCreated { tenant: t } if t == tenant),
        "create tenant {tenant}: {resp:?}"
    );

    let mut readvises = 0u64;
    let mut steady_full = 0u64;
    let mut tally = |i: usize, report: &Option<pinum_protocol::WireReadviseReport>| {
        if let Some(r) = report {
            readvises += 1;
            if i >= PHASE_LENGTH {
                steady_full += r.full_repricings;
            }
        }
    };
    for (i, admission) in fx.wire_admissions.iter().enumerate() {
        let resp = client
            .call(&Request::AdmitQuery {
                tenant,
                admission: admission.clone(),
            })
            .expect("admit");
        let Response::Admitted { results } = resp else {
            panic!("tenant {tenant} admit {i}: {resp:?}");
        };
        assert_eq!(
            results[0].ordinal, i as u64,
            "tenant {tenant} ordinal drift"
        );
        tally(i, &results[0].readvise);
        if i % REWEIGHT_EVERY == REWEIGHT_EVERY - 1 {
            let resp = client
                .call(&Request::ReweightAdmission {
                    tenant,
                    admission: i as u64,
                    weight: fx.queries[i].1 * REWEIGHT_FACTOR,
                })
                .expect("reweight");
            let Response::Reweighted { applied, readvise } = resp else {
                panic!("tenant {tenant} reweight {i}: {resp:?}");
            };
            assert!(applied, "tenant {tenant} reweight {i} missed its window");
            tally(i, &readvise);
        }
    }

    let Response::Selection { ids, cost, .. } = client
        .call(&Request::GetSelection { tenant })
        .expect("selection")
    else {
        panic!("tenant {tenant}: unexpected selection reply");
    };
    let Response::Stats { stats, budget } =
        client.call(&Request::GetStats { tenant }).expect("stats")
    else {
        panic!("tenant {tenant}: unexpected stats reply");
    };
    (
        TenantRun {
            ids,
            cost_bits: cost.to_bits(),
            readvises,
            steady_full,
            total_full: stats.full_repricings,
        },
        budget,
    )
}

/// Runs every tenant concurrently against a fresh daemon with the given
/// shard count; returns per-tenant results.
fn run_server_pass(
    shards: usize,
    fixtures: &[TenantFixture],
    opts: &OnlineAdvisorOptions,
) -> Vec<(TenantRun, WireBudgetStats)> {
    let server = Server::start(
        ("127.0.0.1", 0),
        ServerConfig {
            shards,
            budget: BUDGET_PERMITS,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = fixtures
            .iter()
            .enumerate()
            .map(|(t, fx)| {
                let opts = *opts;
                scope.spawn(move || drive_tenant(addr, t as u64, fx, &opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    server.shutdown();
    results
}

pub fn run(scale: f64) -> MultiTenantOutcome {
    println!(
        "A8: multi-tenant daemon — {TENANTS} tenants × {PHASES}×{PHASE_LENGTH} admissions over \
         loopback TCP, window {WINDOW}, epoch {EPOCH}, re-advise budget {BUDGET_PERMITS}, \
         reweight every {REWEIGHT_EVERY} ×{REWEIGHT_FACTOR}, schema seed {SCHEMA_SEED:#x}, \
         drift seeds {DRIFT_SEED_BASE:#x}+131t\n"
    );
    let build_start = Instant::now();
    let schema = StarSchema::generate(SCHEMA_SEED, scale);
    let optimizer = Optimizer::new(&schema.catalog);
    let fixtures: Vec<TenantFixture> = (0..TENANTS as u64)
        .map(|t| fixture(&schema, &optimizer, DRIFT_SEED_BASE + 131 * t))
        .collect();
    let budget_bytes = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64;
    let opts = options(budget_bytes);
    println!(
        "built {} per-tenant PINUM models ({} queries × {TENANTS} tenants, pools of {}) in {}\n",
        fixtures.iter().map(|f| f.models.len()).sum::<usize>(),
        fixtures[0].models.len(),
        fixtures
            .iter()
            .map(|f| f.pool.len().to_string())
            .collect::<Vec<_>>()
            .join("/"),
        fmt_duration(build_start.elapsed())
    );

    let baselines: Vec<TenantRun> = fixtures.iter().map(|fx| baseline(fx, &opts)).collect();

    let sharded = run_server_pass(TENANTS, &fixtures, &opts);
    let serialized = run_server_pass(1, &fixtures, &opts);

    // --- Determinism: every pass, every tenant, bit for bit. ---
    let mut identical = true;
    for (pass_name, results) in [("sharded", &sharded), ("1-shard", &serialized)] {
        for (t, ((run, _), want)) in results.iter().zip(&baselines).enumerate() {
            if run != want {
                identical = false;
                println!(
                    "DIVERGED: tenant {t} over the {pass_name} daemon\n  got  {run:?}\n  \
                     want {want:?}"
                );
            }
        }
    }
    let max_quality_ratio = sharded
        .iter()
        .zip(&baselines)
        .map(|((run, _), want)| {
            f64::from_bits(run.cost_bits) / f64::from_bits(want.cost_bits).max(1e-9)
        })
        .fold(0.0, f64::max);

    let steady_full_repricings: u64 = sharded.iter().map(|(run, _)| run.steady_full).sum();
    let max_wait_events = sharded
        .iter()
        .map(|(_, budget)| budget.max_wait_events)
        .max()
        .unwrap_or(0);

    // --- Report. ---
    let mut table = TextTable::new(vec![
        "tenant",
        "queries",
        "selection",
        "re-advises",
        "steady full reprices",
        "budget grants",
        "waits",
        "max wait (events)",
    ]);
    for (t, (run, budget)) in sharded.iter().enumerate() {
        table.row(vec![
            t.to_string(),
            fixtures[t].models.len().to_string(),
            format!("{} indexes", run.ids.len()),
            run.readvises.to_string(),
            run.steady_full.to_string(),
            budget.grants.to_string(),
            budget.waits.to_string(),
            budget.max_wait_events.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!(
        "determinism: {}; max wait {max_wait_events} grant events (bound {WAIT_BOUND})\n",
        if identical {
            "bit-identical to in-process baselines"
        } else {
            "DIVERGED"
        },
    );

    emit(
        "multi_tenant",
        &JsonObject::new()
            .int("tenants", TENANTS as u64)
            .int("queries_per_tenant", fixtures[0].models.len() as u64)
            .num("scale", scale)
            .int("budget_permits", BUDGET_PERMITS as u64)
            .bool("identical", identical)
            .num("max_quality_ratio", max_quality_ratio)
            .int("steady_full_repricings", steady_full_repricings)
            .int("max_wait_events", max_wait_events)
            .int("wait_bound", WAIT_BOUND)
            .bool("wait_bound_ok", max_wait_events <= WAIT_BOUND)
            .raw(
                "points",
                json_array(sharded.iter().enumerate().map(|(t, (run, budget))| {
                    JsonObject::new()
                        .int("tenant", t as u64)
                        .int("selected", run.ids.len() as u64)
                        .int("readvises", run.readvises)
                        .int("steady_full_repricings", run.steady_full)
                        .int("total_full_repricings", run.total_full)
                        .int("budget_grants", budget.grants)
                        .int("budget_waits", budget.waits)
                        .int("max_wait_events", budget.max_wait_events)
                        .render()
                })),
            ),
    );

    // --- Acceptance gates. ---
    assert!(
        identical,
        "a daemon tenant diverged from its in-process baseline"
    );
    assert_eq!(
        steady_full_repricings, 0,
        "steady-state re-advises performed full re-pricings over the wire"
    );
    assert!(
        sharded.iter().all(|(run, _)| run.readvises > 0),
        "some tenant never re-advised — the stream exercised nothing"
    );
    assert!(
        max_wait_events <= WAIT_BOUND,
        "budget aging failed: a tenant waited {max_wait_events} grant events (bound {WAIT_BOUND})"
    );

    MultiTenantOutcome {
        tenants: TENANTS,
        queries_per_tenant: fixtures[0].models.len(),
        identical,
        max_quality_ratio,
        steady_full_repricings,
        max_wait_events,
    }
}
