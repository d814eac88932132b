//! The multi-tenant daemon over loopback TCP: N tenants stream
//! deterministic drift workloads concurrently through `pinum-server`,
//! and every tenant's outcome must be **bit-identical** to a
//! single-tenant in-process [`OnlineAdvisor`] replaying the same events.
//! Gates:
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
//!   every tenant's longest wait under [`WAIT_BOUND`] grant events. The
//!   wait depends on thread interleaving, so it is the one bound here
//!   that is not an exact value.
//!
//! Daemon throughput is measured by perfbench's `serve_*` workloads.

use crate::fixture::{drift_profile, schema, Drift, BUDGET};
use pinum_online::{OnlineAdvisor, OnlineAdvisorOptions, ReadviseReport};
use pinum_protocol::{Client, Request, Response, WireAdmission, WireBudgetStats};
use pinum_server::{convert, Server, ServerConfig};
use pinum_workload::drift::DriftStream;

/// Concurrent tenants (= shards of the sharded pass).
const TENANTS: usize = 4;

/// Per-tenant stream shape: phases × admissions per phase.
const PHASES: usize = 3;
const PHASE_LENGTH: usize = 16;

/// Advisor window/epoch for every tenant.
const WINDOW: usize = 32;
const EPOCH: usize = 16;

/// Global re-advise budget: permits shared by all tenants.
const BUDGET_PERMITS: usize = 2;

/// Per-tenant candidate pool cap.
const CANDIDATE_CAP: usize = 200;

/// Base drift seed; tenant `t` streams from `BASE + 131·t`.
const DRIFT_SEED_BASE: u64 = 0xA11A;

/// Every 5th admission is reweighted ×1.3 (exercises the deferred
/// reweight-triggered re-advise path over the wire).
const REWEIGHT_EVERY: usize = 5;
const REWEIGHT_FACTOR: f64 = 1.3;

/// Bound on any tenant's longest re-advise wait, in grant events (see
/// `pinum_server::budget` — aging keeps waits at queue-length scale;
/// 2×TENANTS is generous for equal-rate tenants).
const WAIT_BOUND: u64 = 2 * TENANTS as u64;

/// One tenant's end state, comparable across daemon and baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TenantRun {
    ids: Vec<u64>,
    cost_bits: u64,
    /// Re-advises observed (admission- and reweight-triggered).
    readvises: u64,
    /// Full re-pricings in re-advises triggered past phase 0.
    steady_full: u64,
    /// Lifetime full re-pricings (includes warmup).
    total_full: u64,
}

/// Counts re-advises, and the full re-pricings of those past phase 0.
#[derive(Default)]
struct Tally {
    readvises: u64,
    steady_full: u64,
}

impl Tally {
    fn add(&mut self, i: usize, full_repricings: Option<u64>) {
        if let Some(full) = full_repricings {
            self.readvises += 1;
            if i >= PHASE_LENGTH {
                self.steady_full += full;
            }
        }
    }
}

fn options() -> OnlineAdvisorOptions {
    OnlineAdvisorOptions {
        window_capacity: WINDOW,
        epoch_length: EPOCH,
        ..OnlineAdvisorOptions::defaults(BUDGET)
    }
}

fn is_reweighted(i: usize) -> bool {
    i % REWEIGHT_EVERY == REWEIGHT_EVERY - 1
}

/// The in-process baseline: the exact event sequence `drive_tenant`
/// sends over the wire, applied to a single-tenant advisor.
fn baseline(fx: &Drift) -> TenantRun {
    let mut advisor = OnlineAdvisor::new(fx.pool.clone(), options());
    let mut tally = Tally::default();
    let full = |r: Option<ReadviseReport>| r.map(|r| r.full_repricings as u64);
    for i in 0..fx.len() {
        tally.add(i, full(advisor.apply(fx.spec(i)).readvise));
        if is_reweighted(i) {
            let weight = fx.weights[i] * REWEIGHT_FACTOR;
            tally.add(i, full(advisor.reweight(i, weight, false).readvise));
        }
    }
    TenantRun {
        ids: advisor.selection().ids().map(|i| i as u64).collect(),
        cost_bits: advisor.current_cost().to_bits(),
        readvises: tally.readvises,
        steady_full: tally.steady_full,
        total_full: advisor.stats().full_repricings as u64,
    }
}

/// Encodes a tenant's admissions once; both server passes replay the
/// identical bytes.
fn wire_admissions(fx: &Drift) -> Vec<WireAdmission> {
    (0..fx.len())
        .map(|i| WireAdmission {
            cache: convert::cache_to_wire(&fx.models[i].0),
            access: convert::access_to_wire(&fx.models[i].1),
            weight: fx.weights[i],
            templates: fx.templates[i]
                .iter()
                .map(convert::template_to_wire)
                .collect(),
        })
        .collect()
}

/// Drives one tenant's stream through a wire client against a running
/// daemon; returns its end state plus the budget accounting.
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: u64,
    fx: &Drift,
    admissions: &[WireAdmission],
) -> (TenantRun, WireBudgetStats) {
    let mut client = Client::connect(addr).expect("connect tenant client");
    let resp = client
        .call(&Request::CreateTenant {
            tenant,
            pool: convert::pool_to_wire(&fx.pool),
            options: convert::options_to_wire(&options()).expect("options are wire-expressible"),
        })
        .expect("create tenant");
    assert!(
        matches!(resp, Response::TenantCreated { tenant: t } if t == tenant),
        "create tenant {tenant}: {resp:?}"
    );

    let mut tally = Tally::default();
    for (i, admission) in admissions.iter().enumerate() {
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
        tally.add(i, results[0].readvise.as_ref().map(|r| r.full_repricings));
        if is_reweighted(i) {
            let resp = client
                .call(&Request::ReweightAdmission {
                    tenant,
                    admission: i as u64,
                    weight: fx.weights[i] * REWEIGHT_FACTOR,
                })
                .expect("reweight");
            let Response::Reweighted { applied, readvise } = resp else {
                panic!("tenant {tenant} reweight {i}: {resp:?}");
            };
            assert!(applied, "tenant {tenant} reweight {i} missed its window");
            tally.add(i, readvise.map(|r| r.full_repricings));
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
            readvises: tally.readvises,
            steady_full: tally.steady_full,
            total_full: stats.full_repricings,
        },
        budget,
    )
}

/// Runs every tenant concurrently against a fresh daemon with the given
/// shard count; returns per-tenant results.
fn run_server_pass(
    shards: usize,
    tenants: &[(Drift, Vec<WireAdmission>)],
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
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(t, (fx, wire))| scope.spawn(move || drive_tenant(addr, t as u64, fx, wire)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    server.shutdown();
    results
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let schema = schema();
    let tenants: Vec<(Drift, Vec<WireAdmission>)> = (0..TENANTS as u64)
        .map(|t| {
            let profile = drift_profile(PHASES, PHASE_LENGTH, 1.2);
            let stream = DriftStream::new(&schema, DRIFT_SEED_BASE + 131 * t, profile);
            let fx = Drift::new(&schema, stream, CANDIDATE_CAP);
            let wire = wire_admissions(&fx);
            (fx, wire)
        })
        .collect();
    let baselines: Vec<TenantRun> = tenants.iter().map(|(fx, _)| baseline(fx)).collect();

    let sharded = run_server_pass(TENANTS, &tenants);
    let serialized = run_server_pass(1, &tenants);

    // Determinism: every pass, every tenant, bit for bit.
    for (pass, results) in [("sharded", &sharded), ("1-shard", &serialized)] {
        for (t, ((run, _), want)) in results.iter().zip(&baselines).enumerate() {
            assert_eq!(run, want, "tenant {t} diverged over the {pass} daemon");
        }
    }
    let max_quality_ratio = sharded
        .iter()
        .zip(&baselines)
        .map(|((run, _), want)| {
            f64::from_bits(run.cost_bits) / f64::from_bits(want.cost_bits).max(1e-9)
        })
        .fold(0.0, f64::max);
    assert_eq!(max_quality_ratio.to_bits(), 1.0f64.to_bits());

    let steady_full: u64 = sharded.iter().map(|(run, _)| run.steady_full).sum();
    assert_eq!(
        steady_full, 0,
        "steady-state re-advises performed full re-pricings over the wire"
    );
    let readvises: Vec<_> = sharded.iter().map(|(run, _)| run.readvises).collect();
    assert_eq!(readvises, [6, 5, 5, 6]);

    let max_wait_events = sharded
        .iter()
        .map(|(_, budget)| budget.max_wait_events)
        .max()
        .unwrap_or(0);
    assert!(
        max_wait_events <= WAIT_BOUND,
        "budget aging failed: a tenant waited {max_wait_events} grant events (bound {WAIT_BOUND})"
    );
}
