//! End-to-end daemon tests over loopback TCP: the wire determinism
//! contract (daemon tenants are bit-identical to in-process advisors),
//! typed error behavior, and hostile-input survival.

use pinum_core::access_costs::{collect_pinum, AccessCostCatalog};
use pinum_core::builder::{build_cache_pinum, BuilderOptions};
use pinum_core::{CandidatePool, PlanCache};
use pinum_online::{query_templates, AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_optimizer::Optimizer;
use pinum_protocol::{Client, ErrorCode, Request, Response, WireAdmission, WireOptions};
use pinum_query::{Query, TemplateKey};
use pinum_server::{convert, Server, ServerConfig};
use pinum_workload::drift::{DriftProfile, DriftStream};
use pinum_workload::star::StarSchema;

const BUDGET_BYTES: u64 = 1 << 30;

struct Fixture {
    queries: Vec<(Query, f64)>,
    pool: CandidatePool,
    models: Vec<(PlanCache, AccessCostCatalog)>,
}

/// Same construction as the online crate's own tests: a small drifting
/// stream priced against a generated candidate pool.
fn fixture(drift_seed: u64, phases: usize, phase_length: usize) -> Fixture {
    let schema = StarSchema::generate(42, 0.001);
    let profile = DriftProfile {
        phases,
        phase_length,
        edge_window: 3,
        churn: 0.05,
        growth_per_phase: 1.0,
    };
    let stream: Vec<_> = DriftStream::new(&schema, drift_seed, profile).collect();
    let queries: Vec<(Query, f64)> = stream.into_iter().map(|d| (d.query, d.weight)).collect();
    let only: Vec<Query> = queries.iter().map(|(q, _)| q.clone()).collect();
    let pool = pinum_advisor::candidates::generate_candidates(&schema.catalog, &only);
    let optimizer = Optimizer::new(&schema.catalog);
    let models = only
        .iter()
        .map(|q| {
            let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
            let (access, _) = collect_pinum(&optimizer, q, &pool);
            (built.cache, access)
        })
        .collect();
    Fixture {
        queries,
        pool,
        models,
    }
}

fn options(window: usize, epoch: usize) -> OnlineAdvisorOptions {
    OnlineAdvisorOptions {
        window_capacity: window,
        epoch_length: epoch,
        ..OnlineAdvisorOptions::defaults(BUDGET_BYTES)
    }
}

fn wire_options(opts: &OnlineAdvisorOptions) -> WireOptions {
    convert::options_to_wire(opts).expect("test options are wire-expressible")
}

fn wire_admission(
    cache: &PlanCache,
    access: &AccessCostCatalog,
    weight: f64,
    templates: &[TemplateKey],
) -> WireAdmission {
    WireAdmission {
        cache: convert::cache_to_wire(cache),
        access: convert::access_to_wire(access),
        weight,
        templates: templates.iter().map(convert::template_to_wire).collect(),
    }
}

/// Drives one tenant's whole stream through a wire client and returns
/// the daemon's final (ids, cost bits, full_repricings).
fn drive_tenant(
    addr: std::net::SocketAddr,
    tenant: u64,
    fx: &Fixture,
    opts: &OnlineAdvisorOptions,
) -> (Vec<u64>, u64, u64) {
    let mut client = Client::connect(addr).expect("connect");
    let resp = client
        .call(&Request::CreateTenant {
            tenant,
            pool: convert::pool_to_wire(&fx.pool),
            options: wire_options(opts),
        })
        .expect("create tenant");
    assert!(matches!(resp, Response::TenantCreated { tenant: t } if t == tenant));

    for (i, (cache, access)) in fx.models.iter().enumerate() {
        let (query, weight) = &fx.queries[i];
        let templates = query_templates(query);
        let resp = client
            .call(&Request::AdmitQuery {
                tenant,
                admission: wire_admission(cache, access, *weight, &templates),
            })
            .expect("admit");
        let Response::Admitted { results } = resp else {
            panic!("unexpected admit reply: {resp:?}");
        };
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].ordinal, i as u64);
        // Exercise the deferred reweight path over the wire too.
        if i % 4 == 3 {
            let resp = client
                .call(&Request::ReweightAdmission {
                    tenant,
                    admission: i as u64,
                    weight: *weight * 1.5,
                })
                .expect("reweight");
            assert!(matches!(resp, Response::Reweighted { applied: true, .. }));
        }
    }

    let Response::Selection {
        ids,
        total_bytes,
        cost,
    } = client
        .call(&Request::GetSelection { tenant })
        .expect("selection")
    else {
        panic!("unexpected selection reply");
    };
    assert_eq!(total_bytes, {
        let sel = pinum_core::Selection::from_ids(
            fx.pool.indexes().len(),
            &ids.iter().map(|&i| i as usize).collect::<Vec<_>>(),
        );
        fx.pool.selection_bytes(&sel)
    });
    let Response::Stats { stats, .. } = client.call(&Request::GetStats { tenant }).expect("stats")
    else {
        panic!("unexpected stats reply");
    };
    (ids, cost.to_bits(), stats.full_repricings)
}

/// The same stream applied to an in-process advisor (the baseline the
/// daemon must match bit for bit).
fn baseline(fx: &Fixture, opts: &OnlineAdvisorOptions) -> (Vec<u64>, u64, u64) {
    let mut advisor = OnlineAdvisor::new(fx.pool.clone(), *opts);
    for (i, (cache, access)) in fx.models.iter().enumerate() {
        let (query, weight) = &fx.queries[i];
        let templates = query_templates(query);
        advisor.apply(
            AdmissionSpec::new(cache, access)
                .weight(*weight)
                .templates(&templates),
        );
        if i % 4 == 3 {
            advisor.reweight(i, *weight * 1.5, false);
        }
    }
    (
        advisor.selection().ids().map(|i| i as u64).collect(),
        advisor.current_cost().to_bits(),
        advisor.stats().full_repricings as u64,
    )
}

#[test]
fn daemon_tenants_are_bit_identical_to_in_process_advisors() {
    // Two shards, two tenants driven concurrently from separate
    // connections: the shard serialization must keep each tenant's
    // results exactly what a single-threaded embedding computes, even on
    // a 1-core box.
    let server = Server::start(
        ("127.0.0.1", 0),
        ServerConfig {
            shards: 2,
            budget: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    let opts = options(12, 5);

    let fixtures: Vec<Fixture> = vec![fixture(9, 3, 10), fixture(11, 3, 10)];
    let expected: Vec<_> = fixtures.iter().map(|fx| baseline(fx, &opts)).collect();

    let got: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = fixtures
            .iter()
            .enumerate()
            .map(|(t, fx)| scope.spawn(move || drive_tenant(addr, t as u64, fx, &opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });

    for (tenant, (got, want)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(got.0, want.0, "tenant {tenant} selection diverged");
        assert_eq!(got.1, want.1, "tenant {tenant} cost bits diverged");
        assert_eq!(got.2, want.2, "tenant {tenant} full_repricings diverged");
    }
    server.shutdown();
}

#[test]
fn tenant_errors_are_typed() {
    let server = Server::start(("127.0.0.1", 0), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let resp = client
        .call(&Request::GetSelection { tenant: 99 })
        .expect("call");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownTenant,
                ..
            }
        ),
        "got {resp:?}"
    );

    let fx = fixture(9, 2, 4);
    let create = Request::CreateTenant {
        tenant: 7,
        pool: convert::pool_to_wire(&fx.pool),
        options: wire_options(&options(8, 4)),
    };
    assert!(matches!(
        client.call(&create).expect("create"),
        Response::TenantCreated { tenant: 7 }
    ));
    let resp = client.call(&create).expect("duplicate create");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::TenantExists,
                ..
            }
        ),
        "got {resp:?}"
    );

    // A structurally valid frame whose payload violates a domain
    // invariant: a zero-length window cannot construct an advisor.
    let mut bad_options = wire_options(&options(8, 4));
    bad_options.window_capacity = 0;
    let resp = client
        .call(&Request::CreateTenant {
            tenant: 8,
            pool: convert::pool_to_wire(&fx.pool),
            options: bad_options,
        })
        .expect("bad create");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "got {resp:?}"
    );

    // Reweighting an ordinal that was never issued is a typed error, not
    // a daemon panic.
    let resp = client
        .call(&Request::ReweightAdmission {
            tenant: 7,
            admission: 1_000,
            weight: 2.0,
        })
        .expect("reweight unknown ordinal");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "got {resp:?}"
    );
    server.shutdown();
}

#[test]
fn hostile_frames_get_typed_errors_and_the_connection_survives() {
    use std::io::{Read, Write};

    let server = Server::start(("127.0.0.1", 0), ServerConfig::default()).expect("start server");
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect raw");
    raw.set_nodelay(true).expect("nodelay");

    // Intact framing, garbage payload: the current version, request id
    // 77, then an unknown tag. The daemon must answer with a typed error
    // on the same connection.
    let mut frame = Vec::new();
    let payload = {
        let mut p = vec![pinum_protocol::WIRE_VERSION];
        p.extend_from_slice(&77u64.to_le_bytes());
        p.push(250); // unknown request tag
        p
    };
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    raw.write_all(&frame).expect("write hostile frame");

    // Read the reply with the protocol reader to confirm it is a
    // well-formed typed error echoing the hostile frame's request id.
    let reply = pinum_protocol::read_response(&mut raw).expect("read reply");
    match reply {
        pinum_protocol::FrameIn::Msg { request_id, msg } => {
            assert_eq!(request_id, 77);
            assert!(
                matches!(
                    msg,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        ..
                    }
                ),
                "got {msg:?}"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Same connection must still serve healthy requests.
    let mut healthy = Vec::new();
    pinum_protocol::write_request(&mut healthy, 78, &Request::GetSelection { tenant: 1 })
        .expect("encode healthy");
    raw.write_all(&healthy).expect("write healthy");
    match pinum_protocol::read_response(&mut raw).expect("read healthy reply") {
        pinum_protocol::FrameIn::Msg { request_id, msg } => {
            assert_eq!(request_id, 78);
            assert!(matches!(
                msg,
                Response::Error {
                    code: ErrorCode::UnknownTenant,
                    ..
                }
            ));
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // An oversized length prefix is fatal by design: the daemon drops
    // the connection (no 64 MiB allocation, no panic) and keeps serving
    // new ones.
    let mut oversized = std::net::TcpStream::connect(server.addr()).expect("connect oversized");
    oversized
        .write_all(&u32::MAX.to_le_bytes())
        .expect("write hostile length");
    let mut buf = [0u8; 1];
    let n = oversized.read(&mut buf).expect("peer closes cleanly");
    assert_eq!(n, 0, "daemon should close an oversized-frame connection");

    let mut client = Client::connect(server.addr()).expect("fresh connection");
    let resp = client
        .call(&Request::GetSelection { tenant: 1 })
        .expect("daemon still alive");
    assert!(matches!(
        resp,
        Response::Error {
            code: ErrorCode::UnknownTenant,
            ..
        }
    ));
    server.shutdown();
}

/// Self-cleaning scratch directory (no external tempfile dependency).
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "pinum-daemon-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
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

#[test]
fn restarted_daemon_resumes_bit_identically_over_the_wire() {
    let scratch = ScratchDir::new("warm-restart");
    let config = ServerConfig {
        shards: 2,
        budget: 1,
        snapshot_dir: Some(scratch.0.clone()),
        snapshot_every: 4,
    };
    let fx = fixture(9, 3, 10);
    let opts = options(12, 5);
    let expected = baseline(&fx, &opts);
    let tenant = 5u64;
    let split = fx.models.len() / 2;

    // First daemon: create the tenant and admit the first half of the
    // stream, then stop without any orderly per-tenant flush — the
    // journal plus the periodic snapshots must carry the state over.
    let server = Server::start(("127.0.0.1", 0), config.clone()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client
        .call(&Request::CreateTenant {
            tenant,
            pool: convert::pool_to_wire(&fx.pool),
            options: wire_options(&opts),
        })
        .expect("create tenant");
    assert!(matches!(resp, Response::TenantCreated { .. }));
    for (i, (cache, access)) in fx.models.iter().take(split).enumerate() {
        let (query, weight) = &fx.queries[i];
        let templates = query_templates(query);
        let resp = client
            .call(&Request::AdmitQuery {
                tenant,
                admission: wire_admission(cache, access, *weight, &templates),
            })
            .expect("admit");
        assert!(matches!(resp, Response::Admitted { .. }));
        if i % 4 == 3 {
            let resp = client
                .call(&Request::ReweightAdmission {
                    tenant,
                    admission: i as u64,
                    weight: *weight * 1.5,
                })
                .expect("reweight");
            assert!(matches!(resp, Response::Reweighted { applied: true, .. }));
        }
    }
    // The explicit snapshot request answers with the journal position.
    let resp = client
        .call(&Request::SnapshotNow { tenant })
        .expect("snapshot now");
    let Response::SnapshotTaken { log_seq } = resp else {
        panic!("unexpected snapshot reply: {resp:?}");
    };
    let resp = client
        .call(&Request::TenantEpoch { tenant })
        .expect("tenant epoch");
    assert!(
        matches!(
            resp,
            Response::Epoch {
                durable: true,
                log_seq: l,
                snapshot_seq: Some(s),
                ..
            } if l == log_seq && s == log_seq
        ),
        "got {resp:?}"
    );
    drop(client);
    server.shutdown();

    // Second daemon on the same directory: the tenant must already be
    // there (no CreateTenant) and finish the stream bit-identically.
    let server = Server::start(("127.0.0.1", 0), config).expect("restart server");
    let mut client = Client::connect(server.addr()).expect("reconnect");
    let resp = client
        .call(&Request::TenantEpoch { tenant })
        .expect("epoch after restart");
    assert!(
        matches!(resp, Response::Epoch { durable: true, log_seq: l, .. } if l >= log_seq),
        "got {resp:?}"
    );
    for (i, (cache, access)) in fx.models.iter().enumerate().skip(split) {
        let (query, weight) = &fx.queries[i];
        let templates = query_templates(query);
        let resp = client
            .call(&Request::AdmitQuery {
                tenant,
                admission: wire_admission(cache, access, *weight, &templates),
            })
            .expect("admit after restart");
        let Response::Admitted { results } = resp else {
            panic!("unexpected admit reply: {resp:?}");
        };
        assert_eq!(results[0].ordinal, i as u64, "ordinals continue seamlessly");
        if i % 4 == 3 {
            let resp = client
                .call(&Request::ReweightAdmission {
                    tenant,
                    admission: i as u64,
                    weight: *weight * 1.5,
                })
                .expect("reweight after restart");
            assert!(matches!(resp, Response::Reweighted { applied: true, .. }));
        }
    }
    let Response::Selection { ids, cost, .. } = client
        .call(&Request::GetSelection { tenant })
        .expect("selection")
    else {
        panic!("unexpected selection reply");
    };
    let Response::Stats { stats, .. } = client.call(&Request::GetStats { tenant }).expect("stats")
    else {
        panic!("unexpected stats reply");
    };
    assert_eq!(ids, expected.0, "selection diverged across restart");
    assert_eq!(cost.to_bits(), expected.1, "cost bits diverged");
    assert_eq!(
        stats.full_repricings, expected.2,
        "full re-pricings diverged"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn create_tenant_over_an_unrecovered_tenant_is_refused_and_leaves_its_files() {
    let scratch = ScratchDir::new("unrecovered");
    let config = ServerConfig {
        shards: 1,
        budget: 1,
        snapshot_dir: Some(scratch.0.clone()),
        snapshot_every: 4,
    };
    let fx = fixture(9, 2, 4);
    let opts = options(8, 4);
    let tenant = 6u64;
    let create = Request::CreateTenant {
        tenant,
        pool: convert::pool_to_wire(&fx.pool),
        options: wire_options(&opts),
    };

    let server = Server::start(("127.0.0.1", 0), config.clone()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.call(&create).expect("create tenant");
    assert!(matches!(resp, Response::TenantCreated { .. }));
    for (i, (cache, access)) in fx.models.iter().enumerate() {
        let (query, weight) = &fx.queries[i];
        let admission = wire_admission(cache, access, *weight, &query_templates(query));
        let resp = client
            .call(&Request::AdmitQuery { tenant, admission })
            .expect("admit");
        assert!(matches!(resp, Response::Admitted { .. }));
    }
    drop(client);
    server.shutdown();

    // Corrupt the log inside its `Create` record, i.e. before the snapshot
    // cut: the tenant no longer recovers, and the restarted daemon skips it.
    let dir = pinum_server::daemon::tenant_dir(&scratch.0, tenant);
    let log = dir.join(pinum_persist::LOG_FILE);
    let mut bytes = std::fs::read(&log).expect("read log");
    bytes[99] ^= 0xFF;
    std::fs::write(&log, bytes).expect("write log");
    let contents = || {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("read tenant dir")
            .map(|e| {
                let path = e.expect("entry").path();
                let bytes = std::fs::read(&path).expect("read file");
                (path, bytes)
            })
            .collect();
        files.sort();
        files
    };
    let before = contents();
    assert!(before.len() > 1, "the log and at least one snapshot");

    let server = Server::start(("127.0.0.1", 0), config).expect("restart server");
    let mut client = Client::connect(server.addr()).expect("reconnect");
    let resp = client
        .call(&Request::TenantEpoch { tenant })
        .expect("epoch after restart");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownTenant,
                ..
            }
        ),
        "got {resp:?}"
    );
    // Re-creating it must not wipe its log beside its old snapshots.
    let resp = client.call(&create).expect("create over the old tenant");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::Persistence,
                ..
            }
        ),
        "got {resp:?}"
    );
    assert!(
        contents() == before,
        "the refused create changed the tenant's files"
    );
    drop(client);
    server.shutdown();
}

#[test]
fn batched_admissions_group_commit_and_surface_persist_counters() {
    let scratch = ScratchDir::new("group-commit");
    let config = ServerConfig {
        shards: 1,
        budget: 1,
        snapshot_dir: Some(scratch.0.clone()),
        snapshot_every: 0,
    };
    let server = Server::start(("127.0.0.1", 0), config).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let fx = fixture(9, 3, 10);
    let opts = options(12, 5);
    let tenant = 3u64;

    // In-process baseline: the identical stream, one admission at a time.
    let mut advisor = OnlineAdvisor::new(fx.pool.clone(), opts);
    for (i, (cache, access)) in fx.models.iter().enumerate() {
        let (query, weight) = &fx.queries[i];
        let templates = query_templates(query);
        advisor.apply(
            AdmissionSpec::new(cache, access)
                .weight(*weight)
                .templates(&templates),
        );
    }

    let resp = client
        .call(&Request::CreateTenant {
            tenant,
            pool: convert::pool_to_wire(&fx.pool),
            options: wire_options(&opts),
        })
        .expect("create tenant");
    assert!(matches!(resp, Response::TenantCreated { .. }));

    // One AdmitBatch message is the deterministic coalescing case: the
    // shard journals the whole run through group-committed chunks.
    let admissions: Vec<WireAdmission> = fx
        .models
        .iter()
        .enumerate()
        .map(|(i, (cache, access))| {
            let (query, weight) = &fx.queries[i];
            wire_admission(cache, access, *weight, &query_templates(query))
        })
        .collect();
    let n = admissions.len() as u64;
    assert!(n > 1 && n <= 64, "fixture fits in one default policy chunk");
    let resp = client
        .call(&Request::AdmitBatch { tenant, admissions })
        .expect("admit batch");
    let Response::Admitted { results } = resp else {
        panic!("unexpected admit reply: {resp:?}");
    };
    assert_eq!(results.len() as u64, n);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.ordinal, i as u64, "batch preserves admission order");
    }

    // Batched admission is bit-identical to the serial baseline.
    let Response::Selection { ids, cost, .. } = client
        .call(&Request::GetSelection { tenant })
        .expect("selection")
    else {
        panic!("unexpected selection reply");
    };
    assert_eq!(
        ids,
        advisor
            .selection()
            .ids()
            .map(|i| i as u64)
            .collect::<Vec<_>>(),
        "batched selection diverged from the serial baseline"
    );
    assert_eq!(cost.to_bits(), advisor.current_cost().to_bits());

    // The persist counters surface over the wire: every admission was
    // journaled (write-ahead), but group commit amortized durability to
    // one fsync per policy chunk — far fewer fsyncs than admissions.
    let resp = client
        .call(&Request::TenantEpoch { tenant })
        .expect("tenant epoch");
    let Response::Epoch {
        durable,
        log_seq,
        appends,
        fsyncs,
        batches,
        max_batch_records,
        ..
    } = resp
    else {
        panic!("unexpected epoch reply: {resp:?}");
    };
    assert!(durable);
    // Seq 1 is the Create record; the batch holds the rest.
    assert_eq!(log_seq, 1 + n);
    assert_eq!(appends, 1 + n);
    assert_eq!(batches, 1);
    assert_eq!(max_batch_records, n);
    // Header + Create + one group commit for the whole batch.
    assert_eq!(fsyncs, 3);
    assert!(
        fsyncs < appends,
        "group commit must fsync fewer times than it appends ({fsyncs} vs {appends})"
    );

    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_admissions_match_the_lockstep_client() {
    let server = Server::start(
        ("127.0.0.1", 0),
        ServerConfig {
            shards: 1,
            budget: 1,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let fx = fixture(9, 3, 10);
    let opts = options(12, 5);
    let tenant = 8u64;
    let expected = baseline(&fx, &opts);

    let resp = client
        .call(&Request::CreateTenant {
            tenant,
            pool: convert::pool_to_wire(&fx.pool),
            options: wire_options(&opts),
        })
        .expect("create tenant");
    assert!(matches!(resp, Response::TenantCreated { .. }));

    // Keep several AdmitQuery requests in flight at once — the shard may
    // coalesce whatever it finds queued, and the reweights (sent in
    // lockstep between windows, as they must observe the admissions
    // before them) interleave exactly as the serial client's would.
    let mut next = 0usize;
    while next < fx.models.len() {
        let window_end = (next + 4).min(fx.models.len());
        let reqs: Vec<Request> = (next..window_end)
            .map(|i| {
                let (cache, access) = &fx.models[i];
                let (query, weight) = &fx.queries[i];
                Request::AdmitQuery {
                    tenant,
                    admission: wire_admission(cache, access, *weight, &query_templates(query)),
                }
            })
            .collect();
        let resps = client.call_pipelined(&reqs).expect("pipelined admits");
        for (offset, resp) in resps.iter().enumerate() {
            let Response::Admitted { results } = resp else {
                panic!("unexpected admit reply: {resp:?}");
            };
            assert_eq!(results[0].ordinal, (next + offset) as u64);
        }
        for i in next..window_end {
            if i % 4 == 3 {
                let weight = fx.queries[i].1;
                let resp = client
                    .call(&Request::ReweightAdmission {
                        tenant,
                        admission: i as u64,
                        weight: weight * 1.5,
                    })
                    .expect("reweight");
                assert!(matches!(resp, Response::Reweighted { applied: true, .. }));
            }
        }
        next = window_end;
    }

    let Response::Selection { ids, cost, .. } = client
        .call(&Request::GetSelection { tenant })
        .expect("selection")
    else {
        panic!("unexpected selection reply");
    };
    let Response::Stats { stats, .. } = client.call(&Request::GetStats { tenant }).expect("stats")
    else {
        panic!("unexpected stats reply");
    };
    assert_eq!(ids, expected.0, "pipelined selection diverged");
    assert_eq!(cost.to_bits(), expected.1, "pipelined cost bits diverged");
    assert_eq!(
        stats.full_repricings, expected.2,
        "pipelined full re-pricings diverged"
    );
    drop(client);
    server.shutdown();
}

/// How long a test waits for a reply that must come: a dead shard never
/// answers, so an unbounded call would hang rather than fail.
const REPLY_DEADLINE: std::time::Duration = std::time::Duration::from_secs(10);

/// `client.call(request)` on a helper thread, failing the test when no
/// reply arrives within [`REPLY_DEADLINE`]. Hands the client back so the
/// same connection serves the next call.
fn call_within(client: Client, request: Request) -> (Client, Response) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = client;
        let resp = client.call(&request);
        let _ = tx.send((client, resp));
    });
    let (client, resp) = rx
        .recv_timeout(REPLY_DEADLINE)
        .expect("no reply within the deadline: the shard died");
    (client, resp.expect("call"))
}

/// Well-framed admissions that convert to well-typed values but used to
/// panic the shard while it flattened them, or to misprice, each derived
/// from a real admission whose plans price nested-loop probes: a plan
/// naming an interesting order its relation does not have, a relation
/// with no access entries, NaN or negative cost parameters, a probe
/// correlation past ±1, and plan cost terms (internal cost, coefficients,
/// probe coefficients) that are NaN, infinite or negative — the bounded
/// pricing scan is exact only when every term is finite and ≥ 0, and the
/// last three would price a probe arm below zero.
fn hostile_admissions(fx: &Fixture) -> Vec<(&'static str, WireAdmission)> {
    let i = fx
        .models
        .iter()
        .position(|(cache, _)| {
            cache
                .plans()
                .iter()
                .any(|p| p.probe_coefs.iter().any(|&c| c != 0.0))
        })
        .expect("the fixture has a nested-loop plan");
    let (cache, access) = &fx.models[i];
    let (query, weight) = &fx.queries[i];
    let real = wire_admission(cache, access, *weight, &query_templates(query));
    let mut bad_order = real.clone();
    bad_order.cache.plans[0].ioc |= 0xF;
    let mut no_access = real.clone();
    no_access.access.per_rel[0].clear();
    let mut nan_params = real.clone();
    nan_params.access.params.random_page_cost = f64::NAN;
    let mut negative_params = real.clone();
    negative_params.access.params.random_page_cost = -4.0;
    let mut bad_correlation = real.clone();
    bad_correlation
        .access
        .per_rel
        .iter_mut()
        .flatten()
        .find_map(|e| e.probe.as_mut())
        .expect("the fixture has a probe-able access path")
        .correlation = 1.5;
    let mut nan_internal = real.clone();
    nan_internal.cache.plans[0].internal = f64::NAN;
    let mut infinite_coef = real.clone();
    infinite_coef.cache.plans[0].coefs[0] = f64::INFINITY;
    let mut negative_probe = real;
    let probe = negative_probe
        .cache
        .plans
        .iter_mut()
        .flat_map(|p| p.probe_coefs.iter_mut())
        .find(|c| **c != 0.0)
        .expect("the fixture has a nested-loop plan");
    *probe = -*probe;
    vec![
        ("order past the relation's orders", bad_order),
        ("relation without access entries", no_access),
        ("NaN cost parameters", nan_params),
        ("negative cost parameters", negative_params),
        ("probe correlation past 1", bad_correlation),
        ("NaN plan internal cost", nan_internal),
        ("infinite plan coefficient", infinite_coef),
        ("negative probe coefficient", negative_probe),
    ]
}

#[test]
fn hostile_admissions_are_refused_and_the_shard_keeps_serving() {
    let fx = fixture(9, 2, 4);
    let opts = options(8, 4);
    let hostile = hostile_admissions(&fx);
    let scratch = ScratchDir::new("hostile-admissions");
    let tenant = 3u64;
    for durable in [false, true] {
        let config = ServerConfig {
            shards: 1,
            budget: 1,
            snapshot_dir: durable.then(|| scratch.0.clone()),
            snapshot_every: 4,
        };
        let server = Server::start(("127.0.0.1", 0), config.clone()).expect("start server");
        let mut client = Client::connect(server.addr()).expect("connect");
        let resp;
        (client, resp) = call_within(
            client,
            Request::CreateTenant {
                tenant,
                pool: convert::pool_to_wire(&fx.pool),
                options: wire_options(&opts),
            },
        );
        assert!(
            matches!(resp, Response::TenantCreated { .. }),
            "got {resp:?}"
        );
        for i in 0..2 {
            let (query, weight) = &fx.queries[i];
            let admission = wire_admission(
                &fx.models[i].0,
                &fx.models[i].1,
                *weight,
                &query_templates(query),
            );
            let resp;
            (client, resp) = call_within(client, Request::AdmitQuery { tenant, admission });
            assert!(matches!(resp, Response::Admitted { .. }), "got {resp:?}");
        }
        let (epoch, selection);
        (client, epoch) = call_within(client, Request::TenantEpoch { tenant });
        (client, selection) = call_within(client, Request::GetSelection { tenant });
        assert!(
            matches!(selection, Response::Selection { .. }),
            "got {selection:?}"
        );

        for (what, admission) in &hostile {
            let resp;
            (client, resp) = call_within(
                client,
                Request::AdmitQuery {
                    tenant,
                    admission: admission.clone(),
                },
            );
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        code: ErrorCode::Malformed,
                        ..
                    }
                ),
                "{what} (durable: {durable}): got {resp:?}"
            );
        }
        // The same connection is still served by a live shard, and the
        // refused admissions left no trace: same selection, nothing
        // journaled.
        let (resp_selection, resp_epoch);
        (client, resp_selection) = call_within(client, Request::GetSelection { tenant });
        assert_eq!(resp_selection, selection, "durable: {durable}");
        (client, resp_epoch) = call_within(client, Request::TenantEpoch { tenant });
        assert_eq!(resp_epoch, epoch, "durable: {durable}");
        drop(client);
        server.shutdown();

        if durable {
            let Response::Epoch { log_seq, .. } = epoch else {
                panic!("unexpected epoch reply: {epoch:?}");
            };
            let server = Server::start(("127.0.0.1", 0), config).expect("restart server");
            let client = Client::connect(server.addr()).expect("reconnect");
            let (client, resp) = call_within(client, Request::TenantEpoch { tenant });
            assert!(
                matches!(resp, Response::Epoch { durable: true, log_seq: l, .. } if l == log_seq),
                "got {resp:?}"
            );
            let (client, resp) = call_within(client, Request::GetSelection { tenant });
            assert_eq!(resp, selection, "selection after restart");
            drop(client);
            server.shutdown();
        }
    }
}

#[test]
fn snapshot_requests_on_a_volatile_daemon_are_typed_errors() {
    let server = Server::start(("127.0.0.1", 0), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let fx = fixture(9, 2, 4);
    let opts = options(8, 4);
    let resp = client
        .call(&Request::CreateTenant {
            tenant: 1,
            pool: convert::pool_to_wire(&fx.pool),
            options: wire_options(&opts),
        })
        .expect("create tenant");
    assert!(matches!(resp, Response::TenantCreated { .. }));
    let resp = client
        .call(&Request::SnapshotNow { tenant: 1 })
        .expect("snapshot now");
    assert!(
        matches!(
            resp,
            Response::Error {
                code: ErrorCode::PersistenceDisabled,
                ..
            }
        ),
        "got {resp:?}"
    );
    let resp = client
        .call(&Request::TenantEpoch { tenant: 1 })
        .expect("tenant epoch");
    assert_eq!(
        resp,
        Response::Epoch {
            durable: false,
            log_seq: 0,
            snapshot_seq: None,
            appends: 0,
            fsyncs: 0,
            batches: 0,
            max_batch_records: 0,
        }
    );
    server.shutdown();
}

#[test]
fn binary_smoke_boots_serves_and_shuts_down() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_pinum-server"))
        .args(["--port", "0", "--shards", "2", "--budget", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn daemon binary");
    let stdout = child.stdout.take().expect("stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("daemon prints its address")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let fx = fixture(9, 2, 4);
    let opts = options(8, 4);
    let (ids, cost_bits, _) = drive_tenant(addr.parse().expect("addr"), 3, &fx, &opts);
    let (want_ids, want_cost, _) = baseline(&fx, &opts);
    assert_eq!(ids, want_ids);
    assert_eq!(cost_bits, want_cost);

    let mut client = Client::connect(addr.as_str()).expect("connect for shutdown");
    let resp = client.call(&Request::Shutdown).expect("shutdown call");
    assert!(matches!(resp, Response::ShuttingDown));

    let status = child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exited with {status}");
}

#[test]
fn binary_refuses_a_port_above_65535_instead_of_wrapping() {
    use std::io::Read;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    // 70000 wraps to 4464 as a u16; the daemon must refuse it like any
    // other bad flag instead of binding the wrapped port.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pinum-server"))
        .args(["--port", "70000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon binary");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon accepted --port 70000 and kept running");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error: --port"), "stderr: {stderr}");
}
