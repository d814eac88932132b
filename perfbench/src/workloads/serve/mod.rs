//! `serve_durable` and `serve_mixed`: the daemon in-process behind its real
//! TCP front end, driven closed-loop by one generator thread over one
//! connection. Both replay the same drifting admission stream through four
//! tenants; they differ in what a request is and how many are in flight.
//!
//! Closed loop because the only client that exists (`pinum_protocol::Client`)
//! is blocking and a tenant agent needs the `Admitted` ordinal before it can
//! reweight or evict; an open-loop rate sweep waits for backpressure to give
//! the daemon a refusal path.

use crate::fixtures::{self, Rng, ServeFixture, Size, BUDGET_BYTES};
use crate::round::{Failures, Fingerprint, RoundCtx, RoundOutcome, Stopwatch};
use crate::stats;
use crate::sys::{self, JournalDir};
use crate::trace::{SpanId, Trace, NO_PARENT};
use pinum_advisor::search::StrategyKind;
use pinum_core::{Selection, WorkloadModel};
use pinum_online::{AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_persist::{convert, PersistentAdvisor};
use pinum_protocol::{Client, Request, Response, WireStats};
use pinum_server::daemon::tenant_dir;
use pinum_server::{shard_of, Server, ServerConfig, ServerHandle};
use std::path::Path;
use std::time::Instant;

mod replay;

use replay::Replay;
pub use replay::{durable_layer_metrics, mixed_layer_metrics};

pub const TENANTS: usize = 4;
const SHARDS: usize = 2;
const READVISE_BUDGET: usize = 2;
const SNAPSHOT_EVERY: usize = 64;
/// Admissions per `AdmitBatch` and requests in flight on `serve_durable`.
const BATCH: usize = 8;
const DEPTH: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Durable,
    Mixed,
}

fn tenant_options() -> OnlineAdvisorOptions {
    OnlineAdvisorOptions {
        window_capacity: 64,
        epoch_length: 32,
        strategy: StrategyKind::SwapHillClimb,
        ..OnlineAdvisorOptions::defaults(BUDGET_BYTES)
    }
}

/// The first tenant ids, from 1, that put the same number of tenants on
/// every shard, so neither shard thread idles by accident of the hash.
fn tenant_ids() -> Vec<u64> {
    let mut per_shard = [0usize; SHARDS];
    let mut ids = Vec::new();
    for id in 1u64.. {
        let shard = shard_of(id, SHARDS);
        if per_shard[shard] < TENANTS / SHARDS {
            per_shard[shard] += 1;
            ids.push(id);
            if ids.len() == TENANTS {
                break;
            }
        }
    }
    ids
}

/// One mutation of one tenant, as the verification twin replays it.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Admit { stream: usize },
    Reweight { ordinal: u64, weight: f64 },
    Evict { ordinal: u64 },
    Readvise,
}

/// One request of a round, with what the generator expects back.
struct Op {
    tenant: usize,
    request: Prepared,
    kind: Kind,
    /// Ordinal the first admission of the request must be given.
    first_ordinal: u64,
    mutations: Vec<Mutation>,
}

/// Big requests are built once and sent by reference.
enum Prepared {
    Shared(usize),
    Own(Request),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    AdmitBatch,
    Admit,
    Reweight,
    Evict,
    Readvise,
    Selection,
    Stats,
    Epoch,
}

impl Kind {
    /// Reads and writes are told apart in the trace.
    fn op_span(self) -> &'static str {
        match self {
            Kind::Selection | Kind::Stats | Kind::Epoch => "op.read",
            _ => "op.write",
        }
    }
}

/// The ops of one round and the shared requests they point into.
struct Plan {
    shared: Vec<Request>,
    ops: Vec<Op>,
    warm: usize,
}

impl Plan {
    fn request<'a>(&'a self, op: &'a Op) -> &'a Request {
        match &op.request {
            Prepared::Shared(i) => &self.shared[*i],
            Prepared::Own(r) => r,
        }
    }
}

/// Where in the stream each tenant starts: a quarter of it apart, the whole
/// arrangement turned by what `--seed` draws.
fn offsets(seed: u64, n: usize) -> [usize; TENANTS] {
    let turn = Rng::new(fixtures::derive_seed(seed, "offsets", 0)).below(n as u64) as usize;
    std::array::from_fn(|t| (turn + t * n / TENANTS) % n)
}

/// `serve_durable`: runs of [`DEPTH`] `AdmitBatch`es to the same tenant,
/// tenants round-robin, each tenant walking the stream's batches cyclically
/// from its own offset.
fn durable_plan(fx: &ServeFixture, ids: &[u64], seed: u64, size: &Size) -> Plan {
    // `drive` cuts the warm-up and the timed ops into runs of `DEPTH` each
    // from its own start; a run stays with one tenant only if both are whole
    // runs.
    assert!(
        size.durable_warm_ops.is_multiple_of(DEPTH) && size.durable_ops.is_multiple_of(DEPTH),
        "warm-up and timed ops are whole runs of {DEPTH}"
    );
    let batches = fx.len() / BATCH;
    let offsets = offsets(seed, batches);
    let shared: Vec<Request> = ids
        .iter()
        .flat_map(|&tenant| {
            (0..batches).map(move |b| Request::AdmitBatch {
                tenant,
                admissions: fx.wire[b * BATCH..(b + 1) * BATCH].to_vec(),
            })
        })
        .collect();
    let mut sent = [0usize; TENANTS];
    let ops = (0..size.durable_warm_ops + size.durable_ops)
        .map(|i| {
            let tenant = (i / DEPTH) % TENANTS;
            let batch = (offsets[tenant] + sent[tenant]) % batches;
            let first_ordinal = (sent[tenant] * BATCH) as u64;
            sent[tenant] += 1;
            Op {
                tenant,
                request: Prepared::Shared(tenant * batches + batch),
                kind: Kind::AdmitBatch,
                first_ordinal,
                mutations: (0..BATCH)
                    .map(|j| Mutation::Admit {
                        stream: batch * BATCH + j,
                    })
                    .collect(),
            }
        })
        .collect();
    Plan {
        shared,
        ops,
        warm: size.durable_warm_ops,
    }
}

/// Share of each kind in the `serve_mixed` op mix, in percent.
const MIX: [(Kind, usize); 7] = [
    (Kind::Selection, 40),
    (Kind::Stats, 10),
    (Kind::Epoch, 10),
    (Kind::Admit, 25),
    (Kind::Reweight, 8),
    (Kind::Evict, 5),
    (Kind::Readvise, 2),
];

/// The `(tenant, kind)` of each timed `serve_mixed` op: exactly the shares of
/// [`MIX`], each kind dealt round the tenants, in an order `--seed` shuffles.
/// Drawing each op independently left the counts to the seed (120 forced
/// re-advises give or take 11 a round), and the p99, which falls among the
/// re-advises, read 2.3 or 2.8 ms by seed.
fn mixed_slots(seed: u64, ops: usize) -> Vec<(usize, Kind)> {
    let mut slots: Vec<(usize, Kind)> = Vec::with_capacity(ops);
    for (kind, percent) in MIX {
        let count = if kind == Kind::Selection {
            // Whatever rounding leaves over goes to the commonest kind.
            ops - MIX[1..].iter().map(|(_, p)| ops * p / 100).sum::<usize>()
        } else {
            ops * percent / 100
        };
        slots.extend((0..count).map(|i| (i % TENANTS, kind)));
    }
    fixtures::shuffled(seed, "mix-order", ops)
        .into_iter()
        .map(|i| slots[i])
        .collect()
}

/// `serve_mixed`: every tenant first admits `mixed_warm_admits` queries one
/// by one, then the ops of [`mixed_slots`].
fn mixed_plan(fx: &ServeFixture, ids: &[u64], seed: u64, size: &Size) -> Plan {
    let n = fx.len();
    let shared: Vec<Request> = ids
        .iter()
        .flat_map(|&tenant| {
            fx.wire.iter().map(move |admission| Request::AdmitQuery {
                tenant,
                admission: admission.clone(),
            })
        })
        .collect();
    let mut rng = Rng::new(fixtures::derive_seed(seed, "mix", 0));
    let offsets = offsets(seed, n);
    let mut admitted = [0usize; TENANTS];
    let mut ops = Vec::with_capacity(TENANTS * size.mixed_warm_admits + size.mixed_ops);
    let admit = |tenant: usize, admitted: &mut [usize; TENANTS]| {
        let stream = (offsets[tenant] + admitted[tenant]) % n;
        let op = Op {
            tenant,
            request: Prepared::Shared(tenant * n + stream),
            kind: Kind::Admit,
            first_ordinal: admitted[tenant] as u64,
            mutations: vec![Mutation::Admit { stream }],
        };
        admitted[tenant] += 1;
        op
    };
    for i in 0..TENANTS * size.mixed_warm_admits {
        ops.push(admit(i % TENANTS, &mut admitted));
    }
    for (t, kind) in mixed_slots(seed, size.mixed_ops) {
        let tenant = ids[t];
        // A recent admission: mostly still in the window, sometimes gone.
        let recent = (admitted[t] as u64).saturating_sub(1 + rng.below(48));
        let own = |request, mutations| Op {
            tenant: t,
            request: Prepared::Own(request),
            kind,
            first_ordinal: 0,
            mutations,
        };
        ops.push(match kind {
            Kind::Selection => own(Request::GetSelection { tenant }, vec![]),
            Kind::Stats => own(Request::GetStats { tenant }, vec![]),
            Kind::Epoch => own(Request::TenantEpoch { tenant }, vec![]),
            Kind::Admit => admit(t, &mut admitted),
            Kind::Reweight => {
                let weight = 0.5 + rng.below(200) as f64 / 100.0;
                own(
                    Request::ReweightAdmission {
                        tenant,
                        admission: recent,
                        weight,
                    },
                    vec![Mutation::Reweight {
                        ordinal: recent,
                        weight,
                    }],
                )
            }
            Kind::Evict => own(
                Request::EvictQuery {
                    tenant,
                    admission: recent,
                },
                vec![Mutation::Evict { ordinal: recent }],
            ),
            Kind::Readvise => own(Request::ForceReadvise { tenant }, vec![Mutation::Readvise]),
            Kind::AdmitBatch => unreachable!("`serve_mixed` admits one query at a time"),
        });
    }
    Plan {
        shared,
        ops,
        warm: TENANTS * size.mixed_warm_admits,
    }
}

/// Whether `resp` is the kind of answer `op` must get. Content is checked
/// against the twin after the round; here only shape and ordinals.
fn answers(op: &Op, resp: &Response) -> bool {
    match (op.kind, resp) {
        (Kind::AdmitBatch | Kind::Admit, Response::Admitted { results }) => {
            results.len() == op.mutations.len()
                && results
                    .iter()
                    .enumerate()
                    .all(|(j, r)| r.ordinal == op.first_ordinal + j as u64)
        }
        (Kind::Reweight, Response::Reweighted { .. })
        | (Kind::Evict, Response::Evicted { .. })
        | (Kind::Readvise, Response::Readvised { .. })
        | (Kind::Selection, Response::Selection { .. })
        | (Kind::Stats, Response::Stats { .. })
        | (Kind::Epoch, Response::Epoch { .. }) => true,
        _ => false,
    }
}

/// What a pass over some ops observed.
struct Pass {
    /// `(start, end, ok)` per op, in issue order.
    times: Vec<(Instant, Instant, bool)>,
    /// The answers, in issue order; `None` for an op never answered.
    responses: Vec<Option<Response>>,
}

impl Pass {
    fn failed(&self) -> usize {
        self.times.iter().filter(|t| !t.2).count()
    }
}

/// Sends `ops` in runs of `depth`: a run is written, flushed once, and
/// every answer of it awaited (matched by id) before the next run goes out.
/// `depth` 1 is the lockstep `Client::call`. A wire error ends the pass: the
/// ops not answered count as failed.
fn drive(client: &mut Client, plan: &Plan, ops: &[Op], depth: usize) -> Pass {
    let now = Instant::now();
    let mut times = vec![(now, now, false); ops.len()];
    let mut responses: Vec<Option<Response>> = ops.iter().map(|_| None).collect();
    let mut first = 0;
    'pass: for run in ops.chunks(depth) {
        let mut ids = Vec::with_capacity(run.len());
        for (i, op) in run.iter().enumerate() {
            times[first + i].0 = Instant::now();
            match client.send(plan.request(op)) {
                Ok(id) => ids.push(id),
                Err(_) => break 'pass,
            }
        }
        if client.flush().is_err() {
            break;
        }
        for _ in 0..run.len() {
            let Ok((id, resp)) = client.recv() else {
                break 'pass;
            };
            let Some(i) = ids.iter().position(|&sent| sent == id) else {
                break 'pass;
            };
            times[first + i].1 = Instant::now();
            times[first + i].2 = answers(&run[i], &resp);
            responses[first + i] = Some(resp);
        }
        first += run.len();
    }
    Pass { times, responses }
}

fn start_daemon(root: Option<&Path>) -> std::io::Result<(ServerHandle, Client)> {
    let handle = Server::start(
        ("127.0.0.1", 0),
        ServerConfig {
            shards: SHARDS,
            budget: READVISE_BUDGET,
            snapshot_dir: root.map(Path::to_path_buf),
            snapshot_every: SNAPSHOT_EVERY,
        },
    )?;
    let client = Client::connect(handle.addr())?;
    Ok((handle, client))
}

/// A tenant's state as the wire shows it, stripped of wall-clock fields.
#[derive(Debug, PartialEq)]
struct TenantView {
    ids: Vec<u64>,
    total_bytes: u64,
    cost_bits: u64,
    stats: WireStats,
}

fn timeless_stats(mut stats: WireStats) -> WireStats {
    stats.model_admit_wall_seconds = 0.0;
    stats.readvise_wall_seconds = 0.0;
    stats.last_readvise_wall_seconds = 0.0;
    stats
}

fn view_over_wire(client: &mut Client, tenant: u64) -> Option<TenantView> {
    let Ok(Response::Selection {
        ids,
        total_bytes,
        cost,
    }) = client.call(&Request::GetSelection { tenant })
    else {
        return None;
    };
    let Ok(Response::Stats { stats, .. }) = client.call(&Request::GetStats { tenant }) else {
        return None;
    };
    Some(TenantView {
        ids,
        total_bytes,
        cost_bits: cost.to_bits(),
        stats: timeless_stats(stats),
    })
}

fn view_of_twin(twin: &OnlineAdvisor) -> TenantView {
    let selection = twin.selection();
    TenantView {
        ids: selection.ids().map(|i| i as u64).collect(),
        total_bytes: twin.pool().selection_bytes(selection),
        cost_bits: twin.current_cost().to_bits(),
        stats: timeless_stats(convert::stats_to_wire(twin.stats())),
    }
}

fn spec_of<'a>(fx: &'a ServeFixture, stream: usize) -> AdmissionSpec<'a> {
    let (cache, access) = &fx.models[stream];
    AdmissionSpec::new(cache, access)
        .weight(fx.weights[stream])
        .templates(&fx.templates[stream])
}

/// Applies one tenant's mutations, one at a time and inline, to a plain
/// in-process `OnlineAdvisor`: what the daemon must be bit-identical to.
fn apply_to_twin(twin: &mut OnlineAdvisor, fx: &ServeFixture, mutations: &[Mutation]) {
    for m in mutations {
        match *m {
            Mutation::Admit { stream } => {
                twin.apply(spec_of(fx, stream));
            }
            Mutation::Reweight { ordinal, weight } => {
                twin.reweight(ordinal as usize, weight, false);
            }
            Mutation::Evict { ordinal } => {
                twin.evict_admission(ordinal as usize);
            }
            Mutation::Readvise => {
                twin.readvise();
            }
        }
    }
}

/// What the daemon itself counted for its journals, summed over tenants.
#[derive(Default)]
struct JournalCounters {
    appends: u64,
    fsyncs: u64,
    max_batch_records: u64,
}

fn daemon_counters(client: &mut Client, ids: &[u64]) -> JournalCounters {
    let mut counted = JournalCounters::default();
    for &tenant in ids {
        if let Ok(Response::Epoch {
            appends,
            fsyncs,
            max_batch_records,
            ..
        }) = client.call(&Request::TenantEpoch { tenant })
        {
            counted.appends += appends;
            counted.fsyncs += fsyncs;
            counted.max_batch_records = counted.max_batch_records.max(max_batch_records);
        }
    }
    counted
}

/// The restart leg of `serve_durable`: the daemon was stopped without
/// `SnapshotNow`; started again on the same directory, every tenant must
/// still equal its twin — every acknowledged admission survives.
fn restart_leg(
    root: &Path,
    ids: &[u64],
    twins: &[OnlineAdvisor],
    trace: &mut Option<&mut Trace>,
    failures: &mut Failures,
) {
    if let Some(trace) = trace.as_deref_mut() {
        trace.add("server.disk_bytes", sys::dir_bytes(root) as f64);
        // Recovery alone, on the directories the daemon left behind.
        for &tenant in ids {
            let dir = tenant_dir(root, tenant);
            let opened = trace.time("persist.open", 0, NO_PARENT, || {
                PersistentAdvisor::open(&dir, SNAPSHOT_EVERY)
            });
            if let Ok((_, report)) = opened {
                trace.add("persist.replayed_records", report.replayed as f64);
            }
        }
    }
    let restart = Instant::now();
    let (handle, mut client) = match start_daemon(Some(root)) {
        Ok(started) => started,
        Err(e) => return failures.note(|| format!("the daemon did not restart: {e}")),
    };
    let views: Vec<Option<TenantView>> = ids
        .iter()
        .map(|&tenant| view_over_wire(&mut client, tenant))
        .collect();
    if let Some(trace) = trace.as_deref_mut() {
        trace.add("server.restart_ms", restart.elapsed().as_secs_f64() * 1e3);
    }
    for ((twin, &tenant), got) in twins.iter().zip(ids).zip(views) {
        let want = view_of_twin(twin);
        failures.check(got.as_ref() == Some(&want), || {
            format!("tenant {tenant} came back from the restart changed:\n  daemon {got:?}\n  twin   {want:?}")
        });
    }
    drop(client);
    handle.shutdown();
}

pub fn round(mode: Mode, ctx: &mut RoundCtx<'_>) -> RoundOutcome {
    let mut watch = Stopwatch::start();
    let size = *ctx.size;
    let mut failures = Failures::default();

    // --- Set-up: fixture through the optimizer, daemon, tenants, warm-up. ---
    let schema = fixtures::schema();
    let fx = fixtures::serve_fixture(&schema, &size);
    let ids = tenant_ids();
    let opts = tenant_options();
    let plan = match mode {
        Mode::Durable => durable_plan(&fx, &ids, ctx.seed, &size),
        Mode::Mixed => mixed_plan(&fx, &ids, ctx.seed, &size),
    };
    let journal = match mode {
        Mode::Durable => Some(JournalDir::create(ctx.index).expect("create the journal directory")),
        Mode::Mixed => None,
    };
    let daemon_root = journal.as_ref().map(|j| j.path().join("daemon"));
    let start = Instant::now();
    let (handle, mut client) = start_daemon(daemon_root.as_deref()).expect("start the daemon");
    let start_ms = start.elapsed().as_secs_f64() * 1e3;
    let pool = convert::pool_to_wire(&fx.pool);
    let options = convert::options_to_wire(&opts).expect("tenant options go over the wire");
    for &tenant in &ids {
        let created = client.call(&Request::CreateTenant {
            tenant,
            pool: pool.clone(),
            options: options.clone(),
        });
        failures.check(
            matches!(created, Ok(Response::TenantCreated { tenant: t }) if t == tenant),
            || format!("tenant {tenant} was not created: {created:?}"),
        );
    }
    let depth = match mode {
        Mode::Durable => DEPTH,
        Mode::Mixed => 1,
    };
    let (warm_ops, timed_ops) = plan.ops.split_at(plan.warm);
    let warm = drive(&mut client, &plan, warm_ops, depth);

    // --- Timed phase. ---
    watch.begin_timed();
    let pass = drive(&mut client, &plan, timed_ops, depth);
    let setup_s = watch.setup_s();
    for &(start, end, ok) in &pass.times {
        watch.op(start, end, ok);
    }
    let timed = watch.finish();
    for (what, p) in [("warm-up", &warm), ("timed", &pass)] {
        failures.add(p.failed(), || {
            format!("{what} ops failed or were answered wrongly")
        });
    }
    let mut op_spans: Vec<SpanId> = Vec::new();
    if let Some(trace) = ctx.trace.as_deref_mut() {
        for (i, (op, &(start, end, _))) in timed_ops.iter().zip(&pass.times).enumerate() {
            let name = match mode {
                Mode::Durable => "op",
                Mode::Mixed => op.kind.op_span(),
            };
            op_spans.push(trace.record(name, i as u32, NO_PARENT, start, end));
        }
        trace.add("server.start_ms", start_ms);
    }

    // --- Verification: every tenant equals its in-process twin. ---
    // The twins replay on threads of their own: this is outside the timed
    // phase, and the replays are independent.
    // Advice is judged at every re-advise of the timed phase, and on the
    // whole stream: not on whatever a window held when the round ended.
    let stream_model = WorkloadModel::build(fx.pool.len(), fx.models.iter().map(|(c, a)| (c, a)));
    let empty_cost = stream_model
        .price_full(&Selection::empty(fx.pool.len()))
        .total();
    let cost_ratio =
        |twin: &OnlineAdvisor| stream_model.price_full(twin.selection()).total() / empty_cost;
    let twin_of = |t: usize| {
        let mut twin = OnlineAdvisor::new(fx.pool.clone(), opts);
        for op in warm_ops.iter().filter(|op| op.tenant == t) {
            apply_to_twin(&mut twin, &fx, &op.mutations);
        }
        let warm_full = twin.stats().full_repricings;
        let mut advised = twin.stats().readvises;
        let mut ratios: Vec<f64> = Vec::new();
        for op in timed_ops.iter().filter(|op| op.tenant == t) {
            for m in &op.mutations {
                apply_to_twin(&mut twin, &fx, std::slice::from_ref(m));
                if twin.stats().readvises != advised {
                    advised = twin.stats().readvises;
                    ratios.push(cost_ratio(&twin));
                }
            }
        }
        if ratios.is_empty() {
            ratios.push(cost_ratio(&twin));
        }
        let steady_full = twin.stats().full_repricings - warm_full;
        (twin, steady_full, stats::mean(&ratios))
    };
    let replayed: Vec<(OnlineAdvisor, usize, f64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..TENANTS)
            .map(|t| scope.spawn(move || twin_of(t)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("twin replay thread"))
            .collect()
    });
    let steady_full_repricings: usize = replayed.iter().map(|r| r.1).sum();
    let advice_cost_ratio = replayed.iter().map(|r| r.2).sum::<f64>() / TENANTS as f64;
    let twins: Vec<OnlineAdvisor> = replayed.into_iter().map(|r| r.0).collect();
    let mut fp = Fingerprint::new();
    let (mut admissions, mut readvises) = (0usize, 0usize);
    for (twin, &tenant) in twins.iter().zip(&ids) {
        let want = view_of_twin(twin);
        let got = view_over_wire(&mut client, tenant);
        failures.check(got.as_ref() == Some(&want), || {
            format!("tenant {tenant} differs from its twin:\n  daemon {got:?}\n  twin   {want:?}")
        });
        fp.words(want.ids.iter().copied());
        fp.word(want.cost_bits);
        fp.word(want.stats.admits);
        fp.word(want.stats.readvises);
        admissions += twin.stats().admits;
        readvises += twin.stats().readvises;
    }
    fp.word(advice_cost_ratio.to_bits());

    let counted = daemon_counters(&mut client, &ids);
    let budget_wait = handle.max_readvise_wait_events();
    drop(client);
    handle.shutdown();

    if let Some(trace) = ctx.trace.as_deref_mut() {
        trace.add("online.readvises", readvises as f64);
        trace.add("online.admissions", admissions as f64);
        trace.add("online.full_repricings", steady_full_repricings as f64);
        trace.add("server.budget_wait_events_max", budget_wait as f64);
        if mode == Mode::Durable {
            let timed_admissions = (timed_ops.len() * BATCH) as f64;
            trace.add("server.admissions_per_s", timed_admissions / timed.wall_s);
            trace.add("server.fsyncs", counted.fsyncs as f64);
            trace.add("server.appends", counted.appends as f64);
            trace.add("server.max_batch_records", counted.max_batch_records as f64);
        }
    }
    if let Some(root) = &daemon_root {
        restart_leg(root, &ids, &twins, &mut ctx.trace, &mut failures);
    }

    // --- Traced: replay every request's chain of public calls on twins. ---
    if let Some(trace) = ctx.trace.as_deref_mut() {
        let twin_root = journal.as_ref().map(|j| j.path().join("twin"));
        let mut replay = Replay::new(&fx, &ids, opts, twin_root.as_deref());
        let mut scratch = Trace::new();
        for (op, real) in warm_ops.iter().zip(&warm.responses) {
            replay.request(&mut scratch, 0, NO_PARENT, &plan, op, real, &mut failures);
        }
        for (i, (op, real)) in timed_ops.iter().zip(&pass.responses).enumerate() {
            replay.request(trace, i as u32, op_spans[i], &plan, op, real, &mut failures);
        }
        replay.finish(trace);
    }

    RoundOutcome {
        setup_s,
        timed,
        attempted: plan.ops.len() + TENANTS,
        failures,
        optimizer_calls: fx.optimizer_calls,
        queries_modelled: fx.len(),
        advice_cost_ratio,
        fingerprint: fp.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_exact_and_the_seed_only_orders_it() {
        let slots = mixed_slots(1, 6000);
        assert_eq!(slots.len(), 6000);
        let count = |tenant: usize, kind: Kind| {
            slots
                .iter()
                .filter(|&&(t, k)| t == tenant && k == kind)
                .count()
        };
        for (kind, percent) in MIX {
            for tenant in 0..TENANTS {
                assert_eq!(count(tenant, kind), 6000 * percent / 100 / TENANTS);
            }
        }
        let other = mixed_slots(2, 6000);
        assert_ne!(slots, other);
        // A size the shares do not divide still adds up.
        assert_eq!(mixed_slots(1, 203).len(), 203);
    }
}
