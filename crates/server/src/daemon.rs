//! The daemon: sharded tenant ownership, blocking accept loop, and the
//! request dispatch that ties the wire format to
//! [`pinum_online::OnlineAdvisor`] through a write-ahead
//! [`PersistentAdvisor`] per tenant. With `--snapshot-dir` set, each
//! shard journals its tenants' mutations before applying them, cuts a
//! snapshot every K admissions (the shard thread is the tenant's only
//! mutator, so no locking), and recovers every tenant it owns at
//! start-up — bit-identical to a daemon that never stopped.
//!
//! ## Threading model
//!
//! - **Shard workers** (fixed count, chosen at start-up): each owns the
//!   `TenantState` map for the tenants that hash to it and applies their
//!   mutations strictly in mailbox order. A tenant lives on exactly one
//!   shard, so its advisor sees the same serial mutation order it would
//!   see in a single-threaded embedding — which is what makes every
//!   per-tenant result bit-identical to the in-process baseline.
//! - **Connection readers** (one per accepted socket): decode frames and
//!   forward them to the owning shard's mailbox together with a reply
//!   sender. Structurally broken payloads that left the framing intact
//!   are answered inline with a `Malformed` error and the connection
//!   keeps going; torn framing closes the connection.
//! - **Connection writers** (one per socket): drain the reply channel so
//!   a slow client never blocks a shard worker.
//!
//! Re-advises — the expensive operation — are gated by the process-wide
//! [`ReadviseBudget`]: the shard worker learns of the trigger (from the
//! gated admission path, or a deferred reweight), *then* blocks on a
//! permit, then executes. The gate never changes what the re-advise
//! computes, only when it runs.

use crate::budget::ReadviseBudget;
use crate::convert::{self, ConvertError};
use pinum_core::access_costs::AccessCostCatalog;
use pinum_core::cache::PlanCache;
use pinum_online::{Admission, AdmissionSpec};
use pinum_persist::{GroupCommitPolicy, PersistError, PersistentAdvisor};
use pinum_protocol::{
    read_request, write_response, ErrorCode, FrameIn, Request, Response, WireAdmission,
    WireAdmitResult, WireBudgetStats,
};
use pinum_query::TemplateKey;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

/// Start-up knobs. The CLI binary maps its flags onto this 1:1.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard worker threads. Tenants are assigned by tenant-id hash.
    pub shards: usize,
    /// Re-advises allowed to run concurrently across all tenants.
    pub budget: usize,
    /// Root directory for tenant journals and snapshots. `None` (the
    /// default) runs every tenant fully in memory; when set, each tenant
    /// lives in `tenant-<id>/` under it, existing tenants are recovered
    /// at start-up, and every mutation is journaled write-ahead.
    pub snapshot_dir: Option<PathBuf>,
    /// Admissions between automatic snapshots on a durable tenant's
    /// shard thread (0 = only on `SnapshotNow`).
    pub snapshot_every: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            budget: 2,
            snapshot_dir: None,
            snapshot_every: 32,
        }
    }
}

/// The on-disk directory of one tenant under the daemon's snapshot root.
pub fn tenant_dir(root: &std::path::Path, tenant: u64) -> PathBuf {
    root.join(format!("tenant-{tenant}"))
}

/// Which shard owns a tenant (Fibonacci-hash of the id, so dense tenant
/// ids still spread across shards).
pub fn shard_of(tenant: u64, shards: usize) -> usize {
    ((tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % shards.max(1)
}

struct TenantState {
    advisor: PersistentAdvisor,
}

enum ShardMsg {
    Request {
        request_id: u64,
        req: Box<Request>,
        reply: mpsc::Sender<(u64, Response)>,
    },
    Stop,
}

/// Connection registry: one peer clone (for forced close at shutdown)
/// plus the reader thread's handle, per accepted connection.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// The daemon. [`Server::start`] binds, spawns the workers, and returns
/// a [`ServerHandle`] for shutdown; the listener itself runs on its own
/// thread.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back via
    /// [`ServerHandle::addr`]) and starts the shard workers, then — once
    /// they are running — the accept loop. Each tenant's pricing and
    /// re-advises run on its shard's thread, so `config.shards` bounds
    /// the threads that price at once.
    ///
    /// If a thread cannot be spawned, the shards already started are
    /// stopped and joined and the spawn's `io::Error` is returned.
    pub fn start(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let shards = config.shards.max(1);
        let budget = Arc::new(ReadviseBudget::new(config.budget));

        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_threads = Vec::with_capacity(shards);
        let (up_tx, up_rx) = mpsc::channel::<()>();
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<ShardMsg>();
            let budget = budget.clone();
            let up = up_tx.clone();
            let persistence = Persistence {
                root: config.snapshot_dir.clone(),
                snapshot_every: config.snapshot_every,
                shard,
                shards,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("pinum-shard-{shard}"))
                .spawn(move || {
                    // The send allocates: once `start` hears it, this
                    // thread has its malloc arena.
                    let _ = up.send(());
                    drop(up);
                    shard_worker(rx, &budget, &persistence)
                });
            match spawned {
                Ok(thread) => {
                    shard_txs.push(tx);
                    shard_threads.push(thread);
                }
                Err(e) => {
                    stop_shards(&shard_txs, shard_threads);
                    return Err(e);
                }
            }
        }
        // Every shard worker is running before any other thread is spawned.
        // glibc hands a new thread the arena of the most recently exited
        // one, and `stop` joins the shards last, so a daemon started again
        // in the same process gives the arenas its shards used back to
        // shards. Left to a race with the accept loop (its start-up trails
        // a shard's by tens of µs) a losing shard grows a fresh arena
        // beside the retained one. While recovery decoded whole logs that
        // cost +100–150 MiB of peak RSS on perfbench's `serve_durable`, in
        // some runs and not in others. Recovery now streams the log and
        // leaves one snapshot per tenant behind, not a large heap; the
        // ordering is kept because it is free and keeps the peak from
        // depending on a race.
        drop(up_tx);
        for _ in 0..shards {
            let _ = up_rx.recv();
        }

        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            let shard_txs = shard_txs.clone();
            std::thread::Builder::new()
                .name("pinum-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let Ok(peer) = stream.try_clone() else {
                            continue;
                        };
                        let shard_txs = shard_txs.clone();
                        let shutdown = shutdown.clone();
                        let reader = std::thread::Builder::new()
                            .name("pinum-conn".into())
                            .spawn(move || serve_connection(stream, &shard_txs, &shutdown));
                        match reader {
                            Ok(reader) => conns.lock().expect("conns lock").push((peer, reader)),
                            // No thread to serve it: close this connection
                            // and keep accepting.
                            Err(_) => {
                                let _ = peer.shutdown(std::net::Shutdown::Both);
                            }
                        }
                    }
                })
        };
        let accept = match accept {
            Ok(accept) => accept,
            Err(e) => {
                stop_shards(&shard_txs, shard_threads);
                return Err(e);
            }
        };

        Ok(ServerHandle {
            addr: local_addr,
            shutdown,
            accept: Some(accept),
            shard_txs,
            shard_threads,
            conns,
            budget,
        })
    }
}

/// Owner handle: keeps the daemon alive; dropping it (or calling
/// [`ServerHandle::shutdown`]) stops the accept loop, closes every
/// connection, and joins all worker threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shard_txs: Vec<mpsc::Sender<ShardMsg>>,
    shard_threads: Vec<JoinHandle<()>>,
    conns: ConnRegistry,
    budget: Arc<ReadviseBudget>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a wire `Shutdown` request (or [`Self::shutdown`]) has
    /// been seen.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until a wire `Shutdown` request arrives (the binary's main
    /// thread parks on this).
    pub fn wait_for_shutdown(&self) {
        while !self.shutdown_requested() {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// Longest any tenant waited for a re-advise permit, in grant
    /// events — the figure the multi-tenant experiment bounds.
    pub fn max_readvise_wait_events(&self) -> u64 {
        self.budget.max_wait_events()
    }

    /// Stops the daemon and joins every thread. Idempotent; also runs on
    /// drop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // Close every live connection so its reader sees EOF.
        let conns = std::mem::take(&mut *self.conns.lock().expect("conns lock"));
        for (stream, reader) in conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let _ = reader.join();
        }
        stop_shards(&self.shard_txs, self.shard_threads.drain(..));
    }
}

/// Asks every shard worker to stop, then joins them.
fn stop_shards(
    shard_txs: &[mpsc::Sender<ShardMsg>],
    shard_threads: impl IntoIterator<Item = JoinHandle<()>>,
) {
    for tx in shard_txs {
        let _ = tx.send(ShardMsg::Stop);
    }
    for t in shard_threads {
        let _ = t.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    shard_txs: &[mpsc::Sender<ShardMsg>],
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Response)>();
    let writer = std::thread::Builder::new()
        .name("pinum-conn-writer".into())
        .spawn(move || {
            let mut out = std::io::BufWriter::new(write_half);
            while let Ok((id, resp)) = reply_rx.recv() {
                if write_response(&mut out, id, &resp).is_err() {
                    break;
                }
                if std::io::Write::flush(&mut out).is_err() {
                    break;
                }
            }
        });
    // No writer, no replies: close the connection (explicitly, for the
    // reason given at the end of this function).
    let Ok(writer) = writer else {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return;
    };

    let mut stop_daemon = false;
    loop {
        match read_request(&mut stream) {
            Ok(FrameIn::Msg { request_id, msg }) => match msg {
                Request::Shutdown => {
                    let _ = reply_tx.send((request_id, Response::ShuttingDown));
                    stop_daemon = true;
                    break;
                }
                req => {
                    let tenant = req
                        .tenant()
                        .expect("every request except Shutdown names a tenant");
                    let shard = shard_of(tenant, shard_txs.len());
                    let sent = shard_txs[shard].send(ShardMsg::Request {
                        request_id,
                        req: Box::new(req),
                        reply: reply_tx.clone(),
                    });
                    if sent.is_err() {
                        let _ = reply_tx.send((
                            request_id,
                            Response::Error {
                                code: ErrorCode::ShuttingDown,
                                detail: "shard workers have stopped".into(),
                            },
                        ));
                        break;
                    }
                }
            },
            // Framing intact, payload bad: typed error reply, keep going.
            Ok(FrameIn::Bad { request_id, error }) if error.frame_recoverable() => {
                let _ = reply_tx.send((
                    request_id.unwrap_or(0),
                    Response::Error {
                        code: ErrorCode::Malformed,
                        detail: error.to_string(),
                    },
                ));
            }
            // Clean EOF, torn frame, or transport error: close.
            Ok(FrameIn::Eof) | Ok(FrameIn::Bad { .. }) | Err(_) => break,
        }
    }
    drop(reply_tx);
    let _ = writer.join();
    // Raise the flag only once the replies, `ShuttingDown` included, are
    // written: a raised flag lets the handle force-close every connection,
    // this one too.
    if stop_daemon {
        shutdown.store(true, Ordering::SeqCst);
        // Nudge the accept loop awake so it observes the flag.
        if let Ok(addr) = stream.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
    // Shut the socket down explicitly: the handle keeps a clone of this
    // stream for forced close, and that clone would otherwise hold the
    // fd open and deny the peer its EOF.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Per-shard persistence context: the snapshot root (if any) plus the
/// shard coordinates needed to claim tenant directories at start-up.
struct Persistence {
    root: Option<PathBuf>,
    snapshot_every: usize,
    shard: usize,
    shards: usize,
}

/// Recovers every durable tenant under `root` that hashes to this shard.
/// A tenant whose files will not recover is skipped with a note on
/// stderr — one corrupt directory must not take the daemon down. Its
/// files stay as they are: a later `CreateTenant` for that id gets a
/// typed persistence error ([`PersistentAdvisor::create`] refuses a
/// directory that holds a tenant) instead of wiping them.
fn recover_shard_tenants(
    tenants: &mut HashMap<u64, TenantState>,
    persistence: &Persistence,
) -> std::io::Result<()> {
    let Some(root) = &persistence.root else {
        return Ok(());
    };
    if !root.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(root)? {
        let path = entry?.path();
        let Some(tenant) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("tenant-"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        if shard_of(tenant, persistence.shards) != persistence.shard {
            continue;
        }
        match PersistentAdvisor::open(&path, persistence.snapshot_every) {
            Ok((advisor, report)) => {
                if report.log_discarded_bytes > 0 || report.snapshots_discarded > 0 {
                    eprintln!(
                        "pinum-server: tenant {tenant} recovered with losses: \
                         {} torn log bytes truncated, {} corrupt snapshot(s) skipped",
                        report.log_discarded_bytes, report.snapshots_discarded
                    );
                }
                tenants.insert(tenant, TenantState { advisor });
            }
            Err(e) => {
                eprintln!("pinum-server: tenant {tenant} not recovered ({e}); skipping");
            }
        }
    }
    Ok(())
}

/// One queued request together with everything needed to answer it.
type QueuedRequest = (u64, Box<Request>, mpsc::Sender<(u64, Response)>);

fn shard_worker(rx: mpsc::Receiver<ShardMsg>, budget: &ReadviseBudget, persistence: &Persistence) {
    let mut tenants: HashMap<u64, TenantState> = HashMap::new();
    if let Err(e) = recover_shard_tenants(&mut tenants, persistence) {
        eprintln!(
            "pinum-server: shard {} could not scan the snapshot root ({e})",
            persistence.shard
        );
    }
    let mut queue: VecDeque<QueuedRequest> = VecDeque::new();
    let mut stopping = false;
    while !stopping {
        // Block for the next message, then drain whatever else already
        // sits in the mailbox: the drained backlog is what same-tenant
        // coalescing feeds on. An empty mailbox degrades to the old
        // one-message-at-a-time loop with identical results.
        match rx.recv() {
            Ok(ShardMsg::Stop) | Err(_) => break,
            Ok(ShardMsg::Request {
                request_id,
                req,
                reply,
            }) => queue.push_back((request_id, req, reply)),
        }
        loop {
            match rx.try_recv() {
                Ok(ShardMsg::Request {
                    request_id,
                    req,
                    reply,
                }) => queue.push_back((request_id, req, reply)),
                // Stop mid-drain still answers everything already queued.
                Ok(ShardMsg::Stop) => {
                    stopping = true;
                    break;
                }
                Err(_) => break,
            }
        }
        process_queue(&mut queue, &mut tenants, budget, persistence);
    }
}

/// The tenant a request admits into, if it is an admission message.
fn admission_tenant(req: &Request) -> Option<u64> {
    match req {
        Request::AdmitQuery { tenant, .. } | Request::AdmitBatch { tenant, .. } => Some(*tenant),
        _ => None,
    }
}

/// Destructures an admission request into its tenant and admission list;
/// any other request comes back untouched for [`handle_request`].
#[allow(clippy::result_large_err)] // Err is the request handed back whole, by design
fn as_admissions(req: Request) -> Result<(u64, Vec<WireAdmission>), Request> {
    match req {
        Request::AdmitQuery { tenant, admission } => Ok((tenant, vec![admission])),
        Request::AdmitBatch { tenant, admissions } => Ok((tenant, admissions)),
        other => Err(other),
    }
}

/// Answers every queued request in arrival order. Maximal contiguous
/// runs of admission messages for the same tenant are coalesced into
/// group-committed batches by [`handle_admission_run`]; everything else
/// dispatches one message at a time. Arrival order is preserved exactly,
/// so per-tenant results stay bit-identical to the serial loop.
fn process_queue(
    queue: &mut VecDeque<QueuedRequest>,
    tenants: &mut HashMap<u64, TenantState>,
    budget: &ReadviseBudget,
    persistence: &Persistence,
) {
    while let Some((request_id, req, reply)) = queue.pop_front() {
        match as_admissions(*req) {
            Ok((tenant, admissions)) => {
                let mut run = vec![(request_id, admissions, reply)];
                while queue
                    .front()
                    .is_some_and(|(_, req, _)| admission_tenant(req) == Some(tenant))
                {
                    let (id, req, reply) = queue.pop_front().expect("front was just checked");
                    let (_, admissions) =
                        as_admissions(*req).expect("front matched an admission message");
                    run.push((id, admissions, reply));
                }
                handle_admission_run(tenants, budget, tenant, run);
            }
            Err(req) => {
                let resp = handle_request(tenants, budget, persistence, req);
                // A gone client is not an error; its socket closed.
                let _ = reply.send((request_id, resp));
            }
        }
    }
}

/// One wire admission converted and validated, ready to borrow into an
/// [`AdmissionSpec`].
type ConvertedAdmission = (PlanCache, AccessCostCatalog, Vec<TemplateKey>, f64);

/// One queued admission message inside a coalesced same-tenant run:
/// request id, its admission list, and the connection's reply channel.
type AdmissionRun = (u64, Vec<WireAdmission>, mpsc::Sender<(u64, Response)>);

/// Validates and converts one wire admission — the only validator on
/// the admission path — without touching the advisor: conversion
/// happens up-front so a malformed admission is rejected before anything
/// is journaled.
// The Err side is the complete wire `Response` for the failed admission
// — built once per error, so its size is irrelevant.
#[allow(clippy::result_large_err)]
fn convert_admission(pool_len: usize, w: &WireAdmission) -> Result<ConvertedAdmission, Response> {
    let check = |ok: bool, msg: &'static str| {
        if ok {
            Ok(())
        } else {
            Err(malformed(ConvertError(msg)))
        }
    };
    check(
        w.weight.is_finite() && w.weight > 0.0,
        "weight must be finite and positive",
    )?;
    let cache = convert::cache_from_wire(&w.cache).map_err(malformed)?;
    let access = convert::access_from_wire(&w.access, pool_len).map_err(malformed)?;
    check(
        access.per_rel().len() == cache.n_rels,
        "access catalog arity does not match the plan cache",
    )?;
    let templates: Vec<_> = w
        .templates
        .iter()
        .map(convert::template_from_wire)
        .collect();
    Ok((cache, access, templates, w.weight))
}

fn result_to_wire(admission: Admission) -> WireAdmitResult {
    WireAdmitResult {
        ordinal: admission.ordinal as u64,
        qid: admission.qid as u64,
        evicted: admission.evicted.map(|q| q as u64),
        readvise: admission.readvise.as_ref().map(convert::report_to_wire),
    }
}

/// Applies a contiguous run of same-tenant admission messages through
/// [`PersistentAdvisor::apply_batch`]: every admission in a segment is
/// journaled with **one** group-committed fsync per
/// [`GroupCommitPolicy`] chunk, then spliced through the batched session
/// path. The shard thread is the tenant's only mutator and the segment
/// preserves arrival order, so each result is bit-identical to sending
/// the same admissions one at a time.
///
/// A conversion failure ends the current segment at the failing message:
/// the valid prefix (prior messages plus the failing message's own valid
/// leading admissions) is applied — exactly what sending them one at a
/// time would have applied before hitting the error — the failing
/// message gets its error response, and the remaining messages start a
/// fresh segment.
fn handle_admission_run(
    tenants: &mut HashMap<u64, TenantState>,
    budget: &ReadviseBudget,
    tenant: u64,
    run: Vec<AdmissionRun>,
) {
    let Some(state) = tenants.get_mut(&tenant) else {
        for (id, _, reply) in run {
            let _ = reply.send((id, unknown_tenant(tenant)));
        }
        return;
    };
    let pool_len = state.advisor.advisor().pool().indexes().len();
    let mut msgs: VecDeque<_> = run.into();
    while !msgs.is_empty() {
        // Convert up-front until the first invalid admission; `counts`
        // records how many converted admissions belong to each message.
        let mut converted: Vec<ConvertedAdmission> = Vec::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut whole_msgs = 0usize;
        let mut failure: Option<Response> = None;
        'convert: for (_, admissions, _) in &msgs {
            let mut n = 0usize;
            for w in admissions {
                match convert_admission(pool_len, w) {
                    Ok(c) => {
                        converted.push(c);
                        n += 1;
                    }
                    Err(resp) => {
                        failure = Some(resp);
                        counts.push(n);
                        break 'convert;
                    }
                }
            }
            counts.push(n);
            whole_msgs += 1;
        }

        // Every triggered re-advise waits for a budget permit, and the
        // permit guard is held across it.
        let specs: Vec<AdmissionSpec<'_>> = converted
            .iter()
            .map(|(cache, access, templates, weight)| {
                AdmissionSpec::new(cache, access)
                    .weight(*weight)
                    .templates(templates)
            })
            .collect();
        let applied = if specs.is_empty() {
            Ok(Vec::new())
        } else {
            state
                .advisor
                .apply_batch(&specs, GroupCommitPolicy::default(), |_| {
                    budget.acquire(tenant)
                })
        };

        match applied {
            Ok(admissions) => {
                let mut results = admissions.into_iter();
                for &n in counts.iter().take(whole_msgs) {
                    let (id, _, reply) = msgs.pop_front().expect("message per count");
                    let batch: Vec<_> = results.by_ref().take(n).map(result_to_wire).collect();
                    let _ = reply.send((id, Response::Admitted { results: batch }));
                }
                if let Some(resp) = failure {
                    // The failing message's valid prefix was applied —
                    // serial semantics — but its response is the error.
                    let (id, _, reply) = msgs.pop_front().expect("failing message queued");
                    let _ = reply.send((id, resp));
                }
            }
            Err(e) => {
                // The journal write failed before any admission touched
                // the advisor, so the whole segment (including the
                // conversion-failed message, whose prefix never applied)
                // reports the persistence error.
                let segment = whole_msgs + usize::from(failure.is_some());
                for _ in 0..segment {
                    let (id, _, reply) = msgs.pop_front().expect("message per segment entry");
                    let _ = reply.send((id, persistence_failed(&e)));
                }
            }
        }
    }
}

fn malformed(e: ConvertError) -> Response {
    Response::Error {
        code: ErrorCode::Malformed,
        detail: e.to_string(),
    }
}

fn unknown_tenant(tenant: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownTenant,
        detail: format!("tenant {tenant} was never created on this daemon"),
    }
}

/// A persistence-layer error as a reply: an argument the advisor refused
/// before journaling ([`PersistError::Convert`]) is the client's
/// `Malformed` request; anything else is a `Persistence` failure.
fn persistence_failed(e: &PersistError) -> Response {
    match e {
        PersistError::Convert(c) => malformed(c.clone()),
        _ => Response::Error {
            code: ErrorCode::Persistence,
            detail: e.to_string(),
        },
    }
}

fn handle_request(
    tenants: &mut HashMap<u64, TenantState>,
    budget: &ReadviseBudget,
    persistence: &Persistence,
    req: Request,
) -> Response {
    match req {
        Request::CreateTenant {
            tenant,
            pool,
            options,
        } => {
            if tenants.contains_key(&tenant) {
                return Response::Error {
                    code: ErrorCode::TenantExists,
                    detail: format!("tenant {tenant} already exists"),
                };
            }
            let pool = match convert::pool_from_wire(&pool) {
                Ok(p) => p,
                Err(e) => return malformed(e),
            };
            let opts = match convert::options_from_wire(&options) {
                Ok(o) => o,
                Err(e) => return malformed(e),
            };
            let advisor = match &persistence.root {
                Some(root) => {
                    match PersistentAdvisor::create(
                        &tenant_dir(root, tenant),
                        pool,
                        opts,
                        persistence.snapshot_every,
                    ) {
                        Ok(a) => a,
                        Err(e) => return persistence_failed(&e),
                    }
                }
                None => PersistentAdvisor::volatile(pool, opts),
            };
            tenants.insert(tenant, TenantState { advisor });
            Response::TenantCreated { tenant }
        }
        Request::ReweightAdmission {
            tenant,
            admission,
            weight,
        } => {
            let Some(state) = tenants.get_mut(&tenant) else {
                return unknown_tenant(tenant);
            };
            let outcome = match state.advisor.reweight(admission as usize, weight, true) {
                Ok(o) => o,
                Err(e) => return persistence_failed(&e),
            };
            let mut readvise = None;
            if let Some(t) = outcome.pending {
                let _permit = budget.acquire(tenant);
                match state.advisor.readvise_triggered(t) {
                    Ok(report) => readvise = Some(convert::report_to_wire(&report)),
                    Err(e) => return persistence_failed(&e),
                }
            }
            Response::Reweighted {
                applied: outcome.applied,
                readvise,
            }
        }
        Request::EvictQuery { tenant, admission } => {
            let Some(state) = tenants.get_mut(&tenant) else {
                return unknown_tenant(tenant);
            };
            match state.advisor.evict_admission(admission as usize) {
                Ok(applied) => Response::Evicted { applied },
                Err(e) => persistence_failed(&e),
            }
        }
        Request::ForceReadvise { tenant } => {
            let Some(state) = tenants.get_mut(&tenant) else {
                return unknown_tenant(tenant);
            };
            let report = {
                let _permit = budget.acquire(tenant);
                state.advisor.readvise()
            };
            match report {
                Ok(report) => Response::Readvised {
                    report: convert::report_to_wire(&report),
                },
                Err(e) => persistence_failed(&e),
            }
        }
        Request::GetSelection { tenant } => {
            let Some(state) = tenants.get(&tenant) else {
                return unknown_tenant(tenant);
            };
            let advisor = state.advisor.advisor();
            let selection = advisor.selection();
            Response::Selection {
                ids: selection.ids().map(|i| i as u64).collect(),
                total_bytes: advisor.pool().selection_bytes(selection),
                cost: advisor.current_cost(),
            }
        }
        Request::GetStats { tenant } => {
            let Some(state) = tenants.get(&tenant) else {
                return unknown_tenant(tenant);
            };
            let b = budget.stats(tenant);
            Response::Stats {
                stats: convert::stats_to_wire(state.advisor.advisor().stats()),
                budget: WireBudgetStats {
                    grants: b.grants,
                    waits: b.waits,
                    max_wait_events: b.max_wait_events,
                    total_wait_events: b.total_wait_events,
                },
            }
        }
        Request::SnapshotNow { tenant } => {
            let Some(state) = tenants.get_mut(&tenant) else {
                return unknown_tenant(tenant);
            };
            match state.advisor.snapshot_now() {
                Ok(Some(log_seq)) => Response::SnapshotTaken { log_seq },
                Ok(None) => Response::Error {
                    code: ErrorCode::PersistenceDisabled,
                    detail: format!("tenant {tenant} runs without a snapshot directory"),
                },
                Err(e) => persistence_failed(&e),
            }
        }
        Request::TenantEpoch { tenant } => {
            let Some(state) = tenants.get(&tenant) else {
                return unknown_tenant(tenant);
            };
            let p = state.advisor.persist_stats();
            Response::Epoch {
                durable: state.advisor.is_durable(),
                log_seq: state.advisor.log_seq(),
                snapshot_seq: state.advisor.last_snapshot_seq(),
                appends: p.appends,
                fsyncs: p.fsyncs,
                batches: p.batches,
                max_batch_records: p.max_batch_records,
            }
        }
        Request::AdmitQuery { .. } | Request::AdmitBatch { .. } => {
            unreachable!("admissions are routed to handle_admission_run")
        }
        Request::Shutdown => unreachable!("shutdown is handled by the connection reader"),
    }
}
