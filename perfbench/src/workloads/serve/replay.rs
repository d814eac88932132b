//! The traced half of the served workloads: every request's chain of public
//! calls re-walked in-process on twin advisors, and the per-layer metrics
//! the spans of both workloads give.

use super::{spec_of, timeless_stats, Kind, Mutation, Op, Plan, SNAPSHOT_EVERY};
use crate::fixtures::ServeFixture;
use crate::registry::Values;
use crate::round::Failures;
use crate::stats;
use crate::trace::{SpanId, Trace, NO_PARENT};
use pinum_core::access_costs::AccessCostCatalog;
use pinum_core::PlanCache;
use pinum_online::{AdmissionSpec, OnlineAdvisor, OnlineAdvisorOptions};
use pinum_persist::snapshot::list_snapshots;
use pinum_persist::{convert, GroupCommitPolicy, PersistentAdvisor, LOG_FILE};
use pinum_protocol::{
    read_request, read_response, write_request, write_response, ErrorCode, FrameIn, Request,
    Response, WireAdmission, WireAdmitResult, WireBudgetStats, WireReadviseReport,
};
use pinum_query::TemplateKey;
use pinum_server::daemon::tenant_dir;
use std::path::{Path, PathBuf};

/// One wire admission converted the way the daemon converts it.
type Converted = (PlanCache, AccessCostCatalog, Vec<TemplateKey>, f64);

fn convert_admission(pool_len: usize, w: &WireAdmission) -> Option<Converted> {
    let cache = convert::cache_from_wire(&w.cache).ok()?;
    let access = convert::access_from_wire(&w.access, pool_len).ok()?;
    let templates = w
        .templates
        .iter()
        .map(convert::template_from_wire)
        .collect();
    Some((cache, access, templates, w.weight))
}

fn timeless_report(report: Option<WireReadviseReport>) -> Option<WireReadviseReport> {
    report.map(|mut r| {
        r.wall_seconds = 0.0;
        r
    })
}

/// A response with its wall-clock fields and the daemon-only budget
/// counters zeroed: what a replay must reproduce exactly.
fn timeless(resp: Response) -> Response {
    match resp {
        Response::Admitted { results } => Response::Admitted {
            results: results
                .into_iter()
                .map(|r| WireAdmitResult {
                    readvise: timeless_report(r.readvise),
                    ..r
                })
                .collect(),
        },
        Response::Reweighted { applied, readvise } => Response::Reweighted {
            applied,
            readvise: timeless_report(readvise),
        },
        Response::Readvised { report } => Response::Readvised {
            report: timeless_report(Some(report)).expect("some in, some out"),
        },
        Response::Stats { stats, .. } => Response::Stats {
            stats: timeless_stats(stats),
            budget: WireBudgetStats::default(),
        },
        other => other,
    }
}

/// The daemon's request path, re-walked in-process on twin advisors: frame
/// encode -> frame decode -> wire-to-domain conversion -> the advisor call
/// -> response encode -> response decode, each under its own span.
pub(super) struct Replay<'a> {
    fx: &'a ServeFixture,
    /// Journaling twins where the daemon journals, volatile ones otherwise.
    twins: Vec<PersistentAdvisor>,
    /// `serve_durable` only: the same stream without a journal, so the
    /// journal's own cost is the difference.
    volatile: Vec<OnlineAdvisor>,
    twin_dirs: Vec<PathBuf>,
}

impl<'a> Replay<'a> {
    pub(super) fn new(
        fx: &'a ServeFixture,
        ids: &[u64],
        opts: OnlineAdvisorOptions,
        root: Option<&Path>,
    ) -> Self {
        let twin_dirs: Vec<_> = root
            .map(|r| ids.iter().map(|&t| tenant_dir(r, t)).collect())
            .unwrap_or_default();
        let twins = (0..ids.len())
            .map(|t| match twin_dirs.get(t) {
                Some(dir) => PersistentAdvisor::create(dir, fx.pool.clone(), opts, SNAPSHOT_EVERY)
                    .expect("create a journaling twin"),
                None => PersistentAdvisor::volatile(fx.pool.clone(), opts),
            })
            .collect();
        let volatile = twin_dirs
            .iter()
            .map(|_| OnlineAdvisor::new(fx.pool.clone(), opts))
            .collect();
        Self {
            fx,
            twins,
            volatile,
            twin_dirs,
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn request(
        &mut self,
        trace: &mut Trace,
        op_id: u32,
        parent: SpanId,
        plan: &Plan,
        op: &Op,
        real: &Option<Response>,
        failures: &mut Failures,
    ) {
        let Some(real) = real else {
            return; // never answered: already counted as a failed op
        };
        let request = plan.request(op);
        let chain = trace.begin("serve.chain", op_id, parent);
        let mut frame = Vec::new();
        trace.time("protocol.write_request", op_id, chain, || {
            write_request(&mut frame, u64::from(op_id), request).expect("write to memory")
        });
        let decoded = trace.time("protocol.read_request", op_id, chain, || {
            read_request(&mut frame.as_slice())
        });
        let Ok(FrameIn::Msg { msg, .. }) = decoded else {
            failures.note(|| format!("op {op_id}: the request frame did not decode"));
            trace.end(chain);
            return;
        };
        let response = self.dispatch(trace, op_id, chain, op.tenant, &msg);
        let mut answer = Vec::new();
        trace.time("protocol.write_response", op_id, chain, || {
            write_response(&mut answer, u64::from(op_id), &response).expect("write to memory")
        });
        let back = trace.time("protocol.read_response", op_id, chain, || {
            read_response(&mut answer.as_slice())
        });
        trace.end(chain);
        if op.kind == Kind::AdmitBatch {
            trace.add("protocol.request_bytes", frame.len() as f64);
            trace.add("protocol.response_bytes", answer.len() as f64);
            // The journal-free twin, outside the chain: not a step of it.
            let specs = self.specs(op);
            trace.time("online.apply_batch", op_id, NO_PARENT, || {
                self.volatile[op.tenant].apply_batch_gated(&specs, |_| ())
            });
        }
        match back {
            Ok(FrameIn::Msg { msg, .. }) => {
                let (got, want) = (timeless(msg), timeless(real.clone()));
                failures.check(got == want, || {
                    format!(
                        "op {op_id} ({:?}): replay answered {got:?}, the daemon {want:?}",
                        op.kind
                    )
                });
            }
            _ => failures.note(|| format!("op {op_id}: the response frame did not decode")),
        }
    }

    fn specs(&self, op: &Op) -> Vec<AdmissionSpec<'a>> {
        op.mutations
            .iter()
            .map(|m| match *m {
                Mutation::Admit { stream } => spec_of(self.fx, stream).deferred(true),
                _ => unreachable!("admission ops hold admissions only"),
            })
            .collect()
    }

    /// `pinum_server`'s request dispatch, by its public building blocks.
    fn dispatch(
        &mut self,
        trace: &mut Trace,
        op_id: u32,
        chain: SpanId,
        t: usize,
        msg: &Request,
    ) -> Response {
        let pool_len = self.fx.pool.len();
        let twin = &mut self.twins[t];
        let persistence = |e: pinum_persist::PersistError| Response::Error {
            code: ErrorCode::Persistence,
            detail: e.to_string(),
        };
        match msg {
            Request::AdmitQuery { .. } | Request::AdmitBatch { .. } => {
                let admissions: &[WireAdmission] = match msg {
                    Request::AdmitQuery { admission, .. } => std::slice::from_ref(admission),
                    Request::AdmitBatch { admissions, .. } => admissions,
                    _ => unreachable!(),
                };
                let converted: Vec<Converted> =
                    trace.time("persist.convert_from_wire", op_id, chain, || {
                        admissions
                            .iter()
                            .filter_map(|w| convert_admission(pool_len, w))
                            .collect()
                    });
                trace.add("persist.converted_admissions", converted.len() as f64);
                let specs: Vec<AdmissionSpec<'_>> = converted
                    .iter()
                    .map(|(cache, access, templates, weight)| {
                        AdmissionSpec::new(cache, access)
                            .weight(*weight)
                            .templates(templates)
                            .deferred(true)
                    })
                    .collect();
                let applied = trace.time("persist.apply_batch", op_id, chain, || {
                    twin.apply_batch(&specs, GroupCommitPolicy::default(), |_| ())
                });
                match applied {
                    Ok(admissions) => {
                        for a in &admissions {
                            if let Some(r) = &a.readvise {
                                trace.add("online.readvise_ms", r.wall.as_secs_f64() * 1e3);
                            }
                        }
                        Response::Admitted {
                            results: admissions
                                .into_iter()
                                .map(|a| WireAdmitResult {
                                    ordinal: a.ordinal as u64,
                                    qid: a.qid as u64,
                                    evicted: a.evicted.map(|q| q as u64),
                                    readvise: a.readvise.as_ref().map(convert::report_to_wire),
                                })
                                .collect(),
                        }
                    }
                    Err(e) => persistence(e),
                }
            }
            Request::ReweightAdmission {
                admission, weight, ..
            } => {
                let outcome = trace.time("online.reweight", op_id, chain, || {
                    twin.reweight(*admission as usize, *weight, true)
                });
                match outcome {
                    Ok(outcome) => {
                        let readvise = outcome.pending.map(|trigger| {
                            trace.time("online.readvise", op_id, chain, || {
                                twin.readvise_triggered(trigger).expect("volatile twin")
                            })
                        });
                        Response::Reweighted {
                            applied: outcome.applied,
                            readvise: readvise.as_ref().map(convert::report_to_wire),
                        }
                    }
                    Err(e) => persistence(e),
                }
            }
            Request::EvictQuery { admission, .. } => {
                match trace.time("online.evict", op_id, chain, || {
                    twin.evict_admission(*admission as usize)
                }) {
                    Ok(applied) => Response::Evicted { applied },
                    Err(e) => persistence(e),
                }
            }
            Request::ForceReadvise { .. } => {
                match trace.time("online.readvise", op_id, chain, || twin.readvise()) {
                    Ok(report) => Response::Readvised {
                        report: convert::report_to_wire(&report),
                    },
                    Err(e) => persistence(e),
                }
            }
            Request::GetSelection { .. } => trace.time("online.read", op_id, chain, || {
                let advisor = twin.advisor();
                let selection = advisor.selection();
                Response::Selection {
                    ids: selection.ids().map(|i| i as u64).collect(),
                    total_bytes: advisor.pool().selection_bytes(selection),
                    cost: advisor.current_cost(),
                }
            }),
            Request::GetStats { .. } => {
                trace.time("online.read", op_id, chain, || Response::Stats {
                    stats: convert::stats_to_wire(twin.advisor().stats()),
                    budget: WireBudgetStats::default(),
                })
            }
            Request::TenantEpoch { .. } => trace.time("online.read", op_id, chain, || {
                let p = twin.persist_stats();
                Response::Epoch {
                    durable: twin.is_durable(),
                    log_seq: twin.log_seq(),
                    snapshot_seq: twin.last_snapshot_seq(),
                    appends: p.appends,
                    fsyncs: p.fsyncs,
                    batches: p.batches,
                    max_batch_records: p.max_batch_records,
                }
            }),
            other => Response::Error {
                code: ErrorCode::Malformed,
                detail: format!("the benchmark never sends {other:?}"),
            },
        }
    }

    /// Counts the journaling twins kept, and times their snapshots.
    pub(super) fn finish(mut self, trace: &mut Trace) {
        for (twin, dir) in self.twins.iter_mut().zip(&self.twin_dirs) {
            let stats = twin.persist_stats();
            let admits = twin.advisor().stats().admits as f64;
            trace.add("persist.twin_fsyncs", stats.fsyncs as f64);
            trace.add("persist.twin_admissions", admits);
            let log_bytes = std::fs::metadata(dir.join(LOG_FILE)).map_or(0, |m| m.len());
            trace.add("persist.twin_log_bytes", log_bytes as f64);
            for _ in 0..3 {
                trace.time("persist.snapshot_now", 0, NO_PARENT, || {
                    twin.snapshot_now().expect("snapshot the twin")
                });
            }
            if let Some((_, newest)) = list_snapshots(dir).ok().and_then(|mut s| s.pop()) {
                let bytes = std::fs::metadata(newest).map_or(0, |m| m.len());
                trace.add("persist.snapshot_bytes", bytes as f64);
            }
        }
    }
}

/// The per-layer metrics `serve_durable`'s spans give.
pub fn durable_layer_metrics(trace: &Trace, out: &mut Values) {
    let median_us = |name: &str| stats::median(&trace.durations_ms(name)) * 1e3;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let admissions = trace.sum("persist.converted_admissions");
    let per_admission_us = |name: &str| ratio(trace.total_ms(name) * 1e3, admissions);
    let durable = per_admission_us("persist.apply_batch");
    let volatile = per_admission_us("online.apply_batch");
    out.insert("online.apply_batch_us_per_admission", volatile);
    out.insert("online.readvise_ms", trace.mean("online.readvise_ms"));
    out.insert(
        "online.readvises_per_1k_admissions",
        ratio(
            trace.sum("online.readvises") * 1e3,
            trace.sum("online.admissions"),
        ),
    );
    out.insert(
        "online.full_repricings",
        trace.sum("online.full_repricings"),
    );
    out.insert(
        "persist.convert_from_wire_us_per_admission",
        per_admission_us("persist.convert_from_wire"),
    );
    out.insert("persist.apply_batch_us_per_admission", durable);
    out.insert("persist.journal_us_per_admission", durable - volatile);
    let twin_admissions = trace.sum("persist.twin_admissions");
    out.insert(
        "persist.fsyncs_per_admission",
        ratio(trace.sum("persist.twin_fsyncs"), twin_admissions),
    );
    out.insert(
        "persist.log_bytes_per_admission",
        ratio(trace.sum("persist.twin_log_bytes"), twin_admissions),
    );
    out.insert(
        "persist.snapshot_ms",
        stats::median(&trace.durations_ms("persist.snapshot_now")),
    );
    out.insert(
        "persist.snapshot_bytes",
        trace.mean("persist.snapshot_bytes"),
    );
    out.insert(
        "persist.open_ms",
        stats::median(&trace.durations_ms("persist.open")),
    );
    out.insert(
        "persist.replayed_records",
        trace.mean("persist.replayed_records"),
    );
    out.insert(
        "protocol.encode_request_us",
        median_us("protocol.write_request"),
    );
    out.insert(
        "protocol.decode_request_us",
        median_us("protocol.read_request"),
    );
    out.insert(
        "protocol.encode_response_us",
        median_us("protocol.write_response"),
    );
    out.insert(
        "protocol.decode_response_us",
        median_us("protocol.read_response"),
    );
    out.insert(
        "protocol.request_bytes",
        trace.mean("protocol.request_bytes"),
    );
    out.insert(
        "protocol.response_bytes",
        trace.mean("protocol.response_bytes"),
    );
    out.insert(
        "server.admissions_per_s",
        trace.mean("server.admissions_per_s"),
    );
    out.insert(
        "server.fsyncs_per_admission",
        ratio(trace.sum("server.fsyncs"), trace.sum("server.appends")),
    );
    out.insert(
        "server.max_batch_records",
        trace.mean("server.max_batch_records"),
    );
    out.insert("server.start_ms", trace.mean("server.start_ms"));
    out.insert("server.restart_ms", trace.mean("server.restart_ms"));
    out.insert(
        "server.disk_bytes_per_admission",
        ratio(
            trace.sum("server.disk_bytes"),
            trace.sum("online.admissions"),
        ),
    );
    out.insert(
        "server.budget_wait_events_max",
        trace.mean("server.budget_wait_events_max"),
    );
}

/// The per-layer metrics `serve_mixed`'s spans give.
pub fn mixed_layer_metrics(trace: &Trace, out: &mut Values) {
    let median_us = |name: &str| stats::median(&trace.durations_ms(name)) * 1e3;
    out.insert("online.reweight_us", median_us("online.reweight"));
    out.insert("online.evict_us", median_us("online.evict"));
    let mut ops = trace.durations_ms("op.read");
    ops.extend(trace.durations_ms("op.write"));
    out.insert(
        "server.transport_us_per_op",
        (stats::median(&ops) - stats::median(&trace.durations_ms("serve.chain"))) * 1e3,
    );
    out.insert("server.read_p50_us", median_us("op.read"));
    out.insert("server.write_p50_us", median_us("op.write"));
}
