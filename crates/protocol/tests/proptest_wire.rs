//! Property tests for the wire format: seeded arbitrary messages must
//! round-trip bit-exactly through the frame layer, and no byte-level
//! corruption — truncation, single-byte mutation, hostile length
//! prefixes — may ever panic the decoder. The generators below cover
//! every `Request`/`Response` variant and every wire struct field,
//! including empty vectors, empty and multibyte strings, `None` options,
//! zero/negative/infinite floats.

use pinum_protocol::{
    read_request, read_response, write_request, write_response, ErrorCode, FrameIn, Request,
    Response, WireAccess, WireAccessCatalog, WireAdmission, WireAdmitResult, WireBudgetStats,
    WireCostParams, WireIndex, WireOptions, WirePlan, WirePlanCache, WireProbe, WireReadviseReport,
    WireStats, WireTemplate, MAX_FRAME_LEN,
};
use proptest::prelude::*;
use proptest::TestRng;

// --- Seeded builders: one deterministic arbitrary value per wire type. ---

fn b(r: &mut TestRng) -> bool {
    r.next_u64() & 1 == 1
}

/// Floats as they travel in practice: zeros, negatives, huge magnitudes,
/// and infinity (a NaN would be preserved bit-exactly too, but `PartialEq`
/// could no longer witness it, so the generator stays NaN-free).
fn f(r: &mut TestRng) -> f64 {
    match r.next_u64() % 8 {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::MIN_POSITIVE,
        _ => (r.unit_f64() - 0.5) * 1e12,
    }
}

/// Strings with empty, ASCII, and multibyte shapes (exercises the UTF-8
/// length-prefix path).
fn s(r: &mut TestRng) -> String {
    const ALPHABET: [char; 8] = ['a', 'Z', '0', '_', 'λ', '→', '¢', '𐍈'];
    let n = (r.next_u64() % 12) as usize;
    (0..n)
        .map(|_| ALPHABET[(r.next_u64() % ALPHABET.len() as u64) as usize])
        .collect()
}

fn index(r: &mut TestRng) -> WireIndex {
    WireIndex {
        id: r.next_u64() as u32,
        table: r.next_u64() as u32,
        key_columns: (0..r.next_u64() % 5).map(|_| r.next_u64() as u16).collect(),
        unique: b(r),
        kind: (r.next_u64() % 2) as u8,
        leaf_pages: r.next_u64(),
        internal_pages: r.next_u64(),
        height: r.next_u64() as u32,
        correlation: f(r),
        rows: r.next_u64(),
        name: s(r),
    }
}

fn probe(r: &mut TestRng) -> WireProbe {
    WireProbe {
        index_leaf_pages: r.next_u64(),
        index_height: r.next_u64() as u32,
        index_rows: f(r),
        heap_pages: r.next_u64(),
        heap_rows: f(r),
        index_selectivity: f(r),
        correlation: f(r),
        filter_ops: r.next_u64() as u32,
        index_only: b(r),
        loop_count: f(r),
    }
}

fn access(r: &mut TestRng) -> WireAccess {
    WireAccess {
        candidate: b(r).then(|| r.next_u64() as u32),
        order: b(r).then(|| r.next_u64() as u16),
        cost: f(r),
        probe: b(r).then(|| probe(r)),
    }
}

fn catalog(r: &mut TestRng) -> WireAccessCatalog {
    WireAccessCatalog {
        per_rel: (0..r.next_u64() % 4)
            .map(|_| (0..r.next_u64() % 4).map(|_| access(r)).collect())
            .collect(),
        params: WireCostParams {
            seq_page_cost: f(r),
            random_page_cost: f(r),
            cpu_tuple_cost: f(r),
            cpu_index_tuple_cost: f(r),
            cpu_operator_cost: f(r),
            effective_cache_pages: f(r),
            work_mem_kb: r.next_u64(),
        },
    }
}

fn plan(r: &mut TestRng) -> WirePlan {
    WirePlan {
        ioc: r.next_u64(),
        internal: f(r),
        coefs: (0..r.next_u64() % 5).map(|_| f(r)).collect(),
        probe_coefs: (0..r.next_u64() % 5).map(|_| f(r)).collect(),
        uses_nlj: b(r),
        rows: f(r),
        description: s(r),
    }
}

fn cache(r: &mut TestRng) -> WirePlanCache {
    WirePlanCache {
        query_name: s(r),
        n_rels: r.next_u64() as u32,
        orders: (0..r.next_u64() % 4)
            .map(|_| (0..r.next_u64() % 4).map(|_| r.next_u64() as u16).collect())
            .collect(),
        plans: (0..r.next_u64() % 3).map(|_| plan(r)).collect(),
    }
}

fn template(r: &mut TestRng) -> WireTemplate {
    WireTemplate {
        table: r.next_u64() as u32,
        filters: (0..r.next_u64() % 4)
            .map(|_| {
                (
                    r.next_u64() as u16,
                    r.next_u64() as u8,
                    r.next_u64(),
                    r.next_u64(),
                )
            })
            .collect(),
    }
}

fn options(r: &mut TestRng) -> WireOptions {
    WireOptions {
        window_capacity: r.next_u64(),
        epoch_length: r.next_u64(),
        drift_threshold: f(r),
        strategy: (r.next_u64() % 3) as u8,
        budget_bytes: r.next_u64(),
        scoped_readvise: b(r),
        attribution_threshold: f(r),
    }
}

fn admission(r: &mut TestRng) -> WireAdmission {
    WireAdmission {
        cache: cache(r),
        access: catalog(r),
        weight: f(r),
        templates: (0..r.next_u64() % 3).map(|_| template(r)).collect(),
    }
}

fn report(r: &mut TestRng) -> WireReadviseReport {
    WireReadviseReport {
        trigger: (r.next_u64() % 3) as u8,
        wall_seconds: f(r),
        cost_before: f(r),
        cost_after: f(r),
        picks: r.next_u64(),
        evaluations: r.next_u64(),
        queries_repriced: r.next_u64(),
        full_repricings: r.next_u64(),
        scoped: b(r),
        scope_candidates: r.next_u64(),
    }
}

fn request(r: &mut TestRng) -> Request {
    match r.next_u64() % 11 {
        0 => Request::CreateTenant {
            tenant: r.next_u64(),
            pool: (0..r.next_u64() % 3).map(|_| index(r)).collect(),
            options: options(r),
        },
        1 => Request::AdmitQuery {
            tenant: r.next_u64(),
            admission: admission(r),
        },
        2 => Request::AdmitBatch {
            tenant: r.next_u64(),
            admissions: (0..r.next_u64() % 3).map(|_| admission(r)).collect(),
        },
        3 => Request::ReweightAdmission {
            tenant: r.next_u64(),
            admission: r.next_u64(),
            weight: f(r),
        },
        4 => Request::EvictQuery {
            tenant: r.next_u64(),
            admission: r.next_u64(),
        },
        5 => Request::ForceReadvise {
            tenant: r.next_u64(),
        },
        6 => Request::GetSelection {
            tenant: r.next_u64(),
        },
        7 => Request::GetStats {
            tenant: r.next_u64(),
        },
        8 => Request::SnapshotNow {
            tenant: r.next_u64(),
        },
        9 => Request::TenantEpoch {
            tenant: r.next_u64(),
        },
        _ => Request::Shutdown,
    }
}

fn response(r: &mut TestRng) -> Response {
    match r.next_u64() % 11 {
        0 => Response::TenantCreated {
            tenant: r.next_u64(),
        },
        1 => Response::Admitted {
            results: (0..r.next_u64() % 3)
                .map(|_| WireAdmitResult {
                    ordinal: r.next_u64(),
                    qid: r.next_u64(),
                    evicted: b(r).then(|| r.next_u64()),
                    readvise: b(r).then(|| report(r)),
                })
                .collect(),
        },
        2 => Response::Reweighted {
            applied: b(r),
            readvise: b(r).then(|| report(r)),
        },
        3 => Response::Evicted { applied: b(r) },
        4 => Response::Readvised { report: report(r) },
        5 => Response::Selection {
            ids: (0..r.next_u64() % 6).map(|_| r.next_u64()).collect(),
            total_bytes: r.next_u64(),
            cost: f(r),
        },
        6 => Response::Stats {
            stats: WireStats {
                admits: r.next_u64(),
                evictions: r.next_u64(),
                reweights: r.next_u64(),
                reweight_misses: r.next_u64(),
                readvises: r.next_u64(),
                epoch_readvises: r.next_u64(),
                drift_readvises: r.next_u64(),
                forced_readvises: r.next_u64(),
                scoped_readvises: r.next_u64(),
                full_repricings: r.next_u64(),
                compactions: r.next_u64(),
                admit_arms_total: r.next_u64(),
                admit_arms_max: r.next_u64(),
                model_admit_wall_seconds: f(r),
                readvise_wall_seconds: f(r),
                last_readvise_wall_seconds: f(r),
            },
            budget: WireBudgetStats {
                grants: r.next_u64(),
                waits: r.next_u64(),
                max_wait_events: r.next_u64(),
                total_wait_events: r.next_u64(),
            },
        },
        7 => Response::ShuttingDown,
        8 => Response::SnapshotTaken {
            log_seq: r.next_u64(),
        },
        9 => Response::Epoch {
            durable: b(r),
            log_seq: r.next_u64(),
            snapshot_seq: b(r).then(|| r.next_u64()),
            appends: r.next_u64(),
            fsyncs: r.next_u64(),
            batches: r.next_u64(),
            max_batch_records: r.next_u64(),
        },
        _ => Response::Error {
            code: [
                ErrorCode::TenantExists,
                ErrorCode::UnknownTenant,
                ErrorCode::Malformed,
                ErrorCode::ShuttingDown,
                ErrorCode::PersistenceDisabled,
                ErrorCode::Persistence,
            ][(r.next_u64() % 6) as usize],
            detail: s(r),
        },
    }
}

/// Reads request frames until clean EOF or a fatal error, asserting the
/// drain terminates (every outcome consumes at least the length prefix).
fn drain(buf: &[u8]) {
    let mut slice = buf;
    for _ in 0..buf.len() + 2 {
        match read_request(&mut slice) {
            Ok(FrameIn::Eof) | Err(_) => return,
            Ok(FrameIn::Msg { .. }) | Ok(FrameIn::Bad { .. }) => {}
        }
    }
    panic!("frame drain did not terminate on {} bytes", buf.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every request variant survives encode → frame → decode bit-exactly,
    /// and back-to-back frames on one stream stay delimited.
    #[test]
    fn any_request_roundtrips_bit_exactly(seed in 0u64..=u64::MAX) {
        let mut r = TestRng::new(seed);
        let msgs: Vec<(u64, Request)> =
            (0..1 + seed % 3).map(|_| (r.next_u64(), request(&mut r))).collect();
        let mut buf = Vec::new();
        for (id, req) in &msgs {
            write_request(&mut buf, *id, req).unwrap();
        }
        let mut slice = buf.as_slice();
        for (id, req) in &msgs {
            match read_request(&mut slice).unwrap() {
                FrameIn::Msg { request_id, msg } => {
                    prop_assert_eq!(request_id, *id);
                    prop_assert_eq!(&msg, req);
                }
                other => panic!("expected a message, got {other:?}"),
            }
        }
        prop_assert!(matches!(read_request(&mut slice).unwrap(), FrameIn::Eof));
    }

    /// Every response variant survives the same trip.
    #[test]
    fn any_response_roundtrips_bit_exactly(seed in 0u64..=u64::MAX) {
        let mut r = TestRng::new(seed);
        let id = r.next_u64();
        let resp = response(&mut r);
        let mut buf = Vec::new();
        write_response(&mut buf, id, &resp).unwrap();
        let mut slice = buf.as_slice();
        match read_response(&mut slice).unwrap() {
            FrameIn::Msg { request_id, msg } => {
                prop_assert_eq!(request_id, id);
                prop_assert_eq!(msg, resp);
            }
            other => panic!("expected a message, got {other:?}"),
        }
        prop_assert!(matches!(read_response(&mut slice).unwrap(), FrameIn::Eof));
    }

    /// A single flipped byte anywhere in a frame stream — length prefix,
    /// header, or body — never panics the reader; it yields some lawful
    /// sequence of Msg/Bad frames ending in EOF or a fatal error.
    #[test]
    fn single_byte_corruption_never_panics(
        seed in 0u64..=u64::MAX,
        pos_pick in 0u64..=u64::MAX,
        xor in 1u8..=255,
    ) {
        let mut r = TestRng::new(seed);
        let mut buf = Vec::new();
        write_request(&mut buf, r.next_u64(), &request(&mut r)).unwrap();
        write_request(&mut buf, r.next_u64(), &request(&mut r)).unwrap();
        let pos = (pos_pick % buf.len() as u64) as usize;
        buf[pos] ^= xor;
        drain(&buf);
    }

    /// Every truncation point of a valid stream terminates cleanly —
    /// mid-prefix and mid-payload cuts are fatal, boundary cuts are EOF.
    #[test]
    fn every_truncation_point_terminates(seed in 0u64..=u64::MAX, cut_pick in 0u64..=u64::MAX) {
        let mut r = TestRng::new(seed);
        let mut buf = Vec::new();
        write_request(&mut buf, r.next_u64(), &request(&mut r)).unwrap();
        write_request(&mut buf, r.next_u64(), &request(&mut r)).unwrap();
        let cut = (cut_pick % (buf.len() as u64 + 1)) as usize;
        drain(&buf[..cut]);
    }

    /// `AdmitBatch` — the message client pipelining and server
    /// coalescing ride on — gets a dedicated sweep: round-trip at
    /// several batch sizes (including empty), then a truncation and a
    /// flipped byte. A cut frame must decode to the complete batch or
    /// fail cleanly — never to a silently shortened admission list.
    #[test]
    fn admit_batch_roundtrips_and_survives_corruption(
        seed in 0u64..=u64::MAX,
        size_pick in 0u64..5,
        cut_pick in 0u64..=u64::MAX,
        xor in 1u8..=255,
    ) {
        let mut r = TestRng::new(seed);
        let req = Request::AdmitBatch {
            tenant: r.next_u64(),
            admissions: (0..size_pick).map(|_| admission(&mut r)).collect(),
        };
        let id = r.next_u64();
        let mut buf = Vec::new();
        write_request(&mut buf, id, &req).unwrap();
        match read_request(&mut buf.as_slice()).unwrap() {
            FrameIn::Msg { request_id, msg } => {
                prop_assert_eq!(request_id, id);
                prop_assert_eq!(&msg, &req);
            }
            other => panic!("expected a message, got {other:?}"),
        }
        let cut = (cut_pick % (buf.len() as u64 + 1)) as usize;
        match read_request(&mut &buf[..cut]) {
            Ok(FrameIn::Msg { msg, .. }) => {
                prop_assert_eq!(&msg, &req, "only the complete frame may decode");
            }
            Ok(FrameIn::Eof) => prop_assert_eq!(cut, 0),
            Ok(FrameIn::Bad { .. }) | Err(_) => {}
        }
        let pos = (cut_pick >> 17) as usize % buf.len();
        buf[pos] ^= xor;
        drain(&buf);
    }

    /// Hostile length prefixes: anything over the cap is rejected before
    /// allocating; anything under it either delimits garbage (recoverable
    /// Bad) or tears at EOF (fatal) — never a panic, never an OOM.
    #[test]
    fn hostile_length_prefixes_never_allocate_or_panic(
        len in 0u32..=u32::MAX,
        fill in 0u64..=u64::MAX,
    ) {
        let mut buf = len.to_le_bytes().to_vec();
        // A little payload, usually shorter than the prefix claims.
        let mut r = TestRng::new(fill);
        for _ in 0..fill % 32 {
            buf.push(r.next_u64() as u8);
        }
        if len > MAX_FRAME_LEN {
            prop_assert!(matches!(
                read_request(&mut buf.as_slice()),
                Err(pinum_protocol::WireError::Oversized(l)) if l == len
            ));
        } else {
            drain(&buf);
        }
    }
}
